"""Every public library name has a caller outside the tests.

The suite is nine applications, the ``sdvbs`` commands and job server
that run them, and the benchmarks and examples that characterize them.
A public top-level function or class under ``src/repro`` that none of
those reach is dead weight that only its own tests keep alive, so this
test parses the tree with :mod:`ast` and requires each such name to be
used somewhere outside its own definition: as an identifier, an
attribute, an import alias or a string constant (the registry and the
sampler look names up by string).  A function registered with
``register_kernel`` counts as reached: the kernel registry calls it.

Only non-test code counts as a caller: ``src/`` modules other than
package ``__init__.py`` files (whose re-exports and ``__all__`` entries
would otherwise make every name look used), plus ``benchmarks/``,
``examples/`` and ``suitebench/``.  The one exception is
``TEST_REFERENCES``: test-only oracles that a remaining test compares
kept code against, each paired with the test file that uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "suitebench")

#: Public names only a test reaches, kept as references for kept code:
#: (name, test file that uses it).
TEST_REFERENCES = (
    # Oracles and paper data that kept code is checked against.
    ("apply_homography", "tests/test_app_properties.py"),
    ("best_stump", "tests/test_face_training_oracle.py"),
    ("get_kernel", "tests/test_backend_equivalence.py"),
    ("graph_from_model", "tests/test_dataflow.py"),
    ("lanczos", "tests/test_linalg_decompose.py"),
    ("ncut_value", "tests/test_extensions_solvers_stitch_face.py"),
    ("paper_class", "tests/test_paper_reference.py"),
    ("paper_kernel_order", "tests/test_paper_reference.py"),
    ("track_feature_level", "tests/test_feature_batch_oracle.py"),
    # Parsers that read back what kept writers emit (CI runs them too).
    ("events_from_jsonl", "tests/test_tracing.py"),
    ("lint_exposition", "tests/test_telemetry.py"),
    ("parse_collapsed", "tests/test_sampling.py"),
)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _registered(node):
    """Whether ``node`` is decorated with ``register_kernel(...)``: the
    kernel registry reaches it (``sdvbs verify-backends`` and the
    benchmark's kernel sweep call every registered kernel)."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "register_kernel"
               for d in node.decorator_list)


def _definitions():
    """``(name, module path, line)`` for each public top-level def/class."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")
                    and not _registered(node)):
                found.append((node.name, path, node.lineno))
    return found


def _caller_files():
    files = [p for p in sorted(PACKAGE.rglob("*.py"))
             if p.name != "__init__.py"]
    for directory in CALLER_DIRS:
        files.extend(sorted((ROOT / directory).rglob("*.py")))
    return files


def _names_used(tree):
    """Identifiers, attributes, import aliases and string constants."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unreachable():
    """``module path:name`` of every public def no non-test code uses."""
    # name -> the top-level statements, as (path, line), that use it.
    users = {}
    for path in _caller_files():
        for statement in _parse(path).body:
            for name in _names_used(statement):
                users.setdefault(name, set()).add((path, statement.lineno))
    # A definition's own body does not count as a use of itself.
    return sorted(f"{path.relative_to(ROOT / 'src')}:{name}"
                  for name, path, line in _definitions()
                  if not users.get(name, set()) - {(path, line)})


def test_every_public_name_has_a_non_test_caller():
    allowed = {name for name, _ in TEST_REFERENCES}
    missing = [entry for entry in unreachable()
               if entry.rsplit(":", 1)[1] not in allowed]
    assert not missing, (
        "public names only tests reach (delete them, or list a test "
        "oracle in TEST_REFERENCES):\n  " + "\n  ".join(missing))


def test_test_references_are_test_only_and_used_by_their_test():
    dead = {entry.rsplit(":", 1)[1] for entry in unreachable()}
    for name, test_file in TEST_REFERENCES:
        assert test_file.startswith("tests/test_"), test_file
        assert name in dead, f"{name} has a non-test caller; drop it here"
        used = _names_used(_parse(ROOT / test_file))
        assert name in used, f"{test_file} does not use {name}"


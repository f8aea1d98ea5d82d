"""Dual-backend registry, dispatch, scoping, and manifest recording."""

import json

import numpy as np
import pytest

from repro.core import backend as backend_mod
from repro.core.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    active_backend,
    get_kernel,
    load_all_kernels,
    register_kernel,
    registered_kernels,
    set_backend,
    use_backend,
)
from repro.core.runner import run_benchmark
from repro.core.registry import get_benchmark
from repro.core.tracing import run_manifest
from repro.core.types import InputSize


@pytest.fixture
def scratch_kernel():
    """Allow a test to register a throwaway kernel; clean up afterwards."""
    created = []

    def track(name):
        created.append(name)
        return name

    yield track
    for name in created:
        backend_mod._registry.pop(name, None)


@pytest.fixture(autouse=True)
def restore_backend():
    previous = active_backend()
    yield
    set_backend(previous)


class TestRegistry:
    def test_load_all_kernels_populates_catalog(self):
        load_all_kernels()
        names = [spec.name for spec in registered_kernels()]
        assert names == sorted(names)
        expected = {
            "disparity.ssd",
            "imgproc.bilinear",
            "imgproc.convolve2d",
            "imgproc.convolve_cols",
            "imgproc.convolve_rows",
            "imgproc.gradient",
            "imgproc.integral_image",
            "imgproc.warp_affine",
            "sift.descriptor",
            "stitch.match_distances",
            "svm.kernel_matrix",
            "tracking.min_eigenvalue",
        }
        assert expected <= set(names)

    def test_specs_carry_catalog_metadata(self):
        for spec in registered_kernels():
            assert spec.paper_kernel
            assert spec.apps
            assert spec.module.startswith("repro.")
            assert spec.doc
            assert callable(spec.ref) and callable(spec.fast)

    def test_get_kernel_unknown_name(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("no.such.kernel")

    def test_duplicate_registration_rejected(self, scratch_kernel):
        name = scratch_kernel("test.duplicate")
        register_kernel(name, paper_kernel="X", apps=("disparity",),
                        ref=lambda: "ref")(lambda: "fast")
        with pytest.raises(ValueError, match="already registered"):
            register_kernel(name, paper_kernel="X", apps=("disparity",),
                            ref=lambda: "ref")(lambda: "fast")


class TestDispatch:
    def test_dispatcher_follows_active_backend(self, scratch_kernel):
        name = scratch_kernel("test.dispatch")
        dispatcher = register_kernel(
            name, paper_kernel="X", apps=("disparity",),
            ref=lambda: "ref-result",
        )(lambda: "fast-result")
        assert dispatcher() == "fast-result"  # default backend
        with use_backend("ref"):
            assert dispatcher() == "ref-result"
        assert dispatcher() == "fast-result"
        assert dispatcher.kernel_spec.name == name

    def test_real_kernel_dispatches_both_paths(self):
        from repro.imgproc.integral import integral_image

        img = np.arange(20.0).reshape(4, 5)
        fast_out = integral_image(img)
        with use_backend("ref"):
            ref_out = integral_image(img)
        np.testing.assert_array_equal(fast_out, ref_out)


class TestBackendState:
    def test_default_is_fast(self):
        assert DEFAULT_BACKEND == "fast"
        assert active_backend() in BACKENDS

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("turbo")

    def test_use_backend_restores_on_exit(self):
        set_backend("fast")
        with use_backend("ref"):
            assert active_backend() == "ref"
        assert active_backend() == "fast"

    def test_use_backend_none_is_noop(self):
        set_backend("ref")
        with use_backend(None):
            assert active_backend() == "ref"
        assert active_backend() == "ref"

    def test_use_backend_restores_after_exception(self):
        set_backend("fast")
        with pytest.raises(RuntimeError):
            with use_backend("ref"):
                raise RuntimeError("boom")
        assert active_backend() == "fast"


class TestRunnerIntegration:
    def test_run_benchmark_backend_scope_restores(self):
        bench = get_benchmark("disparity")
        set_backend("fast")
        run = run_benchmark(bench, InputSize.SQCIF, backend="ref")
        assert active_backend() == "fast"
        assert run.total_seconds > 0.0

    def test_ref_and_fast_runs_agree_on_outputs(self):
        bench = get_benchmark("disparity")
        fast_run = run_benchmark(bench, InputSize.SQCIF, backend="fast")
        ref_run = run_benchmark(bench, InputSize.SQCIF, backend="ref")
        assert set(ref_run.outputs) == set(fast_run.outputs)
        np.testing.assert_allclose(
            ref_run.outputs["mean_abs_error"],
            fast_run.outputs["mean_abs_error"],
            rtol=1e-9, atol=1e-9,
        )


class TestManifest:
    def test_manifest_records_active_backend(self):
        manifest = run_manifest(argv=["run"])
        assert manifest["measurement"]["backend"] == active_backend()

    def test_manifest_records_explicit_backend(self):
        manifest = run_manifest(argv=["run"], backend="ref")
        assert manifest["measurement"]["backend"] == "ref"

    def test_manifest_reflects_scoped_backend(self):
        with use_backend("ref"):
            manifest = run_manifest(argv=["run"])
        assert manifest["measurement"]["backend"] == "ref"


class TestCli:
    def test_run_json_records_backend(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["run", "disparity", "--sizes", "sqcif",
                         "--backend", "ref", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["measurement"]["backend"] == "ref"

    def test_run_json_default_backend(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["run", "disparity", "--sizes", "sqcif",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["measurement"]["backend"] == "fast"

    def test_run_rejects_unknown_backend(self, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["run", "disparity", "--backend", "turbo"])
        assert "invalid choice" in capsys.readouterr().err

    def test_verify_backends_subset(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["verify-backends", "--sizes", "sqcif",
                         "--kernels", "imgproc.integral_image"]) == 0
        out = capsys.readouterr().out
        assert "imgproc.integral_image" in out
        assert "all within tolerance" in out

    def test_verify_backends_unknown_kernel(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["verify-backends", "--kernels", "no.such"]) == 2
        assert "unknown kernels" in capsys.readouterr().err

    def test_help_documents_backend_flag(self, capsys):
        from repro.cli import main as cli_main

        for command in ("run", "figure2", "figure3", "trace"):
            with pytest.raises(SystemExit):
                cli_main([command, "--help"])
            assert "--backend" in capsys.readouterr().out

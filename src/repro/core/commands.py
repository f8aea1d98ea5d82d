"""One command table for both shells: ``sdvbs <command>`` and served jobs.

A measurement is only as trustworthy as the command that produced it,
so the CLI and the job server (:mod:`repro.core.jobs`) share one copy of
each command instead of two hand-synced ones.  A :class:`Param` is one
parameter's name (job-spec key, argparse ``dest`` and ``SpecError``
field), validator, bounds and default; :data:`COMMANDS` gives each
served job type its argument set.  The bodies (:func:`run`,
:func:`trace`, :func:`flame`, :func:`regress`) return an
:class:`Outcome`: the CLI prints it or writes its artifacts to output
paths, the job executor writes them into the job directory.  Arguments
only one shell has (output paths, ``--events``, ``--jobs``, ``--db``,
``--attribute``, job ids ...) stay with that shell.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .backend import BACKENDS
from .export import result_to_json
from .htmlreport import render_html_report
from .registry import get_benchmark
from .regress import (
    attribute_regressions,
    cells_from_result,
    detect_regressions,
    pair_lookup_from_results,
    report_to_dict,
    report_to_json,
)
from .runner import ALL_SIZES, run_benchmark, run_suite
from .sampling import (
    StackSampler,
    kernel_frame_map,
    speedscope_json,
    to_collapsed,
)
from .tracing import TraceRecorder
from .types import InputSize, SuiteResult


class ArgError(ValueError):
    """An argument its parameter's validator rejected; names the field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


# ----------------------------------------------------------------------
# Value kinds: how a parameter's values are read from argv and checked


@dataclass(frozen=True)
class Kind:
    """A validator: ``check(name, value)`` normalizes or raises ValueError.

    ``parse`` turns argv text into the JSON type ``check`` expects;
    ``choices`` go to argparse as-is.  ``at_parse=False`` leaves the
    check to :func:`validate`, so a registry miss is a one-line CLI
    error (``sdvbs trace: unknown benchmark ...``, exit 2).
    """

    check: Callable[[str, object], object]
    parse: Callable[[str], object] = str
    choices: Optional[Tuple[str, ...]] = None
    at_parse: bool = True

    def argtype(self, name: str) -> Callable[[str], object]:
        """An argparse ``type=`` converter: parse, then check."""

        def convert(text: str) -> object:
            try:
                return self.check(name, self.parse(text))
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert


def integer(minimum: int, maximum: Optional[int] = None) -> Kind:
    """Integers in ``[minimum, maximum]`` (no upper bound when None)."""

    def check(name: str, value: object) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ValueError(f"{name} must be <= {maximum}, got {value}")
        return int(value)

    return Kind(check, parse=int)


def number(minimum: float, exclusive: bool = False) -> Kind:
    """Numbers above ``minimum`` (or at it unless ``exclusive``), as floats."""

    def check(name: str, value: object) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {value!r}")
        value = float(value)
        if exclusive and value <= minimum:
            raise ValueError(f"{name} must be > {minimum:g}, got {value:g}")
        if not exclusive and value < minimum:
            raise ValueError(f"{name} must be >= {minimum:g}, got {value:g}")
        return value

    return Kind(check, parse=float)


def choice(values: Sequence[str], optional: bool = False) -> Kind:
    """One of ``values``; ``None`` too when ``optional``."""

    def check(name: str, value: object) -> Optional[str]:
        if value is None and optional:
            return None
        if value not in values:
            raise ValueError(f"unknown {name} {value!r} (choose from "
                             f"{', '.join(values)})")
        return str(value)

    return Kind(check, choices=tuple(values))


def _check_size(name: str, value: object) -> str:
    if isinstance(value, str) and value.upper() in InputSize.__members__:
        return InputSize[value.upper()].name
    choices = ", ".join(size.name for size in InputSize)
    raise ValueError(f"invalid size {value!r} (choose from {choices})")


def _check_slug(name: str, value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    try:
        return get_benchmark(value).slug
    except KeyError as exc:
        raise ValueError(str(exc.args[0])) from None


SIZE_KIND = Kind(_check_size)
SLUG_KIND = Kind(_check_slug, at_parse=False)


# ----------------------------------------------------------------------
# Parameters


#: The default of a parameter that has none (the argument is required).
REQUIRED = object()


class _Many(argparse.Action):
    """``nargs='*'`` whose empty list falls back to the default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, list(values or self.default))


@dataclass(frozen=True)
class Param:
    """One parameter: name, validator, default and help, defined once.

    ``many`` parameters take a list; an absent or empty list means the
    default (a tuple, copied into a fresh list on use).  ``positional``
    parameters are argparse positionals (the benchmark slugs); the rest
    become ``--name`` flags.
    """

    name: str
    kind: Kind
    default: object = REQUIRED
    help: str = ""
    metavar: Optional[str] = None
    many: bool = False
    positional: bool = False

    def with_default(self, default: object) -> "Param":
        """The same parameter with another command's default."""
        return replace(self, default=default)

    def check(self, value: object) -> object:
        """Validate one value; :class:`ArgError` names this parameter."""
        try:
            if not self.many:
                return self.kind.check(self.name, value)
            if not isinstance(value, list):
                raise ValueError(f"{self.name} must be a list, got "
                                 f"{value!r}")
            return [self.kind.check(self.name, item) for item in value]
        except ValueError as exc:
            raise ArgError(self.name, str(exc)) from None

    def value_in(self, args: Mapping[str, object]) -> object:
        """This parameter's validated value in ``args``, default filled."""
        if self.many:
            return self.check(args.get(self.name) or list(self.default))
        if self.name in args:
            return self.check(args[self.name])
        if self.default is REQUIRED:
            raise ArgError(self.name, f"missing required {self.name}")
        return self.check(self.default)

    def add_to(self, parser: argparse.ArgumentParser,
               help: Optional[str] = None) -> None:
        """Declare this parameter on an argparse (sub)parser."""
        kwargs: Dict[str, object] = {"help": help or self.help,
                                     "metavar": self.metavar}
        if self.many:
            kwargs.update(nargs="*", action=_Many,
                          default=list(self.default))
        elif self.default is not REQUIRED:
            kwargs["default"] = self.default
        if self.kind.choices is not None:
            kwargs["choices"] = self.kind.choices
        elif self.kind.at_parse:
            kwargs["type"] = self.kind.argtype(self.name)
        if self.positional:
            parser.add_argument(self.name, **kwargs)  # type: ignore[arg-type]
        else:
            parser.add_argument("--" + self.name.replace("_", "-"),
                                dest=self.name,
                                **kwargs)  # type: ignore[arg-type]


def validate(params: Sequence[Param],
             args: Mapping[str, object]) -> Dict[str, object]:
    """Every parameter's validated value: the command's argument set.

    Keys not in ``params`` are ignored, so a CLI namespace (which also
    carries shell-only arguments) validates like a job spec.
    """
    return {param.name: param.value_in(args) for param in params}


BENCHMARK = Param("benchmark", SLUG_KIND, metavar="slug", positional=True,
                  help="benchmark slug (e.g. disparity)")
BENCHMARKS = Param("benchmarks", SLUG_KIND, default=(), metavar="slugs",
                   many=True, positional=True,
                   help="benchmark slugs (default: all)")
SIZE = Param("size", SIZE_KIND, default="SQCIF", metavar="SIZE",
             help="SQCIF/QCIF/CIF/VGA, case-insensitive "
             "(default: %(default)s)")
SIZES = Param("sizes", SIZE_KIND, default=tuple(s.name for s in ALL_SIZES),
              metavar="SIZE", many=True,
              help="SQCIF/QCIF/CIF/VGA, case-insensitive (default: the "
              "paper trio; VGA is opt-in)")
VARIANT = Param("variant", integer(0, 4), default=0, metavar="N",
                help="input variant, 0-4 (default: %(default)s)")
VARIANTS = Param("variants", integer(1, 5), default=1, metavar="N",
                 help="input variants per size, 1-5 (default: %(default)s)")
WARMUP = Param("warmup", integer(0), default=0, metavar="N",
               help="discarded warmup runs per cell (default: %(default)s)")
REPEATS = Param("repeats", integer(1), default=1, metavar="N",
                help="measured runs per cell; results report "
                "min/median/mean/stddev (default: %(default)s)")
BACKEND = Param("backend", choice(BACKENDS, optional=True), default=None,
                help="kernel execution backend: 'fast' runs the "
                "vectorized implementations (default), 'ref' the "
                "loop-faithful reference nests; recorded in the run "
                "manifest (see KERNELS.md)")
INTERVAL = Param("interval", number(0.0, exclusive=True), default=0.0002,
                 metavar="SEC", help="target seconds between stack "
                 "samples (default: %(default)s)")
FORMAT = Param("format", choice(("collapsed", "speedscope")),
               default="collapsed",
               help="collapsed-stack text for flamegraph.pl/inferno, or "
               "speedscope sampled-profile JSON (default: %(default)s)")
SIGMAS = Param("sigmas", number(0.0), default=2.0, metavar="K",
               help="significance threshold in units of combined "
               "recorded stddev (default: %(default)s)")
MIN_SLOWDOWN = Param("min_slowdown", number(0.0), default=0.10,
                     metavar="FRAC",
                     help="minimum relative slowdown to flag, as a "
                     "fraction (default: %(default)s = 10%%)")

#: The stack-sampling knobs: more repeats mean more samples, and the
#: warmup runs are not sampled.  Shared by ``flame`` and the CLI's
#: ``xcheck`` and sampled ``report``.
SAMPLING = (INTERVAL, REPEATS.with_default(10), WARMUP.with_default(2))

#: The served job types, each the argument set of one command.  The
#: served ``report`` measures like ``run`` (one variant, sampled only on
#: a profiling server); the CLI's ``report`` is the sampled variant
#: built from :data:`SAMPLING`.
COMMANDS: Dict[str, Tuple[Param, ...]] = {
    "run": (BENCHMARKS, SIZES, VARIANTS, WARMUP, REPEATS, BACKEND),
    "trace": (BENCHMARK, SIZE, VARIANT, BACKEND),
    "flame": (BENCHMARK, SIZE.with_default("CIF"), VARIANT) + SAMPLING
    + (FORMAT, BACKEND),
    "report": (BENCHMARKS, SIZES, WARMUP, REPEATS, BACKEND),
    "regress": (SIGMAS, MIN_SLOWDOWN),
}


# ----------------------------------------------------------------------
# Bodies


@dataclass
class Outcome:
    """A body's measured ``result`` (``(run, profile)`` for flame), its
    JSON ``summary`` (a served job's payload) and artifact texts by name."""

    result: object
    summary: Dict[str, object]
    artifacts: Dict[str, str] = field(default_factory=dict)


def measure(args: Mapping[str, object], manifest: Dict[str, object],
            recorder: Optional[TraceRecorder] = None, jobs: int = 1,
            job: Optional[Dict[str, object]] = None,
            sample_interval: float = 0.0) -> SuiteResult:
    """Run the ``run`` argument set's grid and stamp its provenance.

    ``sample_interval`` > 0 stack-samples each cell, so every run
    carries ``sampling`` (the CLI's ``report``, and served runs on a
    ``--profile-interval`` server).
    """
    result = run_suite(
        list(args["benchmarks"]) or None,  # type: ignore[call-overload]
        sizes=[InputSize[name] for name in args["sizes"]],  # type: ignore[attr-defined]
        variants=list(range(args["variants"])),  # type: ignore[call-overload]
        warmup=args["warmup"],  # type: ignore[arg-type]
        repeats=args["repeats"],  # type: ignore[arg-type]
        jobs=jobs,
        recorder=recorder,
        backend=args["backend"],  # type: ignore[arg-type]
        sample_interval=sample_interval,
    )
    result.manifest = manifest
    result.job = job
    return result


def run(args: Mapping[str, object], manifest: Dict[str, object],
        recorder: Optional[TraceRecorder] = None, jobs: int = 1,
        job: Optional[Dict[str, object]] = None,
        sample_interval: float = 0.0) -> Outcome:
    """``run``: measure the grid; the artifact is the suite export."""
    result = measure(args, manifest, recorder=recorder, jobs=jobs, job=job,
                     sample_interval=sample_interval)
    return Outcome(result, {
        "cells": len(result.runs),
        "summary": [
            {
                "benchmark": cell.benchmark,
                "size": cell.size.name,
                "variant": cell.variant,
                "median_ms": round(cell.total_seconds * 1000.0, 3),
            }
            for cell in result.runs
        ],
    }, {"export.json": result_to_json(result)})


def report(result: SuiteResult) -> Outcome:
    """Served ``report``: the HTML report of a measured or loaded export."""
    return Outcome(result, {"cells": len(result.runs)},
                   {"report.html": render_html_report(result)})


def trace(args: Mapping[str, object], recorder: TraceRecorder) -> Outcome:
    """``trace``: one run recording every kernel call into ``recorder``.

    No artifact: each shell renders the recorder itself (the server
    inside the job's lifecycle envelope).
    """
    cell = run_benchmark(
        get_benchmark(str(args["benchmark"])),
        InputSize[str(args["size"])],
        args["variant"],  # type: ignore[arg-type]
        recorder=recorder,
        backend=args["backend"],  # type: ignore[arg-type]
    )
    return Outcome(cell, {
        "spans": recorder.events,
        "traced_ms": round(cell.total_seconds * 1000.0, 3),
    })


def sampled_run(slug: str, size: str, variant: int, warmup: int,
                repeats: int, interval: float,
                backend: Optional[str] = None,
                recorder: Optional[TraceRecorder] = None):
    """One serial run with a stack sampler: ``(run, profile, frame_map)``."""
    frame_map = kernel_frame_map(slug)
    sampler = StackSampler(interval=interval, frame_map=frame_map)
    cell = run_benchmark(get_benchmark(slug), InputSize[size], variant,
                         warmup=warmup, repeats=repeats, backend=backend,
                         recorder=recorder, sampler=sampler)
    return cell, sampler.profile, frame_map


def flame(args: Mapping[str, object]) -> Outcome:
    """``flame``: sample one benchmark; the artifact is the flamegraph."""
    slug, size = str(args["benchmark"]), str(args["size"])
    cell, profile, _ = sampled_run(
        slug, size, args["variant"], args["warmup"],  # type: ignore[arg-type]
        args["repeats"], args["interval"],  # type: ignore[arg-type]
        backend=args["backend"])  # type: ignore[arg-type]
    if args["format"] == "speedscope":
        artifacts = {"flame.speedscope.json":
                     speedscope_json(profile, name=f"{slug}@{size}")}
    else:
        artifacts = {"flame.collapsed": to_collapsed(profile)}
    shares = sorted(profile.shares().items(), key=lambda kv: -kv[1])
    return Outcome((cell, profile), {
        "samples": profile.samples,
        "sampled_seconds": round(profile.sampled_seconds, 6),
        "top_shares": [
            {"kernel": kernel, "share_pct": round(share, 2)}
            for kernel, share in shares[:5]
        ],
    }, artifacts)


def regress(args: Mapping[str, object], baseline: SuiteResult,
            candidate: SuiteResult, baseline_label: str,
            candidate_label: str, attribute: bool = True) -> Outcome:
    """Export-vs-export ``regress``; ``attribute`` joins the exports'
    own sampled profiles onto confirmed regressions."""
    verdict = detect_regressions(
        cells_from_result(baseline),
        cells_from_result(candidate),
        sigmas=args["sigmas"],  # type: ignore[arg-type]
        min_slowdown=args["min_slowdown"],  # type: ignore[arg-type]
        baseline_label=baseline_label,
        candidate_label=candidate_label,
    )
    if attribute:
        attribute_regressions(
            verdict, pair_lookup_from_results(baseline, candidate))
    return Outcome(verdict, {
        "verdict": report_to_dict(verdict),
        "exit_code": verdict.exit_code,
    }, {"verdict.json": report_to_json(verdict)})


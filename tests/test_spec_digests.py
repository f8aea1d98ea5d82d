"""Pinned spec canonicalization: normalized specs and digests are stable.

Served-run history is keyed on ``["serve", "job", <spec digest>]``, so a
change to how :func:`~repro.core.jobs.validate_spec` fills defaults or
spells names would silently break idempotent recording across versions.
Every expected value below was recorded from the implementation before
the command table existed; the cases cover all five job types with
defaults omitted and spelled out, lower-case size names, and ``backend``
absent or named.
"""

import json

import pytest

from repro.core.jobs import spec_digest, validate_spec

CASES = [
    # run
    ("run-defaults-omitted", {"type": "run", "benchmarks": ["disparity"]}),
    ("run-defaults-spelled", {"type": "run", "benchmarks": ["disparity"],
                              "sizes": ["SQCIF", "QCIF", "CIF"], "variants": 1,
                              "warmup": 0, "repeats": 1, "backend": None}),
    ("run-lowercase-sizes", {"type": "run", "benchmarks": ["disparity"],
                             "sizes": ["sqcif", "Cif"]}),
    ("run-backend-fast", {"type": "run", "benchmarks": ["disparity"],
                          "sizes": ["SQCIF"], "backend": "fast"}),
    ("run-backend-ref", {"type": "run",
                         "benchmarks": ["disparity", "tracking"],
                         "sizes": ["sqcif"], "repeats": 3, "warmup": 1,
                         "variants": 5, "backend": "ref"}),
    ("run-all-benchmarks", {"type": "run"}),
    ("run-empty-lists", {"type": "run", "benchmarks": [], "sizes": []}),
    ("run-vga", {"type": "run", "benchmarks": ["svm"], "sizes": ["vga"]}),
    # trace
    ("trace-defaults-omitted", {"type": "trace", "benchmark": "disparity"}),
    ("trace-defaults-spelled", {"type": "trace", "benchmark": "disparity",
                                "size": "SQCIF", "variant": 0,
                                "backend": None}),
    ("trace-lowercase-size", {"type": "trace", "benchmark": "disparity",
                              "size": "cif", "variant": 4}),
    ("trace-backend-ref", {"type": "trace", "benchmark": "sift",
                           "size": "qcif", "backend": "ref"}),
    # flame
    ("flame-defaults-omitted", {"type": "flame", "benchmark": "disparity"}),
    ("flame-defaults-spelled", {"type": "flame", "benchmark": "disparity",
                                "size": "CIF", "variant": 0, "repeats": 10,
                                "warmup": 2, "interval": 0.0002,
                                "format": "collapsed", "backend": None}),
    ("flame-lowercase-size", {"type": "flame", "benchmark": "disparity",
                              "size": "sqcif", "format": "speedscope"}),
    ("flame-int-interval", {"type": "flame", "benchmark": "tracking",
                            "size": "SQCIF", "interval": 1, "repeats": 3,
                            "warmup": 0, "variant": 2, "backend": "fast"}),
    # report
    ("report-defaults-omitted", {"type": "report",
                                 "benchmarks": ["disparity"]}),
    ("report-defaults-spelled", {"type": "report", "benchmarks": ["disparity"],
                                 "sizes": ["SQCIF", "QCIF", "CIF"],
                                 "warmup": 0, "repeats": 1, "backend": None}),
    ("report-lowercase-sizes", {"type": "report", "benchmarks": ["disparity"],
                                "sizes": ["sqcif"], "backend": "fast"}),
    ("report-all-benchmarks", {"type": "report"}),
    ("report-from-job", {"type": "report", "from_job": "job-000001"}),
    ("report-from-job-ignores-live", {"type": "report",
                                      "from_job": "job-000002",
                                      "sizes": ["cif"], "repeats": 4}),
    # regress
    ("regress-defaults-omitted", {"type": "regress",
                                  "candidate_job": "job-000002",
                                  "baseline_job": "job-000001"}),
    ("regress-defaults-spelled", {"type": "regress",
                                  "candidate_job": "job-000002",
                                  "baseline_job": "job-000001",
                                  "sigmas": 2.0, "min_slowdown": 0.10}),
    ("regress-int-thresholds", {"type": "regress",
                                "candidate_job": "job-000004",
                                "baseline_job": "job-000003",
                                "sigmas": 3, "min_slowdown": 0}),
]

#: name -> (spec_digest, normalized spec), recorded before the refactor.
RECORDED = {
    "run-defaults-omitted": (
        "4dfd4d019c5b56dc",
        {"backend": None,
         "benchmarks": ["disparity"],
         "repeats": 1,
         "sizes": ["SQCIF", "QCIF", "CIF"],
         "type": "run",
         "variants": 1,
         "warmup": 0}),
    "run-defaults-spelled": (
        "4dfd4d019c5b56dc",
        {"backend": None,
         "benchmarks": ["disparity"],
         "repeats": 1,
         "sizes": ["SQCIF", "QCIF", "CIF"],
         "type": "run",
         "variants": 1,
         "warmup": 0}),
    "run-lowercase-sizes": (
        "7110bc5821888eab",
        {"backend": None,
         "benchmarks": ["disparity"],
         "repeats": 1,
         "sizes": ["SQCIF", "CIF"],
         "type": "run",
         "variants": 1,
         "warmup": 0}),
    "run-backend-fast": (
        "52828365e5c4235e",
        {"backend": "fast",
         "benchmarks": ["disparity"],
         "repeats": 1,
         "sizes": ["SQCIF"],
         "type": "run",
         "variants": 1,
         "warmup": 0}),
    "run-backend-ref": (
        "5e119425e1ef5a52",
        {"backend": "ref",
         "benchmarks": ["disparity", "tracking"],
         "repeats": 3,
         "sizes": ["SQCIF"],
         "type": "run",
         "variants": 5,
         "warmup": 1}),
    "run-all-benchmarks": (
        "3163496552baa006",
        {"backend": None,
         "benchmarks": [],
         "repeats": 1,
         "sizes": ["SQCIF", "QCIF", "CIF"],
         "type": "run",
         "variants": 1,
         "warmup": 0}),
    "run-empty-lists": (
        "3163496552baa006",
        {"backend": None,
         "benchmarks": [],
         "repeats": 1,
         "sizes": ["SQCIF", "QCIF", "CIF"],
         "type": "run",
         "variants": 1,
         "warmup": 0}),
    "run-vga": (
        "df6e2e89da23a153",
        {"backend": None,
         "benchmarks": ["svm"],
         "repeats": 1,
         "sizes": ["VGA"],
         "type": "run",
         "variants": 1,
         "warmup": 0}),
    "trace-defaults-omitted": (
        "0319c9a73f404443",
        {"backend": None,
         "benchmark": "disparity",
         "size": "SQCIF",
         "type": "trace",
         "variant": 0}),
    "trace-defaults-spelled": (
        "0319c9a73f404443",
        {"backend": None,
         "benchmark": "disparity",
         "size": "SQCIF",
         "type": "trace",
         "variant": 0}),
    "trace-lowercase-size": (
        "0f0a6808d43b2337",
        {"backend": None,
         "benchmark": "disparity",
         "size": "CIF",
         "type": "trace",
         "variant": 4}),
    "trace-backend-ref": (
        "fe099312890ba420",
        {"backend": "ref",
         "benchmark": "sift",
         "size": "QCIF",
         "type": "trace",
         "variant": 0}),
    "flame-defaults-omitted": (
        "d7b5acd938711fde",
        {"backend": None,
         "benchmark": "disparity",
         "format": "collapsed",
         "interval": 0.0002,
         "repeats": 10,
         "size": "CIF",
         "type": "flame",
         "variant": 0,
         "warmup": 2}),
    "flame-defaults-spelled": (
        "d7b5acd938711fde",
        {"backend": None,
         "benchmark": "disparity",
         "format": "collapsed",
         "interval": 0.0002,
         "repeats": 10,
         "size": "CIF",
         "type": "flame",
         "variant": 0,
         "warmup": 2}),
    "flame-lowercase-size": (
        "081d74795304f81a",
        {"backend": None,
         "benchmark": "disparity",
         "format": "speedscope",
         "interval": 0.0002,
         "repeats": 10,
         "size": "SQCIF",
         "type": "flame",
         "variant": 0,
         "warmup": 2}),
    "flame-int-interval": (
        "bc3cc2cf7a85ba92",
        {"backend": "fast",
         "benchmark": "tracking",
         "format": "collapsed",
         "interval": 1.0,
         "repeats": 3,
         "size": "SQCIF",
         "type": "flame",
         "variant": 2,
         "warmup": 0}),
    "report-defaults-omitted": (
        "11e7a78a9680e521",
        {"backend": None,
         "benchmarks": ["disparity"],
         "repeats": 1,
         "sizes": ["SQCIF", "QCIF", "CIF"],
         "type": "report",
         "warmup": 0}),
    "report-defaults-spelled": (
        "11e7a78a9680e521",
        {"backend": None,
         "benchmarks": ["disparity"],
         "repeats": 1,
         "sizes": ["SQCIF", "QCIF", "CIF"],
         "type": "report",
         "warmup": 0}),
    "report-lowercase-sizes": (
        "6bd3ff656060e901",
        {"backend": "fast",
         "benchmarks": ["disparity"],
         "repeats": 1,
         "sizes": ["SQCIF"],
         "type": "report",
         "warmup": 0}),
    "report-all-benchmarks": (
        "b59cb4e254ca9db9",
        {"backend": None,
         "benchmarks": [],
         "repeats": 1,
         "sizes": ["SQCIF", "QCIF", "CIF"],
         "type": "report",
         "warmup": 0}),
    "report-from-job": (
        "12d04b7d9162b73d",
        {"from_job": "job-000001", "type": "report"}),
    "report-from-job-ignores-live": (
        "9af0468596493a2f",
        {"from_job": "job-000002", "type": "report"}),
    "regress-defaults-omitted": (
        "6b1e8437f6214565",
        {"baseline_job": "job-000001",
         "candidate_job": "job-000002",
         "min_slowdown": 0.1,
         "sigmas": 2.0,
         "type": "regress"}),
    "regress-defaults-spelled": (
        "6b1e8437f6214565",
        {"baseline_job": "job-000001",
         "candidate_job": "job-000002",
         "min_slowdown": 0.1,
         "sigmas": 2.0,
         "type": "regress"}),
    "regress-int-thresholds": (
        "5da1ffb953e9eee4",
        {"baseline_job": "job-000003",
         "candidate_job": "job-000004",
         "min_slowdown": 0.0,
         "sigmas": 3.0,
         "type": "regress"}),
}


@pytest.mark.parametrize("name, spec", CASES, ids=[n for n, _ in CASES])
def test_normalized_spec_and_digest_are_pinned(name, spec):
    digest, expected = RECORDED[name]
    normalized = validate_spec(spec)
    # Byte equality of the canonical JSON also pins value types
    # (``1.0`` vs ``1``), which dict equality alone would not.
    assert (json.dumps(normalized, sort_keys=True)
            == json.dumps(expected, sort_keys=True))
    assert spec_digest(normalized) == digest
    assert spec_digest(expected) == digest


def test_every_job_type_is_pinned():
    assert {spec["type"] for _, spec in CASES} == {
        "run", "trace", "flame", "report", "regress"}

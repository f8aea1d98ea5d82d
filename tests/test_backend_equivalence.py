"""Parametrized ref-vs-fast agreement for every registered fast kernel.

One test per (kernel, size): the equivalence harness builds the
deterministic cases from the seeded input generators and asserts the
loop-faithful reference and the vectorized fast path agree within the
kernel's documented tolerance.  SQCIF additionally sweeps a second input
variant, so variant-dependent control flow (warp angles, stereo
textures) is covered without tripling the suite's runtime.
"""

import pytest

from repro.core.backend import get_kernel, load_all_kernels, registered_kernels
from repro.core.equivalence import (
    CASE_BUILDERS,
    cases_for,
    render_equivalence,
    verify_kernel,
)
from repro.core.types import InputSize

load_all_kernels()

KERNEL_NAMES = tuple(spec.name for spec in registered_kernels())

ALL_SIZES = (InputSize.SQCIF, InputSize.QCIF, InputSize.CIF)


def test_every_fast_kernel_has_cases():
    assert set(KERNEL_NAMES) <= set(CASE_BUILDERS)


def test_cases_are_deterministic():
    spec = get_kernel("disparity.ssd")
    first = cases_for(spec, InputSize.SQCIF, 0)
    second = cases_for(spec, InputSize.SQCIF, 0)
    assert [label for label, _ in first] == [label for label, _ in second]
    for (_, a), (_, b) in zip(first, second):
        for left, right in zip(a, b):
            assert repr(left) == repr(right)


@pytest.mark.parametrize("size", ALL_SIZES, ids=lambda s: s.name)
@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_ref_fast_agreement(name, size):
    spec = get_kernel(name)
    variants = (0, 1) if size is InputSize.SQCIF else (0,)
    verdicts = verify_kernel(spec, sizes=(size,), variants=variants)
    assert verdicts, f"no equivalence cases for {name}"
    failed = [v for v in verdicts if not v.ok]
    assert not failed, render_equivalence(failed)


def test_unknown_kernel_has_no_cases():
    spec = get_kernel("disparity.ssd")
    orphan = type(spec)(name="no.cases", paper_kernel="X",
                        apps=("disparity",), ref=lambda: None,
                        fast=lambda: None)
    with pytest.raises(KeyError, match="no equivalence cases"):
        cases_for(orphan, InputSize.SQCIF, 0)

"""The whole CLI domain, case by case: fan 1..64 and nc 2..64 with both closed-form kinds
of each, 16,130 cases of order up to 256.

Opt-in, as it takes minutes (about 260 s on a 2-vCPU x86-64 machine): the default run
deselects the ``whole_domain`` marker (pyproject.toml's addopts), and

    PYTHONPATH=src python -m pytest -q -m whole_domain

runs it.  It pins no bits, since the solver's last bits depend on the BLAS kernel and
numpy's SIMD tier: every case must pass at the case tolerance, and every deviation must
stay under DEVIATION_BOUND.
"""

import pytest

from fanspectra.verify import MAX_SWEEP_PARAM, sweep

pytestmark = pytest.mark.whole_domain

# The largest deviation over the domain measured 5.46e-12, at nc(63, 63) D^L; it grows
# with order, and is 3.41e-13 on the 2..12 grid.
DEVIATION_BOUND = 1.1e-11


@pytest.mark.parametrize("m", range(1, MAX_SWEEP_PARAM + 1))
def test_every_case_with_m_hubs_passes_under_the_bound(m):
    reports = sweep((m, m), (1, MAX_SWEEP_PARAM))
    # fan n = 1..64 and, from m = 2, nc n = 2..64, each with both kinds: 16,130 over all m
    assert len(reports) == 2 * MAX_SWEEP_PARAM + (2 * (MAX_SWEEP_PARAM - 1) if m >= 2 else 0)
    assert [f"{r.case_tag}({r.m}, {r.n})" for r in reports if not r.passed] == []
    worst = max(reports, key=lambda r: r.max_abs_deviation)
    assert worst.max_abs_deviation < DEVIATION_BOUND, f"{worst.case_tag}({worst.m}, {worst.n})"

"""The benchmark's workloads run on the library as it stands.

``benchmarks/run.py`` builds each workload through ``workloads.build`` and
times its calls; a library change that breaks a call it makes (a renamed
wrapper, a changed signature) would only show up there as a failed run.
Here each workload is built at seed 1, each call runs once and is held to
its closed form, and the known-defect probe must read ``refused``.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_call_meets_its_closed_form(workload):
    calls = workloads.build(workloads.make_inputs(workload, 1))
    assert calls
    for call in calls:
        cv = call.run()
        assert cv.error_exponent <= -call.n, call.label
        exact = workloads.closed_form(call.exact)
        assert abs(cv.value.as_fraction() - exact) <= Fraction(1, 1 << call.n), \
            call.label


def test_the_overflow_probe_is_refused():
    assert workloads.overflow_probe()["status"] == "refused"

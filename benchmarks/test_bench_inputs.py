"""The benchmark's inputs come from its seed alone."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 7) == workloads.make_inputs(w, 7)


def test_other_seed_other_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 7) != workloads.make_inputs(w, 8)


def test_seed_changes_only_the_drawn_values():
    # the call structure (kinds and sizes) is fixed, so cost does not
    # depend on the seed
    for w in workloads.WORKLOADS:
        a, b = workloads.make_inputs(w, 1), workloads.make_inputs(w, 2)
        assert len(a) == len(b)
        assert sorted((x[0], x[-1]) for x in a) == sorted((x[0], x[-1]) for x in b)

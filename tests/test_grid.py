"""The SU(2) grid kernel against independent oracles.

The block sweep's enclosure must contain the midpoint Riemann sum of its own
grid, computed here in mpmath at 60 digits: eta weights are differences of
W1(x) = (x - sin x cos x)/pi, theta weights differences of
W2(x) = (1 - cos x)/2, phi is uniform, and an axis the integrand does not
read is the single point sin = cos = 0 with weight 1.  The sin/cos kernel
the tables are built from, ``exactreal.sincos_pi``, is checked against mpmath
in ``test_exactreal.py``.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from haar import _grid
from haar.functions import builtin_integrand
from haar.quadrature import IntegrandSpec


def mp_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def _lift_re2(a, b, c, d):
    rho = mpmath.sqrt(a * a + b * b)
    return (a / rho) ** 2 * rho if rho else mpmath.mpf(0)


MP_INTEGRANDS = {
    "abs-sum": lambda a, b, c, d: abs(a) + abs(b) + abs(c) + abs(d),
    "w2": lambda a, b, c, d: a * a,
    "lift:re2": _lift_re2,
}


def mp_axis(kind, n):
    """[(sin, cos, weight)] of the midpoint cells of one axis; None: dead."""
    pi = mpmath.pi
    if n is None:
        return [(mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1))]
    if kind == "phi":
        return [(mpmath.sin(pi * (2 * k + 1) / n), mpmath.cos(pi * (2 * k + 1) / n),
                 mpmath.mpf(1) / n) for k in range(n)]

    def cum(x):
        if kind == "eta":
            return (x - mpmath.sin(x) * mpmath.cos(x)) / pi
        return (1 - mpmath.cos(x)) / 2

    return [(mpmath.sin(pi * (2 * i + 1) / (2 * n)), mpmath.cos(pi * (2 * i + 1) / (2 * n)),
             cum(pi * (i + 1) / n) - cum(pi * i / n)) for i in range(n)]


def mp_riemann_sum(f, ns):
    with mpmath.workdps(60):
        eta, theta, phi = (mp_axis(kind, n) for kind, n in zip(_grid._KINDS, ns))
        total = mpmath.mpf(0)
        for se, ce, w1 in eta:
            for st_, ct, w2 in theta:
                for sp, cp, w3 in phi:
                    total += w1 * w2 * w3 * f(ce, se * ct, se * st_ * cp, se * st_ * sp)
        return mp_fraction(total)


def grid_axes(ns):
    live = [n for n in ns if n is not None]
    guard = _grid.SCALE + 6
    return ([_grid._build_axis(kind, n, guard) for kind, n in zip(_grid._KINDS, live)]
            + [_grid._DEAD_AXIS] * (3 - len(live)))


def sweep_paths(spec):
    """(label, sweep, spec) for every evaluation path the spec can take."""
    plain = IntegrandSpec(spec.eval, spec.lipschitz, spec.bound, uses=spec.uses,
                          fixed_eval=spec.fixed_eval)
    scalar = IntegrandSpec(spec.eval, spec.lipschitz, spec.bound, uses=spec.uses)
    paths = [("fixed", _grid._fixed_sweep, plain),
             ("scalar", _grid._scalar_sweep, scalar)]
    if spec.fixed_eval_polar is not None:
        paths.append(("polar", _grid._fixed_sweep, spec))
    return paths


GRIDS = {
    "w2": [(1, None, None), (3, None, None), (5, None, None)],
    "lift:re2": [(1, 1, None), (2, 3, None), (5, 4, None)],
    "abs-sum": [(1, 1, 1), (2, 3, 4), (5, 5, 5), (4, 1, 3)],
}


@pytest.mark.parametrize("name, uses", [("w2", "a"), ("lift:re2", "ab"),
                                        ("abs-sum", "abcd")])
def test_sweep_encloses_mpmath_riemann_sum(name, uses, monkeypatch):
    spec = builtin_integrand(name, "su2")
    assert spec.uses == uses
    for ns in GRIDS[name]:
        exact = mp_riemann_sum(MP_INTEGRANDS[name], ns)
        axes = grid_axes(ns)
        for label, sweep, s in sweep_paths(spec):
            enc = sweep(s, *axes)
            assert enc.lo.as_fraction() <= exact <= enc.hi.as_fraction(), (label, ns)
            assert enc.width().as_fraction() < Fraction(1, 1 << 10), (label, ns)
            # one row and one theta cell per block: the exact integer sums
            # do not depend on how the grid is split
            with monkeypatch.context() as m:
                m.setattr(_grid, "BLOCK_CELLS", 1)
                split = sweep(s, *axes)
            assert (split.lo, split.hi) == (enc.lo, enc.hi), (label, ns)


@pytest.mark.parametrize("const", [(3, 5), (-5, -3), (-2, 7), (0, 0), (4, 4)])
def test_fp_mul_matches_exact_outward_products(const):
    # int64 kernels against Python-int floor/ceil of the extreme products;
    # a constant factor may come first or second
    rng = np.random.default_rng(11)
    b = tuple(np.sort(rng.integers(-(1 << 32), 1 << 32, size=(2, 500)), axis=0))
    s = _grid.SCALE
    for got in (_grid.fp_mul(const, b), _grid.fp_mul(b, const)):
        for k in range(500):
            ps = [p * int(x[k]) for p in const for x in b]
            assert int(got[0][k]) == min(ps) >> s
            assert int(got[1][k]) == -(-max(ps) >> s)
    alo, ahi = _grid.fp_abs(*b)
    for k in range(500):
        lo, hi = int(b[0][k]), int(b[1][k])
        assert (int(alo[k]), int(ahi[k])) == (0 if lo < 0 < hi else min(abs(lo), abs(hi)),
                                              max(abs(lo), abs(hi)))


def _near_and_random(rng, top, size=400):
    """Random int64 values in [0, top) plus the run just below top."""
    return np.concatenate([rng.integers(0, top, size=size, dtype=np.int64),
                           np.arange(top - size, top, dtype=np.int64)])


def _ceil_isqrt(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def test_isqrt_vec_matches_math_isqrt():
    rng = np.random.default_rng(5)
    roots = rng.integers(0, 1 << 31, size=300, dtype=np.int64)
    x = np.concatenate([_near_and_random(rng, 1 << 62), roots * roots,
                        roots * roots - 1, roots * roots + 1,
                        np.array([0, 1, 2, 3, 4], dtype=np.int64)])
    x = np.maximum(x, 0)
    got = _grid._isqrt_vec(x)
    assert [int(v) for v in got] == [math.isqrt(int(v)) for v in x]


def test_fp_sqrt_matches_exact_isqrt():
    # lo = isqrt(lo 2^s), hi = ceil-isqrt(hi 2^s); a negative lo is noise
    rng = np.random.default_rng(6)
    s = _grid.SCALE
    top = 1 << (62 - s)
    ends = np.sort(np.stack([_near_and_random(rng, top),
                             _near_and_random(rng, top)]), axis=0)
    ends[0, :50] -= 1000
    lo, hi = _grid.fp_sqrt((ends[0], ends[1]))
    for k in range(ends.shape[1]):
        a, b = int(ends[0, k]), int(ends[1, k])
        assert int(lo[k]) == math.isqrt(max(a, 0) << s)
        assert int(hi[k]) == _ceil_isqrt(max(b, 0) << s)


def test_fp_div_pos_matches_exact_quotients():
    # floor of the least and ceil of the greatest of the four corner
    # quotients, taken exactly in Fraction
    rng = np.random.default_rng(7)
    s = _grid.SCALE
    top = 1 << (62 - s)
    a = np.sort(rng.integers(-top, top, size=(2, 400), dtype=np.int64), axis=0)
    a[:, :20] = [[top - 2], [top - 1]]
    a[:, 20:40] = [[-top], [-top + 1]]
    b = np.sort(rng.integers(1, 1 << 40, size=(2, 400), dtype=np.int64), axis=0)
    b[:, 40:60] = [[1], [2]]
    lo, hi = _grid.fp_div_pos((a[0], a[1]), (b[0], b[1]))
    for k in range(400):
        qs = [Fraction(int(x) << s, int(y)) for x in a[:, k] for y in b[:, k]]
        assert int(lo[k]) == math.floor(min(qs))
        assert int(hi[k]) == math.ceil(max(qs))


def test_fp_square_matches_exact_squares():
    rng = np.random.default_rng(8)
    s = _grid.SCALE
    top = 1 << 31     # squares up to 2^62
    a = np.sort(rng.integers(-top + 1, top, size=(2, 600), dtype=np.int64), axis=0)
    a[:, :20] = [[top - 3], [top - 1]]
    a[:, 20:40] = [[-top + 1], [-top + 2]]
    lo, hi = _grid.fp_square((a[0], a[1]))
    for k in range(600):
        x, y = int(a[0, k]), int(a[1, k])
        least = 0 if x <= 0 <= y else min(x * x, y * y)
        assert int(lo[k]) == least >> s
        assert int(hi[k]) == -(-max(x * x, y * y) >> s)


def _disc_ratio(live, L, n):
    budget = Fraction(7, 8) / (1 << n)
    ns = _grid._choose_resolution(live, float(L), float(budget))
    axes = grid_axes(ns + [None] * (3 - live))
    return _grid._disc_bound(L, *axes) / budget


@pytest.mark.parametrize("live", [1, 2, 3])
@pytest.mark.parametrize("L", [Fraction(1), Fraction(7, 4), Fraction(21, 8)], ids=str)
def test_first_grid_meets_the_budget_without_slack(live, L):
    # the closed-form sizing passes the exact bound at once and is not
    # oversized: at least 90% of the budget is used
    for n in range(3, 8):
        assert Fraction(9, 10) <= _disc_ratio(live, L, n) <= 1, (live, L, n)


@pytest.mark.parametrize("shrink", [Fraction(1, 2), Fraction(4, 5), Fraction(19, 20)], ids=str)
@pytest.mark.parametrize("name, true", [("abs-sum", mp_fraction(16 / (3 * mpmath.pi))),
                                        ("w2", Fraction(1, 4))])
def test_grid_that_misses_grows_by_the_measured_ratio(name, true, shrink, monkeypatch):
    # a first grid too small by the factor ``shrink`` must still end
    # certified, after at most two growth steps
    spec = builtin_integrand(name, "su2")
    n = 5
    choose = _grid._choose_resolution
    monkeypatch.setattr(_grid, "_choose_resolution", lambda *a: [
        max(1, math.floor(m * shrink)) for m in choose(*a)])
    calls = []
    disc_bound = _grid._disc_bound
    monkeypatch.setattr(_grid, "_disc_bound", lambda *a: calls.append(a) or disc_bound(*a))
    enc = _grid.su2_grid_integral(spec, n)
    assert 2 <= len(calls) <= 3
    assert enc.width().as_fraction() <= Fraction(1, 1 << (n - 1))
    assert abs(enc.midpoint().as_fraction() - true) <= Fraction(1, 1 << n)

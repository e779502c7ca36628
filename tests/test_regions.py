"""The exact arc/box region algebra that backs located sets."""

import itertools
import random
import time
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from haar.exactreal import Dyadic
from haar.regions import BoxRegion, FiniteRegion, ratio
from region_oracle import RegionOracle


def F(a, b):
    return Fraction(a, b)


def circle_ball(c, r):
    return BoxRegion.ball(1, (Fraction(c),), Fraction(r))


def whole(dim):
    """The whole d-torus, a ball of radius 1/2; x's complement is
    ``whole(dim).subtract(x)``."""
    return BoxRegion.ball(dim, (Fraction(0),) * dim, F(1, 2))


class TestArcs:
    def test_distance_inside_and_out(self):
        arc = RegionOracle(circle_ball(F(1, 4), F(1, 8)))        # [1/8, 3/8]
        assert arc.distance((F(1, 4),)) == 0
        assert arc.distance((F(1, 2),)) == F(1, 8)
        assert arc.distance((F(15, 16),)) == F(3, 16)   # wraps to lo end

    def test_wrap_membership(self):
        ball = RegionOracle(circle_ball(0, F(1, 8)))    # arc [-1/8, 1/8]
        assert ball.contains((F(15, 16),))
        assert ball.contains((F(1, 16),))
        assert not ball.contains((F(1, 2),))


class TestBooleanOps:
    def test_subtract_middle(self):
        a = circle_ball(F(1, 4), F(1, 4))          # [0, 1/2]
        b = circle_ball(F(1, 4), F(1, 16))         # [3/16, 5/16]
        out = a.subtract(b)
        assert out.measure() == F(1, 2) - F(1, 8)
        assert RegionOracle(out).contains((F(3, 16),))   # closed pieces keep edges
        assert not RegionOracle(out).contains((F(1, 4),))

    def test_union_disjointifies(self):
        a = circle_ball(0, F(1, 8))
        b = circle_ball(F(1, 16), F(1, 8))
        u = a.union(b)
        assert u.measure() == F(5, 16)             # overlap counted once

    def test_complement_of_arc(self):
        a = circle_ball(0, F(1, 8))
        c = whole(1).subtract(a)
        assert c.measure() == F(3, 4)
        assert RegionOracle(c).contains((F(1, 2),))
        assert not RegionOracle(c).contains((F(1, 16),))

    def test_expand_and_shrink_roundtrip(self):
        a = circle_ball(F(1, 4), F(1, 8))
        grown = a.expand(F(1, 16))
        assert grown.measure() == F(3, 8)
        back = grown.shrink(F(1, 16))
        assert back.measure() == F(1, 4)
        assert RegionOracle(back).contains((F(1, 4),))

    def test_shrink_to_empty(self):
        a = circle_ball(0, F(1, 16))
        assert not any(a.shrink(F(1, 8)).flags)

    def test_expand_to_full(self):
        a = circle_ball(0, F(1, 4))
        assert a.expand(F(1, 3)).measure() == 1

    def test_random_membership_consistency(self):
        rng = random.Random(71)
        for _ in range(60):
            balls = [circle_ball(F(rng.randint(0, 63), 64),
                                 F(rng.randint(1, 12), 64)) for _ in range(3)]
            reg = RegionOracle(balls[0].union(balls[1]).subtract(balls[2]))
            oracles = [RegionOracle(b) for b in balls]
            for _ in range(40):
                x = F(rng.randint(0, 255), 256)
                in_balls = (oracles[0].contains((x,)) or oracles[1].contains((x,)))
                cut_interior = (oracles[2].distance((x,)) == 0
                                and not _on_boundary(balls[2], x))
                expect = in_balls and not cut_interior
                got = reg.contains((x,))
                if expect != got:
                    # the only legal disagreements sit on cut boundaries
                    assert _on_boundary(balls[2], x) or \
                        _on_boundary(balls[0], x) or _on_boundary(balls[1], x)

    def test_distance_is_min_over_boxes(self):
        a = RegionOracle(circle_ball(0, F(1, 16)).union(circle_ball(F(1, 2), F(1, 16))))
        assert a.distance((F(1, 4),)) == F(3, 16)
        assert a.distance((F(31, 32),)) == 0


def _on_boundary(ball_region, x):
    (cuts,) = ball_region.cuts                 # an arc's two ends
    return any((x - F(c, ball_region.den)) % 1 == 0 for c in cuts)


class TestTorusBoxes:
    def test_ball_is_product(self):
        b = BoxRegion.ball(2, (Fraction(0), Fraction(1, 2)), F(1, 8))
        assert RegionOracle(b).contains((F(1, 16), F(7, 16)))
        assert not RegionOracle(b).contains((F(1, 4), F(1, 2)))
        assert b.measure() == F(1, 16)

    def test_subtract_produces_frame(self):
        outer = BoxRegion.ball(2, (Fraction(1, 2), Fraction(1, 2)), F(1, 4))
        inner = BoxRegion.ball(2, (Fraction(1, 2), Fraction(1, 2)), F(1, 8))
        frame = outer.subtract(inner)
        assert frame.measure() == F(1, 4) - F(1, 16)
        assert RegionOracle(frame).contains((F(5, 16), F(5, 16)))
        assert not RegionOracle(frame).contains((F(1, 2), F(1, 2)))

    def test_max_metric_distance(self):
        b = RegionOracle(BoxRegion.ball(2, (Fraction(0), Fraction(0)), F(1, 8)))
        assert b.distance((F(1, 4), F(1, 16))) == F(1, 8)
        assert b.distance((F(1, 4), F(1, 4))) == F(1, 8)

    def test_shrink_box(self):
        b = BoxRegion.ball(2, (Fraction(1, 2), Fraction(1, 2)), F(1, 4))
        s = b.shrink(F(1, 8))
        assert s.measure() == F(1, 16)
        assert RegionOracle(s).contains((F(1, 2), F(1, 2)))

    def test_five_ball_shrink_matches_lattice_membership(self):
        # five torus:2 balls of radius 1/8 centred on the 1/8 lattice: their
        # union is a union of 1/8-cells, and a point is in shrink(1/64) when
        # every cell its open 1/64-box meets is in.  The samples, odd
        # multiples of 1/128, lie on no edge of the result.
        centres = [(0, 0)] + [(k % 8 + 1, 2 * k % 8 + 1) for k in range(1, 5)]
        u = reduce(BoxRegion.union, (BoxRegion.ball(2, (F(x, 8), F(y, 8)), F(1, 8))
                                     for x, y in centres))
        start = time.perf_counter()
        s = u.shrink(F(1, 64))
        assert time.perf_counter() - start < 1.0
        s = RegionOracle(s)
        units, step = 128, 16
        cells = {c: any(all(_turn_distance(step * ci + step // 2 - step * xi, units)
                            <= step for ci, xi in zip(c, centre)) for centre in centres)
                 for c in itertools.product(range(units // step), repeat=2)}
        for y in itertools.product(range(1, units, 2), repeat=2):
            expect = _ball_op(cells, y, 2, False, step, units)
            assert s.contains(tuple(F(yc, units) for yc in y)) == expect, y


# Property tests on two lattices: A is a union of balls with centres on
# multiples of 1/8 and radii 1/8..1/2, B one with centres on multiples of 1/12
# and radii 1/12..1/2, so every box edge is a multiple of 1/24 and union and
# subtract work over a denominator that is not a power of two.  The samples
# are the odd multiples of 1/48, one inside each open 1/24-cell.  No sample
# lies on an edge of an input, so membership is decided exactly by integer
# arithmetic in units of 1/48; the r/16-thickening of a 1/8-cell union has
# edges on samples, where ``_ball_op`` decides the closed set exactly.
UNITS = 48          # sample units per turn
STEP_A, STEP_B = 6, 4       # lattice steps of A and B in sample units


def _turn_distance(d: int, units: int = UNITS) -> int:
    d %= units
    return min(d, units - d)


def lattice_balls(dim, step):
    ball = st.tuples(st.tuples(*[st.integers(0, UNITS // step - 1)] * dim),
                     st.integers(1, UNITS // step // 2))
    return st.lists(ball, min_size=1, max_size=3)


def lattice_region(dim, balls, step, shift=None):
    """The union of the balls, every centre moved by ``shift`` (a Fraction
    per axis) when given."""
    den = UNITS // step
    shift = shift or (0,) * dim
    return reduce(BoxRegion.union, (BoxRegion.ball(
        dim, [F(c, den) + t for c, t in zip(centre, shift)], F(r, den))
        for centre, r in balls))


def in_balls(balls, step, y) -> bool:
    return any(all(_turn_distance(yc - step * c) <= step * r for yc, c in zip(y, centre))
               for centre, r in balls)


def _ball_op(cells, y, rho, grow, step=STEP_A, units=UNITS) -> bool:
    """Membership of the point y (in sample units) in the set ``cells`` (a
    union of closed lattice cells of ``step`` units, as a dict over cell
    indices) thickened by rho units (grow: the closed box around y meets an
    in-cell) or thinned by rho (every cell the open box meets is in; it meets
    each in a piece of positive size).  On each axis the box meets the cells
    c with step c <= y + rho and step (c + 1) >= y - rho, strictly for the
    open box."""
    n, ranges = units // step, []
    for yc in y:
        lo, hi = (-(-(yc - rho) // step) - 1, (yc + rho) // step) if grow \
            else ((yc - rho) // step, -(-(yc + rho) // step) - 1)
        ranges.append(range(n) if hi - lo + 1 >= n else [c % n for c in range(lo, hi + 1)])
    near = (cells[c] for c in itertools.product(*ranges))
    return any(near) if grow else all(near)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100)
@given(data=st.data())
def test_region_algebra_matches_brute_force(dim, data):
    A, B = data.draw(lattice_balls(dim, STEP_A)), data.draw(lattice_balls(dim, STEP_B))
    r = data.draw(st.integers(1, 4))
    a, b = lattice_region(dim, A, STEP_A), lattice_region(dim, B, STEP_B)
    results = {"union": a.union(b), "subtract": a.subtract(b),
               "complement": whole(dim).subtract(a),
               "expand": a.expand(F(r, 8)), "shrink": a.shrink(F(r, 8)),
               "expand-shrink": a.expand(F(4 * r, 8)).shrink(F(r, 8)),
               "shrink-expand": a.shrink(F(4 * r, 8)).expand(F(r, 16))}
    oracles = {name: RegionOracle(region) for name, region in results.items()}
    samples = list(itertools.product(range(1, UNITS, 2), repeat=dim))
    in_a = {y: in_balls(A, STEP_A, y) for y in samples}
    # a and its 4r/8-thickening and thinning are unions of closed 1/8-cells,
    # each decided at its centre sample
    cells = {c: in_a[tuple(STEP_A * ci + STEP_A // 2 for ci in c)]
             for c in itertools.product(range(UNITS // STEP_A), repeat=dim)}
    grown, thinned = ({c: _ball_op(cells, tuple(STEP_A * ci + STEP_A // 2 for ci in c),
                                   4 * STEP_A * r, grow) for c in cells}
                      for grow in (True, False))
    for y in samples:
        expect = {"union": in_a[y] or in_balls(B, STEP_B, y),
                  "subtract": in_a[y] and not in_balls(B, STEP_B, y),
                  "complement": not in_a[y],
                  "expand": _ball_op(cells, y, STEP_A * r, True),
                  "shrink": _ball_op(cells, y, STEP_A * r, False),
                  "expand-shrink": _ball_op(grown, y, STEP_A * r, False),
                  "shrink-expand": _ball_op(thinned, y, STEP_A * r // 2, True)}
        point = tuple(F(yc, UNITS) for yc in y)
        for name, region in oracles.items():
            assert region.contains(point) == expect[name], (name, A, B, r, y)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100)
@given(data=st.data())
def test_equal_sets_have_equal_grids(dim, data):
    a = lattice_region(dim, data.draw(lattice_balls(dim, STEP_A)), STEP_A)
    b = lattice_region(dim, data.draw(lattice_balls(dim, STEP_B)), STEP_B)
    r, s = (data.draw(st.fractions(0, 1, max_denominator=64)) for _ in range(2))

    def grid(x):
        return x.den, x.cuts, x.flags

    assert grid(a.union(b)) == grid(b.union(a))
    assert grid(a.expand(r).expand(s)) == grid(a.expand(r + s))
    assert grid(a.subtract(a)) == grid(BoxRegion.empty(dim))


def _key(x):
    return x.den, x.cuts, tuple(x.flags)


def _resolving_points(region, moved, p):
    """Points that resolve the cells of ``moved`` and of ``region`` moved by
    -p on every axis: each cut of either and a point between each two
    neighbouring cuts, as Fractions, on the product of the axes."""
    coords = [ratio(c) for c in p]
    den = lcm(region.den, moved.den, *(d for _, d in coords))
    axes = []
    for own, cut, (n, d) in zip(region.cuts, moved.cuts, coords):
        at = sorted({(c * (den // region.den) - n * (den // d)) % den for c in own}
                    | {c * (den // moved.den) for c in cut}) or [0]
        mids = [a + b + 2 * den * (b <= a) for a, b in zip(at, at[1:] + at[:1])]
        axes.append([F(u, 2 * den) for u in [2 * a for a in at] + mids])
    return itertools.product(*axes)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=60)
@given(data=st.data())
def test_centred_translates_share_one_key(dim, data):
    # a region built from centres moved by s, centred at p + s, has the key
    # of the region centred at p, and each centred region is exactly its
    # region moved by -p (so equal keys mean translates)
    A, B = data.draw(lattice_balls(dim, STEP_A)), data.draw(lattice_balls(dim, STEP_B))
    op = data.draw(st.sampled_from(["ball", "subtract", "expand", "shrink"]))
    r = F(data.draw(st.integers(1, 4)), 8)
    s, p = ([Dyadic(k, -4) for k in data.draw(st.tuples(*[st.integers(0, 15)] * dim))]
            for _ in range(2))

    def build(shift):
        a = lattice_region(dim, A, STEP_A, shift)
        if op == "subtract":
            return a.subtract(lattice_region(dim, B, STEP_B, shift))
        return {"ball": a, "expand": a.expand(r), "shrink": a.shrink(r)}[op]

    region, moved = build(None), build([t.as_fraction() for t in s])
    ps = [x + y for x, y in zip(p, s)]
    at_p, at_ps = region.centred(p), moved.centred(ps)
    assert _key(at_p) == _key(at_ps), (A, B, op, r, s, p)
    for R, C, q in ((region, at_p, p), (moved, at_ps, ps)):
        oracle, centred = RegionOracle(R), RegionOracle(C)
        for x in _resolving_points(R, C, q):
            y = [xc + qc.as_fraction() for xc, qc in zip(x, q)]
            assert centred.contains(x) == oracle.contains(y), (A, B, op, r, s, p, x)


class TestFiniteRegions:
    def test_basics(self):
        r = FiniteRegion(5, {0, 2})
        assert RegionOracle(r).distance(0) == 0 and RegionOracle(r).distance(1) == 1
        assert r.measure() == F(2, 5)
        assert FiniteRegion.whole(5).subtract(r).members == frozenset({1, 3, 4})

    def test_expand_shrink(self):
        r = FiniteRegion(5, {0})
        assert r.expand(F(1, 2)).members == frozenset({0})
        assert r.expand(Fraction(2)).members == frozenset(range(5))
        assert r.shrink(F(1, 2)).members == frozenset({0})
        assert not r.shrink(Fraction(2)).members
        whole = FiniteRegion.whole(5)
        assert whole.shrink(Fraction(2)).members == frozenset(range(5))

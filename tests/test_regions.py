"""The exact arc/box region algebra that backs located sets."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from haar.regions import BoxRegion, FiniteRegion, arc_distance


def F(a, b):
    return Fraction(a, b)


def circle_ball(c, r):
    return BoxRegion.ball(1, (Fraction(c),), Fraction(r))


class TestArcs:
    def test_distance_inside_and_out(self):
        arc = (F(1, 8), F(3, 8))
        assert arc_distance(arc, F(1, 4)) == 0
        assert arc_distance(arc, F(1, 2)) == F(1, 8)
        assert arc_distance(arc, F(15, 16)) == F(3, 16)   # wraps to lo end

    def test_wrap_membership(self):
        ball = circle_ball(0, F(1, 8))    # arc [-1/8, 1/8]
        assert ball.contains((F(15, 16),))
        assert ball.contains((F(1, 16),))
        assert not ball.contains((F(1, 2),))


class TestBooleanOps:
    def test_subtract_middle(self):
        a = circle_ball(F(1, 4), F(1, 4))          # [0, 1/2]
        b = circle_ball(F(1, 4), F(1, 16))         # [3/16, 5/16]
        out = a.subtract(b)
        assert out.measure() == F(1, 2) - F(1, 8)
        assert out.contains((F(3, 16),))           # closed pieces keep edges
        assert not out.contains((F(1, 4),))

    def test_union_disjointifies(self):
        a = circle_ball(0, F(1, 8))
        b = circle_ball(F(1, 16), F(1, 8))
        u = a.union(b)
        assert u.measure() == F(5, 16)             # overlap counted once

    def test_complement_of_arc(self):
        a = circle_ball(0, F(1, 8))
        c = a.complement()
        assert c.measure() == F(3, 4)
        assert c.contains((F(1, 2),))
        assert not c.contains((F(1, 16),))

    def test_expand_and_shrink_roundtrip(self):
        a = circle_ball(F(1, 4), F(1, 8))
        grown = a.expand(F(1, 16))
        assert grown.measure() == F(3, 8)
        back = grown.shrink(F(1, 16))
        assert back.measure() == F(1, 4)
        assert back.contains((F(1, 4),))

    def test_shrink_to_empty(self):
        a = circle_ball(0, F(1, 16))
        assert a.shrink(F(1, 8)).is_empty()

    def test_expand_to_full(self):
        a = circle_ball(0, F(1, 4))
        assert a.expand(F(1, 3)).measure() == 1

    def test_random_membership_consistency(self):
        rng = random.Random(71)
        for _ in range(60):
            balls = [circle_ball(F(rng.randint(0, 63), 64),
                                 F(rng.randint(1, 12), 64)) for _ in range(3)]
            reg = balls[0].union(balls[1]).subtract(balls[2])
            for _ in range(40):
                x = F(rng.randint(0, 255), 256)
                in_balls = (balls[0].contains((x,)) or balls[1].contains((x,)))
                cut_interior = (balls[2].distance((x,)) == 0
                                and not _on_boundary(balls[2], x))
                expect = in_balls and not cut_interior
                got = reg.contains((x,))
                if expect != got:
                    # the only legal disagreements sit on cut boundaries
                    assert _on_boundary(balls[2], x) or \
                        _on_boundary(balls[0], x) or _on_boundary(balls[1], x)

    def test_distance_is_min_over_boxes(self):
        a = circle_ball(0, F(1, 16)).union(circle_ball(F(1, 2), F(1, 16)))
        assert a.distance((F(1, 4),)) == F(3, 16)
        assert a.distance((F(31, 32),)) == 0


def _on_boundary(ball_region, x):
    (arc,) = ball_region.boxes[0]
    lo, hi = arc
    rel = (x - lo) - ((x - lo).numerator // (x - lo).denominator)
    return rel == 0 or rel == hi - lo


class TestTorusBoxes:
    def test_ball_is_product(self):
        b = BoxRegion.ball(2, (Fraction(0), Fraction(1, 2)), F(1, 8))
        assert b.contains((F(1, 16), F(7, 16)))
        assert not b.contains((F(1, 4), F(1, 2)))
        assert b.measure() == F(1, 16)

    def test_subtract_produces_frame(self):
        outer = BoxRegion.ball(2, (Fraction(1, 2), Fraction(1, 2)), F(1, 4))
        inner = BoxRegion.ball(2, (Fraction(1, 2), Fraction(1, 2)), F(1, 8))
        frame = outer.subtract(inner)
        assert frame.measure() == F(1, 4) - F(1, 16)
        assert frame.contains((F(5, 16), F(5, 16)))
        assert not frame.contains((F(1, 2), F(1, 2)))

    def test_max_metric_distance(self):
        b = BoxRegion.ball(2, (Fraction(0), Fraction(0)), F(1, 8))
        assert b.distance((F(1, 4), F(1, 16))) == F(1, 8)
        assert b.distance((F(1, 4), F(1, 4))) == F(1, 8)

    def test_shrink_box(self):
        b = BoxRegion.ball(2, (Fraction(1, 2), Fraction(1, 2)), F(1, 4))
        s = b.shrink(F(1, 8))
        assert s.measure() == F(1, 16)
        assert s.contains((F(1, 2), F(1, 2)))


# Property tests on a lattice: regions are unions of balls with centres on
# multiples of 1/8 and radii 1/8..1/2, so every box edge is a multiple of 1/8,
# and the samples are the odd multiples of 1/32.  No sample lies on an edge
# of an input or of a result, where a closed result and the set it stands for
# may differ, so membership there is decided exactly by integer arithmetic in
# units of 1/32.
UNITS = 32          # sample units per turn
STEP = 4            # lattice step in sample units


def _turn_distance(d: int) -> int:
    d %= UNITS
    return min(d, UNITS - d)


def lattice_balls(dim):
    ball = st.tuples(st.tuples(*[st.integers(0, 7)] * dim), st.integers(1, 4))
    return st.lists(ball, min_size=1, max_size=3)


def lattice_region(dim, balls):
    return BoxRegion(dim, [box for centre, r in balls for box in BoxRegion.ball(
        dim, [F(c, 8) for c in centre], F(r, 8)).boxes])


def in_balls(balls, y) -> bool:
    return any(all(_turn_distance(yc - STEP * c) <= STEP * r for yc, c in zip(y, centre))
               for centre, r in balls)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=100)
@given(data=st.data())
def test_region_algebra_matches_brute_force(dim, data):
    A, B = data.draw(lattice_balls(dim)), data.draw(lattice_balls(dim))
    r = data.draw(st.integers(1, 4))
    a, b = lattice_region(dim, A), lattice_region(dim, B)
    results = {"union": a.union(b), "subtract": a.subtract(b),
               "expand": a.expand(F(r, 8)), "shrink": a.shrink(F(r, 8))}
    # the max-metric ball of radius r/8 around a sample meets the lattice
    # cells holding these samples, one each, in their interiors
    offsets = list(itertools.product(range(-STEP * r, STEP * r + 1, STEP), repeat=dim))
    for y in itertools.product(range(1, UNITS, 2), repeat=dim):
        near = [in_balls(A, [yc + o for yc, o in zip(y, off)]) for off in offsets]
        expect = {"union": in_balls(A, y) or in_balls(B, y),
                  "subtract": in_balls(A, y) and not in_balls(B, y),
                  "expand": any(near), "shrink": all(near)}
        point = tuple(F(yc, UNITS) for yc in y)
        for name, region in results.items():
            assert region.contains(point) == expect[name], (name, A, B, r, y)


class TestFiniteRegions:
    def test_basics(self):
        r = FiniteRegion(5, {0, 2})
        assert r.distance(0) == 0 and r.distance(1) == 1
        assert r.measure() == F(2, 5)
        assert r.complement().members == frozenset({1, 3, 4})

    def test_expand_shrink(self):
        r = FiniteRegion(5, {0})
        assert r.expand(F(1, 2)).members == frozenset({0})
        assert r.expand(Fraction(2)).members == frozenset(range(5))
        assert r.shrink(F(1, 2)).members == frozenset({0})
        assert r.shrink(Fraction(2)).is_empty()
        whole = FiniteRegion.whole(5)
        assert whole.shrink(Fraction(2)).members == frozenset(range(5))

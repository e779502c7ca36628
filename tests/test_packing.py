"""Packing sizes, certified packings, dovetail search, and brackets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from haar.cli import parse_group
from haar.exactreal import Dyadic
from haar.groups import EffortExceeded, make_group
from haar.packing import (
    CircleGridPacking, FinitePacking, KappaUnavailable, PackingTable,
    TorusGridPacking, max_packing, packing_size, packing_size_bracket,
    separation_certificate,
)
from haar.regions import BoxRegion, FiniteRegion, ratio


def grid_sweep_max(n: int, g: int) -> int:
    """Brute-force maximum over grid configurations at resolution 2^-g.

    On the 2^-g grid, points pairwise strictly farther than 2^-n: a greedy
    sweep from each possible first gap is optimal for circular separation,
    and by translation invariance starting at 0 suffices.
    """
    scale = 1 << g
    sep = scale >> n
    best = 0
    # first point at 0; smallest admissible step is sep+1
    step = sep + 1
    pos, count = 0, 1
    while True:
        nxt = pos + step
        if scale - nxt <= sep:
            break
        pos, count = nxt, count + 1
    return count


class TestKappaClosedForms:
    def test_circle_formula(self, circle):
        for n in range(1, 13):
            assert packing_size(circle, n) == (1 << n) - 1

    def test_circle_n1(self, circle):
        assert packing_size(circle, 1) == 1

    def test_circle_brute_force_small_n(self, circle):
        for n in range(1, 5):
            assert grid_sweep_max(n, 2 * n + 2) == packing_size(circle, n)

    def test_finite_is_order(self):
        G = make_group("cyclic", k=6)
        for n in (1, 2, 5):
            assert packing_size(G, n) == 6
        assert packing_size(G, 0) == 1

    def test_finite_maximality_exhaustive(self):
        # all subsets of groups up to order 10: the largest set whose pairs
        # are certified strictly separated matches the closed form
        from conftest import finite_fixture_groups
        for name, G in finite_fixture_groups(max_order=6):
            if G.order > 10:
                continue
            k = G.order
            for n in (1, 2):
                radius = Fraction(1, 1 << n)
                best = 0
                for mask in range(1 << k):
                    members = [i for i in range(k) if mask >> i & 1]
                    seps = all(
                        G.metric(a, b, 0).lo.as_fraction() > radius
                        for i, a in enumerate(members) for b in members[i + 1:])
                    if seps:
                        best = max(best, len(members))
                assert best == packing_size(G, n)

    def test_torus_product(self):
        T = make_group("torus", dim=2)
        assert packing_size(T, 2) == 9
        assert packing_size(T, 3) == 49

    def test_unavailable(self, su2):
        with pytest.raises(KappaUnavailable):
            packing_size(su2, 3)

    @pytest.mark.parametrize("spec, closed_form", [
        ("cyclic:1", lambda n: 1),
        ("cyclic:5", lambda n: 5),
        ("circle", lambda n: (1 << n) - 1),
        ("torus:2", lambda n: ((1 << n) - 1) ** 2),
        ("torus:3", lambda n: ((1 << n) - 1) ** 3),
    ], ids=["cyclic:1", "cyclic:5", "circle", "torus:2", "torus:3"])
    def test_kappa_is_the_packing_size(self, spec, closed_form):
        # below level 1 every maximum packing is the identity alone
        G = parse_group(spec, None)
        for n in range(-1, 13):
            expected = closed_form(n) if n >= 1 else 1
            assert G.kappa(n) == G.packing(n).size == expected, n


class TestGridPackings:
    def test_certificate_all_levels(self, circle):
        for n in range(1, 13):
            pk = CircleGridPacking(n)
            assert pk.size == (1 << n) - 1
            if n <= 7:
                pts = pk.points_list()
                assert separation_certificate(circle, pts, n)

    def test_min_gap_certificate_algebraic(self):
        # floor(A/K) > 2^(n+2) = A 2^-n certifies all pairwise distances
        for n in range(1, 40):
            pk = CircleGridPacking(n)
            assert pk.A // pk.size > (1 << (n + 2))

    def test_counting_matches_iteration(self, circle):
        from haar.regions import BoxRegion
        for n in (2, 3, 4, 5):
            pk = CircleGridPacking(n)
            for num, den in ((1, 8), (1, 3), (2, 7)):
                region = BoxRegion.ball(1, (Dyadic(0),), Fraction(num, den))
                thr = Fraction(1, 50)
                fast = pk.count_within(region, thr)
                slow = sum(1 for p in pk.iter_points()
                           if region.distance((p,)) <= thr)
                assert fast == slow, (n, num, den)

    @settings(max_examples=300)
    @given(n=st.integers(0, 6), data=st.data())
    def test_count_in_arc_matches_enumeration(self, n, data):
        pk = CircleGridPacking(n)
        points = [p.as_fraction() for p in pk.iter_points()]
        nudge = Fraction(1, 1 << (2 * n + 3))
        # arc ends on a packing point (whole turns away, or nudged off it
        # by less than the point grid) or anywhere rational
        end = st.one_of(
            st.builds(lambda k, turns, d: points[k % len(points)] + turns + d,
                      st.integers(0, 200), st.integers(-2, 2),
                      st.sampled_from([0, nudge, -nudge])),
            st.fractions(min_value=-3, max_value=3, max_denominator=1 << 10))
        lo, hi = data.draw(end), data.draw(end)
        length = Fraction(1) if data.draw(st.booleans()) and hi == lo else (hi - lo) % 1
        slow = sum(1 for p in points if length >= 1 or (p - lo) % 1 <= length)
        arc = BoxRegion.ball(1, (lo + length / 2,), length / 2)
        assert pk.count_within(arc, 0) == slow

    def test_counting_huge_level(self):
        # levels far beyond anything materializable still count in O(1)
        pk = CircleGridPacking(200)
        from haar.regions import BoxRegion
        region = BoxRegion.ball(1, (Dyadic(0),), Fraction(1, 4))
        cnt = pk.count_within(region, Fraction(0))
        ratio = Fraction(cnt, pk.size)
        assert abs(ratio - Fraction(1, 2)) < Fraction(1, 1 << 60)

    @settings(max_examples=120)
    @given(dim=st.sampled_from([2, 3]), n=st.integers(0, 4), data=st.data())
    def test_torus_count_matches_enumeration(self, dim, n, data):
        pk = TorusGridPacking(dim, n)
        lattice = st.integers(0, 31).map(lambda k: Fraction(k, 32))

        def ball():
            center = tuple(data.draw(lattice) for _ in range(dim))
            return BoxRegion.ball(dim, center, data.draw(lattice) / 4)

        region = ball()
        for op in data.draw(st.lists(
                st.sampled_from(["union", "subtract", "expand"]), max_size=2)):
            region = (region.expand(data.draw(lattice) / 8) if op == "expand"
                      else getattr(region, op)(ball()))
        # thresholds that carry a box end exactly onto a packing point (both
        # sit on the 1/A lattice), zero, or anything rational
        threshold = data.draw(st.one_of(
            st.just(Fraction(0)),
            st.integers(0, pk.circle.A // 2).map(
                lambda j: Fraction(j, pk.circle.A)),
            st.fractions(min_value=0, max_value=1, max_denominator=1 << 8)))
        slow = sum(1 for p in pk.iter_points()
                   if region.distance(p) <= threshold)
        assert pk.count_within(region, threshold) == slow

    @settings(max_examples=150)
    @given(k=st.integers(1, 6), n=st.integers(-1, 2), data=st.data())
    def test_finite_count_matches_enumeration(self, k, n, data):
        pk = FinitePacking(k, n)
        radius = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2),
                                  Fraction(1), Fraction(3, 2)])

        def ball():
            return FiniteRegion.ball(k, data.draw(st.integers(0, k - 1)),
                                     data.draw(radius))

        region = ball()
        for op in data.draw(st.lists(
                st.sampled_from(["union", "subtract", "expand"]), max_size=3)):
            region = (region.expand(data.draw(radius)) if op == "expand"
                      else getattr(region, op)(ball()))
        threshold = data.draw(st.one_of(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
            st.fractions(min_value=0, max_value=2, max_denominator=16)))
        slow = sum(1 for p in pk.iter_points()
                   if region.distance(p) <= threshold)
        assert pk.count_within(region, threshold) == slow

    def test_torus_counting_past_the_iteration_cap(self):
        # level 12 has 4095^2 points, eight times the materialization cap
        pk = TorusGridPacking(2, 12)
        assert pk.size > TorusGridPacking.MAX_ITER
        region = BoxRegion.ball(2, (Fraction(1, 3), Fraction(5, 7)),
                                Fraction(1, 8))
        ratio = Fraction(pk.count_within(region, Fraction(0)), pk.size)
        assert abs(ratio - Fraction(1, 16)) <= Fraction(1, 1 << 10)

    def test_serialization_format(self, circle):
        table = PackingTable(circle)
        text = table.serialize_entry(3)
        lines = text.splitlines()
        assert lines[0] == "3 7"
        assert len(lines) == 8
        assert all("*2^" in ln or ln == "0*2^0" for ln in lines[1:])


# the largest level per group whose packing the brute force still enumerates
NEIGHBOUR_GROUPS = {"circle": 6, "torus:1": 6, "torus:2": 4, "torus:3": 2,
                    "cyclic:1": 2, "cyclic:5": 2, "cyclic:8": 2}


def _draw_element(G, data):
    if G.kind == "finite":
        return data.draw(st.integers(0, G.order - 1))
    coord = st.integers(0, 1023).map(lambda k: Dyadic(k, -10))
    if G.kind == "circle":
        return data.draw(coord)
    return tuple(data.draw(coord) for _ in range(G.dim))


def _coords(G, p):
    """A packing point as the argument of ``region.distance``."""
    return (p,) if G.kind == "circle" else p


class TestNeighbourQuery:
    """``indices_within`` against brute force over ``iter_points``."""

    @settings(max_examples=150)
    @given(spec=st.sampled_from(sorted(NEIGHBOUR_GROUPS)), data=st.data())
    def test_point_neighbours_match_the_metric(self, spec, data):
        G = parse_group(spec, None)
        pk = G.packing(data.draw(st.integers(-1, NEIGHBOUR_GROUPS[spec])))
        c = _draw_element(G, data)
        r = data.draw(st.one_of(
            st.integers(0, 1 << 12).map(lambda k: Dyadic(k, -12)),
            st.fractions(min_value=0, max_value=1, max_denominator=1 << 8)))
        bound = Fraction(*ratio(r))
        slow = [k for k, p in enumerate(pk.iter_points())
                if G.metric(p, c, 0).lo.as_fraction() <= bound]
        assert pk.indices_within(G.region(c, 0), r) == slow

    @settings(max_examples=150)
    @given(spec=st.sampled_from(sorted(NEIGHBOUR_GROUPS)), data=st.data())
    def test_region_neighbours_match_enumeration(self, spec, data):
        G = parse_group(spec, None)
        pk = G.packing(data.draw(st.integers(-1, NEIGHBOUR_GROUPS[spec])))
        radius = st.integers(0, 1 << 6).map(lambda k: Fraction(k, 1 << 7))
        region = G.region(_draw_element(G, data), data.draw(radius))
        for op in data.draw(st.lists(
                st.sampled_from(["union", "subtract", "expand"]), max_size=2)):
            region = (region.expand(data.draw(radius)) if op == "expand"
                      else getattr(region, op)(
                          G.region(_draw_element(G, data), data.draw(radius))))
        threshold = data.draw(st.fractions(min_value=0, max_value=1,
                                           max_denominator=1 << 8))
        slow = [k for k, p in enumerate(pk.iter_points())
                if region.distance(_coords(G, p)) <= threshold]
        got = pk.indices_within(region, threshold)
        assert got == slow
        assert pk.count_within(region, threshold) == len(got)


class TestMaxPacking:
    def test_finite_whole_group(self):
        G = make_group("cyclic", k=4)
        pts = max_packing(G, 1, 4)
        assert sorted(pts) == [0, 1, 2, 3]

    def test_circle_singleton(self, circle):
        assert max_packing(circle, 1, 1) == [Dyadic(0)]

    def test_circle_triple_certified(self, circle):
        pts = max_packing(circle, 2, 3)
        assert len(pts) == 3
        assert separation_certificate(circle, pts, 2)

    def test_budget_exhaustion(self, circle):
        with pytest.raises(EffortExceeded):
            max_packing(circle, 2, 3, effort=2)


class TestBrackets:
    def test_circle_quarter_closes(self, circle):
        lo, hi = packing_size_bracket(circle, Fraction(1, 4))
        assert (lo, hi) == (3, 3)

    def test_circle_matches_kappa_up_to_12(self, circle):
        for n in range(1, 13):
            lo, hi = packing_size_bracket(circle, Fraction(1, 1 << n))
            kappa = packing_size(circle, n)
            assert lo == kappa == hi, n

    def test_finite(self):
        G = make_group("cyclic", k=6)
        assert packing_size_bracket(G, Fraction(1, 2)) == (6, 6)

    def test_sound_ordering(self, circle):
        for num, den in ((1, 3), (1, 5), (2, 7), (1, 10)):
            lo, hi = packing_size_bracket(circle, Fraction(num, den))
            assert lo <= hi

    def test_su2_unit_radius(self, su2):
        lo, hi = packing_size_bracket(su2, Fraction(1))
        assert lo >= 2          # e.g. 1 and -1 sit at geodesic distance pi
        assert lo <= hi

    def test_torus(self):
        T = make_group("torus", dim=2)
        lo, hi = packing_size_bracket(T, Fraction(1, 4))
        assert lo <= 9 <= hi

"""The packing-based measure/integral machinery and its supporting lemmas."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from haar.cli import parse_group
from haar.exactreal import (
    CertifiedValue, Dyadic, Interval, NoConvergence, fraction_ceil_to,
    fraction_floor_to,
)
from haar.generic import (
    CoinnerRadiusSearch, LocatedSet, ModulusOfContinuity, PartitionCell,
    compute_integral, compute_measure, find_coinner_radius,
    find_nice_partition, pseudo_count, ring_bound,
)
from haar import generic
from haar.groups import make_group
from haar.packing import CircleGridPacking, PackingTable
from haar.regions import BoxRegion
from conftest import FIXTURE_TABLES, finite_fixture_groups
from region_oracle import RegionOracle


def whole(G):
    """The whole group as a located set: the ball of its diameter bound."""
    return LocatedSet.ball(G, G.identity, G.diameter_bound)


class TestPseudoCount:
    def test_small_arc_one_of_three(self, circle):
        # only the point at 0 lies within 1/10 + slack of the ball B(1/10, 0)
        S = LocatedSet.ball(circle, Dyadic(0), Fraction(1, 10))
        q = pseudo_count(S, CircleGridPacking(2), 6)
        assert q == Fraction(1, 3)

    def test_whole_space_counts_everything(self, circle):
        S = whole(circle)
        for m in (1, 2, 5):
            assert pseudo_count(S, CircleGridPacking(m), m + 1) == 1

    @pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:5", "circle",
                                      "torus:2", "torus:3"])
    def test_whole_is_the_ball_of_measure_one(self, spec):
        S = whole(parse_group(spec, None))
        assert S.region.measure() == 1

    def test_whole_needs_a_region_backend(self, su2):
        with pytest.raises(ValueError, match="su2"):
            whole(su2)

    def test_far_set_counts_nothing(self):
        G = make_group("cyclic", k=5)
        S = LocatedSet.ball(G, 2, Fraction(1, 4))
        T = PackingTable(G).packing(1)
        # shrink to a set far from every other element
        q = pseudo_count(S, T, 3)
        assert q == Fraction(1, 5)
        empty = S.inner_ball(Fraction(2))
        assert pseudo_count(empty, T, 3) == 0

    def test_contract_bounds(self, circle):
        # mu_T(S) <= q <= mu_T(B(2^-n, S)) on explicit arcs
        rng = random.Random(21)
        for _ in range(40):
            c = Dyadic(rng.randint(0, 63), -6)
            r = Fraction(rng.randint(1, 20), 100)
            n = rng.randint(3, 7)
            S = LocatedSet.ball(circle, c, r)
            T = CircleGridPacking(rng.randint(2, 6))
            q = pseudo_count(S, T, n)
            oracle = RegionOracle(S.region)
            inside = sum(1 for p in T.iter_points()
                         if oracle.distance((p,)) == 0)
            thick = sum(1 for p in T.iter_points()
                        if oracle.distance((p,)) <= Fraction(1, 1 << n))
            assert Fraction(inside, T.size) <= q <= Fraction(thick, T.size)


class TestComputeMeasure:
    def test_circle_ball_arc_length(self, circle):
        pk = PackingTable(circle)
        for r in (Fraction(1, 8), Fraction(1, 3)):
            ball = LocatedSet.ball(circle, Dyadic(0), r)
            v = compute_measure(ball, pk, 4)
            assert abs(v.value.as_fraction() - 2 * r) <= Fraction(1, 16), r

    def test_whole_space_is_one(self, circle):
        pk = PackingTable(circle)
        for n in (2, 6, 10):
            v = compute_measure(whole(circle), pk, n)
            assert abs(v.value.as_fraction() - 1) <= Fraction(1, 1 << n)

    def test_finite_singleton(self):
        for k in (2, 3, 5, 8):
            G = make_group("cyclic", k=k)
            pk = PackingTable(G)
            n = k.bit_length() + 1
            v = compute_measure(LocatedSet.ball(G, 0, Fraction(1, 2)), pk, n)
            assert abs(v.value.as_fraction() - Fraction(1, k)) <= Fraction(1, 1 << n)

    def test_ten_dyadic_radii_at_n5(self, circle):
        """Acceptance criterion 5 shape: |mu(B_r) - 2r| <= 2^-5."""
        pk = PackingTable(circle)
        radii = [Fraction(k, 64) for k in (1, 3, 5, 7, 9, 13, 17, 21, 25, 29)]
        for r in radii:
            v = compute_measure(LocatedSet.ball(circle, Dyadic(0), r), pk, 5)
            assert abs(v.value.as_fraction() - 2 * r) <= Fraction(1, 32), r

    def test_near_full_circle(self, circle):
        pk = PackingTable(circle)
        tiny = Fraction(1, 64)
        v = compute_measure(
            LocatedSet.ball(circle, Dyadic(0), Fraction(1, 2) - tiny), pk, 2)
        assert abs(v.value.as_fraction() - (1 - 2 * tiny)) <= Fraction(1, 4)

    def test_torus_box_measure(self):
        T = make_group("torus", dim=2)
        pk = PackingTable(T)
        ball = LocatedSet.ball(T, (Dyadic(0), Dyadic(0)), Fraction(1, 8))
        v = compute_measure(ball, pk, 2)
        assert abs(v.value.as_fraction() - Fraction(1, 16)) <= Fraction(1, 4)

    def test_inversion_symmetry_finite_exact(self):
        # mu(U) = mu(U^-1) checked for all subsets of small groups
        for name, G in finite_fixture_groups(max_order=5):
            if G.order > 8:
                continue
            pk = PackingTable(G)
            for mask in range(1, 1 << G.order):
                members = [i for i in range(G.order) if mask >> i & 1]
                inv_members = [G.inverse(i, 0) for i in members]
                u = _finite_set(G, members)
                ui = _finite_set(G, inv_members)
                v1 = compute_measure(u, pk, 8)
                v2 = compute_measure(ui, pk, 8)
                assert v1.value == v2.value

    def test_uniqueness_z4_vs_z2xz2(self):
        """Acceptance criterion 10: same 4-point metric space, two group laws,
        identical singleton measures 1/4 bit-for-bit."""
        g1 = make_group("cyclic", k=4)
        g2 = make_group("finite", table=FIXTURE_TABLES["z2xz2"]())
        out = []
        for G in (g1, g2):
            pk = PackingTable(G)
            vals = [compute_measure(LocatedSet.ball(G, i, Fraction(1, 2)), pk, 6)
                    for i in range(4)]
            out.append([v.value for v in vals])
        assert out[0] == out[1]
        for v in out[0]:
            assert abs(v.as_fraction() - Fraction(1, 4)) <= Fraction(1, 64)


def _finite_set(G, members):
    from haar.regions import FiniteRegion
    return LocatedSet(G, FiniteRegion(G.order, members))


class TestCoreInequality:
    """mu(B(-4r,U)) <= mu_T(B(-2r,U)) <= mu(U) <= mu_T(B(2r,U)) <= mu(B(4r,U))
    checked in exact rational arithmetic on circle balls with exact
    equally-spaced maximum packings (points k/(2^n - 1))."""

    @staticmethod
    def equal_spaced(n):
        K = (1 << n) - 1
        return [Fraction(k, K) for k in range(K)], K

    @staticmethod
    def mu_T(points, region):
        oracle = RegionOracle(region)
        return Fraction(sum(1 for p in points if oracle.distance((p,)) == 0),
                        len(points))

    def test_sandwich_exact(self):
        for n in range(3, 9):
            pts, K = self.equal_spaced(n)
            r_pack = Fraction(1, 1 << n)
            for i in range(20):
                radius = Fraction(i + 1, 100)
                U = BoxRegion.ball(1, (Fraction(0),), radius)
                mu = lambda reg: min(reg.measure(), Fraction(1))
                inner2 = U.shrink(2 * r_pack)
                inner4 = U.shrink(4 * r_pack)
                outer2 = U.expand(2 * r_pack)
                outer4 = U.expand(4 * r_pack)
                assert mu(inner4) <= self.mu_T(pts, inner2)
                assert self.mu_T(pts, inner2) <= mu(U)
                assert mu(U) <= self.mu_T(pts, outer2)
                assert self.mu_T(pts, outer2) <= mu(outer4)


class TestEvenDistribution:
    """kappa_{B(-2^-n,U)}(n) <= |T_n  intersect  xU| <= kappa_{B(2^-n,U)}(n)
    exhaustively on finite groups with |G| <= 10: with the discrete metric
    B(+-2^-n, U) = U and kappa_U(n) = |U|, so both sides equal |xU| = |U|."""

    def test_exhaustive(self):
        for name, G in finite_fixture_groups(max_order=6):
            if G.order > 10:
                continue
            k = G.order
            for n in (1, 2, 3):
                T = list(range(k))          # the maximum n-packing
                for mask in range(1 << k):
                    U = [i for i in range(k) if mask >> i & 1]
                    kappa_u = len(U)        # any n >= 1: all pairs distance 1
                    for x in range(k):
                        xU = {G.op(x, u, 0) for u in U}
                        inter = sum(1 for t in T if t in xU)
                        assert kappa_u <= inter <= kappa_u


class TestCoinnerRadius:
    def test_bracketing_contract(self, circle):
        pk = PackingTable(circle)
        a, b = Dyadic(1, -3), Dyadic(1, -2)
        lo, hi = find_coinner_radius(a, b, pk, 3)
        assert a < lo < hi < b
        assert (hi - lo).as_fraction() <= Fraction(1, 8)

    def test_base_case_inner_eighths(self, circle):
        pk = PackingTable(circle)
        s = CoinnerRadiusSearch(circle, pk, Fraction(1, 8), Fraction(1, 4))
        lo, hi = s.level(0)
        assert lo == Fraction(1, 8) + Fraction(1, 80)
        assert hi == Fraction(1, 4) - Fraction(1, 80)

    def test_monotone_nesting(self, circle):
        pk = PackingTable(circle)
        s = CoinnerRadiusSearch(circle, pk, Fraction(1, 8), Fraction(1, 4))
        prev = s.level(0)
        for k in range(1, 6):
            cur = s.level(k)
            assert prev[0] < cur[0] < cur[1] < prev[1]
            prev = cur

    def test_measure_gap_postcondition(self, circle):
        # on the circle mu(B_r) = 2r exactly, so the gap is 2(b_n - a_n)...
        # the contract only demands <= 2^-n which nesting guarantees
        pk = PackingTable(circle)
        for n in (1, 2, 4):
            lo, hi = find_coinner_radius(Dyadic(1, -3), Dyadic(1, -2), pk, n)
            gap = 2 * (hi - lo).as_fraction()
            assert gap <= 2 * Fraction(1, 1 << n)


class _FractionRadiusSearch:
    """The radius search as it was on ``Fraction`` intervals, kept verbatim
    as an oracle for the integer search."""

    def __init__(self, G, packings, a: Fraction, b: Fraction):
        if not 0 < a < b:
            raise ValueError("need 0 < a < b")
        self.group = G
        self.packings = packings
        self.center = G.identity
        self.levels = [(a + (b - a) / 10, b - (b - a) / 10)]

    def level(self, k: int) -> tuple[Fraction, Fraction]:
        while len(self.levels) <= k:
            a1, b1 = self.levels[-1]
            w = b1 - a1
            r1, r5, r9 = a1 + w / 10, a1 + w / 2, a1 + 9 * w / 10
            eps = w / 10
            N = 3
            while Fraction(1, 1 << (N - 3)) > eps:
                N += 1
            if N > 4096:
                raise NoConvergence(f"radius search needs packing level {N}")
            T = self.packings.packing(N)
            m1 = pseudo_count(LocatedSet.ball(self.group, self.center, r1), T, N)
            m5 = pseudo_count(LocatedSet.ball(self.group, self.center, r5), T, N)
            m9 = pseudo_count(LocatedSet.ball(self.group, self.center, r9), T, N)
            if m9 - m5 <= m5 - m1:
                self.levels.append((r1 + eps, r5 - eps))
            else:
                self.levels.append((r5 + eps, r9 - eps))
        return self.levels[k]

    def bracket_below(self, width: Fraction) -> tuple[Fraction, Fraction]:
        k = 0
        while True:
            a, b = self.level(k)
            if b - a <= width:
                return a, b
            k += 1


RADIUS_GROUPS = ["circle", "torus:1", "torus:2", "cyclic:1", "cyclic:6"]


class TestRadiusSearchOracle:
    @settings(max_examples=40)
    @given(spec=st.sampled_from(RADIUS_GROUPS), a_m=st.integers(1, 1 << 10),
           a_e=st.integers(0, 12), w_m=st.integers(1, 1 << 10),
           w_e=st.integers(0, 12))
    def test_levels_match_the_fraction_search(self, spec, a_m, a_e, w_m, w_e):
        G = parse_group(spec, None)
        a = Dyadic(a_m, -a_e)
        b = a + Dyadic(w_m, -w_e)
        new_pk, old_pk = PackingTable(G), PackingTable(G)
        new = CoinnerRadiusSearch(G, new_pk, a, b)
        old = _FractionRadiusSearch(G, old_pk, a.as_fraction(), b.as_fraction())
        for k in range(13):
            assert new.level(k) == old.level(k), k
        # the same packing levels were consulted
        assert sorted(new_pk._cache) == sorted(old_pk._cache)

    @settings(max_examples=300)
    @given(num=st.integers(1, 1 << 64), den=st.integers(1, 1 << 128))
    def test_packing_level_matches_the_stepping_loop(self, num, den):
        eps = Fraction(num, den)
        N = 3
        while Fraction(1, 1 << (N - 3)) > eps:
            N += 1
        assert generic._packing_level(num, den) == N


def _all_pairs_partition(G, packings, n, q):
    """Nice partition by a scan over all pairs of centres, with the radius
    bracket from the ``Fraction`` search: the oracle for the neighbour scan."""
    search = _FractionRadiusSearch(G, packings,
                                   Fraction(1, 1 << (n + 1)), Fraction(1, 1 << n))
    r_lo, r_hi = search.bracket_below(Fraction(1, 1 << (q + 1)))
    r_lo = fraction_floor_to(r_lo, q + 4)
    r_hi = fraction_ceil_to(r_hi, q + 4)
    centers = packings.packing(n + 1).points_list()
    mid = (r_lo + r_hi).half().floor_to(q + 4)
    two_r = r_hi.scale2(1)
    cells = []
    balls = []
    for i, p in enumerate(centers):
        cell = G.region(p, r_lo)
        for j in range(i):
            if not G.metric(centers[j], p, q + 8).lo > two_r:
                cell = cell.subtract(balls[j])
        cells.append(PartitionCell(center=p,
                                   radius=CertifiedValue(mid, -q),
                                   set=LocatedSet(G, cell), index=i + 1))
        balls.append(G.region(p, r_hi))
    return cells


def _cell_key(cell):
    reg = cell.set.region
    shape = ((reg.den, reg.cuts, reg.flags) if isinstance(reg, BoxRegion)
             else sorted(reg.members))
    return (cell.index, cell.center, cell.radius.value,
            cell.radius.error_exponent, shape)


PARTITION_CASES = ([("circle", n) for n in range(1, 6)]
                   + [("torus:1", n) for n in range(1, 4)]
                   + [("torus:2", 1)]
                   + [(name, n) for name in ("cyclic:1", "cyclic:5", "z2xz2",
                                             "s3", "q8") for n in (1, 2)])


def _partition_group(name):
    if name in FIXTURE_TABLES:
        return make_group("finite", table=FIXTURE_TABLES[name]())
    return parse_group(name, None)


@pytest.mark.parametrize("name,n", PARTITION_CASES)
def test_partition_equals_the_all_pairs_scan(name, n):
    G = _partition_group(name)
    calls = []

    def counted(x, y, p):
        calls.append(1)
        return G.metric(x, y, p)

    counted_G = dataclasses.replace(G, metric=counted)
    got = find_nice_partition(counted_G, PackingTable(counted_G), n)
    assert calls == []
    want = _all_pairs_partition(G, PackingTable(G), n, n + 16)
    assert [_cell_key(c) for c in got] == [_cell_key(c) for c in want]


def _outer_cells(cells):
    """Arc cells that contain the true ones: the ball of the radius' upper
    end minus the balls of its lower end around the earlier centers."""
    radius = cells[0].radius.as_interval()
    lo, hi = radius.lo.as_fraction(), radius.hi.as_fraction()
    out = []
    for i, c in enumerate(cells):
        reg = BoxRegion.ball(1, (c.center,), hi)
        for prev in cells[:i]:
            reg = reg.subtract(BoxRegion.ball(1, (prev.center,), lo))
        out.append(reg)
    return out


class TestNicePartition:
    def test_circle_covers_and_disjoint(self, circle):
        """Spec example: n=2 gives 7 arc cells; 10^4 sample points lie in
        exactly one cell up to the radius-bracket boundary tolerance."""
        pk = PackingTable(circle)
        cells = find_nice_partition(circle, pk, 2)
        assert len(cells) == 7
        inner = [RegionOracle(c.set.region) for c in cells]
        outer = [RegionOracle(reg) for reg in _outer_cells(cells)]
        rng = random.Random(31)
        for _ in range(10 ** 4 // 4):
            p = (Dyadic(rng.randint(0, 4095), -12),)
            inner_hits = sum(1 for reg in inner if reg.contains(p))
            outer_hits = sum(1 for reg in outer if reg.contains(p))
            assert inner_hits <= 1
            assert outer_hits >= 1

    def test_cells_inside_small_balls(self, circle):
        # every cell and its outer arc cell lie in the closed 2^-n ball around
        # its center
        pk = PackingTable(circle)
        n = 2
        cells = find_nice_partition(circle, pk, n)
        r = Fraction(1, 1 << n)
        for c, outer in zip(cells, _outer_cells(cells)):
            big = BoxRegion.ball(1, (c.center,), r)
            assert outer.subtract(big).measure() == 0, c.index
            assert c.set.region.subtract(outer).measure() == 0, c.index

    def test_finite_cells_are_singletons(self):
        G = make_group("cyclic", k=5)
        pk = PackingTable(G)
        cells = find_nice_partition(G, pk, 1)
        assert len(cells) == 5
        for c in cells:
            assert c.set.region.members == frozenset({c.center})

    def test_radius_inside_bracket(self, circle):
        pk = PackingTable(circle)
        cells = find_nice_partition(circle, pk, 3)
        r = cells[0].radius
        assert Fraction(1, 16) < r.value.as_fraction() < Fraction(1, 8)


# each circle builtin's integral lies in [lo, hi] (2/pi for abs-re)
CIRCLE_INTEGRALS = {"re": (Fraction(0),) * 2, "re2": (Fraction(1, 2),) * 2,
                    "abs-re": (Fraction(6366197723675813, 10 ** 16),
                               Fraction(6366197723675814, 10 ** 16))}


class TestComputeIntegral:
    def test_torus_lipschitz_integral_certifies_the_constant(self):
        # 49 cells on torus:2, each shrunk and thickened on its cut grid; the
        # complement-based shrink refused this with NoConvergence
        T = make_group("torus", dim=2)
        v = compute_integral(T, lambda x, wp: Interval.from_int(1),
                             ModulusOfContinuity.from_lipschitz(Dyadic(1)),
                             Dyadic(1), PackingTable(T), 1)
        assert v.error_exponent == -1
        assert abs(v.value.as_fraction() - 1) <= Fraction(1, 2)

    def test_finite_exact_average(self):
        rng = random.Random(41)
        from haar.functions import values_integrand
        for name, G in finite_fixture_groups(max_order=6):
            pk = PackingTable(G)
            vals = [rng.randint(-9, 9) for _ in range(G.order)]
            spec = values_integrand(vals)
            v = compute_integral(G, spec.eval, ModulusOfContinuity.discrete(),
                                 spec.bound, pk, 10)
            exact = Fraction(sum(vals), G.order)
            assert abs(v.value.as_fraction() - exact) <= Fraction(1, 1 << 10)

    def test_circle_constant(self, circle):
        from haar.functions import builtin_integrand
        pk = PackingTable(circle)
        spec = builtin_integrand("one", "circle")
        v = compute_integral(circle, spec.eval,
                             ModulusOfContinuity.from_lipschitz(spec.lipschitz),
                             spec.bound, pk, 4)
        assert abs(v.value.as_fraction() - 1) <= Fraction(1, 16)

    def test_circle_cos2_n4(self, circle):
        from haar.functions import builtin_integrand
        pk = PackingTable(circle)
        spec = builtin_integrand("re2", "circle")
        v = compute_integral(circle, spec.eval,
                             ModulusOfContinuity.from_lipschitz(spec.lipschitz),
                             spec.bound, pk, 4)
        assert abs(v.value.as_fraction() - Fraction(1, 2)) <= Fraction(1, 16)

    def test_circle_cos2_n6(self, circle):
        from haar.functions import builtin_integrand
        pk = PackingTable(circle)
        spec = builtin_integrand("re2", "circle")
        v = compute_integral(circle, spec.eval,
                             ModulusOfContinuity.from_lipschitz(spec.lipschitz),
                             spec.bound, pk, 6)
        assert abs(v.value.as_fraction() - Fraction(1, 2)) <= Fraction(1, 64)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_circle_ring_bound_is_one_grid_step(self, circle, monkeypatch, n):
        # the mass the arc cells leave out widens the enclosure by at most
        # 2^-(n+10), so the returned midpoint keeps its grid
        from haar.functions import builtin_integrand
        seen = []

        def spy(*args):
            seen.append(ring_bound(*args))
            return seen[-1]

        monkeypatch.setattr(generic, "ring_bound", spy)
        spec = builtin_integrand("re2", "circle")
        v = compute_integral(circle, spec.eval,
                             ModulusOfContinuity.from_lipschitz(spec.lipschitz),
                             spec.bound, PackingTable(circle), n)
        assert len(seen) == 1
        assert 0 < seen[0].as_fraction() <= Fraction(1, 1 << (n + 10))
        assert abs(v.value.as_fraction() - Fraction(1, 2)) <= Fraction(1, 1 << n)

    @pytest.mark.parametrize("name", ["re", "re2", "abs-re"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_flat_schedule_certificate(self, circle, monkeypatch, name, n):
        # every cell's measure is enclosed to one 2^-t, and the cells' summed
        # error fits 2^-(n+3); the cells are translates of a few shapes, so
        # at most 8 measures are computed; the left-out ring mass fits one
        # 2^-(n+10) step, and the value is certified against the closed form
        from haar.functions import builtin_integrand
        ts, rings, partitions = [], [], []
        measure, ring = generic.compute_measure, generic.ring_bound
        partition = generic.find_nice_partition

        def spy_measure(U, packings, t, **kw):
            ts.append(t)
            return measure(U, packings, t, **kw)

        def spy_ring(*args):
            rings.append(ring(*args))
            return rings[-1]

        def spy_partition(*args, **kw):
            partitions.append(partition(*args, **kw))
            return partitions[-1]

        monkeypatch.setattr(generic, "compute_measure", spy_measure)
        monkeypatch.setattr(generic, "ring_bound", spy_ring)
        monkeypatch.setattr(generic, "find_nice_partition", spy_partition)
        spec = builtin_integrand(name, "circle")
        v = compute_integral(circle, spec.eval,
                             ModulusOfContinuity.from_lipschitz(spec.lipschitz),
                             spec.bound, PackingTable(circle), n)
        M = spec.bound.as_fraction()
        (t,) = set(ts)
        (cells,) = partitions
        assert M * len(cells) / (1 << t) <= Fraction(1, 1 << (n + 3))
        assert 1 <= len(ts) <= 8 < len(cells)
        assert len(rings) == 1
        assert rings[0].as_fraction() <= Fraction(1, 1 << (n + 10))
        lo, hi = CIRCLE_INTEGRALS[name]
        err = Fraction(1, 1 << n)
        assert v.value.as_fraction() - err <= lo and hi <= v.value.as_fraction() + err

    @pytest.mark.parametrize("name, n", [("re", 7), ("re2", 7), ("abs-re", 7),
                                         ("re2", 8), ("re2", 9)])
    def test_fine_circle_integrals_are_certified(self, circle, name, n):
        from haar.functions import builtin_integrand
        spec = builtin_integrand(name, "circle")
        v = compute_integral(circle, spec.eval,
                             ModulusOfContinuity.from_lipschitz(spec.lipschitz),
                             spec.bound, PackingTable(circle), n)
        lo, hi = CIRCLE_INTEGRALS[name]
        err = Fraction(1, 1 << n)
        assert v.value.as_fraction() - err <= lo and hi <= v.value.as_fraction() + err

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_torus_cells_share_measures(self, monkeypatch, n):
        # 49, 225 and 961 cells on torus:2, translates of at most 20 shapes
        T = make_group("torus", dim=2)
        calls = []
        measure = generic.compute_measure
        monkeypatch.setattr(generic, "compute_measure",
                            lambda *a, **kw: calls.append(a[0]) or measure(*a, **kw))
        v = compute_integral(T, lambda x, wp: Interval.from_int(1),
                             ModulusOfContinuity.from_lipschitz(Dyadic(1)),
                             Dyadic(1), PackingTable(T), n)
        assert 1 <= len(calls) <= 20
        assert abs(v.value.as_fraction() - 1) <= Fraction(1, 1 << n)

    @pytest.mark.parametrize("name, vals, m, e", [
        ("z5", [8, -7, 2, 0, -7], -1677721, -21),
        ("z6", [7, 2, 3, 4, -9, -8], -349525, -21),
        ("z2xz2", [-6, 5, -2, 2], -1, -2),
        ("s3", [-7, 6, 1, 8, 4, -3], 3145727, -21),
        ("q8", [5, -4, -2, 4, 4, 9, 7, -3], 5, -1)])
    def test_finite_cells_keep_one_measure_each(self, monkeypatch, name, vals, m, e):
        # a finite integral measures every cell's own set once, and its value
        # is bit for bit the one of one measure per cell
        from haar.functions import values_integrand
        G = dict(finite_fixture_groups(max_order=6))[name]
        measured, partitions = [], []
        measure, partition = generic.compute_measure, generic.find_nice_partition
        monkeypatch.setattr(generic, "compute_measure",
                            lambda *a, **kw: measured.append(a[0]) or measure(*a, **kw))
        monkeypatch.setattr(generic, "find_nice_partition",
                            lambda *a, **kw: partitions.append(partition(*a, **kw))
                            or partitions[-1])
        spec = values_integrand(vals)
        v = compute_integral(G, spec.eval, ModulusOfContinuity.discrete(),
                             spec.bound, PackingTable(G), 10)
        (cells,) = partitions
        assert len(cells) == G.order
        assert [id(U) for U in measured] == [id(cell.set) for cell in cells]
        assert (v.value.m, v.value.e) == (m, e)

    def test_finite_ring_bound_is_zero(self):
        G = make_group("cyclic", k=5)
        cells = find_nice_partition(G, PackingTable(G), 1)
        assert ring_bound(G, cells, Fraction(9), 10) == Dyadic(0)

    def test_left_invariance_finite(self):
        rng = random.Random(42)
        from haar.functions import values_integrand
        G = make_group("cyclic", k=6)
        pk = PackingTable(G)
        vals = [rng.randint(-5, 5) for _ in range(6)]
        spec = values_integrand(vals)
        base = compute_integral(G, spec.eval, ModulusOfContinuity.discrete(),
                                spec.bound, pk, 8)
        for g in range(6):
            shifted = values_integrand([vals[G.op(g, x, 0)] for x in range(6)])
            v = compute_integral(G, shifted.eval, ModulusOfContinuity.discrete(),
                                 shifted.bound, pk, 8)
            assert abs(v.value.as_fraction() - base.value.as_fraction()) \
                <= 2 * Fraction(1, 1 << 8)

    def test_left_invariance_circle(self, circle):
        from haar.functions import builtin_integrand, translate_circle_integrand
        pk = PackingTable(circle)
        spec = builtin_integrand("re2", "circle")
        modulus = ModulusOfContinuity.from_lipschitz(spec.lipschitz)
        base = compute_integral(circle, spec.eval, modulus, spec.bound, pk, 3)
        rng = random.Random(43)
        for _ in range(3):
            g = Dyadic(rng.randint(0, 255), -8)
            mv = translate_circle_integrand(spec, g)
            v = compute_integral(circle, mv.eval, modulus, mv.bound, pk, 3)
            assert abs(v.value.as_fraction() - base.value.as_fraction()) \
                <= 2 * Fraction(1, 8)

    def test_determinism(self):
        from haar.functions import values_integrand
        G = make_group("cyclic", k=5)
        pk = PackingTable(G)
        spec = values_integrand([3, -1, 4, -1, 5])
        v1 = compute_integral(G, spec.eval, ModulusOfContinuity.discrete(),
                              spec.bound, pk, 9)
        v2 = compute_integral(G, spec.eval, ModulusOfContinuity.discrete(),
                              spec.bound, PackingTable(G), 9)
        assert v1.value == v2.value and v1.error_exponent == v2.error_exponent

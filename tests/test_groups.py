"""Group instances: axioms, metrics, bi-invariance."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from haar.exactreal import ONE, ZERO, Dyadic, Interval, pi_enclosure
from haar.groups import (
    InvalidCayleyTable, Versor, QUAT_ONE,
    cyclic_table, make_group, parse_cayley, validate_cayley_table,
)
from conftest import finite_fixture_groups

QUAT_I = Versor.exact(ZERO, ONE, ZERO, ZERO)
QUAT_J = Versor.exact(ZERO, ZERO, ONE, ZERO)


def rand_versor(rng, wp=40) -> Versor:
    """Interval versor enclosing the normalization of a random dyadic 4-vector."""
    from haar.exactreal import sqrt_enclosure
    while True:
        v = [Dyadic(rng.randint(-256, 256), -8) for _ in range(4)]
        if sum((x * x).as_fraction() for x in v) > Fraction(1, 16):
            break
    comps = [Interval.point(x) for x in v]
    n2i = comps[0].square() + comps[1].square() + comps[2].square() + comps[3].square()
    norm = sqrt_enclosure(n2i, wp + 4)
    return Versor(*[c.divide(norm, wp) for c in comps])


class TestFiniteGroups:
    def test_cyclic_discrete_metric(self):
        G = make_group("cyclic", k=4)
        assert G.order == 4 and G.identity == 0
        assert G.metric(1, 3, 10).lo == Dyadic(1)
        assert G.metric(2, 2, 10).hi == Dyadic(0)

    def test_cyclic_addition(self):
        G = make_group("cyclic", k=5)
        assert G.op(3, 4, 10) == 2

    def test_axioms_exhaustive_small_orders(self):
        groups = finite_fixture_groups(max_order=8)
        groups.append(("z24", make_group("cyclic", k=24)))
        for name, G in groups:
            k = G.order
            if k > 24:
                continue
            t = G.table
            for a in range(k):
                assert t[a][0] == a and t[0][a] == a
                assert t[a][G.inverse(a, 0)] == 0
            for a in range(k):
                for b in range(k):
                    for c in range(k):
                        assert t[t[a][b]][c] == t[a][t[b][c]]

    def test_invalid_tables_rejected(self):
        with pytest.raises(InvalidCayleyTable):
            validate_cayley_table(((0, 1), (1, 1)))       # not a permutation
        with pytest.raises(InvalidCayleyTable):
            validate_cayley_table(((1, 0), (0, 1)))       # bad identity row
        # magma that is a quasigroup but not associative
        with pytest.raises(InvalidCayleyTable):
            validate_cayley_table(
                ((0, 1, 2, 3, 4),
                 (1, 0, 3, 4, 2),
                 (2, 4, 0, 1, 3),
                 (3, 2, 4, 0, 1),
                 (4, 3, 1, 2, 0)))

    def test_parse_cayley_roundtrip(self):
        text = "3\n0 1 2\n1 2 0\n2 0 1\n"
        assert parse_cayley(text) == cyclic_table(3)
        assert validate_cayley_table(cyclic_table(3)) == (0, 2, 1)   # inverses
        with pytest.raises(InvalidCayleyTable):
            parse_cayley("2\n0 1\n")


class TestCircleTorus:
    def test_antipodal_distance(self, circle):
        d = circle.metric(Dyadic(1, -2), Dyadic(3, -2), 10)   # 0.25 vs 0.75
        assert d.lo == Dyadic(1, -1) == d.hi

    def test_addition_mod_one(self, circle):
        r = circle.op(Dyadic(3, -2), Dyadic(1, -1), 10)  # 0.75 + 0.5
        assert r == Dyadic(1, -2)

    def test_inverse(self, circle):
        assert circle.inverse(Dyadic(3, -2), 10) == Dyadic(1, -2)
        assert circle.inverse(Dyadic(0), 10) == Dyadic(0)

    @pytest.mark.parametrize("dim", [None, 0, -2])
    def test_torus_needs_dimension_one_or_more(self, dim):
        with pytest.raises(ValueError, match="dim"):
            make_group("torus", dim=dim)

    def test_torus_max_metric(self):
        T = make_group("torus", dim=2)
        a = (Dyadic(0), Dyadic(0))
        b = (Dyadic(1, -2), Dyadic(1, -3))
        assert T.metric(a, b, 10).lo == Dyadic(1, -2)
        assert T.op(a, b, 10) == b


def _circle_distance(x: Fraction, y: Fraction) -> Fraction:
    d = (x - y) % 1
    return min(d, 1 - d)


circle_points = st.integers(0, 12).flatmap(
    lambda k: st.builds(lambda m: Dyadic(m, -k), st.integers(0, (1 << k) - 1)))


class TestCircleMetricExact:
    """The dyadic circle and torus metrics equal the exact rational formula
    min(d, 1 - d), d = (x - y) mod 1."""

    @settings(max_examples=300)
    @given(x=circle_points, y=circle_points)
    @example(x=Dyadic(1, -2), y=Dyadic(3, -2))      # distance 1/2
    @example(x=Dyadic(0), y=Dyadic(1, -1))          # distance 1/2 from 0
    @example(x=Dyadic(1, -4), y=Dyadic(15, -4))     # wraps: 1/8
    @example(x=Dyadic(4095, -12), y=Dyadic(0))      # wraps: 2^-12
    def test_circle(self, x, y):
        d = make_group("circle").metric(x, y, 0)
        assert d.lo == d.hi
        assert d.lo.as_fraction() == _circle_distance(x.as_fraction(),
                                                      y.as_fraction())

    @settings(max_examples=100)
    @given(x=st.tuples(circle_points, circle_points),
           y=st.tuples(circle_points, circle_points))
    @example(x=(Dyadic(1, -2), Dyadic(1, -3)), y=(Dyadic(3, -2), Dyadic(7, -3)))
    def test_torus(self, x, y):
        d = make_group("torus", dim=2).metric(x, y, 0)
        assert d.lo == d.hi
        assert d.lo.as_fraction() == max(
            _circle_distance(a.as_fraction(), b.as_fraction())
            for a, b in zip(x, y))


class TestSU2:
    def test_unit_table(self, su2):
        prod = su2.op(QUAT_I, QUAT_J, 40)
        assert prod.d.contains(Fraction(1)) and prod.a.contains(Fraction(0))
        assert float(prod.d.width()) < 1e-9

    def test_metric_one_i(self, su2):
        d = su2.metric(QUAT_ONE, QUAT_I, 30)
        half_pi = pi_enclosure(40).scale(Dyadic(1, -1))
        assert d.lo <= half_pi.hi and half_pi.lo <= d.hi

    def test_inverse_is_conjugate(self, su2):
        rng = random.Random(5)
        for _ in range(20):
            q = rand_versor(rng)
            prod = su2.op(q, su2.inverse(q, 40), 40)
            assert prod.a.contains(Fraction(1)) or prod.a.hi.as_fraction() > Fraction(99, 100)
            for comp in (prod.b, prod.c, prod.d):
                assert comp.contains(Fraction(0)) or abs(float(comp.midpoint())) < 1e-6

    def test_norm_preserved(self, su2):
        rng = random.Random(6)
        for _ in range(30):
            q1, q2 = rand_versor(rng), rand_versor(rng)
            q = su2.op(q1, q2, 40)
            n2 = q.dot(q)
            assert n2.lo.as_fraction() <= 1 <= n2.hi.as_fraction() + Fraction(1, 1000)


class TestMetricProperties:
    """Bi-invariance and triangle inequality, to enclosure tolerance."""

    def test_biinvariance_finite_exact(self):
        for name, G in finite_fixture_groups(max_order=6):
            k = G.order
            for a in range(k):
                for b in range(k):
                    for c in range(k):
                        d0 = G.metric(a, b, 0).lo
                        dr = G.metric(G.op(a, c, 0), G.op(b, c, 0), 0).lo
                        dl = G.metric(G.op(c, a, 0), G.op(c, b, 0), 0).lo
                        assert d0 == dr == dl

    def test_biinvariance_circle_exact(self, circle):
        rng = random.Random(7)
        for _ in range(1000):
            a, b, c = (Dyadic(rng.randint(0, 255), -8) for _ in range(3))
            d0 = circle.metric(a, b, 0)
            dr = circle.metric(circle.op(a, c, 0), circle.op(b, c, 0), 0)
            assert d0.lo == dr.lo

    def test_biinvariance_su2_enclosures(self, su2):
        rng = random.Random(8)
        for _ in range(1000):
            a, b, c = rand_versor(rng), rand_versor(rng), rand_versor(rng)
            d0 = su2.metric(a, b, 24)
            dr = su2.metric(su2.op(a, c, 40), su2.op(b, c, 40), 24)
            dl = su2.metric(su2.op(c, a, 40), su2.op(c, b, 40), 24)
            for other in (dr, dl):
                assert other.lo <= d0.hi and d0.lo <= other.hi

    def test_biinvariance_product_groups(self):
        rng = random.Random(81)
        o3 = make_group("o3")
        u2 = make_group("u2")

        def rand_o3():
            return (rand_versor(rng, wp=30), rng.randint(0, 1))

        def rand_u2():
            return (rand_versor(rng, wp=30), Dyadic(rng.randint(0, 255), -8))

        for G, sample in ((o3, rand_o3), (u2, rand_u2)):
            for _ in range(200):
                a, b, c = sample(), sample(), sample()
                d0 = G.metric(a, b, 20)
                dr = G.metric(G.op(a, c, 36), G.op(b, c, 36), 20)
                dl = G.metric(G.op(c, a, 36), G.op(c, b, 36), 20)
                for other in (dr, dl):
                    assert other.lo <= d0.hi and d0.lo <= other.hi

    def test_su2_no_gridpoint_exceeds_plain_metric(self, su2):
        # the paper's bi-invariant d'(a, b) = sup d(x a y, x b y) equals d on
        # SU(2): no two-sided translate moves a pair farther apart
        rng = random.Random(11)
        for _ in range(25):
            a, b = rand_versor(rng), rand_versor(rng)
            d0 = su2.metric(a, b, 24)
            for _ in range(4):
                x, y = rand_versor(rng), rand_versor(rng)
                xa = su2.op(su2.op(x, a, 40), y, 40)
                xb = su2.op(su2.op(x, b, 40), y, 40)
                moved = su2.metric(xa, xb, 24)
                slack = Dyadic(1, -10)
                assert moved.lo <= d0.hi + slack

    def test_triangle_inequality_su2(self, su2):
        rng = random.Random(9)
        for _ in range(300):
            a, b, c = rand_versor(rng), rand_versor(rng), rand_versor(rng)
            dab = su2.metric(a, b, 24)
            dac = su2.metric(a, c, 24)
            dcb = su2.metric(c, b, 24)
            assert dab.lo <= dac.hi + dcb.hi

    def test_symmetry_bitwise(self, su2):
        rng = random.Random(10)
        for _ in range(20):
            a, b = rand_versor(rng), rand_versor(rng)
            d1, d2 = su2.metric(a, b, 24), su2.metric(b, a, 24)
            assert d1.lo == d2.lo and d1.hi == d2.hi


class TestProductGroups:
    def test_o3_structure(self):
        G = make_group("o3")
        e = G.identity
        assert e[1] == 0
        flip = (QUAT_ONE, 1)
        prod = G.op(flip, flip, 40)
        assert prod[1] == 0        # (-1)(-1) = +1

    def test_max_metric(self):
        G = make_group("u2")
        a = (QUAT_ONE, Dyadic(0))
        b = (QUAT_ONE, Dyadic(1, -2))
        d = G.metric(a, b, 20)
        assert d.lo.as_fraction() <= Fraction(1, 4) <= d.hi.as_fraction()

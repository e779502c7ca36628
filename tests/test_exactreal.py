"""Exact dyadic/interval arithmetic against independent high-precision oracles.

mpmath at 160-bit working precision serves as the oracle for the elementary
functions; its results are converted to exact rationals and padded by 2^-100,
far below the widths our enclosures are allowed.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from haar.exactreal import (
    CertifiedValue, DivisionByIntervalContainingZero, DomainError, Dyadic,
    Interval, NoConvergence, arccos_enclosure, cos_enclosure,
    elementary_enclosure, interval_arith, pi_enclosure, refine,
    sin_enclosure, sincos_pi, sqrt_enclosure,
)

mpmath.mp.prec = 160
PAD = Fraction(1, 2 ** 100)


def mp_to_fraction(x) -> Fraction:
    sign, man, exp, _bc = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def rand_dyadic(rng, mag=4, bits=20) -> Dyadic:
    m = rng.randint(-(1 << bits), 1 << bits)
    return Dyadic(m, -bits + rng.randint(-2, int(math.log2(mag)) + 1))


def rand_interval(rng, mag=4) -> Interval:
    a, b = rand_dyadic(rng, mag), rand_dyadic(rng, mag)
    return Interval(a, b) if a <= b else Interval(b, a)


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(12, 3)         # 12*2^3 = 3*2^5
        assert d.m == 3 and d.e == 5
        z = Dyadic(0, 17)
        assert z.m == 0 and z.e == 0

    def test_exact_arithmetic(self):
        rng = random.Random(1)
        for _ in range(2000):
            a, b = rand_dyadic(rng), rand_dyadic(rng)
            fa, fb = a.as_fraction(), b.as_fraction()
            assert (a + b).as_fraction() == fa + fb
            assert (a - b).as_fraction() == fa - fb
            assert (a * b).as_fraction() == fa * fb
            assert (a < b) == (fa < fb)

    def test_grid_rounding(self):
        d = Dyadic(5, -3)  # 0.625
        assert d.floor_to(1) == Dyadic(1, -1)
        assert d.ceil_to(1) == Dyadic(3, -2) + Dyadic(1, -2)  # 1.0
        assert d.floor_to(3) == d


class TestIntervalArith:
    def test_point_product(self):
        # [1,1] x [2,2] -> [2,2]
        r = interval_arith(Interval.from_int(1), Interval.from_int(2), "*")
        assert r.lo == Dyadic(2) and r.hi == Dyadic(2)

    def test_endpoint_sums(self):
        # [0,1] + [0,1] -> [0,2]
        r = interval_arith(Interval(Dyadic(0), Dyadic(1)),
                           Interval(Dyadic(0), Dyadic(1)), "+")
        assert r.lo == Dyadic(0) and r.hi == Dyadic(2)

    def test_division_encloses_rational_endpoints(self):
        # [1,2] / [3,4] at working precision 30
        a = Interval(Dyadic(1), Dyadic(2))
        b = Interval(Dyadic(3), Dyadic(4))
        r = a.divide(b, 30)
        assert r.lo.as_fraction() <= Fraction(1, 4)
        assert r.hi.as_fraction() >= Fraction(2, 3)
        assert r.width().as_fraction() <= Fraction(2, 3) - Fraction(1, 4) + Fraction(1, 1 << 29)

    def test_division_by_zero_interval(self):
        with pytest.raises(DivisionByIntervalContainingZero):
            Interval.from_int(1).divide(Interval(Dyadic(-1), Dyadic(1)), 20)

    def test_enclosure_soundness_random(self):
        rng = random.Random(2)
        for _ in range(4000):
            a, b = rand_interval(rng), rand_interval(rng)
            xa = Fraction(rng.randint(0, 8), 8) * (a.hi.as_fraction() - a.lo.as_fraction()) + a.lo.as_fraction()
            xb = Fraction(rng.randint(0, 8), 8) * (b.hi.as_fraction() - b.lo.as_fraction()) + b.lo.as_fraction()
            assert (a + b).contains(xa + xb)
            assert (a - b).contains(xa - xb)
            assert (a * b).contains(xa * xb)
            if b.lo.sign() > 0 or b.hi.sign() < 0:
                assert a.divide(b, 40).contains(xa / xb)


class TestElementary:
    def test_sin_zero(self):
        r = sin_enclosure(Interval.from_int(0), 30)
        assert r.contains(Fraction(0)) and float(r.width()) <= 2 ** -29

    def test_cos_of_pi_encloses_minus_one(self):
        r = cos_enclosure(pi_enclosure(30), 30)
        assert r.contains(Fraction(-1))
        assert r.width().as_fraction() <= Fraction(1, 1 << 28)

    @pytest.mark.parametrize("x", [Dyadic(3, 200), Dyadic(3, 1030)])
    def test_sin_cos_of_huge_points(self, x):
        # x/pi is enclosed by exact rationals, so neither a series on the
        # unreduced x nor a float conversion of x is ever needed
        with mpmath.workprec(1200):
            v = mpmath.mpf(x.m) * mpmath.mpf(2) ** x.e
            sin_x, cos_x = mp_to_fraction(mpmath.sin(v)), mp_to_fraction(mpmath.cos(v))
        for ours, true in ((sin_enclosure, sin_x), (cos_enclosure, cos_x)):
            enc = ours(Interval.point(x), 30)
            assert enc.lo.as_fraction() <= true <= enc.hi.as_fraction()
            assert enc.width().as_fraction() <= Fraction(1, 1 << 30)

    def test_sqrt_perfect_square(self):
        r = sqrt_enclosure(Interval.from_int(4), 30)
        assert r.contains(Fraction(2))
        assert r.width().as_fraction() <= Fraction(1, 1 << 30)

    def test_sqrt_negative_raises(self):
        with pytest.raises(DomainError):
            sqrt_enclosure(Interval(Dyadic(-4), Dyadic(-1)), 20)

    def test_arccos_outside_domain_raises(self):
        with pytest.raises(DomainError):
            arccos_enclosure(Interval(Dyadic(2), Dyadic(3)), 20)

    def test_oracle_containment_10k(self):
        """Acceptance criterion 11 backbone: zero containment failures."""
        rng = random.Random(3)
        fns = {
            "sin": (sin_enclosure, mpmath.sin, lambda x: True),
            "cos": (cos_enclosure, mpmath.cos, lambda x: True),
            "sqrt": (sqrt_enclosure, mpmath.sqrt, lambda x: x >= 0),
            "arccos": (arccos_enclosure, mpmath.acos, lambda x: -1 <= x <= 1),
            "abs": (lambda x, p: x.abs(), abs, lambda x: True),
        }
        per_fn = 10000 // len(fns) + 1
        for name, (ours, oracle, domain) in fns.items():
            count = 0
            while count < per_fn:
                d = rand_dyadic(rng, mag=4 if name in ("sin", "cos") else 1)
                x = d.as_fraction()
                if name == "sqrt":
                    x = abs(x)
                    d = abs(d)
                if name == "arccos":
                    x = max(min(x, Fraction(1)), Fraction(-1))
                    d = Dyadic(x.numerator, -(x.denominator.bit_length() - 1)) \
                        if x.denominator & (x.denominator - 1) == 0 else d
                    if not -1 <= d.as_fraction() <= 1:
                        continue
                    x = d.as_fraction()
                if not domain(x):
                    continue
                enc = ours(Interval.point(d), 48)
                true = abs(x) if name == "abs" else \
                    mp_to_fraction(oracle(mpmath.mpf(x.numerator) / x.denominator))
                assert enc.lo.as_fraction() <= true + PAD, (name, x)
                assert true - PAD <= enc.hi.as_fraction(), (name, x)
                count += 1

    def test_inclusion_monotonicity(self):
        rng = random.Random(4)
        for _ in range(300):
            lo = rand_dyadic(rng, mag=2)
            w1 = abs(rand_dyadic(rng, mag=1))
            w2 = abs(rand_dyadic(rng, mag=1))
            inner = Interval(lo, lo + w1)
            outer = Interval(lo - w2, lo + w1 + w2)
            for name in ("sin", "cos", "abs"):
                fi = elementary_enclosure(name, inner, 40)
                fo = elementary_enclosure(name, outer, 40)
                assert fo.contains_interval(fi), name
            if outer.lo.sign() >= 0:
                assert sqrt_enclosure(outer, 40).contains_interval(
                    sqrt_enclosure(inner, 40))

    def test_dispatch_unknown(self):
        with pytest.raises(ValueError):
            elementary_enclosure("exp", Interval.from_int(1), 20)


class TestSincosPi:
    @settings(max_examples=300)
    @given(num=st.integers(-(1 << 24), 1 << 24), den=st.integers(1, 1 << 16),
           p=st.integers(8, 1200))
    @example(num=1, den=2, p=35)
    @example(num=0, den=1, p=35)
    @example(num=2, den=1, p=35)
    @example(num=-1, den=1, p=8)
    @example(num=403, den=1, p=8)
    @example(num=(1 << 24) - 1, den=2, p=8)
    @example(num=7, den=5, p=1100)
    def test_contains_mpmath(self, num, den, p):
        # the quadrant reduction is exact, so a large q neither refuses (an
        # exception fails the test) nor widens the enclosure
        q = Fraction(num, den)
        s, c = sincos_pi(q, p)
        # the kernel's widening: max(64, 2 terms + 2) ulps at g fraction
        # bits, with fewer than g/12 + 12 terms, plus pi's share of the
        # reduced argument
        g = p + max(10, p.bit_length())
        ulps = 2 * max(64, g // 6 + 26) + 8
        for iv in (s, c):
            assert iv.width().as_fraction() <= Fraction(1, 1 << p)
            assert iv.width().as_fraction() <= Fraction(ulps, 1 << g)
        with mpmath.workprec(p + 100):
            x = mpmath.pi * mpmath.mpf(q.numerator) / q.denominator
            sin_x, cos_x = mp_to_fraction(mpmath.sin(x)), mp_to_fraction(mpmath.cos(x))
        assert s.lo.as_fraction() <= sin_x <= s.hi.as_fraction()
        assert c.lo.as_fraction() <= cos_x <= c.hi.as_fraction()


class TestPi:
    def test_contains_pi(self):
        true_pi = mp_to_fraction(mpmath.mpf(mpmath.pi))
        for p in (1, 5, 10, 30, 60):
            enc = pi_enclosure(p)
            assert enc.lo.as_fraction() <= true_pi <= enc.hi.as_fraction()
            assert enc.width().as_fraction() <= Fraction(1, 1 << p)

    def test_p1_inside_3_to_3p5(self):
        enc = pi_enclosure(1)
        assert Fraction(3) <= enc.lo.as_fraction()
        assert enc.hi.as_fraction() <= Fraction(7, 2)

    def test_nested_refinement(self):
        prev = pi_enclosure(2)
        for p in range(3, 40):
            cur = pi_enclosure(p)
            assert prev.contains_interval(cur)
            prev = cur


class TestRefine:
    def test_constant_computation(self):
        q = Dyadic(7, -3)
        cv = refine(lambda wp: Interval.point(q), 25)
        assert cv.value == q and cv.error_exponent == -25

    def test_pi_to_20_bits(self):
        cv = refine(lambda wp: pi_enclosure(wp), 20)
        true_pi = mp_to_fraction(mpmath.mpf(mpmath.pi))
        assert abs(cv.value.as_fraction() - true_pi) <= Fraction(1, 1 << 20)

    def test_no_convergence(self):
        stuck = Interval(Dyadic(0), Dyadic(1))
        with pytest.raises(NoConvergence):
            refine(lambda wp: stuck, 4, max_iterations=10)

    def test_adjacent_precisions_agree(self):
        c1 = refine(lambda wp: pi_enclosure(wp), 12)
        c2 = refine(lambda wp: pi_enclosure(wp), 13)
        gap = abs(c1.value.as_fraction() - c2.value.as_fraction())
        assert gap <= Fraction(1, 1 << 12) + Fraction(1, 1 << 13)

    def test_certified_interval(self):
        cv = CertifiedValue(Dyadic(1, -1), -3)
        iv = cv.as_interval()
        assert iv.lo == Dyadic(3, -3) and iv.hi == Dyadic(5, -3)

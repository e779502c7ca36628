"""Exact dyadic/interval arithmetic against independent high-precision oracles.

mpmath at 160-bit working precision serves as the oracle for the elementary
functions; its results are converted to exact rationals and padded by 2^-100,
far below the widths our enclosures are allowed.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from haar import exactreal
from haar.exactreal import (
    CertifiedValue, DivisionByIntervalContainingZero, DomainError, Dyadic,
    Interval, arccos_enclosure, cos_enclosure, kernel_bits, pi_enclosure,
    sin_enclosure, sincos_pi, sincos_pi_fixed, sqrt_enclosure,
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


def nests(outer: Interval, inner: Interval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


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
        r = Interval.from_int(1) * Interval.from_int(2)
        assert r.lo == Dyadic(2) and r.hi == Dyadic(2)

    def test_endpoint_sums(self):
        # [0,1] + [0,1] -> [0,2]
        r = Interval(Dyadic(0), Dyadic(1)) + Interval(Dyadic(0), Dyadic(1))
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
            for f in (sin_enclosure, cos_enclosure):
                assert nests(f(outer, 40), f(inner, 40)), f.__name__
            assert nests(outer.abs(), inner.abs())
            if outer.lo.sign() >= 0:
                assert nests(sqrt_enclosure(outer, 40), sqrt_enclosure(inner, 40))


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


@st.composite
def kernel_angles(draw):
    """(a, den) near the quadrant ends 0, den/4, den/2, 3den/4, den and
    2den, or anywhere."""
    den = 4 * draw(st.integers(1, 1 << 14))
    if draw(st.booleans()):
        a = draw(st.sampled_from([0, 1, 2, 3, 4, 8])) * den // 4 + draw(st.integers(-1, 1))
        return a * draw(st.sampled_from([1, -1])), den
    return draw(st.integers(-(1 << 24), 1 << 24)), den - draw(st.integers(0, 3))


def sincos_oracle(a: int, den: int, p: int):
    with mpmath.workprec(p + 100 + abs(a).bit_length()):
        x = mpmath.pi * a / den
        return mp_to_fraction(mpmath.sin(x)), mp_to_fraction(mpmath.cos(x))


def assert_encloses(ints, g: int, sin_x: Fraction, cos_x: Fraction):
    slo, shi, clo, chi = (Fraction(v, 1 << g) for v in ints)
    assert slo <= sin_x <= shi and clo <= cos_x <= chi, (slo, shi, clo, chi)


@st.composite
def series_lanes(draw, g_max):
    """(ys, g): g in 12..g_max and |y| <= 0.9 2^g, with 0, +-1, the range
    ends and the largest reduced argument, pi/4 at 2^-g, and its
    neighbours."""
    g = draw(st.integers(12, g_max))
    top, quarter = (9 << g) // 10, exactreal._pi_fixed(g)[1] >> 2
    edges = [0, 1, -1, top, -top, quarter - 1, quarter, quarter + 1, -quarter]
    value = st.one_of(st.sampled_from(edges), st.integers(-top, top))
    return draw(st.lists(value, min_size=1, max_size=30)), g


def series_by_definition(y: int, g: int):
    """``_taylor_sincos``'s brackets written out on python ints, each term
    one floor division of t y^2 by 2^g (k+1)(k+2)."""
    one, yy, out = 1 << g, y * y >> g, []
    for t, k in ((y, 1), (one, 0)):
        s, terms = t, 0
        while t:
            t = -((t * yy) // (one * (k + 1) * (k + 2)))
            s, k, terms = s + t, k + 2, terms + 1
        E = max(64, 2 * terms + 2)
        out += [s - E, s + E]
    return tuple(out)


class TestSincosPiFixed:
    """The integer point kernel under ``sincos_pi``: exact reduction to
    |r| <= 1/4, one ``_reduced_sincos`` run at |r|, then the exact
    reflection and quadrant rotation."""

    @settings(max_examples=300)
    @given(angle=kernel_angles(), p=st.integers(8, 600))
    @example(angle=(0, 4), p=35)
    @example(angle=(1, 4), p=35)
    @example(angle=(-3, 4), p=35)
    @example(angle=(8, 4), p=8)
    @example(angle=(4 * 257 - 1, 4 * 257), p=45)
    def test_contains_mpmath(self, angle, p):
        # the angle and its reflections share one |r|, so all six reduce to
        # one ``_reduced_sincos`` key, under every sign and quadrant
        a, den = angle
        g, keys = kernel_bits(p), set()
        reduced = exactreal._reduced_sincos

        def recorded(u, rden, g):
            keys.add((u, rden))
            return reduced(u, rden, g)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactreal, "_reduced_sincos", recorded)
            for b in (a, -a, den - a, a + den, a + 2 * den, 2 * den - a):
                ints = sincos_pi_fixed(b, den, g)
                assert_encloses(ints, g, *sincos_oracle(b, den, p))
                assert ints[1] - ints[0] <= 1 << (g - p)
                assert ints[3] - ints[2] <= 1 << (g - p)
        assert len(keys) == 1

    def test_reduction_is_sound_under_a_tight_series(self, monkeypatch):
        # with 1-ulp brackets of the exact sin/cos at the kernel's rounded
        # argument in place of the Taylor series, only the widening by the
        # reduced argument's rounding of pi keeps the enclosures sound
        def tight(y, g):
            runs.append(y)
            with mpmath.workprec(g + 80):
                x = mpmath.mpf(y) / (1 << g)
                s, c = mpmath.sin(x) * (1 << g), mpmath.cos(x) * (1 << g)
                return (int(mpmath.floor(s)), int(mpmath.ceil(s)),
                        int(mpmath.floor(c)), int(mpmath.ceil(c)))

        runs = []
        monkeypatch.setattr(exactreal, "_taylor_sincos", tight)
        rng = random.Random(17)
        for _ in range(400):
            den = rng.randint(1, 1 << 12)
            a = rng.randint(-4 * den, 4 * den)
            assert_encloses(sincos_pi_fixed(a, den, 20), 20, *sincos_oracle(a, den, 20))
        # the point kernel reaches the stub once per call, on a python int
        assert len(runs) == 400 and all(type(y) is int for y in runs)

    @settings(max_examples=200, deadline=None)
    @given(case=series_lanes(58))
    @example(case=([0, 1, -1], 12))
    @example(case=([0, 1, -1, (exactreal._pi_fixed(58)[1] >> 2) + 1,
                    -((9 << 58) // 10), (9 << 58) // 10], 58))
    def test_array_series_equals_the_scalar_series(self, case):
        # every lane of the int64 series gives the python-int series'
        # brackets bit for bit, each with its own term count
        ys, g = case
        got = [v.tolist() for v in exactreal._taylor_sincos(np.array(ys, dtype=np.int64), g)]
        assert got == [list(b) for b in zip(*(exactreal._taylor_sincos(y, g) for y in ys))]

    @settings(max_examples=100, deadline=None)
    @given(case=series_lanes(700))
    @example(case=([(9 << 600) // 10, -((9 << 600) // 10), 1 << 590], 600))
    def test_series_is_its_definition(self, case):
        # the python-int series against the definition, each term one floor
        # division of t y^2 by 2^g (k+1)(k+2) and each bracket widened by
        # max(64, 2 terms + 2): at g = 600 the count sets the width
        ys, g = case
        for y in ys:
            assert exactreal._taylor_sincos(y, g) == series_by_definition(y, g), y
        slo, shi, _, _ = series_by_definition((9 << 600) // 10, 600)
        assert shi - slo > 2 * 64


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
            assert nests(prev, cur)
            prev = cur

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(-8, 2000))
    @example(p=0)
    @example(p=396)
    def test_integer_machin_contains_pi_and_nests(self, p):
        # the integer Machin series against mpmath at p + 80 bits: pi lies
        # inside, the width is at most 2^-p, and the p + 1 enclosure nests
        enc, finer = pi_enclosure(p), pi_enclosure(p + 1)
        with mpmath.workprec(max(p, 0) + 80):
            mid, pad = mp_to_fraction(mpmath.pi), Fraction(2) ** -(max(p, 0) + 70)
        lo, hi = mid - pad, mid + pad
        assert enc.lo.as_fraction() <= lo and hi <= enc.hi.as_fraction()
        assert enc.width().as_fraction() <= Fraction(2) ** -p
        assert nests(enc, finer)

    def test_pi_fixed_is_the_floor_and_its_successor(self):
        # every table reads (floor(pi 2^g), floor(pi 2^g) + 1); pi 2^g is
        # never an integer, so the pair is also the ceiling's
        with mpmath.workprec(480):
            floors = [int(mpmath.floor(mpmath.pi * mpmath.mpf(2) ** g)) for g in range(1, 401)]
        assert [exactreal._pi_fixed(g) for g in range(1, 401)] == [(f, f + 1) for f in floors]


def mp_dyadic(d: Dyadic):
    return mpmath.mpf(d.m) * mpmath.mpf(2) ** d.e


@st.composite
def unit_dyadics(draw):
    """Dyadics in [-1, 1]: +-1, 0, +-1/2 or a neighbour 2^-k away, or any
    dyadic with up to 70 fraction bits."""
    if draw(st.booleans()):
        t = Dyadic(draw(st.sampled_from([-2, -1, 0, 1, 2])), -1)
        t += Dyadic(draw(st.sampled_from([-1, 0, 1])), -draw(st.integers(1, 200)))
    else:
        k = draw(st.integers(0, 70))
        t = Dyadic(draw(st.integers(-(1 << k), 1 << k)), -k)
    return min(max(t, -exactreal.ONE), exactreal.ONE)


def exact_arcsin_fixed(x: int, g: int):
    """(floor, 1) of 2^g arcsin(x/2^g): the tightest bracket the kernel's
    contract allows."""
    with mpmath.workprec(g + 80):
        return int(mpmath.floor(mpmath.asin(mpmath.mpf(x) / (1 << g)) * (1 << g))), 1


class TestArccos:
    """``arccos_enclosure`` on ints: the arcsin series of ``_arcsin_fixed``
    behind three exact reductions, against mpmath."""

    @settings(max_examples=400, deadline=None)
    @given(a=unit_dyadics(), b=unit_dyadics(), point=st.booleans(),
           p=st.integers(1, 200))
    @example(a=Dyadic(1), b=Dyadic(1), point=True, p=1)
    @example(a=Dyadic(-1), b=Dyadic(-1), point=True, p=200)
    @example(a=Dyadic(0), b=Dyadic(0), point=True, p=48)
    @example(a=Dyadic(1, -1), b=Dyadic(1, -1), point=True, p=48)
    @example(a=Dyadic(-1, -1), b=Dyadic(-1, -1), point=True, p=48)
    @example(a=Dyadic(1) - Dyadic(1, -60), b=Dyadic(1), point=False, p=48)
    @example(a=Dyadic(-1, -1) - Dyadic(1, -1600), b=Dyadic(0), point=True, p=1500)
    def test_contains_mpmath_within_2_to_minus_p(self, a, b, point, p):
        lo, hi = (a, a) if point else (min(a, b), max(a, b))
        enc = arccos_enclosure(Interval(lo, hi), p)
        with mpmath.workprec(p + 200):
            top, bottom = (mp_to_fraction(mpmath.acos(mp_dyadic(d))) for d in (lo, hi))
        pad = Fraction(2) ** -(p + 150)
        assert enc.lo.as_fraction() <= bottom + pad and top - pad <= enc.hi.as_fraction()
        assert enc.width().as_fraction() <= top - bottom + Fraction(2) ** -p + pad

    @settings(max_examples=300, deadline=None)
    @given(g=st.integers(1, 400), frac=st.fractions(0, Fraction(1, 2)))
    @example(g=1, frac=Fraction(0))
    @example(g=12, frac=Fraction(0))
    @example(g=12, frac=Fraction(1, 2))
    @example(g=58, frac=Fraction(1, 2))
    @example(g=400, frac=Fraction(1, 2))
    def test_arcsin_fixed_brackets_mpmath(self, g, frac):
        # s <= 2^g arcsin(x/2^g) < s + e for every x up to 2^(g-1)
        x = int(frac * (1 << g))
        s, e = exactreal._arcsin_fixed(x, g)
        with mpmath.workprec(g + 100):
            true = mp_to_fraction(mpmath.asin(mpmath.mpf(x) / (1 << g)) * (1 << g))
        assert s <= true < s + e
        assert e <= g + 3

    def test_reductions_are_sound_under_a_tight_series(self, monkeypatch):
        # with the tightest bracket the arcsin contract allows in place of
        # the series, only the reductions' own allowances (the slope ulp,
        # the isqrt floor, pi's ends) keep the enclosures sound
        monkeypatch.setattr(exactreal, "_arcsin_fixed", exact_arcsin_fixed)
        rng = random.Random(23)
        for _ in range(3000):
            g = rng.randint(2, 24)
            k = rng.randint(0, g + 12)
            t = Dyadic(rng.randint(-(1 << k), 1 << k), -k)
            lo, hi = exactreal._arccos_fixed(t, g)
            with mpmath.workprec(g + 80):
                true = mp_to_fraction(mpmath.acos(mp_dyadic(t)) * (1 << g))
            assert lo <= true <= hi, (t, g)

    def test_no_fraction_in_arccos(self, monkeypatch):
        # arccos runs on ints: building a Fraction anywhere in it fails
        def refuse(*args, **kwargs):
            raise AssertionError("Fraction built in arccos")

        monkeypatch.setattr(exactreal, "Fraction", refuse)
        arccos_enclosure(Interval(Dyadic(-3, -2), Dyadic(7, -3)), 100)


class TestCertifiedValue:
    def test_certified_interval(self):
        cv = CertifiedValue(Dyadic(1, -1), -3)
        iv = cv.as_interval()
        assert iv.lo == Dyadic(3, -3) and iv.hi == Dyadic(5, -3)

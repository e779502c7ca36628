"""Quadrature on the classical groups against closed-form Haar expectations.

The closed forms were confirmed with an independent Monte-Carlo / Gauss
quadrature oracle before the build: E|w| = 4/(3 pi) per coordinate on S^3
(so abs-sum integrates to 16/(3 pi)), E[w^2] = 1/4, E[sqrt(w^2+x^2)] = 2/3
(w^2 + x^2 is uniform on [0,1]), trace over SO(3) integrates to 0 by
character theory, and the lift law is the 2/3 factor from radius-phase
independence on S^3.
"""

import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from haar import _grid, exactreal, quadrature
from haar.exactreal import ConfigError, Dyadic, Interval, NoConvergence
from haar.functions import (
    builtin_integrand, invert_circle_integrand, invert_su2_integrand,
    translate_circle_integrand, translate_su2_integrand,
)
from haar.groups import Versor, circle_metric, circle_normalize, make_group
from haar.quadrature import (
    IntegrandSpec, InvalidBound, haar_integral_circle, haar_integral_derived,
    haar_integral_su2, lift_circle_function,
)

mpmath.mp.prec = 120


def mp_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


TRUE_VALUES = {
    "abs-sum": mp_fraction(16 / (3 * mpmath.pi)),
    "w2": Fraction(1, 4),
    "one": Fraction(1),
    "trace": Fraction(0),
    "sign": Fraction(0),
    "re": Fraction(0),
    "im": Fraction(0),
    "re2": Fraction(1, 2),
    "abs-re": mp_fraction(2 / mpmath.pi),
}

LIFT_TRUE = {name: Fraction(2, 3) * TRUE_VALUES[name]
             for name in ("one", "re", "re2", "im", "abs-re")}


def check(cv, true: Fraction, n: int):
    assert abs(cv.value.as_fraction() - true) <= Fraction(1, 1 << n), \
        (float(cv.value), float(true))


class TestCircleIntegrals:
    @pytest.mark.parametrize("name", ["one", "re", "re2", "im", "abs-re"])
    def test_closed_forms(self, name):
        spec = builtin_integrand(name, "circle")
        cv = haar_integral_circle(spec, 8)
        check(cv, TRUE_VALUES[name], 8)

    def test_normalization_sweep(self):
        spec = builtin_integrand("one", "circle")
        for n in range(1, 13):
            check(haar_integral_circle(spec, n), Fraction(1), n)

    @pytest.mark.parametrize("L", [Fraction(0), Fraction(1, 3), Fraction(1),
                                   Fraction(7, 4), Fraction(13, 2), Fraction(15, 2)])
    def test_midpoints_are_the_least_rule_in_budget(self, L):
        # the circle rule and U(2)'s outer rule: N = 2^k midpoints, N the
        # least power of two whose Lipschitz term L/(4N) fits 2^-(n+1)
        for n in range(0, 9):
            budget = Fraction(1, 1 << (n + 1))
            ts = [t.as_fraction() for t in quadrature._midpoints(L, n, 1 << 12)]
            N = len(ts)
            assert N & (N - 1) == 0 and L / (4 * N) <= budget, (L, n)
            assert N == 1 or L / (2 * N) > budget, (L, n)
            assert ts == [Fraction(2 * j + 1, 2 * N) for j in range(N)]

    def test_midpoints_past_the_cap_are_refused(self):
        with pytest.raises(NoConvergence, match="N = 2048 .* cap of 1024"):
            quadrature._midpoints(Fraction(13, 2), 9, 1 << 10)


# the circle builtins at (cos 2 pi t, sin 2 pi t), in mpmath
MP_CIRCLE = {
    "one": lambda c, s: mpmath.mpf(1),
    "re": lambda c, s: c,
    "re2": lambda c, s: c * c,
    "im": lambda c, s: s,
    "abs-re": lambda c, s: abs(c),
}


def circle_variants(name, seed):
    """(spec, t -> its argument of the base function): the builtin, two
    seeded dyadic translates, the inverse, a translate of a translate, and
    a translate and the inverse composed in both orders."""
    base = builtin_integrand(name, "circle")
    rng = random.Random(seed)
    g, h = (Fraction(rng.randint(1, 1023), 1024) for _ in range(2))

    def move(spec, x):
        return translate_circle_integrand(spec, Dyadic(x.numerator, -10))

    inv = invert_circle_integrand
    return [(base, lambda t: t), (inv(base), lambda t: -t),
            (move(base, g), lambda t: t + g), (move(base, h), lambda t: t + h),
            (move(move(base, g), h), lambda t: t + g + h),
            (inv(move(base, g)), lambda t: g - t),
            (move(inv(base), h), lambda t: -(t + h))]


class TestCircleRule:
    """The midpoint rule on the phi table: containment of the exact midpoint
    sum, the rotation of translates, the series lanes and the refusals."""

    @pytest.mark.parametrize("name", list(MP_CIRCLE))
    def test_sums_contain_the_midpoint_sum(self, name):
        slack = Fraction(1, 1 << 150)       # far below one ulp at 2^-SCALE
        for spec, arg in circle_variants(name, 83):
            for N in (1, 2, 8, 1024):
                lo, hi = quadrature._circle_sums(spec, N)
                with mpmath.workdps(60):
                    xs = (2 * mpmath.pi * mpmath.mpf(q.numerator) / q.denominator
                          for q in (arg(Fraction(2 * j + 1, 2 * N)) for j in range(N)))
                    total = mpmath.fsum(MP_CIRCLE[name](mpmath.cos(x), mpmath.sin(x))
                                        for x in xs)
                    exact = mp_fraction(total)
                assert Fraction(lo, 1 << _grid.SCALE) <= exact + slack, (spec.name, N)
                assert exact - slack <= Fraction(hi, 1 << _grid.SCALE), (spec.name, N)

    def test_rotated_table_contains_the_moved_point(self):
        # a translate's complex_fixed reads rows 0-1 of its pre-map applied
        # to (cos, sin), as the circle rule folds them into its table
        N = 1024
        sin, cos, _ = _grid._build_axis("phi", N).fixed(_grid.SCALE)
        rng = random.Random(84)
        for num in [0, 256, 512, 384] + [rng.randint(1, 1023) for _ in range(4)]:
            g = Dyadic(num, -10)
            moved = []
            for name in ("re", "im"):
                spec = translate_circle_integrand(builtin_integrand(name, "circle"), g)
                x = (_grid._combine(row[:2], (cos, sin)) for row in spec.premap[:2])
                moved.append(spec.complex_fixed(*x, _grid.SCALE))
            with mpmath.workdps(60):
                for j in range(N):
                    x = 2 * mpmath.pi * (mpmath.mpf(2 * j + 1) / (2 * N)
                                         + mpmath.mpf(num) / 1024)
                    for (lo, hi), v in zip(moved, (mpmath.cos(x), mpmath.sin(x))):
                        v = mp_fraction(v) * (1 << _grid.SCALE)
                        assert int(lo[j]) <= v <= int(hi[j]), (num, j)

    def test_one_taylor_run_per_distinct_angle(self, monkeypatch):
        runs = []
        taylor = exactreal._taylor_sincos

        def counted(y, g):
            runs.extend(np.ravel(y).tolist())
            return taylor(y, g)

        monkeypatch.setattr(exactreal, "_taylor_sincos", counted)
        for name in ("re2", "abs-re"):
            for spec, _ in circle_variants(name, 85):
                for n in (0, 2, 5, 8):
                    N = quadrature._rule_size(spec.lipschitz.as_fraction(), n, 1 << 22)
                    runs.clear()
                    cv = haar_integral_circle(spec, n)
                    assert len(runs) <= N // 8 + 2, (spec.name, n, len(runs))
                    check(cv, TRUE_VALUES[name], n)

    def test_blocks_give_the_whole_table_sums(self, monkeypatch):
        # the symmetric blocks cover each midpoint once, sum bit for bit to
        # the one-block sums, and still take one series lane per angle
        for N in (8, 64, 1024):
            for block in (8, 16, 64):
                a = np.concatenate(list(quadrature._circle_blocks(N, block)))
                assert sorted(a.tolist()) == list(range(1, 2 * N, 2)), (N, block)
                assert all(len(b) <= block for b in quadrature._circle_blocks(N, block))
        runs = []
        taylor = exactreal._taylor_sincos
        monkeypatch.setattr(exactreal, "_taylor_sincos",
                            lambda y, g: runs.extend(np.ravel(y).tolist()) or taylor(y, g))
        for name in ("re2", "abs-re"):
            for spec, _ in circle_variants(name, 86):
                whole = quadrature._circle_sums(spec, 1024)
                runs.clear()
                with monkeypatch.context() as m:
                    m.setattr(quadrature, "CIRCLE_BLOCK", 16)
                    assert quadrature._circle_sums(spec, 1024) == whole
                assert len(runs) <= 1024 // 8 + 2, (spec.name, len(runs))

    def test_eval_only_spec_is_refused(self):
        base = builtin_integrand("re", "circle")
        plain = IntegrandSpec(base.eval, base.lipschitz, base.bound, name="plain")
        with pytest.raises(ConfigError, match="complex_fixed"):
            haar_integral_circle(plain, 4)

    def test_premap_entries_past_two_are_refused(self):
        base = builtin_integrand("re", "circle")
        wide = ((3 << _grid.SCALE,) * 2, (0, 0), (0, 0), (0, 0))
        spec = IntegrandSpec(base.eval, base.lipschitz, base.bound, name="wide",
                             complex_fixed=base.complex_fixed,
                             premap=(wide,) + _grid.IDENTITY_PREMAP[1:])
        with pytest.raises(NoConvergence, match="pre-map entries past 2"):
            haar_integral_circle(spec, 4)

    def test_false_bound_is_refused(self):
        base = builtin_integrand("re", "circle")

        def times4(re, im, scale):
            return 4 * re[0], 4 * re[1]

        cheat = IntegrandSpec(base.eval, base.lipschitz, Dyadic(1), name="cheat",
                              complex_fixed=times4)
        for n in (2, 8):
            with pytest.raises(InvalidBound):
                haar_integral_circle(cheat, n)


class TestCircleConstants:
    """Try to falsify the declared circle constants: for nearby dyadic t, t',
    the lower end of |f(t) - f(t')| must not pass L d(t, t'), d the circle
    distance, nor the lower end of |f(t)| the bound."""

    @given(name=st.sampled_from(list(MP_CIRCLE)),
           wrap=st.sampled_from(["plain", "translate", "invert"]),
           g=st.integers(0, (1 << 12) - 1), t=st.integers(0, (1 << 24) - 1),
           dt=st.integers(-(1 << 14), 1 << 14))
    def test_lipschitz_and_bound_hold(self, name, wrap, g, t, dt):
        spec = builtin_integrand(name, "circle")
        if wrap == "translate":
            spec = translate_circle_integrand(spec, Dyadic(g, -12))
        elif wrap == "invert":
            spec = invert_circle_integrand(spec)
        x, y = Dyadic(t, -24), circle_normalize(Dyadic(t + dt, -24))
        fx, fy = spec.eval(x, 80), spec.eval(y, 80)
        assert spec.lipschitz == (Dyadic(0) if name == "one" else Dyadic(13, -1))
        assert (fx - fy).abs().lo <= spec.lipschitz * circle_metric(x, y).hi
        assert fx.abs().lo <= spec.bound and fy.abs().lo <= spec.bound


def s3_point(p) -> Versor:
    """The rational point of S^3 over the rational triple p (inverse
    stereographic projection), each component enclosed to 2^-80."""
    s = sum(c * c for c in p)
    comps = [(1 - s) / (1 + s)] + [2 * c / (1 + s) for c in p]
    return Versor(*(Interval.from_fractions(c, c, 80) for c in comps))


def s3_pair(p, dp):
    """Two nearby rational points of S^3: over p/8 and over p/8 + dp/1024."""
    return (s3_point([Fraction(c, 8) for c in p]),
            s3_point([Fraction(c, 8) + Fraction(d, 1024) for c, d in zip(p, dp)]))


# (group kind, builtin): each is checked under its group's metric, the one
# the grid's discretization bound assumes (trace under ``so3_metric``)
SU2_CONSTANT_CASES = [("su2", name) for name in (
    "abs-sum", "w2", "lift:one", "lift:re", "lift:re2", "lift:im", "lift:abs-re")] \
    + [("so3", "trace")]


class TestSU2Constants:
    """Try to falsify the declared SU(2)-family constants: for nearby exact
    rational points x, y of S^3, the lower end of |f(x) - f(y)| must not pass
    L d(x, y), d the group's metric, nor the lower end of |f(x)| the bound;
    on the builtin and behind a left or right translate by the rational
    versor over g/8, or the inversion."""

    @given(case=st.sampled_from(SU2_CONSTANT_CASES),
           wrap=st.sampled_from(["plain", "left", "right", "invert"]),
           g=st.tuples(*[st.integers(-32, 32)] * 3),
           p=st.tuples(*[st.integers(-32, 32)] * 3),
           dp=st.tuples(*[st.integers(-16, 16)] * 3))
    @example(case=("su2", "abs-sum"), wrap="plain", g=(0, 0, 0), p=(0, 0, 0),
             dp=(16, 16, 16))
    def test_lipschitz_and_bound_hold(self, case, wrap, g, p, dp):
        kind, name = case
        G = make_group(kind)
        spec = builtin_integrand(name, kind)
        if wrap == "invert":
            spec = invert_su2_integrand(spec)
        elif wrap != "plain":
            spec = translate_su2_integrand(
                spec, s3_point([Fraction(c, 8) for c in g]), G, wrap)
        x, y = s3_pair(p, dp)
        fx, fy = spec.eval(x, 80), spec.eval(y, 80)
        assert (fx - fy).abs().lo <= spec.lipschitz * G.metric(x, y, 80).hi
        assert fx.abs().lo <= spec.bound and fy.abs().lo <= spec.bound

    def test_the_abs_sum_example_refuses_three_halves(self):
        # the example above, 1 + (1/64)(1, 1, 1) seen from 1, has ratio about
        # 1.70 (the supremum is sqrt 3, near the +-1 axes), so it would
        # falsify a declared L = 3/2 for abs-sum
        spec = builtin_integrand("abs-sum", "su2")
        x, y = s3_pair((0, 0, 0), (16, 16, 16))
        gap = (spec.eval(x, 80) - spec.eval(y, 80)).abs().lo
        assert gap > Dyadic(3, -1) * make_group("su2").metric(x, y, 80).hi


class TestSU2Integrals:
    @pytest.mark.parametrize("name", ["one", "abs-sum", "w2"])
    def test_closed_forms(self, name):
        spec = builtin_integrand(name, "su2")
        cv = haar_integral_su2(spec, 6)
        check(cv, TRUE_VALUES[name], 6)

    @pytest.mark.parametrize("kind", ["su2", "so3", "o3", "u2"])
    @pytest.mark.usefixtures("empty_grid_cache")
    def test_eval_only_spec_is_refused(self, kind, monkeypatch):
        # the grid reads fixed_eval (or a form) only: a spec with an interval
        # eval alone is refused by name, before any axis table is built
        def no_grid(*args):
            raise AssertionError("grid built for a refused integral")

        monkeypatch.setattr(_grid, "_build_axis", no_grid)
        base = builtin_integrand("abs-sum", "su2")
        plain = IntegrandSpec(base.eval, base.lipschitz, base.bound, name="plain")
        with pytest.raises(ConfigError, match="fixed_eval, which '(mean:)?plain'"):
            haar_integral_derived(kind, plain, 4)

    def test_normalization_sweep(self):
        spec = builtin_integrand("one", "su2")
        for n in range(1, 13):
            check(haar_integral_su2(spec, n), Fraction(1), n)

    def test_normalization_sweep_derived(self):
        for kind in ("so3", "o3", "u2"):
            spec = builtin_integrand("one", kind)
            for n in range(1, 13):
                check(haar_integral_derived(kind, spec, n), Fraction(1), n)

    def test_invalid_bound_detected(self):
        base = builtin_integrand("abs-sum", "su2")

        def bad_fixed(a, b, c, d, scale, **kw):
            lo, hi = base.fixed_eval(a, b, c, d, scale)
            return lo * 4, hi * 4

        cheat = IntegrandSpec(lambda q, wp: base.eval(q, wp).scale(Dyadic(4)),
                              base.lipschitz.scale2(2), Dyadic(2),
                              name="cheat", fixed_eval=bad_fixed, uses="abcd")
        with pytest.raises(InvalidBound):
            haar_integral_su2(cheat, 4)

    # |w| + |x| + 4 (|y| + |z|): its phi mean near the equator is about
    # 1 + 4 (8 / pi) sin(eta) sin(theta) > 2 + 1
    CHEAT_FORM = (0, ((0, "abs", 1), (1, "abs", 1), (2, "abs", 4), (3, "abs", 4)))

    def test_invalid_bound_detected_on_the_component_form(self):
        cheat = IntegrandSpec(None, Dyadic(7), Dyadic(2), name="cheat",
                              form=self.CHEAT_FORM)
        with pytest.raises(InvalidBound):
            haar_integral_su2(cheat, 4)

    def test_invalid_bound_detected_after_a_translation(self):
        from test_groups import rand_versor
        cheat = IntegrandSpec(None, Dyadic(7), Dyadic(2), name="cheat",
                              form=self.CHEAT_FORM)
        g = rand_versor(random.Random(3))
        moved = translate_su2_integrand(cheat, g, make_group("su2"), "left")
        with pytest.raises(InvalidBound):
            haar_integral_su2(moved, 4)

    @pytest.mark.parametrize("base, g", [
        ((-(1 << 30), 1 << 30), (0, 0)),      # 4 A = 4 [-2, 2] cos(eta): too wide
        ((0, 0), (-(1 << 30), 1 << 30)),      # 4 s P = 4 s [-2, 2] cos(phi): too wide
        ((0, 0), (-(1 << 40), 1 << 40)),      # a pre-map entry past int64 headroom
    ])
    def test_polar_enclosure_wider_than_bound_refused(self, base, g):
        # 4 (M x)_0 + 4 (M x)_2 with M_00 = base, M_22 = g and bound 1: the
        # phi mean of each (eta, theta) cell straddles the bound, or the
        # pre-map is refused outright
        zero = (0, 0)
        premap = ((base, zero, zero, zero), (zero,) * 4, (zero, zero, g, zero),
                  (zero,) * 4)
        spec = IntegrandSpec(None, Dyadic(1), Dyadic(1), name="wide",
                             form=(0, ((0, "id", 4), (2, "id", 4))), premap=premap)
        with pytest.raises(NoConvergence, match="headroom"):
            haar_integral_su2(spec, 4)

    @pytest.mark.parametrize("row, coef, match", [
        # 2^12 s P, P = [-2, 2] cos(phi): the folded phi table's mean is past
        # 16, so its products with s could leave int64
        (((0, 0), (0, 0), (-(1 << 30), 1 << 30), (0, 0)), 1 << 12,
         "phi mean of 16 .* headroom"),
        (_grid.IDENTITY_PREMAP[0], 1 << 16, "2\\^16 or more.* headroom"),
    ])
    def test_form_past_int64_headroom_refused(self, row, coef, match):
        premap = (row,) + ((((0, 0),) * 4),) * 3
        spec = IntegrandSpec(None, Dyadic(1), Dyadic(1), name="wide",
                             form=(0, ((0, "id", coef),)), premap=premap)
        with pytest.raises(NoConvergence, match=match):
            haar_integral_su2(spec, 4)

    def test_translated_abs_sum_at_nine_bits(self):
        # n3 = 3217 phi cells: s times an undivided prefix sum would pass
        # 2^70, so this certifies through the pre-divided sums
        from test_groups import rand_versor
        g = rand_versor(random.Random(9))
        spec = translate_su2_integrand(builtin_integrand("abs-sum", "su2"), g,
                                       make_group("su2"), "left")
        check(haar_integral_su2(spec, 9), TRUE_VALUES["abs-sum"], 9)

    def test_translated_abs_sum_at_seven_bits_is_fast(self):
        # eta x theta cells: about 0.2 s on a 2-core VM (15.75 s when the
        # translate swept eta x theta x phi)
        from test_groups import rand_versor
        g = rand_versor(random.Random(7))
        spec = translate_su2_integrand(builtin_integrand("abs-sum", "su2"), g,
                                       make_group("su2"), "right")
        t0 = time.perf_counter()
        check(haar_integral_su2(spec, 7), TRUE_VALUES["abs-sum"], 7)
        assert time.perf_counter() - t0 < 1.0

    def test_effort_cap(self):
        spec = builtin_integrand("abs-sum", "su2")
        with pytest.raises(NoConvergence):
            haar_integral_su2(spec, 8, max_cells=1000)

    def test_effort_cap_counts_the_swept_cells(self):
        # a component form sweeps eta x theta only: 306 x 259 cells at n = 6
        # fit a cap of 10^5 that the 3-D grid (x 403 phi cells) does not
        spec = builtin_integrand("abs-sum", "su2")
        check(haar_integral_su2(spec, 6, max_cells=10 ** 5), TRUE_VALUES["abs-sum"], 6)
        no_form = IntegrandSpec(spec.eval, spec.lipschitz, spec.bound,
                                fixed_eval=spec.fixed_eval, uses=spec.uses)
        with pytest.raises(NoConvergence, match="cap of 100000$"):
            haar_integral_su2(no_form, 6, max_cells=10 ** 5)

    @staticmethod
    def constant_spec(c, bound, form, uses="abcd"):
        """The constant c through a ``fixed_eval``, or as a component form
        with no terms (whose ``fixed_eval`` is derived from it)."""
        def fixed(a, b, cc, d, scale, **kw):
            return c << scale, c << scale

        return IntegrandSpec(lambda q, wp: Interval.from_int(c), Dyadic(0),
                             Dyadic(bound), name=f"const{c}",
                             fixed_eval=None if form else fixed,
                             form=(c, ()) if form else None, uses=uses)

    @pytest.mark.parametrize("uses", ["a", "abcd"])
    @pytest.mark.parametrize("form", [False, True])
    @pytest.mark.parametrize("c", [64, 1000])
    def test_bound_past_int64_headroom_refused(self, c, form, uses):
        # the sweep's int64 sums would wrap for bounds past about 30 (64
        # used to give -0.000122 and 1000 gave -24.0): refuse, never answer,
        # on the per-phi sweep and on the component form's phi means alike
        spec = self.constant_spec(c, c, form, uses)
        with pytest.raises(NoConvergence, match="int64 cap"):
            haar_integral_su2(spec, 4)

    @pytest.mark.parametrize("form", [False, True])
    def test_largest_bound_in_headroom(self, form):
        check(haar_integral_su2(self.constant_spec(30, 30, form), 4),
              Fraction(30), 4)
        with pytest.raises(NoConvergence, match="int64 cap"):
            haar_integral_su2(self.constant_spec(1, 31, form), 4)

    def test_enclosure_wider_than_bound_refused(self):
        def wide(a, b, c, d, scale, **kw):
            return -(1 << 61), 1 << 61

        spec = IntegrandSpec(lambda q, wp: Interval.from_int(0), Dyadic(0),
                             Dyadic(1), name="wide", fixed_eval=wide)
        with pytest.raises(NoConvergence, match="headroom"):
            haar_integral_su2(spec, 4)


class TestDerivedIntegrals:
    def test_so3(self):
        check(haar_integral_derived("so3", builtin_integrand("one", "so3"), 8),
              Fraction(1), 8)
        check(haar_integral_derived("so3", builtin_integrand("trace", "so3"), 6),
              Fraction(0), 6)

    def test_o3(self):
        # one SU(2) integral of the mean over both signs, certified at n
        for n in range(4, 11):
            for name in ("one", "sign"):
                check(haar_integral_derived("o3", builtin_integrand(name, "o3"), n),
                      TRUE_VALUES[name], n)

    def test_u2(self):
        check(haar_integral_derived("u2", builtin_integrand("one", "u2"), 10),
              Fraction(1), 10)

    @staticmethod
    def cos2pi():
        """cos 2 pi t: the circle builtin ``re``, whose ``eval`` encloses it
        at t, and its outward int pair at 2^-scale from ``sincos_pi_fixed``."""
        def fixed(t, scale):
            q, g = 2 * t.as_fraction(), exactreal.kernel_bits(scale)
            _, _, clo, chi = exactreal.sincos_pi_fixed(q.numerator, q.denominator, g)
            return clo >> (g - scale), -(-chi >> (g - scale))

        return builtin_integrand("re", "circle"), fixed

    @classmethod
    def re_factor_spec(cls):
        # f((q, t)) = cos(2 pi t): integrates to 0 over the U(1) factor
        base, cos2pi_fixed = cls.cos2pi()

        def ev(element, wp):
            _q, t = element
            return base.eval(t, wp)

        def fixed(a, b, c, d, scale, circle_point):
            return cos2pi_fixed(circle_point, scale)

        return IntegrandSpec(ev, base.lipschitz, base.bound, name="re-factor",
                             fixed_eval=fixed, uses="a")

    @classmethod
    def mixed_spec(cls):
        # f((q, t)) = w^2 * cos(2 pi t): product of independent factors -> 0
        w2 = builtin_integrand("w2", "su2")
        re, cos2pi_fixed = cls.cos2pi()

        def ev(element, wp):
            q, t = element
            return (w2.eval(q, wp) * re.eval(t, wp)).round_out(wp)

        def fixed(a, b, c, d, scale, circle_point):
            return _grid.fp_mul(w2.fixed_eval(a, b, c, d, scale),
                                cos2pi_fixed(circle_point, scale), scale)

        # slope bound: |d(fg)| <= |f||dg| + |g||df| <= 1*13/2 + 1*1
        return IntegrandSpec(ev, Dyadic(15, -1), Dyadic(1), name="w2*re",
                             fixed_eval=fixed, uses="a")

    @pytest.mark.parametrize("name", ["re-factor", "w2*re"])
    def test_u2_fixed_form_agrees_with_the_interval_oracle(self, name):
        # each averaged test integrand's fixed path and its interval eval,
        # swept cell by cell, enclose the mpmath Riemann sum of their own
        # grid; the tags are not symmetric, so the mean of cos 2 pi t is not 0
        from test_grid import grid_axes, mp_riemann_sum
        spec = {"re-factor": self.re_factor_spec, "w2*re": self.mixed_spec}[name]()
        ts = (Dyadic(1, -4), Dyadic(3, -3))
        avg = quadrature._average(spec, ts, "circle_point")
        with mpmath.workdps(60):
            mean = mpmath.fsum(mpmath.cos(2 * mpmath.pi * mpmath.ldexp(t.m, t.e))
                               for t in ts) / len(ts)

        def mp_f(a, b, c, d):
            return (a * a if name == "w2*re" else 1) * mean

        for ns in [(1, None, None), (3, None, None), (5, None, None)]:
            exact = mp_riemann_sum(mp_f, ns)
            axes = grid_axes(ns)
            for sweep in (_grid._fixed_sweep, _grid._scalar_sweep):
                enc = sweep(avg, *axes)
                assert enc.lo.as_fraction() <= exact <= enc.hi.as_fraction(), (sweep, ns)
                assert enc.width().as_fraction() < Fraction(1, 1 << 10), (sweep, ns)

    def test_u2_nontrivial_factor_function(self):
        for n in range(3, 7):
            check(haar_integral_derived("u2", self.re_factor_spec(), n),
                  Fraction(0), n)

    def test_u2_mixed_product_function(self):
        for n in range(3, 7):
            check(haar_integral_derived("u2", self.mixed_spec(), n),
                  Fraction(0), n)

    @pytest.mark.parametrize("kind, name, n, live", [
        ("o3", "sign", 8, 1), ("o3", "abs-sum", 4, 3),
        ("u2", "re-factor", 4, 1), ("u2", "w2*re", 3, 1)])
    @pytest.mark.usefixtures("empty_grid_cache")
    def test_one_su2_integral_per_derived_group(self, kind, name, n, live,
                                                monkeypatch):
        # the second factor is averaged inside one sweep: one SU(2) integral
        # and one table per live axis per grid attempt, not one per tag
        spec = {"sign": lambda: builtin_integrand("sign", "o3"),
                "abs-sum": lambda: builtin_integrand("abs-sum", "su2"),
                "re-factor": self.re_factor_spec, "w2*re": self.mixed_spec}[name]()
        counts = {"su2": 0, "axis": 0, "attempt": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(quadrature, "haar_integral_su2",
                            counted("su2", quadrature.haar_integral_su2))
        monkeypatch.setattr(_grid, "_build_axis",
                            counted("axis", _grid._build_axis))
        monkeypatch.setattr(_grid, "_disc_bound",
                            counted("attempt", _grid._disc_bound))
        check(haar_integral_derived(kind, spec, n), TRUE_VALUES.get(name, Fraction(0)), n)
        assert counts["su2"] == 1
        assert counts["attempt"] >= 1
        assert counts["axis"] == live * counts["attempt"]

    def test_mean_that_would_wrap_int64_is_refused(self):
        # two int64 enclosures near 2^63 sum past it and would wrap to a
        # mean near 0, inside the declared bound: refused before the sum
        def fixed(a, b, c, d, scale, sign_index=0, **kw):
            v = np.zeros_like(a[0]) + ((1 << 63) - 2)
            return v, v

        spec = IntegrandSpec(lambda e, wp: Interval.from_int(0), Dyadic(0),
                             Dyadic(1), name="huge", fixed_eval=fixed, uses="a")
        with pytest.raises(NoConvergence, match="wrap int64"):
            haar_integral_derived("o3", spec, 4)

    @pytest.mark.usefixtures("empty_grid_cache")
    def test_u2_outer_rule_refused_before_any_sweep(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("grid built for a refused integral")

        monkeypatch.setattr(_grid, "_build_axis", no_grid)
        spec = IntegrandSpec(lambda e, wp: Interval.from_int(0), Dyadic(1, 20),
                             Dyadic(1), name="steep", uses="a")
        # L/(4N) <= 2^-5 needs N >= 2^20 * 2^3 outer points
        with pytest.raises(NoConvergence, match=r"N = 8388608 .* cap of 4096"):
            haar_integral_derived("u2", spec, 4)

    def test_double_cover_consistency(self):
        # SO(3) integration is SU(2) integration of the pulled-back function
        # in this representation; check the two entry points agree on five
        # builtins that are even in q (hence well-defined on the quotient)
        specs = [builtin_integrand("one", "so3"),
                 builtin_integrand("trace", "so3"),
                 builtin_integrand("w2", "su2"),
                 builtin_integrand("abs-sum", "su2"),
                 builtin_integrand("lift:re2", "su2")]
        for spec in specs:
            v1 = haar_integral_derived("so3", spec, 5)
            v2 = haar_integral_su2(spec, 5)
            assert abs(v1.value.as_fraction() - v2.value.as_fraction()) \
                <= 2 * Fraction(1, 32)


class TestLift:
    @pytest.mark.parametrize("name", ["one", "re", "re2", "im", "abs-re"])
    def test_lift_law(self, name):
        """Acceptance criterion 9: int lift(f) = (2/3) int f within the
        combined certificates at n = 6."""
        lifted = builtin_integrand(f"lift:{name}", "su2")
        v_lift = haar_integral_su2(lifted, 6)
        v_circ = haar_integral_circle(builtin_integrand(name, "circle"), 6)
        combined = Fraction(1, 64) + Fraction(2, 3) * Fraction(1, 64)
        assert abs(v_lift.value.as_fraction()
                   - Fraction(2, 3) * v_circ.value.as_fraction()) <= combined
        check(v_lift, LIFT_TRUE[name], 6)

    def test_lift_re_is_projection(self):
        # lift(re)(q) = w: its integral vanishes by symmetry
        lifted = builtin_integrand("lift:re", "su2")
        check(haar_integral_su2(lifted, 7), Fraction(0), 7)

    def test_lift_requires_complex_form(self):
        # the lift reads both complex forms: either one alone is refused
        re = builtin_integrand("re", "circle")
        for forms in ({}, {"eval_complex": re.eval_complex},
                      {"complex_fixed": re.complex_fixed}):
            plain = IntegrandSpec(re.eval, re.lipschitz, re.bound, **forms)
            with pytest.raises(ValueError, match="eval_complex and complex_fixed"):
                lift_circle_function(plain)

    def test_lift_refuses_a_premap(self):
        # the lift reads (a, b) itself, so it would drop a translate's or
        # the inverse's pre-map
        re = builtin_integrand("re", "circle")
        for moved in (translate_circle_integrand(re, Dyadic(1, -3)),
                      invert_circle_integrand(re)):
            spec = IntegrandSpec(re.eval, re.lipschitz, re.bound,
                                 eval_complex=re.eval_complex,
                                 complex_fixed=re.complex_fixed, premap=moved.premap)
            with pytest.raises(ValueError, match="no pre-map"):
                lift_circle_function(spec)

    def test_scalar_eval_near_zero_radius(self):
        lifted = builtin_integrand("lift:one", "su2")
        q = Versor.exact(Dyadic(0), Dyadic(0), Dyadic(1), Dyadic(0))  # j
        enc = lifted.eval(q, 30)
        assert enc.contains(Fraction(0))
        q2 = Versor.exact(Dyadic(1), Dyadic(0), Dyadic(0), Dyadic(0))
        enc2 = lifted.eval(q2, 30)
        assert enc2.contains(Fraction(1))


class TestInvariance:
    """Acceptance criterion 8 shape: translations and inversion at n = 6."""

    def test_su2_translations(self):
        rng = random.Random(61)
        spec = builtin_integrand("abs-sum", "su2")
        G = make_group("su2")
        base = haar_integral_su2(spec, 6)
        tol = 2 * Fraction(1, 64)
        from test_groups import rand_versor
        for _ in range(3):
            g = rand_versor(rng)
            for side in ("left", "right"):
                moved = translate_su2_integrand(spec, g, G, side)
                v = haar_integral_su2(moved, 6)
                assert abs(v.value.as_fraction() - base.value.as_fraction()) <= tol

    @pytest.mark.parametrize("name, kind", [("w2", "su2"), ("trace", "so3")])
    def test_moved_square_forms_certify(self, name, kind):
        # translated and inverted w2 on SU(2) and trace on SO(3) through the
        # square kernel, each within 2^-n of its closed form
        from test_groups import rand_versor
        spec = builtin_integrand(name, kind)
        G = make_group("su2")
        g = rand_versor(random.Random(71))
        moved = [translate_su2_integrand(spec, g, G, side) for side in ("left", "right")]
        moved.append(invert_su2_integrand(spec))
        for n in range(2, 8):
            for m in moved:
                check(haar_integral_derived(kind, m, n), TRUE_VALUES[name], n)

    def test_su2_inversion(self):
        spec = builtin_integrand("abs-sum", "su2")
        base = haar_integral_su2(spec, 6)
        v = haar_integral_su2(invert_su2_integrand(spec), 6)
        assert abs(v.value.as_fraction() - base.value.as_fraction()) \
            <= 2 * Fraction(1, 64)

    def test_circle_translations(self):
        rng = random.Random(62)
        for name in ("re2", "abs-re"):
            spec = builtin_integrand(name, "circle")
            base = haar_integral_circle(spec, 8)
            for _ in range(5):
                g = Dyadic(rng.randint(0, 1023), -10)
                v = haar_integral_circle(translate_circle_integrand(spec, g), 8)
                assert abs(v.value.as_fraction() - base.value.as_fraction()) \
                    <= 2 * Fraction(1, 256)

    def test_circle_inversion(self):
        spec = builtin_integrand("im", "circle")
        base = haar_integral_circle(spec, 8)
        v = haar_integral_circle(invert_circle_integrand(spec), 8)
        assert abs(v.value.as_fraction() - base.value.as_fraction()) \
            <= 2 * Fraction(1, 256)


class TestCrossEngine:
    """Generic packing algorithm vs quadrature on U(1)."""

    @pytest.mark.parametrize("name", ["one", "re", "re2", "im", "abs-re"])
    def test_agreement(self, name):
        from haar.generic import ModulusOfContinuity, compute_integral
        from haar.packing import PackingTable
        circle = make_group("circle")
        spec = builtin_integrand(name, "circle")
        n = 4
        vq = haar_integral_circle(spec, n)
        vg = compute_integral(circle, spec.eval,
                              ModulusOfContinuity.from_lipschitz(spec.lipschitz),
                              spec.bound, PackingTable(circle), n)
        assert abs(vq.value.as_fraction() - vg.value.as_fraction()) \
            <= 2 * Fraction(1, 1 << n)

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The bench criterion (2)
sweeps the SU(2) integral up to n = 9 and dominates the runtime of the suite
(several minutes); everything else finishes in seconds to a couple of minutes.
"""

import math
import random
import statistics
from fractions import Fraction

import mpmath
import pytest

from haar.exactreal import Dyadic, Interval
from haar.functions import (
    builtin_integrand, translate_su2_integrand, invert_su2_integrand,
    translate_circle_integrand, invert_circle_integrand, values_integrand,
)
from haar.generic import (
    LocatedSet, ModulusOfContinuity, compute_integral, compute_measure,
)
from haar.groups import make_group
from haar.packing import (
    CircleGridPacking, PackingTable, packing_size, packing_size_bracket,
    separation_certificate,
)
from haar.regions import BoxRegion
from conftest import FIXTURE_TABLES, finite_fixture_groups
from region_oracle import RegionOracle

mpmath.mp.prec = 120


def mp_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


ABS_SUM = mp_fraction(16 / (3 * mpmath.pi))     # 1.6976527263...


def report(num: int, desc: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_su2_value():
    """abs-sum over SU(2) within 2^-n of 16/(3 pi) for n in 4..8."""
    from haar.quadrature import haar_integral_su2
    spec = builtin_integrand("abs-sum", "su2")
    ok = True
    for n in range(4, 9):
        v = haar_integral_su2(spec, n)
        ok &= abs(v.value.as_fraction() - ABS_SUM) <= Fraction(1, 1 << n)
    report(1, "SU(2) abs-sum equals 16/(3 pi) to 2^-n for n=4..8", ok)


@pytest.mark.slow
def test_criterion_02_su2_scaling(capsys):
    """bench n=4..9: seconds_mean monotone, log-time fit slope>0, R^2>=0.9."""
    from haar.cli import main
    code = main(["bench", "--group", "su2", "--function", "builtin:abs-sum",
                 "--n-min", "4", "--n-max", "9", "--repeats", "1"])
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        ns = [int(r[0]) for r in rows]
        secs = [float(r[1]) for r in rows]
        monotone = all(a < b for a, b in zip(secs, secs[1:]))
        logs = [math.log(s) for s in secs]
        fit = statistics.linear_regression(ns, logs)
        mean = statistics.fmean(logs)
        ss_tot = sum((y - mean) ** 2 for y in logs)
        ss_res = sum((y - (fit.slope * x + fit.intercept)) ** 2
                     for x, y in zip(ns, logs))
        r2 = 1 - ss_res / ss_tot
        ok = monotone and fit.slope > 0 and r2 >= 0.9
        print(f"    bench seconds: {['%.3f' % s for s in secs]}, "
              f"slope={fit.slope:.2f}, R^2={r2:.4f}")
        report(2, "bench n=4..9 grows exponentially (slope>0, R^2>=0.9)", ok)


def test_criterion_03_normalization():
    """Integrating 1 at n=10 gives 1 +- 2^-10 on all five groups."""
    from haar.quadrature import (haar_integral_circle, haar_integral_derived,
                                 haar_integral_su2)
    tol = Fraction(1, 1 << 10)
    ok = True
    v = haar_integral_circle(builtin_integrand("one", "circle"), 10)
    ok &= abs(v.value.as_fraction() - 1) <= tol
    v = haar_integral_su2(builtin_integrand("one", "su2"), 10)
    ok &= abs(v.value.as_fraction() - 1) <= tol
    for kind in ("so3", "o3", "u2"):
        v = haar_integral_derived(kind, builtin_integrand("one", kind), 10)
        ok &= abs(v.value.as_fraction() - 1) <= tol
    report(3, "normalization: integral of 1 is 1 +- 2^-10 on all 5 groups", ok)


def test_criterion_04_generic_oracle_equivalence():
    """Finite fixture groups (order <= 12), 10 random integer functions each:
    compute_integral at n=10 within 2^-10 of the exact group average."""
    rng = random.Random(1004)
    ok = True
    for name, G in finite_fixture_groups(max_order=12):
        pk = PackingTable(G)
        for _ in range(10):
            vals = [rng.randint(-9, 9) for _ in range(G.order)]
            spec = values_integrand(vals)
            v = compute_integral(G, spec.eval, ModulusOfContinuity.discrete(),
                                 spec.bound, pk, 10)
            exact = Fraction(sum(vals), G.order)
            ok &= abs(v.value.as_fraction() - exact) <= Fraction(1, 1 << 10)
    report(4, "generic integral = exact average on finite groups (n=10)", ok)


def test_criterion_05_circle_measure():
    """mu(B_r(0)) within 2^-5 of 2r for 10 dyadic radii r < 1/2."""
    circle = make_group("circle")
    pk = PackingTable(circle)
    radii = [Fraction(k, 64) for k in (1, 2, 3, 5, 7, 11, 15, 19, 25, 31)]
    ok = True
    for r in radii:
        v = compute_measure(LocatedSet.ball(circle, Dyadic(0), r), pk, 5)
        ok &= abs(v.value.as_fraction() - 2 * r) <= Fraction(1, 32)
    report(5, "circle ball measures match arc length 2r at n=5", ok)


def test_criterion_06_lemma_sandwich_and_even_distribution():
    """Core inequality exactly on the circle (n=3..8, 20 radii) and the
    even-distribution inequality exhaustively on finite groups |G| <= 10."""
    ok = True
    # sandwich with exact equally-spaced maximum packings
    for n in range(3, 9):
        K = (1 << n) - 1
        pts = [Fraction(k, K) for k in range(K)]
        r_pack = Fraction(1, 1 << n)

        def mu_T(region):
            oracle = RegionOracle(region)
            return Fraction(sum(1 for p in pts if oracle.distance((p,)) == 0), K)

        for i in range(20):
            radius = Fraction(i + 1, 100)
            U = BoxRegion.ball(1, (Fraction(0),), radius)
            mu = lambda reg: min(reg.measure(), Fraction(1))
            ok &= mu(U.shrink(4 * r_pack)) <= mu_T(U.shrink(2 * r_pack))
            ok &= mu_T(U.shrink(2 * r_pack)) <= mu(U)
            ok &= mu(U) <= mu_T(U.expand(2 * r_pack))
            ok &= mu_T(U.expand(2 * r_pack)) <= mu(U.expand(4 * r_pack))
    # even distribution: discrete metric collapses both kappas to |U|
    for name, G in finite_fixture_groups(max_order=6):
        if G.order > 10:
            continue
        k = G.order
        for n in (1, 2):
            for mask in range(1 << k):
                U = [i for i in range(k) if mask >> i & 1]
                for x in range(k):
                    xU = {G.op(x, u, 0) for u in U}
                    inter = len(xU)       # T_n is the whole group
                    ok &= len(U) <= inter <= len(U)
    report(6, "core-inequality sandwich and even-distribution hold exactly", ok)


def test_criterion_07_kappa_closed_form():
    """kappa(circle, n) = 2^n - 1 for n <= 12: brute force (n <= 4), brackets
    (n <= 12), and certified strict separation of the emitted packings."""
    circle = make_group("circle")
    ok = True
    for n in range(1, 13):
        kappa = packing_size(circle, n)
        ok &= kappa == (1 << n) - 1
        lo, hi = packing_size_bracket(circle, Fraction(1, 1 << n))
        ok &= lo == kappa == hi
    from test_packing import grid_sweep_max
    for n in range(1, 5):
        ok &= grid_sweep_max(n, 2 * n + 2) == (1 << n) - 1
    for n in range(1, 8):
        pk = CircleGridPacking(n)
        ok &= separation_certificate(circle, pk.points_list(), n)
    for n in range(8, 13):
        pk = CircleGridPacking(n)
        ok &= pk.A // pk.size > (1 << (n + 2))   # algebraic gap certificate
    report(7, "circle kappa(n) = 2^n - 1 for n <= 12, packings certified", ok)


def test_criterion_08_invariance():
    """20 random translations and inversion on su2 and circle at n=6."""
    from haar.quadrature import haar_integral_circle, haar_integral_su2
    from test_groups import rand_versor
    rng = random.Random(1008)
    tol = 2 * Fraction(1, 64)
    ok = True

    su2 = make_group("su2")
    spec = builtin_integrand("abs-sum", "su2")
    base = haar_integral_su2(spec, 6).value.as_fraction()
    for i in range(20):
        g = rand_versor(rng)
        side = "left" if i % 2 == 0 else "right"
        v = haar_integral_su2(translate_su2_integrand(spec, g, su2, side), 6)
        ok &= abs(v.value.as_fraction() - base) <= tol
    v = haar_integral_su2(invert_su2_integrand(spec), 6)
    ok &= abs(v.value.as_fraction() - base) <= tol

    cspec = builtin_integrand("re2", "circle")
    cbase = haar_integral_circle(cspec, 6).value.as_fraction()
    for _ in range(20):
        g = Dyadic(rng.randint(0, 1023), -10)
        v = haar_integral_circle(translate_circle_integrand(cspec, g), 6)
        ok &= abs(v.value.as_fraction() - cbase) <= tol
    v = haar_integral_circle(invert_circle_integrand(cspec), 6)
    ok &= abs(v.value.as_fraction() - cbase) <= tol
    report(8, "translation/inversion invariance within 2*2^-6 on su2, circle", ok)


def test_criterion_09_lift_law():
    """int_SU(2) lift(f) = (2/3) int_U(1) f within combined certificates."""
    from haar.quadrature import haar_integral_circle, haar_integral_su2
    ok = True
    for name in ("one", "re", "re2", "im", "abs-re"):
        v_lift = haar_integral_su2(builtin_integrand(f"lift:{name}", "su2"), 6)
        v_circ = haar_integral_circle(builtin_integrand(name, "circle"), 6)
        combined = Fraction(1, 64) + Fraction(2, 3) * Fraction(1, 64)
        ok &= abs(v_lift.value.as_fraction()
                  - Fraction(2, 3) * v_circ.value.as_fraction()) <= combined
    report(9, "lift law: integral of lift(f) = (2/3) integral of f, 5 builtins", ok)


def test_criterion_10_measure_uniqueness():
    """Z4 and Z2xZ2 on the same discrete 4-point space give bit-identical
    singleton measures 1/4 through the generic algorithm."""
    g1 = make_group("cyclic", k=4)
    g2 = make_group("finite", table=FIXTURE_TABLES["z2xz2"]())
    results = []
    for G in (g1, g2):
        pk = PackingTable(G)
        results.append([
            compute_measure(LocatedSet.ball(G, i, Fraction(1, 2)), pk, 6).value
            for i in range(4)])
    ok = results[0] == results[1]
    for v in results[0]:
        ok &= abs(v.as_fraction() - Fraction(1, 4)) <= Fraction(1, 64)
    report(10, "Z4 and Z2xZ2 induce the same (uniform) measure", ok)


def test_criterion_11_enclosure_soundness():
    """10^4 oracle comparisons per exactreal operation, zero failures."""
    from haar.exactreal import (
        arccos_enclosure, cos_enclosure, sin_enclosure, sqrt_enclosure,
    )
    rng = random.Random(1011)
    pad = Fraction(1, 2 ** 100)
    checks = 0
    ok = True
    ops = {
        "+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
    }
    for _ in range(10 ** 4):
        da = Dyadic(rng.randint(-4096, 4096), rng.randint(-12, 0))
        db = Dyadic(rng.randint(-4096, 4096), rng.randint(-12, 0))
        ia, ib = Interval.point(da), Interval.point(db)
        fa, fb = da.as_fraction(), db.as_fraction()
        for sym, op in ops.items():
            ok &= op(ia, ib).contains(op(fa, fb))
            checks += 1
        if db.sign() != 0:
            ok &= ia.divide(ib, 40).contains(fa / fb)
            checks += 1
    for _ in range(10 ** 4):
        d = Dyadic(rng.randint(-3000, 3000), -10)
        x = d.as_fraction()
        ok &= sin_enclosure(Interval.point(d), 48).contains(
            mp_fraction(mpmath.sin(mpmath.mpf(x.numerator) / x.denominator)))
        ok &= cos_enclosure(Interval.point(d), 48).contains(
            mp_fraction(mpmath.cos(mpmath.mpf(x.numerator) / x.denominator)))
        dd = abs(d)
        ok &= sqrt_enclosure(Interval.point(dd), 48).contains(
            mp_fraction(mpmath.sqrt(mpmath.mpf(abs(x).numerator) / x.denominator)))
        t = Dyadic(rng.randint(-1024, 1024), -10)
        ok &= arccos_enclosure(Interval.point(t), 48).contains(
            mp_fraction(mpmath.acos(mpmath.mpf(t.as_fraction().numerator)
                                    / t.as_fraction().denominator)))
        checks += 4
    ok &= checks >= 8 * 10 ** 4
    report(11, f"enclosure soundness: {checks} oracle checks, zero failures", ok)

"""The SU(2) grid kernel against independent oracles.

The block sweep's enclosure must contain the midpoint Riemann sum of its own
grid, computed here in mpmath at 60 digits: eta weights are differences of
W1(x) = (x - sin x cos x)/pi, theta weights differences of
W2(x) = (1 - cos x)/2, phi is uniform, and an axis the integrand does not
read is the single point sin = cos = 0 with weight 1.  Translated, inverted
and composed integrands, which the sweep reaches through a pre-map, are
summed as f of the mpmath quaternion product.  The axis tables, the only
form of Psi and its Jacobian in the package, are checked entry by entry
against the same mpmath values, their closed-form weights against the
exact range of those forms over the kernel's own brackets, the eta and theta
tables that a component form's grid slices from phi's table against the
axes' own tables bit for bit, and the discretization bound against its
formula in mpmath.  The one-sided products of the form sweep are checked
against the four-product rule bit for bit, and its phi means against exact
Fraction means; the sin/cos kernel the tables are built from,
``exactreal.sincos_pi_fixed``, is checked against mpmath, and its int64
array series against its python-int series, in ``test_exactreal.py``.  The
per-shape cache of the tables gives the same values cold and warm, keys on
the whole shape, keeps at most ``MAX_GRIDS`` grids and refuses writes.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from haar import _grid, exactreal
from haar.exactreal import Dyadic
from haar.functions import builtin_integrand, invert_su2_integrand, translate_su2_integrand
from haar.groups import Versor, make_group
from haar.quadrature import IntegrandSpec, _average, haar_integral_derived


def mp_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def table(ax, t) -> list:
    """One outward int64 (lo, hi) table of an axis as exact (lo, hi) pairs."""
    return [(Fraction(lo, 1 << ax.g), Fraction(hi, 1 << ax.g))
            for lo, hi in zip(t[0].tolist(), t[1].tolist())]


def _lift(g):
    """The lift of the circle function g(re, im): g((a, b)/rho) rho, 0 at rho = 0."""
    def lifted(a, b, c, d):
        rho = mpmath.sqrt(a * a + b * b)
        return g(a / rho, b / rho) * rho if rho else mpmath.mpf(0)
    return lifted


MP_INTEGRANDS = {
    "one": lambda a, b, c, d: mpmath.mpf(1),
    "abs-sum": lambda a, b, c, d: abs(a) + abs(b) + abs(c) + abs(d),
    "w2": lambda a, b, c, d: a * a,
    "trace": lambda a, b, c, d: 4 * a * a - 1,
    "lift:one": _lift(lambda re, im: 1),
    "lift:re": _lift(lambda re, im: re),
    "lift:re2": _lift(lambda re, im: re * re),
    "lift:im": _lift(lambda re, im: im),
    "lift:abs-re": _lift(lambda re, im: abs(re)),
    "skew": lambda a, b, c, d: (a + b) ** 2 + c,
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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
@pytest.mark.parametrize("kind", _grid._KINDS)
def test_axis_tables_enclose_mpmath_entry_by_entry(kind, n):
    # every midpoint sin/cos and every exact cumulative weight difference
    # against mpmath at 60 digits; the weights are a probability vector, and
    # h 2^-g, the cell width that ``_disc_bound`` reads, bounds the true one
    ax = _grid._build_axis(kind, n)
    with mpmath.workdps(60):
        oracle = [tuple(map(mp_fraction, row)) for row in mp_axis(kind, n)]
        width = mp_fraction((2 if kind == "phi" else 1) * mpmath.pi / n)
    sin, cos = table(ax, ax.sin), table(ax, ax.cos)
    weights = None if ax.w is None else table(ax, ax.w)
    assert ax.n == n == len(sin) == len(cos)
    for i, (s, c, w) in enumerate(oracle):
        assert sin[i][0] <= s <= sin[i][1] and cos[i][0] <= c <= cos[i][1], i
        if kind != "phi":
            assert 0 <= weights[i][0] <= w <= weights[i][1], i
    if kind == "phi":
        assert weights is None
    else:
        assert sum(lo for lo, _ in weights) <= 1
        assert sum(hi for _, hi in weights) >= 1
    assert Fraction(ax.h, 1 << ax.g) >= width


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 62, 64, 257])
@pytest.mark.parametrize("kind", _grid._KINDS)
def test_one_taylor_run_per_distinct_reduced_angle(kind, n, monkeypatch):
    # the midpoints pi (2i+1)/(2n) (pi (2k+1)/n for phi) fold to pi r, r =
    # q - j/2 for the nearest half-integer j/2 to q, and the axis runs the
    # series on exactly one lane per distinct |r|, counted here in Fractions
    # (eta at n = 62 folds to 16, at n = 257 to 129; phi at n = 64 to 8)
    runs = []
    taylor = exactreal._taylor_sincos
    monkeypatch.setattr(exactreal, "_taylor_sincos",
                        lambda y, g: runs.extend(np.ravel(y).tolist()) or taylor(y, g))
    _grid._build_axis(kind, n)
    den = n if kind == "phi" else 2 * n
    folded = {abs(q - Fraction(round(2 * q), 2))
              for q in (Fraction(2 * i + 1, den) for i in range(n))}
    assert len(runs) == len(set(runs)) == len(folded)


@st.composite
def table_angles(draw):
    """(numerators, den): den up to 2^12, numerators of either sign over
    several turns, with the ties |r| = 1/4 at a = (2j +- 1) den/4."""
    den = draw(st.integers(1, 1 << 12))
    a = draw(st.lists(st.integers(-8 * den, 8 * den), max_size=40))
    if den % 4 == 0:
        a += [m * den // 4 for m in draw(st.lists(st.integers(-31, 31), max_size=20))]
    return a, den


@settings(max_examples=200, deadline=None)
@given(angles=table_angles(), p=st.integers(8, 40))
@example(angles=([-5, -3, -1, 1, 3, 5, 7, 9, 11, 13], 4), p=35)
@example(angles=([-4097, -3072, -1024, 0, 1, 1024, 2048, 3072, 5120, 4096 * 16], 4096),
         p=35)
# u pi_lo passes 2^63 at the largest reduced angles of these denominators
@example(angles=([1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 << 20, -((1 << 20) - 3)],
                 1 << 22), p=35)
@example(angles=([1, 3 << 18, (3 << 18) - 1, (3 << 18) + 1, 9 << 18, -((3 << 18) + 5)],
                 3 << 20), p=48)
def test_vectorized_table_equals_the_scalar_kernel(angles, p):
    # the array fold, gather, reflection and rotation give the scalar
    # kernel's brackets bit for bit, at every sign, turn and quadrant tie
    a, den = angles
    g = exactreal.kernel_bits(p)
    (slo, shi), (clo, chi) = _grid._sincos_table(np.array(a, dtype=np.int64), den, g)
    got = list(zip(*(t.tolist() for t in (slo, shi, clo, chi))))
    assert got == [tuple(exactreal.sincos_pi_fixed(v, den, g)) for v in a]


def test_array_series_refuses_past_its_int64_headroom():
    # g = 58 and den = 2^30 - 1 still give the scalar brackets; one more bit
    # of either would pass int64 in the series or the reduced argument
    for den, g in ((8, 58), ((1 << 30) - 1, 45)):
        a = [1, den // 4, den // 4 + 1, den // 2 - 1, 3 * den, -den // 4]
        (slo, shi), (clo, chi) = _grid._sincos_table(np.array(a, dtype=np.int64), den, g)
        got = list(zip(*(t.tolist() for t in (slo, shi, clo, chi))))
        assert got == [tuple(exactreal.sincos_pi_fixed(v, den, g)) for v in a], den
    with pytest.raises(exactreal.NoConvergence, match="g <= 58"):
        _grid._sincos_table(np.arange(1, 16, 2), 8, 59)
    with pytest.raises(exactreal.NoConvergence, match="den < 2\\^30"):
        _grid._sincos_table(np.arange(1, 16, 2), 1 << 30, 45)


@pytest.mark.parametrize("n", [1, 3, 7, 64, 257])
@pytest.mark.parametrize("kind", ["eta", "theta"])
def test_weights_round_outward_from_the_kernel_brackets(kind, n):
    # each weight contains the exact range of its closed form over the
    # kernel's own brackets of sin m_i, sin m_0, cos m_0 and pi, theta's
    # sin m sin(h/2) and eta's 1/n - 2 sin m_0 cos m_0 (1 - 2 sin^2 m)/pi:
    # the products, the division by pi and 1/n round outward to the last
    # bit, not only within the Taylor slack that mpmath cannot see through;
    # and it holds the exact weight W(x_{i+1}) - W(x_i) from mpmath
    g = exactreal.kernel_bits(_grid.GUARD)
    pis = [Fraction(v, 1 << g) for v in exactreal._pi_fixed(g)]
    brackets = [[Fraction(v, 1 << g) for v in exactreal.sincos_pi_fixed(2 * i + 1, 2 * n, g)]
                for i in range(n)]
    s0, c0 = (max(0, brackets[0][0]), brackets[0][1]), (max(0, brackets[0][2]), brackets[0][3])
    sin_h_over_pi = [2 * s * c / p for s in s0 for c in c0 for p in pis]
    with mpmath.workdps(60):
        exact = [mp_fraction(w) for _, _, w in mp_axis(kind, n)]
    ax = _grid._build_axis(kind, n)
    for i, (wlo, whi) in enumerate(table(ax, ax.w)):
        slo, shi = max(0, brackets[i][0]), brackets[i][1]
        if kind == "theta":
            lo, hi = slo * s0[0], shi * s0[1]
        else:
            t = [k * c for k in sin_h_over_pi for c in (1 - 2 * shi * shi, 1 - 2 * slo * slo)]
            lo, hi = max(0, Fraction(1, n) - max(t)), Fraction(1, n) - min(t)
        assert wlo <= lo and whi >= hi, i
        assert 0 <= wlo <= exact[i] <= whi, i


def mp_disc_bound(L, ns):
    """``_disc_bound``'s formula on mpmath's exact sines, weights and cell
    widths pi/n (2 pi/n for phi); a dead axis has width 0."""
    pi = mpmath.pi
    (eta, h1), (theta, h2), (_, h3) = [
        (mp_axis(kind, n), 0 if n is None else (2 if kind == "phi" else 1) * pi / n)
        for kind, n in zip(_grid._KINDS, ns)]

    def sinmax(rows, h):
        return [min(1, s + h / 2) for s, _, _ in rows]

    s1 = sum(w * s for s, _, w in eta)
    s2 = sum(w * s for s, _, w in theta)
    L = mpmath.mpf(L.numerator) / L.denominator
    return mp_fraction(L * h1 ** 2 / 4 * (2 / pi) * sum(x * x for x in sinmax(eta, h1))
                       + L * s1 * h2 ** 2 / 8 * sum(sinmax(theta, h2))
                       + L * s1 * s2 * h3 / 4)


@pytest.mark.parametrize("live", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 6])
def test_disc_bound_is_tight_on_the_int_tables(live, n):
    # the bound from the int tables is sound against the exact formula and
    # loose by at most a factor 1 + 2^-20, so rounding cannot slacken it
    L = Fraction(7, 4)
    ns = (_grid._choose_resolution(live, float(L), float(Fraction(7, 8) / (1 << n)))
          + [None] * (3 - live))
    got = _grid._disc_bound(L, *grid_axes(ns))
    with mpmath.workdps(60):
        exact = mp_disc_bound(L, ns)
    assert exact <= got <= exact * (1 + Fraction(1, 1 << 20))


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
    return ([_grid._build_axis(kind, n) for kind, n in zip(_grid._KINDS, live)]
            + [_grid._DEAD_AXIS] * (3 - len(live)))


def sweep_paths(spec):
    """(label, sweep, spec) for every evaluation path the spec can take.

    The pre-map belongs to ``fixed_eval``; ``eval`` applies its own map.
    """
    plain = IntegrandSpec(spec.eval, spec.lipschitz, spec.bound, uses=spec.uses,
                          fixed_eval=spec.fixed_eval, premap=spec.premap)
    scalar = IntegrandSpec(spec.eval, spec.lipschitz, spec.bound, uses=spec.uses)
    paths = [("fixed", _grid._fixed_sweep, plain),
             ("scalar", _grid._scalar_sweep, scalar)]
    if spec.form is not None:
        paths.append(("form", _grid._fixed_sweep, spec))
    return paths


ONE_AXIS = [(1, None, None), (3, None, None), (5, None, None)]
TWO_AXES = [(1, 1, None), (2, 3, None), (5, 4, None)]
GRIDS = {
    "one": ONE_AXIS, "w2": ONE_AXIS, "trace": ONE_AXIS,
    **{f"lift:{name}": TWO_AXES for name in ("one", "re", "re2", "im", "abs-re")},
    "abs-sum": [(1, 1, 1), (2, 3, 4), (5, 5, 5), (4, 1, 3)],
}
GRIDS["skew"] = GRIDS["abs-sum"]


# the component form rounds each cell's phi mean in a few more places than
# the per-phi sum of the fixed path: it may be this many units of 2^-SCALE
# wider per unit of its summed |coefficients| (at most 6.4 were seen on the
# moved specs, on these grids and the first grids of n = 2..4)
FORM_SLACK = 8


def check_sweeps(spec, mp_f, grids, monkeypatch):
    ulp = Fraction(1, 1 << _grid.SCALE)
    for ns in grids:
        exact = mp_riemann_sum(mp_f, ns)
        axes = grid_axes(ns)
        widths = {}
        for label, sweep, s in sweep_paths(spec):
            enc = sweep(s, *axes)
            assert enc.lo.as_fraction() <= exact <= enc.hi.as_fraction(), (label, ns)
            assert enc.width().as_fraction() < Fraction(1, 1 << 10), (label, ns)
            widths[label] = enc.width().as_fraction()
            # one row and one theta cell per block: the exact integer sums
            # do not depend on how the grid is split
            with monkeypatch.context() as m:
                m.setattr(_grid, "BLOCK_CELLS", 1)
                split = sweep(s, *axes)
            assert (split.lo, split.hi) == (enc.lo, enc.hi), (label, ns)
        if "form" in widths:
            slack = FORM_SLACK * sum(abs(t[2]) for t in spec.form[1]) * ulp
            assert widths["form"] <= widths["fixed"] + slack, ns


@pytest.mark.parametrize("name, uses", [
    ("one", "a"), ("w2", "a"), ("trace", "a"), ("lift:one", "ab"), ("lift:re", "ab"),
    ("lift:re2", "ab"), ("lift:im", "ab"), ("lift:abs-re", "ab"), ("abs-sum", "abcd"),
    ("skew", "abcd")])
def test_sweep_encloses_mpmath_riemann_sum(name, uses, monkeypatch):
    # the fixed and the scalar path of each builtin (``sign`` needs a tag;
    # the O(3) tests cover it), and the component form of abs-sum, w2,
    # trace and skew, whose phi mean is negative on the one-cell phi axis
    spec = _skew_spec() if name == "skew" else builtin_integrand(
        name, "so3" if name == "trace" else "su2")
    assert spec.uses == uses
    check_sweeps(spec, MP_INTEGRANDS[name], GRIDS[name], monkeypatch)


def mp_abs_sum_riemann_sum(ns):
    """mp_riemann_sum of abs-sum, its phi sum taken first: |w| + |x| does
    not read phi and |y| + |z| = sin eta sin theta (|cos phi| + |sin phi|),
    so the same sum costs O(n1 n2 + n3) terms."""
    with mpmath.workdps(60):
        eta, theta, phi = (mp_axis(kind, n) for kind, n in zip(_grid._KINDS, ns))
        gbar = mpmath.fsum(abs(sp) + abs(cp) for sp, cp, _ in phi) / len(phi)
        return mp_fraction(mpmath.fsum(
            w1 * mpmath.fsum(w2 * (abs(ce) + abs(se * ct) + se * st * gbar)
                             for st, ct, w2 in theta)
            for se, ce, w1 in eta))


@pytest.mark.parametrize("ns", [*GRIDS["abs-sum"], *(
    tuple(_grid._choose_resolution(3, 7 / 4, 7 / 8 / 2 ** n)) for n in range(2, 7))])
def test_polar_phi_mean_is_no_looser_than_the_cell_sum(ns):
    # abs-sum's component form takes the phi mean of the polar (eta, theta,
    # phi) grid once per integral, where the fixed path rounds once per cell:
    # its enclosure holds the Riemann sum and is at most two units of
    # 2^-SCALE wider than the fixed path's
    spec = builtin_integrand("abs-sum", "su2")
    plain = IntegrandSpec(spec.eval, spec.lipschitz, spec.bound,
                          fixed_eval=spec.fixed_eval)
    axes = grid_axes(ns)
    form, fixed = _grid._fixed_sweep(spec, *axes), _grid._fixed_sweep(plain, *axes)
    exact = mp_abs_sum_riemann_sum(ns)
    assert form.lo.as_fraction() <= exact <= form.hi.as_fraction()
    ulp = Fraction(1, 1 << _grid.SCALE)
    assert form.width().as_fraction() <= fixed.width().as_fraction() + 2 * ulp


def mp_mul(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def mp_conj(q):
    return (q[0], -q[1], -q[2], -q[3])


def half_versor(*signs):
    return Versor.exact(*(Dyadic(m, -1) for m in signs))


def mp_point(g):
    # any point of g's enclosure is a translation the sweep must enclose
    return tuple(mpmath.mpf((iv.lo.m, iv.lo.e)) for iv in g.components())


def _skew_spec():
    """(w + x)^2 + y as a component form through a pre-map: the square of
    row 0, w + x, plus the identity of row 2, y.  Unlike abs-sum it tells
    left from right translations on these grids (their abs-sum Riemann sums
    agree by symmetry), and its phi table P_2 = cos(phi) changes sign: on a
    one-cell phi axis its sum changes with the sign of y, which an inverted
    form must read from -cos(phi)."""
    def ev(q, wp):
        return ((q.a + q.b).square() + q.c).round_out(wp)

    one, zero = (1 << _grid.SCALE, 1 << _grid.SCALE), (0, 0)
    premap = ((one, one, zero, zero), (zero,) * 4, (zero, zero, one, zero),
              (zero,) * 4)
    return IntegrandSpec(ev, Dyadic(4), Dyadic(3), name="skew",
                         form=(0, ((0, "square", 1), (2, "id", 1))), premap=premap)


MOVED = ("left h", "right k", "left r", "right r", "inverted", "left r o inverted",
         "inverted o right r", "left s o left r", "right r o left s")


def moved_specs(name):
    """label -> (spec, f on mpmath 4-tuples) for the integrand ``name``
    translated by exact and interval versors, inverted, and composed."""
    from test_groups import rand_versor
    G = make_group("su2")
    base = _skew_spec() if name == "skew" else builtin_integrand(
        name, "so3" if name == "trace" else "su2")
    f = MP_INTEGRANDS[name]
    h, k = half_versor(1, 1, 1, 1), half_versor(1, -1, 1, -1)
    r, s = rand_versor(random.Random(17)), rand_versor(random.Random(18))
    mh, mk, mr, ms = map(mp_point, (h, k, r, s))

    def left(spec, g):
        return translate_su2_integrand(spec, g, G, "left")

    def right(spec, g):
        return translate_su2_integrand(spec, g, G, "right")

    inv = invert_su2_integrand
    specs = {
        "left h": (left(base, h), lambda *x: f(*mp_mul(mh, x))),
        "right k": (right(base, k), lambda *x: f(*mp_mul(x, mk))),
        "left r": (left(base, r), lambda *x: f(*mp_mul(mr, x))),
        "right r": (right(base, r), lambda *x: f(*mp_mul(x, mr))),
        "inverted": (inv(base), lambda *x: f(*mp_conj(x))),
        "left r o inverted": (left(inv(base), r),
                              lambda *x: f(*mp_conj(mp_mul(mr, x)))),
        "inverted o right r": (inv(right(base, r)),
                               lambda *x: f(*mp_mul(mp_conj(x), mr))),
        # r s != s r: composing in the wrong order fails here
        "left s o left r": (left(left(base, s), r),
                            lambda *x: f(*mp_mul(ms, mp_mul(mr, x)))),
        "right r o left s": (right(left(base, s), r),
                             lambda *x: f(*mp_mul(ms, mp_mul(x, mr)))),
    }
    assert tuple(specs) == MOVED
    return specs


@pytest.mark.parametrize("name, label", [
    *((name, label) for name in ("abs-sum", "skew", "w2", "trace") for label in MOVED),
    # both lifts sum to 0 on the plain grids by symmetry; only a translate
    # shows which component each form reads
    ("lift:re", "left r"), ("lift:im", "left r")])
def test_moved_sweep_encloses_mpmath_riemann_sum(name, label, monkeypatch):
    # the pre-map folded into the tables against f(M x) summed in mpmath,
    # on the fixed, scalar and component-form paths
    spec, mp_f = moved_specs(name)[label]
    assert spec.premap != _grid.IDENTITY_PREMAP
    assert (spec.form is not None) == (name != "lift:re" and name != "lift:im")
    check_sweeps(spec, mp_f, GRIDS["abs-sum"], monkeypatch)


def test_moved_forms_sweep_no_phi_block():
    # every translated, inverted or composed component form sweeps eta x
    # theta cells: the per-phi branch, the only caller of ``fixed_eval`` in
    # the sweep, never runs for them, so a lost form cannot fall back to the
    # 3-D grid unseen
    calls = []

    def counted(spec):
        fixed = spec.fixed_eval
        spec.fixed_eval = lambda *a, **kw: calls.append(a) or fixed(*a, **kw)
        return spec

    for name in ("abs-sum", "w2", "trace"):
        for label, (spec, _) in moved_specs(name).items():
            assert spec.form is not None, (name, label)
            _grid.su2_grid_integral(counted(spec), 2)
    assert calls == []
    spec, _ = moved_specs("abs-sum")["left r"]
    _grid._fixed_sweep(counted(sweep_paths(spec)[0][2]), *grid_axes((2, 3, 4)))
    assert calls


UNIT = 1 << _grid.SCALE
# ends of A and P as the pre-map guard keeps them (|A|, |P| < 3), or small
# enough to straddle 0 often
ENDS = st.one_of(st.integers(-64, 64), st.integers(-3 * UNIT + 1, 3 * UNIT - 1))


def _ivs(ends, widths=st.integers(0, 300)):
    return st.tuples(ends, widths).map(lambda t: (t[0], t[0] + t[1]))


def _threshold_case(ac, sc, offset):
    """A single-entry table pinned next to the exact sign threshold of
    c = ac 2^SCALE + sc p, with no width anywhere."""
    t = -((ac << _grid.SCALE) // sc)
    return (ac, ac), (sc, sc), [(t + offset, t + offset)]


def _fr(x):
    return Fraction(x, UNIT)


@settings(max_examples=400)
@example(*_threshold_case(-5, 3, 0))
@example(*_threshold_case(-5, 3, -1))
@example(*_threshold_case(7, 1 << 20, 0))
@example((-3, 2), (0, 0), [(5, 9)])
@example((0, 0), (3, 9), [(-5, 9), (2, 2)])
@example((-40, 40), (UNIT - 4, UNIT), [(0, 0)] * 3)
@given(a=_ivs(ENDS), s=st.one_of(st.just((0, 0)), _ivs(st.integers(0, UNIT))),
       table=st.one_of(st.lists(st.just((0, 0)), min_size=1, max_size=6),
                       st.lists(_ivs(ENDS), min_size=1, max_size=12)))
def test_phi_mean_kernels_enclose_the_exact_mean(a, s, table):
    # the abs, square and identity phi means of one component, (M x)_0 = A
    # + s P with M_00 = 1 (M_00 = 0 when A is 0, the folded path) and P read
    # through M_02 = 1 from the phi cos table, against the exact Fraction
    # mean over phi of h(A + s p_phi) at corner, centre and zero-crossing
    # points of the intervals; the threshold examples put p on either side
    # of the sign change of the abs kernel's centre, with no width to hide a
    # miscount
    n3 = len(table)
    p = (np.array([t[0] for t in table]), np.array([t[1] for t in table]))
    one, zero = (UNIT, UNIT), (0, 0)
    premap = ((zero if a == zero else one, zero, one, zero),) + ((zero,) * 4,) * 3
    # the block's cos(eta) row is A, sin(eta) = 1, and the theta columns
    # have cos = 0 and sin = s
    cell = [(np.array([[lo]]), np.array([[hi]])) for lo, hi in (a, one)]
    cell += [(np.array([lo]), np.array([hi])) for lo, hi in (zero, s)]
    h = {"abs": abs, "square": lambda x: x * x, "id": lambda x: x}
    tables = [[_fr(t[0]) for t in table], [_fr(t[1]) for t in table],
              [_fr(t[i % 2]) for i, t in enumerate(table)]]
    points = []
    for sv in {_fr(s[0]), _fr(s[1])}:
        for ps in tables:
            a_pts = {_fr(a[0]), _fr(a[1]), _fr(a[0] + a[1]) / 2}
            a_pts.add(min(max(-sv * ps[0], _fr(a[0])), _fr(a[1])))  # x_0 = 0
            points += [(av, sv, ps) for av in a_pts]
    for kind in h:
        means = _grid._form_means((0, ((0, kind, 1),)), premap, p,
                                  (np.zeros(n3, np.int64),) * 2, 1 << 62)
        lo, hi = (_fr(int(x[0, 0])) for x in means(*cell))
        for av, sv, ps in points:
            mean = sum(h[kind](av + sv * pv) for pv in ps) / n3
            assert lo <= mean <= hi, (kind, av, sv)


def test_one_sided_products_equal_the_interval_rule():
    # products whose factor signs the grid fixes take one end of each
    # factor: s = sin eta sin theta, s^2 and s times a constant phi mean
    # equal fp_mul_na and fp_square bit for bit on the eta and theta tables
    # for n = 1..80, odd n (a theta column at pi/2 whose cos straddles 0) too
    def same(x, y):
        return all(np.array_equal(u, v) for u, v in zip(x, y))

    for n in range(1, 81):
        (es, _, _), (ts, tc, _) = (_grid._build_axis(kind, n).fixed
                                   for kind in ("eta", "theta"))
        assert es[0].min() >= 0 and ts[0].min() >= 0   # the sweep's clamp is a no-op
        se = (es[0][:, None], es[1][:, None])
        s = _grid.fp_mul_pos(se, ts)
        assert same(s, _grid.fp_mul_na(se, ts)), n
        assert same(_grid.fp_mul_pos(s, s), _grid.fp_square(s)), n
        for c in ((3, 5), (-5, -3), (-2, 7), (0, 0), (UNIT, UNIT + 9)):
            assert same(_grid.fp_mul_pos(s, c), _grid.fp_mul_na(s, c)), (n, c)
        assert n % 2 == 0 or tc[0][n // 2] < 0 < tc[1][n // 2]


@st.composite
def dense_abs_cells(draw):
    """(form, premap, pc, ps, cell, seed): 2-4 dense abs rows (A and P both
    nonzero), exact or wide pre-map entries in [-1, 1], phi tables and one
    cell of cos(eta), sin(eta) >= 0, cos(theta) and sin(theta) >= 0, some
    of them narrow, so that no radius term hides behind another."""
    def iv(lo_end, widths=st.integers(0, 300)):
        return st.tuples(st.integers(lo_end, UNIT), widths).map(
            lambda t: (t[0], min(UNIT, t[0] + t[1])))

    n3 = draw(st.integers(1, 10))
    pc, ps = ([draw(iv(-UNIT)) for _ in range(n3)] for _ in range(2))
    entry = st.one_of(st.just((0, 0)), iv(-UNIT, st.just(0)), iv(-UNIT, st.integers(0, 1 << 12)))
    rows = []
    for _ in range(draw(st.integers(2, 4))):
        m = [draw(entry) for _ in range(4)]
        m[0] = m[0] if m[0] != (0, 0) or m[1] != (0, 0) else (UNIT, UNIT)
        m[2] = m[2] if m[2] != (0, 0) or m[3] != (0, 0) else (-UNIT, -UNIT)
        rows.append(tuple(m))
    coefs = [draw(st.sampled_from([1, 1, 2, -1, 3])) for _ in rows]
    premap = tuple(rows) + ((((0, 0),) * 4),) * (4 - len(rows))
    narrow = st.sampled_from([0, 1, 2])
    cell = [draw(iv(lo, st.one_of(narrow, st.integers(0, 300))))
            for lo in (-UNIT, 0, -UNIT, 0)]                 # ce, se, tc, ts
    form = (0, tuple((k, "abs", c) for k, c in enumerate(coefs)))
    return form, premap, pc, ps, cell, draw(st.integers(0, 1 << 30))


@settings(max_examples=300, deadline=None)
@given(case=dense_abs_cells())
# a wide M_01 times b = 1: only the radius term r1 |cos theta| covers it
@example(case=((0, ((0, "abs", 1), (1, "abs", 1))),
               (((0, 0), (UNIT // 2 - 2000, UNIT // 2 + 2000), (UNIT, UNIT), (0, 0)),
                ((UNIT, UNIT), (0, 0), (0, 0), (UNIT, UNIT)), ((0, 0),) * 4, ((0, 0),) * 4),
               [(100, 100)], [(0, 0)], [(0, 0), (UNIT, UNIT), (UNIT, UNIT), (0, 0)], 5))
def test_dense_abs_terms_share_one_summed_radius(case):
    # a cell of several dense |A_k + s P_k| terms: their centres, one summed
    # radius and the centre floors enclose the exact Fraction mean over phi
    # of sum coef_k |A_k + s P_k| at corner, centre and zero-crossing points
    # of every interval (pre-map entries, cell factors and phi tables)
    form, premap, pc, ps, cell, seed = case
    tabs = [(np.array([t[0] for t in x]), np.array([t[1] for t in x])) for x in (pc, ps)]
    ce, se = ((np.array([[lo]]), np.array([[hi]])) for lo, hi in cell[:2])
    tc, ts = ((np.array([lo]), np.array([hi])) for lo, hi in cell[2:])
    lo, hi = _grid._form_means(form, premap, *tabs, 1 << 62)(ce, se, tc, ts)
    lo, hi = _fr(int(lo[0, 0])), _fr(int(hi[0, 0]))
    rng = random.Random(seed)

    def pick(t):
        return _fr(rng.choice([t[0], t[1], (t[0] + t[1]) // 2]))

    n3, terms = len(pc), form[1]
    for trial in range(40):
        x_ce, x_se, x_tc, x_ts = (pick(t) for t in cell)
        m = [[_fr(rng.choice(e)) for e in premap[k]] for k, _, _ in terms]
        col = [[pick(t) for t in x] for x in (pc, ps)]
        b, s = x_se * x_tc, x_se * x_ts
        if trial % 4 == 0 and m[0][0]:      # put term 0 on a zero at phi_0
            x = -(m[0][1] * b + s * (m[0][2] * col[0][0] + m[0][3] * col[1][0])) / m[0][0]
            x_ce = min(max(x, _fr(cell[0][0])), _fr(cell[0][1]))
        mean = sum(coef * abs(mk[0] * x_ce + mk[1] * b + s * (mk[2] * c + mk[3] * d))
                   for mk, (_, _, coef) in zip(m, terms)
                   for c, d in zip(*col)) / n3
        assert lo <= mean <= hi, trial


# sweep sums at 2^-58 of the grids that su2_grid_integral picks at n = 1..8,
# pinned from the four-product interval rule
PINNED_SWEEPS = {
    "abs-sum": [
        (490949767037378950, 490949790099712038), (489950361195121918, 489950394725005390),
        (489495336121543018, 489495394150136928), (489366739843250302, 489366843207372864),
        (489328891881157550, 489329085725144828), (489318517278770162, 489318892266182048),
        (489315635842224864, 489316373122588616), (489314605316271546, 489316070874505134),
    ],
    "w2": [
        (79240559431477272, 79240561676505058), (75305253126084098, 75305255514446212),
        (73237056599221928, 73237060201717796), (72422868215104468, 72422873961847236),
        (72166383402488124, 72166393209522481), (72088416327268538, 72088433993229394),
        (72065947433488122, 72065980359687325), (72059726715390448, 72059791539194004),
    ],
    "trace": [
        (4717852309247544, 4717863664829664), (1461098869889056, 1461116460752416),
        (435161097492976, 435190362771336), (123299083735920, 123350968574008),
        (33431868660752, 33527537488224), (8567745977088, 8755116420440),
        (2017410635920, 2380166897688), (215106423152, 931333101776),
    ],
}


@pytest.mark.parametrize("name", PINNED_SWEEPS)
def test_identity_and_inverse_sweeps_keep_their_bits(name, monkeypatch):
    # abs-sum, w2 and trace on the identity and the inversion read A and P
    # only through one-sided products, folds and |b|: every bit is kept
    base = builtin_integrand(name, "so3" if name == "trace" else "su2")
    got, sweep = [], _grid._fixed_sweep
    monkeypatch.setattr(_grid, "_fixed_sweep",
                        lambda spec, *axes: got.append(sweep(spec, *axes)) or got[-1])
    for spec in (base, invert_su2_integrand(base)):
        got.clear()
        for n in range(1, 9):
            _grid.su2_grid_integral(spec, n)
        assert [(e.lo.as_fraction() * 2 ** 58, e.hi.as_fraction() * 2 ** 58)
                for e in got] == PINNED_SWEEPS[name], spec.name


def test_restriction_forwards_the_premap():
    # the O(3) and U(2) mean keeps the map, so it sweeps f(M x) too; the
    # mean over one tag is the spec's fixed path itself, bit for bit (the
    # mean has no component form)
    spec, _ = moved_specs("skew")["right r o left s"]
    _label, _sweep, plain = sweep_paths(spec)[0]
    averaged = _average(spec, (0,), "sign_index")
    assert averaged.form is None
    for ns in GRIDS["abs-sum"]:
        axes = grid_axes(ns)
        a = _grid._fixed_sweep(plain, *axes)
        b = _grid._fixed_sweep(averaged, *axes)
        assert (a.lo, a.hi) == (b.lo, b.hi), ns


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_average_kernel_rounds_the_exact_mean_outward(k):
    # _average's fixed form against exact integer means: lo is the floor and
    # hi the ceiling of the mean over the 2^k tags' enclosures
    rng = np.random.default_rng(k)
    ends = np.sort(rng.integers(-(3 << 30), 3 << 30, size=(1 << k, 2, 64)), axis=1)

    def fixed(a, b, c, d, scale, tag):
        return ends[tag][0], ends[tag][1]

    spec = IntegrandSpec(None, Dyadic(0), Dyadic(2), fixed_eval=fixed)
    lo, hi = _average(spec, tuple(range(1 << k)), "tag").fixed_eval(
        None, None, None, None, _grid.SCALE)
    sums = ends.sum(axis=0).tolist()
    assert lo.tolist() == [x // (1 << k) for x in sums[0]]
    assert hi.tolist() == [-(-x // (1 << k)) for x in sums[1]]


def _halved_on_sign_one(spec):
    """spec on pairs (q, s): f(q) at s = 0 and f(q)/2 at s = 1, exactly."""
    def ev(element, wp):
        q, s = element
        v = spec.eval(q, wp)
        return v if s == 0 else v.scale(Dyadic(1, -1))

    def fixed(a, b, c, d, scale, sign_index=0):
        lo, hi = spec.fixed_eval(a, b, c, d, scale)
        return (lo, hi) if sign_index == 0 else (lo >> 1, -((-hi) >> 1))

    return IntegrandSpec(ev, spec.lipschitz, spec.bound, fixed_eval=fixed,
                         premap=spec.premap, uses=spec.uses)


def test_two_tag_mean_encloses_the_mean_of_the_tag_sweeps():
    # the mean of f and f/2 over the signs against the mean of the two
    # one-tag sweeps on the same path, fixed and scalar, and against the
    # mpmath Riemann sum of (3/4) f(M x); the sweeps round at different
    # places, so the ends may differ by a unit of the last place
    spec, mp_f = moved_specs("skew")["right r o left s"]
    tagged = _halved_on_sign_one(spec)
    ulp = Fraction(1, 1 << _grid.SCALE)

    def swept(tags, axes):
        return {label: sweep(s, *axes) for label, sweep, s
                in sweep_paths(_average(tagged, tags, "sign_index"))}

    for ns in GRIDS["abs-sum"]:
        axes = grid_axes(ns)
        exact = Fraction(3, 4) * mp_riemann_sum(mp_f, ns)
        one = [swept((s,), axes) for s in (0, 1)]
        for label, enc in swept((0, 1), axes).items():
            lo = sum(v[label].lo.as_fraction() for v in one) / 2
            hi = sum(v[label].hi.as_fraction() for v in one) / 2
            elo, ehi = enc.lo.as_fraction(), enc.hi.as_fraction()
            assert elo <= exact <= ehi, (label, ns)
            assert elo <= lo + ulp and hi - ulp <= ehi, (label, ns)
            assert ehi - elo <= hi - lo + 2 * ulp, (label, ns)


def test_inversion_keeps_the_component_form():
    # negation is exact and abs-sum is invariant under conjugation, so the
    # inverted form sweeps abs-sum's own enclosure bit for bit: it holds the
    # Riemann sum and is at most two units of 2^-SCALE wider than the fixed
    # path of the inverted spec
    base = builtin_integrand("abs-sum", "su2")
    inv = invert_su2_integrand(base)
    assert inv.form == base.form and inv.premap != base.premap
    plain = IntegrandSpec(inv.eval, inv.lipschitz, inv.bound,
                          fixed_eval=inv.fixed_eval, premap=inv.premap)
    ulp = Fraction(1, 1 << _grid.SCALE)
    for ns in GRIDS["abs-sum"]:
        axes = grid_axes(ns)
        a, b = _grid._fixed_sweep(base, *axes), _grid._fixed_sweep(inv, *axes)
        assert (a.lo, a.hi) == (b.lo, b.hi), ns
        exact = mp_abs_sum_riemann_sum(ns)
        assert b.lo.as_fraction() <= exact <= b.hi.as_fraction(), ns
        fixed = _grid._fixed_sweep(plain, *axes)
        assert b.width().as_fraction() <= fixed.width().as_fraction() + 2 * ulp, ns
    a, b = _grid.su2_grid_integral(base, 4), _grid.su2_grid_integral(inv, 4)
    assert (a.lo, a.hi) == (b.lo, b.hi)


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


@st.composite
def limb_products(draw):
    """(g, a, b): g in 1..58, |a|, |b| <= 2^(g+2), with 0, the ends of
    the range and the values next to multiples of the low limb 2^ceil(g/2)."""
    g = draw(st.integers(1, 58))
    top, limb = 1 << (g + 2), 1 << ((g + 1) >> 1)
    edges = st.sampled_from([0, 1, -1, top, -top, top - 1, -top + 1])
    near_limb = st.tuples(st.integers(-(top // limb), top // limb),
                          st.integers(-1, 1)).map(
        lambda t: max(-top, min(top, t[0] * limb + t[1])))
    value = st.one_of(edges, near_limb, st.integers(-top, top))
    pairs = draw(st.lists(st.tuples(value, value), min_size=1, max_size=20))
    return g, [x for x, _ in pairs], [y for _, y in pairs]


@settings(max_examples=300, deadline=None)
@given(case=limb_products())
@example(case=(45, [1 << 47, -(1 << 47), (1 << 23) - 1], [1 << 47, 1 << 47, (1 << 23) - 1]))
@example(case=(58, [1 << 60, -(1 << 60), -1], [-(1 << 60), -(1 << 60), 1 << 60]))
def test_two_limb_product_matches_python_ints(case):
    # floor and ceil of a b / 2^g on int64 arrays, and on a python int
    # second factor, against python ints over the documented range
    g, a, b = case
    want_lo = [x * y >> g for x, y in zip(a, b)]
    want_hi = [-(-x * y >> g) for x, y in zip(a, b)]
    xs, ys = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert _grid._mul_floor(xs, ys, g).tolist() == want_lo
    assert _grid._mul_ceil(xs, ys, g).tolist() == want_hi
    assert _grid._mul_floor(xs, b[0], g).tolist() == [x * b[0] >> g for x in a]


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


class _FirstGrid(Exception):
    pass


def _form_specs():
    from test_groups import rand_versor
    abs_sum = builtin_integrand("abs-sum", "su2")
    r = rand_versor(random.Random(17))
    return {"abs-sum": abs_sum, "w2": builtin_integrand("w2", "su2"),
            "abs-sum left r": translate_su2_integrand(abs_sum, r, make_group("su2"), "left"),
            "abs-sum inverted": invert_su2_integrand(abs_sum)}


def _is_one_table(eta, theta, phi):
    """eta and theta read their midpoints from phi's table: n1 = n2 = m
    even and n3 = 2 FORM_Q m."""
    m = eta.n
    return theta.n == m and m % 2 == 0 and phi.n == 2 * _grid.FORM_Q * m


@pytest.mark.parametrize("name", list(_form_specs()))
def test_form_path_sizes_phi_as_a_table(name, monkeypatch):
    # a component form sizes one table: n1 = n2 = m even and n3 = 2 q m on
    # a multiple of 4 cells, so eta and theta read phi's midpoints; the
    # first grid passes and uses at least 90% of the budget, and the phi
    # table folds onto about n3/8 reduced angles
    spec = _form_specs()[name]
    disc_bound = _grid._disc_bound

    def first(L, *axes):
        raise _FirstGrid(axes, disc_bound(L, *axes))

    monkeypatch.setattr(_grid, "_disc_bound", first)
    runs = []
    taylor = exactreal._taylor_sincos
    for n in range(3, 10):
        with pytest.raises(_FirstGrid) as got:
            _grid.su2_grid_integral(spec, n)
        (eta, theta, phi), disc = got.value.args
        budget = Fraction(7, 8) / (1 << n)
        assert Fraction(9, 10) <= disc / budget <= 1, n
        if phi is _grid._DEAD_AXIS:
            continue
        assert phi.n % 4 == 0, (n, phi.n)
        assert _is_one_table(eta, theta, phi), (n, eta.n, theta.n, phi.n)
        with monkeypatch.context() as m:
            m.setattr(exactreal, "_taylor_sincos",
                      lambda y, g: runs.extend(np.ravel(y).tolist()) or taylor(y, g))
            runs.clear()
            _grid._build_axis("phi", phi.n)
        assert len(runs) <= phi.n // 8 + 2, (n, phi.n, len(runs))


@pytest.mark.usefixtures("empty_grid_cache")
@pytest.mark.parametrize("name", list(_form_specs()))
def test_form_integral_runs_the_series_for_one_table(name, monkeypatch):
    # the whole integral, every attempt and the sweep included, runs the
    # Taylor series at most n3/8 + 2 times: eta and theta add none; w2
    # reads no phi, and its eta axis folds its own n1 midpoints onto at
    # most n1/2 + 2 reduced angles
    spec = _form_specs()[name]
    true = Fraction(1, 4) if name == "w2" else mp_fraction(16 / (3 * mpmath.pi))
    grids, runs = [], []
    disc_bound, taylor = _grid._disc_bound, exactreal._taylor_sincos
    monkeypatch.setattr(_grid, "_disc_bound", lambda *a: grids.append(a[1:]) or disc_bound(*a))
    monkeypatch.setattr(exactreal, "_taylor_sincos",
                        lambda y, g: runs.extend(np.ravel(y).tolist()) or taylor(y, g))
    for n in range(3, 10):
        grids.clear()
        runs.clear()
        enc = _grid.su2_grid_integral(spec, n)
        assert abs(enc.midpoint().as_fraction() - true) <= Fraction(1, 1 << n), n
        eta, _, phi = grids[-1]
        cap = eta.n // 2 + 2 if phi is _grid._DEAD_AXIS else phi.n // 8 + 2
        assert len(runs) <= cap, (n, [a.n for a in grids[-1]], len(runs))


@pytest.mark.parametrize("q", [1, 3, 5])
def test_sliced_tables_equal_the_axis_own_tables(q):
    # eta and theta sliced from phi's table at n3 = 2 q m equal their own
    # midpoint tables at den 2m bit for bit: sin, cos and the weights
    for m in [*range(1, 25), 101, 256]:
        sliced = _grid._grid_axes((m, m, 2 * q * m))
        for kind, ax in zip(_grid._KINDS, sliced):
            own = _grid._build_axis(kind, ax.n)
            for got, want in zip((*ax.sin, *ax.cos, *(ax.w or ())),
                                 (*own.sin, *own.cos, *(own.w or ()))):
                assert got.tolist() == want.tolist(), (q, m, kind)


@pytest.mark.parametrize("shrink", [Fraction(4, 5), Fraction(19, 20)], ids=str)
def test_grid_without_one_table_still_certifies(shrink, monkeypatch):
    # a shrunken first grid (as in the growth test below) breaks n3 = 2 q m,
    # so eta and theta build their own tables; the translated abs-sum still
    # certifies within 2^-n of 16/(3 pi)
    spec = _form_specs()["abs-sum left r"]
    choose = _grid._choose_resolution
    monkeypatch.setattr(_grid, "_choose_resolution", lambda *a: [
        max(1, math.floor(m * shrink)) for m in choose(*a)])
    grids = []
    disc_bound = _grid._disc_bound
    monkeypatch.setattr(_grid, "_disc_bound", lambda *a: grids.append(a[1:]) or disc_bound(*a))
    n = 5
    enc = _grid.su2_grid_integral(spec, n)
    assert not _is_one_table(*grids[0])
    assert enc.width().as_fraction() <= Fraction(1, 1 << (n - 1))
    assert abs(enc.midpoint().as_fraction() - mp_fraction(16 / (3 * mpmath.pi))) \
        <= Fraction(1, 1 << n)


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


# ---------------------------------------------------------------------------
# the per-shape table cache of ``_grid_axes``
# ---------------------------------------------------------------------------

def _cache_cases():
    """label -> a certified integral, over every way a spec reaches the grid."""
    from test_groups import rand_versor
    su2, abs_sum = make_group("su2"), builtin_integrand("abs-sum", "su2")
    r = rand_versor(random.Random(29))
    cases = {f"{name} n={n}": (kind, builtin_integrand(name, kind), n)
             for name, kind in [("abs-sum", "su2"), ("w2", "su2"), ("trace", "so3")]
             for n in range(3, 8)}
    cases.update({
        "abs-sum left": ("su2", translate_su2_integrand(abs_sum, r, su2, "left"), 5),
        "abs-sum right": ("su2", translate_su2_integrand(abs_sum, r, su2, "right"), 5),
        "abs-sum inverted": ("su2", invert_su2_integrand(abs_sum), 5),
        "o3 abs-sum": ("o3", abs_sum, 4),
        "u2 w2": ("u2", builtin_integrand("w2", "su2"), 4),
        "lift:re2": ("su2", builtin_integrand("lift:re2", "su2"), 5)})
    return cases


def _dyadic(cv):
    return cv.value.m, cv.value.e


def _tables(ax):
    return [t.tolist() for pair in (ax.sin, ax.cos, ax.w, *ax.fixed) for t in pair or ()]


@pytest.mark.usefixtures("empty_grid_cache")
@pytest.mark.parametrize("label", list(_cache_cases()))
def test_cold_and_warm_grids_give_bit_identical_values(label, monkeypatch):
    # the second call reads the first one's cached tables and gives the
    # same (mantissa, exponent); the integrals leave those tables as a
    # fresh build makes them, bit for bit
    kind, spec, n = _cache_cases()[label]
    grids = []
    disc_bound = _grid._disc_bound
    monkeypatch.setattr(_grid, "_disc_bound", lambda *a: grids.append(a[1:]) or disc_bound(*a))
    cold = haar_integral_derived(kind, spec, n)
    hits = _grid._grid_axes.cache_info().hits
    warm = haar_integral_derived(kind, spec, n)
    assert _grid._grid_axes.cache_info().hits > hits
    assert _dyadic(cold) == _dyadic(warm)
    for kind_, ax in zip(_grid._KINDS, grids[-1]):
        fresh = ax if ax is _grid._DEAD_AXIS else _grid._build_axis(kind_, ax.n)
        assert _tables(ax) == _tables(fresh) and ax.sums == fresh.sums, (label, kind_)
        assert ax.w_sum == fresh.w_sum, (label, kind_)


@pytest.mark.usefixtures("empty_grid_cache")
@pytest.mark.parametrize("name", list(_form_specs()))
def test_a_repeated_shape_builds_no_table(name, monkeypatch):
    # abs-sum and its translates and inverse share one grid shape at each
    # n: after the plain abs-sum, none builds an axis or runs the series
    spec = _form_specs()[name]
    builds = []
    build, taylor = _grid._build_axis, exactreal._taylor_sincos
    for n in (4, 5):
        plain = builtin_integrand(name.split()[0], "su2")     # abs-sum, or w2
        haar_integral_derived("su2", plain, n)
        with monkeypatch.context() as m:
            m.setattr(_grid, "_build_axis", lambda *a: builds.append(a) or build(*a))
            m.setattr(exactreal, "_taylor_sincos", lambda *a: builds.append(a) or taylor(*a))
            haar_integral_derived("su2", spec, n)
        assert builds == [], (name, n)


@pytest.mark.usefixtures("empty_grid_cache")
def test_the_cache_keeps_at_most_its_bound():
    for m in range(1, 2 * _grid.MAX_GRIDS + 1):
        _grid._grid_axes((m, m, 6 * m))
        assert _grid._grid_axes.cache_info().currsize == min(m, _grid.MAX_GRIDS)
    assert _grid._grid_axes.cache_info().maxsize == _grid.MAX_GRIDS


@pytest.mark.usefixtures("empty_grid_cache")
def test_shapes_that_differ_in_n3_get_their_own_phi_axis():
    # the key is the whole shape: (4, 4, 24) slices eta and theta from phi,
    # (4, 4, 8) and (4, 4, 12) do not, and each phi has its own n3 entries
    for n3 in (24, 8, 12, 24):
        eta, theta, phi = _grid._grid_axes((4, 4, n3))
        assert (eta.n, theta.n, phi.n) == (4, 4, n3)
        assert _tables(phi) == _tables(_grid._build_axis("phi", n3))
    assert _grid._grid_axes((4, 4))[2] is _grid._DEAD_AXIS


@pytest.mark.parametrize("shape", [(4, 4, 24), (3, 5, 8), (6, 7), (9,)])
def test_cached_tables_refuse_in_place_writes(shape):
    # every table of a cached grid, its 2^-SCALE roundings, phi's slices and
    # the shared dead axis included, is read-only: the in-place shifts raise
    # and change nothing
    for ax in (*_grid._grid_axes(shape), _grid._DEAD_AXIS):
        before = _tables(ax)
        for t in (t for pair in (ax.sin, ax.cos, ax.w, *ax.fixed) for t in pair or ()):
            with pytest.raises(ValueError, match="read-only"):
                _grid._shr_ceil(t, 3)
            with pytest.raises(ValueError, match="read-only"):
                _grid._shr_floor(t, 3)
        assert _tables(ax) == before
    assert not _grid._ZERO.flags.writeable

"""Builtin integrands with hand-derived Lipschitz and bound constants.

Free-form expressions are deliberately not supported: every integrand needs a
certified modulus, so the registry carries them per function and group.
Lipschitz constants are with respect to the group's path metric:

* ``abs-sum`` |w|+|x|+|y|+|z| on the unit 3-sphere: the gradient is a sign
  vector of norm 2 whose radial component equals the function value (>= 1 on
  the sphere), so the tangential part is at most sqrt(3) <= 7/4.
* ``w2`` w^2: tangential gradient 2|w| sqrt(1-w^2) <= 1.
* ``trace`` on SO(3) through the cover, trace = 4 w^2 - 1: tangential
  gradient 8 |w| sqrt(1-w^2) <= 4 (evenness makes the SU(2) constant valid
  for the quotient metric as well).
* circle functions built from cos/sin(2 pi t): slope <= 2 pi <= 13/2.
* ``sign`` on O(3): values +-1 at sign distance 1, so 2-Lipschitz.
"""

from __future__ import annotations

from fractions import Fraction

from ._grid import fp_abs, fp_mul, fp_mul_nn, fp_square
from .exactreal import (
    Dyadic, Interval, ZERO, ONE, fraction_ceil_to, fraction_floor_to, sincos_pi,
)
from .groups import Group, Versor, circle_normalize
from .quadrature import IntegrandSpec, lift_circle_function

TWO_PI_L = Dyadic(13, -1)       # 6.5 >= 2*pi


def _const_interval(v: int):
    return Interval.from_int(v)


# ---------------------------------------------------------------------------
# SU(2) / SO(3) / O(3) / U(2) integrands
# ---------------------------------------------------------------------------

def _one_spec(kind: str) -> IntegrandSpec:
    def ev(element, wp):
        return _const_interval(1)

    def fixed(a, b, c, d, scale, **kw):
        return (1 << scale, 1 << scale)

    return IntegrandSpec(ev, ZERO, ONE, name="one", fixed_eval=fixed, uses="a")


def _abs_sum_spec() -> IntegrandSpec:
    def ev(q: Versor, wp):
        return (q.a.abs() + q.b.abs() + q.c.abs() + q.d.abs()).round_out(wp)

    def fixed(a, b, c, d, scale, **kw):
        al, ah = fp_abs(*a)
        bl, bh = fp_abs(*b)
        cl, ch = fp_abs(*c)
        dl, dh = fp_abs(*d)
        return al + bl + cl + dl, ah + bh + ch + dh

    def polar(ce, b, sest, cphi, sphi, scale):
        # |w| + |x| is constant along phi; |y| + |z| = sin(eta)sin(theta)
        # (|cos phi| + |sin phi|), all nonneg
        al, ah = fp_abs(*ce)
        bl, bh = fp_abs(*b)
        ul, uh = fp_abs(*cphi)
        vl, vh = fp_abs(*sphi)
        row = (ul + vl, uh + vh)
        lo, hi = fp_mul_nn((sest[0][..., None], sest[1][..., None]), row, scale)
        return al + bl, ah + bh, lo, hi

    return IntegrandSpec(ev, Dyadic(7, -2), Dyadic(2), name="abs-sum",
                         fixed_eval=fixed, fixed_eval_polar=polar, uses="abcd")


def _w2_spec() -> IntegrandSpec:
    def ev(q: Versor, wp):
        return q.a.square().round_out(wp)

    def fixed(a, b, c, d, scale, **kw):
        return fp_square(a, scale)

    return IntegrandSpec(ev, ONE, ONE, name="w2", fixed_eval=fixed, uses="a")


def _trace_spec() -> IntegrandSpec:
    # trace(R(q)) = 3 - 4(x^2+y^2+z^2) = 4 w^2 - 1
    four = Interval.from_int(4)
    one = Interval.from_int(1)

    def ev(q: Versor, wp):
        return (four * q.a.square() - one).round_out(wp)

    def fixed(a, b, c, d, scale, **kw):
        sl, sh = fp_square(a, scale)
        u = 1 << scale
        return 4 * sl - u, 4 * sh - u

    return IntegrandSpec(ev, Dyadic(4), Dyadic(3), name="trace",
                         fixed_eval=fixed, uses="a")


def _sign_spec() -> IntegrandSpec:
    def ev(element, wp):
        _q, s = element
        return _const_interval(1 if s == 0 else -1)

    def fixed(a, b, c, d, scale, sign_index=0, **kw):
        v = (1 << scale) if sign_index == 0 else -(1 << scale)
        return (v, v)

    return IntegrandSpec(ev, Dyadic(2), ONE, name="sign",
                         fixed_eval=fixed, uses="a")


# ---------------------------------------------------------------------------
# circle integrands (elements are dyadics t in [0,1))
# ---------------------------------------------------------------------------

def _circle_spec(name: str) -> IntegrandSpec:
    if name == "one":
        def ev(t, wp):
            return _const_interval(1)

        def evc(re, im, wp):
            return _const_interval(1)

        def cfx(re, im, scale):
            return (1 << scale, 1 << scale)

        spec = IntegrandSpec(ev, ZERO, ONE, name="one")
    elif name == "re":
        def ev(t, wp):
            return sincos_pi(2 * t.as_fraction(), wp)[1]

        def evc(re, im, wp):
            return re

        def cfx(re, im, scale):
            return re

        spec = IntegrandSpec(ev, TWO_PI_L, ONE, name="re")
    elif name == "re2":
        def ev(t, wp):
            return sincos_pi(2 * t.as_fraction(), wp)[1].square().round_out(wp)

        def evc(re, im, wp):
            return re.square()

        def cfx(re, im, scale):
            return fp_square(re, scale)

        spec = IntegrandSpec(ev, TWO_PI_L, ONE, name="re2")
    elif name == "im":
        def ev(t, wp):
            return sincos_pi(2 * t.as_fraction(), wp)[0]

        def evc(re, im, wp):
            return im

        def cfx(re, im, scale):
            return im

        spec = IntegrandSpec(ev, TWO_PI_L, ONE, name="im")
    elif name == "abs-re":
        def ev(t, wp):
            return sincos_pi(2 * t.as_fraction(), wp)[1].abs()

        def evc(re, im, wp):
            return re.abs()

        def cfx(re, im, scale):
            return fp_abs(*re)

        spec = IntegrandSpec(ev, TWO_PI_L, ONE, name="abs-re")
    else:
        raise KeyError(name)
    spec.eval_complex = evc
    spec.complex_fixed = cfx
    return spec


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_CIRCLE_NAMES = ("one", "re", "re2", "im", "abs-re")


def builtin_names(kind: str):
    if kind == "circle":
        return list(_CIRCLE_NAMES)
    if kind == "su2":
        return ["one", "abs-sum", "w2"] + [f"lift:{n}" for n in _CIRCLE_NAMES]
    if kind == "so3":
        return ["one", "trace"]
    if kind == "o3":
        return ["one", "sign"]
    if kind == "u2":
        return ["one"]
    if kind == "finite" or kind == "torus":
        return ["one"]
    return []


def builtin_integrand(name: str, kind: str) -> IntegrandSpec:
    """Find the builtin integrand ``name`` for a group of the given kind."""
    if name not in builtin_names(kind):
        raise KeyError(f"no builtin function {name!r} on {kind}")
    if name == "one":
        if kind == "circle":
            return _circle_spec("one")
        return _one_spec(kind)
    if kind == "circle":
        return _circle_spec(name)
    if name == "abs-sum":
        return _abs_sum_spec()
    if name == "w2":
        return _w2_spec()
    if name == "trace":
        return _trace_spec()
    if name == "sign":
        return _sign_spec()
    if name.startswith("lift:"):
        return lift_circle_function(_circle_spec(name[5:]))
    raise KeyError(name)


def values_integrand(values, M=None) -> IntegrandSpec:
    """Finite-group integrand from a value table (one rational per element)."""
    vals = [Fraction(v) for v in values]
    bound = max((abs(v) for v in vals), default=Fraction(0))
    if M is not None:
        bound = max(bound, Fraction(M))

    def ev(i, wp):
        return Interval(fraction_floor_to(vals[i], wp + 4),
                        fraction_ceil_to(vals[i], wp + 4))

    bd = fraction_ceil_to(bound if bound > 0 else Fraction(1), 24)
    return IntegrandSpec(ev, Dyadic(2) * bd, bd, name="values")


# ---------------------------------------------------------------------------
# translations and inversion (for the invariance checks)
# ---------------------------------------------------------------------------

def _versor_fixed_components(g: Versor, scale: int):
    comps = []
    for iv in g.components():
        comps.append((iv.lo.scaled_floor(scale), iv.hi.scaled_ceil(scale)))
    return comps


def _quat_mul_fixed(x, y, scale):
    """Fixed-point quaternion product of component interval quadruples."""
    a, b, c, d = x
    e, f, g, h = y
    def m(u, v):
        return fp_mul(u, v, scale)
    def add(u, v):
        return u[0] + v[0], u[1] + v[1]
    def sub(u, v):
        return u[0] - v[1], u[1] - v[0]
    w = sub(sub(sub(m(a, e), m(b, f)), m(c, g)), m(d, h))
    i = sub(add(add(m(a, f), m(b, e)), m(c, h)), m(d, g))
    j = add(add(sub(m(a, g), m(b, h)), m(c, e)), m(d, f))
    k = add(sub(add(m(a, h), m(b, g)), m(c, f)), m(d, e))
    return w, i, j, k


def translate_su2_integrand(spec: IntegrandSpec, g: Versor, G: Group,
                            side: str = "left") -> IntegrandSpec:
    """f(g o x) (or f(x o g)); Lipschitz/bound survive by bi-invariance."""
    wp_g = 48

    def ev(q, wp):
        prod = g.multiply(q, wp) if side == "left" else q.multiply(g, wp)
        return spec.eval(prod, wp)

    fixed = None
    if spec.fixed_eval is not None:
        base = spec.fixed_eval

        def fixed(a, b, c, d, scale, **kw):
            gf = _versor_fixed_components(g, scale)
            if side == "left":
                w, i, j, k = _quat_mul_fixed(gf, (a, b, c, d), scale)
            else:
                w, i, j, k = _quat_mul_fixed((a, b, c, d), gf, scale)
            return base(w, i, j, k, scale, **kw)

    # a translate mixes every quaternion component into every other, so the
    # grid must stay fully three-dimensional whatever the base f reads
    return IntegrandSpec(ev, spec.lipschitz, spec.bound,
                         name=f"{spec.name}o{side}", fixed_eval=fixed,
                         uses="abcd")


def invert_su2_integrand(spec: IntegrandSpec) -> IntegrandSpec:
    """f(x^-1); on versors inversion is conjugation (negate the vector part)."""
    def ev(q, wp):
        return spec.eval(q.conjugate(), wp)

    fixed = None
    if spec.fixed_eval is not None:
        base = spec.fixed_eval

        def fixed(a, b, c, d, scale, **kw):
            def neg(u):
                return -u[1], -u[0]
            return base(a, neg(b), neg(c), neg(d), scale, **kw)

    return IntegrandSpec(ev, spec.lipschitz, spec.bound,
                         name=f"{spec.name}^-1", fixed_eval=fixed,
                         uses=spec.uses)


def translate_circle_integrand(spec: IntegrandSpec, g: Dyadic) -> IntegrandSpec:
    """f(g + t mod 1) on the circle; exact translation of the argument."""

    def ev(t, wp):
        return spec.eval(circle_normalize(t + g), wp)

    return IntegrandSpec(ev, spec.lipschitz, spec.bound,
                         name=f"{spec.name}+{g}")


def invert_circle_integrand(spec: IntegrandSpec) -> IntegrandSpec:
    def ev(t, wp):
        return spec.eval(circle_normalize(-t), wp)

    return IntegrandSpec(ev, spec.lipschitz, spec.bound,
                         name=f"{spec.name}^-1")

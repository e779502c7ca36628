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

from ._grid import GUARD, SCALE, fp_abs, fp_mul, fp_square
from .exactreal import (
    Dyadic, Interval, ZERO, ONE, fraction_ceil_to, fraction_floor_to, sincos_pi,
)
from .groups import Group, Versor, circle_normalize
from .quadrature import IntegrandSpec, lift_circle_function

TWO_PI_L = Dyadic(13, -1)       # 6.5 >= 2*pi


# ---------------------------------------------------------------------------
# SU(2) / SO(3) / O(3) / U(2) integrands
# ---------------------------------------------------------------------------

def _one_spec() -> IntegrandSpec:
    def ev(element, wp):
        return Interval.from_int(1)

    def fixed(a, b, c, d, scale, **kw):
        return (1 << scale, 1 << scale)

    return IntegrandSpec(ev, ZERO, ONE, name="one", fixed_eval=fixed, uses="a")


def _abs_sum_spec() -> IntegrandSpec:
    def ev(q: Versor, wp):
        return (q.a.abs() + q.b.abs() + q.c.abs() + q.d.abs()).round_out(wp)

    return IntegrandSpec(ev, Dyadic(7, -2), Dyadic(2), name="abs-sum",
                         form=(0, tuple((k, "abs", 1) for k in range(4))),
                         uses="abcd")


def _w2_spec() -> IntegrandSpec:
    def ev(q: Versor, wp):
        return q.a.square().round_out(wp)

    return IntegrandSpec(ev, ONE, ONE, name="w2", form=(0, ((0, "square", 1),)),
                         uses="a")


def _trace_spec() -> IntegrandSpec:
    # trace(R(q)) = 3 - 4(x^2+y^2+z^2) = 4 w^2 - 1
    four = Interval.from_int(4)
    one = Interval.from_int(1)

    def ev(q: Versor, wp):
        return (four * q.a.square() - one).round_out(wp)

    return IntegrandSpec(ev, Dyadic(4), Dyadic(3), name="trace",
                         form=(-1, ((0, "square", 4),)), uses="a")


def _sign_spec() -> IntegrandSpec:
    def ev(element, wp):
        _q, s = element
        return Interval.from_int(1 if s == 0 else -1)

    def fixed(a, b, c, d, scale, sign_index=0, **kw):
        v = (1 << scale) if sign_index == 0 else -(1 << scale)
        return (v, v)

    return IntegrandSpec(ev, Dyadic(2), ONE, name="sign",
                         fixed_eval=fixed, uses="a")


# ---------------------------------------------------------------------------
# circle integrands (elements are dyadics t in [0,1))
# ---------------------------------------------------------------------------

# name -> (f at (re, im) enclosures, its fixed-point form at ``scale`` bits)
_CIRCLE_FORMS = {
    "one": (lambda re, im, wp: Interval.from_int(1),
            lambda re, im, scale: (1 << scale, 1 << scale)),
    "re": (lambda re, im, wp: re, lambda re, im, scale: re),
    "re2": (lambda re, im, wp: re.square().round_out(wp),
            lambda re, im, scale: fp_square(re, scale)),
    "im": (lambda re, im, wp: im, lambda re, im, scale: im),
    "abs-re": (lambda re, im, wp: re.abs(),
               lambda re, im, scale: fp_abs(*re)),
}


def _circle_spec(name: str) -> IntegrandSpec:
    evc, cfx = _CIRCLE_FORMS[name]

    def ev(t, wp):
        s, c = sincos_pi(2 * t.as_fraction(), wp)
        return evc(c, s, wp)

    return IntegrandSpec(ev, ZERO if name == "one" else TWO_PI_L, ONE, name=name,
                         eval_complex=evc, complex_fixed=cfx)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# group kind -> builtin name -> factory of a fresh IntegrandSpec
_BUILTINS = {
    "circle": {n: lambda n=n: _circle_spec(n) for n in _CIRCLE_FORMS},
    "su2": {"one": _one_spec, "abs-sum": _abs_sum_spec, "w2": _w2_spec,
            **{f"lift:{n}": lambda n=n: lift_circle_function(_circle_spec(n))
               for n in _CIRCLE_FORMS}},
    "so3": {"one": _one_spec, "trace": _trace_spec},
    "o3": {"one": _one_spec, "sign": _sign_spec},
    "u2": {"one": _one_spec},
    "finite": {"one": _one_spec},
    "torus": {"one": _one_spec},
}


def builtin_names(kind: str):
    return list(_BUILTINS.get(kind, ()))


def builtin_integrand(name: str, kind: str) -> IntegrandSpec:
    """Find the builtin integrand ``name`` for a group of the given kind."""
    try:
        factory = _BUILTINS[kind][name]
    except KeyError:
        raise KeyError(f"no builtin function {name!r} on {kind}") from None
    return factory()


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


def _neg(u):
    return -u[1], -u[0]


def _translate_premap(premap, g: Versor, side: str):
    """M L_g (or M R_g) for the pre-map M.  Left and right multiplication
    matrices transpose to multiplication by conj(g), so row k of M L_g is
    the quaternion conj(g) (row k of M), and of M R_g it is (row k of M)
    conj(g).  On the identity's rows, whose entries are 0 or 2^SCALE, every
    product is exact; composing onto an earlier pre-map rounds outward."""
    gc = [(iv.lo.scaled_floor(SCALE), iv.hi.scaled_ceil(SCALE))
          for iv in g.conjugate().components()]
    return tuple(
        tuple((int(lo), int(hi)) for lo, hi in (
            _quat_mul_fixed(gc, row, SCALE) if side == "left"
            else _quat_mul_fixed(row, gc, SCALE)))
        for row in premap)


def _invert_premap(premap):
    """M D, D = diag(1, -1, -1, -1): columns 1-3 of M negated, exactly."""
    return tuple((row[0], *map(_neg, row[1:])) for row in premap)


def translate_su2_integrand(spec: IntegrandSpec, g: Versor, G: Group,
                            side: str = "left") -> IntegrandSpec:
    """f(g o x) (or f(x o g)); Lipschitz/bound survive by bi-invariance.

    The vectorized form is ``spec.fixed_eval`` behind the pre-map M L_g (or
    M R_g), M being ``spec``'s own (``_translate_premap``).
    """
    def ev(q, wp):
        prod = g.multiply(q, wp) if side == "left" else q.multiply(g, wp)
        return spec.eval(prod, wp)

    # a translate mixes every quaternion component into every other, so the
    # grid must stay fully three-dimensional whatever the base f reads; a
    # component form follows the map, which changes only M
    return IntegrandSpec(ev, spec.lipschitz, spec.bound,
                         name=f"{spec.name}o{side}", fixed_eval=spec.fixed_eval,
                         form=spec.form, premap=_translate_premap(spec.premap, g, side),
                         uses="abcd")


def invert_su2_integrand(spec: IntegrandSpec) -> IntegrandSpec:
    """f(x^-1); on versors inversion is conjugation (negate the vector part).

    The vectorized form and the component form are ``spec``'s behind M D
    (``_invert_premap``).
    """
    def ev(q, wp):
        return spec.eval(q.conjugate(), wp)

    return IntegrandSpec(ev, spec.lipschitz, spec.bound,
                         name=f"{spec.name}^-1", fixed_eval=spec.fixed_eval,
                         form=spec.form, premap=_invert_premap(spec.premap),
                         uses=spec.uses)


def translate_circle_integrand(spec: IntegrandSpec, g: Dyadic) -> IntegrandSpec:
    """f(g + t mod 1) on the circle; exact translation of the argument.

    U(1) is SU(2)'s (a, b) plane, so t -> g + t is left multiplication by
    the versor cos 2 pi g + i sin 2 pi g, whose brackets ``sincos_pi`` gives
    at 2^-``_grid._G``: ``complex_fixed`` is ``spec``'s behind the pre-map M
    L_g (``_translate_premap``), which the circle rule folds into its table.
    """
    def ev(t, wp):
        return spec.eval(circle_normalize(t + g), wp)

    s, c = sincos_pi(2 * g.as_fraction(), GUARD)
    v = Versor(c, s, *[Interval.point(ZERO)] * 2)
    return IntegrandSpec(ev, spec.lipschitz, spec.bound, name=f"{spec.name}+{g}",
                         complex_fixed=spec.complex_fixed,
                         premap=_translate_premap(spec.premap, v, "left"))


def invert_circle_integrand(spec: IntegrandSpec) -> IntegrandSpec:
    """f(-t mod 1): conjugation in the (a, b) plane, so ``complex_fixed`` is
    ``spec``'s behind the pre-map M D (``_invert_premap``)."""
    def ev(t, wp):
        return spec.eval(circle_normalize(-t), wp)

    return IntegrandSpec(ev, spec.lipschitz, spec.bound, name=f"{spec.name}^-1",
                         complex_fixed=spec.complex_fixed,
                         premap=_invert_premap(spec.premap))

"""Specialized Haar integration on the classical groups.

U(1) integrates as an ordinary interval-certified midpoint rule on [0, 1);
SU(2) goes through the quaternion spherical parameterization (see ``_grid``);
SO(3) integrates through the double cover, O(3) as two SO(3) halves, and U(2)
as an iterated SU(2) x U(1) integral.  All routines return a ``CertifiedValue``
carrying the requested absolute error bound 2^-n, or raise ``NoConvergence``
when the certified budget cannot be met within the effort caps.

Quadrature is composite midpoint with Lipschitz error control throughout: the
integrands are only assumed Lipschitz (the canonical test function
|w|+|x|+|y|+|z| is not smooth), so no higher-order rule could be certified
from the declared data.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._grid import fp_add, fp_div_pos, fp_sqrt, fp_square, su2_grid_integral
from .exactreal import (
    CertifiedValue, Dyadic, Interval, InvalidBound, NoConvergence, ZERO,
    cos_enclosure, fraction_ceil_to, fraction_floor_to, sin_enclosure,
    sqrt_enclosure,
)
from .groups import Versor

__all__ = [
    "ParamPoint", "IntegrandSpec", "InvalidBound",
    "psi", "jacobian",
    "haar_integral_su2", "haar_integral_circle", "haar_integral_derived",
    "lift_circle_function",
]


class ParamPoint:
    """Spherical parameters (eta, theta, phi) in [0,pi) x [0,pi) x [0,2pi)."""

    __slots__ = ("eta", "theta", "phi")

    def __init__(self, eta: Interval, theta: Interval, phi: Interval):
        self.eta = eta
        self.theta = theta
        self.phi = phi


class IntegrandSpec:
    """A certified integrand: evaluator plus declared Lipschitz/bound data.

    eval_fn(element, working_precision) -> Interval encloses f; ``lipschitz``
    bounds |f(x)-f(y)| / d(x,y) in the group's path metric and ``bound``
    dominates |f|.  ``fixed_eval`` is an optional vectorized fixed-point form
    used by the SU(2) grid engine; ``uses`` declares which quaternion
    components the function reads ('a', 'ab' or 'abcd') so the engine can drop
    dead grid axes: the other components reach both ``fixed_eval`` and
    ``eval_fn`` as exact 0.  ``fixed_eval_polar(ce, b, sest, cphi, sphi,
    scale)`` is an optional faster form of ``fixed_eval`` taking cos(eta),
    sin(eta)cos(theta), sin(eta)sin(theta) as arrays broadcastable to
    (rows, theta) and cos/sin(phi) as (phi,) arrays; it returns (base_lo,
    base_hi, lo, hi) enclosing f by base + [lo, hi], base (rows, theta) being
    the part constant along phi and lo, hi of shape (rows, theta, phi).  Circle
    integrands may carry ``eval_complex`` / ``complex_fixed`` evaluating f at
    a unit complex number given as (re, im) enclosures; the lift to SU(2)
    requires it.
    """

    def __init__(self, eval_fn, lipschitz: Dyadic, bound: Dyadic, *,
                 name: str = "", fixed_eval=None, fixed_eval_polar=None,
                 uses: str = "abcd", eval_complex=None, complex_fixed=None):
        self.eval = eval_fn
        self.lipschitz = lipschitz
        self.bound = bound
        self.name = name
        self.fixed_eval = fixed_eval
        self.fixed_eval_polar = fixed_eval_polar
        self.uses = uses
        self.eval_complex = eval_complex
        self.complex_fixed = complex_fixed


# ---------------------------------------------------------------------------
# the parameterization and its Jacobian
# ---------------------------------------------------------------------------

def psi(p: ParamPoint, wp: int) -> Versor:
    """Psi(eta, theta, phi) = cos(eta) + i sin(eta)cos(theta)
    + j sin(eta)sin(theta)cos(phi) + k sin(eta)sin(theta)sin(phi)."""
    se = sin_enclosure(p.eta, wp + 2)
    ce = cos_enclosure(p.eta, wp + 2)
    st = sin_enclosure(p.theta, wp + 2)
    ct = cos_enclosure(p.theta, wp + 2)
    sf = sin_enclosure(p.phi, wp + 2)
    cf = cos_enclosure(p.phi, wp + 2)
    sest = se * st
    return Versor(ce.round_out(wp), (se * ct).round_out(wp),
                  (sest * cf).round_out(wp), (sest * sf).round_out(wp))


def jacobian(eta: Interval, theta: Interval, wp: int) -> Interval:
    """|det Psi'| = sin^2(eta) sin(theta); nonnegative on the parameter box."""
    v = sin_enclosure(eta, wp + 2).square() * sin_enclosure(theta, wp + 2)
    lo = v.lo if v.lo.sign() > 0 else ZERO
    hi = v.hi if v.hi >= lo else lo
    return Interval(lo, hi).round_out(wp)


# ---------------------------------------------------------------------------
# U(1)
# ---------------------------------------------------------------------------

def haar_integral_circle(f: IntegrandSpec, n: int,
                         max_points: int = 1 << 22) -> CertifiedValue:
    """Certified composite midpoint rule for the Haar integral on U(1).

    Elements are circle coordinates t in [0,1); the rule uses N = 2^k dyadic
    midpoints with N chosen so the Lipschitz term L/(4N) fits in half the
    error budget, the other half covering the evaluation enclosures.
    """
    L = f.lipschitz.as_fraction()
    budget = Fraction(1, 1 << (n + 1))
    N = 1
    while L / (4 * N) > budget:
        N *= 2
        if N > max_points:
            raise NoConvergence(f"circle rule needs > {max_points} points")
    wp = n + 6
    lo = Fraction(0)
    hi = Fraction(0)
    for k in range(N):
        t = Dyadic(2 * k + 1, -(N.bit_length() - 1) - 1)
        fv = f.eval(t, wp)
        lo += fv.lo.as_fraction()
        hi += fv.hi.as_fraction()
    lo = lo / N - L / (4 * N)
    hi = hi / N + L / (4 * N)
    enc = Interval(fraction_floor_to(lo, n + 8), fraction_ceil_to(hi, n + 8))
    if enc.width() > Dyadic(1, -(n - 1)):
        raise NoConvergence("circle enclosure wider than the certificate")
    return CertifiedValue(enc.midpoint(), -n)


# ---------------------------------------------------------------------------
# SU(2)
# ---------------------------------------------------------------------------

def haar_integral_su2(f: IntegrandSpec, n: int, *,
                      max_cells: int = 10 ** 11) -> CertifiedValue:
    """Certified Haar integral over SU(2) = H_1 via the spherical grid."""
    enc = su2_grid_integral(f, n, max_cells=max_cells)
    return CertifiedValue(enc.midpoint(), -n)


# ---------------------------------------------------------------------------
# derived groups
# ---------------------------------------------------------------------------

def _restrict(f: IntegrandSpec, tag, keyword: str) -> IntegrandSpec:
    """f on the SU(2) factor with the other factor fixed at ``tag``, which
    ``fixed_eval`` receives as the keyword argument ``keyword``."""
    def ev(q, wp):
        return f.eval((q, tag), wp)

    fixed = None
    if f.fixed_eval is not None:
        base = f.fixed_eval

        def fixed(a, b, c, d, scale):
            return base(a, b, c, d, scale, **{keyword: tag})

    return IntegrandSpec(ev, f.lipschitz, f.bound, name=f"{f.name}|{keyword}={tag}",
                         fixed_eval=fixed, uses=f.uses)


def haar_integral_derived(kind: str, f: IntegrandSpec, n: int, *,
                          max_cells: int = 10 ** 11) -> CertifiedValue:
    """Haar integrals on SO(3), O(3), U(2) via cover/product reductions.

    so3: elements are versors (the double cover pushes Haar forward, and the
    quotient metric only shrinks distances so the declared Lipschitz constant
    remains valid).  o3: average of the two sign components.  u2: iterated
    integral, outer circle midpoint rule over the U(1) factor with the same
    Lipschitz control (moving the circle coordinate moves a U(2) element by
    exactly the circle distance in the max metric).
    """
    if kind == "so3":
        return haar_integral_su2(f, n, max_cells=max_cells)
    if kind == "o3":
        plus = haar_integral_su2(_restrict(f, 0, "sign_index"), n + 1,
                                 max_cells=max_cells)
        minus = haar_integral_su2(_restrict(f, 1, "sign_index"), n + 1,
                                  max_cells=max_cells)
        return CertifiedValue((plus.value + minus.value).half(), -n)
    if kind == "u2":
        L = f.lipschitz.as_fraction()
        budget = Fraction(1, 1 << (n + 1))
        N = 1
        while L / (4 * N) > budget:
            N *= 2
            if N > 1 << 12:
                raise NoConvergence("u2 outer rule needs too many circle points")
        total = ZERO
        for k in range(N):
            t = Dyadic(2 * k + 1, -(N.bit_length() - 1) - 1)
            inner = haar_integral_su2(_restrict(f, t, "circle_point"), n + 1,
                                      max_cells=max_cells)
            total = total + inner.value
        # mean of N values, each within 2^-(n+1); plus the outer midpoint term
        mean = Dyadic(total.m, total.e - (N.bit_length() - 1))
        return CertifiedValue(mean, -n)
    raise ValueError(f"no derived Haar integral for kind {kind!r}")


# ---------------------------------------------------------------------------
# the circle-to-SU(2) lift
# ---------------------------------------------------------------------------

def lift_circle_function(f: IntegrandSpec) -> IntegrandSpec:
    """Lift a U(1) integrand to H_1: q -> f((a+bi)/|a+bi|) * |a+bi|.

    Continuously extended by 0 where a^2 + b^2 vanishes.  The lift depends
    only on the (a, b) components, is bounded by f.bound, and is Lipschitz
    with constant f.bound + f.lipschitz / 4: splitting any increment into a
    radius move (slope bound M) and a phase move (arc length (re,im)-distance
    over 2 pi rho, and chord >= (2/pi) arc shrinks it to L/4).
    """
    if f.eval_complex is None:
        raise ValueError("lifting needs a circle integrand with eval_complex")
    M = f.bound
    Mf = M.as_fraction()
    lift_L = M + Dyadic(f.lipschitz.m, f.lipschitz.e - 2)
    eval_complex = f.eval_complex

    def ev(q: Versor, wp: int) -> Interval:
        rho2 = q.a.square() + q.b.square()
        rho = sqrt_enclosure(rho2, wp + 4)
        tiny = Dyadic(1, -(wp // 2))
        if rho.lo <= tiny:
            bound = rho.hi * M
            return Interval(-bound, bound)
        u_re = q.a.divide(rho, wp + 4)
        u_im = q.b.divide(rho, wp + 4)
        val = eval_complex(u_re, u_im, wp + 4)
        return (val * rho).round_out(wp)

    fixed = None
    if f.complex_fixed is not None:
        cfixed = f.complex_fixed

        def fixed(a, b, c, d, scale, **_kw):
            rho2 = fp_add(fp_square(a, scale), fp_square(b, scale))
            rho = fp_sqrt(rho2, scale)
            m_fx = (Mf.numerator << scale) // Mf.denominator + 1
            tiny = 1 << max(1, scale // 2)
            safe = rho[0] > tiny
            rlo = np.where(safe, rho[0], 1)
            div = (rlo, np.maximum(rho[1], rlo))
            # clamp so the unsafe lanes (replaced below) cannot overflow in
            # whatever arithmetic the circle function performs on them
            cap = 2 << scale
            u_re = tuple(np.clip(v, -cap, cap) for v in fp_div_pos(a, div, scale))
            u_im = tuple(np.clip(v, -cap, cap) for v in fp_div_pos(b, div, scale))
            vlo, vhi = cfixed(u_re, u_im, scale)
            lo = np.minimum(vlo * rho[0], vlo * rho[1]) >> scale
            hi = -((-np.maximum(vhi * rho[0], vhi * rho[1])) >> scale)
            fall_lo = -((rho[1] * m_fx) >> scale) - 1
            fall_hi = ((rho[1] * m_fx) >> scale) + 1
            return (np.where(safe, lo, fall_lo).astype(np.int64),
                    np.where(safe, hi, fall_hi).astype(np.int64))

    return IntegrandSpec(ev, lift_L, M, name=f"lift:{f.name}",
                         fixed_eval=fixed, uses="ab")

"""Specialized Haar integration on the classical groups.

U(1) integrates as a certified midpoint rule on [0, 1), summed on ints over
the SU(2) grid's phi table of (cos, sin) at the N midpoints: the integrand's
``complex_fixed`` is required there (translations and the inversion forward
it), and the 2^-n budget splits into the Lipschitz term L/(4N), the table's
rounding at 2^-SCALE and the final rounding at 2^-(n+8).  SU(2) goes through
the quaternion spherical parameterization (see ``_grid``); SO(3) integrates
through the double cover; O(3) and U(2), products with {+-1} and U(1), as
one SU(2) integral of the mean over the second factor.  All routines
return a ``CertifiedValue`` carrying the requested absolute error bound
2^-n, or raise ``NoConvergence`` when the certified budget cannot be met
within the effort caps.

Quadrature is composite midpoint with Lipschitz error control throughout: the
integrands are only assumed Lipschitz (the canonical test function
|w|+|x|+|y|+|z| is not smooth), so no higher-order rule could be certified
from the declared data.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._grid import (
    _G, IDENTITY_PREMAP, MAX_CELLS, SCALE, _check_premap, _combine, _shift_out,
    _sincos_table, form_fixed, fp_add, fp_div_pos, fp_sqrt, fp_square,
    su2_grid_integral,
)
from .exactreal import (
    CertifiedValue, ConfigError, Dyadic, Interval, InvalidBound, NoConvergence,
    sqrt_enclosure,
)
from .groups import Versor

__all__ = [
    "IntegrandSpec", "InvalidBound", "haar_integral_su2", "haar_integral_circle",
    "haar_integral_derived", "lift_circle_function", "QUADRATURE_KINDS",
]

QUADRATURE_KINDS = ("circle", "su2", "so3", "o3", "u2")


class IntegrandSpec:
    """A certified integrand: evaluators plus declared Lipschitz/bound data.

    ``lipschitz`` bounds |f(x)-f(y)| / d(x,y) in the group's path metric and
    ``bound`` dominates |f|.  Each route reads one form of f and refuses a
    spec without it (``ConfigError``): the SU(2)-family grid ``fixed_eval``
    (or ``form``), the circle rule ``complex_fixed``, and the generic route
    eval_fn(element, working_precision) -> Interval.  ``uses`` declares
    which quaternion components f reads ('a', 'ab' or 'abcd') so the grid
    can drop dead axes: the others reach ``fixed_eval`` as exact 0.

    ``premap`` is a 4x4 matrix M, ``premap[k][j]`` = M_kj as an outward
    (lo, hi) pair of python ints at ``_grid.SCALE`` fraction bits, entries in
    [-2, 2], by default the identity: the grid engine calls ``fixed_eval`` on
    M x instead of on the grid versor x (``_grid`` folds M into its axis
    tables).  It belongs to every fixed-point form, ``fixed_eval``, ``form``
    and ``complex_fixed``, and to no other: ``eval_fn`` evaluates the whole
    integrand on x itself.  U(1) is SU(2)'s (a, b) plane, so the circle rule
    applies rows 0-1 of M to (cos, sin) as (a, b).  Translations and the
    inversion are such maps (``functions``), so a wrapper that forwards a
    fixed-point form must forward ``premap`` too, or compose it with its own
    map; dropping it makes the rule certify a different function.

    ``form`` = (const, terms) optionally declares f(x) = const + sum coef *
    h((M x)_k) over terms (k, h, coef), h one of "abs", "square" and "id",
    const and coef ints below 2^16.  The grid then sweeps eta x theta cells
    with each cell's exact phi mean (``_grid``), and ``fixed_eval``, when not
    given, is derived from the form.  Translations and the inversion change
    M only, so they forward ``form`` with their pre-map; ``_average``, whose
    tags a form cannot read, drops it.

    Circle integrands carry ``complex_fixed(re, im, scale)``, f at unit
    complex numbers given as (lo, hi) int pairs at 2^-scale (numpy arrays),
    returning outward (lo, hi).  ``eval_complex`` is f at (re, im)
    ``Interval``s; the lift to SU(2) requires it and ``complex_fixed``.
    """

    def __init__(self, eval_fn, lipschitz: Dyadic, bound: Dyadic, *,
                 name: str = "", fixed_eval=None, form=None,
                 premap=IDENTITY_PREMAP, uses: str = "abcd", eval_complex=None,
                 complex_fixed=None):
        self.eval = eval_fn
        self.lipschitz = lipschitz
        self.bound = bound
        self.name = name
        if fixed_eval is None and form is not None:
            fixed_eval = form_fixed(form)
        self.fixed_eval = fixed_eval
        self.form = form
        self.premap = premap
        self.uses = uses
        self.eval_complex = eval_complex
        self.complex_fixed = complex_fixed


# ---------------------------------------------------------------------------
# U(1)
# ---------------------------------------------------------------------------

def _rule_size(L: Fraction, n: int, cap: int) -> int:
    """N = 2^k, the least power of two with L/(4N) <= 2^-(n+1), the midpoint
    rule's Lipschitz term for an L-Lipschitz function on U(1).  Refuses when
    N > cap."""
    N = 1 << max(0, -(-L * (1 << n + 1) // 4) - 1).bit_length()
    if N > cap:
        raise NoConvergence(f"circle midpoint rule needs N = {N} points for "
                            f"2^-{n}; over the effort cap of {cap}")
    return N


def _midpoints(L: Fraction, n: int, cap: int):
    """The N = ``_rule_size(L, n, cap)`` dyadic midpoints (2j+1)/(2N) of
    [0, 1)."""
    N = _rule_size(L, n, cap)
    return (Dyadic(2 * j + 1, -N.bit_length()) for j in range(N))


CIRCLE_BLOCK = 1 << 16     # table points per block of the circle rule


def _circle_blocks(N: int, block: int):
    """The numerators a = 2j+1 of the N = 2^k midpoint angles pi a/N, as
    int64 arrays of at most ``block`` (a power of two, >= 8) entries.

    One block holds them all when N <= block.  Else each block is a run of
    block/8 first-octant numerators 0 < a < N/4 with their images under the
    circle's symmetries x -> pi/2 -+ x, pi -+ x, 3pi/2 -+ x, 2pi - x: the
    blocks cover every midpoint once, and the images of a run reduce to the
    run's own |r|, so each block runs the Taylor series once per angle.
    """
    if N <= block:
        yield np.arange(1, 2 * N, 2)
        return
    h = N // 2
    for a0 in range(1, N // 4, block // 4):
        a = np.arange(a0, a0 + block // 4, 2)
        yield np.concatenate((a, h - a, h + a, N - a, N + a, 3 * h - a,
                              3 * h + a, 2 * N - a))


def _circle_sums(f: IntegrandSpec, N: int) -> tuple[int, int]:
    """Exact (sum lo, sum hi) at 2^-SCALE of f's enclosures at the N = 2^k
    midpoints t_j = (2j+1)/(2N).

    The angles 2 pi t_j = pi (2j+1)/N are the SU(2) grid's phi midpoints,
    so ``_sincos_table`` gives the (sin, cos) table as outward int64 pairs,
    one array run of the Taylor series per block over its distinct reduced
    angles (about N/8 lanes in all), and ``f.complex_fixed`` runs once per
    block of ``_circle_blocks``, on rows 0-1 of ``f.premap`` times (cos,
    sin), so the memory stays bounded at any N.  A point wholly outside
    [-bound, bound] proves the declared bound false.  The sums are taken in
    python ints, so no enclosure width can wrap them.
    """
    _check_premap(f.premap)
    m = f.bound.scaled_floor(SCALE)
    sum_lo = sum_hi = 0
    for a in _circle_blocks(N, CIRCLE_BLOCK):
        sin, cos = (_shift_out(t, _G - SCALE) for t in _sincos_table(a, N, _G))
        x = [_combine(row[:2], (cos, sin)) or (0, 0) for row in f.premap[:2]]
        lo, hi = (np.broadcast_to(np.asarray(v, dtype=np.int64), a.shape)
                  for v in f.complex_fixed(*x, SCALE))
        if int(lo.max()) > m or int(hi.min()) < -m:
            raise InvalidBound(f"circle integrand {f.name!r} escaped its "
                               f"declared bound {f.bound}")
        sum_lo += sum(lo.tolist())
        sum_hi += sum(hi.tolist())
    return sum_lo, sum_hi


def haar_integral_circle(f: IntegrandSpec, n: int,
                         max_points: int = 1 << 22) -> CertifiedValue:
    """Certified composite midpoint rule for the Haar integral on U(1).

    Elements are circle coordinates t in [0,1).  The rule reads
    ``f.complex_fixed`` on the table of the N = 2^k midpoints
    (``_circle_sums``); a spec that has only ``eval`` is refused.  The
    half-width 2^-n splits into the Lipschitz term L/(4N) <= 2^-(n+1)
    (``_rule_size``), the mean width of the point enclosures, whose table
    rounds at 2^-SCALE, and the final rounding at 2^-(n+8); when the last
    two pass their 2^-(n+1), the rule refuses.  The mean and L/(4N) are
    exact dyadics.
    """
    if f.complex_fixed is None:
        raise ConfigError(f"the circle rule reads complex_fixed, which "
                          f"{f.name or 'this integrand'!r} does not have")
    N = _rule_size(f.lipschitz.as_fraction(), n, max_points)
    lo, hi = _circle_sums(f, N)
    k = N.bit_length() - 1
    lip = f.lipschitz.scale2(-(k + 2))
    enc = Interval(Dyadic(lo, -(SCALE + k)) - lip,
                   Dyadic(hi, -(SCALE + k)) + lip).round_out(n + 8)
    if enc.width() > Dyadic(1, -(n - 1)):
        raise NoConvergence("circle enclosure wider than the certificate")
    return CertifiedValue(enc.midpoint(), -n)


# ---------------------------------------------------------------------------
# SU(2)
# ---------------------------------------------------------------------------

def haar_integral_su2(f: IntegrandSpec, n: int, *,
                      max_cells: int = MAX_CELLS) -> CertifiedValue:
    """Certified Haar integral over SU(2) = H_1 via the spherical grid."""
    enc = su2_grid_integral(f, n, max_cells=max_cells)
    return CertifiedValue(enc.midpoint(), -n)


# ---------------------------------------------------------------------------
# derived groups
# ---------------------------------------------------------------------------

def _average(f: IntegrandSpec, tags, keyword: str) -> IntegrandSpec:
    """The mean of f over the 2^k ``tags`` of the second factor, on the SU(2)
    factor, with f's Lipschitz constant and bound (a mean keeps both).
    ``fixed_eval`` passes each tag as ``keyword`` and adds the enclosures one
    at a time, each within 2^(62-k) so that the sum cannot wrap int64."""
    k = len(tags).bit_length() - 1

    def ev(q, wp):
        return sum((f.eval((q, t), wp) for t in tags[1:]),
                   f.eval((q, tags[0]), wp)).scale(Dyadic(1, -k))

    fixed = None
    if f.fixed_eval is not None:
        base, lim = f.fixed_eval, (1 << 62) >> k

        def fixed(a, b, c, d, scale):
            lo = hi = 0
            for t in tags:
                tlo, thi = base(a, b, c, d, scale, **{keyword: t})
                if np.min(tlo) < -lim or np.max(thi) > lim:
                    raise NoConvergence(f"enclosure at {keyword}={t} is past "
                                        f"2^{62 - k}: its mean would wrap int64")
                lo, hi = lo + tlo, hi + thi
            return lo >> k, -((-hi) >> k)

    return IntegrandSpec(ev, f.lipschitz, f.bound, name=f"mean:{f.name}",
                         fixed_eval=fixed, premap=f.premap, uses=f.uses)


def haar_integral_derived(kind: str, f: IntegrandSpec, n: int, *,
                          max_cells: int = MAX_CELLS) -> CertifiedValue:
    """Haar integral on any group kind in ``QUADRATURE_KINDS``.

    circle and su2 run their own rules (the circle rule takes at most
    min(max_cells, 2^22) points); the others make one SU(2) integral each.
    so3: elements are versors (the double cover pushes Haar forward, and the
    quotient metric only shrinks distances, so L stays valid).  o3: Haar
    measure on the signs is their mean, so this is exact.  u2: the integral
    of g(t) = int f(q, t) dq over U(1); moving t moves (q, t) by the circle
    distance in the max metric, so g is L-Lipschitz and the midpoint rule on
    N <= 2^12 points ts errs by L/(4N) <= 2^-(n+1); its value, the SU(2)
    integral of the mean of f(., t) over ts, is certified to 2^-(n+1).  The
    grid keeps its cell cap, each cell evaluating f once per tag.
    """
    if kind == "circle":
        return haar_integral_circle(f, n, max_points=min(max_cells, 1 << 22))
    if kind in ("su2", "so3"):
        return haar_integral_su2(f, n, max_cells=max_cells)
    if kind == "o3":
        return haar_integral_su2(_average(f, (0, 1), "sign_index"), n,
                                 max_cells=max_cells)
    if kind == "u2":
        ts = tuple(_midpoints(f.lipschitz.as_fraction(), n, 1 << 12))
        inner = haar_integral_su2(_average(f, ts, "circle_point"), n + 1,
                                  max_cells=max_cells)
        return CertifiedValue(inner.value, -n)
    raise ConfigError(f"quadrature does not handle {kind!r}; it covers "
                      f"{', '.join(QUADRATURE_KINDS)}")


# ---------------------------------------------------------------------------
# the circle-to-SU(2) lift
# ---------------------------------------------------------------------------

def lift_circle_function(f: IntegrandSpec) -> IntegrandSpec:
    """Lift a U(1) integrand to H_1: q -> f((a+bi)/|a+bi|) * |a+bi|.

    Continuously extended by 0 where a^2 + b^2 vanishes.  The lift depends
    only on the (a, b) components, is bounded by f.bound, and is Lipschitz
    with constant f.bound + f.lipschitz / 4: splitting any increment into a
    radius move (slope bound M) and a phase move (arc length (re,im)-distance
    over 2 pi rho, and chord >= (2/pi) arc shrinks it to L/4).  It reads
    (a, b) itself, so a spec with a pre-map is refused.
    """
    if f.eval_complex is None or f.complex_fixed is None or \
            f.premap != IDENTITY_PREMAP:
        raise ValueError("lifting needs a circle integrand with eval_complex "
                         "and complex_fixed, and no pre-map")
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
        vlo, vhi = f.complex_fixed(u_re, u_im, scale)
        lo = np.minimum(vlo * rho[0], vlo * rho[1]) >> scale
        hi = -((-np.maximum(vhi * rho[0], vhi * rho[1])) >> scale)
        fall_lo = -((rho[1] * m_fx) >> scale) - 1
        fall_hi = ((rho[1] * m_fx) >> scale) + 1
        return (np.where(safe, lo, fall_lo).astype(np.int64),
                np.where(safe, hi, fall_hi).astype(np.int64))

    return IntegrandSpec(ev, lift_L, M, name=f"lift:{f.name}",
                         fixed_eval=fixed, uses="ab")

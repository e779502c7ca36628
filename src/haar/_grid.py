"""Fixed-point grid engine behind the SU(2) Haar quadrature.

The integral is written as nested probability averages over the spherical
parameters: eta has density sin^2(eta)*(2/pi) on [0, pi], theta has density
sin(theta)/2 on [0, pi], phi is uniform on [0, 2 pi); their product times the
map Psi is the Haar measure (this realizes the 1/(2 pi^2) normalization as the
three per-axis normalizers pi/2, 2, 2 pi).  Cell weights are differences of
the exact cumulative weights, so the Jacobian never enters the cell loop.
The sin/cos tables come from ``exactreal.sincos_pi`` at rational multiples
of pi.

The cell loop runs in fixed point: interval endpoints are int64 multiples of
2^-SCALE, products round outward by integer shifts, and numpy carries the
vectorized loop.  Every int64 operation is exact (magnitudes are kept below
2^62 by construction), so the enclosures are certified despite the vector
path.

Discretization error is bounded per axis from the coordinate speeds of Psi,
which are 1, sin(eta), sin(eta)sin(theta): a Lipschitz-L integrand composed
with Psi moves at most L, L sin(eta), L sin(eta) sin(theta) along the three
axes.  The per-cell midpoint error then sums to

    L * h1/4  +  L * S1 * (h2^2/8) * sum_j sinmax_j  +  L * S1 * S2 * h3/4

with S1 = sum_i w1_i sin(m_i), S2 = sum_j w2_j sin(m_j); the engine evaluates
this bound exactly from its own tables before trusting a grid.

One block sweep serves every integrand.  An axis the integrand does not read
(per ``uses``) is a length-1 axis with sin = cos = 0, weight 1 and width 0.
A block is whole eta rows x a theta chunk x all phi, about BLOCK_CELLS cells
(cache-sized; theta chunks of BLOCK_CELLS // n3 when a row is larger).
Integrands without a vectorized form are evaluated once per cell on its
fixed-point versor and feed the same exact accumulator.
Int64 headroom: cell enclosures must lie in [-m, m], m = (ceil(M)+1) 2^SCALE
for the declared bound M, and at entry the largest sum formed from m and the
weight tables must stay below 2^63 - 2^SCALE, else the sweep refuses (M <= 30).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exactreal import (
    Dyadic, Interval, InvalidBound, ZERO, ONE, NoConvergence, pi_enclosure,
    sincos_pi,
)
from .groups import Versor

SCALE = 29                     # fixed-point fraction bits of the sweep
BLOCK_CELLS = 1 << 16
MAX_SCALAR_CELLS = 2 * 10 ** 6  # effort cap of the per-cell scalar evaluator
_LIVE_AXES = {"a": 1, "ab": 2, "abcd": 3}   # grid axes each ``uses`` reads
_KINDS = ("eta", "theta", "phi")


# ---------------------------------------------------------------------------
# axis tables
# ---------------------------------------------------------------------------

def _nonneg(iv: Interval) -> Interval:
    lo = iv.lo if iv.lo.sign() > 0 else ZERO
    hi = iv.hi if iv.hi >= lo else lo
    return Interval(lo, hi)


class _Axis:
    __slots__ = ("n", "sin_mid", "cos_mid", "weights", "spacing_hi")

    def __init__(self, n, sin_mid, cos_mid, weights, spacing_hi):
        self.n = n
        self.sin_mid = sin_mid       # list[Interval]
        self.cos_mid = cos_mid       # list[Interval]
        self.weights = weights       # list[Interval], None for phi (uniform)
        self.spacing_hi = spacing_hi  # Fraction upper bound of the cell width

    def fixed(self, scale):
        def pack(ivs):
            lo = np.array([v.lo.scaled_floor(scale) for v in ivs], dtype=np.int64)
            hi = np.array([v.hi.scaled_ceil(scale) for v in ivs], dtype=np.int64)
            return lo, hi
        out = [pack(self.sin_mid), pack(self.cos_mid)]
        out.append(pack(self.weights) if self.weights is not None else None)
        return out


_ZERO_IV = Interval(ZERO, ZERO)
# an axis the integrand does not read: sin = cos = 0, weight 1, width 0
_DEAD_AXIS = _Axis(1, [_ZERO_IV], [_ZERO_IV], [Interval(ONE, ONE)], Fraction(0))


def _build_axis(kind: str, n: int, guard: int) -> _Axis:
    """Midpoint sin/cos tables and exact cumulative weights for one axis.

    ``sincos_pi(q, guard)`` runs its kernel at g = guard + 10 fraction bits.
    """
    g = guard + 10
    pi_enc = pi_enclosure(guard)
    sin_mid, cos_mid = [], []
    if kind == "phi":
        # midpoints 2 pi (2k+1)/(2n) = pi (2k+1)/n, uniform weights 1/n
        for k in range(n):
            s, c = sincos_pi(Fraction(2 * k + 1, n), guard)
            sin_mid.append(s)
            cos_mid.append(c)
        return _Axis(n, sin_mid, cos_mid, None, 2 * pi_enc.hi.as_fraction() / n)
    for i in range(n):
        s, c = sincos_pi(Fraction(2 * i + 1, 2 * n), guard)
        sin_mid.append(s)
        cos_mid.append(c)
    cum = []
    pi_lo, pi_hi = pi_enc.lo.as_fraction(), pi_enc.hi.as_fraction()
    for i in range(n + 1):
        q = Fraction(i, n)
        b = Interval.from_fractions(pi_lo * q, pi_hi * q, g)
        s, c = sincos_pi(q, guard)
        if kind == "eta":
            # W1(x) = (x - sin x cos x) / pi
            v = (b - s * c).divide(pi_enc, guard)
        else:
            # W2(x) = (1 - cos x) / 2
            v = (Interval.from_int(1) - c).scale(Dyadic(1, -1))
        cum.append(v)
    weights = [_nonneg(cum[i + 1] - cum[i]) for i in range(n)]
    return _Axis(n, sin_mid, cos_mid, weights, pi_hi / n)


# ---------------------------------------------------------------------------
# certified discretization bound from the tables
# ---------------------------------------------------------------------------

def _axis_sums(ax: _Axis):
    """(sum_i w_hi sin_hi, sum_i sinmax_i, sum_i sinmax_i^2) as Fractions."""
    half_h = ax.spacing_hi / 2
    s_weighted = Fraction(0)
    s_max = Fraction(0)
    s_max2 = Fraction(0)
    for i in range(ax.n):
        shi = ax.sin_mid[i].hi.as_fraction()
        s_weighted += ax.weights[i].hi.as_fraction() * shi
        smax = min(Fraction(1), shi + half_h)   # sin is 1-Lipschitz
        s_max += smax
        s_max2 += smax * smax
    return s_weighted, s_max, s_max2


def _disc_bound(L: Fraction, eta: _Axis, theta: _Axis, phi: _Axis) -> Fraction:
    if L == 0:
        return Fraction(0)
    pi_lo = pi_enclosure(40).lo.as_fraction()
    s1, _, e_max2 = _axis_sums(eta)
    t_weighted, t_max, _ = _axis_sums(theta)
    h1, h2, h3 = eta.spacing_hi, theta.spacing_hi, phi.spacing_hi
    return (L * (h1 * h1 / 4) * Fraction(2) / pi_lo * e_max2
            + L * s1 * (h2 * h2 / 8) * t_max
            + L * s1 * t_weighted * (h3 / 4))


# ---------------------------------------------------------------------------
# fixed-point interval helpers (operate on numpy int64 arrays or python ints)
# ---------------------------------------------------------------------------

def _shr_floor(x, s):
    x >>= s                 # in place: callers pass fresh products
    return x


def _shr_ceil(x, s):
    x += (1 << s) - 1       # in place; needs x < 2^63 - 2^s
    x >>= s
    return x


def fp_abs(lo, hi):
    # max(lo, -hi, 0) is lo when lo >= 0, -hi when hi <= 0, else 0
    return np.maximum(np.maximum(lo, -hi), 0), np.maximum(-lo, hi)


def fp_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def fp_mul_nn(a, b, s=SCALE):
    """Product when a >= 0 and b >= 0."""
    return _shr_floor(a[0] * b[0], s), _shr_ceil(a[1] * b[1], s)


def fp_mul_na(a, b, s=SCALE):
    """Product when a >= 0, b of any sign."""
    lo = np.minimum(a[0] * b[0], a[1] * b[0])
    hi = np.maximum(a[0] * b[1], a[1] * b[1])
    return _shr_floor(lo, s), _shr_ceil(hi, s)


def fp_mul(a, b, s=SCALE):
    """General product, four candidates; two when one factor is a constant."""
    if type(b[0]) is int and type(b[1]) is int:
        a, b = b, a
    if type(a[0]) is int and type(a[1]) is int and (a[0] >= 0 or a[1] <= 0):
        # a constant of one sign meets each extreme at one end of b
        x, y = b if a[0] >= 0 else b[::-1]
        lo = np.minimum(a[0] * x, a[1] * x)
        hi = np.maximum(a[0] * y, a[1] * y)
        return _shr_floor(lo, s), _shr_ceil(hi, s)
    p1 = a[0] * b[0]
    p2 = a[0] * b[1]
    p3 = a[1] * b[0]
    p4 = a[1] * b[1]
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _shr_floor(lo, s), _shr_ceil(hi, s)


def fp_square(a, s=SCALE):
    lo, hi = fp_abs(a[0], a[1])
    return _shr_floor(lo * lo, s), _shr_ceil(hi * hi, s)


def _isqrt_vec(x):
    """Vectorized floor-isqrt for nonnegative int64 (x < 2^62)."""
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    # float rounding can be off by 1 either way
    r = np.where((r + 1) * (r + 1) <= x, r + 1, r)
    r = np.where(r * r > x, r - 1, r)
    return r


def fp_sqrt(a, s=SCALE):
    """sqrt of a nonnegative fixed-point interval (clamps lo noise at 0)."""
    lo = np.maximum(a[0], 0)
    rlo = _isqrt_vec(lo << s)
    xhi = np.maximum(a[1], 0) << s
    rhi = _isqrt_vec(xhi)
    rhi = np.where(rhi * rhi < xhi, rhi + 1, rhi)
    return rlo, rhi


def fp_div_pos(a, b, s=SCALE):
    """a / b when b > 0 (b_lo > 0)."""
    lo = np.minimum((a[0] << s) // b[0], (a[0] << s) // b[1])
    num = a[1] << s
    hi = np.maximum(-((-num) // b[0]), -((-num) // b[1]))
    return lo, hi


# ---------------------------------------------------------------------------
# the integration loop
# ---------------------------------------------------------------------------

def _choose_resolution(live: int, L: float, budget: float) -> list[int]:
    """Cells on each of the first ``live`` axes, sized so that the first grid
    meets ``budget`` under ``_disc_bound``.

    The budget splits evenly (for terms a_i/n_i this minimizes n1 n2 n3).
    With x = L pi / (4 budget/live), the closed forms of the three terms of
    ``_disc_bound`` in units of budget/live are, up to O(1/n^2):

      eta    (x/n1)(1 + c1/n1): sum sinmax^2 = n1/2 + h1 sum sin - clipping
             with h1 sum sin ~ 2, so c1 = 4 less the clipping at sin >
             1 - h1/2, which is 8/3 sqrt(pi/n1) for large n1; the code
             subtracts only sqrt(pi/n1), n1 ~ x + 4, erring on the large side
      theta  (k x/n2)(1 + (pi^2/4)/n2), k = 8/(3 pi) = E[sin eta]; the
             pi^2/4 is the h2/2 in sinmax, clipping dropped
      phi    (4/3) x/n3 = 2 k E[sin theta] x/n3, E[sin theta] = pi/4

    and each axis takes the least n_i that brings its term to 1.  Measured
    disc/budget of the first grid: 0.92-0.9999 for the builtin integrands
    at n = 3..9.
    """
    if L <= 0.0:
        return [1] * live
    x = L * math.pi * live / (4 * budget)

    def cells(ax, c):   # least m with (ax/m)(1 + c/m) <= 1
        return math.ceil(ax / 2 + math.sqrt(ax * ax / 4 + c * ax))

    k = 8 / (3 * math.pi)
    return [cells(x, 4 - math.sqrt(math.pi / (x + 4))),
            cells(k * x, math.pi ** 2 / 4), math.ceil(4 * x / 3)][:live]


def su2_grid_integral(spec, n: int, *, max_cells: int = 10 ** 11) -> Interval:
    """Certified enclosure of the Haar integral of ``spec`` over SU(2).

    The grid is sized from spec.lipschitz by the closed form of the
    discretization bound (``_choose_resolution``), so the first grid normally
    passes; the exact table-based bound then certifies it before any sweep.
    A grid that misses grows every live axis by the measured disc/budget,
    since each term falls like 1/n_i.  The returned interval has width
    <= 2^-(n-1), i.e. half-width <= 2^-n around the midpoint.
    """
    L = Fraction(spec.lipschitz.as_fraction())
    live = _LIVE_AXES[spec.uses]
    vectorized = spec.fixed_eval is not None
    cap = max_cells if vectorized else min(max_cells, MAX_SCALAR_CELLS)
    disc_budget = Fraction(7, 8) / (1 << n)
    ns = _choose_resolution(live, float(L), float(disc_budget))
    guard = SCALE + 6
    for _attempt in range(10):
        cells = math.prod(ns)
        if cells > cap:
            raise NoConvergence(
                f"su2 grid needs {cells} cells for 2^-{n}; over the effort "
                f"cap of {cap}")
        eta, theta, phi = [_build_axis(kind, m, guard)
                           for kind, m in zip(_KINDS, ns)] + [_DEAD_AXIS] * (3 - live)
        disc = _disc_bound(L, eta, theta, phi)
        if disc <= disc_budget:
            break
        ns = [math.ceil(m * disc / disc_budget) for m in ns]
    else:
        raise NoConvergence("discretization bound failed to meet the budget")

    sweep = _fixed_sweep if vectorized else _scalar_sweep
    total = sweep(spec, eta, theta, phi)

    lo = total.lo.as_fraction() - disc
    hi = total.hi.as_fraction() + disc
    enc = Interval.from_fractions(lo, hi, n + 8)
    if enc.width() > Dyadic(1, -(n - 1)):
        raise NoConvergence(
            f"certified width {float(enc.width()):.3g} exceeds 2^-{n - 1}; "
            "interval noise dominates at this precision")
    return enc


def _fixed_sweep(spec, eta: _Axis, theta: _Axis, phi: _Axis) -> Interval:
    """The block sweep of ``spec.fixed_eval``, or of its polar form."""
    return _block_sweep(spec.fixed_eval, spec.fixed_eval_polar, spec.bound,
                        eta, theta, phi)


def _scalar_sweep(spec, eta: _Axis, theta: _Axis, phi: _Axis) -> Interval:
    """The block sweep for integrands without a vectorized form.

    ``spec.eval`` runs once per cell on that cell's fixed-point versor.
    """
    def fixed(a, b, c, d, scale):
        ends = np.broadcast_arrays(*a, *b, *c, *d)
        lo, hi = [], []
        for e in zip(*(x.ravel().tolist() for x in ends)):
            q = Versor(*(Interval(Dyadic(e[k], -scale), Dyadic(e[k + 1], -scale))
                         for k in range(0, 8, 2)))
            v = spec.eval(q, scale)
            lo.append(v.lo.scaled_floor(scale))
            hi.append(v.hi.scaled_ceil(scale))
        return np.reshape(lo, ends[0].shape), np.reshape(hi, ends[0].shape)

    return _block_sweep(fixed, None, spec.bound, eta, theta, phi)


def _block_sweep(fixed, polar, bound: Dyadic, eta: _Axis, theta: _Axis,
                 phi: _Axis) -> Interval:
    # glibc unmaps a freed heap top past twice its mmap threshold (128 KB at
    # start), so each block would fault its temporaries in afresh; freeing a
    # 16 MB buffer raises the threshold to 16 MB and blocks reuse memory.
    np.empty(16 << 20, dtype=np.uint8)
    m_fx = (bound.as_fraction().__ceil__() + 1) << SCALE
    (es_lo, es_hi), (ec_lo, ec_hi), (ew_lo, ew_hi) = eta.fixed(SCALE)
    (ts_lo, ts_hi), (tc_lo, tc_hi), (tw_lo, tw_hi) = theta.fixed(SCALE)
    (ps_lo, ps_hi), (pc_lo, pc_hi), _ = phi.fixed(SCALE)
    n2, n3 = theta.n, phi.n
    _check_headroom(bound, m_fx, n3, tw_hi, ew_hi)
    pc, ps = (pc_lo, pc_hi), (ps_lo, ps_hi)
    rows = max(1, BLOCK_CELLS // (n2 * n3))
    chunk = max(1, BLOCK_CELLS // n3)
    acc_lo = acc_hi = 0
    for i0 in range(0, eta.n, rows):
        i1 = min(eta.n, i0 + rows)
        se = (es_lo[i0:i1, None], es_hi[i0:i1, None])      # (rows, 1)
        ce = (ec_lo[i0:i1, None], ec_hi[i0:i1, None])
        row_lo = row_hi = 0
        for j0 in range(0, n2, chunk):
            j1 = min(n2, j0 + chunk)
            b = fp_mul_na(se, (tc_lo[j0:j1], tc_hi[j0:j1]))        # (rows, jb)
            sest = fp_mul_nn(se, (ts_lo[j0:j1], ts_hi[j0:j1]))
            if polar is not None:
                base_lo, base_hi, flo, fhi = polar(ce, b, sest, pc, ps, SCALE)
            else:
                base_lo = base_hi = 0
                col = (sest[0][..., None], sest[1][..., None])
                flo, fhi = fixed((ce[0][..., None], ce[1][..., None]),
                                 (b[0][..., None], b[1][..., None]),
                                 fp_mul_na(col, pc), fp_mul_na(col, ps), SCALE)
            shape = (i1 - i0, j1 - j0, n3)
            flo = np.broadcast_to(np.asarray(flo, dtype=np.int64), shape)
            fhi = np.broadcast_to(np.asarray(fhi, dtype=np.int64), shape)
            _check_bound(base_lo, flo, base_hi, fhi, m_fx)
            mean_lo = base_lo + flo.sum(axis=2) // n3
            mean_hi = base_hi - ((-fhi.sum(axis=2)) // n3)
            wl, wh = tw_lo[j0:j1], tw_hi[j0:j1]
            row_lo = row_lo + np.minimum(wl * mean_lo, wh * mean_lo).sum(axis=1)
            row_hi = row_hi + np.maximum(wl * mean_hi, wh * mean_hi).sum(axis=1)
        rl, rh = _shr_floor(row_lo, SCALE), _shr_ceil(row_hi, SCALE)
        el, eh = ew_lo[i0:i1], ew_hi[i0:i1]
        acc_lo += int(np.minimum(el * rl, eh * rl).sum())
        acc_hi += int(np.maximum(el * rh, eh * rh).sum())
    return _acc_to_interval(acc_lo, acc_hi)


def _check_headroom(bound: Dyadic, m_fx: int, n3: int, tw_hi, ew_hi):
    """Refuse a sweep whose int64 phi, theta or eta sums could pass 2^63."""
    row = int(tw_hi.sum()) * m_fx
    need = max(n3 * m_fx, row, int(ew_hi.sum()) * ((row >> SCALE) + 1))
    if need >= (1 << 63) - (1 << SCALE):    # room for _shr_ceil's addend
        raise NoConvergence(
            f"declared bound {float(bound.as_fraction()):g} needs sweep sums up "
            f"to 2^{need.bit_length()}, past the int64 cap 2^63")


def _check_bound(base_lo, flo, base_hi, fhi, m_fx):
    # a valid enclosure (lo <= hi) that escapes [-m_fx, m_fx] also leaves
    # it on one side, so the common case costs one pass over each array;
    # the phi-constant bases add to the per-cell extremes over phi
    if (int((base_lo + flo.min(axis=2)).min()) < -m_fx
            or int((base_hi + fhi.max(axis=2)).max()) > m_fx):
        if (int((base_lo + flo.max(axis=2)).max()) > m_fx
                or int((base_hi + fhi.min(axis=2)).min()) < -m_fx):
            raise InvalidBound("integrand enclosure escaped the declared bound")
        raise NoConvergence(
            "integrand enclosure wider than the declared bound allows; the "
            "sweep sums would lose their int64 headroom")


def _acc_to_interval(acc_lo: int, acc_hi: int) -> Interval:
    return Interval(Dyadic(acc_lo, -2 * SCALE), Dyadic(acc_hi, -2 * SCALE))

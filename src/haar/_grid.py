"""Fixed-point grid engine behind the SU(2) Haar quadrature.

The integral is written as nested probability averages over the spherical
parameters of Psi(eta, theta, phi) = cos eta + i sin eta cos theta
+ j sin eta sin theta cos phi + k sin eta sin theta sin phi, whose Jacobian
is sin^2(eta) sin(theta): eta has density sin^2(eta)*(2/pi) on [0, pi], theta
has density sin(theta)/2 on [0, pi], phi is uniform on [0, 2 pi); their
product pushed forward by Psi is the Haar measure (this realizes the
1/(2 pi^2) normalization as the three per-axis normalizers pi/2, 2, 2 pi).
Each cell's weight is the exact mass of its cell in closed form of the
midpoint's sine (``_build_axis``), so the Jacobian never enters the cell
loop.  Psi exists only as these tables, int64 arrays of each axis' midpoints:
numpy folds every point exactly to its quadrant and reduced angle, and
``exactreal._reduced_sincos`` runs the Taylor series once per table, on the
int64 array of the distinct reduced angles (``_sincos_table``).  A component
form's grid puts the eta and theta midpoints among phi's
(``_choose_resolution``), so one table serves all three axes
(``_grid_axes``).  No ``Fraction`` or ``Interval`` enters the tables, and
the discretization bound sums them as python ints.

The tables are a pure function of the grid shape (n1, n2, n3), so
``_grid_axes`` keeps those of the last ``MAX_GRIDS`` shapes: each axis' sin,
cos and weights at 2^-``_G``, and the eta and theta sums of the
discretization bound (``_Axis.sums``, summed once when the axis is built).
A later integral on the same shape, of any spec, builds no table and runs no
series.  Every table array is read-only, so a sweep that wrote into one (the
in-place ``_shr_floor`` and ``_shr_ceil``) would raise rather than corrupt a
later integral.  An entry holds O(n1 + n2 + n3) int64: about 70 MB for a
component form's grid at the ``MAX_CELLS`` cap (m^2 = 10^11 cells, n3 = 6m),
and the cache at most ``MAX_GRIDS`` times that.

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
The grid reads ``fixed_eval`` or ``form`` only, and refuses a spec without
them; ``_scalar_sweep``, ``spec.eval`` per cell into the same accumulator,
is no route but the tests' per-cell interval oracle of the fixed paths.

``fixed_eval`` reads M x, x the grid versor, for the integrand's pre-map M
(the identity when it has none; a translation or an inversion folded into a
constant 4x4 matrix, entries outward fixed-point pairs).  On the grid

    (M x)_k = A_k + s P_k,   A_k = M_k0 cos eta + M_k1 sin eta cos theta,
                             P_k = M_k2 cos phi + M_k3 sin phi

with s = sin eta sin theta >= 0, so P_k is one length-n3 table per integral
and A_k a 2-D table per block.  The 3-D branch combines the rows of M with
cos eta, sin eta cos theta, s cos phi and s sin phi; exact-zero entries are
skipped and unit entries are exact, so the identity gives the plain grid
versor bit for bit.  Entries of M must lie in [-2, 2], which keeps |A_k|
and |P_k| below 3.

A component form f(x) = const + sum_k coef_k h_k((M x)_k), h_k one of |.|,
the square and the identity (``IntegrandSpec.form``), is swept on eta x
theta cells: each cell gets the exact phi mean of its midpoint values from
per-integral phi tables, rounded once.  sin eta, sin theta >= 0 at the
midpoints (their lower ends clamp at 0, a no-op), so products with s,
|cos theta| and constant phi means take one end of each factor, bit for bit
what ``fp_mul_na`` gives.

* identity: A + s mean(P); A joins the cell as a P-zero term does and
  s P folds as an A-zero term does (below).
* square: A^2 + 2 A s mean(P) + s^2 mean(P^2), an identity at every real
  point of the intervals, so its interval evaluation encloses the mean.
* abs, A and P both nonzero (dense): x_phi = A + s P lies within r_phi of
  c_phi = ac + sc pc_phi 2^-SCALE (centres ac, sc, pc), so mean|x| is
  mean|c| +- mean r.  c_phi >= 0 for the j = #{v <= u} entries of v = -pc
  sorted, u = ac 2^SCALE / sc, and n3 mean|c| = ac (2j - n3) + sc D_j
  2^-SCALE, D_j = sum(v) - 2 (sum of the j least v).  A cell takes u from a
  float division (an entry it miscounts has |c_phi| < 2^-22), j from
  ``searchsorted``, and c = (ac F_j + sc G_j) >> SCALE from F_j = (2j -
  n3)/n3 and G_j = D_j/n3 floored at 2^-(SCALE+2): mean|c| - c/4 lies in
  (-3/4, 5/4 + 2^-21).  Its radius sums, times |coef|, sr mean|pc| + s_hi
  mean(p_hi - pc) and |A - ac| <= r0 |cos eta| + r1 |cos theta| + |M_k0|
  cr + |M_k1| (ser + tcr + 1/4) + 1/2 (entries M_k0 +- r0, M_k1 +- r1; ac
  rounds to nearest, sin eta cos theta is taken at 2^-(SCALE+2)).
* A exactly zero (a pre-map row with M_k0 = M_k1 = 0): h(s P) is s |P|,
  s P or s^2 P^2 since s >= 0, so these components fold into one s-term and
  one s^2-term whose phi tables are summed before the mean: abs-sum on the
  identity costs |A_0| + |A_1| + s mean(|cos phi| + |sin phi|) per cell.
* P exactly zero: h(A), which reads no phi.

Int64 headroom of the form: |pc| < 3 2^SCALE < 2^31 and n3 < 2^31 keep the
prefix sums and D_j below 2^62; |ac| < 3 2^SCALE and sc <= 2^SCALE keep ac
F_j + sc G_j below 3 2^61; the radius weights are cut by 2^t to keep their
sum below 2^62, and the square's products stay below 2^62.  The constant
and the coefficients must stay below 2^16, and each folded phi mean below
16 = 2^(62 - SCALE) in real terms, so that s times it stays below 2^62 +
2^34; else the sweep refuses.  ``_check_bound`` holds each cell's mean to
[-m, m] (a mean wholly outside proves that some phi value escapes:
``InvalidBound``).  Form blocks are eta rows x theta chunks of about
BLOCK_CELLS // 16 cells: a 2-D cell has a few dozen live int64 temporaries,
so blocks of BLOCK_CELLS cells raised the peak memory of the abs-sum sweep by
a tenth, while blocks of a few hundred cells leave the time to the Python
loop.

Int64 headroom: cell enclosures must lie in [-m, m], m = (ceil(M)+1) 2^SCALE
for the declared bound M, and at entry the largest sum formed from m and the
weight tables must stay below 2^63 - 2^SCALE, else the sweep refuses (M <= 30).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from .exactreal import (
    ConfigError, Dyadic, Interval, InvalidBound, NoConvergence, _mul_ceil,
    _mul_floor, _pi_fixed, _reduced_sincos, kernel_bits,
)
from .groups import Versor

SCALE = 29                     # fixed-point fraction bits of the sweep
GUARD = SCALE + 6              # axis tables at kernel_bits(GUARD) bits
BLOCK_CELLS = 1 << 16
MAX_CELLS = 10 ** 11           # default effort cap of the SU(2)-family grid
MAX_GRIDS = 8                  # grid shapes whose tables ``_grid_axes`` keeps
FORM_Q = 3                     # a component form's n3 / (2 n1), odd
_LIVE_AXES = {"a": 1, "ab": 2, "abcd": 3}   # grid axes each ``uses`` reads
_ONE_FX = (1 << SCALE, 1 << SCALE)
# the pre-map of an integrand that reads the grid versor itself
IDENTITY_PREMAP = tuple(tuple(_ONE_FX if j == k else (0, 0) for j in range(4))
                        for k in range(4))
_KINDS = ("eta", "theta", "phi")


# ---------------------------------------------------------------------------
# axis tables
# ---------------------------------------------------------------------------

class _Axis:
    """One axis' tables as outward int64 pairs ``(lo, hi)`` at 2^-g, read-only;
    ``w`` is None for phi (uniform weights), ``h`` bounds the cell width from
    above, and ``sums`` are a weighted axis' ``_axis_sums``."""
    __slots__ = ("n", "g", "sin", "cos", "w", "h", "sums")

    def __init__(self, n, g, sin, cos, w, h):
        self.n, self.g, self.sin, self.cos, self.w, self.h = n, g, sin, cos, w, h
        for t in (*sin, *cos, *(w or ())):
            t.flags.writeable = False
        self.sums = None if w is None else _axis_sums(self)

    def fixed(self, scale):
        return [_shift_out(t, self.g - scale) if t is not None else None
                for t in (self.sin, self.cos, self.w)]


def _axis_sums(ax: _Axis):
    """(sum_i w_hi sin_hi at 2^-2g, sum_i sinmax_i at 2^-(g+1), sum_i
    sinmax_i^2 at 2^-(2g+2)), sinmax_i = min(1, sin_hi + h/2) since sin is
    1-Lipschitz; ints."""
    s_hi = ax.sin[1]
    s_max = np.minimum(2 * s_hi + ax.h, 2 << ax.g).tolist()
    return (sum(map(operator.mul, ax.w[1].tolist(), s_hi.tolist())), sum(s_max),
            sum(x * x for x in s_max))


def _shift_out(t, s: int):
    """An outward (lo, hi) pair of int64 arrays rounded outward by s bits."""
    return t[0] >> s, -(-t[1] >> s)


# an axis the integrand does not read: sin = cos = 0, weight 1, width 0
_G = kernel_bits(GUARD)
_ZERO = np.zeros(1, dtype=np.int64)
_DEAD_AXIS = _Axis(1, _G, (_ZERO, _ZERO), (_ZERO, _ZERO),
                   (_ZERO + (1 << _G), _ZERO + (1 << _G)), 0)

# ``sincos_pi_fixed``'s reflection and rotation as rows of the brackets
# [slo, shi, clo, chi, -shi, -slo, -chi, -clo] of a reduced angle: the rows
# of sin lo and cos lo (each hi is the next row) by quadrant j % 4 and r < 0
_FOLD_ROWS = np.array([[0, 2], [2, 4], [4, 6], [6, 0],       # r >= 0
                       [4, 2], [2, 0], [0, 6], [6, 4]])      # r < 0


def _sincos_table(a, den: int, g: int):
    """(sin, cos) of pi a/den at 2^-g for an int64 array ``a``, as outward
    (lo, hi) int64 pairs equal entry by entry to ``sincos_pi_fixed(a_k,
    den, g)``: the same exact fold to a quadrant j and r = num/(2 den), one
    ``_reduced_sincos`` run on the int64 array of the distinct |num|, and
    the reflection and rotation as a gather from the distinct brackets and
    their negations.  The two-limb products of the array series need g <=
    58, and its reduced argument 2 den < 2^31; past either it refuses."""
    if g > 58 or den >= 1 << 30:
        raise NoConvergence(f"the array sin/cos series takes g <= 58 and den < "
                            f"2^30 (its int64 headroom), not g = {g}, den = {den}")
    j = (4 * a + den) // (2 * den)
    num = 2 * a - j * den
    u, idx = np.unique(np.abs(num), return_inverse=True)
    b = np.array(_reduced_sincos(u, 2 * den, g))
    table = np.concatenate((b, -b[[1, 0, 3, 2]]))
    rows = _FOLD_ROWS[(j & 3) + 4 * (num < 0)]
    sin_row, cos_row = rows[:, 0], rows[:, 1]
    return ((table[sin_row, idx], table[sin_row + 1, idx]),
            (table[cos_row, idx], table[cos_row + 1, idx]))


def _build_axis(kind: str, n: int, table=None) -> _Axis:
    """Midpoint sin/cos tables and closed-form weights for one axis.

    The midpoints are pi (2i+1)/(2n) (2 pi (2k+1)/(2n) for phi) at g = ``_G``
    bits, from one ``_sincos_table`` pass, or from ``table``, the (sin, cos)
    pairs of those midpoints that the caller sliced from the phi table.  With h = pi/n the weights follow from the
    midpoints m_i alone:

      theta  w = (cos(m - h/2) - cos(m + h/2))/2 = sin m sin(h/2)
      eta    w = 1/n - (sin 2(m + h/2) - sin 2(m - h/2))/(2 pi)
               = 1/n - sin h cos 2m / pi

    with sin(h/2) = sin m_0, sin h = 2 sin m_0 cos m_0 and cos 2m = 1 - 2
    sin^2 m.  The scalars sin(h/2) and sin h / pi round outward on python
    ints, the per-point products on int64 through ``_mul_floor``; sin m
    and cos m_0 are positive, so their lower ends clamp at 0, as does
    each weight's.
    """
    g = _G
    plo, phi_ = _pi_fixed(g)
    if kind == "phi":
        # midpoints 2 pi (2k+1)/(2n) = pi (2k+1)/n, uniform weights 1/n
        sin, cos = _sincos_table(np.arange(1, 2 * n, 2), n, g)
        return _Axis(n, g, sin, cos, None, -(-2 * phi_ // n))
    sin, cos = table or _sincos_table(np.arange(1, 2 * n, 2), 2 * n, g)
    s_lo, s_hi = np.maximum(sin[0], 0), sin[1]
    if kind == "theta":
        w_lo = _mul_floor(s_lo, int(s_lo[0]), g)
        w_hi = _mul_ceil(s_hi, int(s_hi[0]), g)
    else:
        one = 1 << g
        c0_lo, c0_hi = max(int(cos[0][0]), 0), int(cos[1][0])
        k_lo = 2 * int(s_lo[0]) * c0_lo // phi_             # sin h / pi
        k_hi = -(-2 * int(s_hi[0]) * c0_hi // plo)
        c2_lo = one - 2 * _mul_ceil(s_hi, s_hi, g)          # cos 2m
        c2_hi = one - 2 * _mul_floor(s_lo, s_lo, g)
        t_lo = np.minimum(_mul_floor(c2_lo, k_lo, g), _mul_floor(c2_lo, k_hi, g))
        t_hi = np.maximum(_mul_ceil(c2_hi, k_lo, g), _mul_ceil(c2_hi, k_hi, g))
        w_lo = np.maximum(one // n - t_hi, 0)
        w_hi = -(-one // n) - t_lo
    return _Axis(n, g, sin, cos, (w_lo, w_hi), -(-phi_ // n))


@functools.lru_cache(maxsize=MAX_GRIDS)
def _grid_axes(ns: tuple[int, ...]) -> tuple[_Axis, _Axis, _Axis]:
    """eta, theta and phi on ``ns`` cells of the live axes, the rest dead,
    kept for the last ``MAX_GRIDS`` shapes (the module docstring).

    When n3 = 2 q n for odd q, the midpoint pi (2i+1)/(2n) is the phi
    midpoint pi (2k+1)/n3 at k = q i + (q-1)/2, and the reduction of the
    angle at either denominator gives the same brackets, so the axis takes
    phi's entries (every q-th, n of them) and runs no series of its own.
    """
    phi = _build_axis("phi", ns[2]) if len(ns) == 3 else _DEAD_AXIS
    axes = []
    for kind, n in zip(_KINDS[:2], ns):
        q, r = divmod(phi.n, 2 * n)
        table = None
        if r == 0 and q % 2:
            cut = slice((q - 1) // 2, (q - 1) // 2 + q * n, q)
            table = tuple((lo[cut], hi[cut]) for lo, hi in (phi.sin, phi.cos))
        axes.append(_build_axis(kind, n, table))
    return (*axes, *[_DEAD_AXIS] * (2 - len(axes)), phi)


# ---------------------------------------------------------------------------
# certified discretization bound from the tables
# ---------------------------------------------------------------------------

def _disc_bound(L: Fraction, eta: _Axis, theta: _Axis, phi: _Axis) -> Fraction:
    """L (h1^2/4)(2/pi) sum sinmax_i^2 + L S1 (h2^2/8) sum sinmax_j + L S1 S2
    h3/4 (the module docstring) on the int tables, as one Fraction.

    The axes share eta's g (``GUARD``'s); a dead axis' sums and width are 0.
    """
    if L == 0:
        return Fraction(0)
    G = 1 << eta.g
    plo = _pi_fixed(eta.g)[0]
    s1, _, e_max2 = eta.sums
    t_weighted, t_max, _ = theta.sums
    h1, h2, h3 = eta.h, theta.h, phi.h
    # over the common denominator 16 G^5 plo
    num = (2 * G * G * h1 * h1 * e_max2
           + plo * s1 * (h2 * h2 * t_max + 4 * t_weighted * h3))
    return L * Fraction(num, 16 * G ** 5 * plo)


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


def fp_mul_na(a, b, s=SCALE):
    """Product when a >= 0, b of any sign."""
    lo = np.minimum(a[0] * b[0], a[1] * b[0])
    hi = np.maximum(a[0] * b[1], a[1] * b[1])
    return _shr_floor(lo, s), _shr_ceil(hi, s)


def fp_mul_pos(a, b, s=SCALE):
    """``fp_mul_na(a, b)`` bit for bit when a >= 0, and b >= 0 or b is a
    constant pair: each end of b meets the one end of a its sign picks."""
    i, k = (int(b[0] < 0), int(b[1] >= 0)) if type(b[0]) is int else (0, 1)
    return _shr_floor(a[i] * b[0], s), _shr_ceil(a[k] * b[1], s)


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

def _choose_resolution(live: int, L: float, budget: float,
                       q: int | None = None) -> list[int]:
    """Cells on each of the first ``live`` axes, sized so that the first grid
    meets ``budget`` under ``_disc_bound``.

    With x = L pi / (4 b) for an axis' share b of the budget, the closed
    forms of the three terms of ``_disc_bound`` in units of b are, up to
    O(1/n^2):

      eta    (x/n1)(1 + c1/n1): sum sinmax^2 = n1/2 + h1 sum sin - clipping
             with h1 sum sin ~ 2, so c1 = 4 less the clipping at sin >
             1 - h1/2, which is 8/3 sqrt(pi/n1) for large n1; the code
             subtracts only sqrt(pi/n1), n1 ~ x + 4, erring on the large side
      theta  (k x/n2)(1 + (pi^2/4)/n2), k = 8/(3 pi) = E[sin eta]; the
             pi^2/4 is the h2/2 in sinmax, clipping dropped
      phi    (4/3) x/n3 = 2 k E[sin theta] x/n3, E[sin theta] = pi/4

    A component form (three live axes, odd ``q``) sweeps eta x theta cells
    and reads phi as a table, so its grid is n1 = n2 = m, n3 = 2 q m with m
    even: eta and theta read their midpoints from phi's table
    (``_grid_axes``), whose midpoints fold onto n3/8 reduced angles (one
    lane of the Taylor series each).  m is the least even m with x [(1 + c1/m) + k (1 +
    pi^2/(4m)) + 2/(3q)]/m <= 1 over the whole budget.  Otherwise, with
    three live axes, phi takes a third of the budget on the least multiple
    of 4 cells within it, and eta and theta split the rest evenly (the
    even split minimizes n1 n2 n3, the 3-D sweep's cost); with fewer live
    axes the budget splits evenly, and each axis takes the least n_i that
    brings its term to 1.  Measured disc/budget of the first grid: 0.92-
    0.9999 for the builtin integrands at n = 3..9, 0.938-0.9996 on the
    form grid.
    """
    if L <= 0.0:
        return [1] * live
    x = L * math.pi / (4 * budget)      # for the whole budget
    k = 8 / (3 * math.pi)

    def cells(ax, c):   # least m with (ax/m)(1 + c/m) <= 1
        return math.ceil(ax / 2 + math.sqrt(ax * ax / 4 + c * ax))

    if live == 3 and q is not None:
        a = x * (1 + k + 2 / (3 * q))
        m = cells(a, x * (4 - math.sqrt(math.pi / (a + 4)) + k * math.pi ** 2 / 4) / a)
        m += m % 2
        return [m, m, 2 * q * m]
    n3 = []
    if live == 3:
        n3 = [4 * math.ceil(x)]
        x *= 2 / (1 - 4 * x / (3 * n3[0]))     # eta, theta: half the rest
    else:
        x *= live
    return [cells(x, 4 - math.sqrt(math.pi / (x + 4))),
            cells(k * x, math.pi ** 2 / 4)][:live] + n3


def su2_grid_integral(spec, n: int, *, max_cells: int = MAX_CELLS) -> Interval:
    """Certified enclosure of the Haar integral of ``spec`` over SU(2).

    The grid is sized from spec.lipschitz by the closed form of the
    discretization bound (``_choose_resolution``), so the first grid normally
    passes; the exact table-based bound then certifies it before any sweep.
    A grid that misses grows every live axis by the measured disc/budget,
    since each term falls like 1/n_i, and keeps a component form's n3 =
    2 q n1.  The returned interval has width <= 2^-(n-1), i.e. half-width
    <= 2^-n around the midpoint.  A spec without ``fixed_eval`` is refused.
    """
    if spec.fixed_eval is None:
        raise ConfigError(f"the SU(2) grid reads fixed_eval, which "
                          f"{spec.name or 'this integrand'!r} does not have")
    L = Fraction(spec.lipschitz.as_fraction())
    live = _LIVE_AXES[spec.uses]
    disc_budget = Fraction(7, 8) / (1 << n)
    q = FORM_Q if spec.form is not None and live == 3 else None
    ns = _choose_resolution(live, float(L), float(disc_budget), q)
    for _attempt in range(10):
        # a component form sweeps eta x theta cells only
        cells = math.prod(ns[:2] if spec.form is not None else ns)
        if cells > max_cells:
            raise NoConvergence(
                f"su2 grid needs {cells} cells for 2^-{n}; over the effort "
                f"cap of {max_cells}")
        eta, theta, phi = _grid_axes(tuple(ns))
        disc = _disc_bound(L, eta, theta, phi)
        if disc <= disc_budget:
            break
        ns = [math.ceil(m * disc / disc_budget) for m in ns]
        if q is None:
            ns[2:] = [-(-m // 4) * 4 for m in ns[2:]]      # phi on multiples of 4
        else:
            m = ns[0] + ns[0] % 2
            ns = [m, m, 2 * q * m]
    else:
        raise NoConvergence("discretization bound failed to meet the budget")

    total = _fixed_sweep(spec, eta, theta, phi)
    lo = total.lo.as_fraction() - disc
    hi = total.hi.as_fraction() + disc
    enc = Interval.from_fractions(lo, hi, n + 8)
    if enc.width() > Dyadic(1, -(n - 1)):
        raise NoConvergence(
            f"certified width {float(enc.width()):.3g} exceeds 2^-{n - 1}; "
            "interval noise dominates at this precision")
    return enc


def _fixed_sweep(spec, eta: _Axis, theta: _Axis, phi: _Axis) -> Interval:
    """The block sweep of ``spec.fixed_eval`` after its pre-map, or of its
    component form."""
    return _block_sweep(spec.fixed_eval, spec.form, spec.premap, spec.bound,
                        eta, theta, phi)


def _scalar_sweep(spec, eta: _Axis, theta: _Axis, phi: _Axis) -> Interval:
    """The block sweep of ``spec.eval`` on each cell's fixed-point versor,
    no pre-map: no route calls it; the tests' oracle of the fixed paths."""
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

    return _block_sweep(fixed, None, IDENTITY_PREMAP, spec.bound, eta, theta, phi)


def _combine(coefs, xs):
    """sum_j coefs[j] x_j over the nonzero constant pairs; None when all are 0."""
    out = None
    for c, x in zip(coefs, xs):
        if c != (0, 0):
            t = x if c == _ONE_FX else fp_mul(c, x)
            out = t if out is None else fp_add(out, t)
    return out


def _block_sweep(fixed, form, premap, bound: Dyadic, eta: _Axis,
                 theta: _Axis, phi: _Axis) -> Interval:
    # glibc unmaps a freed heap top past twice its mmap threshold (128 KB at
    # start), so each block would fault its temporaries in afresh; freeing a
    # 16 MB buffer raises the threshold to 16 MB and blocks reuse memory.
    np.empty(16 << 20, dtype=np.uint8)
    m_fx = (bound.as_fraction().__ceil__() + 1) << SCALE
    (es_lo, es_hi), (ec_lo, ec_hi), (ew_lo, ew_hi) = eta.fixed(SCALE)
    (ts_lo, ts_hi), (tc_lo, tc_hi), (tw_lo, tw_hi) = theta.fixed(SCALE)
    (ps_lo, ps_hi), (pc_lo, pc_hi), _ = phi.fixed(SCALE)
    es_lo, ts_lo = np.maximum(es_lo, 0), np.maximum(ts_lo, 0)     # sines >= 0
    n2, n3 = theta.n, phi.n
    _check_headroom(bound, m_fx, n3, tw_hi, ew_hi)
    _check_premap(premap)
    pc, ps = (pc_lo, pc_hi), (ps_lo, ps_hi)
    means = None if form is None else _form_means(form, premap, pc, ps, m_fx)
    depth = n3 if form is None else 16    # see the module docstring
    rows = max(1, BLOCK_CELLS // (n2 * depth))
    chunk = max(1, BLOCK_CELLS // depth)
    acc_lo = acc_hi = 0
    for i0 in range(0, eta.n, rows):
        i1 = min(eta.n, i0 + rows)
        se = (es_lo[i0:i1, None], es_hi[i0:i1, None])      # (rows, 1)
        ce = (ec_lo[i0:i1, None], ec_hi[i0:i1, None])
        row_lo = row_hi = 0
        for j0 in range(0, n2, chunk):
            j1 = min(n2, j0 + chunk)
            tc, ts = (tc_lo[j0:j1], tc_hi[j0:j1]), (ts_lo[j0:j1], ts_hi[j0:j1])
            if means is not None:
                mean_lo, mean_hi = means(ce, se, tc, ts)
            else:   # (M x)_k at every phi: x = (ce, b, s cos phi, s sin phi)
                col = tuple(v[..., None] for v in fp_mul_pos(se, ts))    # s
                x = [tuple(u[..., None] for u in v) for v in (ce, fp_mul_na(se, tc))]
                x += [fp_mul_na(col, pc), fp_mul_na(col, ps)]
                flo, fhi = fixed(*(_combine(m_k, x) or (0, 0) for m_k in premap),
                                 SCALE)
                shape = (i1 - i0, j1 - j0, n3)
                flo = np.broadcast_to(np.asarray(flo, dtype=np.int64), shape)
                fhi = np.broadcast_to(np.asarray(fhi, dtype=np.int64), shape)
                _check_bound(flo.min(axis=2), fhi.max(axis=2), m_fx,
                             lambda: (flo.max(axis=2), fhi.min(axis=2)))
                mean_lo = flo.sum(axis=2) // n3
                mean_hi = -((-fhi.sum(axis=2)) // n3)
            # min(wl m, wh m) = wl m + (wh - wl) min(m, 0) for 0 <= wl <= wh
            wl, dw = tw_lo[j0:j1], tw_hi[j0:j1] - tw_lo[j0:j1]
            row_lo = row_lo + mean_lo @ wl + np.minimum(mean_lo, 0) @ dw
            row_hi = row_hi + mean_hi @ wl + np.maximum(mean_hi, 0) @ dw
        rl, rh = _shr_floor(row_lo, SCALE), _shr_ceil(row_hi, SCALE)
        el, eh = ew_lo[i0:i1], ew_hi[i0:i1]
        acc_lo += int(np.minimum(el * rl, eh * rl).sum())
        acc_hi += int(np.maximum(el * rh, eh * rh).sum())
    return Interval(Dyadic(acc_lo, -2 * SCALE), Dyadic(acc_hi, -2 * SCALE))


def _check_premap(premap):
    """Refuse a pre-map entry past 2 (the grid's and the circle rule's)."""
    if max(abs(v) for row in premap for pair in row for v in pair) > 2 << SCALE:
        raise NoConvergence("pre-map entries past 2 leave no int64 headroom")


def _check_headroom(bound: Dyadic, m_fx: int, n3: int, tw_hi, ew_hi):
    """Refuse a sweep whose int64 phi, theta or eta sums could pass 2^63."""
    row = int(tw_hi.sum()) * m_fx
    need = max(n3 * m_fx, row, int(ew_hi.sum()) * ((row >> SCALE) + 1))
    if need >= (1 << 63) - (1 << SCALE):    # room for _shr_ceil's addend
        raise NoConvergence(
            f"declared bound {float(bound.as_fraction()):g} needs sweep sums up "
            f"to 2^{need.bit_length()}, past the int64 cap 2^63")


# h of a component form on a fixed-point interval at ``scale`` bits
_H = {"abs": lambda x, scale: fp_abs(*x), "square": fp_square,
      "id": lambda x, scale: x}


def _times(coef: int, x):
    """coef * x for an int coefficient, exactly."""
    if coef == 1:
        return x
    return (coef * x[0], coef * x[1]) if coef >= 0 else (coef * x[1], coef * x[0])


def form_fixed(form):
    """The ``fixed_eval`` of a component form: const + sum coef h(x_k)."""
    const, terms = form

    def fixed(a, b, c, d, scale, **_kw):
        x, lo, hi = (a, b, c, d), const << scale, const << scale
        for k, kind, coef in terms:
            vlo, vhi = _times(coef, _H[kind](x[k], scale))
            lo, hi = lo + vlo, hi + vhi
        return lo, hi

    return fixed


def _mean(t, n3: int):
    """[floor, ceil] of the phi mean of a table, summed as python ints."""
    return sum(t[0].tolist()) // n3, -(-sum(t[1].tolist()) // n3)


def _square_kernel(p, n3: int):
    m1, m2 = _mean(p, n3), _mean(fp_square(p), n3)

    def mean(a, s):     # A^2 + 2 A s mean(P) + s^2 mean(P^2); s, m2 >= 0
        cross = fp_mul(fp_mul_na(s, a), m1)
        sq = fp_mul_pos(fp_mul_pos(s, s), m2)
        alo, ahi = fp_square(a)
        return alo + 2 * cross[0] + sq[0], ahi + 2 * cross[1] + sq[1]

    return mean


def _abs_kernel(p, n3: int):
    """(v, G, mean|pc|, mean(p_hi - pc)) of a dense abs term (the module
    docstring); v as floats, the two means rounded up."""
    pc = (p[0] + p[1]) >> 1
    v = np.sort(-pc)
    prefix = np.concatenate(([0], np.cumsum(v)))
    q, r = np.divmod(prefix[-1] - 2 * prefix, n3)   # 4 D_j itself may pass 2^63
    abs_c, rad_p = (-(-int(x.sum()) // n3) for x in (np.abs(pc), p[1] - pc))
    return v.astype(np.float64), 4 * q + (4 * r) // n3, abs_c, rad_p


def _centre(x):
    """(c, r) with the outward pair x inside c +- r."""
    c = (x[0] + x[1]) >> 1
    return c, x[1] - c


def _form_means(form, premap, pc, ps, m_fx: int):
    """Each cell's phi mean of a component form (the module docstring), as
    a function of the block's cos(eta) and sin(eta) rows and cos(theta) and
    sin(theta) columns, from the phi axis' cos and sin tables ``pc``, ``ps``."""
    const, terms = form
    n3 = len(pc[0])
    # P_k = M_k2 cos(phi) + M_k3 sin(phi), one length-n3 table per integral
    ptabs = [_combine(row[2:], (pc, ps)) for row in premap]
    if n3 >> 31 or max(abs(c) for c in (const, *(t[2] for t in terms))) >> 16:
        raise NoConvergence("component form coefficients of 2^16 or more, or "
                            "2^31 phi cells, leave the sweep no int64 headroom")
    folds = [(np.zeros(n3, dtype=np.int64),) * 2] * 2   # of the s- and s^2-terms
    parts, dense = [], []   # ((M_k0, M_k1), coef, phi mean of h); dense |.|
    f = ((2 * np.arange(n3 + 1) - n3) << (SCALE + 2)) // n3     # F_j
    # radius weights of s_hi, sr, cr, ser + tcr, |cos eta|, |cos theta|, 1
    kr, off = [0] * 7, [0, 0]               # and the lo and hi offsets
    for k, kind, coef in terms:
        p, (m0, m1) = ptabs[k], premap[k][:2]
        if p is not None and (m0 == m1 == (0, 0) or kind == "id"):  # h(s P)
            t = _times(coef, _H[kind](p, SCALE))
            folds[kind == "square"] = fp_add(folds[kind == "square"], t)
        if m0 == m1 == (0, 0):
            continue
        if p is None or kind == "id":                    # h(A), or its A
            parts.append(((m0, m1), coef, lambda a, s, h=_H[kind]: h(a, SCALE)))
        elif kind == "square":
            parts.append(((m0, m1), coef, _square_kernel(p, n3)))
        else:
            v, g, abs_c, rad_p = _abs_kernel(p, n3)
            (c0, r0), (c1, r1), w = _centre(m0), _centre(m1), abs(coef)
            ks = (rad_p, abs_c, abs(c0), abs(c1), r0, r1, abs(c1) + 3 >> 2)
            kr = [x + w * y for x, y in zip(kr, ks)]
            # floors of the centre (3/4, 5/4 + 2^-21), and ac's 1/2, in quarters
            off = [x + w * (5 + 3 * ((coef < 0) ^ i)) for i, x in enumerate(off)]
            dense.append((4 * c0, c1, coef, v, g))
    g1, g2 = (_mean(t, n3) for t in folds)
    t = max(0, ((sum(kr) + kr[3]) * ((1 << SCALE) + 2)).bit_length() - 62)
    if max(-g1[0], g1[1], -g2[0], g2[1]) >> (62 - SCALE) or t > SCALE - 2:
        raise NoConvergence("phi mean of 16 or more, or dense |.| terms this "
                            "heavy, leave the cell sums no int64 headroom")
    shift = SCALE - 2 - t                       # the radius stays below 2^62
    kr = [-(-x >> t) for x in kr[:6]] + [(kr[6] >> t) + (1 << shift)]  # ceiling

    def means(ce, se, tc, ts):
        s = fp_mul_pos(se, ts)                      # sin(eta) sin(theta) >= 0
        adds = [fp_mul_pos(s, g1) if g1 != (0, 0) else (s[0] * 0, s[1] * 0)]
        adds += [fp_mul_pos(fp_mul_pos(s, s), g2)] if g2 != (0, 0) else []
        b = fp_mul_na(se, tc) if parts else None    # sin(eta) cos(theta)
        for row, coef, kernel in parts:
            adds.append(_times(coef, kernel(_combine(row, (ce, b)), s)))
        if dense:
            sc = (s[0] + s[1]) >> 1             # u = ac 2^(SCALE+2) where s = 0
            div = np.where(sc > 0, sc * 2.0 ** -SCALE, 2.0 ** -(SCALE + 2))
            (cc, cr), (sec, ser), (tcc, tcr) = _centre(ce), _centre(se), _centre(tc)
            bc4 = (sec * tcc) >> (SCALE - 2)    # |b - bc4/4| <= ser + tcr + 1/4
            r = (kr[2] * cr + kr[3] * ser + kr[4] * np.maximum(-ce[0], ce[1]) + (
                kr[3] * tcr + kr[5] * np.maximum(-tc[0], tc[1]) + kr[6])
                 + (kr[0] + kr[1]) * s[1] - kr[1] * sc) >> shift
            cen = 0
            for c0, c1, coef, v, g in dense:    # A's centre rounds to nearest
                ac = (c1 * bc4 + (c0 * cc + (1 << (SCALE + 1)))) >> (SCALE + 2)
                j = v.searchsorted(ac / div, "right")
                c = (ac * f.take(j) + sc * g.take(j)) >> SCALE
                cen = cen + (c if coef == 1 else coef * c)
            adds.append(((cen - r - off[0]) >> 2, -((-cen - r - off[1]) >> 2)))
        lo, hi = (sum(x, const << SCALE) for x in zip(*adds))
        _check_bound(lo, hi, m_fx, lambda: (lo, hi))
        return lo, hi

    return means


def _check_bound(lo, hi, m_fx, inner):
    """Refuse cells whose enclosures leave [-m_fx, m_fx].

    ``lo`` and ``hi`` are each cell's lowest and highest end over phi (or of
    its phi mean); ``inner()`` gives its highest lo and lowest hi.  A valid
    enclosure (lo <= hi) that escapes [-m_fx, m_fx] also leaves it on one
    side, so the common case costs one pass over each array.  A cell wholly
    past m_fx has a true value, or a phi mean and so some value, beyond it.
    """
    if int(lo.min()) < -m_fx or int(hi.max()) > m_fx:
        ilo, ihi = inner()
        if int(ilo.max()) > m_fx or int(ihi.min()) < -m_fx:
            raise InvalidBound("integrand enclosure escaped the declared bound")
        raise NoConvergence(
            "integrand enclosure wider than the declared bound allows; the "
            "sweep sums would lose their int64 headroom")

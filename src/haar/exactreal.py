"""Exact dyadic arithmetic, interval enclosures, and certified elementary functions.

All certified computation in this package bottoms out here.  A ``Dyadic`` is an
exact number m * 2^e; an ``Interval`` is a pair of dyadics enclosing a real
number; elementary functions return enclosures whose width is controlled by an
explicit working precision (never by ambient floating point).  Everything is
immutable and pure: working precision is always an argument, never state.

Width growth per operation (the enclosure contract, documented per op):

* ``+ - *``   exact endpoints; width(x+y) = width(x) + width(y), multiplication
              adds |x| width(y) + |y| width(x) up to second order
* ``/``       outward-rounded, width of the exact quotient + 2^-p
* ``sin cos`` 1-Lipschitz: width <= width(x) + 2^-p; one integer Taylor series,
              ``_taylor_sincos``, runs on a python int at any precision or
              on an int64 array of angles, one lane each, at g <= 58;
              ``sincos_pi_fixed`` evaluates sin/cos(pi a/den) with it on
              integers with the quadrant reduced exactly, so any magnitude
              works and no float enters; ``sincos_pi`` wraps it for
              rationals q, and x goes through a rational enclosure of x/pi
* ``sqrt``    monotone; slope unbounded near 0, so width <= sqrt-of-width there
* ``arccos``  monotone, on ints like pi: ``_arcsin_fixed`` (nested floors,
              tail bound 2k + 1 ulps after k terms) behind pi/2 - arcsin t,
              2 arcsin sqrt((1-t)/2) and pi - arccos(-t), ends on a 2^-g
              grid, width <= the exact range's + 2^-p; the slope is
              unbounded near |t| = 1, so an input's width grows a lot there
"""

from __future__ import annotations

import math
from fractions import Fraction


class HaarError(Exception):
    """Root of the errors the package raises on purpose; ``exit_code`` 2: the
    request is valid, but the computation could not certify it."""

    exit_code = 2


class ConfigError(HaarError, ValueError):
    """The request cannot be served as posed, whatever the effort."""

    exit_code = 1


class DomainError(HaarError):
    """Input definitely outside the mathematical domain of the function."""


class DivisionByIntervalContainingZero(HaarError):
    """Interval division where the divisor encloses zero."""


class NoConvergence(HaarError):
    """An effort cap was reached before the requested certificate was met;
    the message names the cap and how far the computation got."""


class InvalidBound(HaarError):
    """An integrand enclosure provably escaped the declared bound [-M, M]."""


class Dyadic:
    """Exact dyadic rational m * 2^e, canonical: m odd or zero (zero has e = 0)."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        if m == 0:
            self.m = 0
            self.e = 0
        else:
            k = (m & -m).bit_length() - 1
            self.m = m >> k
            self.e = e + k

    def as_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e, 1)
        return Fraction(self.m, 1 << -self.e)

    # arithmetic is exact, no rounding ever

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) + (other.m << (other.e - e)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) - (other.m << (other.e - e)), e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.m * other.m, self.e + other.e)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.m, self.e)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.m), self.e)

    def half(self) -> "Dyadic":
        return Dyadic(self.m, self.e - 1)

    def scale2(self, k: int) -> "Dyadic":
        """self * 2^k, exact."""
        return Dyadic(self.m, self.e + k)

    def _cmp(self, other: "Dyadic") -> int:
        e = min(self.e, other.e)
        a = self.m << (self.e - e)
        b = other.m << (other.e - e)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return isinstance(other, Dyadic) and self.m == other.m and self.e == other.e

    def __hash__(self):
        return hash(self.as_fraction())

    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    def is_zero(self) -> bool:
        return self.m == 0

    def floor_to(self, p: int) -> "Dyadic":
        """Largest multiple of 2^-p that is <= self."""
        s = self.e + p
        if s >= 0:
            return self
        return Dyadic(self.m >> -s, -p)

    def ceil_to(self, p: int) -> "Dyadic":
        s = self.e + p
        if s >= 0:
            return self
        return Dyadic(-((-self.m) >> -s), -p)

    def scaled_floor(self, s: int) -> int:
        """floor(self * 2^s), exact."""
        t = self.e + s
        return self.m << t if t >= 0 else self.m >> -t

    def scaled_ceil(self, s: int) -> int:
        t = self.e + s
        return self.m << t if t >= 0 else -((-self.m) >> -t)

    def __float__(self):
        # for display and heuristics only, never in certified paths
        mag = self.m.bit_length() + self.e
        if mag > 1020:
            return math.inf if self.m > 0 else -math.inf
        if mag < -1060:
            return 0.0
        if self.e >= 0:
            return float(self.m << self.e)
        return self.m / float(1 << -self.e)

    def __repr__(self):
        return f"Dyadic({self.m}, {self.e})"

    def __str__(self):
        return f"{self.m}*2^{self.e}"


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, -1)


def fraction_floor_to(q: Fraction, p: int) -> Dyadic:
    """Largest multiple of 2^-p that is <= q (p >= 0)."""
    return Dyadic((q.numerator << p) // q.denominator, -p)


def fraction_ceil_to(q: Fraction, p: int) -> Dyadic:
    return Dyadic(-(((-q.numerator) << p) // q.denominator), -p)


class Interval:
    """Closed interval [lo, hi] with dyadic endpoints; encloses a real number.

    Every operation returns an interval containing {x op y : x in a, y in b}.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(d: Dyadic) -> "Interval":
        return Interval(d, d)

    @staticmethod
    def from_int(n: int) -> "Interval":
        d = Dyadic(n)
        return Interval(d, d)

    @staticmethod
    def from_fractions(lo: Fraction, hi: Fraction, p: int) -> "Interval":
        """Outward-rounded enclosure of [lo, hi] on the 2^-p grid."""
        return Interval(fraction_floor_to(lo, p), fraction_ceil_to(hi, p))

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def midpoint(self) -> Dyadic:
        return (self.lo + self.hi).half()

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        lo = hi = cands[0]
        for c in cands[1:]:
            if c < lo:
                lo = c
            elif c > hi:
                hi = c
        return Interval(lo, hi)

    def scale(self, d: Dyadic) -> "Interval":
        if d.sign() >= 0:
            return Interval(self.lo * d, self.hi * d)
        return Interval(self.hi * d, self.lo * d)

    def divide(self, other: "Interval", p: int) -> "Interval":
        """Enclosure of self/other, endpoints outward-rounded to the 2^-p grid."""
        if other.lo.sign() <= 0 and other.hi.sign() >= 0:
            raise DivisionByIntervalContainingZero(f"divisor {other} encloses zero")
        a, b = self.lo.as_fraction(), self.hi.as_fraction()
        c, d = other.lo.as_fraction(), other.hi.as_fraction()
        cands = (a / c, a / d, b / c, b / d)
        return Interval.from_fractions(min(cands), max(cands), p)

    def abs(self) -> "Interval":
        if self.lo.sign() >= 0:
            return self
        if self.hi.sign() <= 0:
            return -self
        return Interval(ZERO, max(-self.lo, self.hi))

    def square(self) -> "Interval":
        a = self.abs()
        return Interval(a.lo * a.lo, a.hi * a.hi)

    def contains(self, x) -> bool:
        if isinstance(x, Dyadic):
            return self.lo <= x <= self.hi
        q = Fraction(x)
        return self.lo.as_fraction() <= q <= self.hi.as_fraction()

    def round_out(self, p: int) -> "Interval":
        return Interval(self.lo.floor_to(p), self.hi.ceil_to(p))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self):
        return f"[{float(self.lo):.12g}, {float(self.hi):.12g}]"


class CertifiedValue:
    """A dyadic approximation with guarantee |value - true| <= 2^error_exponent."""

    __slots__ = ("value", "error_exponent")

    def __init__(self, value: Dyadic, error_exponent: int):
        self.value = value
        self.error_exponent = error_exponent

    def as_interval(self) -> Interval:
        r = Dyadic(1, self.error_exponent)
        return Interval(self.value - r, self.value + r)

    def __repr__(self):
        return f"CertifiedValue({self.value!r}, {self.error_exponent})"


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

_PI_FIXED: dict[int, tuple[int, int]] = {}


def _arctan_inv_fixed(k: int, g: int) -> tuple[int, int]:
    """(s, e) with |2^g arctan(1/k) - s| < e, on ints.

    x_i = floor(2^g / k^(2i+1)) by nested floors, so each term x_i // (2i+1)
    is the floor of the series term 2^g / (k^(2i+1) (2i+1)), short by under
    1; the alternating tail after the first x_i = 0 is under that term, 1.
    """
    x, s, i = (1 << g) // k, 0, 0
    while x:
        t = x // (2 * i + 1)
        s += -t if i % 2 else t
        x //= k * k
        i += 1
    return s, i + 1


def _pi_fixed(g: int) -> tuple[int, int]:
    """(floor(pi 2^g), floor(pi 2^g) + 1), g >= 0: Machin's pi = 16
    arctan(1/5) - 4 arctan(1/239) on ints at g plus guard bits, the guard
    growing until both ends of the enclosure floor to one value at 2^-g."""
    if g not in _PI_FIXED:
        guard = g.bit_length() + 12
        while True:
            (a, ea), (b, eb) = (_arctan_inv_fixed(k, g + guard) for k in (5, 239))
            lo, hi = (16 * a - 4 * b + d * (16 * ea + 4 * eb) >> guard for d in (-1, 1))
            if lo == hi:
                break
            guard += 16
        _PI_FIXED[g] = (lo, lo + 1)
    return _PI_FIXED[g]


def pi_enclosure(p: int) -> Interval:
    """Enclosure of pi of width 2^-(p+4) <= 2^-p (2^-4 for p < 0), from
    ``_pi_fixed``; nested, pi_enclosure(p+1) inside pi_enclosure(p), since
    2 floor(x) <= floor(2x) <= 2 floor(x) + 1."""
    g = max(p, 0) + 4
    lo, hi = _pi_fixed(g)
    return Interval(Dyadic(lo, -g), Dyadic(hi, -g))


# ---------------------------------------------------------------------------
# sin / cos
# ---------------------------------------------------------------------------


def _mul_floor(a, b, g: int):
    """floor(a b / 2^g): one product and shift on python ints, exact at any
    g >= 0; in two limbs on int64 arrays (or an array and a python int),
    exact for 1 <= g <= 58 and |a|, |b| <= 2^(g+2).

    With k = ceil(g/2) and a = ah 2^k + al, b = bh 2^k + bl, 0 <= al, bl <
    2^k, the product is ah bh 2^2k + (ah bl + al bh) 2^k + al bl; the low
    limbs' carry al bl >> k joins the middle sum before its shift by g - k,
    which drops only bits below 2^g.  No partial product passes 2^(g+4)."""
    if isinstance(a, int) and isinstance(b, int):
        return (a * b) >> g
    k = (g + 1) >> 1
    mask = (1 << k) - 1
    ah, al, bh, bl = a >> k, a & mask, b >> k, b & mask
    return ((ah * bh) << (2 * k - g)) + ((ah * bl + al * bh + ((al * bl) >> k))
                                         >> (g - k))


def _mul_ceil(a, b, g: int):
    """ceil(a b / 2^g) on ``_mul_floor``'s range."""
    return -_mul_floor(-a, b, g)


def _clip(x, cap: int):
    """x clamped to [-cap, cap], on python ints or int64 arrays."""
    return (abs(x + cap) - abs(x - cap)) // 2


def _taylor_sincos(y, g: int):
    """Brackets of sin(y/2^g), cos(y/2^g) for |y| <= 0.9 * 2^g, y a python
    int or an int64 array of them (each entry a lane; g <= 58 on arrays).

    Integer Taylor with floor divisions: each term is -(``_mul_floor``(t,
    y^2/2^g) // ((k+1)(k+2))), the floor of t y^2 / (2^g (k+1)(k+2)), since
    nested floors by positive integers compose.  A computed term is off
    from the exact one by under 2 ulps: its floor and the floor in y^2/2^g
    add under 1.5 ulps, the first term derives from the exact y or 1, and
    later ones inherit the previous error damped by y^2/(2^g (k+1)(k+2)) <
    0.07.  So the sum is off by under 2 ulps per term, and the tail after
    the last nonzero term (an alternating series of falling terms) by under
    2 ulps more; each lane's bracket widens by max(64, 2 terms + 2) ulps for
    its own count of nonzero terms.  A term is below half the previous one
    plus 1, so a series ends within g + 3 terms.
    """
    one, scalar = 1 << g, isinstance(y, int)
    yy = _mul_floor(y, y, g)
    out = []
    for t, k in ((y, 1), (0 * y + one, 0)):
        s, terms = t, 0
        for _ in range(g + 9):
            if not (t if scalar else t.any()):
                break
            terms += t != 0
            t = -(_mul_floor(t, yy, g) // ((k + 1) * (k + 2)))
            s = s + t
            k += 2
        else:
            raise NoConvergence("fixed-point sin/cos series did not settle")
        E = 33 + terms + abs(terms - 31)        # max(64, 2 terms + 2)
        out += [s - E, s + E]
    return tuple(out)


def kernel_bits(p: int) -> int:
    """Fraction bits g at which the sin/cos kernel meets width 2^-p."""
    return p + max(10, p.bit_length())


def _reduced_sincos(u, rden: int, g: int):
    """Outward (slo, shi, clo, chi) of sin and cos of pi u/rden at 2^-g for
    0 <= u/rden <= 1/4, u a python int or an int64 array (rden < 2^31, g <=
    58 there): one Taylor run at the midpoint of the outward bracket of the
    argument, widened by its half-width (sin and cos are 1-Lipschitz).  The
    bracket floor(u pi_lo / rden), ceil(u pi_hi / rden) is taken as u (pi //
    rden) plus u (pi % rden) / rden, exact on ints and free of int64
    overflow on arrays."""
    (qlo, rlo), (qhi, rhi) = (divmod(v, rden) for v in _pi_fixed(g))
    ylo, yhi = u * qlo + u * rlo // rden, u * qhi - (-u * rhi) // rden
    h = (yhi - ylo + 1) // 2 + 1
    slo, shi, clo, chi = _taylor_sincos((ylo + yhi) // 2, g)
    return tuple(_clip(v, 1 << g) for v in (slo - h, shi + h, clo - h, chi + h))


def sincos_pi_fixed(a: int, den: int, g: int):
    """Outward (slo, shi, clo, chi) of sin and cos of pi a/den at 2^-g, den > 0.

    The reduction a/den = j/2 + r, |r| <= 1/4, is exact on the integers, so
    only pi |r| carries the rounding of pi, whatever the size of a/den.  One
    ``_reduced_sincos`` run at |r| on python ints, at any g, gives the
    brackets, sin(-y) = -sin(y) gives r < 0, and the quadrant j % 4 rotates
    the pair; both steps are exact.  ``_grid._sincos_table`` does the same
    for a whole int64 array of a, bit for bit.  Widths stay below 2^(g-p)
    ulps at g = ``kernel_bits(p)``.
    """
    j = (4 * a + den) // (2 * den)          # the nearest j to 2a/den
    num = 2 * a - j * den                   # r = num / (2 den)
    slo, shi, clo, chi = _reduced_sincos(abs(num), 2 * den, g)
    if num < 0:
        slo, shi = -shi, -slo
    return [(slo, shi, clo, chi), (clo, chi, -shi, -slo),
            (-shi, -slo, -chi, -clo), (-chi, -clo, slo, shi)][j % 4]


def sincos_pi(q: Fraction, p: int) -> tuple[Interval, Interval]:
    """Enclosures of sin(pi q) and cos(pi q), each of width <= 2^-p."""
    g = kernel_bits(p)
    slo, shi, clo, chi = sincos_pi_fixed(q.numerator, q.denominator, g)
    return (Interval(Dyadic(slo, -g), Dyadic(shi, -g)),
            Interval(Dyadic(clo, -g), Dyadic(chi, -g)))


def _meets(qlo: Fraction, qhi: Fraction, a: Fraction) -> bool:
    """Whether [qlo, qhi] contains a point a + 2m, m an integer."""
    return math.floor((qhi - a) / 2) >= math.ceil((qlo - a) / 2)


def _sin_or_cos(x: Interval, p: int, which: int) -> Interval:
    """sin (which = 0) or cos (which = 1) over x, through x/pi.

    x/pi is enclosed by the rational [qlo, qhi] with pi to p + |x|'s bits
    + 4, so pi's rounding moves the ends by under 2^-(p+5); the hull of
    the kernel at both ends is clamped to 1 (-1) where the rational range
    reaches a maximum (minimum) of sin(pi q) or cos(pi q).
    """
    mag = max(0, *(abs(d.m).bit_length() + d.e for d in (x.lo, x.hi)))
    pi = pi_enclosure(p + mag + 4)
    pl, ph = pi.lo.as_fraction(), pi.hi.as_fraction()
    a, b = x.lo.as_fraction(), x.hi.as_fraction()
    qlo = a / (ph if a >= 0 else pl)
    qhi = b / (pl if b >= 0 else ph)
    if qhi - qlo >= 2:
        return Interval(-ONE, ONE)
    u, v = sincos_pi(qlo, p + 2)[which], sincos_pi(qhi, p + 2)[which]
    peak = Fraction(1 - which, 2)          # sin peaks at q = 1/2, cos at 0
    return Interval(-ONE if _meets(qlo, qhi, peak + 1) else min(u.lo, v.lo),
                    ONE if _meets(qlo, qhi, peak) else max(u.hi, v.hi))


def sin_enclosure(x: Interval, p: int) -> Interval:
    """Enclosure of sin over x; width <= width(x) + 2^-p."""
    return _sin_or_cos(x, p, 0)


def cos_enclosure(x: Interval, p: int) -> Interval:
    """Enclosure of cos over x; width <= width(x) + 2^-p."""
    return _sin_or_cos(x, p, 1)


# ---------------------------------------------------------------------------
# sqrt
# ---------------------------------------------------------------------------

def sqrt_down(d: Dyadic, p: int) -> Dyadic:
    """Largest multiple of 2^-p whose square is <= d (d >= 0)."""
    if d.sign() < 0:
        raise DomainError("sqrt of negative dyadic")
    if d.is_zero():
        return ZERO
    shift = d.e + 2 * p
    n = d.m << shift if shift >= 0 else d.m >> -shift
    return Dyadic(math.isqrt(n), -p)


def sqrt_up(d: Dyadic, p: int) -> Dyadic:
    if d.sign() < 0:
        raise DomainError("sqrt of negative dyadic")
    if d.is_zero():
        return ZERO
    shift = d.e + 2 * p
    if shift >= 0:
        n = d.m << shift
        exact = True
    else:
        n = (d.m >> -shift) + 1   # over-approximation of m 2^(e+2p)
        exact = False
    r = math.isqrt(n)
    if exact and r * r == n:
        return Dyadic(r, -p)
    return Dyadic(r + 1, -p)


def sqrt_enclosure(x: Interval, p: int) -> Interval:
    """Monotone enclosure of sqrt; definitely-negative input raises DomainError.

    A lower endpoint slightly below zero (enclosure noise) is clamped to 0.
    """
    if x.hi.sign() < 0:
        raise DomainError(f"sqrt of definitely-negative interval {x}")
    lo = x.lo if x.lo.sign() > 0 else ZERO
    return Interval(sqrt_down(lo, p), sqrt_up(x.hi, p))


# ---------------------------------------------------------------------------
# arccos
# ---------------------------------------------------------------------------

def _arcsin_fixed(x: int, g: int) -> tuple[int, int]:
    """(s, e) with s <= 2^g arcsin(x/2^g) < s + e, for 0 <= x <= 2^(g-1).

    With y = x/2^g, arcsin y = sum_k a_k/(2k+1) with a_0 = y and a_(k+1) =
    a_k y^2 (2k+1)/(2k+2), a ratio under 1/4.  c_k, the nested floor of
    2^g a_k, is short by d_k < 1 + d_(k-1)/4 < 4/3, so the term c_k //
    (2k+1) is short by under (2k + 4/3)/(2k+1) < 2, and by 0 at k = 0.  At
    the first c_k = 0, 2^g a_k < 4/3 and the tail is under 1.  So s is
    short by under 2k + 1 after k <= g/2 + 1 terms.
    """
    xx, c, s, k = x * x, x, 0, 0
    while c:
        s += c // (2 * k + 1)
        c = (c * xx * (2 * k + 1) >> 2 * g) // (2 * k + 2)
        k += 1
    return s, 2 * k + 1


def _arccos_fixed(t: Dyadic, g: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^g arccos(t) <= hi, for -1 <= t <= 1.

    t < 0: pi - arccos(-t).  t <= 1/2: pi/2 - arcsin(t), the series at x =
    floor(t 2^g).  t > 1/2: 2 arcsin(v), v = sqrt((1 - t)/2) < 1/2, the
    series at x = isqrt(floor((1 - t) 2^(2g-1))) = floor(v 2^g).  Both add
    2 ulps for the part under one ulp below the grid (arcsin' < 2 up to
    1/2).  Widths are e + 3, 2e + 4 and one more for t < 0.
    """
    if t.sign() < 0:
        lo, hi = _arccos_fixed(-t, g)
        pi_lo, pi_hi = _pi_fixed(g)
        return pi_lo - hi, pi_hi - lo
    if t <= HALF:
        s, e = _arcsin_fixed(t.scaled_floor(g), g)
        pi_lo, pi_hi = _pi_fixed(g - 1)
        return pi_lo - (s + e + 2), pi_hi - s
    s, e = _arcsin_fixed(math.isqrt((1 << 2 * g - 1) - t.scaled_ceil(2 * g - 1)), g)
    return 2 * s, 2 * (s + e + 2)


def arccos_enclosure(x: Interval, p: int) -> Interval:
    """Enclosure of arccos over x, after clamping x outward to [-1,1] by <= 2^-p.

    Each end runs ``_arccos_fixed`` on ints at g = ``kernel_bits(p)`` + 2;
    the result's ends lie on the 2^-g grid, its lower end from x's upper
    end (arccos decreases), and its width exceeds arccos(lo) - arccos(hi)
    by at most 2e + 5 <= 2g + 9 ulps, at most 2^-p since 2g + 9 <=
    2^(g-p) for every p >= 0.
    Raises DomainError when x lies entirely outside [-1 - 2^-p, 1 + 2^-p].
    """
    tol = ONE + Dyadic(1, -p)
    if x.lo > tol or x.hi < -tol:
        raise DomainError(f"arccos of interval {x} outside [-1,1]")
    g = kernel_bits(p) + 2
    lo, _ = _arccos_fixed(min(max(x.hi, -ONE), ONE), g)
    _, hi = _arccos_fixed(min(max(x.lo, -ONE), ONE), g)
    return Interval(Dyadic(max(lo, 0), -g), Dyadic(hi, -g))

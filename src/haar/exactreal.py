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
* ``sin cos`` 1-Lipschitz: width <= width(x) + 2^-p; one integer Taylor kernel,
              ``sincos_pi``, evaluates sin/cos(pi q) on exact rationals q with
              the quadrant reduced exactly, so any magnitude works and no
              float enters; x goes through a rational enclosure of x/pi
* ``sqrt``    monotone; slope unbounded near 0, so width <= sqrt-of-width there
* ``arccos``  monotone; slope 1/sqrt(1-t^2) unbounded near |t| = 1, enclosures
              remain valid but can be wide there
"""

from __future__ import annotations

import math
from fractions import Fraction


class DomainError(ArithmeticError):
    """Input definitely outside the mathematical domain of the function."""


class DivisionByIntervalContainingZero(ZeroDivisionError):
    """Interval division where the divisor encloses zero."""


class NoConvergence(RuntimeError):
    """An effort cap was reached before the requested certificate was met."""


class InvalidBound(ValueError):
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


def dyadic_min(a: Dyadic, b: Dyadic) -> Dyadic:
    return a if a <= b else b


def dyadic_max(a: Dyadic, b: Dyadic) -> Dyadic:
    return a if a >= b else b


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

    def shift(self, d: Dyadic) -> "Interval":
        return Interval(self.lo + d, self.hi + d)

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
        return Interval(ZERO, dyadic_max(-self.lo, self.hi))

    def square(self) -> "Interval":
        a = self.abs()
        return Interval(a.lo * a.lo, a.hi * a.hi)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(dyadic_max(self.lo, other.lo),
                        dyadic_min(self.hi, other.hi))

    def contains(self, x) -> bool:
        if isinstance(x, Dyadic):
            return self.lo <= x <= self.hi
        q = Fraction(x)
        return self.lo.as_fraction() <= q <= self.hi.as_fraction()

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

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


def interval_arith(a: Interval, b: Interval, op: str, p: int = 53) -> Interval:
    """Dispatch form of the four interval operations; division rounds to 2^-p."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a.divide(b, p)
    raise ValueError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

_PI_CACHE: dict[int, Interval] = {}


def _arctan_inv_brackets(k: int, nterms: int) -> tuple[Fraction, Fraction]:
    """Exact brackets of arctan(1/k) from consecutive alternating partial sums."""
    x = Fraction(1, k)
    x2 = x * x
    s = Fraction(0)
    term = x
    sign = 1
    for i in range(nterms):
        s += sign * term
        term = term * x2 * Fraction(2 * i + 1, 2 * i + 3)
        sign = -sign
    # alternating with strictly decreasing terms: truth is between s and s + sign*term
    nxt = s + sign * term
    return (s, nxt) if s <= nxt else (nxt, s)


def pi_enclosure(p: int) -> Interval:
    """Enclosure of pi of width <= 2^-p; nested: pi_enclosure(p+1) inside pi_enclosure(p).

    Machin: pi = 16 arctan(1/5) - 4 arctan(1/239).  The truncation depths and
    the rounding grid grow monotonically with p and the true brackets are
    nested, so outward rounding to a finer grid preserves nesting.
    """
    if p in _PI_CACHE:
        return _PI_CACHE[p]
    lo5, hi5 = _arctan_inv_brackets(5, max(4, (p + 10) // 4))
    lo239, hi239 = _arctan_inv_brackets(239, max(2, (p + 10) // 15))
    enc = Interval.from_fractions(16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239, p + 4)
    if enc.width() > Dyadic(1, -p):
        raise AssertionError("pi enclosure width regression")
    _PI_CACHE[p] = enc
    return enc


# ---------------------------------------------------------------------------
# sin / cos
# ---------------------------------------------------------------------------

_PI_FIXED: dict[int, tuple[int, int]] = {}


def _pi_fixed(g: int) -> tuple[int, int]:
    if g not in _PI_FIXED:
        enc = pi_enclosure(g + 4)
        _PI_FIXED[g] = (enc.lo.scaled_floor(g), enc.hi.scaled_ceil(g))
    return _PI_FIXED[g]


def _taylor_sincos(y: int, g: int) -> tuple[int, int, int, int]:
    """Brackets of sin(y/2^g), cos(y/2^g) for |y| <= 0.9 * 2^g.

    Integer Taylor with floor divisions.  A computed term is off from the
    exact one by under 2 ulps: its floor and the floor in y^2/2^g add under
    1.5 ulps, the first term derives from the exact y or 1, and later ones
    inherit the previous error damped by y^2/(2^g (k+1)(k+2)) < 0.07.  So
    the sum is off by under 2 ulps per term, and the tail after the last
    nonzero term (an alternating series of falling terms) by under 2 ulps
    more; each bracket widens by max(64, 2 terms + 2) ulps.  A term is below
    half the previous one plus 1, so a series ends within g + 3 terms.
    """
    one = 1 << g
    yy = (y * y) >> g
    out = []
    for t, k in ((y, 1), (one, 0)):
        s, terms = t, 0
        while t:
            t = -((t * yy) // (one * (k + 1) * (k + 2)))
            s += t
            k += 2
            terms += 1
            if terms > g + 8:
                raise NoConvergence("fixed-point sin/cos series did not settle")
        E = max(64, 2 * terms + 2)
        out += [s - E, s + E]
    return tuple(out)


def sincos_pi(q: Fraction, p: int) -> tuple[Interval, Interval]:
    """Enclosures of sin(pi q) and cos(pi q), each of width <= 2^-p.

    The quadrant reduction q = k/2 + r is exact on the rational q, so only
    pi r (|r| <= 1/4) carries the rounding of pi, whatever the size of q.
    The kernel runs on integers at g = p + max(10, bits of p) fraction bits.
    """
    g = p + max(10, p.bit_length())
    k = round(2 * q)
    r = q - Fraction(k, 2)
    plo, phi_ = _pi_fixed(g)
    num, den = r.numerator, r.denominator
    if num >= 0:
        ylo = (num * plo) // den
        yhi = -((-num * phi_) // den)
    else:
        ylo = (num * phi_) // den
        yhi = -((-num * plo) // den)
    # the Taylor brackets at the midpoint widen by the half-width (sin and
    # cos are 1-Lipschitz), then the quadrant k % 4 rotates them
    h = (yhi - ylo + 1) // 2 + 1
    cap = 1 << g
    slo, shi, clo, chi = _taylor_sincos((ylo + yhi) // 2, g)
    slo, shi = max(slo - h, -cap), min(shi + h, cap)
    clo, chi = max(clo - h, -cap), min(chi + h, cap)
    slo, shi, clo, chi = [(slo, shi, clo, chi), (clo, chi, -shi, -slo),
                          (-shi, -slo, -chi, -clo), (-chi, -clo, slo, shi)][k % 4]
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
    return Interval(-ONE if _meets(qlo, qhi, peak + 1) else dyadic_min(u.lo, v.lo),
                    ONE if _meets(qlo, qhi, peak) else dyadic_max(u.hi, v.hi))


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

def _arcsin_brackets_small(t: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """Exact brackets of arcsin(t) for |t| <= 5/8 via the binomial series.

    arcsin(t) = sum_k C(2k,k)/4^k * t^(2k+1)/(2k+1); all terms share the sign
    of t, and the tail after term k is below |next term| / (1 - t^2).
    """
    if abs(t) > Fraction(5, 8):
        raise DomainError("series argument too large")
    t2 = t * t
    bound = Fraction(1, 1 << (p + 2))
    coeff = Fraction(1)          # C(2k,k) / 4^k
    s = Fraction(0)
    k = 0
    while True:
        s += coeff * t ** (2 * k + 1) / (2 * k + 1)
        coeff *= Fraction(2 * k + 1, 2 * k + 2)
        k += 1
        tail = coeff * abs(t) ** (2 * k + 1) / ((2 * k + 1) * (1 - t2))
        if tail <= bound:
            break
        if k > 500:
            raise NoConvergence("arcsin series did not settle")
    if t >= 0:
        return s, s + tail
    return s - tail, s


def _arccos_point_brackets(t: Fraction, p: int) -> tuple[Fraction, Fraction]:
    """Exact brackets of arccos(t), t in [-1, 1], width <= 2^-p-ish."""
    pi_lo, pi_hi = (lambda e: (e.lo.as_fraction(), e.hi.as_fraction()))(pi_enclosure(p + 4))
    if t < 0:
        lo, hi = _arccos_point_brackets(-t, p + 1)
        return pi_lo - hi, pi_hi - lo
    if t <= Fraction(1, 2):
        alo, ahi = _arcsin_brackets_small(t, p + 1)
        return pi_lo / 2 - ahi, pi_hi / 2 - alo
    # arccos(t) = 2 arcsin(sqrt((1-t)/2)), argument in [0, 1/2]
    u = (1 - t) / 2
    q = 1 << (p + 6)
    r = math.isqrt(u.numerator * q * q // u.denominator)
    rlo, rhi = Fraction(r, q), Fraction(r + 1, q)
    alo, _ = _arcsin_brackets_small(rlo, p + 2)
    _, ahi = _arcsin_brackets_small(rhi, p + 2)
    return 2 * alo, 2 * ahi


def arccos_enclosure(x: Interval, p: int) -> Interval:
    """Enclosure of arccos over x, after clamping x outward to [-1,1] by <= 2^-p.

    Raises DomainError when x lies entirely outside [-1 - 2^-p, 1 + 2^-p].
    """
    one = Fraction(1)
    tol = Fraction(1, 1 << p)
    a, b = x.lo.as_fraction(), x.hi.as_fraction()
    if a > one + tol or b < -(one + tol):
        raise DomainError(f"arccos of interval {x} outside [-1,1]")
    a = min(max(a, -one), one)
    b = min(max(b, -one), one)
    lo, _ = _arccos_point_brackets(b, p + 2)   # arccos decreasing
    _, hi = _arccos_point_brackets(a, p + 2)
    return Interval.from_fractions(max(lo, Fraction(0)), hi, p + 2)


def abs_enclosure(x: Interval, p: int = 0) -> Interval:
    """Exact enclosure of |x|; p accepted for interface uniformity."""
    return x.abs()


_ELEMENTARY = {
    "sin": sin_enclosure,
    "cos": cos_enclosure,
    "sqrt": sqrt_enclosure,
    "arccos": arccos_enclosure,
    "abs": abs_enclosure,
}


def elementary_enclosure(name: str, x: Interval, p: int) -> Interval:
    try:
        f = _ELEMENTARY[name]
    except KeyError:
        raise ValueError(f"no elementary enclosure named {name!r}") from None
    return f(x, p)


# ---------------------------------------------------------------------------
# precision-refinement driver
# ---------------------------------------------------------------------------

def refine(computation, n: int, max_iterations: int = 40) -> CertifiedValue:
    """Run ``computation(working_precision) -> Interval`` until width <= 2^-n.

    Working precision starts at max(n+4, 16) and doubles per iteration, so the
    total cost stays within a constant factor of the final iteration.  Returns
    the midpoint of the first sufficiently narrow interval, error bound 2^-n.
    """
    target = Dyadic(1, -n)
    wp = max(n + 4, 16)
    for _ in range(max_iterations):
        enc = computation(wp)
        if enc.width() <= target:
            return CertifiedValue(enc.midpoint(), -n)
        wp *= 2
    raise NoConvergence(
        f"no interval of width <= 2^-{n} after {max_iterations} refinements")

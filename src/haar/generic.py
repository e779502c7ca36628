"""The generic packing-based Haar algorithms: pseudo-counting on located sets,
measure computation, co-inner-regular radius search, nice partitions, and the
Haar integral itself.

These work on any builtin group with a closed-form packing size and exact
closed balls (finite, circle, torus), where a located set is one exact region
of its group.  Regions are integers over one denominator, radii pass through
as the ints, fractions or dyadics they are, and packing counts are exact
integers (index ranges on the circle and tori); the radius search holds its
levels as integers too, and a partition cell subtracts only the neighbours a
packing's index query names.  Certified values come out as dyadics with 2^-n
error bounds.  Determinism: identical inputs produce bit-identical outputs
(no floats anywhere on these paths).

Measure loop.  The termination test pairs an observable upper witness with an
observable lower witness built from the generalized-ball identities
B(+r, B(-r, U)) <= closure(U) <= B(-r, B(+r, U)): counting the r-shrunk
4r-thickening of U can only overshoot mu(U), and the r/2-thickening of the
4r-core can only undershoot, so mu(U) always lies between the two counts and
the midpoint is certified as soon as they pinch to 2^-n.  (Stopping on a
single shrunk/thickened bracket instead can fire while the bracket still
excludes mu(U): with a one-point packing both counts of a small set hit 0 or
1 regardless of its measure; the witness pair closes that gap.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .exactreal import (
    ZERO, CertifiedValue, Dyadic, Interval, InvalidBound, NoConvergence,
    dyadic_max, fraction_ceil_to, fraction_floor_to,
)
from .groups import Group
from .packing import PackingTable
from .regions import ratio


class PackingExhausted(RuntimeError):
    """A procedure needed packing levels beyond the table/effort cap."""


# ---------------------------------------------------------------------------
# located sets
# ---------------------------------------------------------------------------

def _as_fraction(x) -> Fraction:
    return x.as_fraction() if hasattr(x, "as_fraction") else Fraction(x)


@dataclass(frozen=True)
class LocatedSet:
    """A closed set given by one exact region of its group.

    Regions (finite subsets; arc and box unions on the circle and tori) come
    through the group's ``region`` field, which builds the exact closed ball
    of a center and a radius; groups without it have no located sets.
    Distances from points to a region are exact rationals.
    """

    group: Group
    region: object

    @staticmethod
    def ball(G: Group, center, radius) -> "LocatedSet":
        if G.region is None:
            raise ValueError(f"no located-set backend for group {G.kind!r}")
        return LocatedSet(G, G.region(center, radius))

    @staticmethod
    def whole(G: Group) -> "LocatedSet":
        return LocatedSet.ball(G, G.identity, G.diameter_bound)

    def outer_ball(self, r) -> "LocatedSet":
        """B(+r, S) = {x : d(x, S) <= r}."""
        return LocatedSet(self.group, self.region.expand(r))

    def inner_ball(self, r) -> "LocatedSet":
        """B(-r, S) = {x : d(x, complement of S) >= r}."""
        return LocatedSet(self.group, self.region.shrink(r))


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------

def _ceil_log2(q: Fraction) -> int:
    """The smallest s with q <= 2^s."""
    if q <= 0:
        raise ValueError("positive value required")
    # 2^(s-1) < q < 2^(s+1) for this s
    s = q.numerator.bit_length() - q.denominator.bit_length()
    return s + (q > Fraction(2) ** s)


@dataclass(frozen=True)
class ModulusOfContinuity:
    """m(k) such that d(x, y) <= 2^-m(k) implies |f(x) - f(y)| <= 2^-k."""

    eval_fn: Callable[[int], int]

    def eval(self, k: int) -> int:
        return self.eval_fn(k)

    @staticmethod
    def from_lipschitz(L) -> "ModulusOfContinuity":
        Lf = _as_fraction(L)
        if Lf <= 0:
            return ModulusOfContinuity(lambda k: 0)
        shift = max(0, _ceil_log2(Lf))
        return ModulusOfContinuity(lambda k: max(0, k + shift))

    @staticmethod
    def discrete() -> "ModulusOfContinuity":
        """On the discrete metric any function has modulus m = 1."""
        return ModulusOfContinuity(lambda k: 1)


# ---------------------------------------------------------------------------
# pseudo-counting
# ---------------------------------------------------------------------------

def _near_count(region, T, n: int) -> int:
    """#points of T within exact distance 3 * 2^-(n+2) of the region."""
    return T.count_within(region, Dyadic(3, -(n + 2)))


def pseudo_count(S: LocatedSet, T, n: int) -> Fraction:
    """Exact rational q with mu_T(S) <= q <= mu_T(B(2^-n, S)).

    Counts the points of T within exact distance 3 * 2^-(n+2) of S's region
    (the test "dist(p, S, n+2) < 2^-(n+1)" with the enclosure slack folded
    in): every point of S is counted, nothing beyond the 2^-n thickening can
    be.  No packing point is visited: grid packings on the circle and tori
    count unions of index ranges, finite packings the region's members.
    """
    return Fraction(_near_count(S.region, T, n), T.size)


# ---------------------------------------------------------------------------
# measure of a located co-inner-regular set
# ---------------------------------------------------------------------------

def compute_measure(U: LocatedSet, packings: PackingTable, n: int, *,
                    max_level: Optional[int] = None) -> CertifiedValue:
    """Certified mu(U) to 2^-n for a located co-inner-regular set.

    Every level is certified on its own, so the loop may start where pinching
    first becomes possible: the witnesses differ by at least the counting
    granularity plus the 2^(-m+4)-band mass, which cannot fall below 2^-n
    until m is within a few levels of n.  Levels below max(1, n-4) are
    therefore skipped; the value is unchanged, only dead iterations go.
    """
    target = Fraction(1, 1 << n)
    cap = max_level if max_level is not None else n + 48
    start = m = max(1, n - 4)
    while m <= cap:
        r, r4 = Dyadic(1, -m), Dyadic(1, 2 - m)
        T = packings.packing(m)
        upper = pseudo_count(U.outer_ball(r4).inner_ball(r), T, m + 1)
        lower = pseudo_count(U.inner_ball(r4).outer_ball(r.half()), T, m + 1)
        if upper - lower <= target:
            mid = (upper + lower) / 2
            return CertifiedValue(fraction_floor_to(mid, n + 8), -n)
        m += 1
    if max_level is not None:
        tried = (f"levels {start}..{cap} did not pinch" if cap >= start else
                 f"no level tried, since the first is {start}")
        raise PackingExhausted(
            f"measure to 2^-{n} hit the effort cap at packing level {cap}: "
            f"{tried}")
    raise NoConvergence(
        f"measure witnesses did not pinch to 2^-{n} by packing level {cap}; "
        "the set is likely not co-inner regular")


# ---------------------------------------------------------------------------
# co-inner-regular radius search
# ---------------------------------------------------------------------------

def _packing_level(num: int, den: int) -> int:
    """The smallest N >= 3 with 2^-(N-3) <= num/den (num, den > 0), from bit
    lengths: j = bitlen(den) - bitlen(num) puts num 2^j within a factor 2 of
    den."""
    j = max(0, den.bit_length() - num.bit_length())
    return 3 + j + ((num << j) < den)


class CoinnerRadiusSearch:
    """Nested rational intervals converging to a co-inner-regular radius.

    Level k halves the measure gap of the surviving radius interval: the
    previous interval is split at its 1/10, 5/10, 9/10 marks, ball measures
    are pseudo-counted at a packing level N with 2^(-N+3) below a tenth of
    the interval (one bit stronger than strictly needed, which absorbs the
    counting slacks), and the half with the smaller measure difference
    survives, pulled in by epsilon = width/10 on both sides.

    A level is held as ints (lo, hi, den) read as lo/den, hi/den.  The next
    level works over 10 den, where the marks and epsilon are integers: with
    e = hi - lo, the marks are 10 lo + e, + 5e, + 9e and epsilon is e.  N is
    read off bit lengths (``_packing_level``).  The three balls share one
    packing, so their pseudo-counts compare as point counts.  ``level``
    returns the exact rational pair.
    """

    def __init__(self, G: Group, packings: PackingTable, a, b):
        (an, ad), (bn, bd) = ratio(a), ratio(b)
        if not 0 < an * bd < bn * ad:
            raise ValueError("need 0 < a < b")
        self.group = G
        self.packings = packings
        self.center = G.dense(0)
        den = 10 * lcm(ad, bd)
        lo, hi = an * (den // ad), bn * (den // bd)
        e = (hi - lo) // 10
        self.levels = [(lo + e, hi - e, den)]

    def level(self, k: int) -> tuple[Fraction, Fraction]:
        while len(self.levels) <= k:
            lo, hi, den = self.levels[-1]
            e, lo, den = hi - lo, 10 * lo, 10 * den
            N = _packing_level(e, den)
            if N > 4096:
                raise PackingExhausted(f"radius search needs packing level {N}")
            T = self.packings.packing(N)
            c1, c5, c9 = (_near_count(
                self.group.region(self.center, Fraction(lo + i * e, den)), T, N)
                for i in (1, 5, 9))
            lo += 2 * e if c9 - c5 <= c5 - c1 else 6 * e
            self.levels.append((lo, lo + 2 * e, den))
        lo, hi, den = self.levels[k]
        return Fraction(lo, den), Fraction(hi, den)

    def bracket_below(self, width) -> tuple[Fraction, Fraction]:
        wn, wd = ratio(width)
        k = 0
        while True:
            self.level(k)
            lo, hi, den = self.levels[k]
            if (hi - lo) * wd <= wn * den:
                return Fraction(lo, den), Fraction(hi, den)
            k += 1


def find_coinner_radius(a: Dyadic, b: Dyadic,
                        packings: PackingTable, n: int) -> tuple[Dyadic, Dyadic]:
    """Dyadic bounds (a_n, b_n) of the level-n co-inner radius interval.

    a < a_n < b_n < b, b_n - a_n <= 2^-n, and the measures of the closed balls
    with radii a_n and b_n differ by at most 2^-n.  Rounding of the exact
    rational interval is inward, which preserves every postcondition.

    The width shrinks by a factor 5 per level but the measure gap is only
    guaranteed to halve, so the search must descend to level n even when the
    interval narrows earlier.
    """
    search = CoinnerRadiusSearch(packings.group, packings, a, b)
    k = n
    while True:
        lo, hi = search.level(k)
        if hi - lo <= Fraction(1, 1 << n):
            return (fraction_ceil_to(lo, n + 8), fraction_floor_to(hi, n + 8))
        k += 1


# ---------------------------------------------------------------------------
# nice partitions
# ---------------------------------------------------------------------------

@dataclass
class PartitionCell:
    center: object
    radius: CertifiedValue
    set: LocatedSet
    index: int


def find_nice_partition(G: Group, packings: PackingTable, n: int, *,
                        radius_precision: Optional[int] = None):
    """Disjoint covering cells B(R, p_i) minus earlier balls, p_i from T_(n+1).

    R is a co-inner-regular radius found in (2^-(n+1), 2^-n); each cell sits
    inside a closed ball of radius 2^-n.  ``radius_precision`` q controls how
    tightly R is pinned: R lies in a dyadic bracket [r_lo, r_hi] of width
    below 2^-q, and cell i is the region B(r_lo, p_i) minus the balls
    B(r_hi, p_j) of its predecessors, which lies inside the true cell.  The
    mass it leaves out is bounded in ``ring_bound``.

    A predecessor farther than 2 r_hi has a ball disjoint from the cell, so
    only the packing's ``indices_within`` answer for the point p_i at
    threshold 2 r_hi is subtracted, in index order: exact index arithmetic
    on the circle and tori, membership on finite groups.  No metric is
    evaluated, and the cells are those of a scan over all pairs.
    """
    q = radius_precision if radius_precision is not None else n + 16
    search = CoinnerRadiusSearch(G, packings, Dyadic(1, -(n + 1)), Dyadic(1, -n))
    r_lo, r_hi = search.bracket_below(Dyadic(1, -(q + 1)))
    # outward rounding to dyadics keeps the bracket valid and keeps all later
    # region arithmetic on power-of-two denominators
    r_lo = fraction_floor_to(r_lo, q + 4)
    r_hi = fraction_ceil_to(r_hi, q + 4)
    T = packings.packing(n + 1)
    centers = T.points_list()
    mid = (r_lo + r_hi).half().floor_to(q + 4)
    two_r = r_hi.scale2(1)
    cells = []
    balls = []
    for i, p in enumerate(centers):
        cell = G.region(p, r_lo)
        for j in T.indices_within(G.region(p, 0), two_r):
            if j >= i:
                break
            cell = cell.subtract(balls[j])
        cells.append(PartitionCell(center=p,
                                   radius=CertifiedValue(mid, -q),
                                   set=LocatedSet(G, cell), index=i + 1))
        balls.append(G.region(p, r_hi))
    return cells


# ---------------------------------------------------------------------------
# the Haar integral
# ---------------------------------------------------------------------------

def ring_bound(G: Group, cells, M: Fraction, n: int) -> Dyadic:
    """M * ncells^2 * s rounded up to the 2^-(n+10) grid: a bound on the
    integral mass that the cells' regions leave out.

    With R in [r_lo, r_hi] the co-inner radius, the true cells C_i = B(R, p_i)
    minus the earlier balls B(R, p_j) partition G up to null sets.  Cell i's
    region, B(r_lo, p_i) minus the balls B(r_hi, p_j) of its nearby
    predecessors, lies in C_i up to a null set; a point of C_i it misses lies
    in the ring B(R, p_i) - B(r_lo, p_i) or in a ring B(r_hi, p_j) - B(R, p_j)
    of a nearby j (a predecessor farther than 2 r_hi has a ball disjoint from
    B(r_hi, p_i); ``find_nice_partition``'s neighbour query subtracts exactly
    the predecessors within 2 r_hi, the same set as a scan over all pairs).
    The cells' radius rho +- 2^-q encloses [r_lo, r_hi], so by translation
    invariance every ring has mass at most s = mu(B(rho + 2^-q, e)) -
    mu(B(rho - 2^-q, e)).  A cell has fewer than ncells predecessors, so with
    |f| <= M the sum of mu(region_i) f(p_i) lies within M * ncells^2 * s of
    the sum of mu(C_i) f(p_i).  On a finite group both balls are {e}: s = 0.
    """
    rho = cells[0].radius.as_interval()
    s = (G.region(G.identity, rho.hi).measure()
         - G.region(G.identity, rho.lo).measure())
    return fraction_ceil_to(M * len(cells) ** 2 * s, n + 10)


def compute_integral(G: Group, f, modulus: ModulusOfContinuity, bound_M,
                     packings: PackingTable, n: int, *,
                     max_level: Optional[int] = None) -> CertifiedValue:
    """Certified Haar integral: partition at the modulus scale, then sum
    cell measures times center values.

    Flat measure schedule.  Let b = bitlen(ncells) and log M =
    ceil(log2 max(M, 1)), so ncells < 2^b and |f| <= M <= 2^log M.  Every
    cell's measure is computed to the same 2^-t, t = n + 3 + b + log M, so
    the summed measure error is at most M ncells 2^-t < 2^-(n+3).  The
    modulus term is at most 2^-(n+1) and the f enclosures add at most
    2^-(n+3), inside the 2^-n certificate with slack for rounding.  Whatever
    t is, the interval sum keeps the enclosure sound; the schedule only makes
    the width check below pass.

    Radius precision.  The cells' regions miss part of the true cells' mass;
    ``ring_bound`` widens the enclosure by it.  The radius is pinned to
    q = t + 18 + b = n + 21 + 2b + log M bits, and on the circle a ring has
    mass s <= 4 * 2^-q, so M ncells^2 s <= 2^(log M + 2b + 2 - q) =
    2^-(n+19): one step of 2^-(n+10) (on torus:d at most d times that, on
    finite groups 0).  Both t and q grow with log ncells, not with ncells,
    so no cell needs measures or radii of ncells bits.
    """
    M = _as_fraction(bound_M)
    if M <= 0:
        M = Fraction(1)
    m_f = modulus.eval(n + 1)
    ncells = packings.size(m_f + 1)
    log_m = max(0, _ceil_log2(max(M, Fraction(1))))
    t = n + 3 + ncells.bit_length() + log_m
    qprec = t + 18 + ncells.bit_length()
    cells = find_nice_partition(G, packings, m_f, radius_precision=qprec)
    wp_f = n + 6
    total = Interval.from_int(0)
    for cell in cells:
        meas = compute_measure(cell.set, packings, t,
                               max_level=max_level).as_interval()
        fv = f(cell.center, wp_f)
        if fv.lo.as_fraction() > M or fv.hi.as_fraction() < -M:
            raise InvalidBound(
                f"f at cell {cell.index} encloses {fv}, outside [-M, M]")
        total = total + Interval(dyadic_max(meas.lo, ZERO), meas.hi) * fv
    # the ring bound is on the 2^-(n+10) grid, so it keeps the midpoint
    slack = Dyadic(1, -(n + 1)) + ring_bound(G, cells, M, n)
    enc = Interval(total.lo - slack, total.hi + slack).round_out(n + 10)
    if enc.width() > Dyadic(1, -(n - 1)):
        raise NoConvergence("integral enclosure wider than its certificate")
    return CertifiedValue(enc.midpoint(), -n)

"""The generic packing-based Haar algorithms: pseudo-counting on located sets,
measure computation, co-inner-regular radius search, nice partitions, and the
Haar integral itself.

These work on any builtin group with a closed-form packing size (finite,
circle, torus).  All counting is exact rational arithmetic; certified values
come out as dyadics with 2^-n error bounds.  Determinism: identical inputs
produce bit-identical outputs (no floats anywhere on these paths).

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
from typing import Callable, Optional

from .exactreal import (
    CertifiedValue, Dyadic, Interval, InvalidBound, NoConvergence,
    dyadic_min, fraction_ceil_to, fraction_floor_to,
)
from .groups import Group
from .packing import PackingTable
from .regions import BoxRegion, FiniteRegion


class PackingExhausted(RuntimeError):
    """A procedure needed packing levels beyond the table/effort cap."""


def _region_space(G: Group):
    if G.kind == "finite":
        return ("finite", G.order)
    if G.kind == "circle":
        return ("torus", 1)
    if G.kind == "torus":
        return ("torus", G.dim)
    return None


def _as_point(G: Group, element):
    """Region coordinates of an element (circle points become 1-tuples)."""
    if G.kind == "circle":
        return (element,)
    return element


# ---------------------------------------------------------------------------
# located sets
# ---------------------------------------------------------------------------

class LocatedSet:
    """A closed set with a certified distance evaluator p -> d(p, S).

    Region-backed sets (finite subsets; arc/box unions on circle and torus)
    are exact: the distance enclosure has width zero.  Sets built from a
    partition radius known only to a bracket carry an inner and an outer
    region; the distance enclosure is then [d(p, outer), d(p, inner)].
    Custom callable-backed sets supply dist(p, wp) -> Interval directly; their
    generalized balls use d(p, B_r(S)) = max(d(p, S) - r, 0), exact on the
    geodesic-like builtin metrics.
    """

    def __init__(self, *, group: Group, inner=None, outer=None,
                 dist_fn: Optional[Callable] = None, description: str = ""):
        self.group = group
        self.inner = inner            # region contained in S
        self.outer = outer            # region containing S
        self.dist_fn = dist_fn
        self.description = description

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def ball(G: Group, center, radius) -> "LocatedSet":
        r = radius.as_fraction() if hasattr(radius, "as_fraction") else Fraction(radius)
        space = _region_space(G)
        if space is None:
            raise ValueError(f"no located-set backend for group {G.kind!r}")
        if space[0] == "finite":
            reg = FiniteRegion.ball(space[1], center, r)
        else:
            reg = BoxRegion.ball(space[1], _as_point(G, center), r)
        return LocatedSet(group=G, inner=reg, outer=reg,
                          description=f"ball(r={r})")

    @staticmethod
    def ball_bracket(G: Group, center, r_lo: Fraction, r_hi: Fraction,
                     description: str = "") -> "LocatedSet":
        space = _region_space(G)
        if space[0] == "finite":
            inner = FiniteRegion.ball(space[1], center, r_lo)
            outer = FiniteRegion.ball(space[1], center, r_hi)
        else:
            inner = BoxRegion.ball(space[1], _as_point(G, center), r_lo)
            outer = BoxRegion.ball(space[1], _as_point(G, center), r_hi)
        return LocatedSet(group=G, inner=inner, outer=outer,
                          description=description or "ball(bracket)")

    @staticmethod
    def whole(G: Group) -> "LocatedSet":
        space = _region_space(G)
        if space[0] == "finite":
            reg = FiniteRegion.whole(space[1])
        else:
            reg = BoxRegion.whole(space[1])
        return LocatedSet(group=G, inner=reg, outer=reg, description="X")

    @staticmethod
    def from_distance(G: Group, dist_fn, description: str = "") -> "LocatedSet":
        return LocatedSet(group=G, dist_fn=dist_fn, description=description)

    def is_region_backed(self) -> bool:
        return self.inner is not None

    # -- generalized balls -----------------------------------------------------

    def outer_ball(self, r) -> "LocatedSet":
        """B(+r, S) = {x : d(x, S) <= r}."""
        r = Fraction(r) if not hasattr(r, "as_fraction") else r.as_fraction()
        if self.is_region_backed():
            return LocatedSet(group=self.group,
                              inner=self.inner.expand(r),
                              outer=self.outer.expand(r),
                              description=f"B(+{r}, {self.description})")
        base = self.dist_fn
        rd_lo = fraction_floor_to(r, 64)
        rd_hi = fraction_ceil_to(r, 64)

        def dist(p, wp, _b=base):
            enc = _b(p, wp)
            lo = enc.lo - rd_hi
            hi = enc.hi - rd_lo
            z = Dyadic(0)
            lo = lo if lo.sign() > 0 else z
            hi = hi if hi >= lo else lo
            return Interval(lo, hi)

        return LocatedSet(group=self.group, dist_fn=dist,
                          description=f"B(+{r}, {self.description})")

    def inner_ball(self, r) -> "LocatedSet":
        """B(-r, S) = {x : d(x, complement of S) >= r}."""
        r = Fraction(r) if not hasattr(r, "as_fraction") else r.as_fraction()
        if not self.is_region_backed():
            raise ValueError("inner generalized balls need a region backend")
        return LocatedSet(group=self.group,
                          inner=self.inner.shrink(r),
                          outer=self.outer.shrink(r),
                          description=f"B(-{r}, {self.description})")

    def union(self, other: "LocatedSet") -> "LocatedSet":
        if self.is_region_backed() and other.is_region_backed():
            return LocatedSet(group=self.group,
                              inner=self.inner.union(other.inner),
                              outer=self.outer.union(other.outer),
                              description=f"({self.description})u({other.description})")
        a, b = self.dist_enclosure, other.dist_enclosure

        def dist(p, wp):
            e1, e2 = a(p, wp), b(p, wp)
            return Interval(dyadic_min(e1.lo, e2.lo), dyadic_min(e1.hi, e2.hi))

        return LocatedSet(group=self.group, dist_fn=dist,
                          description=f"({self.description})u({other.description})")

    def subtract_region(self, other: "LocatedSet") -> "LocatedSet":
        """Closure of self minus other (region-backed sandwich semantics)."""
        if not (self.is_region_backed() and other.is_region_backed()):
            raise ValueError("set difference needs region backends")
        return LocatedSet(group=self.group,
                          inner=self.inner.subtract(other.outer),
                          outer=self.outer.subtract(other.inner),
                          description=f"({self.description})\\({other.description})")

    # -- distance ---------------------------------------------------------------

    def dist_enclosure(self, p, wp: int) -> Interval:
        if self.dist_fn is not None:
            return self.dist_fn(p, wp)
        pt = _as_point(self.group, p) if isinstance(self.outer, BoxRegion) else p
        d_out = self.outer.distance(pt)
        d_in = self.inner.distance(pt)
        return Interval(fraction_floor_to(d_out, wp + 4),
                        fraction_ceil_to(d_in, wp + 4))

    def dist_upper(self, p, wp: int) -> Fraction:
        """Upper endpoint of the distance enclosure, as an exact rational."""
        if self.dist_fn is not None:
            return self.dist_fn(p, wp).hi.as_fraction()
        pt = _as_point(self.group, p) if isinstance(self.inner, BoxRegion) else p
        return self.inner.distance(pt)


# ---------------------------------------------------------------------------
# modulus of continuity
# ---------------------------------------------------------------------------

def _ceil_log2(q: Fraction) -> int:
    if q <= 0:
        raise ValueError("positive value required")
    num, den = q.numerator, q.denominator
    # smallest s with q <= 2^s
    s = num.bit_length() - den.bit_length()
    while Fraction(1 << max(s, 0), 1 << max(-s, 0)) < q:
        s += 1
    return s


@dataclass(frozen=True)
class ModulusOfContinuity:
    """m(k) such that d(x, y) <= 2^-m(k) implies |f(x) - f(y)| <= 2^-k."""

    eval_fn: Callable[[int], int]

    def eval(self, k: int) -> int:
        return self.eval_fn(k)

    @staticmethod
    def from_lipschitz(L) -> "ModulusOfContinuity":
        Lf = L.as_fraction() if hasattr(L, "as_fraction") else Fraction(L)
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

def pseudo_count(S: LocatedSet, T, n: int) -> Fraction:
    """Exact rational q with mu_T(S) <= q <= mu_T(B(2^-n, S)).

    Counts points whose certified distance upper bound is at most
    3 * 2^-(n+2) (the test "dist(p, S, n+2) < 2^-(n+1)" with the enclosure
    slack folded in): every point of S is counted, nothing beyond the 2^-n
    thickening can be.  Grid packings on the circle count whole index ranges
    at once instead of iterating.
    """
    thr = Fraction(3, 1 << (n + 2))
    if S.is_region_backed() and hasattr(T, "count_within") \
            and isinstance(S.inner, (BoxRegion, FiniteRegion)):
        cnt = T.count_within(S.inner, thr)
        return Fraction(cnt, T.size)
    cnt = 0
    for p in T.iter_points():
        if S.dist_upper(p, n + 2) <= thr:
            cnt += 1
    return Fraction(cnt, T.size)


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
    m = max(1, n - 4)
    while m <= cap:
        r = Fraction(1, 1 << m)
        r4 = Fraction(4, 1 << m)
        T = packings.packing(m)
        upper = pseudo_count(U.outer_ball(r4).inner_ball(r), T, m + 1)
        lower = pseudo_count(U.inner_ball(r4).outer_ball(r / 2), T, m + 1)
        if upper - lower <= target:
            mid = (upper + lower) / 2
            return CertifiedValue(fraction_floor_to(mid, n + 8), -n)
        m += 1
    raise NoConvergence(
        f"measure witnesses did not pinch to 2^-{n} by packing level {cap}; "
        "the set is likely not co-inner regular")


# ---------------------------------------------------------------------------
# co-inner-regular radius search
# ---------------------------------------------------------------------------

class CoinnerRadiusSearch:
    """Nested rational intervals converging to a co-inner-regular radius.

    Level k halves the measure gap of the surviving radius interval: the
    previous interval is split at its 1/10, 5/10, 9/10 marks, ball measures
    are pseudo-counted at a packing level N with 2^(-N+3) below a tenth of
    the interval (one bit stronger than strictly needed, which absorbs the
    counting slacks), and the half with the smaller measure difference
    survives, pulled in by epsilon = width/10 on both sides.
    """

    def __init__(self, G: Group, packings: PackingTable,
                 a: Fraction, b: Fraction):
        if not 0 < a < b:
            raise ValueError("need 0 < a < b")
        self.group = G
        self.packings = packings
        self.center = G.dense(0)
        self.levels = [(a + (b - a) / 10, b - (b - a) / 10)]

    def level(self, k: int) -> tuple[Fraction, Fraction]:
        while len(self.levels) <= k:
            a1, b1 = self.levels[-1]
            w = b1 - a1
            r1, r5, r9 = a1 + w / 10, a1 + w / 2, a1 + 9 * w / 10
            eps = w / 10
            N = 3
            while Fraction(1, 1 << (N - 3)) > eps:
                N += 1
            if N > 4096:
                raise PackingExhausted(f"radius search needs packing level {N}")
            T = self.packings.packing(N)
            m1 = pseudo_count(LocatedSet.ball(self.group, self.center, r1), T, N)
            m5 = pseudo_count(LocatedSet.ball(self.group, self.center, r5), T, N)
            m9 = pseudo_count(LocatedSet.ball(self.group, self.center, r9), T, N)
            if m9 - m5 <= m5 - m1:
                self.levels.append((r1 + eps, r5 - eps))
            else:
                self.levels.append((r5 + eps, r9 - eps))
        return self.levels[k]

    def bracket_below(self, width: Fraction) -> tuple[Fraction, Fraction]:
        k = 0
        while True:
            a, b = self.level(k)
            if b - a <= width:
                return a, b
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
    search = CoinnerRadiusSearch(packings.group, packings,
                                 a.as_fraction(), b.as_fraction())
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
    predecessors: list
    set: LocatedSet
    index: int


def find_nice_partition(G: Group, packings: PackingTable, n: int, *,
                        radius_precision: Optional[int] = None):
    """Disjoint covering cells B(R, p_i) minus earlier balls, p_i from T_(n+1).

    R is a co-inner-regular radius found in (2^-(n+1), 2^-n); each cell sits
    inside a closed ball of radius 2^-n.  ``radius_precision`` controls how
    tightly R is pinned; the cell sets carry the exact rational bracket of R
    as an inner/outer region sandwich.
    """
    q = radius_precision if radius_precision is not None else n + 16
    search = CoinnerRadiusSearch(G, packings,
                                 Fraction(1, 1 << (n + 1)), Fraction(1, 1 << n))
    r_lo, r_hi = search.bracket_below(Fraction(1, 1 << (q + 1)))
    # outward rounding to dyadics keeps the bracket valid and keeps all later
    # region arithmetic on power-of-two denominators
    r_lo = fraction_floor_to(r_lo, q + 4).as_fraction()
    r_hi = fraction_ceil_to(r_hi, q + 4).as_fraction()
    centers = packings.packing(n + 1).points_list()
    mid = fraction_floor_to((r_lo + r_hi) / 2, q + 4)
    two_r = fraction_ceil_to(2 * r_hi, q + 4)
    cells = []
    balls = []
    for i, p in enumerate(centers):
        ball = LocatedSet.ball_bracket(G, p, r_lo, r_hi, f"B(R,p{i})")
        # balls certainly farther than 2R cannot intersect: subtracting them
        # is a no-op, so the cell only needs its nearby predecessors
        cell = ball
        for j in range(i):
            if not G.metric(centers[j], p, q + 8).lo > two_r:
                cell = cell.subtract_region(balls[j])
        cells.append(PartitionCell(center=p,
                                   radius=CertifiedValue(mid, -q),
                                   predecessors=centers[:i],
                                   set=cell, index=i + 1))
        balls.append(ball)
    return cells


# ---------------------------------------------------------------------------
# the Haar integral
# ---------------------------------------------------------------------------

def compute_integral(G: Group, f, modulus: ModulusOfContinuity, bound_M,
                     packings: PackingTable, n: int, *,
                     max_level: Optional[int] = None) -> CertifiedValue:
    """Certified Haar integral: partition at the modulus scale, then sum
    cell measures times center values.

    Cell i's measure is computed to 2^-(n+2+i+ceil(log2 max(M,1))), one bit
    finer than the classical n+1+i schedule to leave room for the interval
    widths of the f evaluations; the geometric series then bounds the measure
    error by 2^-(n+2), the modulus term by 2^-(n+1), and the f enclosures by
    2^-(n+3), inside the 2^-n certificate with slack for rounding.
    """
    M = bound_M.as_fraction() if hasattr(bound_M, "as_fraction") else Fraction(bound_M)
    if M <= 0:
        M = Fraction(1)
    m_f = modulus.eval(n + 1)
    ncells = packings.size(m_f + 1)
    log_m = max(0, _ceil_log2(max(M, Fraction(1))))
    qprec = n + 2 + ncells + log_m + 18 + ncells.bit_length()
    cells = find_nice_partition(G, packings, m_f, radius_precision=qprec)
    wp_f = n + 6
    total_lo = Fraction(0)
    total_hi = Fraction(0)
    for cell in cells:
        t_i = n + 2 + cell.index + log_m
        meas = compute_measure(cell.set, packings, t_i, max_level=max_level)
        fv = f(cell.center, wp_f)
        if fv.lo.as_fraction() > M or fv.hi.as_fraction() < -M:
            raise InvalidBound(
                f"f at cell {cell.index} encloses {fv}, outside [-M, M]")
        m_lo = meas.value.as_fraction() - Fraction(1, 1 << t_i)
        m_hi = meas.value.as_fraction() + Fraction(1, 1 << t_i)
        if m_lo < 0:
            m_lo = Fraction(0)
        f_lo, f_hi = fv.lo.as_fraction(), fv.hi.as_fraction()
        cands = (m_lo * f_lo, m_lo * f_hi, m_hi * f_lo, m_hi * f_hi)
        total_lo += min(cands)
        total_hi += max(cands)
    slack = Fraction(1, 1 << (n + 1))
    enc = Interval(fraction_floor_to(total_lo - slack, n + 10),
                   fraction_ceil_to(total_hi + slack, n + 10))
    if enc.width() > Dyadic(1, -(n - 1)):
        raise NoConvergence("integral enclosure wider than its certificate")
    return CertifiedValue(enc.midpoint(), -n)

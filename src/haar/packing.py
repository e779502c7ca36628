"""Maximum n-packings: closed-form sizes, certified packings, and ell/u
bracketing of packing sizes at arbitrary radii.

A packing at radius 2^-n is a set of points whose pairwise distances are
*strictly* greater than 2^-n, certified through interval lower bounds.  The
builtin instances carry closed forms (circle: 2^n - 1, torus: the product,
finite: the order).  Counting never enumerates a packing: the circle and
torus grid packings count the points near a box region as a union of index
ranges, and the finite packing counts the region's members, so the measure
procedures can consume packing levels whose cardinality is astronomically
large.  Points are materialized only for partition centres and printing; the
dovetail search of the generic construction is available alongside for
explicit small packings.  The packing classes are the one place the
closed forms are written: each group's ``packing`` field builds them and
``Group.kappa`` reads their sizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .exactreal import Dyadic, EffortExceeded
from .regions import BoxRegion, FiniteRegion, ratio

if TYPE_CHECKING:          # groups imports this module to build its packings
    from .groups import Group


class KappaUnavailable(RuntimeError):
    """The instance has no closed-form kappa and none was supplied."""


def packing_size(G: Group, n: int) -> int:
    """kappa(n), the size of a maximum n-packing; exact closed form."""
    if G.kappa is None:
        raise KappaUnavailable(
            f"group {G.kind!r} has no closed-form kappa; use "
            "packing_size_bracket or supply one")
    return G.kappa(n)


# ---------------------------------------------------------------------------
# packing objects
# ---------------------------------------------------------------------------

class FinitePacking:
    """All k elements of a finite group of order k (any n >= 1: pairwise
    distances are 1 > 2^-n), or the identity alone (n < 1)."""

    def __init__(self, k: int, n: int):
        self.size = k if n >= 1 else 1
        self._points = range(self.size)

    def iter_points(self):
        return iter(self._points)

    def points_list(self):
        return list(self._points)

    def count_within(self, region: FiniteRegion, threshold) -> int:
        """#points at discrete distance <= threshold: the region's members,
        or every point once the threshold reaches 1."""
        num, den = ratio(threshold)
        if num >= den and region.members:
            return self.size
        return len(region.members.intersection(self._points))


class CircleGridPacking:
    """The canonical near-equally-spaced dyadic maximum n-packing of R/Z.

    K = 2^n - 1 points x_k = floor(k A / K) / A with A = 2^(2n+2).  Every
    consecutive gap is floor((k+1)A/K) - floor(kA/K) >= floor(A/K) > 2^(n+2)
    = A 2^-n (and the wrap gap is >= A/K as well), so all pairwise circle
    distances, being sums of gaps on one side, strictly exceed 2^-n: a valid
    n-packing of the closed-form maximum size.  Below level 1, K = 1 and
    A = 4 give the single point 0.  Points are never materialized to count
    them: membership counts reduce to exact index-range arithmetic.
    """

    def __init__(self, n: int):
        self.n = n
        self.size = (1 << n) - 1 if n >= 1 else 1
        self.A = 1 << (2 * max(n, 0) + 2)
        assert self.size == 1 or self.A // self.size > (1 << (n + 2)), \
            "separation certificate"

    def point(self, k: int) -> Dyadic:
        return Dyadic((k * self.A) // self.size, -(2 * self.n + 2))

    def iter_points(self):
        for k in range(self.size):
            yield self.point(k)

    def points_list(self):
        return list(self.iter_points())

    def _ranges(self, lo: int, hi: int, den: int):
        """Half-open index ranges in [0, K) of the points in the closed arc
        [lo/den, hi/den] (cover coordinates): none, one, or two when it wraps.

        The lifted points x_m = floor(mA/K)/A, m in Z, repeat the packing
        with period K, and x_m lies in the arc exactly when
        ceil(lo A/den) <= floor(mA/K) <= floor(hi A/den), a run of
        consecutive m.
        """
        A, K = self.A, self.size
        c_lo = -(-lo * A // den)                            # ceil(lo A/den)
        c_hi = hi * A // den                                # floor(hi A/den)
        start = -(-c_lo * K // A)                           # ceil(c_lo K/A)
        stop = -(-(c_hi + 1) * K // A)                      # ceil((c_hi+1)K/A)
        if stop - start >= K:
            return [(0, K)]
        if stop <= start:
            return []
        s = start % K
        e = s + stop - start
        return [(s, e)] if e <= K else [(s, K), (0, e - K)]

    def count_within(self, region: BoxRegion, threshold) -> int:
        """#points with exact circle distance <= threshold to the region."""
        return _count_near(self, region, threshold)


def _count_near(circle: CircleGridPacking, region: BoxRegion, threshold) -> int:
    """#points of the d-fold product of ``circle`` within max-metric distance
    threshold >= 0 of the region: every box thickened by the threshold is a
    union of index boxes, and their union is counted once by a sweep."""
    den, boxes, t = region.lifted(threshold)
    return _union_size([ib for box in boxes for ib in product(
        *(circle._ranges(lo - t, hi + t, den) for lo, hi in box))])


def _union_size(boxes) -> int:
    """#lattice points in a union of index boxes (tuples of half-open ranges):
    cut the first axis at every box end, and count each slab's cross-section
    (the boxes that cover it, on the remaining axes) once."""
    if not boxes:
        return 0
    if not boxes[0]:
        return 1
    boxes = sorted(boxes)
    cuts = sorted({c for box in boxes for c in box[0]})
    total, i, cover = 0, 0, []
    for a, z in zip(cuts, cuts[1:]):
        while i < len(boxes) and boxes[i][0][0] <= a:
            cover.append(boxes[i])
            i += 1
        cover = [box for box in cover if a < box[0][1]]
        total += (z - a) * _union_size([box[1:] for box in cover])
    return total


class TorusGridPacking:
    """Product of circle grid packings, counted as products of the circle's
    index ranges; points are materialized only on request (capped)."""

    MAX_ITER = 1 << 21

    def __init__(self, dim: int, n: int):
        self.dim = dim
        self.n = n
        self.circle = CircleGridPacking(n)
        self.size = self.circle.size ** dim

    def iter_points(self):
        if self.size > self.MAX_ITER:
            raise EffortExceeded(
                f"torus packing level {self.n} has {self.size} points")
        return product(self.circle.points_list(), repeat=self.dim)

    def points_list(self):
        return list(self.iter_points())

    def count_within(self, region: BoxRegion, threshold) -> int:
        """#points with exact max-metric distance <= threshold to the region."""
        return _count_near(self.circle, region, threshold)


class PackingTable:
    """The sequence {T_m} of maximum m-packings with their sizes kappa(m)."""

    def __init__(self, G: Group):
        if G.packing is None:
            raise KappaUnavailable(
                f"group {G.kind!r} has no closed-form kappa")
        self.group = G
        self._cache = {}

    def size(self, n: int) -> int:
        return self.group.kappa(n)

    def packing(self, n: int):
        if n not in self._cache:
            self._cache[n] = self.group.packing(n)
        return self._cache[n]

    def serialize_entry(self, n: int) -> str:
        """Text form: `n kappa` then one line per point (dyadics m*2^e)."""
        pk = self.packing(n)
        lines = [f"{n} {pk.size}"]
        for p in pk.iter_points():
            lines.append(format_element(p))
        return "\n".join(lines)


def format_element(p) -> str:
    if isinstance(p, Dyadic):
        return str(p)
    if isinstance(p, int):
        return str(p)
    if isinstance(p, tuple):
        return " ".join(format_element(c) for c in p)
    return repr(p)


# ---------------------------------------------------------------------------
# certified separation and the dovetail search
# ---------------------------------------------------------------------------

def separation_certificate(G: Group, points, n: int, wp: int = 48) -> bool:
    """All pairwise distance enclosures have lower bound > 2^-n (strict)."""
    radius = Dyadic(1, -n)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if not G.metric(points[i], points[j], wp).lo > radius:
                return False
    return True


def max_packing(G: Group, n: int, kappa_n: int, *,
                effort: int = 2_000_000):
    """Dovetailed search for a maximum n-packing inside the dense sequence.

    Enumerates kappa_n-tuples over growing dense-sequence prefixes interleaved
    with growing working precision, accepting the first tuple (in enumeration
    order) whose pairwise distances are certified strictly greater than 2^-n.
    Deterministic; raises EffortExceeded when the pair-test budget runs out.
    """
    if kappa_n <= 0:
        return []
    radius = Dyadic(1, -n)
    budget = [effort]

    def dfs(prefix, chosen, start, wp):
        if len(chosen) == kappa_n:
            return list(chosen)
        for idx in range(start, prefix):
            cand = G.dense(idx)
            ok = True
            for q in chosen:
                if budget[0] <= 0:
                    raise EffortExceeded("dovetail budget exhausted")
                budget[0] -= 1
                if not G.metric(cand, q, wp).lo > radius:
                    ok = False
                    break
            if ok:
                chosen.append(cand)
                res = dfs(prefix, chosen, idx + 1, wp)
                if res is not None:
                    return res
                chosen.pop()
        return None

    prefix = max(4, 2 * kappa_n)
    wp = max(16, n + 8)
    for _round in range(20):
        res = dfs(prefix, [], 0, wp)
        if res is not None:
            return res
        prefix *= 2
        wp *= 2
    raise EffortExceeded("dovetail rounds exhausted")


# ---------------------------------------------------------------------------
# packing-size brackets at arbitrary radius
# ---------------------------------------------------------------------------

def _circle_lower(delta: Fraction) -> int:
    """Greedy sweep on a fine dyadic grid: a certified separated tuple size.

    Points sit at integer multiples of 2^-g with consecutive steps strictly
    greater than delta; all pairwise circle distances are sums of such gaps on
    one side, hence also > delta once the wrap gap qualifies.
    """
    g = 2 * max(4, delta.denominator.bit_length()) + 4
    scale = 1 << g
    step = (delta.numerator * scale) // delta.denominator + 1   # > delta*scale
    pos = 0
    count = 1
    while True:
        nxt = pos + step
        # wrap distance from nxt back to 0 must also exceed delta
        if (scale - nxt) * delta.denominator <= delta.numerator * scale:
            break
        pos = nxt
        count += 1
    return count


def _greedy_lower(G: Group, delta: Fraction, effort: int) -> int:
    radius_num = delta
    chosen = []
    wp = 32
    for i in range(effort):
        cand = G.dense(i)
        ok = True
        for q in chosen:
            if not G.metric(cand, q, wp).lo.as_fraction() > radius_num:
                ok = False
                break
        if ok:
            chosen.append(cand)
    return len(chosen)


def packing_size_bracket(G: Group, delta, *, effort: int = 4000) -> tuple[int, int]:
    """(lower, upper) bracket of the maximum packing size at radius delta.

    Lower bounds exhibit separated tuples (greedy over instance candidate
    streams or the dense sequence); upper bounds come from instance covering
    arguments: the circle gap-sum bound m * delta < 1, finite order, torus and
    su2 explicit nets of radius delta/2 (one packing point per net ball).
    """
    delta = delta.as_fraction() if hasattr(delta, "as_fraction") else Fraction(delta)
    if delta <= 0:
        raise ValueError("radius must be positive")
    if G.kind == "finite":
        lo = G.order if delta < 1 else 1
        return lo, lo
    if G.kind == "circle":
        # m points pairwise > delta have consecutive gaps summing to 1, each
        # gap at least the circle distance of its pair, so m * delta < 1
        q = Fraction(1) / delta
        upper = q.numerator // q.denominator
        if Fraction(upper) == q:
            upper -= 1
        upper = max(upper, 1)
        lower = _circle_lower(delta)
        return lower, upper
    if G.kind == "torus":
        q = Fraction(1) / delta
        m = -((-q.numerator) // q.denominator)            # ceil(1/delta)
        upper = m ** G.dim
        lower = _greedy_lower(G, delta, effort)
        return lower, upper
    if G.kind in ("su2", "so3"):
        # Psi parameter net: (n1, n1, 2 n1) midpoints cover to 3 pi/(2 n1)
        target = delta / 2
        need = Fraction(333, 100) * 3 / (2 * target)
        n1 = 1
        while n1 < need:
            n1 += 1
        upper = 2 * n1 ** 3
        lower = _greedy_lower(G, delta, min(effort, 600))
        return lower, upper
    raise KappaUnavailable(f"no bracket strategy for {G.kind!r}")

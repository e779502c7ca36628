"""Maximum n-packings: closed-form sizes, certified packings, and ell/u
bracketing of packing sizes at arbitrary radii.

A packing at radius 2^-n is a set of points whose pairwise distances are
*strictly* greater than 2^-n, certified through interval lower bounds.  The
builtin instances carry closed forms (circle: 2^n - 1, torus: the product,
finite: the order).  Counting never enumerates a packing: the circle and
torus grid packings count the points near a box region as a union of index
ranges, and the finite packing counts the region's members, so the measure
procedures can consume packing levels whose cardinality is astronomically
large.  The same index boxes (or members) answer ``indices_within``, which
points lie near a region, for the partition's neighbour scan.  Points are
materialized only for partition centres and printing, and never more than
``MAX_ITER`` of them.  The packing classes are the one place the closed
forms are written: each group's ``packing`` field builds them and
``Group.kappa`` reads their sizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .exactreal import ConfigError, Dyadic, NoConvergence
from .regions import BoxRegion, FiniteRegion, ratio

if TYPE_CHECKING:          # groups imports this module to build its packings
    from .groups import Group


# the most points a packing materializes (``iter_points``)
MAX_ITER = 1 << 21


class KappaUnavailable(ConfigError):
    """The group has no closed-form kappa, so no packings."""


def _check_iter(n: int, size: int) -> None:
    if size > MAX_ITER:
        raise NoConvergence(
            f"packing level {n} has {size} points, more than the "
            f"{MAX_ITER} that are materialized")


def packing_size(G: Group, n: int) -> int:
    """kappa(n), the size of a maximum n-packing; exact closed form."""
    return PackingTable(G).size(n)


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

    def indices_within(self, region: FiniteRegion, threshold) -> list[int]:
        """Sorted indices of the points at discrete distance <= threshold:
        the region's members, or every point once the threshold reaches 1
        (point k is element k)."""
        num, den = ratio(threshold)
        if num >= den and region.members:
            return list(self._points)
        return sorted(region.members.intersection(self._points))

    def count_within(self, region: FiniteRegion, threshold) -> int:
        return len(self.indices_within(region, threshold))


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
        _check_iter(self.n, self.size)
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
        return _union_size(_near_boxes(self, region, threshold))

    def indices_within(self, region: BoxRegion, threshold) -> list[int]:
        """Sorted indices k of the points x_k within exact circle distance
        threshold of the region."""
        return _box_indices(_near_boxes(self, region, threshold), self.size)


def _near_boxes(circle: CircleGridPacking, region: BoxRegion, threshold) -> list:
    """The points of the d-fold product of ``circle`` within max-metric
    distance threshold >= 0 of the region, as a union of index boxes (tuples
    of half-open index ranges, one per axis): every box thickened by the
    threshold is a product of the circle's index ranges."""
    den, boxes, t = region.lifted(threshold)
    return [ib for box in boxes for ib in product(
        *(circle._ranges(lo - t, hi + t, den) for lo, hi in box))]


def _box_indices(boxes, K: int) -> list[int]:
    """Sorted row-major indices, base K, of the lattice points in a union of
    index boxes: the positions of those points in the product packing."""
    out = set()
    for box in boxes:
        flat = [0]
        for a, z in box:
            flat = [f * K + k for f in flat for k in range(a, z)]
        out.update(flat)
    return sorted(out)


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

    def __init__(self, dim: int, n: int):
        self.dim = dim
        self.n = n
        self.circle = CircleGridPacking(n)
        self.size = self.circle.size ** dim

    def iter_points(self):
        _check_iter(self.n, self.size)
        return product(self.circle.points_list(), repeat=self.dim)

    def points_list(self):
        return list(self.iter_points())

    def count_within(self, region: BoxRegion, threshold) -> int:
        """#points with exact max-metric distance <= threshold to the region."""
        return _union_size(_near_boxes(self.circle, region, threshold))

    def indices_within(self, region: BoxRegion, threshold) -> list[int]:
        """Sorted positions in ``iter_points`` order of the points within
        exact max-metric distance threshold of the region."""
        return _box_indices(_near_boxes(self.circle, region, threshold),
                            self.circle.size)


class PackingTable:
    """The sequence {T_m} of maximum m-packings with their sizes kappa(m)."""

    def __init__(self, G: Group):
        if G.packing is None:
            raise KappaUnavailable(
                f"group {G.kind!r} has no closed-form packings; only finite, "
                "circle and torus groups have them")
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
# certified separation
# ---------------------------------------------------------------------------

def separation_certificate(G: Group, points, n: int, wp: int = 48) -> bool:
    """All pairwise distance enclosures have lower bound > 2^-n (strict)."""
    radius = Dyadic(1, -n)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if not G.metric(points[i], points[j], wp).lo > radius:
                return False
    return True


# ---------------------------------------------------------------------------
# packing-size brackets at arbitrary radius
# ---------------------------------------------------------------------------

def _circle_lower(delta: Fraction) -> int:
    """A certified separated tuple size on a fine dyadic grid, in closed form.

    The points j * step / 2^g, j = 0..count-1, have consecutive steps
    strictly greater than delta; all pairwise circle distances are sums of
    such gaps on one side, hence also > delta once the wrap gap
    1 - j step / 2^g qualifies, that is while j step den < 2^g (den - num)
    for delta = num/den: count is the least j >= 1 where it fails.
    """
    num, den = delta.numerator, delta.denominator
    g = 2 * max(4, den.bit_length()) + 4
    scale = 1 << g
    step = (num * scale) // den + 1   # > delta*scale
    return max(1, -(-scale * (den - num) // (step * den)))


def packing_size_bracket(G: Group, delta) -> tuple[int, int]:
    """(lower, upper) bracket of the maximum packing size at radius delta.

    Finite groups have the exact size.  On the circle the lower bound
    exhibits a separated tuple on a fine dyadic grid and the upper bound is
    the gap-sum bound m * delta < 1.  Other kinds raise KappaUnavailable.
    """
    delta = Fraction(*ratio(delta))
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
    raise KappaUnavailable(f"no bracket strategy for {G.kind!r}")

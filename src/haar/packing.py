"""Maximum n-packings: closed-form sizes, certified packings, and ell/u
bracketing of packing sizes at arbitrary radii.

A packing at radius 2^-n is a set of points whose pairwise distances are
*strictly* greater than 2^-n, certified through interval lower bounds.  The
builtin instances carry closed forms (circle: 2^n - 1, torus: the product,
finite: the order).  Counting never enumerates a packing: the circle and
torus grid packings thicken a box region on its cut grid and add, over its
in-cells, the products of the index ranges each axis' cell holds; the finite
packing counts the region's members.  So the measure procedures can consume
packing levels whose cardinality is astronomically large.  The same cells
(or members) answer ``indices_within``, which points lie near a region, for
the partition's neighbour scan.  Points are materialized only for partition
centres and printing, and never more than ``MAX_ITER`` of them.  The packing
classes are the one place the closed forms are written: each group's
``packing`` field builds them and ``Group.kappa`` reads their sizes.
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


def _near(pk, region: BoxRegion, threshold):
    """(flags, bounds) of the region thickened by the threshold (``expand``'s
    cell array) for the d-fold product ``pk`` of ``pk.circle``: the points
    in a product cell are the products of its axes' index ranges."""
    den, cuts, flags = region._morph(threshold, 1)
    return flags, [pk.circle.cell_bounds(cut, den) for cut in cuts]


def _count_within(pk, region: BoxRegion, threshold) -> int:
    """#points with exact max-metric distance <= threshold to the region:
    the flags weighted by the cells' point counts, one axis at a time."""
    total, bounds = _near(pk, region, threshold)
    for b in reversed(bounds):
        n = len(b) - 1
        total = [sum((z - a) * f for a, z, f in zip(b, b[1:], total[i:i + n]))
                 for i in range(0, len(total), n)]
    return total[0]


def _indices_within(pk, region: BoxRegion, threshold) -> list[int]:
    """Sorted positions in ``iter_points`` order (row-major, base K) of the
    points within exact max-metric distance threshold of the region."""
    flags, bounds = _near(pk, region, threshold)
    K, out = pk.circle.size, []
    for cell, f in zip(product(*[list(zip(b, b[1:])) for b in bounds]), flags):
        if f:
            flat = [0]
            for a, z in cell:                 # lifted indices, at most K
                flat = [x * K + m % K for x in flat for m in range(a, z)]
            out += flat
    return sorted(out)


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
        self.circle = self

    # one body for both grid packings, each class holding its own entry
    count_within, indices_within = _count_within, _indices_within

    def point(self, k: int) -> Dyadic:
        return Dyadic((k * self.A) // self.size, -(2 * self.n + 2))

    def iter_points(self):
        _check_iter(self.n, self.size)
        for k in range(self.size):
            yield self.point(k)

    def points_list(self):
        return list(self.iter_points())

    def cell_bounds(self, cuts, den: int) -> list:
        """Boundaries b_0 <= ... <= b_2m of one region axis cut at ``cuts``
        over den: cell j (point {c_i} for j = 2i, open arc (c_i, c_(i+1)) for
        j = 2i + 1) holds the lifted points x_m = floor(mA/K)/A, m in
        [b_j, b_(j+1)).  They repeat the packing with period K, and
        floor(mA/K) >= a exactly for m >= ceil(aK/A): a = ceil(cA/den) for
        x_m >= c/den, a = floor(cA/den) + 1 for x_m > c/den."""
        A, K = self.A, self.size
        out = []
        for c in cuts:                  # -(-x // y) is the ceiling of x / y
            at, past = -(-c * A // den), c * A // den + 1
            out += (-(-at * K // A), -(-past * K // A))
        return out + [out[0] + K] if out else [0, K]


class TorusGridPacking:
    """Product of circle grid packings, counted as products of the circle's
    index ranges; points are materialized only on request (capped)."""

    def __init__(self, dim: int, n: int):
        self.dim = dim
        self.n = n
        self.circle = CircleGridPacking(n)
        self.size = self.circle.size ** dim

    count_within, indices_within = _count_within, _indices_within

    def iter_points(self):
        _check_iter(self.n, self.size)
        return product(self.circle.points_list(), repeat=self.dim)

    def points_list(self):
        return list(self.iter_points())


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

"""Maximum n-packings: closed-form sizes, certified packings, and ell/u
bracketing of packing sizes at arbitrary radii.

A packing at radius 2^-n is a set of points whose pairwise distances are
*strictly* greater than 2^-n, certified through interval lower bounds.  The
builtin instances carry closed forms (circle: 2^n - 1, torus: the product,
finite: the order), realized as lazily countable grid packings so the measure
procedures can consume packing levels whose cardinality is astronomically
large; the dovetail search of the generic construction is available alongside
for explicit small packings.
"""

from __future__ import annotations

from fractions import Fraction

from .exactreal import Dyadic
from .groups import EffortExceeded, Group
from .regions import BoxRegion, FiniteRegion


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
    """All elements of a finite group (any n >= 1), or the identity alone."""

    def __init__(self, G: Group, n: int):
        self.group = G
        self.size = G.kappa(n)
        self._points = range(self.size) if self.size > 1 else (0,)

    def iter_points(self):
        return iter(self._points)

    def points_list(self):
        return list(self._points)

    def count_within(self, region: FiniteRegion, threshold: Fraction) -> int:
        cnt = 0
        for p in self._points:
            if region.distance(p) <= threshold:
                cnt += 1
        return cnt


class CircleGridPacking:
    """The canonical near-equally-spaced dyadic maximum n-packing of R/Z.

    K = 2^n - 1 points x_k = floor(k A / K) / A with A = 2^(2n+2).  Every
    consecutive gap is floor((k+1)A/K) - floor(kA/K) >= floor(A/K) > 2^(n+2)
    = A 2^-n (and the wrap gap is >= A/K as well), so all pairwise circle
    distances, being sums of gaps on one side, strictly exceed 2^-n: a valid
    n-packing of the closed-form maximum size.  Points are never materialized;
    membership counts reduce to exact index-range arithmetic.
    """

    def __init__(self, n: int):
        if n < 1:
            self.size = 1
            self.n = n
            self.A = 4
            return
        self.n = n
        self.size = (1 << n) - 1
        self.A = 1 << (2 * n + 2)
        assert self.A // self.size > (1 << (n + 2)), "separation certificate"

    def point(self, k: int) -> Dyadic:
        if self.n < 1:
            return Dyadic(0)
        return Dyadic((k * self.A) // self.size, -(2 * self.n + 2))

    def iter_points(self):
        if self.n < 1:
            yield Dyadic(0)
            return
        A, K = self.A, self.size
        e = -(2 * self.n + 2)
        for k in range(K):
            yield Dyadic((k * A) // K, e)

    def points_list(self):
        return list(self.iter_points())

    def _count_leq(self, beta: Fraction) -> int:
        """#k in [0, K) with x_k <= beta (beta within [0, 1))."""
        A, K = self.A, self.size
        c = (beta.numerator * A) // beta.denominator      # floor(beta A)
        # x_k <= beta  <=>  floor(kA/K) <= floor(beta A)
        hi = ((c + 1) * K + A - 1) // A                   # ceil((c+1)K/A)
        return min(hi, K)

    def _count_geq(self, alpha: Fraction) -> int:
        A, K = self.A, self.size
        c = -((-alpha.numerator * A) // alpha.denominator)  # ceil(alpha A)
        lo = (c * K + A - 1) // A                           # ceil(cK/A)
        return max(K - lo, 0)

    def count_in_arc(self, lo: Fraction, hi: Fraction) -> int:
        """#points in the closed arc [lo, hi] (cover coordinates, hi <= lo+1)."""
        if self.n < 1:
            return 1 if (hi - lo >= 1 or _in_arc01(Fraction(0), lo, hi)) else 0
        if hi - lo >= 1:
            return self.size
        lo0 = lo - (lo.numerator // lo.denominator)
        hi0 = lo0 + (hi - lo)
        if hi0 < 1:
            return self._count_leq(hi0) - (self.size - self._count_geq(lo0))
        return (self.size - (self.size - self._count_geq(lo0))) \
            + self._count_leq(hi0 - 1)

    def count_within(self, region: BoxRegion, threshold: Fraction) -> int:
        """#points with exact circle distance <= threshold to the region."""
        arcs = [(_a[0] - threshold, _a[1] + threshold) for _a in region.arcs()]
        merged = _merge_arcs(arcs)
        if merged is None:
            return self.size if self.n >= 1 else 1
        return sum(self.count_in_arc(a, b) for a, b in merged)


def _in_arc01(x: Fraction, lo: Fraction, hi: Fraction) -> bool:
    rel = (x - lo) - ((x - lo).numerator // (x - lo).denominator)
    return rel <= hi - lo


def _merge_arcs(arcs):
    """Merge closed arcs on the circle; None means they cover everything."""
    total = sum(b - a for a, b in arcs)
    if total >= 1:
        return None
    norm = []
    for a, b in arcs:
        if b - a < 0:
            continue
        s = a - (a.numerator // a.denominator)
        norm.append((s, s + (b - a)))
    norm.sort()
    merged = []
    for a, b in norm:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    # wrap: last may reach around to the first
    if len(merged) > 1 and merged[-1][1] >= merged[0][0] + 1:
        first = merged.pop(0)
        merged[-1] = (merged[-1][0], max(merged[-1][1], first[1] + 1))
    if merged and merged[0][1] - merged[0][0] >= 1:
        return None
    return merged


class TorusGridPacking:
    """Product of circle grid packings; points iterated explicitly (capped)."""

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
        def rec(d):
            if d == 0:
                yield ()
                return
            for rest in rec(d - 1):
                for x in self.circle.iter_points():
                    yield rest + (x,)
        return rec(self.dim)

    def points_list(self):
        return list(self.iter_points())

    def count_within(self, region: BoxRegion, threshold: Fraction) -> int:
        cnt = 0
        for p in self.iter_points():
            if region.distance(p) <= threshold:
                cnt += 1
        return cnt


class PackingTable:
    """The sequence {T_m} of maximum m-packings with their sizes kappa(m)."""

    def __init__(self, G: Group):
        if G.kappa is None:
            raise KappaUnavailable(
                f"group {G.kind!r} has no closed-form kappa")
        self.group = G
        self._cache = {}

    def size(self, n: int) -> int:
        return self.group.kappa(n)

    def packing(self, n: int):
        if n not in self._cache:
            G = self.group
            if G.kind == "finite":
                self._cache[n] = FinitePacking(G, n)
            elif G.kind == "circle":
                self._cache[n] = CircleGridPacking(n)
            elif G.kind == "torus":
                self._cache[n] = TorusGridPacking(G.dim, n)
            else:
                raise KappaUnavailable(f"no packing table for {G.kind!r}")
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

"""Compact metric groups: finite tables, the circle R/Z, tori, versors, and
the derived groups SO(3), O(3), U(2).

A ``Group`` bundles the data the Haar algorithms consume: a certified metric,
the group operation and inverse, an identity, a diameter bound, and (on finite
groups, the circle and tori) its maximum n-packings and exact closed balls.  The
packing classes in ``packing`` carry the closed-form sizes kappa(n), and
``Group.kappa`` reads them there.  Elements are represented per
instance: finite groups use integer indices, circle/torus points are dyadics
in [0,1), SU(2) elements are ``Versor`` interval quadruples, and the derived
groups use pairs.  Group descriptors are immutable after construction; all
evaluators are pure functions of their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .exactreal import (
    ConfigError, Dyadic, Interval, ZERO, ONE, HALF, arccos_enclosure,
)
from .packing import CircleGridPacking, FinitePacking, TorusGridPacking
from .regions import BoxRegion, FiniteRegion


class InvalidCayleyTable(ConfigError):
    """The proposed multiplication table violates the group axioms."""


# ---------------------------------------------------------------------------
# Versors (unit quaternions)
# ---------------------------------------------------------------------------

class Versor:
    """Interval box (a, b, c, d) enclosing a unit quaternion a + bi + cj + dk."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Interval, b: Interval, c: Interval, d: Interval):
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def exact(a: Dyadic, b: Dyadic, c: Dyadic, d: Dyadic) -> "Versor":
        return Versor(Interval.point(a), Interval.point(b),
                      Interval.point(c), Interval.point(d))

    def components(self) -> tuple[Interval, Interval, Interval, Interval]:
        return self.a, self.b, self.c, self.d

    def conjugate(self) -> "Versor":
        return Versor(self.a, -self.b, -self.c, -self.d)

    def __neg__(self) -> "Versor":
        return Versor(-self.a, -self.b, -self.c, -self.d)

    def multiply(self, o: "Versor", p: int) -> "Versor":
        """Quaternion product, exact interval arithmetic then outward rounding.

        Output component widths <= 2 (width(self) + width(o)) + 2^-p: the
        2-Lipschitz bound of the group operation in the max metric.
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = o.a, o.b, o.c, o.d
        return Versor(
            (a * e - b * f - c * g - d * h).round_out(p),
            (a * f + b * e + c * h - d * g).round_out(p),
            (a * g - b * h + c * e + d * f).round_out(p),
            (a * h + b * g - c * f + d * e).round_out(p),
        )

    def dot(self, o: "Versor") -> Interval:
        return self.a * o.a + self.b * o.b + self.c * o.c + self.d * o.d

    def __repr__(self):
        return (f"Versor({float(self.a.midpoint()):.6g}, "
                f"{float(self.b.midpoint()):.6g}, "
                f"{float(self.c.midpoint()):.6g}, "
                f"{float(self.d.midpoint()):.6g})")


QUAT_ONE = Versor.exact(ONE, ZERO, ZERO, ZERO)


# ---------------------------------------------------------------------------
# circle helpers (elements are dyadics in [0,1), exact arithmetic)
# ---------------------------------------------------------------------------

def circle_normalize(x: Dyadic) -> Dyadic:
    """Reduce mod 1 into [0, 1)."""
    if x.e >= 0:
        return ZERO
    den = 1 << -x.e
    return Dyadic(x.m % den, x.e)


# ---------------------------------------------------------------------------
# the Group descriptor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Group:
    kind: str
    identity: object
    metric: Callable[[object, object, int], Interval]
    op: Callable[[object, object, int], object]
    inverse: Callable[[object, int], object]
    diameter_bound: Dyadic
    packing: Optional[Callable[[int], object]] = None    # n -> maximum n-packing
    region: Optional[Callable[[object, object], object]] = None  # closed ball
    order: Optional[int] = None          # finite groups
    dim: Optional[int] = None            # tori
    table: Optional[tuple] = None        # finite groups

    @property
    def kappa(self) -> Optional[Callable[[int], int]]:
        """n -> kappa(n), the size of a maximum n-packing; None without packings."""
        if self.packing is None:
            return None
        return lambda n: self.packing(n).size

    def __repr__(self):
        extra = f", order={self.order}" if self.order else ""
        return f"Group({self.kind!r}{extra})"


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

def validate_cayley_table(table) -> tuple:
    """Check a group table; return the inverse of each element."""
    k = len(table)
    if k == 0:
        raise InvalidCayleyTable("empty table")
    all_idx = set(range(k))
    for row in table:
        if len(row) != k or any(not (0 <= v < k) for v in row):
            raise InvalidCayleyTable("table is not a k x k array of indices")
    for i in range(k):
        if table[0][i] != i or table[i][0] != i:
            raise InvalidCayleyTable("row/column 0 is not the identity")
    for i in range(k):
        if set(table[i]) != all_idx or {table[j][i] for j in range(k)} != all_idx:
            raise InvalidCayleyTable("table rows/columns are not permutations")
    for a in range(k):
        row_a = table[a]
        for b in range(k):
            tab = row_a[b]
            row_b = table[b]
            for c in range(k):
                if table[tab][c] != row_a[row_b[c]]:
                    raise InvalidCayleyTable(f"associativity fails at ({a},{b},{c})")
    inv = tuple(next((b for b in range(k) if table[a][b] == 0 and table[b][a] == 0),
                     None) for a in range(k))
    if None in inv:
        raise InvalidCayleyTable(f"element {inv.index(None)} has no inverse")
    return inv


def parse_cayley(text: str):
    """Text format: first line k, then k lines of k whitespace-separated indices."""
    tokens = text.split()
    if not tokens:
        raise InvalidCayleyTable("empty input")
    try:
        k = int(tokens[0])
        vals = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InvalidCayleyTable(f"non-integer entry: {exc}") from None
    if len(vals) != k * k:
        raise InvalidCayleyTable(f"expected {k * k} entries, found {len(vals)}")
    return tuple(tuple(vals[i * k:(i + 1) * k]) for i in range(k))


def _finite_group(table) -> Group:
    inv = validate_cayley_table(table)
    k = len(table)
    table = tuple(tuple(row) for row in table)

    def metric(a, b, p):
        return Interval.from_int(0 if a == b else 1)

    return Group(
        kind="finite", identity=0,
        metric=metric,
        op=lambda a, b, p: table[a][b],
        inverse=lambda a, p: inv[a],
        diameter_bound=ONE if k > 1 else ZERO,
        packing=lambda n: FinitePacking(k, n),
        region=lambda c, r: FiniteRegion.ball(k, c, r),
        order=k, table=table,
    )


def cyclic_table(k: int):
    return tuple(tuple((i + j) % k for j in range(k)) for i in range(k))


# ---------------------------------------------------------------------------
# circle and torus
# ---------------------------------------------------------------------------

def circle_metric(x: Dyadic, y: Dyadic, p: int = 0) -> Interval:
    """Exact distance min(d, 1 - d), d = (x - y) mod 1; width-0 enclosure."""
    d = circle_normalize(x - y)
    return Interval.point(min(d, ONE - d))


def _circle_group() -> Group:
    return Group(
        kind="circle", identity=ZERO,
        metric=circle_metric,
        op=lambda x, y, p: circle_normalize(x + y),
        inverse=lambda x, p: circle_normalize(-x),
        diameter_bound=HALF,
        packing=CircleGridPacking,
        region=lambda c, r: BoxRegion.ball(1, (c,), r),
    )


def _torus_group(d: int) -> Group:
    def metric(x, y, p):
        return Interval.point(max(circle_metric(a, b).lo for a, b in zip(x, y)))

    return Group(
        kind="torus", identity=tuple([ZERO] * d),
        metric=metric,
        op=lambda x, y, p: tuple(circle_normalize(a + b) for a, b in zip(x, y)),
        inverse=lambda x, p: tuple(circle_normalize(-a) for a in x),
        diameter_bound=HALF,
        packing=lambda n: TorusGridPacking(d, n),
        region=lambda c, r: BoxRegion.ball(d, c, r),
        dim=d,
    )


# ---------------------------------------------------------------------------
# SU(2) and derived groups
# ---------------------------------------------------------------------------

def _clamp_to_unit(x: Interval) -> Interval:
    """Intersect an enclosure of a value known to lie in [-1, 1] with [-1, 1]."""
    lo = max(x.lo, Dyadic(-1))
    hi = x.hi if x.hi <= ONE else ONE
    if lo > hi:        # pure rounding noise around an endpoint
        lo = hi
    return Interval(lo, hi)


def su2_geodesic_metric(q1: Versor, q2: Versor, p: int) -> Interval:
    """Geodesic angle arccos(<p,q>) on the unit 3-sphere; bi-invariant.

    Near angle 0 or pi the arccos slope is unbounded, so enclosures there are
    wider than the input dot enclosure; see exactreal.arccos_enclosure.
    """
    return arccos_enclosure(_clamp_to_unit(q1.dot(q2)), p)


def so3_metric(q1: Versor, q2: Versor, p: int) -> Interval:
    """Quotient metric of the double cover: arccos |<p,q>|, range [0, pi/2]."""
    return arccos_enclosure(_clamp_to_unit(q1.dot(q2).abs()), p)


def _versor_group(kind: str, metric, diameter_bound: Dyadic) -> Group:
    """SU(2) or, through the double cover, SO(3): versors under the
    quaternion product, told apart by the metric and its diameter bound."""
    return Group(
        kind=kind, identity=QUAT_ONE,
        metric=metric,
        op=lambda a, b, p: a.multiply(b, p),
        inverse=lambda a, p: a.conjugate(),
        diameter_bound=diameter_bound,
    )


def product_group(kind: str, g1: Group, g2: Group) -> Group:
    """Direct product with the max metric (preserves bi-invariance)."""
    def metric(x, y, p):
        m1 = g1.metric(x[0], y[0], p)
        m2 = g2.metric(x[1], y[1], p)
        return Interval(max(m1.lo, m2.lo), max(m1.hi, m2.hi))

    return Group(
        kind=kind, identity=(g1.identity, g2.identity),
        metric=metric,
        op=lambda x, y, p: (g1.op(x[0], y[0], p), g2.op(x[1], y[1], p)),
        inverse=lambda x, p: (g1.inverse(x[0], p), g2.inverse(x[1], p)),
        diameter_bound=max(g1.diameter_bound, g2.diameter_bound),
    )


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_group(kind: str, *, k: int = None, table=None, dim: int = None) -> Group:
    """Build a builtin group instance.

    kind: 'finite' (with table), 'cyclic' (with k), 'circle', 'torus' (with
    dim), 'su2', 'so3', 'o3', 'u2'.  The O(3) sign factor and U(2) circle
    factor live in the second slot of pair elements; for O(3) the sign is the
    index 0 -> +1, 1 -> -1 of a two-element table group.
    """
    if kind == "finite":
        if table is None:
            raise ConfigError("finite groups need a Cayley table")
        return _finite_group(table)
    if kind == "cyclic":
        if k is None or k < 1:
            raise ConfigError(f"cyclic groups need an order k >= 1, not {k}")
        return _finite_group(cyclic_table(k))
    if kind == "circle":
        return _circle_group()
    if kind == "torus":
        if dim is None or dim < 1:
            raise ConfigError(f"torus groups need a dimension dim >= 1, not {dim}")
        return _torus_group(dim)
    if kind in ("su2", "u2"):
        su2 = _versor_group("su2", su2_geodesic_metric, Dyadic(13, -2))  # >= pi
        return su2 if kind == "su2" else product_group("u2", su2, _circle_group())
    if kind in ("so3", "o3"):
        so3 = _versor_group("so3", so3_metric, Dyadic(13, -3))   # >= pi/2
        return so3 if kind == "so3" else product_group(
            "o3", so3, _finite_group(cyclic_table(2)))
    raise ConfigError(f"unknown group kind {kind!r}")

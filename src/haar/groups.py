"""Compact metric groups: finite tables, the circle R/Z, tori, versors, and
the derived groups SO(3), O(3), U(2).

A ``Group`` bundles the data the Haar algorithms consume: a certified metric,
the group operation, a dense sequence, a diameter bound, and (where available)
the closed-form maximum-packing size kappa.  Elements are represented per
instance: finite groups use integer indices, circle/torus points are dyadics
in [0,1), SU(2) elements are ``Versor`` interval quadruples, and the derived
groups use pairs.  Group descriptors are immutable after construction; all
evaluators are pure functions of their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .exactreal import (
    Dyadic, Interval, ZERO, ONE,
    arccos_enclosure, dyadic_max, pi_enclosure, sincos_pi,
)


class InvalidCayleyTable(ValueError):
    """The proposed multiplication table violates the group axioms."""


class EffortExceeded(RuntimeError):
    """A search/grid budget was exhausted before the contract was met."""


HALF = Dyadic(1, -1)
TWO = Dyadic(2)


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

    def norm2(self) -> Interval:
        return (self.a.square() + self.b.square()
                + self.c.square() + self.d.square())

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
QUAT_I = Versor.exact(ZERO, ONE, ZERO, ZERO)
QUAT_J = Versor.exact(ZERO, ZERO, ONE, ZERO)
QUAT_K = Versor.exact(ZERO, ZERO, ZERO, ONE)


def so3_from_versor(q: Versor, p: int) -> tuple:
    """3x3 interval rotation matrix of v -> q v q^-1 on pure quaternions.

    q and -q give the same matrix (the double cover); column norms and the
    determinant enclose 1 when q encloses a unit quaternion.
    """
    a, b, c, d = q.components()
    aa, bb, cc, dd = a.square(), b.square(), c.square(), d.square()
    ab, ac, ad = a * b, a * c, a * d
    bc, bd, cd = b * c, b * d, c * d
    two = Interval.from_int(2)
    rows = (
        (aa + bb - cc - dd, two * (bc - ad), two * (bd + ac)),
        (two * (bc + ad), aa - bb + cc - dd, two * (cd - ab)),
        (two * (bd - ac), two * (cd + ab), aa - bb - cc + dd),
    )
    return tuple(tuple(x.round_out(p) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# circle helpers (elements are dyadics in [0,1), exact arithmetic)
# ---------------------------------------------------------------------------

def circle_normalize(x: Dyadic) -> Dyadic:
    """Reduce mod 1 into [0, 1)."""
    if x.e >= 0:
        return ZERO
    den = 1 << -x.e
    return Dyadic(x.m % den, x.e)


def circle_distance_fraction(x: Fraction, y: Fraction) -> Fraction:
    """min(|x-y|, 1-|x-y|) after reduction mod 1, on exact rationals."""
    d = x - y
    d -= d.numerator // d.denominator      # d in [0, 1)
    return min(d, 1 - d)


def fraction_to_dyadic(q: Fraction) -> Dyadic:
    den = q.denominator
    if den & (den - 1):
        raise ValueError(f"{q} is not dyadic")
    return Dyadic(q.numerator, -(den.bit_length() - 1))


def dyadic_enumeration(i: int) -> Dyadic:
    """Level-order dyadics in [0,1): 0, 1/2, 1/4, 3/4, 1/8, 3/8, ...

    Every point of the circle is within 2^-m of some index < 2^m.
    """
    if i == 0:
        return ZERO
    level = i.bit_length()          # i in [2^(level-1), 2^level)
    k = i - (1 << (level - 1))      # 0 .. 2^(level-1) - 1
    return Dyadic(2 * k + 1, -level)


def _pair_index(i: int) -> tuple[int, int]:
    # Cantor diagonal unpairing
    s = 0
    while (s + 1) * (s + 2) // 2 <= i:
        s += 1
    a = i - s * (s + 1) // 2
    return a, s - a


def _triple_index(i: int) -> tuple[int, int, int]:
    a, rest = _pair_index(i)
    b, c = _pair_index(rest)
    return a, b, c


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
    dense: Callable[[int], object]
    diameter_bound: Dyadic
    lipschitz_op: Dyadic
    kappa: Optional[Callable[[int], int]] = None
    order: Optional[int] = None          # finite groups
    dim: Optional[int] = None            # tori
    table: Optional[tuple] = None        # finite groups
    components: tuple = field(default=())  # product groups

    def __repr__(self):
        extra = f", order={self.order}" if self.order else ""
        return f"Group({self.kind!r}{extra})"


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

def validate_cayley_table(table) -> None:
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
    for a in range(k):
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(k)):
            raise InvalidCayleyTable(f"element {a} has no inverse")


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
    validate_cayley_table(table)
    k = len(table)
    inv = [0] * k
    for a in range(k):
        for b in range(k):
            if table[a][b] == 0:
                inv[a] = b
    inv = tuple(inv)
    table = tuple(tuple(row) for row in table)

    def metric(a, b, p):
        return Interval.from_int(0 if a == b else 1)

    def kappa(n):
        # pairwise distances are 1, and a packing needs them > 2^-n
        return k if n >= 1 else 1

    return Group(
        kind="finite", identity=0,
        metric=metric,
        op=lambda a, b, p: table[a][b],
        inverse=lambda a, p: inv[a],
        dense=lambda i: i % k,
        diameter_bound=ONE if k > 1 else ZERO,
        lipschitz_op=TWO,
        kappa=kappa, order=k, table=table,
    )


def cyclic_table(k: int):
    return tuple(tuple((i + j) % k for j in range(k)) for i in range(k))


# ---------------------------------------------------------------------------
# circle and torus
# ---------------------------------------------------------------------------

def circle_metric(x: Dyadic, y: Dyadic, p: int = 0) -> Interval:
    """Exact distance min(|x-y|, 1-|x-y|); width-0 enclosure."""
    d = circle_distance_fraction(x.as_fraction(), y.as_fraction())
    return Interval.point(fraction_to_dyadic(d))


def _circle_group() -> Group:
    return Group(
        kind="circle", identity=ZERO,
        metric=circle_metric,
        op=lambda x, y, p: circle_normalize(x + y),
        inverse=lambda x, p: circle_normalize(-x),
        dense=dyadic_enumeration,
        diameter_bound=HALF,
        lipschitz_op=TWO,
        kappa=lambda n: (1 << n) - 1 if n >= 1 else 1,
    )


def _torus_group(d: int) -> Group:
    def metric(x, y, p):
        best = ZERO
        for xc, yc in zip(x, y):
            dc = fraction_to_dyadic(
                circle_distance_fraction(xc.as_fraction(), yc.as_fraction()))
            best = dyadic_max(best, dc)
        return Interval.point(best)

    def kappa(n):
        return ((1 << n) - 1) ** d if n >= 1 else 1

    def dense(i):
        idx = []
        rest = i
        for _ in range(d - 1):
            a, rest = _pair_index(rest)
            idx.append(a)
        idx.append(rest)
        return tuple(dyadic_enumeration(j) for j in idx)

    return Group(
        kind="torus", identity=tuple([ZERO] * d),
        metric=metric,
        op=lambda x, y, p: tuple(circle_normalize(a + b) for a, b in zip(x, y)),
        inverse=lambda x, p: tuple(circle_normalize(-a) for a in x),
        dense=dense,
        diameter_bound=HALF,
        lipschitz_op=TWO,
        kappa=kappa, dim=d,
    )


# ---------------------------------------------------------------------------
# SU(2) and derived groups
# ---------------------------------------------------------------------------

def _clamp_to_unit(x: Interval) -> Interval:
    """Intersect an enclosure of a value known to lie in [-1, 1] with [-1, 1]."""
    lo = dyadic_max(x.lo, Dyadic(-1))
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


def _psi_dense_triple(a: Dyadic, b: Dyadic, c: Dyadic, p: int = 48) -> Versor:
    # deferred import: psi lives with the quadrature code
    from .quadrature import ParamPoint, psi
    pi_enc = pi_enclosure(p + 4)
    return psi(ParamPoint(pi_enc.scale(a), pi_enc.scale(b),
                          pi_enc.scale(c).scale(TWO)), p)


def _su2_dense(i: int) -> Versor:
    ia, ib, ic = _triple_index(i)
    return _psi_dense_triple(dyadic_enumeration(ia), dyadic_enumeration(ib),
                             dyadic_enumeration(ic))


def _su2_group() -> Group:
    return Group(
        kind="su2", identity=QUAT_ONE,
        metric=su2_geodesic_metric,
        op=lambda a, b, p: a.multiply(b, p),
        inverse=lambda a, p: a.conjugate(),
        dense=_su2_dense,
        diameter_bound=Dyadic(13, -2),   # 3.25 >= pi
        lipschitz_op=TWO,
        kappa=None,
    )


def _so3_group() -> Group:
    return Group(
        kind="so3", identity=QUAT_ONE,
        metric=so3_metric,
        op=lambda a, b, p: a.multiply(b, p),
        inverse=lambda a, p: a.conjugate(),
        dense=_su2_dense,
        diameter_bound=Dyadic(13, -3),   # 1.625 >= pi/2
        lipschitz_op=TWO,
        kappa=None,
    )


def product_group(kind: str, g1: Group, g2: Group) -> Group:
    """Direct product with the max metric (preserves bi-invariance)."""
    def metric(x, y, p):
        m1 = g1.metric(x[0], y[0], p)
        m2 = g2.metric(x[1], y[1], p)
        return Interval(dyadic_max(m1.lo, m2.lo), dyadic_max(m1.hi, m2.hi))

    def dense(i):
        a, b = _pair_index(i)
        return (g1.dense(a), g2.dense(b))

    return Group(
        kind=kind, identity=(g1.identity, g2.identity),
        metric=metric,
        op=lambda x, y, p: (g1.op(x[0], y[0], p), g2.op(x[1], y[1], p)),
        inverse=lambda x, p: (g1.inverse(x[0], p), g2.inverse(x[1], p)),
        dense=dense,
        diameter_bound=dyadic_max(g1.diameter_bound, g2.diameter_bound),
        lipschitz_op=TWO,
        kappa=None,
        components=(g1, g2),
    )


def u2_matrix(element, p: int):
    """2x2 complex interval matrix of a (versor, circle point) U(2) element.

    The versor q maps to [[a+bi, -c+di], [c+di, a-bi]] and the circle point t
    scales it by exp(2 pi i t); entries come back as (real, imag) pairs.
    """
    q, t = element
    zi, zr = sincos_pi(2 * t.as_fraction(), p)
    a, b, c, d = q.components()
    entries = ((a, b), (-c, d), (c, d), (a, -b))
    out = []
    for re, im in entries:
        out.append(((zr * re - zi * im).round_out(p),
                    (zr * im + zi * re).round_out(p)))
    return ((out[0], out[1]), (out[2], out[3]))


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
            raise ValueError("finite groups need a Cayley table")
        return _finite_group(table)
    if kind == "cyclic":
        if not k or k < 1:
            raise ValueError("cyclic groups need an order k >= 1")
        return _finite_group(cyclic_table(k))
    if kind == "circle":
        return _circle_group()
    if kind == "torus":
        return _torus_group(dim or 1)
    if kind == "su2":
        return _su2_group()
    if kind == "so3":
        return _so3_group()
    if kind == "o3":
        return product_group("o3", _so3_group(), _finite_group(cyclic_table(2)))
    if kind == "u2":
        return product_group("u2", _su2_group(), _circle_group())
    raise ValueError(f"unknown group kind {kind!r}")


def group_op(G: Group, a, b, p: int):
    """Enclosure of a o b; exact on finite/torus instances."""
    return G.op(a, b, p)


# ---------------------------------------------------------------------------
# the derived bi-invariant metric d'(a,b) = sup_{x,y} d(x a y, x b y)
# ---------------------------------------------------------------------------

def biinvariant_metric(G: Group, p: int, grid_cap: int = 2_000_000):
    """Certified evaluator of d'(a,b) = sup_x sup_y d(x a y, x b y).

    Since the group operation is 2-Lipschitz in the max metric, the maximand
    moves at most 4 max(d(x,x'), d(y,y')) when (x, y) moves, so a grid that is
    2^-(p+2)-dense in each variable encloses the sup to width 2^-p plus metric
    widths.  Finite groups are maximised exhaustively (exact).  On the circle
    the maximand is constant in (x, y) because d(u, v) there is a function of
    u - v, so d' = d without any grid.  For su2/so3 and products the dense
    grid required for small 2^-p is cubic per variable and squared across the
    pair; EffortExceeded is raised when it would exceed ``grid_cap`` points,
    which in practice limits certification to coarse p on those instances.
    """
    if G.kind == "finite":
        k = G.order

        def exact_eval(a, b, wp=p):
            best = Interval.from_int(0)
            for x in range(k):
                for y in range(k):
                    xa = G.op(G.op(x, a, wp), y, wp)
                    xb = G.op(G.op(x, b, wp), y, wp)
                    m = G.metric(xa, xb, wp)
                    best = Interval(dyadic_max(best.lo, m.lo),
                                    dyadic_max(best.hi, m.hi))
            return best

        return exact_eval

    if G.kind in ("circle", "torus"):
        # d(x a y, x b y) = rho((x+a+y) - (x+b+y)) = rho(a - b) = d(a, b)
        def translation_eval(a, b, wp=p):
            return G.metric(a, b, wp)

        return translation_eval

    if G.kind in ("su2", "so3"):
        # net from the Psi parameter grid: coordinate speeds of Psi are 1,
        # sin(eta) <= 1 and sin(eta)sin(theta) <= 1, so midpoints of an
        # (n1, n1, 2 n1) grid cover the sphere to radius 3 pi / (2 n1); the
        # maximand moves at most 8 max(d(x,x'), d(y,y')), hence slack
        # 8 * covering radius, which must be <= 2^-p
        slack = Fraction(1, 1 << p) if p >= 0 else Fraction(1 << -p)
        r = slack / 8
        need = Fraction(333, 100) * 3 / (2 * r)       # 3.33 >= pi
        n1 = 1
        while n1 < need:
            n1 *= 2
        n3 = 2 * n1
        if (n1 * n1 * n3) ** 2 > grid_cap:
            raise EffortExceeded(
                f"bi-invariant metric on {G.kind} needs a {n1 * n1 * n3}^2-pair "
                f"grid for width 2^-{p}; raise grid_cap or lower p")
        lg = n1.bit_length() - 1
        pts = [
            _psi_dense_triple(Dyadic(2 * ia + 1, -(lg + 1)),
                              Dyadic(2 * ib + 1, -(lg + 1)),
                              Dyadic(2 * ic + 1, -(lg + 2)))
            for ia in range(n1) for ib in range(n1) for ic in range(n3)
        ]
        slack_dy = Dyadic(1, -p)

        def grid_eval(a, b, wp=max(p + 4, 8), _pts=pts):
            best = Interval.from_int(0)
            for x in _pts:
                xa = x.multiply(a, wp)
                xb = x.multiply(b, wp)
                for y in _pts:
                    m = G.metric(xa.multiply(y, wp), xb.multiply(y, wp), wp)
                    best = Interval(dyadic_max(best.lo, m.lo),
                                    dyadic_max(best.hi, m.hi))
            upper = best.hi + slack_dy
            if upper > G.diameter_bound:
                upper = G.diameter_bound
            return Interval(best.lo, dyadic_max(best.lo, upper))

        return grid_eval

    raise EffortExceeded(f"no bi-invariant evaluator for kind {G.kind!r}")

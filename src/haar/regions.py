"""Exact region algebra for located sets on finite groups, the circle and tori.

Regions are the closed sets the Section-style procedures actually construct:
balls, complements, unions, and differences of balls.  On the circle/torus a
region is a list of boxes (products of closed arcs with rational endpoints);
subtraction removes the *interior* of the cut, so results stay closed and the
algebra is exact: distances evaluate to exact rationals.  On finite groups a
region is a subset of element indices.

A box region stores integers over one denominator ``den``: the arc (lo, hi)
stands for lo/den to hi/den.  Arc convention: 0 <= lo < den and lo <= hi <=
lo + den describe the closed arc from lo upward to hi; length hi - lo; the
full circle is (0, den).  Every number enters through ``ratio`` and every
operation works at the lcm of its operands' denominators (a power of two on
dyadic inputs), so only ``distance`` and ``measure`` build fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactreal import Dyadic, NoConvergence

FAR = Fraction(1 << 40)          # stand-in for the distance to an empty set
MAX_BOXES = 1 << 16              # effort cap on the boxes of one subtraction


def ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int, Fraction or Dyadic."""
    if isinstance(x, Dyadic):
        return (x.m << x.e, 1) if x.e >= 0 else (x.m, 1 << -x.e)
    return x.numerator, x.denominator


def _arc(lo: int, hi: int, den: int):
    """The normalized arc from lo to hi (the full circle once hi - lo >= den)."""
    if hi - lo >= den:
        return (0, den)
    s = lo % den
    return (s, s + hi - lo)


def _arc_distance(lo: int, hi: int, x: int, den: int) -> int:
    """Circle distance from point x to the closed arc (lo, hi), times den."""
    if hi - lo >= den:
        return 0
    rel = (x - lo) % den
    if rel <= hi - lo:
        return 0
    # distance to the hi end going down, or to lo going up (around)
    return min(rel - (hi - lo), den - rel)


def _split_arc(arc, cut, den: int):
    """Closed pieces of arc outside the *interior* of cut, and closed pieces
    of arc inside cut (0, 1 or 2 arcs each).

    Normalized arcs lie in [0, 2 den), so only the cut's shifts by -den, 0
    and +den can meet the arc; those shifts are disjoint and ascending, so
    one walk along the arc cuts them out in order.
    """
    lo, hi = arc
    clo, chi = cut
    if chi - clo >= den:
        return [], [arc]
    if hi - lo >= den:
        return [_arc(chi, clo + den, den)], [cut]
    outside, inside = [], []
    rest = lo               # the part of the arc not yet cut is [rest, hi]
    for k in (-den, 0, den):
        a, b = clo + k, chi + k
        if max(lo, a) <= min(hi, b):
            inside.append(_arc(max(lo, a), min(hi, b), den))
        if rest is not None and a < hi and b > rest:   # open cut meets the rest
            if a > rest:
                outside.append(_arc(rest, a, den))
            rest = b if b < hi else None
    if rest is not None:
        outside.append(_arc(rest, hi, den))
    return outside, inside


def _grow(box, g: int, den: int):
    return tuple(_arc(lo - g, hi + g, den) for lo, hi in box)


def _subtract_box(boxes, cut, den: int) -> list:
    """The boxes minus the interior of one cut box."""
    out = []
    for box in boxes:
        # cores: parts matching the cut on all coordinates processed so far
        cores = [box]
        for c, cut_arc in enumerate(cut):
            nxt_cores = []
            for b in cores:
                outside, inside = _split_arc(b[c], cut_arc, den)
                out += [b[:c] + (arc,) + b[c + 1:] for arc in outside]
                nxt_cores += [b[:c] + (arc,) + b[c + 1:] for arc in inside]
            cores = nxt_cores
        # cores are inside the cut on every coordinate: removed
    if len(out) > MAX_BOXES:
        raise NoConvergence(f"box algebra reached {len(out)} boxes; over the "
                            f"effort cap of {MAX_BOXES}")
    return out


def _union(boxes, more, den: int) -> list:
    """The boxes together with the parts of ``more`` they do not cover."""
    for box in more:
        extra = [box]
        for mine in boxes:
            extra = _subtract_box(extra, mine, den)
        boxes = boxes + extra
    return boxes


class BoxRegion:
    """Finite union of closed boxes on the d-torus (d = 1 is the circle)."""

    __slots__ = ("dim", "den", "boxes")

    def __init__(self, dim: int, den: int, boxes):
        self.dim = dim
        self.den = den
        self.boxes = list(boxes)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "BoxRegion":
        return BoxRegion(dim, 1, [])

    @staticmethod
    def whole(dim: int) -> "BoxRegion":
        return BoxRegion(dim, 1, [((0, 1),) * dim])

    @staticmethod
    def ball(dim: int, center, radius) -> "BoxRegion":
        """Closed max-metric ball: a product of arcs."""
        rn, rd = ratio(radius)
        if rn < 0:
            return BoxRegion.empty(dim)
        coords = [ratio(c) for c in center]
        den = lcm(rd, *(d for _, d in coords))
        r = rn * (den // rd)
        return BoxRegion(dim, den, [tuple(
            _arc(n * (den // d) - r, n * (den // d) + r, den) for n, d in coords)])

    def is_empty(self) -> bool:
        return not self.boxes

    def boxes_at(self, den: int) -> list:
        """The boxes over a multiple ``den`` of this region's denominator."""
        k = den // self.den
        if k == 1:
            return self.boxes
        return [tuple((lo * k, hi * k) for lo, hi in box) for box in self.boxes]

    def lifted(self, r):
        """(den, boxes, g): the boxes over den, the lcm of this region's
        denominator and r's, and r as g / den."""
        rn, rd = ratio(r)
        den = lcm(self.den, rd)
        return den, self.boxes_at(den), rn * (den // rd)

    # -- set operations (exact; subtraction removes interiors) ----------------

    def union(self, other: "BoxRegion") -> "BoxRegion":
        den = lcm(self.den, other.den)
        return BoxRegion(self.dim, den,
                         _union(self.boxes_at(den), other.boxes_at(den), den))

    def subtract(self, other: "BoxRegion") -> "BoxRegion":
        den = lcm(self.den, other.den)
        acc = self.boxes_at(den)
        for box in other.boxes_at(den):
            acc = _subtract_box(acc, box, den)
        return BoxRegion(self.dim, den, acc)

    def complement(self) -> "BoxRegion":
        return BoxRegion.whole(self.dim).subtract(self)

    def expand(self, r) -> "BoxRegion":
        """Outer generalized ball: every box grown by r in the max metric."""
        den, boxes, g = self.lifted(r)
        if not boxes or g <= 0:
            return self
        return BoxRegion(self.dim, den,
                         _union([], [_grow(box, g, den) for box in boxes], den))

    def shrink(self, r) -> "BoxRegion":
        """Inner generalized ball {x : d(x, complement) >= r}: the whole space
        minus the interiors of the complement's boxes grown by r."""
        if self.is_empty():
            return self
        den, comp, g = self.complement().lifted(r)
        acc = BoxRegion.whole(self.dim).boxes_at(den)
        for box in comp:
            acc = _subtract_box(acc, _grow(box, g, den) if g > 0 else box, den)
        return BoxRegion(self.dim, den, acc)

    # -- queries --------------------------------------------------------------

    def contains(self, point) -> bool:
        return self.distance(point) == 0

    def distance(self, point) -> Fraction:
        """Exact max-metric distance from point to the region (FAR if empty)."""
        if self.is_empty():
            return FAR
        coords = [ratio(c) for c in point]
        den = lcm(self.den, *(d for _, d in coords))
        xs = [n * (den // d) for n, d in coords]
        return Fraction(min(max(_arc_distance(lo, hi, x, den)
                                for (lo, hi), x in zip(box, xs))
                            for box in self.boxes_at(den)), den)

    def measure(self) -> Fraction:
        """Total content, valid when the boxes overlap at most in boundaries."""
        total = 0
        for box in self.boxes:
            v = 1
            for lo, hi in box:
                v *= hi - lo
            total += v
        return Fraction(total, self.den ** self.dim)

    def __repr__(self):
        return f"BoxRegion(dim={self.dim}, boxes={len(self.boxes)})"


class FiniteRegion:
    """Subset of a finite group with the discrete metric."""

    __slots__ = ("order", "members")

    def __init__(self, order: int, members):
        self.order = order
        self.members = frozenset(members)

    @staticmethod
    def empty(order: int) -> "FiniteRegion":
        return FiniteRegion(order, ())

    @staticmethod
    def whole(order: int) -> "FiniteRegion":
        return FiniteRegion(order, range(order))

    @staticmethod
    def ball(order: int, center: int, radius) -> "FiniteRegion":
        num, den = ratio(radius)
        if num < 0:
            return FiniteRegion.empty(order)
        if num >= den:
            return FiniteRegion.whole(order)
        return FiniteRegion(order, (center,))

    def is_empty(self) -> bool:
        return not self.members

    def union(self, other: "FiniteRegion") -> "FiniteRegion":
        return FiniteRegion(self.order, self.members | other.members)

    def subtract(self, other: "FiniteRegion") -> "FiniteRegion":
        return FiniteRegion(self.order, self.members - other.members)

    def complement(self) -> "FiniteRegion":
        return FiniteRegion(self.order, set(range(self.order)) - self.members)

    def expand(self, r) -> "FiniteRegion":
        num, den = ratio(r)
        if num >= den and self.members:
            return FiniteRegion.whole(self.order)
        return self

    def shrink(self, r) -> "FiniteRegion":
        num, den = ratio(r)
        if num <= den:
            return self
        if len(self.members) == self.order:
            return self
        return FiniteRegion.empty(self.order)

    def contains(self, point: int) -> bool:
        return point in self.members

    def distance(self, point: int) -> Fraction:
        if point in self.members:
            return Fraction(0)
        if not self.members:
            return FAR
        return Fraction(1)

    def measure(self) -> Fraction:
        return Fraction(len(self.members), self.order)

    def __repr__(self):
        return f"FiniteRegion({sorted(self.members)})"

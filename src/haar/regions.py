"""Exact region algebra for located sets on finite groups, the circle and tori.

Regions are the closed sets the Section-style procedures actually construct:
balls, complements, unions, and differences of balls.  On the circle/torus a
region is a list of boxes (products of closed arcs with rational endpoints);
subtraction removes the *interior* of the cut, so results stay closed and the
algebra is exact: distances evaluate to exact rationals.  On finite groups a
region is a subset of element indices.

Arc convention: (lo, hi) with 0 <= lo < 1 and lo <= hi <= lo + 1 describes
the closed arc from lo upward to hi; length hi - lo; the full circle is
(0, 1).  All arithmetic is on ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

FULL_ARC = (Fraction(0), Fraction(1))
FAR = Fraction(1 << 40)          # stand-in for the distance to an empty set


def _norm_start(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def _normalize_arc(lo: Fraction, hi: Fraction):
    if hi - lo >= 1:
        return FULL_ARC
    s = _norm_start(lo)
    return (s, s + (hi - lo))


def arc_length(arc) -> Fraction:
    return arc[1] - arc[0]


def arc_contains(arc, x: Fraction) -> bool:
    lo, hi = arc
    if hi - lo >= 1:
        return True
    x = _norm_start(x - lo)       # position relative to lo, in [0, 1)
    return x <= hi - lo


def arc_distance(arc, x: Fraction) -> Fraction:
    """Exact circle distance from point x to the closed arc."""
    lo, hi = arc
    if hi - lo >= 1:
        return Fraction(0)
    rel = _norm_start(x - lo)
    if rel <= hi - lo:
        return Fraction(0)
    # distance to the hi end going down, or to lo going up (around)
    return min(rel - (hi - lo), 1 - rel)


def arc_expand(arc, r: Fraction):
    if r <= 0:
        return arc
    return _normalize_arc(arc[0] - r, arc[1] + r)


def _shift_window(lo: Fraction, chi: Fraction):
    d = lo - chi
    k0 = d.numerator // d.denominator
    return range(k0 - 1, k0 + 4)


def _arc_subtract(arc, cut):
    """Closed pieces of arc minus the *interior* of cut (0, 1 or 2 arcs)."""
    lo, hi = arc
    clo, chi = cut
    if chi - clo >= 1:
        return []
    if hi - lo >= 1:
        return [_normalize_arc(chi, clo + 1)]
    remaining = [(lo, hi)]
    for k in _shift_window(lo, chi):
        nlo, nhi = clo + k, chi + k
        nxt = []
        for alo, ahi in remaining:
            if nhi <= alo or nlo >= ahi:          # open cut misses closed piece
                nxt.append((alo, ahi))
                continue
            if nlo > alo:
                nxt.append((alo, min(nlo, ahi)))
            if nhi < ahi:
                nxt.append((max(nhi, alo), ahi))
        remaining = nxt
    return [_normalize_arc(a, b) for a, b in remaining]


class BoxRegion:
    """Finite union of closed boxes on the d-torus (d = 1 is the circle)."""

    __slots__ = ("dim", "boxes")

    def __init__(self, dim: int, boxes):
        self.dim = dim
        self.boxes = [tuple(b) for b in boxes]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "BoxRegion":
        return BoxRegion(dim, [])

    @staticmethod
    def whole(dim: int) -> "BoxRegion":
        return BoxRegion(dim, [tuple([FULL_ARC] * dim)])

    @staticmethod
    def ball(dim: int, center, radius: Fraction) -> "BoxRegion":
        """Closed max-metric ball: a product of arcs."""
        if radius < 0:
            return BoxRegion.empty(dim)
        arcs = []
        for c in center:
            cf = Fraction(c) if not hasattr(c, "as_fraction") else c.as_fraction()
            arcs.append(_normalize_arc(cf - radius, cf + radius))
        return BoxRegion(dim, [tuple(arcs)])

    def is_empty(self) -> bool:
        return not self.boxes

    # -- set operations (exact; subtraction removes interiors) ----------------

    def _subtract_box(self, cut) -> "BoxRegion":
        out = []
        for box in self.boxes:
            # cores: parts matching the cut on all coordinates processed so far
            cores = [box]
            for c in range(self.dim):
                nxt_cores = []
                for b in cores:
                    for arc in _arc_subtract(b[c], cut[c]):
                        nb = list(b)
                        nb[c] = arc
                        out.append(tuple(nb))     # outside in coord c: survives
                    for arc in _arc_intersections(b[c], cut[c]):
                        nb = list(b)
                        nb[c] = arc
                        nxt_cores.append(tuple(nb))
                cores = nxt_cores
            # cores are inside the cut on every coordinate: removed
        return BoxRegion(self.dim, out)

    def union(self, other: "BoxRegion") -> "BoxRegion":
        acc = BoxRegion(self.dim, list(self.boxes))
        for box in other.boxes:
            extra = BoxRegion(self.dim, [box])
            for mine in acc.boxes:
                extra = extra._subtract_box(mine)
            acc = BoxRegion(self.dim, acc.boxes + extra.boxes)
        return acc

    def subtract(self, other: "BoxRegion") -> "BoxRegion":
        acc = self
        for box in other.boxes:
            acc = acc._subtract_box(box)
        return acc

    def complement(self) -> "BoxRegion":
        return BoxRegion.whole(self.dim).subtract(self)

    def expand(self, r: Fraction) -> "BoxRegion":
        """Outer generalized ball: every box grown by r in the max metric."""
        if self.is_empty() or r <= 0:
            return BoxRegion(self.dim, list(self.boxes)) if r <= 0 else self
        acc = BoxRegion.empty(self.dim)
        for box in self.boxes:
            grown = BoxRegion(self.dim, [tuple(arc_expand(a, r) for a in box)])
            acc = acc.union(grown)
        return acc

    def shrink(self, r: Fraction) -> "BoxRegion":
        """Inner generalized ball {x : d(x, complement) >= r}."""
        if self.is_empty():
            return self
        comp = self.complement()
        if comp.is_empty():
            return BoxRegion.whole(self.dim)
        grown_boxes = [tuple(arc_expand(a, r) for a in box) for box in comp.boxes]
        acc = BoxRegion.whole(self.dim)
        for box in grown_boxes:
            acc = acc._subtract_box(box)
        return acc

    # -- queries --------------------------------------------------------------

    def contains(self, point) -> bool:
        pt = [Fraction(c) if not hasattr(c, "as_fraction") else c.as_fraction()
              for c in point]
        return any(all(arc_contains(a, x) for a, x in zip(box, pt))
                   for box in self.boxes)

    def distance(self, point) -> Fraction:
        """Exact max-metric distance from point to the region (FAR if empty)."""
        if self.is_empty():
            return FAR
        pt = [Fraction(c) if not hasattr(c, "as_fraction") else c.as_fraction()
              for c in point]
        best = None
        for box in self.boxes:
            d = max(arc_distance(a, x) for a, x in zip(box, pt))
            if best is None or d < best:
                best = d
        return best

    def measure(self) -> Fraction:
        """Total content, valid when the boxes overlap at most in boundaries."""
        total = Fraction(0)
        for box in self.boxes:
            v = Fraction(1)
            for a in box:
                v *= min(arc_length(a), Fraction(1))
            total += v
        return total

    def __repr__(self):
        return f"BoxRegion(dim={self.dim}, boxes={len(self.boxes)})"


def _arc_intersections(arc, other):
    """Closed intersection pieces of two arcs (0, 1 or 2 arcs)."""
    lo, hi = arc
    olo, ohi = other
    if ohi - olo >= 1:
        return [arc]
    if hi - lo >= 1:
        return [_normalize_arc(olo, ohi)]
    res = []
    for k in _shift_window(lo, ohi):
        nlo, nhi = olo + k, ohi + k
        s, e = max(lo, nlo), min(hi, nhi)
        if s <= e:
            a = _normalize_arc(s, e)
            if a not in res:
                res.append(a)
    return res


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
    def ball(order: int, center: int, radius: Fraction) -> "FiniteRegion":
        if radius < 0:
            return FiniteRegion.empty(order)
        if radius >= 1:
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

    def expand(self, r: Fraction) -> "FiniteRegion":
        if r >= 1 and self.members:
            return FiniteRegion.whole(self.order)
        return self

    def shrink(self, r: Fraction) -> "FiniteRegion":
        if r <= 1:
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

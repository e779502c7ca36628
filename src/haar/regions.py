"""Exact region algebra for located sets on finite groups, the circle and tori.

On finite groups a region is a subset of element indices.  On the d-torus
(d = 1 is the circle) it is a closed set on a coordinate-compressed grid:
each axis has sorted cuts c_0 < ... < c_(m-1) in [0, den), read as c_i/den,
whose 2m cells alternate between a point {c_i} and an open arc (c_i, c_(i+1))
(the last one wraps round; an axis without cuts is one cell), and the region
is an in/out flag per product cell, row-major.  ``union`` and ``subtract``
merge the cuts and act cell by cell, ``subtract`` taking the closure.  A
max-metric ball is a product of arcs, so ``expand`` and ``shrink`` act on one
axis at a time, where each closed run [a, b] of in-cells on a line becomes
[a - r, b + r] or [a + r, b - r] (separable dilation and erosion by a box,
Serra 1982; cut grids as in Chan, FOCS 2013).  Results are canonical, so
equal sets have equal (den, cuts, flags): a cut between equal cells on every
line goes, and den is divided by its gcd with the cuts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from math import gcd, lcm, prod

from .exactreal import Dyadic


def ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int, Fraction or Dyadic."""
    if isinstance(x, Dyadic):
        return (x.m << x.e, 1) if x.e >= 0 else (x.m, 1 << -x.e)
    return x.numerator, x.denominator


def _cells(cut, den: int) -> list:
    """The closures (lo, hi) of one axis' cells: (c_i, c_i) for a point,
    (c_i, c_(i+1)) for an arc, (0, den) for an axis without cuts."""
    ends = [e + den * (e <= c) for c, e in zip(cut, cut[1:] + cut[:1])]
    return [cell for c, e in zip(cut, ends) for cell in ((c, c), (c, e))] or [(0, den)]


def _cell_map(own, fine) -> list:
    """For each cell of an axis cut at ``fine``, the index of the cell of the
    axis cut at ``own`` (a subset) that holds it."""
    n, out = 2 * len(own) or 1, []
    for c in fine:
        i = bisect_right(own, c) - 1
        out += ((2 * i + (not own or own[i] != c)) % n, (2 * i + 1) % n)
    return out or [0]


def _sweep(cuts, flags, fn):
    """(cuts, flags) once fn(axis, cut, lines) -> (cut, lines) has rewritten
    the lines of cells along each axis in turn.  The lines along the last
    axis are consecutive, and each step moves that axis to the front."""
    if len(cuts) == 1:
        cut, lines = fn(0, cuts[0], [flags])
        return [cut], lines[0]
    cuts = list(cuts)
    for axis in reversed(range(len(cuts))):
        n = 2 * len(cuts[axis]) or 1
        cuts[axis], lines = fn(axis, cuts[axis],
                               [flags[i:i + n] for i in range(0, len(flags), n)])
        flags = [ln[j] for j in range(len(lines[0])) for ln in lines]
    return cuts, flags


def _drop(axis, cut, lines):
    """The cuts whose point and two arcs agree on every line go."""
    keep = [i for i in range(len(cut)) if any(
        [ln[2 * i - 1] != ln[2 * i] or ln[2 * i] != ln[2 * i + 1] for ln in lines])]
    if len(keep) == len(cut):
        return cut, lines
    cells = [k for i in keep for k in (2 * i, 2 * i + 1)] or [0]
    return tuple(cut[i] for i in keep), [[ln[k] for k in cells] for ln in lines]


def _close(axis, cut, lines):
    """Point cells next to an in-arc join."""
    return cut, [[f or (k % 2 == 0 and (ln[k - 1] or ln[k + 1]))
                  for k, f in enumerate(ln)] if cut else ln for ln in lines]


def _one_arc(a: int, b: int, den: int):
    """(cut, flags) of one axis holding the closed arc [a, b] alone."""
    if b - a >= den:
        return (), [True]
    lo, hi = a % den, b % den
    if lo == hi:
        return (lo,), [True, False]
    return ((lo, hi), [True, True, True, False]) if lo < hi \
        else ((hi, lo), [True, False, True, True])


def _line(line, cut, den: int, h: int):
    """(cut, flags) of one closed line, canonical, once each closed run
    [a, b] of its in-cells became [a - h, b + h]: a run shorter than a point
    goes, runs that meet merge, and a run a turn long fills the line."""
    if all(line):
        return (), [True]
    runs, wrap = [], None
    for i, c in enumerate(cut):               # runs start and end on points
        if line[2 * i]:
            if not line[2 * i - 1]:
                runs.append([c - h, None])
            if not line[2 * i + 1]:
                if runs and runs[-1][1] is None:
                    runs[-1][1] = c + h
                else:
                    wrap = c + h + den            # the last run wraps round
    if wrap is not None:
        runs[-1][1] = wrap
    runs = [run for run in runs if run[0] <= run[1]]
    for k in range(len(runs) - 1, 0, -1):
        if runs[k][0] <= runs[k - 1][1]:
            runs[k - 1][1] = max(runs[k - 1][1], runs.pop(k)[1])
    while len(runs) > 1 and runs[0][0] + den <= runs[-1][1]:
        runs[-1][1] = max(runs[-1][1], runs.pop(0)[1] + den)
    if len(runs) < 2:                         # a run a turn long is alone
        return _one_arc(*runs[0], den) if runs else ((), [False])
    ends = sorted([(a % den, a < b) for a, b in runs]
                  + [(b % den, False) for a, b in runs if a < b])
    return tuple(c for c, _ in ends), [f for _, arc in ends for f in (True, arc)]


def _region(dim: int, den: int, cuts, flags, drop: bool = True) -> "BoxRegion":
    """The canonical region: redundant cuts dropped (when ``drop``), then den
    and the cuts divided by their gcd."""
    if drop:
        cuts, flags = _sweep(cuts, flags, _drop)
    g = gcd(den, *[c for cut in cuts for c in cut])
    if g > 1:
        den, cuts = den // g, [tuple([c // g for c in cut]) for cut in cuts]
    return BoxRegion(dim, den, tuple(cuts), flags)


@dataclass(eq=False, slots=True)
class BoxRegion:
    """Closed region of the d-torus (d = 1 is the circle) on a cut grid."""

    dim: int
    den: int
    cuts: tuple
    flags: list

    @staticmethod
    def empty(dim: int) -> "BoxRegion":
        return BoxRegion(dim, 1, ((),) * dim, [False])

    @staticmethod
    def ball(dim: int, center, radius) -> "BoxRegion":
        """Closed max-metric ball: a product of arcs."""
        (rn, rd), coords = ratio(radius), [ratio(c) for c in center]
        if rn < 0:
            return BoxRegion.empty(dim)
        den = lcm(rd, *(d for _, d in coords))
        r = rn * (den // rd)
        axes = [_one_arc(n * den // d - r, n * den // d + r, den) for n, d in coords]
        flags = [all(c) for c in product(*(cells for _, cells in axes))]
        return _region(dim, den, [cut for cut, _ in axes], flags, drop=False)

    def centred(self, center) -> "BoxRegion":
        """This region moved by -center, exactly.

        Over lcm(den, the center's denominators) each axis' cuts move by -x
        mod den and rotate back to sorted order; when cut r becomes the
        first, that axis' cells rotate by 2r and the row-major flags follow.
        A translate of a canonical region is canonical up to the gcd step,
        so translates of one set give one (den, cuts, flags)."""
        coords = [ratio(c) for c in center]
        den = lcm(self.den, *(d for _, d in coords))
        cuts, idx = [], [0]
        for cut, (n, d) in zip(self._at(den), coords):
            moved = [(c - n * (den // d)) % den for c in cut]
            r = moved.index(min(moved)) if moved else 0
            cuts.append(tuple(moved[r:] + moved[:r]))
            m = 2 * len(cut) or 1
            idx = [x * m + (y + 2 * r) % m for x in idx for y in range(m)]
        return _region(self.dim, den, cuts, [self.flags[x] for x in idx], drop=False)

    def _at(self, den: int):
        """The cuts over a multiple den of this region's denominator."""
        k = den // self.den
        return self.cuts if k == 1 else [tuple([c * k for c in ct]) for ct in self.cuts]

    def _on(self, den: int, fine) -> list:
        """The flags on a finer grid: den a multiple of this region's, and per
        axis cuts that hold its own."""
        idx = [0]
        for own, cut in zip(self._at(den), fine):
            idx = [x * (2 * len(own) or 1) + y for x in idx
                   for y in _cell_map(own, cut)]
        return [self.flags[x] for x in idx]

    def _merged(self, other: "BoxRegion"):
        """(den, cuts, own flags, other's flags) on the merged grid."""
        den = lcm(self.den, other.den)
        fine = [tuple(sorted({*a, *b})) for a, b in zip(self._at(den), other._at(den))]
        return den, fine, self._on(den, fine), other._on(den, fine)

    def union(self, other: "BoxRegion") -> "BoxRegion":
        den, cuts, a, b = self._merged(other)
        return _region(self.dim, den, cuts, [x or y for x, y in zip(a, b)])

    def subtract(self, other: "BoxRegion") -> "BoxRegion":
        """The closure of this region minus the other."""
        den, cuts, a, b = self._merged(other)
        return _region(self.dim, den,
                       *_sweep(cuts, [x and not y for x, y in zip(a, b)], _close))

    def _morph(self, r, sign: int):
        """(den, cuts, flags) once each closed run [a, b] of in-cells on a
        line became [a - h, b + h], h = sign * r, along each axis in turn;
        the lines of an axis share the union of their cuts.  Only the first
        axis is canonical."""
        rn, rd = ratio(r)
        if rn <= 0:
            return self.den, self.cuts, self.flags
        den = lcm(self.den, rd)
        h = sign * rn * (den // rd)
        if self.dim == 1:
            cut, flags = _line(self.flags, self._at(den)[0], den, h)
            return den, [cut], flags

        def grow(axis, cut, lines):
            grown = [_line(ln, cut, den, h) for ln in lines]
            cut = tuple(sorted({c for own, _ in grown for c in own}))
            return cut, [[f[j] for j in _cell_map(own, cut)] for own, f in grown]

        return den, *_sweep(self._at(den), self.flags, grow)

    def expand(self, r) -> "BoxRegion":
        """Outer generalized ball {x : d(x, self) <= r}."""
        return _region(self.dim, *self._morph(r, 1), drop=self.dim > 1)

    def shrink(self, r) -> "BoxRegion":
        """Inner generalized ball {x : d(x, complement) >= r}."""
        return _region(self.dim, *self._morph(r, -1), drop=self.dim > 1)

    def measure(self) -> Fraction:
        lengths = [[hi - lo for lo, hi in _cells(cut, self.den)] for cut in self.cuts]
        return Fraction(sum(map(prod, compress(product(*lengths), self.flags))),
                        self.den ** self.dim)


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

    def union(self, other: "FiniteRegion") -> "FiniteRegion":
        return FiniteRegion(self.order, self.members | other.members)

    def subtract(self, other: "FiniteRegion") -> "FiniteRegion":
        return FiniteRegion(self.order, self.members - other.members)

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

    def measure(self) -> Fraction:
        return Fraction(len(self.members), self.order)

    def __repr__(self):
        return f"FiniteRegion({sorted(self.members)})"

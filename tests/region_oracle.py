"""Reference point membership and exact max-metric distance for regions.

A ``BoxRegion`` is read only through its public fields ``(dim, den, cuts,
flags)``: each axis' cuts c_0 < ... < c_(m-1) over den give 2m cells in flag
order, the point {c_i} and then the open arc (c_i, c_(i+1)), the last arc
wrapping round; an axis without cuts is one cell, the whole circle.  A cell
of the region is the product of one cell per axis, row-major.  Apart from
``ratio``, which reads a coordinate's numerator and denominator, nothing here
calls into the region algebra, so the oracle shares no code with what it
checks.  A ``FiniteRegion`` is read through its members under the discrete
metric.
"""

from fractions import Fraction
from itertools import compress, product
from math import lcm

from haar.regions import ratio

FAR = Fraction(1 << 40)          # stand-in for the distance to an empty set


def _axis(cut, den: int) -> list:
    """One axis' cells in flag order as (lo, hi, open) over den, lo <= hi:
    the closed arc [lo, hi] (hi past den when it wraps), open when the cell
    is an open arc, (0, den, False) for the whole circle."""
    if not cut:
        return [(0, den, False)]
    cells = []
    for c, e in zip(cut, cut[1:] + cut[:1]):
        cells += [(c, c, False), (c, e if e > c else e + den, True)]
    return cells


class RegionOracle:
    """Membership and distance of one region, its cells decoded once."""

    def __init__(self, region):
        self.members = getattr(region, "members", None)
        if self.members is None:
            self.den, self.flags = region.den, region.flags
            self.axes = [_axis(cut, region.den) for cut in region.cuts]
            self._scaled = {}

    def _cells(self, den: int) -> list:
        """The axes' cells over a multiple den of the region's denominator."""
        if den not in self._scaled:
            k = den // self.den
            self._scaled[den] = [[(lo * k, hi * k, op) for lo, hi, op in axis]
                                 for axis in self.axes]
        return self._scaled[den]

    def _lift(self, point):
        """(den, per-axis cells, coordinates as integers over den)."""
        coords = [ratio(c) for c in point]
        den = lcm(self.den, *(d for _, d in coords))
        return den, self._cells(den), [n * (den // d) % den for n, d in coords]

    def contains(self, point) -> bool:
        """Whether the one cell that holds the point is in."""
        if self.members is not None:
            return point in self.members
        den, axes, xs = self._lift(point)
        index = 0
        for x, cells in zip(xs, axes):
            (j,) = [j for j, (lo, hi, op) in enumerate(cells)
                    if (0 < (x - lo) % den < hi - lo if op
                        else (x - lo) % den <= hi - lo)]
            index = index * len(cells) + j
        return self.flags[index]

    def distance(self, point) -> Fraction:
        """Exact max-metric distance to the region (FAR if it is empty): the
        least, over in-cells, of the largest per-axis circle distance to the
        cell's closed arc."""
        if self.members is not None:
            return (Fraction(0) if point in self.members
                    else Fraction(1) if self.members else FAR)
        if not any(self.flags):
            return FAR
        den, axes, xs = self._lift(point)
        dists = [[0 if (x - lo) % den <= hi - lo
                  else min((x - hi) % den, (lo - x) % den) for lo, hi, _ in cells]
                 for x, cells in zip(xs, axes)]
        return Fraction(min(map(max, compress(product(*dists), self.flags))), den)

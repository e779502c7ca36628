"""Certified Haar measures and Haar integrals on compact metric groups.

Absolute error bounds 2^-n throughout: the generic packing-based algorithms
live in ``haar.generic``, the specialized change-of-variables quadrature for
the classical matrix groups in ``haar.quadrature``, with exact dyadic and
interval arithmetic underneath in ``haar.exactreal``.
"""

from .exactreal import (
    CertifiedValue, ConfigError, DivisionByIntervalContainingZero, DomainError,
    Dyadic, HaarError, Interval, InvalidBound, NoConvergence, arccos_enclosure,
    cos_enclosure, pi_enclosure, sin_enclosure, sincos_pi, sqrt_enclosure,
)
from .groups import (
    Group, InvalidCayleyTable, Versor, make_group, parse_cayley,
)
from .packing import (
    KappaUnavailable, PackingTable, packing_size, packing_size_bracket,
    separation_certificate,
)
from .generic import (
    LocatedSet, ModulusOfContinuity, PartitionCell, compute_integral,
    compute_measure, find_coinner_radius, find_nice_partition, pseudo_count,
)
from .quadrature import (
    IntegrandSpec, haar_integral_circle, haar_integral_derived,
    haar_integral_su2, lift_circle_function,
)
from .functions import builtin_integrand, builtin_names, values_integrand

__version__ = "0.1.0"

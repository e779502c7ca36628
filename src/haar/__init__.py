"""Certified Haar measures and Haar integrals on compact metric groups.

Absolute error bounds 2^-n throughout: the generic packing-based algorithms
live in ``haar.generic``, the specialized change-of-variables quadrature for
the classical matrix groups in ``haar.quadrature``, with exact dyadic and
interval arithmetic underneath in ``haar.exactreal``.
"""

from .exactreal import (
    CertifiedValue, DivisionByIntervalContainingZero, DomainError, Dyadic,
    Interval, NoConvergence, arccos_enclosure, cos_enclosure,
    elementary_enclosure, interval_arith, pi_enclosure, refine,
    sin_enclosure, sincos_pi, sqrt_enclosure,
)
from .groups import (
    EffortExceeded, Group, InvalidCayleyTable, Versor, biinvariant_metric,
    group_op, make_group, parse_cayley, so3_from_versor, u2_matrix,
)
from .packing import (
    KappaUnavailable, PackingTable, max_packing, packing_size,
    packing_size_bracket, separation_certificate,
)
from .generic import (
    LocatedSet, ModulusOfContinuity, PackingExhausted, PartitionCell,
    compute_integral, compute_measure, find_coinner_radius,
    find_nice_partition, pseudo_count,
)
from .quadrature import (
    IntegrandSpec, InvalidBound, ParamPoint, haar_integral_circle,
    haar_integral_derived, haar_integral_su2, jacobian, lift_circle_function,
    psi,
)
from .functions import builtin_integrand, builtin_names, values_integrand

__version__ = "0.1.0"

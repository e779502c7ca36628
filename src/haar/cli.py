"""Command-line front end: integrate / measure / packing / bench.

Exit codes: 0 success, 1 configuration error (including a negative
--effort-cap, --precision of integrate and measure, or --n-min of bench, and
a torus of dimension below 1), 2 the computation gave up
(NoConvergence / EffortExceeded / KappaUnavailable / PackingExhausted), could
not certify an operation (DomainError / DivisionByIntervalContainingZero) or
refused a declared bound (InvalidBound when an integrand provably escapes it,
NoConvergence when it is too large for the SU(2) grid's int64 sums); the
error name goes to stderr.  Printed decimal values are outward-rounded so the
printed interval always contains the certified one.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

from .exactreal import (
    CertifiedValue, DivisionByIntervalContainingZero, DomainError, Dyadic,
    EffortExceeded, NoConvergence,
)
from .generic import (
    LocatedSet, ModulusOfContinuity, PackingExhausted,
    compute_integral, compute_measure,
)
from .groups import InvalidCayleyTable, make_group, parse_cayley
from .functions import builtin_integrand, builtin_names, values_integrand
from .packing import KappaUnavailable, PackingTable
from .quadrature import QUADRATURE_KINDS, InvalidBound, haar_integral_derived


class ConfigError(ValueError):
    pass


def parse_group(spec: str, cayley_path: str | None):
    if spec.startswith("torus:"):
        return make_group("torus", dim=int(spec.split(":", 1)[1]))
    if spec.startswith("cyclic:"):
        return make_group("cyclic", k=int(spec.split(":", 1)[1]))
    if spec == "finite":
        if not cayley_path:
            raise ConfigError("--group finite requires --cayley FILE")
        with open(cayley_path) as fh:
            return make_group("finite", table=parse_cayley(fh.read()))
    if spec in ("circle", "su2", "so3", "o3", "u2"):
        return make_group(spec)
    raise ConfigError(f"unknown group {spec!r}")


def default_method(kind: str) -> str:
    return "quadrature" if kind in QUADRATURE_KINDS else "generic"


def parse_function(spec: str, G):
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        try:
            return builtin_integrand(name, G.kind)
        except KeyError:
            raise ConfigError(
                f"no builtin {name!r} for {G.kind}; available: "
                f"{', '.join(builtin_names(G.kind))}") from None
    if spec.startswith("values:"):
        if G.kind != "finite":
            raise ConfigError("values: files apply to finite groups")
        with open(spec.split(":", 1)[1]) as fh:
            vals = [_parse_rational(tok) for tok in fh.read().split()]
        if len(vals) != G.order:
            raise ConfigError(
                f"expected {G.order} values, found {len(vals)}")
        return values_integrand(vals)
    raise ConfigError(f"function spec {spec!r} is not builtin:NAME or values:FILE")


def _parse_rational(tok: str) -> Fraction:
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{tok.strip()!r} is not a rational number") from None


def parse_ball(spec: str, G):
    spec = spec.strip()
    if not (spec.startswith("ball(") and spec.endswith(")")):
        raise ConfigError("set spec must look like ball(center,radius)")
    inner = spec[5:-1]
    parts = inner.rsplit(",", 1)
    if len(parts) != 2:
        raise ConfigError("set spec must look like ball(center,radius)")
    center_tok, radius_tok = parts[0].strip(), parts[1].strip()
    radius = _parse_rational(radius_tok)
    if G.kind == "finite":
        center = 0 if center_tok == "e" else int(center_tok)
        if not 0 <= center < G.order:
            raise ConfigError(f"center index {center} out of range")
    elif G.kind == "circle":
        q = _parse_rational(center_tok)
        if q.denominator & (q.denominator - 1):
            raise ConfigError("circle centers must be dyadic rationals")
        center = Dyadic(q.numerator, -(q.denominator.bit_length() - 1))
    elif G.kind == "torus":
        coords = []
        for tok in center_tok.split(":"):
            q = _parse_rational(tok)
            if q.denominator & (q.denominator - 1):
                raise ConfigError("torus centers must be dyadic rationals")
            coords.append(Dyadic(q.numerator, -(q.denominator.bit_length() - 1)))
        if len(coords) != G.dim:
            raise ConfigError(f"expected {G.dim} coordinates")
        center = tuple(coords)
    else:
        raise ConfigError(f"measure is not supported on {G.kind}")
    return LocatedSet.ball(G, center, radius)


# ---------------------------------------------------------------------------
# certified decimal printing
# ---------------------------------------------------------------------------

def _format_fraction_decimal(q: Fraction, digits: int) -> str:
    scaled = q * 10 ** digits
    num = scaled.numerator // scaled.denominator \
        if scaled.denominator == 1 else None
    if num is None:
        raise ValueError("not on the decimal grid")
    sign = "-" if num < 0 else ""
    num = abs(num)
    whole, frac = divmod(num, 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def format_certified(cv: CertifiedValue) -> str:
    """`value +- err` where the printed decimal interval contains the
    certified interval (outward rounding to ceil(n log10 2) + 1 digits)."""
    n = -cv.error_exponent
    digits = max(1, math.ceil(n * math.log10(2)) + 1)
    q = 10 ** digits
    v = cv.value.as_fraction()
    vr = Fraction(round(v * q), q)
    err = Fraction(1, 1 << n) + abs(v - vr)
    er = Fraction(-((-err.numerator * q) // err.denominator), q)
    return (f"{_format_fraction_decimal(vr, digits)} "
            f"+- {_format_fraction_decimal(er, digits)}")


def format_dyadic_exact_decimal(d: Dyadic) -> str:
    """Exact finite decimal of a dyadic (C locale)."""
    f = d.as_fraction()
    digits = max(0, -d.e)
    scaled = f * 10 ** digits
    assert scaled.denominator == 1
    return _format_fraction_decimal(f, digits) if digits else str(f.numerator)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _integrate_value(G, method, spec, n, effort_cap) -> CertifiedValue:
    if method == "quadrature":
        return haar_integral_derived(G.kind, spec, n,
                                     max_cells=effort_cap or 10 ** 11)
    if method == "generic":
        if G.kappa is None:
            raise ConfigError(f"the generic method needs kappa; {G.kind} has none")
        packings = PackingTable(G)
        if G.kind == "finite":
            modulus = ModulusOfContinuity.discrete()
        else:
            modulus = ModulusOfContinuity.from_lipschitz(spec.lipschitz)
        return compute_integral(G, spec.eval, modulus, spec.bound, packings, n,
                                max_level=effort_cap or None)
    raise ConfigError(f"unknown method {method!r}")


def cmd_integrate(args) -> int:
    if args.precision < 0:
        raise ConfigError("--precision must not be negative")
    G = parse_group(args.group, args.cayley)
    method = args.method or default_method(G.kind)
    spec = parse_function(args.function, G)
    value = _integrate_value(G, method, spec, args.precision, args.effort_cap)
    print(format_certified(value))
    return 0


def cmd_measure(args) -> int:
    if args.precision < 0:
        raise ConfigError("--precision must not be negative")
    G = parse_group(args.group, args.cayley)
    if (args.method or "generic") != "generic":
        raise ConfigError("measure supports only the generic method")
    if G.kappa is None:
        raise ConfigError(f"measure needs a packing table; {G.kind} has none")
    ball = parse_ball(args.set, G)
    packings = PackingTable(G)
    value = compute_measure(ball, packings, args.precision,
                            max_level=args.effort_cap or None)
    print(format_certified(value))
    return 0


def cmd_packing(args) -> int:
    G = parse_group(args.group, args.cayley)
    table = PackingTable(G)              # raises KappaUnavailable if absent
    print(table.serialize_entry(args.precision))
    return 0


def cmd_bench(args) -> int:
    if args.n_min < 0:
        raise ConfigError("--n-min must not be negative")
    G = parse_group(args.group, args.cayley)
    if args.n_min > args.n_max:
        raise ConfigError("--n-min must not exceed --n-max")
    if args.repeats < 1:
        raise ConfigError("--repeats must be positive")
    method = args.method or default_method(G.kind)
    spec = parse_function(args.function, G)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        times = []
        value = None
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            value = _integrate_value(G, method, spec, n, args.effort_cap)
            times.append(time.perf_counter() - t0)
        rows.append((n, times, value))
    print("precision,seconds_mean,seconds_min,seconds_max,value,error_exponent")
    for n, times, value in rows:
        mean = sum(times) / len(times)
        print(f"{n},{mean:.6f},{min(times):.6f},{max(times):.6f},"
              f"{format_dyadic_exact_decimal(value.value)},{value.error_exponent}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="haar",
        description="Certified Haar measures and integrals on compact groups")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_function=True):
        p.add_argument("--group", required=True)
        p.add_argument("--method", choices=("generic", "quadrature"))
        if with_function:
            p.add_argument("--function", default="builtin:one")
        p.add_argument("--precision", "-n", type=int, default=4)
        p.add_argument("--effort-cap", type=int, default=0)
        p.add_argument("--cayley")

    p = sub.add_parser("integrate", help="certified Haar integral")
    common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("measure", help="certified Haar measure of a ball")
    common(p, with_function=False)
    p.add_argument("--set", required=True, help="ball(center,radius)")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("packing", help="print a maximum packing")
    common(p, with_function=False)
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("bench", help="timing CSV over a precision range")
    common(p)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.effort_cap < 0:
            raise ConfigError("--effort-cap must not be negative")
        return args.func(args)
    # InvalidBound is a ValueError, so the exit-2 clause comes first
    except (NoConvergence, EffortExceeded, KappaUnavailable, PackingExhausted,
            InvalidBound, DomainError, DivisionByIntervalContainingZero) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InvalidCayleyTable, FileNotFoundError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

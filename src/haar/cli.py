"""Command-line front end: integrate / measure / packing / bench.

Exit codes: 0 on success, else the ``exit_code`` of the ``HaarError`` raised,
whose name and message go to stderr as one line ``Name: message``:

* 1, the request cannot be served as posed, whatever the effort: a
  ``ConfigError`` (a malformed or missing option or token, a negative
  --precision, --effort-cap or --n-min, a torus below dimension 1, a method
  the group lacks), ``InvalidCayleyTable`` or ``KappaUnavailable`` (no
  closed-form packings for measure, generic integration or packing).  An
  unreadable file (``OSError``) and any untyped ``ValueError`` exit 1 too.
* 2, the request is valid, but the computation could not certify it:
  ``NoConvergence`` (an effort cap was hit, named with how far the
  computation got, or a bound too large for the SU(2) grid's int64 sums),
  ``InvalidBound`` (an integrand provably escaped its declared bound),
  ``DomainError`` or ``DivisionByIntervalContainingZero``.

Printed decimal values are outward-rounded so the printed interval always
contains the certified one.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

from .exactreal import CertifiedValue, ConfigError, Dyadic, HaarError
from .generic import (
    LocatedSet, ModulusOfContinuity, compute_integral, compute_measure,
)
from .groups import make_group, parse_cayley
from .functions import builtin_integrand, builtin_names, values_integrand
from .packing import PackingTable
from .quadrature import MAX_CELLS, QUADRATURE_KINDS, haar_integral_derived


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"{what} {tok!r} is not an integer") from None


def parse_group(spec: str, cayley_path: str | None):
    if spec.startswith("torus:"):
        return make_group("torus", dim=_parse_int(spec[6:], "torus dimension"))
    if spec.startswith("cyclic:"):
        return make_group("cyclic", k=_parse_int(spec[7:], "cyclic order"))
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


def _parse_dyadic(tok: str) -> Dyadic:
    q = _parse_rational(tok)
    if q.denominator & (q.denominator - 1):
        raise ConfigError(f"center {tok.strip()!r} is not a dyadic rational")
    return Dyadic(q.numerator, -(q.denominator.bit_length() - 1))


def parse_ball(spec: str, G):
    """The located ball ``ball(center,radius)`` of a group with packings
    (finite, circle, torus); the center is an index or ``e``, a dyadic, or
    ``:``-separated dyadics."""
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
        center = 0 if center_tok == "e" else _parse_int(center_tok, "center")
        if not 0 <= center < G.order:
            raise ConfigError(f"center index {center} out of range")
    elif G.kind == "circle":
        center = _parse_dyadic(center_tok)
    elif G.kind == "torus":
        center = tuple(_parse_dyadic(tok) for tok in center_tok.split(":"))
        if len(center) != G.dim:
            raise ConfigError(f"expected {G.dim} coordinates")
    else:   # no located sets: ``LocatedSet.ball`` refuses, naming the group
        center = None
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
                                     max_cells=effort_cap or MAX_CELLS)
    return compute_integral(G, spec.eval,
                            ModulusOfContinuity.from_lipschitz(spec.lipschitz),
                            spec.bound, PackingTable(G), n,
                            max_level=effort_cap or None)


def cmd_integrate(args) -> int:
    G = parse_group(args.group, args.cayley)
    method = args.method or default_method(G.kind)
    spec = parse_function(args.function, G)
    value = _integrate_value(G, method, spec, args.precision, args.effort_cap)
    print(format_certified(value))
    return 0


def cmd_measure(args) -> int:
    G = parse_group(args.group, args.cayley)
    packings = PackingTable(G)
    ball = parse_ball(args.set, G)
    value = compute_measure(ball, packings, args.precision,
                            max_level=args.effort_cap or None)
    print(format_certified(value))
    return 0


def cmd_packing(args) -> int:
    G = parse_group(args.group, args.cayley)
    print(PackingTable(G).serialize_entry(args.precision))
    return 0


def cmd_bench(args) -> int:
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


class _Parser(argparse.ArgumentParser):
    """Usage errors are ``ConfigError``s; sub-parsers share this class."""

    def error(self, message):
        raise ConfigError(message)


def natural(text: str) -> int:
    """argparse type of a count, an int that is not negative (argparse
    reports either refusal as "invalid natural value")."""
    value = int(text)
    if value < 0:
        raise ConfigError(f"{text} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="haar",
        description="Certified Haar measures and integrals on compact groups")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *options):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--group", required=True)
        p.add_argument("--cayley")
        for add in options:
            add(p)
        return p

    def integrand(p):
        p.add_argument("--method", choices=("generic", "quadrature"))
        p.add_argument("--function", default="builtin:one")

    def precision(p):
        p.add_argument("--precision", "-n", type=natural, default=4)

    def effort_cap(p):
        p.add_argument("--effort-cap", type=natural, default=0)

    command("integrate", cmd_integrate, "certified Haar integral",
            integrand, precision, effort_cap)
    p = command("measure", cmd_measure, "certified Haar measure of a ball",
                precision, effort_cap)
    p.add_argument("--set", required=True, help="ball(center,radius)")
    p = command("packing", cmd_packing, "print a maximum packing")
    p.add_argument("--precision", "-n", type=int, default=4)
    p = command("bench", cmd_bench, "timing CSV over a precision range; the "
                "first repeat at each n builds the SU(2) grid's tables, later "
                "repeats reuse them", integrand, effort_cap)
    p.add_argument("--n-min", type=natural, default=4)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--repeats", type=int, default=5)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except HaarError as exc:
        error, code = exc, exc.exit_code
    except (OSError, ValueError) as exc:   # unreadable files, untyped input
        error, code = exc, 1
    print(f"{type(error).__name__}: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: seeded inputs, library calls, closed forms.

``make_inputs(workload, seed)`` draws every input from the seed as plain data
(ints, Fractions, tuples) without touching the library, so the same seed
always gives the same inputs.  ``build(inputs)`` turns that data into library
objects and returns the certified calls, each with the closed form its value
must match.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("su2-sweep", "su2-translated", "generic", "circle-quadrature")

SU2_SWEEP_NS = (4, 5, 6)
TRANSLATED_N = 5
CIRCLE_NAMES = ("re", "re2", "abs-re")
CIRCLE_N = 8
GENERIC_INTEGRAL_N = 2
TORUS_BALL = (Fraction(1, 8), 3)          # radius, n
CIRCLE_BALLS = (12, 6)                    # how many, n
FINITE_N = 10
FINITE_VECTORS = 10                       # value vectors per group
FINITE_BOUND = 9                          # declared bound; values in [-9, 9]


# ---------------------------------------------------------------------------
# seeded inputs (plain data)
# ---------------------------------------------------------------------------

def _dyadic_versor_vector(rng: random.Random) -> tuple[int, int, int, int]:
    """Mantissas (of 2^-8) of a 4-vector that is safely away from zero."""
    while True:
        v = tuple(rng.randint(-256, 256) for _ in range(4))
        if sum(x * x for x in v) > 256 * 256 // 16:
            return v


def make_inputs(workload: str, seed: int) -> tuple:
    """Every input of one pass of ``workload``, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "su2-sweep":
        ns = list(SU2_SWEEP_NS)
        rng.shuffle(ns)
        return tuple(("su2", "abs-sum", n) for n in ns)
    if workload == "su2-translated":
        calls = [("su2-translated", side, _dyadic_versor_vector(rng), TRANSLATED_N)
                 for side in ("left", "right")]
        calls.append(("su2-inverted", TRANSLATED_N))
        return tuple(calls)
    if workload == "generic":
        calls = [("generic-circle-integral", "re2", GENERIC_INTEGRAL_N)]
        # the torus ball sits at one of the four half-period points, which the
        # grid packings treat alike, so the seed moves it without changing cost
        centre = (rng.randrange(2), rng.randrange(2))
        calls.append(("torus-ball", centre, *TORUS_BALL))
        count, n = CIRCLE_BALLS
        for _ in range(count):
            calls.append(("circle-ball", rng.randrange(1 << 10),
                          Fraction(rng.randint(1, 31), 64), n))
        for group in finite_group_names():
            for _ in range(FINITE_VECTORS):
                order = finite_order(group)
                vals = tuple(rng.randint(-FINITE_BOUND, FINITE_BOUND)
                             for _ in range(order))
                calls.append(("finite-integral", group, vals, FINITE_N))
        return tuple(calls)
    if workload == "circle-quadrature":
        calls = [("circle", name, CIRCLE_N) for name in CIRCLE_NAMES]
        calls.append(("circle-translated", "re2", rng.randrange(1 << 10), CIRCLE_N))
        return tuple(calls)
    raise ValueError(f"unknown workload {workload!r}")


def finite_group_names() -> list[str]:
    return [f"z{k}" for k in range(2, 13)] + ["z2xz2", "s3"]


def finite_order(name: str) -> int:
    if name == "z2xz2":
        return 4
    if name == "s3":
        return 6
    return int(name[1:])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _mp_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def closed_form(exact) -> Fraction:
    """A call's closed form; pi-dependent ones are named by a key and
    evaluated to 120 bits through mpmath, outside the timed set-up."""
    if isinstance(exact, Fraction):
        return exact
    import mpmath
    with mpmath.workprec(120):
        value = {"16/(3pi)": 16 / (3 * mpmath.pi), "2/pi": 2 / mpmath.pi}[exact]
        return _mp_fraction(value)


# ---------------------------------------------------------------------------
# library objects
# ---------------------------------------------------------------------------

@dataclass
class Call:
    """One certified call: ``run()`` returns a CertifiedValue within 2^-n of
    ``closed_form(exact)``.  ``specs`` and ``groups`` are the objects tracing
    instruments."""

    label: str
    n: int
    exact: Fraction | str
    run: Callable
    specs: tuple = ()
    groups: tuple = ()


def _s3_table():
    import itertools
    perms = [(0, 1, 2)] + [p for p in itertools.permutations(range(3))
                           if p != (0, 1, 2)]
    idx = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(idx[tuple(perms[a][perms[b][x]] for x in range(3))]
                       for b in range(6)) for a in range(6))


def _z2xz2_table():
    return tuple(tuple(a ^ b for b in range(4)) for a in range(4))


def _versor(mantissas, wp: int = 40):
    """Interval versor enclosing the normalization of a dyadic 4-vector."""
    from haar.exactreal import Dyadic, Interval, sqrt_enclosure
    from haar.groups import Versor
    comps = [Interval.point(Dyadic(m, -8)) for m in mantissas]
    norm = sqrt_enclosure(sum((c.square() for c in comps[1:]), comps[0].square()),
                          wp + 4)
    return Versor(*[c.divide(norm, wp) for c in comps])


def build(inputs: tuple) -> list[Call]:
    """Library objects and closures for one pass over ``inputs``."""
    from haar import functions, generic, quadrature
    from haar.exactreal import Dyadic
    from haar.generic import LocatedSet, ModulusOfContinuity
    from haar.groups import make_group
    from haar.packing import PackingTable

    groups: dict = {}
    tables: dict = {}

    def group(key):
        if key not in groups:
            if key in ("circle", "su2"):
                groups[key] = make_group(key)
            elif key == "torus:2":
                groups[key] = make_group("torus", dim=2)
            elif key == "s3":
                groups[key] = make_group("finite", table=_s3_table())
            elif key == "z2xz2":
                groups[key] = make_group("finite", table=_z2xz2_table())
            else:
                groups[key] = make_group("cyclic", k=int(key[1:]))
            if groups[key].kappa is not None:
                tables[key] = PackingTable(groups[key])
        return groups[key], tables.get(key)

    abs_sum = None
    calls = []
    for item in inputs:
        kind = item[0]
        if kind in ("su2", "su2-translated", "su2-inverted"):
            if abs_sum is None:
                abs_sum = functions.builtin_integrand("abs-sum", "su2")
            if kind == "su2":
                spec, label, n = abs_sum, f"su2 abs-sum n={item[2]}", item[2]
            elif kind == "su2-translated":
                _, side, vec, n = item
                G, _ = group("su2")
                spec = functions.translate_su2_integrand(abs_sum, _versor(vec), G, side)
                label = f"su2 abs-sum {side}-translated n={n}"
            else:
                n = item[1]
                spec = functions.invert_su2_integrand(abs_sum)
                label = f"su2 abs-sum inverted n={n}"
            calls.append(Call(label, n, "16/(3pi)",
                              lambda s=spec, n=n: quadrature.haar_integral_su2(s, n),
                              specs=(spec,)))
        elif kind in ("circle", "circle-translated"):
            name, n = item[1], item[-1]
            spec = functions.builtin_integrand(name, "circle")
            label = f"circle {name} n={n}"
            if kind == "circle-translated":
                spec = functions.translate_circle_integrand(spec, Dyadic(item[2], -10))
                label = f"circle {name} shifted {item[2]}/1024 n={n}"
            value = {"re": Fraction(0), "re2": Fraction(1, 2),
                     "abs-re": "2/pi"}[name]
            calls.append(Call(label, n, value,
                              lambda s=spec, n=n: quadrature.haar_integral_circle(s, n),
                              specs=(spec,)))
        elif kind == "generic-circle-integral":
            name, n = item[1], item[2]
            G, pk = group("circle")
            spec = functions.builtin_integrand(name, "circle")
            mod = ModulusOfContinuity.from_lipschitz(spec.lipschitz)
            calls.append(Call(
                f"generic circle {name} n={n}", n, Fraction(1, 2),
                lambda G=G, s=spec, m=mod, pk=pk, n=n:
                    generic.compute_integral(G, s.eval, m, s.bound, pk, n),
                specs=(spec,), groups=(G,)))
        elif kind == "torus-ball":
            (cx, cy), r, n = item[1], item[2], item[3]
            G, pk = group("torus:2")
            ball = LocatedSet.ball(G, (Dyadic(cx, -1), Dyadic(cy, -1)), r)
            calls.append(Call(f"torus:2 ball r={r} at ({cx}/2,{cy}/2) n={n}",
                              n, (2 * r) ** 2,
                              lambda b=ball, pk=pk, n=n: generic.compute_measure(b, pk, n),
                              groups=(G,)))
        elif kind == "circle-ball":
            c, r, n = item[1], item[2], item[3]
            G, pk = group("circle")
            ball = LocatedSet.ball(G, Dyadic(c, -10), r)
            calls.append(Call(f"circle ball r={r} at {c}/1024 n={n}", n, 2 * r,
                              lambda b=ball, pk=pk, n=n: generic.compute_measure(b, pk, n),
                              groups=(G,)))
        elif kind == "finite-integral":
            gname, vals, n = item[1], item[2], item[3]
            G, pk = group(gname)
            spec = functions.values_integrand(vals, M=FINITE_BOUND)
            mod = ModulusOfContinuity.discrete()
            calls.append(Call(
                f"{gname} values integral n={n}", n, Fraction(sum(vals), len(vals)),
                lambda G=G, s=spec, m=mod, pk=pk, n=n:
                    generic.compute_integral(G, s.eval, m, s.bound, pk, n),
                specs=(spec,), groups=(G,)))
        else:
            raise ValueError(f"unknown call kind {kind!r}")
    return calls


# ---------------------------------------------------------------------------
# known-defect probe
# ---------------------------------------------------------------------------

def overflow_probe() -> dict:
    """Constant 64 with declared bound 64 over SU(2) at n = 4 (true value 64).

    ``wrong`` when a value is returned outside 64 +- 2^-4, ``refused`` when
    the library raises, ``ok`` when the value is right.
    """
    from haar.exactreal import Dyadic, Interval, ZERO
    from haar.quadrature import IntegrandSpec, haar_integral_su2
    c, n = 64, 4
    spec = IntegrandSpec(lambda q, wp: Interval.from_int(c), ZERO, Dyadic(c),
                         name="const64",
                         fixed_eval=lambda a, b, cc, d, scale, **kw:
                             (c << scale, c << scale),
                         uses="abcd")
    try:
        cv = haar_integral_su2(spec, n)
    except Exception as exc:            # any refusal is the wanted outcome
        return {"name": "overflow-const64", "status": "refused",
                "error": type(exc).__name__}
    value = cv.value.as_fraction()
    ok = abs(value - c) <= Fraction(1, 1 << n)
    return {"name": "overflow-const64", "status": "ok" if ok else "wrong",
            "value": float(value), "mantissa": cv.value.m,
            "exponent": cv.value.e, "expected": c}

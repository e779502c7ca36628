"""Benchmark of certified Haar integration: one workload, one seed, one run.

    python3 benchmarks/run.py --workload su2-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ``src/`` only.
A run times set-up in fresh interpreters, probes a known defect once, then
repeats the workload's certified calls in one process, one call at a time,
until ``--seconds`` are used (closed loop, no worker threads).  Every value is
checked against its closed form.  With ``--trace 1`` half of the time runs
untraced and half traced, and the per-layer metrics come from the spans.

The last line of standard output is the JSON result; a fuller record, with
each value's exact dyadic bits, goes to ``.bench_out/`` under the root.  See
NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from spans import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# what one fresh interpreter does for set-up; argv: src, benchmarks, workload, seed
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import numpy, haar, workloads; "
              "workloads.build(workloads.make_inputs(sys.argv[3], int(sys.argv[4])))")


def _import_library():
    """Import numpy and ``haar`` from this checkout's src/, or exit with code 1."""
    if not (SRC / "haar" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library at {SRC / 'haar'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import haar
    if Path(haar.__file__).resolve().parent != (SRC / "haar").resolve():
        sys.exit(f"benchmark: imported haar from {haar.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# set-up in fresh interpreters
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters that import and build the workload."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"benchmark: set-up failed:\n{proc.stderr}")
    return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_call(call, exact: Fraction, index: int, tracer=None) -> dict:
    if tracer is not None:
        tracer.call_id = index
    t0 = time.perf_counter()
    try:
        cv = call.run()
    except Exception as exc:            # a raise is a failed call, not a crash
        return {"label": call.label, "seconds": time.perf_counter() - t0,
                "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - t0
    value = cv.value.as_fraction()
    ok = cv.error_exponent <= -call.n and \
        abs(value - exact) <= Fraction(1, 1 << call.n)
    return {"label": call.label, "seconds": seconds, "ok": ok,
            "mantissa": cv.value.m, "exponent": cv.value.e,
            "error_exponent": cv.error_exponent, "value": float(value),
            "closed_form": float(exact)}


def run_passes(calls, exact, budget_s: float, tracer=None) -> list[dict]:
    """Whole passes over ``calls`` while another pass still fits the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer else 0
        counts_before = tracer.counts.copy() if tracer else None
        t0 = time.perf_counter()
        results = [run_call(c, x, i, tracer)
                   for i, (c, x) in enumerate(zip(calls, exact))]
        seconds = time.perf_counter() - t0
        passes.append({"seconds": seconds, "calls": results})
        if tracer:
            passes[-1]["layers"] = layer_metrics(tracer.spans[first_span:],
                                                 tracer.counts - counts_before,
                                                 first_span)
        if time.perf_counter() - start + median_pass(passes) > budget_s:
            return passes


def median_pass(passes) -> float:
    return statistics.median(p["seconds"] for p in passes)


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest(),
            "commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    setup_times = measure_setup(args.workload, args.seed)
    calls = workloads.build(workloads.make_inputs(args.workload, args.seed))
    exact = [workloads.closed_form(c.exact) for c in calls]
    probe = workloads.overflow_probe()

    if args.trace:
        passes = run_passes(calls, exact, args.seconds / 2)
        tracer = Tracer()
        tracer.install(calls)
        try:
            traced = run_passes(calls, exact, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        passes, traced, tracer = run_passes(calls, exact, args.seconds), [], None

    results = [r for p in passes + traced for r in p["calls"]]
    attempted = len(results)
    failed = sum(1 for r in results if not r["ok"])
    solve_s = median_pass(passes)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end_to_end = {
        "solve_s": (solve_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": ((usage_self + usage_children) / 1024, "MB"),
        "certified_share": ((attempted - failed) / attempted, "share"),
    }
    per_layer = {}
    if args.trace:
        layer = {k: statistics.median(p["layers"][k] for p in traced)
                 for k in traced[0]["layers"]}
        layer["trace.solve_s"] = median_pass(traced)
        layer["trace.overhead_s"] = layer["trace.solve_s"] - solve_s
        units = {name: unit for name, unit, _ in PER_LAYER}
        per_layer = {k: (layer[k], units[k]) for k in units}

    first = passes[0]["calls"]
    bit_stable = all([(r.get("mantissa"), r.get("exponent")) for r in p["calls"]]
                     == [(r.get("mantissa"), r.get("exponent")) for r in first]
                     for p in passes + traced)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": metadata(),
        "inputs": repr(workloads.make_inputs(args.workload, args.seed)),
        "setup_s_samples": setup_times,
        "pass_seconds": [p["seconds"] for p in passes],
        "traced_pass_seconds": [p["seconds"] for p in traced],
        "values": [{k: r.get(k) for k in ("label", "ok", "mantissa", "exponent",
                                          "error_exponent", "value", "closed_form",
                                          "error")}
                   for r in first],
        "values_bit_stable_across_passes": bit_stable,
        "failures": [r for r in results if not r["ok"]][:20],
        "probes": [probe],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}_spans.jsonl")

    print(f"{args.workload} seed={args.seed}: {attempted} calls, {failed} failed, "
          f"{len(passes)}+{len(traced)} passes, src_lines="
          f"{record['metadata']['src_lines']}; probe {probe['name']}: {probe['status']}")
    chosen = per_layer if args.trace else end_to_end
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

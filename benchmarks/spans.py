"""In-memory span tracing around the library's layer boundaries.

``Tracer.install`` replaces the layer-boundary functions of ``haar`` (module
functions, class methods, and attributes of the workload's own integrand and
group objects) with wrappers that record a span: name, start, end, parent
span and call id, plus a small ``info`` value where a span carries a size.
``uninstall`` puts every original back.  Nothing inside ``src/`` changes.

``layer_metrics`` turns the spans of one pass into the per-layer metrics
listed in NOTES.md.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

SINCOS = ("sin_enclosure", "cos_enclosure")
REGION_OPS = ("expand", "shrink", "subtract", "union")


def _set(owner, attr, value):
    # groups are frozen dataclasses, so instance attributes go around their
    # __setattr__; classes need the type's own setattr
    (setattr if isinstance(owner, type) else object.__setattr__)(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent, call_id, info)
        self.counts: Counter = Counter()
        self.call_id = None
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, info=None, pre=None):
        """Wrap ``fn`` in a span; ``info(args, result, pre(args))`` sizes it."""
        spans, stack, is_open = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            before = pre(args) if pre else None
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            is_open[name] += 1
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                is_open[name] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.call_id,
                              info(args, result, before) if info else None)
        return wrapper

    def _count_yields(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            k = 0
            try:
                for item in fn(*args, **kwargs):
                    k += 1
                    yield item
            finally:
                counts[name] += k
        return wrapper

    def _count_inside(self, name, inside, fn):
        counts, is_open = self.counts, self._open

        def wrapper(*args, **kwargs):
            if is_open[inside]:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper_of):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        _set(owner, attr, wrapper_of(original))

    # -- install / uninstall -------------------------------------------------

    def install(self, calls):
        import haar
        from haar import _grid, exactreal, functions, generic, packing, quadrature, regions

        def cells(args, _result, _before):
            n = 1
            for axis in args[1:4]:
                n *= axis.n if axis is not None else 1
            return n

        span = self._span
        self._patch(_grid, "_build_axis", lambda f: span("grid.build_axis", f,
                                                         lambda a, r, b: a[1]))
        self._patch(_grid, "_disc_bound", lambda f: span("grid.disc_bound", f))
        self._patch(_grid, "_fixed_sweep", lambda f: span("grid.sweep", f, cells))
        self._patch(_grid, "_scalar_sweep", lambda f: span("grid.sweep", f, cells))
        self._patch(functions, "_quat_mul_fixed",
                    lambda f: span("functions.quat_mul", f))
        self._patch(quadrature, "haar_integral_su2",
                    lambda f: span("quadrature.su2", f))
        self._patch(quadrature, "haar_integral_circle",
                    lambda f: span("quadrature.circle", f))
        self._patch(generic, "compute_integral",
                    lambda f: span("generic.integral", f))
        self._patch(generic, "compute_measure", lambda f: span("generic.measure", f))
        self._patch(generic, "pseudo_count", lambda f: span("generic.pseudo_count", f))
        self._patch(generic, "find_nice_partition",
                    lambda f: span("generic.partition", f,
                                      lambda a, r, b: len(r)))
        # info: the radius levels this call computed (earlier ones are cached)
        self._patch(generic.CoinnerRadiusSearch, "level",
                    lambda f: span("generic.radius_level", f,
                                   lambda a, r, before: len(a[0].levels) - before,
                                   lambda a: len(a[0].levels)))
        self._patch(packing.PackingTable, "packing",
                    lambda f: span("packing.packing", f))
        for cls in (packing.FinitePacking, packing.CircleGridPacking,
                    packing.TorusGridPacking):
            self._patch(cls, "count_within",
                        lambda f: span("packing.count_within", f))
            self._patch(cls, "iter_points",
                        lambda f: self._count_yields("packing.points_iterated", f))
        for cls in (regions.BoxRegion, regions.FiniteRegion):
            for op in REGION_OPS:
                self._patch(cls, op, lambda f: span("regions.op", f))
        # exactreal's sin/cos/pi at the bindings the other modules call
        for mod in (functions, quadrature, _grid, generic, packing, regions,
                    haar.groups):
            for name in SINCOS + ("pi_enclosure",):
                if getattr(mod, name, None) is getattr(exactreal, name):
                    label = "exactreal.pi" if name == "pi_enclosure" \
                        else "exactreal.sincos"
                    self._patch(mod, name, lambda f, label=label: span(label, f))
        seen = set()
        for call in calls:
            for spec in call.specs:
                if id(spec) in seen:
                    continue
                seen.add(id(spec))
                self._patch(spec, "eval", lambda f: span("integrand.eval", f))
                if getattr(spec, "fixed_eval_polar", None) is not None:
                    self._patch(spec, "fixed_eval_polar",
                                lambda f: span("functions.polar", f))
            for G in call.groups:
                if id(G) in seen:
                    continue
                seen.add(id(G))
                self._patch(G, "metric", lambda f: self._count_inside(
                    "groups.metric_calls", "generic.partition", f))

    def uninstall(self):
        while self._undo:
            _set(*self._undo.pop())

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, call_id, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "call": call_id,
                                     "info": info}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

PER_LAYER = (
    # name, unit, better
    ("grid.axis_s", "s", "lower"),
    ("grid.axis_calls", "count", "lower"),
    ("grid.disc_s", "s", "lower"),
    ("grid.attempts", "count", "lower"),
    ("grid.sweep_s", "s", "lower"),
    ("grid.cells", "count", "lower"),
    ("grid.cells_per_s", "1/s", "higher"),
    ("grid.first_grid_ratio", "ratio", "higher"),
    ("functions.quat_mul_s", "s", "lower"),
    ("functions.quat_mul_calls", "count", "lower"),
    ("functions.polar_s", "s", "lower"),
    ("quadrature.su2_self_s", "s", "lower"),
    ("quadrature.circle_self_s", "s", "lower"),
    ("quadrature.circle_points", "count", "lower"),
    ("generic.radius_search_s", "s", "lower"),
    ("generic.radius_levels", "count", "lower"),
    ("generic.partition_self_s", "s", "lower"),
    ("generic.partition_cells", "count", "lower"),
    ("groups.metric_calls", "count", "lower"),
    ("generic.measure_s", "s", "lower"),
    ("generic.measure_calls", "count", "lower"),
    ("generic.measure_levels", "count", "lower"),
    ("generic.pseudo_count_s", "s", "lower"),
    ("generic.pseudo_count_calls", "count", "lower"),
    ("packing.count_within_share", "ratio", "higher"),
    ("packing.points_iterated", "count", "lower"),
    ("packing.build_s", "s", "lower"),
    ("regions.s", "s", "lower"),
    ("regions.calls", "count", "lower"),
    ("exactreal.sincos_s", "s", "lower"),
    ("exactreal.sincos_calls", "count", "lower"),
    ("exactreal.pi_calls", "count", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(spans: list, counts: Counter, offset: int = 0) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counters.

    ``spans`` is a slice of ``Tracer.spans`` starting at index ``offset``.
    """
    names = [s[0] for s in spans]
    parent = [p - offset if p >= 0 else -1 for _, _, _, p, _, _ in spans]
    dur = [s[2] - s[1] for s in spans]
    info = [s[5] for s in spans]
    by_name = defaultdict(list)
    child_time = [0.0] * len(spans)
    for i, name in enumerate(names):
        by_name[name].append(i)
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]

    def under(name, parent_name):
        return [i for i in by_name[name]
                if parent[i] >= 0 and names[parent[i]] == parent_name]

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    su2 = by_name["quadrature.su2"]
    m["grid.axis_s"] = total("grid.build_axis")
    m["grid.axis_calls"] = len(by_name["grid.build_axis"])
    m["grid.disc_s"] = total("grid.disc_bound")
    m["grid.attempts"] = ratio(len(by_name["grid.disc_bound"]), len(su2))
    m["grid.sweep_s"] = total("grid.sweep")
    swept = sum(info[i] for i in by_name["grid.sweep"])
    m["grid.cells"] = swept
    m["grid.cells_per_s"] = ratio(swept, m["grid.sweep_s"])
    # the first grid of an integral: the axes built before its first
    # discretization bound (spans are stored in start order)
    first_cells = 0
    for root in su2:
        cells, i = 1, root + 1
        while i < len(spans) and names[i] != "grid.disc_bound":
            if names[i] == "grid.build_axis":
                cells *= info[i]
            i += 1
        first_cells += cells
    m["grid.first_grid_ratio"] = ratio(first_cells, swept)
    m["functions.quat_mul_s"] = total("functions.quat_mul")
    m["functions.quat_mul_calls"] = len(by_name["functions.quat_mul"])
    m["functions.polar_s"] = total("functions.polar")
    m["quadrature.su2_self_s"] = self_time("quadrature.su2")
    m["quadrature.circle_self_s"] = self_time("quadrature.circle")
    m["quadrature.circle_points"] = len(under("integrand.eval", "quadrature.circle"))
    m["generic.radius_search_s"] = total("generic.radius_level")
    m["generic.radius_levels"] = sum(info[i] for i in by_name["generic.radius_level"])
    # the partition's time less the radius search it starts
    m["generic.partition_self_s"] = total("generic.partition") - sum(
        dur[i] for i in under("generic.radius_level", "generic.partition"))
    m["generic.partition_cells"] = sum(info[i] for i in by_name["generic.partition"])
    m["groups.metric_calls"] = counts["groups.metric_calls"]
    m["generic.measure_s"] = total("generic.measure")
    m["generic.measure_calls"] = len(by_name["generic.measure"])
    m["generic.measure_levels"] = len(under("packing.packing", "generic.measure"))
    pseudo = len(by_name["generic.pseudo_count"])
    m["generic.pseudo_count_s"] = total("generic.pseudo_count")
    m["generic.pseudo_count_calls"] = pseudo
    m["packing.count_within_share"] = ratio(
        len(under("packing.count_within", "generic.pseudo_count")), pseudo)
    m["packing.points_iterated"] = counts["packing.points_iterated"]
    m["packing.build_s"] = total("packing.packing")
    # expand calls union and shrink calls subtract: count outermost calls only
    region_ops = [i for i in by_name["regions.op"]
                  if parent[i] < 0 or names[parent[i]] != "regions.op"]
    m["regions.s"] = sum(dur[i] for i in region_ops)
    m["regions.calls"] = len(region_ops)
    m["exactreal.sincos_s"] = total("exactreal.sincos")
    m["exactreal.sincos_calls"] = len(by_name["exactreal.sincos"])
    m["exactreal.pi_calls"] = len(by_name["exactreal.pi"])
    return m

"""Per-layer tracing from outside the package.

The tracer replaces public functions with timing wrappers *where the
calling module looks them up* (``hamcert.sweep.cut_scan`` and
``hamcert.invariants.cut_scan`` are separate bindings of one function),
so no file of the package changes. Each wrapped call is a span: name,
start, end, parent span and the id of the benchmark item it belongs to.
Spans stay in compact arrays in memory and are written out once, when
the run ends. ``components_masks`` is too hot for spans; it only counts
calls and how many of them split the vertex set.
"""

from __future__ import annotations

import json
from array import array
from itertools import repeat
from time import perf_counter

import hamcert.certify as certify
import hamcert.engine as engine
import hamcert.graph as graph
import hamcert.invariants as invariants
import hamcert.sweep as sweep

import workloads

RULES = (
    "rule1", "rule2", "rule3", "rule4", "rule5", "rule6", "rule7", "rule8", "rule9",
    "disconnected", "done", "fallback",
)
OUTCOME_KINDS = ("hamilton_path", "small_cut", "forbidden_induced", "toughness_witness")


def _graph_n(args) -> int:
    return args[0].n


def _first_arg(args) -> int:  # graph_from_code(n, code), gnp_graph(n, p, seed, i)
    return args[0]


def _task_n(args) -> int:  # sweep tasks are (idx, kind, n, ...)
    return args[0][2]


def _no_n(args) -> int:
    return 0


# (module, attribute, span name, how to read n from the call's arguments)
SPANS = (
    (sweep, "process_task", "sweep.process_task", _task_n),
    (sweep, "graph_from_code", "graph.materialise", _first_arg),
    (sweep, "gnp_graph", "graph.materialise", _first_arg),
    (sweep, "quick_hypotheses", "sweep.quick_hypotheses", _graph_n),
    (sweep, "cut_scan", "invariants.cut_scan", _graph_n),
    (invariants, "cut_scan", "invariants.cut_scan", _graph_n),
    (invariants, "vertex_connectivity", "invariants.vertex_connectivity", _graph_n),
    (sweep, "find_induced_p2_plus_kp1", "invariants.find_induced_p2_plus_kp1", _graph_n),
    (invariants, "find_induced_p2_plus_kp1", "invariants.find_induced_p2_plus_kp1", _graph_n),
    (invariants, "hypothesis_check", "invariants.hypothesis_check", _graph_n),
    (sweep, "is_hamiltonian_connected", "invariants.is_hamiltonian_connected", _graph_n),
    (sweep, "extract", "engine.extract", _graph_n),
    (engine, "extract", "engine.extract", _graph_n),
    (sweep, "validate_outcome", "certify.validate_outcome", _graph_n),
    (certify, "validate_outcome", "certify.validate_outcome", _graph_n),
    (sweep, "write_graph6", "graph6.write_graph6", _graph_n),
    (workloads, "emit", "sweep.emit", _no_n),
)
COMPONENT_CALLERS = (sweep, invariants, engine, graph)

# per-n mean times the ROADMAP baselines are quoted at: (span, unit, ns)
PER_N = (
    ("sweep.quick_hypotheses", "ms", (7,)),
    ("invariants.cut_scan", "ms", (10, 12, 14, 16)),
    ("invariants.vertex_connectivity", "ms", (16,)),
    ("engine.extract", "ms", (62,)),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANS))


class Tracer:
    """Installs the wrappers on construction; ``close`` restores them."""

    def __init__(self):
        self.item = 0
        self.active = True  # off while the benchmark checks a result
        self._next_id = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._origin = perf_counter()
        self.ids = array("q")
        self.parents = array("q")
        self.items = array("q")
        self.names = array("b")
        self.ns = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.scales = array("d")  # the benchmark's speed scale, per span
        self.components = [0, 0]  # calls, calls that returned >= 2 components
        self.rules = dict.fromkeys(RULES, 0)
        self.outcomes = dict.fromkeys(OUTCOME_KINDS, 0)
        self.steps = 0
        self.stalled = 0
        self.rejected = 0
        self._saved: list[tuple] = []
        hooks = {"engine.extract": self._on_extract, "certify.validate_outcome": self._on_validate}
        for module, attr, name, size in SPANS:
            self._patch(module, attr, self._span(getattr(module, attr), name, size, hooks.get(name)))
        for module in COMPONENT_CALLERS:
            self._patch(module, "components_masks", self._counted(module.components_masks))

    def _patch(self, module, attr, fn) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def close(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _span(self, fn, name, size, hook):
        code = SPAN_NAMES.index(name)
        tracer = self
        stack = self._stack

        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.ids.append(sid)
                tracer.parents.append(parent)
                tracer.items.append(tracer.item)
                tracer.names.append(code)
                tracer.ns.append(size(args))
                tracer.starts.append(t0)
                tracer.ends.append(t1)
                tracer.selfs.append(t1 - t0 - frame[1])
            if hook is not None:
                hook(result)
            return result

        return wrapped

    def scale_spans(self, speed: float) -> None:
        """Attach the calibration scale to every span recorded since the
        last call, so layer times are scaled like the end-to-end ones."""
        self.scales.extend(repeat(speed, len(self.ids) - len(self.scales)))

    def _counted(self, fn):
        counts = self.components
        tracer = self

        def wrapped(adj, remaining):
            out = fn(adj, remaining)
            if tracer.active:
                counts[0] += 1
                if len(out) >= 2:
                    counts[1] += 1
            return out

        return wrapped

    def _on_extract(self, res) -> None:
        for rule in res.trace:
            self.rules[rule] += 1
        self.steps += res.extended_steps
        kind = res.outcome.kind
        if kind == "stalled":
            self.stalled += 1
        else:
            self.outcomes[kind] += 1

    def _on_validate(self, report) -> None:
        if not report.accepted:
            self.rejected += 1

    # --- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit), times scaled; zero
        where a layer was never called on this workload."""
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        total_s = [0.0] * len(SPAN_NAMES)
        by_n: dict[tuple[int, int], list] = {}
        for code, n, t0, t1, own, scale in zip(
            self.names, self.ns, self.starts, self.ends, self.selfs, self.scales
        ):
            calls[code] += 1
            self_s[code] += own * scale
            total_s[code] += (t1 - t0) * scale
            acc = by_n.setdefault((code, n), [0, 0.0])
            acc[0] += 1
            acc[1] += (t1 - t0) * scale
        out: dict[str, tuple[float, str]] = {}
        for code, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (calls[code], "count")
            out[f"{name}.self_s"] = (self_s[code], "s")
            out[f"{name}.mean_us"] = (total_s[code] / calls[code] * 1e6 if calls[code] else 0.0, "us")
        for name, unit, ns in PER_N:
            code = SPAN_NAMES.index(name)
            for n in ns:
                count, secs = by_n.get((code, n), (0, 0.0))
                out[f"{name}.mean_{unit}.n{n}"] = (secs / count * 1e3 if count else 0.0, unit)
        cm_calls, cm_split = self.components
        out["graph.components_masks.calls"] = (cm_calls, "count")
        out["graph.components_masks.split_ratio"] = (cm_split / cm_calls if cm_calls else 0.0, "ratio")
        out["engine.steps"] = (self.steps, "count")
        out["engine.stalled"] = (self.stalled, "count")
        for rule, c in self.rules.items():
            out[f"engine.rule.{rule}"] = (c, "count")
        for kind, c in self.outcomes.items():
            out[f"engine.outcome.{kind}"] = (c, "count")
        out["certify.rejected"] = (self.rejected, "count")
        return out

    def write_spans(self, path) -> int:
        """One JSON array per span, in completion order, after a header
        line naming the fields and the span names; ``name`` indexes
        ``names``, times are wall microseconds since the tracer began and
        ``scale`` is the factor the metrics apply to them."""
        origin = self._origin
        header = {
            "fields": ["item", "id", "parent", "name", "n", "start_us", "end_us", "scale"],
            "names": SPAN_NAMES,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            rows = zip(self.items, self.ids, self.parents, self.names, self.ns, self.starts, self.ends, self.scales)
            for item, sid, parent, code, n, t0, t1, scale in rows:
                start_us = round((t0 - origin) * 1e6)
                end_us = round((t1 - origin) * 1e6)
                fh.write(f"[{item},{sid},{parent},{code},{n},{start_us},{end_us},{scale:.6g}]\n")
        return len(self.ids)

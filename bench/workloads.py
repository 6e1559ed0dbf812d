"""The four benchmark workloads.

Each workload turns a seed into an endless, deterministic stream of
items, runs one item per timed call, and checks every result outside the
timed interval. Graphs, codes and endpoint pairs are drawn here from the
seed; the package only ever sees the generated inputs. Item classes
(n, p, k) come round-robin, so every run sees the same mix and the
latency percentiles do not drift with the draw of classes.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import hamcert.certify as certify
import hamcert.engine as engine
import hamcert.graph as graph
import hamcert.graph6 as graph6
import hamcert.invariants as invariants
import hamcert.outcomes as outcomes
import hamcert.sweep as sweep

P = Fraction


def emit(records: list[dict]) -> list[str]:
    """The JSONL sink of a full-record sweep, as ``run_sweep`` writes it."""
    return [json.dumps(rec, sort_keys=True) for rec in records]


def random_graph(rng: random.Random, n: int, p: Fraction) -> graph.Graph:
    threshold = float(p)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < threshold:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return graph.Graph(n, tuple(adj))


def _add(into: dict, counts: dict) -> None:
    for key, c in counts.items():
        into[str(key)] = into.get(str(key), 0) + c


def _delta_problem(delta: dict) -> str | None:
    """A sweep delta fails on a violation, a validation failure or an
    extension count above the n - 2 progress bound."""
    if delta["violations"]:
        return "; ".join(delta["violations"])
    if delta["validation_failures"]:
        return f"{delta['validation_failures']} validation failures"
    if delta["max_overshoot"] > 0:
        return f"progress bound exceeded by {delta['max_overshoot']} steps"
    return None


class Workload:
    """One workload. ``items`` yields inputs, ``run`` is the timed call and
    ``check`` inspects one result (a failure text or None). The first
    ``pinned_items`` results also go to ``observe``, which folds the
    deterministic outputs into ``digest`` and keeps the sample that
    ``cross_check`` compares against independent oracles."""

    name = ""
    window = 1  # items per throughput window; a multiple of the class cycle
    calibrate_every = 1  # items between calibration passes; divides window
    pinned_items = 0
    cross_items = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.stalled = 0
        self.sample: list[tuple] = []

    def items(self):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> str | None:
        raise NotImplementedError

    def observe(self, item, result) -> None:
        raise NotImplementedError

    def digest(self) -> dict:
        raise NotImplementedError

    def cross_check(self) -> list[str]:
        return []

    def describe(self, item) -> dict:
        """graph6 word, k and pair of an item, for the failure record."""
        raise NotImplementedError


class _SweepWorkload(Workload):
    cfg: sweep.SweepConfig

    def __init__(self, seed):
        super().__init__(seed)
        self.satisfying: dict = {}
        self.tally: dict = {}

    def run(self, task):
        return sweep.process_task(task, self.cfg)

    def check(self, task, result):
        delta = result[1]
        self.stalled += delta["tally"].get("stalled", 0)
        return _delta_problem(delta)

    def observe(self, task, result):
        _add(self.satisfying, result[1]["satisfying"])
        _add(self.tally, result[1]["tally"])

    def digest(self):
        return {"items": self.pinned_items, "satisfying": self.satisfying, "tally": self.tally}

    def describe(self, task):
        return {"graph6": graph6.write_graph6(self.graph(task)), "k": list(self.cfg.ks), "pair": None}


class SweepLight(_SweepWorkload):
    """Criterion 2, the roadmap's end-to-end gate, on its own input
    distribution: light mode on uniform 7-vertex codes. About 0.7% of the
    graphs satisfy the hypotheses. The time goes to the early-exit scans
    of ``quick_hypotheses``, graph construction and the extractions on
    satisfying graphs; ``cut_scan`` is never called."""

    name = "sweep-light-n7"
    window = 1000
    calibrate_every = 200
    pinned_items = 20000  # about 150 hypothesis-satisfying graphs
    cross_items = 300

    def __init__(self, seed):
        super().__init__(seed)
        self.cfg = sweep.SweepConfig(families=(), ks=(1, 2), pair_policy=("none", 0), keep_records=False)

    def items(self):
        rng = random.Random(f"bench-light:{self.seed}")
        i = 0
        while True:
            yield (i, "code", 7, rng.randrange(1 << 21))
            i += 1

    @staticmethod
    def graph(task):
        return graph.graph_from_code(task[2], task[3])

    def observe(self, task, result):
        super().observe(task, result)
        # every claimed hypothesis-satisfying graph, and the first few others
        if result[1]["satisfying"] or task[0] < self.cross_items:
            self.sample.append((task, result[1]["satisfying"]))

    def cross_check(self):
        """The light verdict per k against brute-force connectivity and the
        naive forbidden-pattern search (toughness from the exact scan)."""
        problems = []
        for task, satisfying in self.sample:
            G = self.graph(task)
            kappa = invariants.vertex_connectivity_bruteforce(G)
            tough = invariants.toughness(G)
            tough_gt1 = tough.is_infinite or tough.value > 1
            for k in self.cfg.ks:
                expect = kappa >= 2 * k and tough_gt1 and not invariants.find_forbidden_naive(G, k)
                if expect != bool(satisfying.get(k)):
                    problems.append(f"light verdict for {graph6.write_graph6(G)} k={k} is {not expect}")
        return problems


class SweepRecords(_SweepWorkload):
    """The full-record sweep (``--output``) on G(n,p) tasks. It uses the
    cut-enumeration layer the other way round from the light sweep: the
    exact ``cut_scan`` (kappa and the toughness fraction, no early exit)
    instead of the boolean scans, so a change that speeds one scan mode at
    the other's cost shows. Dense p gives hypothesis-satisfying graphs,
    which bring all-pairs extraction and Hamilton backtracking; every
    record is serialised as ``run_sweep`` does."""

    name = "sweep-records-gnp"
    CLASSES = tuple((n, p) for n in (10, 12, 14) for p in (P(1, 2), P(3, 4), P(7, 8)))
    window = 2 * len(CLASSES)
    pinned_items = 2 * len(CLASSES)
    cross_items = len(CLASSES)

    def __init__(self, seed):
        super().__init__(seed)
        self.cfg = sweep.SweepConfig(
            families=(), ks=(1, 2, 3), pair_policy=("sample", 2), keep_records=True, seed=seed
        )
        self.jsonl = hashlib.sha256()

    def items(self):
        i = 0
        while True:
            n, p = self.CLASSES[i % len(self.CLASSES)]
            yield (i, "gnp", n, p.numerator, p.denominator, self.seed, i)
            i += 1

    @staticmethod
    def graph(task):
        _, _, n, num, den, seed, i = task
        return graph.gnp_graph(n, Fraction(num, den), seed, i)

    def run(self, task):
        records, delta = sweep.process_task(task, self.cfg)
        return emit(records), delta

    def observe(self, task, result):
        super().observe(task, result)
        emitted = result[0]
        for line in emitted:
            rec = json.loads(line)
            del rec["elapsed_ms"]
            self.jsonl.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
        if task[0] < self.cross_items:
            self.sample.append((task, emitted))

    def digest(self):
        return {**super().digest(), "jsonl_sha256": self.jsonl.hexdigest()}

    def cross_check(self):
        """Record fields against brute-force connectivity and the naive
        forbidden-pattern search."""
        problems = []
        for task, emitted in self.sample:
            G = self.graph(task)
            kappa = invariants.vertex_connectivity_bruteforce(G)
            for line in emitted:
                rec = json.loads(line)
                k = rec["k"]
                if rec["kappa"] != kappa:
                    problems.append(f"kappa {rec['kappa']} != {kappa} on {rec['graph6']}")
                if rec["forbidden_free"] == invariants.find_forbidden_naive(G, k):
                    problems.append(f"forbidden_free wrong on {rec['graph6']} k={k}")
        return problems


class ExtractLarge(Workload):
    """The ``hamcert extract`` user: one extraction and its validation on
    graphs beyond the oracles' n <= 16 cap, so only the engine and the
    validator run. Sparse p yields small_cut and forbidden_induced
    certificates through rules 2-5; dense p yields Hamilton paths, mostly
    by rule 1. A change to the cut scans is predicted not to move it."""

    name = "extract-large"
    CLASSES = tuple(
        (n, p, k)
        for n in (24, 40, 62)
        for p in (P(1, 8), P(1, 4), P(1, 2), P(3, 4))
        for k in (1, 2, 3)
    )
    window = 2 * len(CLASSES)
    calibrate_every = len(CLASSES) // 2
    pinned_items = 4 * len(CLASSES)

    def __init__(self, seed):
        super().__init__(seed)
        self.kinds: dict = {}
        self.rules: dict = {}
        self.outcomes = hashlib.sha256()

    def items(self):
        rng = random.Random(f"bench-extract:{self.seed}")
        i = 0
        while True:
            n, p, k = self.CLASSES[i % len(self.CLASSES)]
            G = random_graph(rng, n, p)
            u, v = rng.sample(range(n), 2)
            yield (G, k, u, v)
            i += 1

    def run(self, item):
        G, k, u, v = item
        res = engine.extract(G, k, u, v)
        if res.outcome.kind == "stalled":
            return res, None
        return res, certify.validate_outcome(G, k, u, v, res.outcome)

    def check(self, item, result):
        G = item[0]
        res, report = result
        if report is None:
            self.stalled += 1
        elif not report.accepted:
            return f"validator rejected {res.outcome.kind}: {report.code}"
        if res.extended_steps > G.n - 2:
            return f"{res.extended_steps} extension steps on n={G.n}"
        return None

    def observe(self, item, result):
        _, k, u, v = item
        res = result[0]
        _add(self.kinds, {res.outcome.kind: 1})
        _add(self.rules, Counter(res.trace))
        self.outcomes.update(outcomes.outcome_to_json(res.outcome, k, u, v).encode() + b"\n")

    def digest(self):
        return {
            "items": self.pinned_items,
            "outcomes": self.kinds,
            "rules": self.rules,
            "outcomes_sha256": self.outcomes.hexdigest(),
        }

    def describe(self, item):
        G, k, u, v = item
        return {"graph6": graph6.write_graph6(G), "k": k, "pair": [u, v]}


class InvariantsN16(Workload):
    """The ``hamcert invariants`` user: ``hypothesis_check`` up to the
    n = 16 cap. It is the only workload that calls the max-flow
    ``vertex_connectivity`` (which the roadmap proposes to drop); without
    it that layer goes unmeasured. ``cut_scan`` dominates at n = 16."""

    name = "invariants-n16"
    # k = 1 for the first six items of each cycle, k = 2 for the next six
    CLASSES = tuple(
        (n, p, k) for k in (1, 2) for n in (12, 14, 16) for p in (P(1, 2), P(3, 4))
    )
    window = 6
    pinned_items = 12
    cross_items = 6

    def __init__(self, seed):
        super().__init__(seed)
        self.rows: list = []

    def items(self):
        rng = random.Random(f"bench-invariants:{self.seed}")
        i = 0
        while True:
            n, p, k = self.CLASSES[i % len(self.CLASSES)]
            yield (random_graph(rng, n, p), k)
            i += 1

    def run(self, item):
        G, k = item
        return invariants.hypothesis_check(G, k)

    def check(self, item, rep):
        """Each report must agree with itself and carry witnesses that
        check out from first principles."""
        G, k = item
        if rep.is_2k_connected != (rep.connectivity >= 2 * k):
            return "is_2k_connected disagrees with connectivity"
        w = rep.forbidden_witness
        if w is not None and not certify.validate_outcome(G, k, 0, 1, w).accepted:
            return "forbidden witness rejected"
        t = rep.toughness
        if not t.is_infinite:
            comps = graph.components_after_removal(G, t.cut)
            if len(comps) != t.component_count or Fraction(len(t.cut), len(comps)) != t.value:
                return f"toughness witness does not give {t.describe()}"
        return None

    def observe(self, item, rep):
        self.rows.append([rep.connectivity, rep.toughness.describe(), rep.forbidden_free])
        if len(self.sample) < self.cross_items:
            self.sample.append((item, rep))

    def digest(self):
        return {
            "items": self.pinned_items,
            "kappa": [r[0] for r in self.rows],
            "toughness": [r[1] for r in self.rows],
            "reports_sha256": hashlib.sha256(json.dumps(self.rows).encode()).hexdigest(),
        }

    def cross_check(self):
        problems = []
        for (G, k), rep in self.sample:
            word = graph6.write_graph6(G)
            if invariants.vertex_connectivity_bruteforce(G) != rep.connectivity:
                problems.append(f"kappa {rep.connectivity} disagrees with brute force on {word}")
            if invariants.find_forbidden_naive(G, k) == rep.forbidden_free:
                problems.append(f"forbidden_free disagrees with the naive search on {word}")
        return problems

    def describe(self, item):
        G, k = item
        return {"graph6": graph6.write_graph6(G), "k": k, "pair": None}


WORKLOADS = {w.name: w for w in (SweepLight, SweepRecords, ExtractLarge, InvariantsN16)}

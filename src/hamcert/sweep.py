"""Batch sweeps over graph families: hypothesis evaluation, certified
extraction, validation, and JSONL reporting.

A sweep with an output sink records one line per (graph, k) with exact
invariant values from ``cut_scan``. Without a sink it runs in a light mode,
``quick_hypotheses``, which runs the same cut-enumeration kernel in its
early-exit threshold mode: it stops as soon as the verdict for every k
is decided, which keeps exhaustive 7-vertex runs tractable on one core.
The two modes agree by construction, because both read connectivity and
toughness off the one kernel; the tests compare them all the same.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Iterator

from .certify import validate_outcome
from .engine import extract
from .errors import CapacityError, GraphInputError
from .graph import (
    EXHAUSTIVE_CEILING,
    FamilySpec,
    Graph,
    components_masks,  # noqa: F401 - unused here; bench/tracing.py counts fills through it
    gnp_graph,
    graph_from_code,
    generate,
)
from .graph6 import write_graph6
from .invariants import (
    TOUGHNESS_CEILING,
    _scan_cuts,
    cut_scan,
    find_induced_p2_plus_kp1,
    is_hamiltonian_connected,
)
from .outcomes import CERTIFICATE_KINDS

PairPolicy = tuple[str, int]  # ("all", 0) | ("sample", m) | ("none", 0)


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[FamilySpec, ...]
    ks: tuple[int, ...]
    pair_policy: PairPolicy = ("sample", 2)
    samples: int = 1  # per gnp family
    seed: int = 0
    jobs: int = 1
    keep_records: bool = True
    input_graphs: tuple[tuple[int, tuple[int, ...]], ...] = ()  # (n, adj) pairs


@dataclass
class SweepSummary:
    graphs: int = 0
    records: int = 0
    satisfying: dict[int, int] = field(default_factory=dict)
    outcome_tally: dict[str, int] = field(default_factory=dict)
    certificates: int = 0
    validation_failures: int = 0
    violations: list[str] = field(default_factory=list)
    max_extension_overshoot: int = 0  # >0 would break the progress bound
    elapsed_s: float = 0.0

    def merge_violation(self, text: str) -> None:
        if len(self.violations) < 100:
            self.violations.append(text)

    @property
    def clean(self) -> bool:
        return not self.violations and self.validation_failures == 0


def parse_pair_policy(text: str) -> PairPolicy:
    if text == "all":
        return ("all", 0)
    if text == "none":
        return ("none", 0)
    if text.startswith("sample:"):
        count = text[len("sample:"):]
        if count.isascii() and count.isdigit():
            return ("sample", int(count))
    raise GraphInputError(f"bad pair policy {text!r}; use all, none, or sample:N with N >= 0")


# --- task stream ------------------------------------------------------------


def _check_capacity(cfg: SweepConfig) -> None:
    """Reject a sweep past a ceiling before its first task."""
    for fam in cfg.families:
        if fam.kind == "exhaustive" and fam.n > EXHAUSTIVE_CEILING:
            raise CapacityError(f"exhaustive sweep capped at n={EXHAUSTIVE_CEILING}, got {fam.n}")
    for n in [fam.n for fam in cfg.families] + [n for n, _ in cfg.input_graphs]:
        if n > TOUGHNESS_CEILING:
            raise CapacityError(f"sweeps are capped at n={TOUGHNESS_CEILING} vertices, got n={n}")


def _task_stream(cfg: SweepConfig) -> Iterator[tuple]:
    idx = 0
    for n, adj in cfg.input_graphs:
        yield (idx, "graph", n, adj)
        idx += 1
    for fam in cfg.families:
        if fam.kind == "exhaustive":
            for code in range(1 << (fam.n * (fam.n - 1) // 2)):
                yield (idx, "code", fam.n, code)
                idx += 1
        elif fam.kind == "gnp":
            for i in range(cfg.samples):
                yield (idx, "gnp", fam.n, fam.p.numerator, fam.p.denominator, cfg.seed, i)
                idx += 1
        else:
            for G in generate(fam):
                yield (idx, "graph", G.n, G.adj)
                idx += 1


def _materialize(task: tuple) -> Graph:
    kind = task[1]
    if kind == "code":
        return graph_from_code(task[2], task[3])
    if kind == "gnp":
        _, _, n, num, den, seed, i = task
        return gnp_graph(n, Fraction(num, den), seed, i)
    return Graph(task[2], task[3])


# --- light-mode hypothesis scan ---------------------------------------------


def quick_hypotheses(G: Graph, ks: tuple[int, ...]) -> dict[int, tuple[bool, bool, bool]]:
    """(is_2k_connected, forbidden_free, toughness_exceeds_one) per k, from
    the early-exit mode of the cut scan behind ``cut_scan``: kappa is only
    settled up to 2 max(ks). forbidden_free is None where the verdict does
    not need it.
    """
    kappa, num, den, _, _ = _scan_cuts(G, 2 * max(ks, default=0), exact=False)
    tough_gt1 = not den or num > den
    out = {}
    for k in ks:
        is2k = kappa >= 2 * k
        free = find_induced_p2_plus_kp1(G, k) is None if is2k and tough_gt1 else None
        out[k] = (is2k, free, tough_gt1)
    return out


# --- per-graph processing ---------------------------------------------------


def _select_pairs(n: int, policy: PairPolicy, seed: int, idx: int, k: int) -> list[tuple[int, int]]:
    kind, m = policy
    if kind == "none":
        return []
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "all":
        return all_pairs
    rng = Random(f"hamcert-pairs:{seed}:{idx}:{k}")
    m = min(m, len(all_pairs))
    return sorted(rng.sample(all_pairs, m))


def process_task(task: tuple, cfg: SweepConfig) -> tuple[list[dict], dict]:
    """Run one graph through every k: hypothesis evaluation, extraction
    on the selected pairs, validation. Returns (records, summary delta)."""
    idx = task[0]
    G = _materialize(task)
    n = G.n
    started = time.perf_counter()
    records: list[dict] = []
    delta: dict = {
        "graphs": 1,
        "satisfying": {},
        "tally": {},
        "certificates": 0,
        "validation_failures": 0,
        "violations": [],
        "max_overshoot": 0,
    }
    word: str | None = None

    if cfg.keep_records:
        kappa, tough = cut_scan(G)
        word = write_graph6(G)
        hyp = {
            k: (kappa >= 2 * k, None, tough.is_infinite or tough.value > 1)
            for k in cfg.ks
        }
    else:
        kappa, tough = None, None
        hyp = quick_hypotheses(G, cfg.ks)

    for k in cfg.ks:
        is2k, free, tough_gt1 = hyp[k]
        if free is None and (cfg.keep_records or (is2k and tough_gt1)):
            free = find_induced_p2_plus_kp1(G, k) is None
        all_hyp = bool(is2k and free and tough_gt1)
        if all_hyp:
            delta["satisfying"][k] = delta["satisfying"].get(k, 0) + 1

        if n >= 3:
            pairs = (
                [(u, v) for u in range(n) for v in range(u + 1, n)]
                if all_hyp
                else _select_pairs(n, cfg.pair_policy, cfg.seed, idx, k)
            )
        else:
            pairs = []
        tally: dict[str, int] = {}
        valid = 0
        for (u, v) in pairs:
            res = extract(G, k, u, v)
            kind = res.outcome.kind
            tally[kind] = tally.get(kind, 0) + 1
            overshoot = res.extended_steps - max(0, n - 2)
            if overshoot > delta["max_overshoot"]:
                delta["max_overshoot"] = overshoot
            if kind == "stalled":
                if all_hyp:
                    word = word or write_graph6(G)
                    delta["violations"].append(
                        f"stalled on hypothesis-satisfying graph {word} k={k} pair=({u},{v})"
                    )
            else:
                report = validate_outcome(G, k, u, v, res.outcome)
                if kind in CERTIFICATE_KINDS:
                    delta["certificates"] += 1
                if not report.accepted:
                    word = word or write_graph6(G)
                    delta["validation_failures"] += 1
                    delta["violations"].append(
                        f"invalid {kind} on {word} k={k} pair=({u},{v}): {report.code}"
                    )
                else:
                    valid += 1
                if all_hyp and kind != "hamilton_path":
                    word = word or write_graph6(G)
                    delta["violations"].append(
                        f"certificate {kind} on hypothesis-satisfying graph {word} "
                        f"k={k} pair=({u},{v})"
                    )
        for kind, c in tally.items():
            delta["tally"][kind] = delta["tally"].get(kind, 0) + c

        ham_connected: bool | None = None
        if all_hyp and n >= 3:
            ham_connected = is_hamiltonian_connected(G).is_hamiltonian_connected
            if not ham_connected:
                word = word or write_graph6(G)
                delta["violations"].append(
                    f"hypothesis-satisfying graph {word} (k={k}) is not "
                    "hamiltonian-connected"
                )

        if cfg.keep_records:
            records.append(
                {
                    "graph6": word,
                    "n": n,
                    "k": k,
                    "kappa": kappa,
                    "toughness": tough.describe(),
                    "forbidden_free": free,
                    "all_hypotheses": all_hyp,
                    "hamiltonian_connected": ham_connected,
                    "pairs": tally,
                    "pairs_attempted": len(pairs),
                    "validation_passes": valid,
                    "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
                }
            )
    return records, delta


def _merge(summary: SweepSummary, records: list[dict], delta: dict) -> None:
    summary.graphs += delta["graphs"]
    summary.records += len(records)
    for k, c in delta["satisfying"].items():
        summary.satisfying[k] = summary.satisfying.get(k, 0) + c
    for kind, c in delta["tally"].items():
        summary.outcome_tally[kind] = summary.outcome_tally.get(kind, 0) + c
    summary.certificates += delta["certificates"]
    summary.validation_failures += delta["validation_failures"]
    for v in delta["violations"]:
        summary.merge_violation(v)
    summary.max_extension_overshoot = max(
        summary.max_extension_overshoot, delta["max_overshoot"]
    )


def run_sweep(
    cfg: SweepConfig,
    sink: Callable[[str], None] | None = None,
    progress: Callable[[int], None] | None = None,
) -> SweepSummary:
    """Drive the sweep; ``sink`` receives one JSON line per record."""
    _check_capacity(cfg)
    summary = SweepSummary()
    started = time.perf_counter()
    tasks = _task_stream(cfg)
    if cfg.jobs > 1:
        import multiprocessing as mp

        # the config goes to each worker once, not with every task
        with mp.Pool(cfg.jobs, initializer=_init_worker, initargs=(cfg,)) as pool:
            for records, delta in pool.imap(_pool_worker, tasks, chunksize=256):
                _merge(summary, records, delta)
                _emit(records, sink)
                if progress and summary.graphs % 50000 == 0:
                    progress(summary.graphs)
    else:
        for task in tasks:
            records, delta = process_task(task, cfg)
            _merge(summary, records, delta)
            _emit(records, sink)
            if progress and summary.graphs % 50000 == 0:
                progress(summary.graphs)
    summary.elapsed_s = time.perf_counter() - started
    if not summary.graphs:
        raise GraphInputError("the sweep selected no graphs")
    return summary


def _emit(records: list[dict], sink) -> None:
    if sink is not None:
        for rec in records:
            sink(json.dumps(rec, sort_keys=True))


_worker_cfg: SweepConfig | None = None  # set in each pool worker by _init_worker


def _init_worker(cfg: SweepConfig) -> None:
    global _worker_cfg
    _worker_cfg = cfg


def _pool_worker(task: tuple) -> tuple[list[dict], dict]:
    return process_task(task, _worker_cfg)

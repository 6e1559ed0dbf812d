"""Batch sweeps over graph families: hypothesis evaluation, certified
extraction, validation, and JSONL reporting.

A sweep with an output sink records one line per (graph, k) with exact
invariant values from ``cut_scan``. Without a sink it runs in a light mode:
``invariants.quick_hypotheses`` runs the same cut kernel in its early-exit
threshold mode, which finds kappa exactly but decides only whether
toughness exceeds 1, so exhaustive 7-vertex runs stay tractable.
Both modes pass kappa and "toughness > 1" to one per-k verdict; light mode
skips the forbidden-pattern search where that verdict is already no.

A pair whose extraction used only rules 1-2 (``ExtractionResult.k_free``)
is extracted once per graph: the result holds for every k, so later ks
reuse it, and it is validated for every k all the same.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable, Iterator, Sequence

from .certify import validate_outcome
from .engine import ExtractionResult, extract
from .errors import CapacityError, EngineError, GraphInputError
from .graph import (
    FamilySpec,
    Graph,
    _pairs,
    components_masks,  # noqa: F401 - unused here; bench/tracing.py counts fills through it
    gnp_graph,
    graph_from_code,
)
from .graph6 import write_graph6
from .invariants import (
    TOUGHNESS_CEILING,
    cut_scan,
    find_induced_p2_plus_kp1,
    is_hamiltonian_connected,  # noqa: F401 - unused here; bench/tracing.py wraps this name
    quick_hypotheses,
)
from .outcomes import CERTIFICATE_KINDS

PairPolicy = tuple[str, int]  # ("all", 0) | ("sample", m) | ("none", 0)


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[FamilySpec, ...]
    ks: tuple[int, ...]
    pair_policy: PairPolicy = ("sample", 2)
    samples: int = 1  # per seeded family
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
    validation_failures: int = 0
    violations: list[str] = field(default_factory=list)
    max_extension_overshoot: int = 0  # >0 would break the progress bound
    elapsed_s: float = 0.0

    @property
    def certificates(self) -> int:
        return sum(self.outcome_tally.get(kind, 0) for kind in CERTIFICATE_KINDS)

    @property
    def clean(self) -> bool:
        # every validation failure also records a violation; an overshoot
        # breaks the progress bound, an engine bug even with no violation
        return not self.violations and self.max_extension_overshoot <= 0


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


def check_config(cfg: SweepConfig) -> None:
    """Reject a sweep past a ceiling, one that would check nothing, or one
    that repeats a k, before its first task; a caller that opens an output
    for the sweep calls it first too. A family spec checks itself when built."""
    if not cfg.ks or min(cfg.ks) < 1:
        raise GraphInputError(f"a sweep needs at least one k, each at least 1, got {cfg.ks}")
    if repeated := sorted({k for k in cfg.ks if cfg.ks.count(k) > 1}):
        raise GraphInputError(f"each k is judged once, but ks={cfg.ks} repeats k={repeated}")
    kind, m = cfg.pair_policy
    if kind not in ("all", "sample", "none") or m < 0:
        raise GraphInputError(f"bad pair policy {cfg.pair_policy!r}")
    if not cfg.families and not cfg.input_graphs:
        raise GraphInputError("the sweep selected no graphs")
    for fam in cfg.families:
        if fam.count(cfg.samples) < 1:
            raise GraphInputError(f"the {fam.kind} family selects no graph at samples={cfg.samples}")
    for n in [fam.n for fam in cfg.families] + [n for n, _ in cfg.input_graphs]:
        if n > TOUGHNESS_CEILING:
            raise CapacityError(f"sweeps are capped at n={TOUGHNESS_CEILING} vertices, got n={n}")


def _task_stream(cfg: SweepConfig) -> Iterator[tuple]:
    """Every task of the sweep in order, without the index ``run_sweep``
    puts first: the input graphs, then each family's graphs as its spec
    makes them into tasks."""
    for n, adj in cfg.input_graphs:
        yield ("graph", n, adj)
    for fam in cfg.families:
        for i in range(fam.count(cfg.samples)):
            yield fam.task(i, cfg.seed)


def _materialize(task: tuple) -> Graph:
    kind = task[1]
    if kind == "code":
        return graph_from_code(task[2], task[3])
    if kind == "graph":
        return Graph(task[2], task[3])
    _, _, n, num, den, seed, i = task
    return gnp_graph(n, Fraction(num, den), seed, i)


# --- per-graph processing ---------------------------------------------------


def _select_pairs(
    n: int, policy: PairPolicy, seed: int, idx: int, k: int, all_hyp: bool
) -> Sequence[tuple[int, int]]:
    """Every pair of a satisfying graph, none below three vertices (where
    ``extract`` cannot run), otherwise the pairs the policy picks."""
    kind, m = policy
    if n < 3 or (kind == "none" and not all_hyp):
        return ()
    every = _pairs(n)
    if all_hyp or kind == "all":
        return every
    rng = Random(f"hamcert-pairs:{seed}:{idx}:{k}")
    return sorted(rng.sample(every, min(m, len(every))))


def _fault(exc: Exception) -> str:
    """The text of an exception raised in extraction or validation. Every
    type but ``EngineError`` is named, since it marks a bug the engine did
    not detect; the graph6 word, k and pair beside it reproduce it."""
    return str(exc) if isinstance(exc, EngineError) else f"{type(exc).__name__}: {exc}"


def process_task(task: tuple, cfg: SweepConfig) -> tuple[list[dict], dict]:
    """Run one graph through every k: hypothesis evaluation, extraction
    on the selected pairs, validation. Returns (records, summary delta).
    One guard covers each (k, pair): an exception raised by ``extract``,
    by reading its result, or by ``validate_outcome`` becomes an
    engine-error violation for that (k, pair), and the sweep carries on.
    A pair whose extraction raised is not tallied; one whose validation
    raised is, and is not held to the hypotheses.
    A violation's text, with its ``k=… pair=(…)`` part, is built only
    once the graph has one, since almost no pair does."""
    G = _materialize(task)
    n = G.n
    started = time.perf_counter()
    if cfg.keep_records:
        kappa, tough = cut_scan(G)
        word = write_graph6(G)
        tough_gt1 = tough.is_infinite or tough.value > 1
    else:
        word = None
        kappa, tough_gt1 = quick_hypotheses(G)
    records: list[dict] = []
    satisfying: dict[int, int] = {}
    outcomes: dict[str, int] = {}
    failures = overshoot = 0
    # each violation: its text before the graph6 word, then k, the pair and any detail
    found: list[tuple[str, int, int, int, str]] = []
    reusable: dict[tuple[int, int], ExtractionResult] = {}  # k-free results, good for every k

    for k in cfg.ks:
        is2k = kappa >= 2 * k
        search = cfg.keep_records or (is2k and tough_gt1)  # a record reports freeness
        free = find_induced_p2_plus_kp1(G, k) is None if search else None
        all_hyp = is2k and tough_gt1 and free
        if all_hyp:
            satisfying[k] = satisfying.get(k, 0) + 1
        pairs = _select_pairs(n, cfg.pair_policy, cfg.seed, task[0], k, all_hyp)
        tally: dict[str, int] = {}
        valid = paths = 0  # accepted outcomes, and the Hamilton paths among them
        for (u, v) in pairs:
            try:  # a bug must not end the sweep
                res = reusable.get((u, v))
                if res is None:
                    res = extract(G, k, u, v)
                    if res.k_free:
                        reusable[(u, v)] = res
                kind = res.outcome.kind
                tally[kind] = tally.get(kind, 0) + 1
                outcomes[kind] = outcomes.get(kind, 0) + 1
                overshoot = max(overshoot, res.extended_steps - max(0, n - 2))
                # a stall certifies nothing, so there is nothing to validate
                report = None if kind == "stalled" else validate_outcome(G, k, u, v, res.outcome)
            except Exception as exc:
                found.append(("engine error on", k, u, v, f": {_fault(exc)}"))
                continue
            if report is not None:
                if not report.accepted:
                    failures += 1
                    found.append((f"invalid {kind} on", k, u, v, f": {report.code}"))
                else:
                    valid += 1
                    if kind == "hamilton_path":
                        paths += 1
            if all_hyp and kind != "hamilton_path":
                label = "stalled" if kind == "stalled" else f"certificate {kind}"
                found.append((f"{label} on hypothesis-satisfying graph", k, u, v, ""))

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
                    # a satisfying graph has kappa >= 2, so n >= 3, and every
                    # pair extracted: it needs an accepted path for each
                    "hamiltonian_connected": paths == len(pairs) if all_hyp else None,
                    "pairs": tally,
                    "pairs_attempted": len(pairs),
                    "validation_passes": valid,
                    "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
                }
            )
    if found:
        word = word or write_graph6(G)
    return records, {
        "satisfying": satisfying,
        "tally": outcomes,
        "validation_failures": failures,
        "violations": [
            f"{what} {word} k={k} pair=({u},{v}){detail}" for what, k, u, v, detail in found
        ],
        "max_overshoot": overshoot,
    }


def _merge(summary: SweepSummary, records: list[dict], delta: dict) -> None:
    summary.graphs += 1  # a delta describes one graph
    summary.records += len(records)
    for k, c in delta["satisfying"].items():
        summary.satisfying[k] = summary.satisfying.get(k, 0) + c
    for kind, c in delta["tally"].items():
        summary.outcome_tally[kind] = summary.outcome_tally.get(kind, 0) + c
    summary.validation_failures += delta["validation_failures"]
    summary.violations += delta["violations"][: 100 - len(summary.violations)]  # the first 100
    summary.max_extension_overshoot = max(
        summary.max_extension_overshoot, delta["max_overshoot"]
    )


def run_sweep(
    cfg: SweepConfig,
    sink: Callable[[str], None] | None = None,
    progress: Callable[[int], None] | None = None,
) -> SweepSummary:
    """Drive the sweep; ``sink`` receives one JSON line per record. Both
    the sequential and the pooled run map one task function, ``process_task``
    bound to the config; each task carries its own graph, so the bound
    config leaves out the families and the input graphs."""
    check_config(cfg)
    summary = SweepSummary()
    started = time.perf_counter()
    tasks = ((idx, *task) for idx, task in enumerate(_task_stream(cfg)))
    work = partial(process_task, cfg=replace(cfg, families=(), input_graphs=()))
    with ExitStack() as stack:
        if cfg.jobs > 1:
            import multiprocessing as mp

            results = stack.enter_context(mp.Pool(cfg.jobs)).imap(work, tasks, chunksize=256)
        else:
            results = map(work, tasks)
        for records, delta in results:
            _merge(summary, records, delta)
            if sink is not None:
                for rec in records:
                    sink(json.dumps(rec, sort_keys=True))
            if progress and summary.graphs % 50000 == 0:
                progress(summary.graphs)
    summary.elapsed_s = time.perf_counter() - started
    return summary

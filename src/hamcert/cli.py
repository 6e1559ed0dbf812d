"""Command-line driver.

Subcommands: invariants, extract, sweep, tightness, validate.
Exit codes: 0 clean, 1 violation or rejected certificate, 2 bad input
or capacity limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

from .certify import validate_outcome
from .engine import extract
from .errors import CapacityError, GraphInputError
from .graph import Graph, complete_bipartite, generate, parse_family
from .graph6 import parse_graph6, read_graph6_lines, write_graph6
from .invariants import (
    cut_scan,
    find_induced_p2_plus_kp1,
    hypothesis_check,
    is_hamiltonian_connected,
)
from .outcomes import outcome_from_json, outcome_to_json
from .sweep import SweepConfig, parse_pair_policy, run_sweep

TIGHTNESS_CEILING = 12  # hamiltonian-connectivity check is the bottleneck


def _add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph6", help="graph as a graph6 word")
    p.add_argument("--family", help="family spec, e.g. complete:5, bipartite:4,4, gnp:10,1/2")
    p.add_argument("--input", help="file of graph6 lines (first line is used)")
    p.add_argument("--seed", type=int, default=None, help="seed for random families")


def _load_graph(args) -> Graph:
    given = [x for x in (args.graph6, args.family, args.input) if x]
    if len(given) != 1:
        raise GraphInputError("give exactly one of --graph6, --family, --input")
    if args.graph6:
        return parse_graph6(args.graph6)
    if args.family:
        spec = parse_family(args.family)
        if spec.kind == "exhaustive":
            raise GraphInputError("exhaustive families only make sense under sweep")
        if spec.kind == "gnp":
            if args.seed is None:
                raise GraphInputError("random families need --seed")
            spec = dataclasses.replace(spec, seed=args.seed)
        return next(generate(spec))
    with open(args.input) as fh:
        graphs = read_graph6_lines(fh)
    if not graphs:
        raise GraphInputError(f"no graph6 lines in {args.input}")
    return graphs[0]


def cmd_invariants(args) -> int:
    G = _load_graph(args)
    rep = hypothesis_check(G, args.k)
    print(f"n={G.n} edges={G.edge_count()} graph6={write_graph6(G)}")
    print(f"connectivity={rep.connectivity} (2k-connected for k={args.k}: {rep.is_2k_connected})")
    print(f"toughness={rep.toughness.describe()} (exceeds one: {rep.toughness_exceeds_one})")
    if rep.forbidden_witness is None:
        print(f"forbidden_free=True (no induced edge plus {args.k} isolated vertices)")
    else:
        w = rep.forbidden_witness
        print(f"forbidden_free=False edge={list(w.edge)} independent={sorted(w.independent)}")
    print(f"all_hypotheses={rep.all_hypotheses}")
    return 0


def cmd_extract(args) -> int:
    G = _load_graph(args)
    res = extract(G, args.k, args.u, args.v)
    line = outcome_to_json(res.outcome, args.k, args.u, args.v)
    report = validate_outcome(G, args.k, args.u, args.v, res.outcome)
    print(f"outcome={res.outcome.kind}")
    print(f"trace={' -> '.join(res.trace)}")
    print(line)
    if res.outcome.kind == "stalled":
        print("validated=n/a (no certificate emitted)")
    else:
        print(f"validated={report.accepted}" + ("" if report.accepted else f" ({report.code})"))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(line + "\n")
    return 0


def cmd_sweep(args) -> int:
    try:
        ks = tuple(sorted({int(x) for x in args.k.split(",")}))
    except ValueError as exc:
        raise GraphInputError(f"bad --k list {args.k!r}") from exc
    if any(k < 1 for k in ks):
        raise GraphInputError("every k must be at least 1")
    if args.samples < 1:
        raise GraphInputError(f"--samples must be at least 1, got {args.samples}")
    families = tuple(parse_family(f) for f in args.family or ())
    input_graphs: tuple = ()
    if args.input:
        with open(args.input) as fh:
            input_graphs = tuple((g.n, g.adj) for g in read_graph6_lines(fh))
    if not families and not input_graphs:
        raise GraphInputError("sweep needs --family or --input")
    if any(f.kind == "gnp" for f in families) and args.seed is None:
        raise GraphInputError("random families need --seed")
    seed = args.seed if args.seed is not None else 0
    if any(f.kind == "gnp" for f in families):
        families = tuple(
            dataclasses.replace(f, seed=seed) if f.kind == "gnp" else f for f in families
        )
    cfg = SweepConfig(
        families=families,
        ks=ks,
        pair_policy=parse_pair_policy(args.pairs),
        samples=args.samples,
        seed=seed,
        jobs=args.jobs,
        keep_records=args.output is not None,
        input_graphs=input_graphs,
    )

    def progress(count: int) -> None:
        print(f"... {count} graphs processed", file=sys.stderr)

    if args.output:
        with open(args.output, "w") as fh:
            summary = run_sweep(cfg, sink=lambda s: fh.write(s + "\n"), progress=progress)
    else:
        summary = run_sweep(cfg, progress=progress)

    print(f"graphs={summary.graphs} records={summary.records} elapsed={summary.elapsed_s:.1f}s")
    for k in ks:
        print(f"k={k}: hypothesis-satisfying graphs = {summary.satisfying.get(k, 0)}")
    for kind in sorted(summary.outcome_tally):
        print(f"outcome {kind}: {summary.outcome_tally[kind]}")
    print(f"certificates={summary.certificates} validation_failures={summary.validation_failures}")
    if summary.max_extension_overshoot > 0:
        print(f"extension bound exceeded by {summary.max_extension_overshoot}")
    if summary.violations:
        print(f"VIOLATIONS ({len(summary.violations)} shown):")
        for v in summary.violations:
            print(f"  {v}")
        return 1
    print("violations=0")
    return 0 if summary.clean else 1


def tightness_report(n: int) -> dict:
    """Check the four boundary properties of the balanced complete
    bipartite graph on n vertices, plus a certified same-part extraction.
    """
    if n % 2 or n < 4:
        raise GraphInputError("tightness check needs even n >= 4")
    if n > TIGHTNESS_CEILING:
        raise CapacityError(f"tightness check is capped at n={TIGHTNESS_CEILING}")
    half = n // 2
    k = n // 4
    G = complete_bipartite(half, half)
    kappa, tough = cut_scan(G)
    free = find_induced_p2_plus_kp1(G, k) is None
    hc = is_hamiltonian_connected(G)
    res = extract(G, k, 0, 1)  # vertices 0 and 1 share a part
    valid = validate_outcome(G, k, 0, 1, res.outcome)
    part_a = frozenset(range(half))
    part_b = frozenset(range(half, n))
    cut_is_part = getattr(res.outcome, "cut", None) in (part_a, part_b)
    return {
        "n": n,
        "k": k,
        "k_flagged": n % 4 != 0,
        "kappa": kappa,
        "kappa_ok": kappa == half,
        "toughness": tough.describe(),
        "toughness_ok": (not tough.is_infinite) and tough.value == Fraction(1),
        "forbidden_free": free,
        "hamiltonian_connected": hc.is_hamiltonian_connected,
        "failing_pair": hc.failing_pair,
        "outcome_kind": res.outcome.kind,
        "outcome_validated": valid.accepted,
        "cut_is_one_part": cut_is_part,
        "outcome_json": outcome_to_json(res.outcome, k, 0, 1),
    }


def cmd_tightness(args) -> int:
    rep = tightness_report(args.n)
    n, k = rep["n"], rep["k"]
    print(f"balanced complete bipartite graph on {n} vertices, k={k}"
          + (" (k floored; n is not a multiple of 4)" if rep["k_flagged"] else ""))
    print(f"toughness = {rep['toughness']} (expected 1/1: {rep['toughness_ok']})")
    print(f"connectivity = {rep['kappa']} (expected {n // 2}: {rep['kappa_ok']})")
    print(f"free of induced edge plus {k} isolated vertices: {rep['forbidden_free']}")
    print(f"hamiltonian-connected: {rep['hamiltonian_connected']}"
          + (f" (no spanning path between {rep['failing_pair']})"
             if rep["failing_pair"] else ""))
    print(f"extract(0,1) -> {rep['outcome_kind']}, validated={rep['outcome_validated']}, "
          f"cut is one full part: {rep['cut_is_one_part']}")
    print(rep["outcome_json"])
    ok = (
        rep["toughness_ok"]
        and rep["kappa_ok"]
        and rep["forbidden_free"]
        and not rep["hamiltonian_connected"]
        and rep["outcome_kind"] == "toughness_witness"
        and rep["outcome_validated"]
        and rep["cut_is_one_part"]
    )
    return 0 if ok else 1


def cmd_validate(args) -> int:
    G = _load_graph(args)
    if args.outcome == "-":
        text = sys.stdin.read()
    else:
        with open(args.outcome) as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphInputError("no outcome record to validate")
    failures = 0
    for ln in lines:
        outcome, k, u, v = outcome_from_json(ln)
        report = validate_outcome(G, k, u, v, outcome)
        verdict = "accept" if report.accepted else f"reject ({report.code}: {report.detail})"
        print(f"{outcome.kind}: {verdict}")
        if not report.accepted:
            failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamcert",
        description="Certified spanning-path extraction and invariant oracles for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="connectivity, toughness, forbidden pattern, hypotheses")
    _add_graph_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("extract", help="spanning path or certificate for one (graph, k, u, v)")
    _add_graph_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--output", help="write the outcome JSON line here")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("sweep", help="batch extraction and validation over graph families")
    p.add_argument("--family", action="append", help="repeatable family spec")
    p.add_argument("--input", help="file of graph6 lines")
    p.add_argument("--k", default="1", help="comma-separated k values")
    p.add_argument("--pairs", default="sample:2", help="all, none, or sample:N (non-satisfying graphs)")
    p.add_argument("--samples", type=int, default=1, help="samples per random family")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output", help="JSONL records go here; omit for summary-only fast mode")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tightness", help="boundary example: balanced complete bipartite graph")
    p.add_argument("--n", type=int, required=True, help="even order, 4..12")
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("validate", help="re-check an outcome JSON line against a graph")
    _add_graph_flags(p)
    p.add_argument("--outcome", required=True, help="file of outcome JSON lines, or - for stdin")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphInputError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

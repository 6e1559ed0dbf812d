"""Acceptance gate: seven criteria, one reported pass/fail line each.

The heavy sweeps (criteria 2 and 3) run inside session fixtures so their
results can be shared with the soundness and progress criteria.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

from hamcert import (
    FamilySpec,
    SweepConfig,
    complete_bipartite,
    components_after_removal,
    exhaustive_graphs,
    extract,
    find_induced_p2_plus_kp1,
    gnp_graph,
    graph_from_code,
    hamilton_path_between,
    is_hamiltonian_connected,
    outcome_from_dict,
    run_sweep,
    toughness,
    validate_outcome,
    vertex_connectivity,
    vertex_connectivity_bruteforce,
)
from hamcert.cli import tightness_report
from hamcert.invariants import find_forbidden_naive
from hamcert.outcomes import CERTIFICATE_KINDS, outcome_to_dict
from hamcert.sweep import quick_hypotheses

GNP_POOL = [(n, Fraction(p)) for n in (8, 9, 10) for p in ("1/3", "1/2", "2/3")]
GNP_SAMPLES = 1200  # per (n, p): 9 * 1200 = 10800 >= 10^4 total
GNP_SEED = 42


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


@pytest.fixture(scope="session")
def exhaustive_sweep_summary():
    cfg = SweepConfig(
        families=(FamilySpec(kind="exhaustive", n=7),),
        ks=(1, 2),
        pair_policy=("none", 0),
        keep_records=False,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="session")
def gnp_sweep_summary():
    fams = tuple(FamilySpec(kind="gnp", n=n, args=(p,)) for n, p in GNP_POOL)
    cfg = SweepConfig(
        families=fams,
        ks=(1, 2, 3),
        pair_policy=("sample", 2),
        samples=GNP_SAMPLES,
        seed=GNP_SEED,
        keep_records=False,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="session")
def certificate_pool():
    """Validated extraction outcomes drawn from the same graph pools the
    sweeps use: (G, k, u, v, outcome) tuples, certificates and paths."""
    pool = []
    rng = Random("hamcert-tests:pool")
    for n, p in GNP_POOL:
        for i in range(60):
            G = gnp_graph(n, p, GNP_SEED, i)
            k = rng.randint(1, 3)
            u, v = rng.sample(range(n), 2)
            res = extract(G, k, u, v)
            if res.outcome.kind != "stalled":
                pool.append((G, k, u, v, res.outcome, res.extended_steps))
    for G in exhaustive_graphs(5):
        res = extract(G, 1, 0, 4)
        if res.outcome.kind != "stalled":
            pool.append((G, 1, 0, 4, res.outcome, res.extended_steps))
    return pool


def test_criterion_1_tightness(capsys):
    started = time.perf_counter()
    for n in (4, 8, 12):
        rep = tightness_report(n)
        assert rep["toughness"] == "1/1", f"n={n}: toughness {rep['toughness']}"
        assert rep["toughness_ok"]
        assert rep["kappa"] == n // 2
        assert rep["forbidden_free"] is True
        assert rep["hamiltonian_connected"] is False
        assert rep["outcome_kind"] == "toughness_witness"
        assert rep["outcome_validated"] is True
        assert rep["cut_is_one_part"] is True
        assert rep["k"] == n // 4
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"tightness checks took {elapsed:.1f}s"
    announce(capsys, f"criterion 1 (tightness n=4,8,12 in {elapsed:.2f}s): PASS")


def test_criterion_2_exhaustive_sweep(capsys, exhaustive_sweep_summary):
    s = exhaustive_sweep_summary
    assert s.graphs == 1 << 21
    assert s.violations == [], s.violations[:5]
    assert s.validation_failures == 0
    assert s.outcome_tally.get("stalled", 0) == 0
    # every hypothesis-satisfying graph was extracted on all 21 pairs
    satisfying = s.satisfying.get(1, 0) + s.satisfying.get(2, 0)
    assert s.outcome_tally.get("hamilton_path", 0) == 21 * satisfying
    # regression pin, derived from the exact subset-enumeration oracles
    assert s.satisfying == {1: 652, 2: 14956}
    assert s.elapsed_s < 1800, f"sweep took {s.elapsed_s:.0f}s"
    announce(
        capsys,
        "criterion 2 (exhaustive n=7, k=1,2: "
        f"{s.graphs} graphs, 0 violations, {s.elapsed_s:.0f}s): PASS",
    )


def test_criterion_3_randomized_sweep(capsys, gnp_sweep_summary):
    s = gnp_sweep_summary
    assert s.graphs == len(GNP_POOL) * GNP_SAMPLES >= 10_000
    assert s.violations == [], s.violations[:5]
    assert s.validation_failures == 0
    announce(
        capsys,
        f"criterion 3 (randomized sweep, {s.graphs} samples, k=1,2,3, "
        f"0 violations, {s.elapsed_s:.0f}s): PASS",
    )


# --- criterion 4: certificate soundness and mutation fuzzing -----------------


def _truly_valid(G, k, u, v, d):
    """Ground-truth validity of an outcome record, written directly from
    the definitions and independently of the package validator."""
    try:
        kind = d["kind"]
        if kind == "hamilton_path":
            p = list(d["path"])
            return (
                sorted(p) == list(range(G.n))
                and p[0] == u
                and p[-1] == v
                and all(G.has_edge(a, b) for a, b in zip(p, p[1:]))
            )
        if kind == "small_cut":
            cut = set(d["cut"])
            if not all(isinstance(w, int) and 0 <= w < G.n for w in cut):
                return False
            return len(cut) < 2 * k and len(components_after_removal(G, cut)) >= 2
        if kind == "forbidden_induced":
            z, w = d["edge"]
            members = set(d["independent"])
            vs = {z, w} | members
            if not all(isinstance(c, int) and 0 <= c < G.n for c in vs):
                return False
            if len(vs) != k + 2 or len(members) != k:
                return False
            if not G.has_edge(z, w):
                return False
            pairs = [(a, b) for a in sorted(vs) for b in sorted(vs) if a < b]
            edge_count = sum(1 for a, b in pairs if G.has_edge(a, b))
            return edge_count == 1
        if kind == "toughness_witness":
            cut = set(d["cut"])
            members = set(d["independent"])
            if not all(isinstance(c, int) and 0 <= c < G.n for c in cut | members):
                return False
            if cut & members or cut | members != set(range(G.n)):
                return False
            if any(
                G.has_edge(a, b) for a in members for b in members if a < b
            ):
                return False
            comps = components_after_removal(G, cut)
            return len(comps) >= 2 and 1 <= len(cut) <= len(comps)
        return False
    except (KeyError, TypeError, ValueError, IndexError):
        return False


def _mutate(rng, d, n):
    d = {key: (list(val) if isinstance(val, list) else val) for key, val in d.items()}
    kind = d["kind"]
    op = rng.randrange(4)
    if kind == "hamilton_path":
        p = d["path"]
        if op == 0 and len(p) >= 2:
            i, j = rng.sample(range(len(p)), 2)
            p[i], p[j] = p[j], p[i]
        elif op == 1 and len(p) >= 2:
            del p[rng.randrange(len(p))]
        elif op == 2:
            p[rng.randrange(len(p))] = rng.randrange(n)
        else:
            p.append(rng.randrange(n))
    elif kind == "small_cut":
        cut = set(d["cut"])
        if op == 0 and cut:
            cut.discard(rng.choice(sorted(cut)))
        elif op == 1:
            cut |= {rng.randrange(n) for _ in range(rng.randint(1, n))}
        elif op == 2:
            cut = set(rng.sample(range(n), rng.randint(0, n - 1)))
        else:
            d["k"] = max(1, d["k"] - rng.randint(1, 2))
            cut |= {rng.randrange(n)}
        d["cut"] = sorted(cut)
    elif kind == "forbidden_induced":
        if op == 0:
            d["edge"] = sorted(rng.sample(range(n), 2))
        elif op == 1 and d["independent"]:
            members = set(d["independent"])
            members.discard(rng.choice(sorted(members)))
            members.add(rng.randrange(n))
            d["independent"] = sorted(members)
        elif op == 2:
            d["independent"] = sorted(set(d["independent"]) | {rng.randrange(n)})
        else:
            d["independent"] = sorted(
                set(rng.sample(range(n), min(n, len(d["independent"]))))
            )
    elif kind == "toughness_witness":
        cut = set(d["cut"])
        members = set(d["independent"])
        if op == 0 and cut:
            w = rng.choice(sorted(cut))
            cut.discard(w)
            members.add(w)
        elif op == 1 and members:
            w = rng.choice(sorted(members))
            members.discard(w)
            cut.add(w)
        elif op == 2:
            cut = set(rng.sample(range(n), rng.randint(0, n - 1)))
            members = set(range(n)) - cut
        else:
            members.add(rng.randrange(n))
        d["cut"] = sorted(cut)
        d["independent"] = sorted(members)
    return d


def test_criterion_4_certificate_soundness(capsys, certificate_pool):
    assert certificate_pool, "empty outcome pool"
    certificates = [
        item for item in certificate_pool if item[4].kind in CERTIFICATE_KINDS
    ]
    assert len(certificates) >= 100, "pool produced too few certificates"

    # every emitted certificate passes both the validator and ground truth
    for G, k, u, v, outcome, _ in certificate_pool:
        rep = validate_outcome(G, k, u, v, outcome)
        assert rep.accepted, (outcome, rep)
        assert _truly_valid(G, k, u, v, outcome_to_dict(outcome, k, u, v))

    # mutation fuzzing: 10^3 genuinely-broken records, all rejected
    rng = Random("hamcert-tests:fuzz")
    rejected = attempted = 0
    invalid = 0
    while invalid < 1000:
        attempted += 1
        assert attempted < 100_000, "mutation search not converging"
        G, k, u, v, outcome, _ = rng.choice(certificate_pool)
        d = _mutate(rng, outcome_to_dict(outcome, k, u, v), G.n)
        if _truly_valid(G, d["k"], d["u"], d["v"], d):
            continue  # the mutation happened to stay valid; skip it
        invalid += 1
        try:
            mutated, mk, mu, mv = outcome_from_dict(d)
        except Exception:
            rejected += 1  # unparsable records count as rejected
            continue
        if not validate_outcome(G, mk, mu, mv, mutated).accepted:
            rejected += 1
    assert rejected == invalid == 1000
    announce(
        capsys,
        f"criterion 4 (soundness: {len(certificates)} certificates valid, "
        "1000/1000 mutants rejected): PASS",
    )


def test_criterion_5_oracle_equivalence(capsys):
    checked = 0
    for n in range(1, 7):
        for G in exhaustive_graphs(n):
            assert vertex_connectivity(G) == vertex_connectivity_bruteforce(G)
            if not G.is_complete():
                t = toughness(G)
                comps = components_after_removal(G, t.cut)
                assert len(comps) >= 2
                assert Fraction(len(t.cut), len(comps)) == t.value
            for k in (1, 2):
                assert (find_induced_p2_plus_kp1(G, k) is not None) == (
                    find_forbidden_naive(G, k)
                )
            checked += 1
    rng = Random("hamcert-tests:oracle")
    for _ in range(1000):
        n = rng.randint(1, 8)
        G = graph_from_code(n, rng.getrandbits(n * (n - 1) // 2))
        assert vertex_connectivity(G) == vertex_connectivity_bruteforce(G)
        if not G.is_complete():
            t = toughness(G)
            comps = components_after_removal(G, t.cut)
            assert Fraction(len(t.cut), len(comps)) == t.value
        k = rng.randint(1, 3)
        assert (find_induced_p2_plus_kp1(G, k) is not None) == find_forbidden_naive(G, k)
        checked += 1
    announce(capsys, f"criterion 5 (oracle equivalence on {checked} graphs): PASS")


def test_criterion_6_corollary_support(capsys):
    # connectivity lower bound from toughness, all non-complete graphs n <= 6
    checked = 0
    for n in range(2, 7):
        for G in exhaustive_graphs(n):
            if G.is_complete():
                continue
            t = toughness(G)
            assert vertex_connectivity(G) >= math.ceil(2 * t.value)
            checked += 1

    # samples from the randomized pools that are 2-tough and free of the
    # k=2 pattern must be hamiltonian-connected
    strong = 0
    for n, p in GNP_POOL:
        for i in range(150):
            G = gnp_graph(n, p, GNP_SEED, i)
            kappa, tough_gt1 = quick_hypotheses(G)
            if not (kappa >= 4 and tough_gt1):
                continue  # cheap prefilter before the exact toughness scan
            t = toughness(G)
            if t.is_infinite or t.value >= 2:
                if find_induced_p2_plus_kp1(G, 2) is None:
                    assert is_hamiltonian_connected(G).is_hamiltonian_connected
                    strong += 1
    announce(
        capsys,
        f"criterion 6 (corollary: {checked} connectivity bounds, "
        f"{strong} 2-tough pattern-free samples hamiltonian-connected): PASS",
    )


def test_criterion_7_progress_bound(capsys, exhaustive_sweep_summary, gnp_sweep_summary, certificate_pool):
    assert exhaustive_sweep_summary.max_extension_overshoot == 0
    assert gnp_sweep_summary.max_extension_overshoot == 0
    for G, k, u, v, _, steps in certificate_pool:
        assert steps <= G.n - 2
    for n in (4, 8, 12):
        G = complete_bipartite(n // 2, n // 2)
        res = extract(G, max(1, n // 4), 0, 1)
        assert res.extended_steps <= n - 2
    announce(capsys, "criterion 7 (extension steps bounded by n-2 everywhere): PASS")

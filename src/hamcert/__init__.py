"""Certified spanning-path extraction for small graphs.

Given a graph, a parameter k, and two endpoints, the engine either
produces a spanning path between the endpoints or a machine-checkable
certificate that one of three structural hypotheses fails: connectivity
below 2k, an induced edge plus k isolated vertices, or toughness at
most one. Exact invariant oracles and an independent certificate
validator round out the toolkit.
"""

from .certify import ValidationReport, validate_outcome
from .engine import ExtractionResult, OrientedPath, extract
from .errors import CapacityError, Graph6ParseError, GraphInputError
from .graph import (
    FamilySpec,
    Graph,
    build_graph,
    complete_bipartite,
    complete_graph,
    components_after_removal,
    cycle_graph,
    exhaustive_graphs,
    generate,
    gnp_graph,
    graph_from_code,
    is_connected,
    parse_family,
    path_graph,
)
from .graph6 import parse_graph6, read_graph6_lines, write_graph6
from .invariants import (
    HypothesisReport,
    Toughness,
    cut_scan,
    find_induced_p2_plus_kp1,
    hamilton_path_between,
    hypothesis_check,
    is_hamiltonian_connected,
    toughness,
    vertex_connectivity,
    vertex_connectivity_bruteforce,
)
from .outcomes import (
    ForbiddenInduced,
    HamiltonPath,
    Outcome,
    SmallCut,
    Stalled,
    ToughnessWitness,
    outcome_from_dict,
    outcome_from_json,
    outcome_to_dict,
    outcome_to_json,
)
from .sweep import SweepConfig, SweepSummary, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ExtractionResult",
    "FamilySpec",
    "ForbiddenInduced",
    "Graph",
    "Graph6ParseError",
    "GraphInputError",
    "HamiltonPath",
    "HypothesisReport",
    "OrientedPath",
    "Outcome",
    "SmallCut",
    "Stalled",
    "SweepConfig",
    "SweepSummary",
    "Toughness",
    "ToughnessWitness",
    "ValidationReport",
    "build_graph",
    "complete_bipartite",
    "complete_graph",
    "components_after_removal",
    "cut_scan",
    "cycle_graph",
    "exhaustive_graphs",
    "extract",
    "find_induced_p2_plus_kp1",
    "generate",
    "gnp_graph",
    "graph_from_code",
    "hamilton_path_between",
    "hypothesis_check",
    "is_connected",
    "is_hamiltonian_connected",
    "outcome_from_dict",
    "outcome_from_json",
    "outcome_to_dict",
    "outcome_to_json",
    "parse_family",
    "parse_graph6",
    "path_graph",
    "read_graph6_lines",
    "run_sweep",
    "toughness",
    "validate_outcome",
    "vertex_connectivity",
    "vertex_connectivity_bruteforce",
    "write_graph6",
]

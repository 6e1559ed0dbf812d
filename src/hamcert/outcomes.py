"""Extraction outcomes and their line-oriented JSON wire format.

These types are shared by the extraction engine and the independent
validator; they carry data only, no checking logic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import GraphInputError


@dataclass(frozen=True)
class HamiltonPath:
    kind = "hamilton_path"
    path: tuple[int, ...]


@dataclass(frozen=True)
class SmallCut:
    """Claimed vertex cut of size < 2k."""

    kind = "small_cut"
    cut: frozenset[int]


@dataclass(frozen=True)
class ForbiddenInduced:
    """Claimed induced one-edge-plus-k-isolated-vertices pattern."""

    kind = "forbidden_induced"
    edge: tuple[int, int]
    independent: frozenset[int]


@dataclass(frozen=True)
class ToughnessWitness:
    """Claimed cut refuting toughness > 1: removing ``cut`` isolates
    the independent set ``independent`` = V(G) \\ cut."""

    kind = "toughness_witness"
    cut: frozenset[int]
    independent: frozenset[int]


@dataclass(frozen=True)
class Stalled:
    """Rule 7 could neither extend nor certify: possible only for
    k >= 2 and only off the hypotheses. A constructed start path reaches
    it; no stall has been seen from ``extract``'s own start path."""

    kind = "stalled"
    diagnostic: str


Outcome = HamiltonPath | SmallCut | ForbiddenInduced | ToughnessWitness | Stalled

CERTIFICATE_KINDS = ("small_cut", "forbidden_induced", "toughness_witness")


def outcome_to_dict(outcome: Outcome, k: int, u: int, v: int) -> dict:
    d: dict = {"kind": outcome.kind, "k": k, "u": u, "v": v}
    if isinstance(outcome, HamiltonPath):
        d["path"] = list(outcome.path)
    elif isinstance(outcome, SmallCut):
        d["cut"] = sorted(outcome.cut)
    elif isinstance(outcome, ForbiddenInduced):
        d["edge"] = list(outcome.edge)
        d["independent"] = sorted(outcome.independent)
    elif isinstance(outcome, ToughnessWitness):
        d["cut"] = sorted(outcome.cut)
        d["independent"] = sorted(outcome.independent)
    elif isinstance(outcome, Stalled):
        d["diagnostic"] = outcome.diagnostic
    return d


def outcome_to_json(outcome: Outcome, k: int, u: int, v: int) -> str:
    return json.dumps(outcome_to_dict(outcome, k, u, v), sort_keys=True)


def _json_int(x, name: str) -> int:
    # bool is an int subclass, and JSON floats or strings must not be coerced
    if type(x) is not int:
        raise GraphInputError(
            f"malformed outcome record: {name} needs an integer, got {type(x).__name__}"
        )
    return x


def _json_ints(d: dict, name: str) -> list[int]:
    xs = d[name]
    if not isinstance(xs, list):
        raise GraphInputError(f"malformed outcome record: {name} needs a list of integers")
    return [_json_int(x, name) for x in xs]


def outcome_from_dict(d: dict) -> tuple[Outcome, int, int, int]:
    """Inverse of outcome_to_dict; returns (outcome, k, u, v). Every number
    must be a JSON integer and a diagnostic a JSON string; anything else
    raises GraphInputError."""
    if not isinstance(d, dict):
        raise GraphInputError("malformed outcome record: not a JSON object")
    try:
        kind = d["kind"]
        k, u, v = (_json_int(d[name], name) for name in ("k", "u", "v"))
        if kind == "hamilton_path":
            return HamiltonPath(tuple(_json_ints(d, "path"))), k, u, v
        if kind == "small_cut":
            return SmallCut(frozenset(_json_ints(d, "cut"))), k, u, v
        if kind == "forbidden_induced":
            edge = _json_ints(d, "edge")
            if len(edge) != 2:
                raise GraphInputError("malformed outcome record: edge needs exactly two vertices")
            independent = frozenset(_json_ints(d, "independent"))
            return ForbiddenInduced(tuple(edge), independent), k, u, v
        if kind == "toughness_witness":
            cut = frozenset(_json_ints(d, "cut"))
            return ToughnessWitness(cut, frozenset(_json_ints(d, "independent"))), k, u, v
        if kind == "stalled":
            diagnostic = d["diagnostic"]
            if not isinstance(diagnostic, str):
                raise GraphInputError("malformed outcome record: diagnostic needs a string")
            return Stalled(diagnostic), k, u, v
    except KeyError as exc:
        raise GraphInputError(f"malformed outcome record: missing {exc}") from exc
    raise GraphInputError(f"unknown outcome kind {kind!r}")


def outcome_from_json(text: str) -> tuple[Outcome, int, int, int]:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"outcome record is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphInputError("outcome record is nested too deeply") from exc
    return outcome_from_dict(d)

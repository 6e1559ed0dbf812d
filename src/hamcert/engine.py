"""Certified Hamilton-path extraction.

The engine keeps an oriented (u,v)-path and applies the paper's case
analysis as a fixed cascade, rules 1-9, and nothing else. Each step
either lengthens the path by an explicit rotation or emits a
machine-checkable certificate that one of the three hypotheses
(2k-connectivity, freeness from the edge-plus-k-isolated-vertices
pattern, toughness > 1) fails. Only rule 7, and only for k >= 2, can
do neither. That step is reported as ``Stalled`` under rule 7's name
and never rescued; on a graph meeting all three hypotheses it is a bug.
A constructed start path reaches the stall on a graph that fails the
hypotheses; no stall has been seen from ``extract``'s own start path.

Every rotation is a splice that replaces one stretch of the path with a
new middle, built from segments of the path, some reversed, plus
off-path vertices. Every path the engine holds is a path of G: the
start path is checked once, and each splice checks the stretch it
replaced, its new vertices and the two joins, before it is returned.
Every certificate is assembled from the concrete adjacency facts the
scans established.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EngineError, GraphInputError
from .graph import Graph, bits, components_masks, edges_within, is_connected, mask_of
from .invariants import forbidden_at
from .outcomes import (
    ForbiddenInduced,
    HamiltonPath,
    Outcome,
    SmallCut,
    Stalled,
    ToughnessWitness,
)

# --- oriented paths ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OrientedPath:
    """A simple (u,v)-path, immutable, equal, hashed and printed by ``seq``
    alone, with its vertex set in ``mask``. A rule that needs path order
    reads it from ``seq`` at the neighbor positions the cascade's one walk
    recorded."""

    seq: tuple[int, ...]
    mask: int = field(init=False, compare=False, repr=False)  # the path's vertex set

    def __post_init__(self):
        mask = mask_of(self.seq)
        if mask.bit_count() != len(self.seq):
            raise EngineError(f"repeated vertex in path {self.seq}")
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _trusted(cls, seq: tuple[int, ...], mask: int) -> "OrientedPath":
        """The path ``seq`` with vertex set ``mask``, both from ``_checked``,
        which has already refused a repeated vertex, or from a path that
        ``reversed`` turns round. It fills the two slots through their
        descriptors, which skips the frozen ``__setattr__`` and
        ``__post_init__``'s second walk."""
        path = object.__new__(cls)
        _set_seq(path, seq)
        _set_mask(path, mask)
        return path

    def reversed(self) -> "OrientedPath":
        return OrientedPath._trusted(self.seq[::-1], self.mask)


# the slots' own setters, which bypass the frozen ``__setattr__``
_set_seq, _set_mask = (vars(OrientedPath)[name].__set__ for name in ("seq", "mask"))


def initial_path(G: Graph, u: int, v: int) -> OrientedPath:
    """The lexicographically least shortest (u,v)-path. The layer search
    runs from v, so each step from u takes the lowest vertex that is still
    on a shortest path to v."""
    if u == v:
        raise GraphInputError("endpoints must be distinct")
    if G.has_edge(u, v):
        return OrientedPath((u, v))
    try:
        interior = _path_through_component(G, G.full_mask & ~(1 << u | 1 << v), v, u)
    except EngineError:
        raise GraphInputError(f"vertices {u} and {v} are disconnected") from None
    # the stretch between u and v of (u, v): every edge of the result is checked
    return _checked(G, OrientedPath((u, v)), 1, interior[::-1], 1, "start path")


# --- rotations --------------------------------------------------------------


def _checked(
    G: Graph, P: OrientedPath, head: int, middle: tuple[int, ...], tail: int, splice: str
) -> OrientedPath:
    """P with the stretch between its first ``head`` vertices and its last
    ``tail`` vertices replaced by ``middle``, validated in G: a path with
    P's endpoints, strictly longer and keeping every vertex of P; any
    failure names the splice.

    Every path the engine holds is a path of G: the start path is checked
    once, and each splice checks the stretch it replaced. So the kept
    vertices, P's minus the replaced stretch, hold no repeat and their
    edges are P's; one walk tests each middle vertex against them and the
    middle vertices before it, and the edges from P's vertex before the
    stretch through ``middle`` to P's vertex after it. Nothing else is
    read from how the splice built ``middle``."""
    old = P.seq
    cut = len(old) - tail
    if not 1 <= head <= cut <= len(old):
        raise EngineError(f"{splice}: stretch [{head}:{cut}] out of range for {old}")
    seq = old[:head] + middle + old[cut:]
    adj = G.adj
    a = old[head - 1]
    mask = P.mask ^ mask_of(old[head:cut])  # the kept vertices
    for b in middle:
        bit = 1 << b
        if mask & bit:
            raise EngineError(f"{splice}: repeated vertex in path {seq}")
        if not adj[a] & bit:
            raise EngineError(f"{splice}: path uses missing edge {a}-{b}")
        mask |= bit
        a = b
    if tail and not adj[a] >> old[cut] & 1:
        raise EngineError(f"{splice}: path uses missing edge {a}-{old[cut]}")
    if seq[-1] != old[-1]:  # head >= 1 keeps the first
        problem = "moved the endpoints"
    elif len(seq) <= len(old):
        problem = "did not lengthen the path"
    elif P.mask & ~mask:
        problem = "dropped a path vertex"
    else:
        return OrientedPath._trusted(seq, mask)
    raise EngineError(f"{splice} {problem}: {old} -> {seq}")


def via_component_path(
    G: Graph, P: OrientedPath, pi: int, pj: int,
    interior: tuple[int, ...], bridge: tuple[int, ...] = (),
) -> OrientedPath:
    """The detour P[..pi] + interior + reversed(P(pi..pj]) + bridge + P(pj..]
    for positions pi before pj on P, read from the neighbor positions the
    cascade's one walk holds: rule 1's insertion (pj = pi + 1), rules 2 and
    5's detour, and rule 8's absorption (interior x, bridge y)."""
    seq = P.seq
    return _checked(G, P, pi + 1, interior + seq[pj:pi:-1] + bridge, len(seq) - pj - 1, "detour")


def three_case(G: Graph, P: OrientedPath, a: int, x_mask: int, x: int) -> OrientedPath:
    """Rotation at the consecutive pair (a, a+): the first two common
    neighbors of a and a+ in ``x_mask``, a set of successors of x's path
    neighbors, give bases xp before xq, and a's position picks branch A
    (a before xp), B (a after xq) or C (a between them)."""
    seq = P.seq
    pa = seq.index(a)
    pb = pa + 1
    picks = sorted(map(seq.index, bits(G.adj[a] & G.adj[seq[pb]] & x_mask)))[:2]
    if len(picks) < 2:
        raise EngineError(f"three-case rotation needs two common neighbors, got {len(picks)}")
    pp, pq = (p - 1 for p in picks)
    if pa < pp:  # replace P[a+ .. xq]
        head, middle, tail = pb, seq[pp + 1 : pq + 1] + (x,) + seq[pp:pa:-1], len(seq) - pq - 1
    elif pq < pa:  # replace P(xp .. a]
        head, middle, tail = pp + 1, (x,) + seq[pq:pp:-1] + seq[pa:pq:-1], len(seq) - pb
    else:  # replace P(xp .. xq]
        head, middle, tail = pp + 1, (x,) + seq[pq:pa:-1] + seq[pp + 1 : pb], len(seq) - pq - 1
    return _checked(G, P, head, middle, tail, "three-case rotation")


# --- path structure ---------------------------------------------------------


def _odd_sets(segs: tuple[tuple[int, ...], ...]) -> int:
    """S', the union of the odd-position vertices of every segment, as the
    mask rules 7-9 read: counted forward from each neighbor for segments
    1..t, backward from the first neighbor for segment 0."""
    out = mask_of(segs[0][::-2])
    for seg in segs[1:]:
        out |= mask_of(seg[::2])
    return out


# --- helpers ----------------------------------------------------------------


def _path_through_component(G: Graph, comp_mask: int, a: int, b: int) -> tuple[int, ...]:
    """Shortest path interior inside ``comp_mask`` joining a neighbor of a
    to a neighbor of b: an off-path component and two path vertices that
    see it, or every vertex but the two ends of the start path. The
    search runs one layer at a time; ties go to the lowest target in the
    first layer that meets the targets, then back through the lowest
    neighbor in each earlier layer."""
    adj = G.adj
    frontier = adj[a] & comp_mask
    targets = adj[b] & comp_mask
    if not frontier or not targets:
        raise EngineError("component path requested without anchors")
    hit = frontier & targets
    if hit:  # one vertex sees both ends
        return ((hit & -hit).bit_length() - 1,)
    layers = []
    seen = frontier
    while not hit:
        layers.append(frontier)
        nxt = 0
        for w in bits(frontier):
            nxt |= adj[w]
        frontier = nxt & comp_mask & ~seen
        if not frontier:
            raise EngineError("component path search exhausted")
        seen |= frontier
        hit = frontier & targets
    z = (hit & -hit).bit_length() - 1
    out = [z]
    for layer in reversed(layers):
        near = adj[z] & layer
        z = (near & -near).bit_length() - 1
        out.append(z)
    return tuple(reversed(out))


def _forbidden_or_bug(G, k, edge, candidates) -> ForbiddenInduced:
    out = forbidden_at(G, k, edge, candidates, mask_of(candidates))
    if out is None:
        raise EngineError(
            f"failed to assemble a guaranteed forbidden witness at edge {edge}"
        )
    return out


# --- the claim cascade ------------------------------------------------------


def _choose_x_set(plus: tuple[int, ...], k: int, forced: list[int]) -> list[int]:
    """2k-1 members of ``plus``, the successors in path order: the forced
    anchors, then the earliest others; deterministic."""
    size = 2 * k - 1
    out = sorted(set(forced), key=plus.index)
    if len(out) > size:
        raise EngineError("forced anchors exceed the reference-set size")
    for w in plus:
        if len(out) == size:
            break
        if w not in out:
            out.append(w)
    if len(out) < size:
        raise EngineError("successor set too small for the reference set")
    return out


def _scan_segment(
    G: Graph,
    k: int,
    P: OrientedPath,
    x: int,
    plus: tuple[int, ...],
    seg: tuple[int, ...],
) -> OrientedPath | ForbiddenInduced | None:
    """Parity scan of ``seg``, the stretch between two path neighbors of x
    (claims 3/4 machinery).

    Returns None when clean, else the rotated path or the forbidden
    witness the scan found. Odd positions must avoid the successor set
    (just seg[0] when 2k-1 == 1); even positions must see at least k+1
    members of the reference set.
    """
    anchor_succ = seg[0]
    union_mask = mask_of(plus) if 2 * k - 1 >= 2 else 1 << anchor_succ
    if G.adj[anchor_succ] & union_mask:
        raise EngineError("successor set not independent at scan time")
    jstar = None
    xr = None
    for j in range(3, len(seg) + 1, 2):
        hits = G.adj[seg[j - 1]] & union_mask
        if hits:
            jstar = j
            xr = next(w for w in plus if hits >> w & 1)
            break
    forced = [anchor_succ] if jstar is None else [anchor_succ, xr]
    X = _choose_x_set(plus, k, forced)
    x_mask = mask_of(X)
    limit = jstar if jstar is not None else len(seg)
    for j in range(2, limit + 1, 2):
        w = seg[j - 1]
        if (G.adj[w] & x_mask).bit_count() <= k:
            return _forbidden_or_bug(G, k, (seg[j - 2], w), [x] + X)
    if jstar is None:
        return None
    w = seg[jstar - 1]
    if (G.adj[w] & x_mask).bit_count() <= k:
        return _forbidden_or_bug(G, k, (xr, w), [x] + X)
    return three_case(G, P, seg[jstar - 2], x_mask, x)


# One step of the cascade: the rule that fired, and either the lengthened
# path or the terminal outcome.
Step = tuple[str, OrientedPath | Outcome]


def _singleton_phase(G: Graph, k: int, P: OrientedPath, x: int, at: tuple[int, ...]) -> Step:
    """Rules 5-9 on the isolated vertex x, whose path neighbors sit at the
    positions ``at`` from the cascade's one walk, so their successors,
    predecessors and segments are slices of P: the parity scans, the
    even-segment rule, the independence scans, and the toughness endgame."""
    seq = P.seq
    last = len(seq) - 1
    plus = tuple(seq[i + 1] for i in at if i != last)  # plus[i] follows seq[at[i]]
    minus = tuple(seq[i - 1] for i in at if i)
    segs = tuple(seq[a + 1 : b] for a, b in zip((-1, *at), (*at, len(seq))))
    t = len(at)

    # rule 5: parity scans, forward segments then the reversed head
    for i in range(1, t + 1):
        seg = segs[i]
        if not seg:
            continue
        hit = _scan_segment(G, k, P, x, plus, seg)
        if hit is not None:
            return "rule5", hit
    if segs[0]:
        # rule 2's detour on R, whose successors are P's predecessors, at positions last - i
        R = P.reversed()
        hit = _detour(G, R, 1 << x, tuple(last - i for i in reversed(at)))
        if hit is None:
            hit = _scan_segment(G, k, R, x, minus[::-1], segs[0][::-1])
        if hit is not None:
            return "rule5", hit.reversed() if isinstance(hit, OrientedPath) else hit

    # rule 6: every interior segment must have odd length
    for i in range(1, t):
        seg = segs[i]
        if len(seg) % 2 != 0:
            continue
        X = _choose_x_set(plus, k, [seg[0]])
        x_mask = mask_of(X)
        nxt = seq[at[i]]
        if (G.adj[nxt] & x_mask).bit_count() <= k - 1:
            return "rule6", _forbidden_or_bug(G, k, (x, nxt), X)
        a = seg[-1]
        if (G.adj[a] & x_mask).bit_count() <= k:
            raise EngineError("even-segment endpoint lost its reference count")
        return "rule6", three_case(G, P, a, x_mask, x)

    s_mask = _odd_sets(segs)
    wide_candidates = [x] + sorted(set(plus) | set(minus))

    # rule 7: the odd-position set must be independent
    edge = next(edges_within(G.adj, s_mask), None)
    if edge is not None:
        witness = forbidden_at(G, k, edge, wide_candidates, mask_of(wide_candidates))
        if witness is not None:
            return "rule7", witness
        return "rule7", Stalled(
            f"edge {edge[0]}-{edge[1]} inside the odd-position set, "
            "but no independent witness set of the required size"
        )

    # rule 8: outside vertices must avoid the successor set and S'
    for y in bits(G.full_mask & ~P.mask & ~(1 << x)):
        hits = [w for w in plus if G.adj[y] >> w & 1]
        if len(hits) >= 2:
            pp, pq = (at[plus.index(w)] for w in hits[:2])
            return "rule8", via_component_path(G, P, pp, pq, (x,), (y,))
        if hits:
            return "rule8", _forbidden_or_bug(G, k, (y, hits[0]), [x] + list(plus))
        s_hits = G.adj[y] & s_mask
        if s_hits:
            # {x} | plus avoids y, its lowest neighbour z in S' and their neighbourhoods,
            # lies in the independent {x} | S', and has at least 2k members (rule 3)
            z = (s_hits & -s_hits).bit_length() - 1
            return "rule8", _forbidden_or_bug(G, k, (y, z), wide_candidates)

    # rule 9: the toughness endgame. Rules 4, 7 and 8 leave the witness set
    # independent, and rule 6's odd segments make it no smaller than the cut
    s_star = frozenset(bits(P.mask ^ s_mask))  # S' lies on P
    witness_set = frozenset(bits(G.full_mask & ~P.mask | s_mask))
    return "rule9", ToughnessWitness(cut=s_star, independent=witness_set)


def _detour(G: Graph, P: OrientedPath, comp: int, at: tuple[int, ...]) -> OrientedPath | None:
    """Rule 2 on a component whose path neighbors sit at the positions ``at``
    from the cascade's one walk: when two of their successors are adjacent,
    the detour through the component between those two neighbors, else None."""
    seq = P.seq
    base = {seq[i + 1]: i for i in at if i + 1 < len(seq)}  # successor -> its neighbor's position
    bad = next(edges_within(G.adj, mask_of(base)), None)
    if bad is None:
        return None
    pi, pj = sorted(map(base.get, bad))
    return via_component_path(G, P, pi, pj, _path_through_component(G, comp, seq[pi], seq[pj]))


def extend_or_certify(G: Graph, k: int, P: OrientedPath) -> Step:
    """One step: apply the first applicable rule of the fixed cascade. P
    must be a path of G, as every path the engine builds is: a splice
    checks only the stretch it replaced."""
    off = (1 << G.n) - 1 ^ P.mask  # P's vertices all lie in V(G)
    if not off:
        return "done", HamiltonPath(path=P.seq)
    # rule 1: consecutive neighbors of any component admit a splice. One
    # walk along the path per component, in lowest-vertex order, stops at
    # the first such pair in path order; a component without one leaves
    # the positions of its path neighbors x_1..x_t, in path order
    adj = G.adj
    seq = P.seq
    comps = []
    for comp in components_masks(adj, off):
        at = []
        for i, w in enumerate(seq):
            if adj[w] & comp:
                if at and at[-1] == i - 1:
                    interior = _path_through_component(G, comp, seq[i - 1], w)
                    return "rule1", via_component_path(G, P, i - 1, i, interior)
                at.append(i)
        comps.append((comp, tuple(at)))

    # rule 2: adjacent successors admit a detour through the component
    for comp, at in comps:
        detour = _detour(G, P, comp, at)
        if detour is not None:
            return "rule2", detour

    # rule 3: a component with few path neighbors is a small cut
    for comp, at in comps:
        if len(at) < 2 * k:
            cut = frozenset(seq[i] for i in at)
            if not G.full_mask & ~comp & ~mask_of(cut):
                raise EngineError("small-cut rule reached with nothing separated")
            return "rule3", SmallCut(cut=cut)

    # rule 4: a component edge joins an independent successor set
    for comp, at in comps:
        if comp.bit_count() == 1:
            continue
        edge = next(edges_within(adj, comp))  # comp is connected, so it has an edge
        return "rule4", _forbidden_or_bug(G, k, edge, [seq[i + 1] for i in at if i + 1 < len(seq)])

    # rules 5-9 on the singleton component with the lowest vertex
    comp, at = comps[0]
    x = (comp & -comp).bit_length() - 1
    return _singleton_phase(G, k, P, x, at)


# --- end-to-end extraction --------------------------------------------------


@dataclass(frozen=True)
class ExtractionResult:
    outcome: Outcome
    trace: tuple[str, ...]

    @property
    def extended_steps(self) -> int:
        # every trace entry but the terminal one lengthened the path
        return max(0, len(self.trace) - 1)

    @property
    def k_free(self) -> bool:
        """True when every step was rule 1 or rule 2 and the trace ends in
        ``done`` or ``disconnected``: then ``extract`` gives this same
        result for every k. ``is_connected``, ``initial_path`` and rules
        1-2 never read k, and the cascade tries rules 1 and 2 on every
        component before rule 3, so each step, and the final Hamilton path
        or empty cut, is the same whatever k is."""
        trace = self.trace
        ends = trace[-1:] in (("done",), ("disconnected",))
        return ends and _K_FREE_RULES.issuperset(trace[:-1])


_K_FREE_RULES = frozenset(("rule1", "rule2"))  # the rules that never read k


def extract(G: Graph, k: int, u: int, v: int) -> ExtractionResult:
    """Loop extend_or_certify from the lexicographically least shortest
    (u,v)-path until a Hamilton path or a certificate emerges;
    deterministic, at most n steps."""
    if k < 1:
        raise GraphInputError("k must be at least 1")
    if G.n < 3:
        raise GraphInputError("extraction needs n >= 3")
    if u == v or not (0 <= u < G.n and 0 <= v < G.n):
        raise GraphInputError("endpoints must be distinct vertices of G")
    if not is_connected(G):
        return ExtractionResult(outcome=SmallCut(cut=frozenset()), trace=("disconnected",))
    P = initial_path(G, u, v)
    trace: list[str] = []
    for _ in range(G.n + 1):
        rule, step = extend_or_certify(G, k, P)
        trace.append(rule)
        if not isinstance(step, OrientedPath):
            return ExtractionResult(outcome=step, trace=tuple(trace))
        if len(step.seq) <= len(P.seq):
            raise EngineError("non-increasing extension step")
        P = step
    raise EngineError("extraction exceeded the step bound")

"""Candidate set graph: what could run in the next layer, and what clashes.

Vertices are executable two-qubit gates ("cgates"), candidate SWAPs that
bring some pending gate closer, and SWAPs already in flight.  Edges mark
pairs that must not share a layer: qubit conflicts always, and crosstalk
pairs whose combined error inflation does not fit into the remaining
allowance.  Crosstalk pairs are considered cheapest-first, so the allowance
buys back as much parallelism as it can pay for.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

from .hardware import CouplingGraph, CrosstalkProfile, Edge, Mapping


@dataclass(frozen=True)
class PendingPair:
    """A two-qubit operation awaiting scheduling, identified by ``key``."""

    key: object
    logicals: tuple[int, int]


@dataclass(slots=True)
class SwapCandidate:
    """A coupling edge whose SWAP strictly reduces some pending gate's
    physical distance; ``helps`` holds the keys of those gates.  Not
    frozen: nothing hashes one, and ``useful_swaps`` builds about a dozen
    per layer."""

    edge: Edge
    helps: frozenset


@dataclass(slots=True)
class InProgressSwap:
    """A SWAP mid-flight: it still owns its qubits for ``remaining_time``
    more layers and cannot be interrupted.  ``gate_key`` names the circuit
    SWAP gate it runs; None marks a routing SWAP."""

    edge: Edge
    remaining_time: int
    helps: frozenset
    gate_key: object = None


@dataclass(slots=True)
class CsgVertex:
    vertex_id: int
    kind: str  # "cgate" | "swap" | "inprogress"
    edge: Edge
    gate_key: object = None
    remaining_time: int | None = None
    helps: frozenset = frozenset()

    def label(self) -> str:
        a, b = self.edge
        if self.kind == "cgate":
            return f"C:{self.gate_key}"
        if self.kind == "swap":
            return f"S:{a}-{b}"
        return f"P:{a}-{b}:{self.remaining_time}"


@dataclass
class Csg:
    """One iteration's candidate set graph.  ``adjacency[v]`` holds the
    vertices joined to ``v`` by either kind of edge: it is the one edge
    store, filled by ``build_csg``; do not modify it.  The priced
    ``crosstalk_edges`` are a part of it, ``conflict_edges`` the rest.
    ``window`` is the range [lo, hi) of allowance left that builds this
    graph: lo the total its permitted pairs spend, hi the least total a
    refused pair would have reached (inf with none refused)."""

    vertices: list[CsgVertex]
    crosstalk_edges: dict[tuple[int, int], float]
    permitted_pairs: list[tuple[int, int, float]]
    adjacency: list[set[int]] = field(repr=False, compare=False)
    window: tuple[float, float] = (0.0, math.inf)

    @property
    def conflict_edges(self) -> set[tuple[int, int]]:
        """Every adjacency pair ``i < j`` that is not a crosstalk edge: the two
        are disjoint, as a pair is priced only when it is not already joined."""
        xtalk = self.crosstalk_edges
        return {(i, j) for j, ids in enumerate(self.adjacency) for i in ids if i < j and (i, j) not in xtalk}

    def to_dot(self, name: str = "csg") -> str:
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f'  v{v.vertex_id} [label="{v.label()}"];')
        for i, j in sorted(self.conflict_edges):
            lines.append(f"  v{i} -- v{j} [kind=conflict];")
        for i, j in sorted(self.crosstalk_edges):
            lines.append(f"  v{i} -- v{j} [kind=xtalk];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def executable_pairs(pending: list[PendingPair], mapping: Mapping, hw: CouplingGraph) -> list[PendingPair]:
    """Pending gates whose logical endpoints sit on adjacent physical qubits
    (two distinct ones, as a pending pair's logicals are distinct)."""
    l2p, edges = mapping.placement, hw.edges
    out = []
    for p in pending:
        a, b = l2p[p.logicals[0]], l2p[p.logicals[1]]
        if ((a, b) if a < b else (b, a)) in edges:
            out.append(p)
    return out


def useful_swaps(pending: list[PendingPair], mapping: Mapping, hw: CouplingGraph) -> list[SwapCandidate]:
    """Coupling edges whose SWAP reduces, by exactly one hop, the physical
    distance of at least one coupling-unsatisfied pending gate: each gate's
    ``CouplingGraph.closer_swaps``, merged per edge.
    """
    closer_swaps, l2p = hw.closer_swaps, mapping.placement
    helps: dict[Edge, list] = {}  # a pending gate's key is unique, so no set is needed
    for p in pending:
        for edge in closer_swaps(l2p[p.logicals[0]], l2p[p.logicals[1]]):
            helps.setdefault(edge, []).append(p.key)
    return [SwapCandidate(edge, frozenset(keys)) for edge, keys in sorted(helps.items())]


def cheapest_swap(candidates: list[SwapCandidate], hw: CouplingGraph) -> SwapCandidate:
    """The candidate with the least isolated ``edge_error`` (0.0 where the
    device has no rate); ties go to the lower edge."""
    return min(candidates, key=lambda s: (hw.edge_error.get(s.edge, 0.0), s.edge))


def closing_swap(pair: PendingPair, mapping: Mapping, hw: CouplingGraph) -> SwapCandidate | None:
    """The ``cheapest_swap`` bringing ``pair`` one hop closer; None if adjacent."""
    swaps = useful_swaps([pair], mapping, hw)
    return cheapest_swap(swaps, hw) if swaps else None


def _overshoots(
    dist, gate: tuple[int, int], edge: Edge, ids: list[int], edges: list[Edge], joined
) -> list[int]:
    """The vertices of ``ids`` outside ``joined`` whose SWAP (vertex ``i``
    on ``edges[i]``), run together with the SWAP on ``edge``, leaves the
    gate on physical qubits ``gate`` no closer.  Two SWAPs attacking one
    gate from opposite ends can cancel out: each alone reduces its
    distance, both together move the endpoints past each other.
    ``joined`` holds every vertex that shares a qubit with ``edge``, so the
    two SWAPs commute."""
    pa, pb = gate
    near = dist[pa][pb]
    a, b = edge
    # this SWAP's move, then each other one's
    pa = b if pa == a else a if pa == b else pa
    pb = b if pb == a else a if pb == b else pb
    out = []
    for i in ids:
        if i not in joined:
            c, d = edges[i]
            x = d if pa == c else c if pa == d else pa
            y = d if pb == c else c if pb == d else pb
            if dist[x][y] >= near:
                out.append(i)
    return out


def build_csg(
    items: list[tuple[Edge, object, object]],
    in_progress: list[InProgressSwap],
    pending: list[PendingPair],
    mapping: Mapping,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    allowance_left: float,
) -> Csg:
    """Assemble the candidate set graph for one scheduling iteration.  Its
    vertex ids are assigned deterministically: in-progress SWAPs first (by
    edge), then ``items``, ``(edge, helps, gate key)`` each: the cgates by
    key, then the candidate SWAPs by edge, a None key marking a SWAP, whose
    helps may be any collection of its gates' keys (its vertex freezes
    them).  No candidate sits on an in-flight edge: restarting a running
    SWAP would be a different operation on busy qubits anyway.

    Crosstalk pairs, each priced in ``profile.partners``, are sorted
    ascending by price and permitted while the running total stays within
    ``allowance_left``; only the pairs that did not fit become crosstalk
    edges.  Every edge goes into the adjacency, the CSG's one edge store;
    its conflict edges are derived.
    """
    l2p = mapping.placement
    vertices: list[CsgVertex] = []
    for ip in sorted(in_progress, key=attrgetter("edge")):
        vertices.append(CsgVertex(len(vertices), "inprogress", ip.edge, None, ip.remaining_time, ip.helps))
    flights = len(vertices)
    for edge, helps, key in items:
        if key is None:
            vertices.append(CsgVertex(len(vertices), "swap", edge, None, None, frozenset(helps)))
        else:
            vertices.append(CsgVertex(len(vertices), "cgate", edge, key))

    # Each vertex meets the earlier ones through three indexes instead of
    # all V^2 pairs, and each test keeps its precedence: a shared qubit,
    # then a joint overshoot, then two in-flight SWAPs (never priced), then
    # the crosstalk price.  An edge goes into the adjacency when it is found.
    dist = hw.all_pairs_distance()
    placed = None  # pending gate key -> its two physical qubits, built on first use
    edges = [v.edge for v in vertices]
    partners = profile.partners
    adjacency: list[set[int]] = [set() for _ in vertices]
    maybe_crosstalk: list[tuple[float, Edge, Edge, int, int]] = []
    by_qubit: dict[int, list[int]] = {}
    by_help: dict[object, list[int]] = {}
    by_edge: dict[Edge, list[int]] = {}
    for j, v in enumerate(vertices):
        edge = edges[j]
        joined = adjacency[j]
        for q in edge:
            ids = by_qubit.get(q)
            if ids is None:
                by_qubit[q] = [j]
                continue
            for i in ids:
                adjacency[i].add(j)
            joined.update(ids)
            ids.append(j)
        # An in-flight SWAP can carry help keys from the iteration it
        # started in; a gate that has since left the pending set cannot be
        # re-evaluated, so it cannot justify a conflict.
        for key in v.helps:
            ids = by_help.get(key)
            if ids is None:
                by_help[key] = [j]
                continue
            if placed is None:
                placed = {p.key: (l2p[p.logicals[0]], l2p[p.logicals[1]]) for p in pending}
            if key in placed:
                for i in _overshoots(dist, placed[key], edge, ids, edges, joined):
                    adjacency[i].add(j)
                    joined.add(i)
            ids.append(j)
        # the vertices before a flight are flights, and two in-flight SWAPs
        # were charged, if at all, when they started
        if j >= flights:
            for partner, cost in partners(edge).items():
                for i in by_edge.get(partner, ()):
                    if i not in joined:
                        maybe_crosstalk.append((cost, partner, edge, i, j))
        ids = by_edge.get(edge)
        if ids is None:
            by_edge[edge] = [j]
        else:
            ids.append(j)

    # (cost, e_i, e_j) ties happen (a cgate and a SWAP on one edge); the
    # vertex ids break them in the order of a nested i < j loop.
    maybe_crosstalk.sort()
    permitted: list[tuple[int, int, float]] = []
    crosstalk_edges: dict[tuple[int, int], float] = {}
    running = 0.0
    # Each admitted total is at most the final running and each refused one
    # at least ``refused``, so any allowance left in [running, refused), the
    # window, repeats every test.
    refused = math.inf
    for cost, _ea, _eb, i, j in maybe_crosstalk:
        total = running + cost
        if total <= allowance_left:
            running = total
            permitted.append((i, j, cost))
        else:
            if total < refused:
                refused = total
            crosstalk_edges[(i, j)] = cost
            adjacency[i].add(j)
            adjacency[j].add(i)
    return Csg(vertices, crosstalk_edges, permitted, adjacency, (running, refused))


def flight_color_zero(
    items: list[tuple[Edge, object, object]],
    in_progress: list[InProgressSwap],
    pending: list[PendingPair],
    mapping: Mapping,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
) -> list[tuple[Edge, object, object]]:
    """What color 0 of ``build_csg`` commits, for a layer with SWAPs in
    flight whose allowance left is below ``profile.cheapest_excess``: no
    pair can be permitted, so every crosstalk pair is an edge.  ``items``
    are ``build_csg``'s vertices past the flights, in vertex order, as
    ``(edge, helps, gate key)``: the cgates by key, then the candidate SWAPs
    off the in-flight edges by edge, a None gate key marking a SWAP; a
    SWAP's helps may be any collection of its gates' keys.  Returns the
    committed items, in that order.

    Color 0 holds the flights, then the flight-free vertices in
    Welsh–Powell order (degree descending, ties to the lower id) by first
    fit.  Two vertices that share no help key are joined exactly when one's
    edge is in the other's ``profile.ties``, so the flight-free vertices
    are those whose edge lies outside the union of the flights' ties.  A
    flight-free vertex's degree counts the items on the edges of its tie
    set, itself included, which adds one to every degree and so keeps
    their order, plus its joint overshoots off that set; first fit tests
    the taken vertices' edges against its tie set and the taken ids
    against its overshoots.  Fewer than two flight-free vertices all join.

    A flight's joint overshoots are not looked for.  Every caller computes
    its candidates on the drained mapping, the one that holds once every
    flight lands, so a flight helps a gate by moving one of its current
    qubits one hop closer, and a candidate free of that flight's qubits
    moves the other end: the two bring the gate two hops closer unless
    another flight moves that end, whose qubit the candidate then shares.
    """
    ties = profile.ties
    flight_ties = frozenset().union(*[ties[f.edge] for f in in_progress])
    free = [i for i, item in enumerate(items) if item[0] not in flight_ties]
    if len(free) < 2:
        return [items[i] for i in free]
    edges = [edge for edge, _, _ in items]
    edge_set = set(edges)
    # the items past the first on an edge, as a cgate and a SWAP can share one
    extra = Counter(edges) - Counter(edge_set) if len(edge_set) < len(edges) else None
    by_help: dict[object, list[int]] = {}
    for i, (_, helps, _) in enumerate(items):
        for key in helps:
            by_help.setdefault(key, []).append(i)
    if by_help:
        l2p = mapping.placement
        dist = hw.all_pairs_distance()
        placed = {p.key: (l2p[p.logicals[0]], l2p[p.logicals[1]]) for p in pending}

    ranked = []  # (-degree, i, tie set, overshoots) of each flight-free vertex
    for i in free:
        edge, helps, _ = items[i]
        tie = ties[edge]
        over = set()
        for key in helps:
            ids = by_help[key]
            if len(ids) > 1 and key in placed:
                over.update(j for j in _overshoots(dist, placed[key], edge, ids, edges, ()) if edges[j] not in tie)
        degree = len(tie & edge_set) + len(over)
        if extra:
            degree += sum(n for e, n in extra.items() if e in tie)
        ranked.append((-degree, i, tie, over))
    ranked.sort()  # the ids are unique, so no two sets are compared
    taken: list[int] = []
    taken_edges: set[Edge] = set()
    for _, i, tie, over in ranked:
        if taken_edges.isdisjoint(tie) and over.isdisjoint(taken):
            taken.append(i)
            taken_edges.add(edges[i])
    return [items[i] for i in sorted(taken)]

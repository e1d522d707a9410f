"""Candidate set graph: what could run in the next layer, and what clashes.

Vertices are executable two-qubit gates ("cgates"), candidate SWAPs that
bring some pending gate closer, and SWAPs already in flight.  Edges mark
pairs that must not share a layer: qubit conflicts always, and crosstalk
pairs whose combined error inflation does not fit into the remaining
allowance.  Crosstalk pairs are considered cheapest-first, so the allowance
buys back as much parallelism as it can pay for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hardware import CouplingGraph, CrosstalkProfile, Edge, Mapping, normalize_edge


@dataclass(frozen=True)
class PendingPair:
    """A two-qubit operation awaiting scheduling, identified by ``key``."""

    key: object
    logicals: tuple[int, int]


@dataclass(frozen=True)
class SwapCandidate:
    """A coupling edge whose SWAP strictly reduces some pending gate's
    physical distance; ``helps`` holds the keys of those gates."""

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
    """One iteration's candidate set graph.  ``build_csg`` fills the
    adjacency as it adds each conflict and crosstalk edge, so the edge
    collections must not change afterwards."""

    vertices: list[CsgVertex]
    conflict_edges: set[tuple[int, int]]
    crosstalk_edges: dict[tuple[int, int], float]
    permitted_pairs: list[tuple[int, int, float]]
    _adjacency: list[set[int]] = field(repr=False, compare=False)

    def neighbors(self, vid: int) -> set[int]:
        """Vertices joined to ``vid`` by either kind of edge (the graph's own
        set: do not modify it)."""
        return self._adjacency[vid]

    def degree(self, vid: int) -> int:
        return len(self._adjacency[vid])

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
    """Pending gates whose logical endpoints sit on adjacent physical qubits."""
    out = []
    for p in pending:
        pa, pb = mapping.phys(p.logicals[0]), mapping.phys(p.logicals[1])
        if hw.has_edge(pa, pb):
            out.append(p)
    return out


def useful_swaps(pending: list[PendingPair], mapping: Mapping, hw: CouplingGraph) -> list[SwapCandidate]:
    """Coupling edges whose SWAP reduces, by exactly one hop, the physical
    distance of at least one coupling-unsatisfied pending gate.

    A SWAP can move at most one endpoint of any unsatisfied gate (both
    endpoints on one edge would mean the gate is already executable), so the
    per-gate distance change is always in {-1, 0, +1}.
    """
    dist = hw.all_pairs_distance()
    helps: dict[Edge, set] = {}
    for p in pending:
        pa, pb = mapping.phys(p.logicals[0]), mapping.phys(p.logicals[1])
        cur = dist[pa][pb]
        if cur == 1:
            continue
        # Only a SWAP on an edge at one of the endpoints moves the gate.
        for moved, fixed in ((pa, pb), (pb, pa)):
            for nxt in hw.adjacency[moved]:
                edge = (moved, nxt) if moved < nxt else (nxt, moved)
                if dist[nxt][fixed] == cur - 1:
                    helps.setdefault(edge, set()).add(p.key)
    return [SwapCandidate(edge=e, helps=frozenset(helps[e])) for e in sorted(helps)]


def cheapest_swap(candidates: list[SwapCandidate], hw: CouplingGraph) -> SwapCandidate:
    """The candidate with the least isolated ``edge_error`` (0.0 where the
    device has no rate); ties go to the lower edge."""
    return min(candidates, key=lambda s: (hw.edge_error.get(s.edge, 0.0), s.edge))


def build_csg(
    cgates: list[PendingPair],
    candidate_swaps: list[SwapCandidate],
    in_progress: list[InProgressSwap],
    pending: list[PendingPair],
    mapping: Mapping,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    allowance_left: float,
) -> Csg:
    """Assemble the candidate set graph for one scheduling iteration.

    Vertex ids are assigned deterministically: in-progress SWAPs first (by
    edge), then cgates (by gate key), then candidate SWAPs (by edge).
    Crosstalk pairs are sorted ascending by ``profile.excess_error`` and
    permitted while the running total stays within ``allowance_left``; only
    the pairs that did not fit become crosstalk edges.
    """
    vertices: list[CsgVertex] = []
    for ip in sorted(in_progress, key=lambda s: s.edge):
        vertices.append(CsgVertex(len(vertices), "inprogress", ip.edge, None, ip.remaining_time, ip.helps))
    for p in sorted(cgates, key=lambda g: g.key):
        edge = normalize_edge(mapping.phys(p.logicals[0]), mapping.phys(p.logicals[1]))
        vertices.append(CsgVertex(len(vertices), "cgate", edge, p.key))
    busy_edges = {ip.edge for ip in in_progress}
    for sc in sorted(candidate_swaps, key=lambda s: s.edge):
        # The same physical SWAP may already be running; restarting it would
        # be a different operation on busy qubits anyway.
        if sc.edge not in busy_edges:
            vertices.append(CsgVertex(len(vertices), "swap", sc.edge, None, None, sc.helps))

    # Each vertex meets the earlier ones through three indexes instead of
    # all V^2 pairs, and each test keeps its precedence: a shared qubit,
    # then a joint overshoot, then two in-flight SWAPs (never priced), then
    # the crosstalk price.  An edge goes into the adjacency when it is found.
    dist = hw.all_pairs_distance()
    placed = {p.key: (mapping.phys(p.logicals[0]), mapping.phys(p.logicals[1])) for p in pending}
    partners = profile.partners
    adjacency: list[set[int]] = [set() for _ in vertices]
    conflict_edges: set[tuple[int, int]] = set()
    maybe_crosstalk: list[tuple[float, Edge, Edge, int, int]] = []
    by_qubit: dict[int, list[int]] = {}
    by_help: dict[object, list[int]] = {}
    by_edge: dict[Edge, list[int]] = {}
    for v in vertices:
        j = v.vertex_id
        joined = adjacency[j]
        a, b = v.edge
        for q in (a, b):
            ids = by_qubit.setdefault(q, [])
            for i in ids:
                conflict_edges.add((i, j))
                adjacency[i].add(j)
                joined.add(i)
            ids.append(j)
        # Two SWAPs attacking one gate from opposite ends can cancel out:
        # each alone reduces its distance, both together move the endpoints
        # past each other.  An in-flight SWAP can carry help keys from the
        # iteration it started in; a gate that has since left the pending
        # set cannot be re-evaluated, so it cannot justify a conflict.
        for i in {i for key in v.helps for i in by_help.get(key, ())} - joined:
            u = vertices[i]
            c, d = u.edge  # shares no qubit with (a, b): each qubit moves once
            moved = {a: b, b: a, c: d, d: c}
            for key in u.helps & v.helps:
                if key in placed:
                    pa, pb = placed[key]
                    if dist[moved.get(pa, pa)][moved.get(pb, pb)] >= dist[pa][pb]:
                        conflict_edges.add((i, j))
                        adjacency[i].add(j)
                        joined.add(i)
                        break
        for partner in partners(v.edge):
            for i in by_edge.get(partner, ()):
                u = vertices[i]
                if i in joined or (u.kind == "inprogress" and v.kind == "inprogress"):
                    # Two in-flight SWAPs: their interference, if any, was
                    # charged when they started.
                    continue
                maybe_crosstalk.append((profile.excess_error(u.edge, v.edge), u.edge, v.edge, i, j))
        for key in v.helps:
            by_help.setdefault(key, []).append(j)
        by_edge.setdefault(v.edge, []).append(j)

    # (cost, e_i, e_j) ties happen (a cgate and a SWAP on one edge); the
    # vertex ids break them in the order of a nested i < j loop.
    maybe_crosstalk.sort()
    permitted: list[tuple[int, int, float]] = []
    crosstalk_edges: dict[tuple[int, int], float] = {}
    running = 0.0
    for cost, _ea, _eb, i, j in maybe_crosstalk:
        if running + cost <= allowance_left:
            running += cost
            permitted.append((i, j, cost))
        else:
            crosstalk_edges[(i, j)] = cost
            adjacency[i].add(j)
            adjacency[j].add(i)
    return Csg(vertices, conflict_edges, crosstalk_edges, permitted, _adjacency=adjacency)

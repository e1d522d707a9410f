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

from .errors import HardwareError, InvariantError
from .hardware import CouplingGraph, CrosstalkProfile, Edge, Mapping, normalize_edge


@dataclass(frozen=True)
class Budget:
    """A crosstalk allowance and the units it is counted in: ``"error"``
    budgets the accumulated excess error mass of the committed link pairs,
    ``"pairs"`` simply counts them.  Only this class knows the units."""

    profile: CrosstalkProfile
    allowance: float = 0.0
    units: str = "error"

    def __post_init__(self):
        if self.units not in ("error", "pairs"):
            raise InvariantError(f"unknown allowance units {self.units!r}")

    def cost(self, e1: Edge, e2: Edge) -> float | None:
        """What running the two links in one layer costs the budget, or
        None when the profile does not pair them."""
        if self.profile.record_for(e1, e2) is None:
            return None
        return self.profile.excess_error(e1, e2) if self.units == "error" else 1.0

    def recorded_excess(self, e1: Edge, e2: Edge) -> float:
        """The excess error the ledger records for a profiled link pair."""
        try:
            return self.profile.excess_error(e1, e2)
        except HardwareError:
            if self.units != "pairs":
                raise
            # counting pairs, not error mass; devices without isolated
            # rates can still be budgeted this way
            return 0.0

    def spent(self, ledger) -> float:
        """How much of the allowance a ledger of ``LedgerEntry`` has used."""
        if self.units == "pairs":
            return float(len(ledger))
        return sum(e.excess for e in ledger)


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


@dataclass(frozen=True)
class InProgressSwap:
    """A SWAP mid-flight: it still owns its qubits for ``remaining_time``
    more layers and cannot be interrupted."""

    edge: Edge
    remaining_time: int
    helps: frozenset
    started_layer: int


@dataclass
class CsgVertex:
    vertex_id: int
    kind: str  # "cgate" | "swap" | "inprogress"
    edge: Edge
    gate_key: object = None
    remaining_time: int | None = None
    helps: frozenset = field(default_factory=frozenset)

    def label(self) -> str:
        a, b = self.edge
        if self.kind == "cgate":
            return f"C:{self.gate_key}"
        if self.kind == "swap":
            return f"S:{a}-{b}"
        return f"P:{a}-{b}:{self.remaining_time}"


@dataclass
class Csg:
    vertices: list[CsgVertex]
    conflict_edges: set[tuple[int, int]]
    crosstalk_edges: dict[tuple[int, int], float]
    permitted_pairs: list[tuple[int, int, float]]

    def neighbors(self, vid: int) -> set[int]:
        out = set()
        for i, j in self.conflict_edges:
            if i == vid:
                out.add(j)
            elif j == vid:
                out.add(i)
        for i, j in self.crosstalk_edges:
            if i == vid:
                out.add(j)
            elif j == vid:
                out.add(i)
        return out

    def degree(self, vid: int) -> int:
        return len(self.neighbors(vid))

    def adjacent(self, a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        return key in self.conflict_edges or key in self.crosstalk_edges

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


def useful_swaps(
    pending: list[PendingPair],
    mapping: Mapping,
    hw: CouplingGraph,
    excluded_edges: set[Edge] | None = None,
) -> list[SwapCandidate]:
    """Coupling edges whose SWAP reduces, by exactly one hop, the physical
    distance of at least one coupling-unsatisfied pending gate.

    A SWAP can move at most one endpoint of any unsatisfied gate (both
    endpoints on one edge would mean the gate is already executable), so the
    per-gate distance change is always in {-1, 0, +1}.
    """
    excluded = excluded_edges or set()
    dist = hw.all_pairs_distance()
    unsatisfied = []
    for p in pending:
        pa, pb = mapping.phys(p.logicals[0]), mapping.phys(p.logicals[1])
        if not hw.has_edge(pa, pb):
            unsatisfied.append((p, pa, pb))
    if not unsatisfied:
        return []
    out = []
    for edge in hw.sorted_edges():
        if edge in excluded:
            continue
        a, b = edge
        helps = set()
        for p, pa, pb in unsatisfied:
            # Swapping (a, b) relocates an endpoint that sits on a or b.
            na, nb = pa, pb
            if pa == a:
                na = b
            elif pa == b:
                na = a
            if pb == a:
                nb = b
            elif pb == b:
                nb = a
            if dist[na][nb] == dist[pa][pb] - 1:
                helps.add(p.key)
        if helps:
            out.append(SwapCandidate(edge=edge, helps=frozenset(helps)))
    return out


def _joint_overshoots(
    sa_edge: Edge,
    sb_edge: Edge,
    shared_keys: frozenset,
    pending_by_key: dict,
    mapping: Mapping,
    hw: CouplingGraph,
) -> bool:
    """True when applying both SWAPs together fails to strictly reduce the
    distance of some gate both of them claim to help.

    Two SWAPs attacking the same gate from opposite ends can cancel out:
    each alone reduces the distance, both together move the endpoints past
    each other.  Such pairs are serialized via a conflict edge."""
    preview = mapping.copy()
    preview.apply_swap(*sa_edge)
    preview.apply_swap(*sb_edge)
    dist = hw.all_pairs_distance()
    for key in sorted(shared_keys):
        # An in-flight SWAP can carry help keys from the iteration it
        # started in; a gate that has since left the pending set cannot be
        # re-evaluated, so it cannot justify a conflict either.
        gate = pending_by_key.get(key)
        if gate is None:
            continue
        la, lb = gate.logicals
        cur = dist[mapping.phys(la)][mapping.phys(lb)]
        joint = dist[preview.phys(la)][preview.phys(lb)]
        if joint >= cur:
            return True
    return False


def build_csg(
    cgates: list[PendingPair],
    candidate_swaps: list[SwapCandidate],
    in_progress: list[InProgressSwap],
    pending: list[PendingPair],
    mapping: Mapping,
    hw: CouplingGraph,
    budget: Budget,
    allowance_left: float,
) -> Csg:
    """Assemble the candidate set graph for one scheduling iteration.

    Vertex ids are assigned deterministically: in-progress SWAPs first (by
    edge), then cgates (by gate key), then candidate SWAPs (by edge).
    Crosstalk pairs are sorted ascending by ``budget`` cost and permitted
    while the running total stays within ``allowance_left``; only the pairs
    that did not fit become crosstalk edges.
    """
    vertices: list[CsgVertex] = []
    for ip in sorted(in_progress, key=lambda s: s.edge):
        vertices.append(
            CsgVertex(
                vertex_id=len(vertices),
                kind="inprogress",
                edge=ip.edge,
                remaining_time=ip.remaining_time,
                helps=ip.helps,
            )
        )
    mapping_phys = {
        p.key: normalize_edge(mapping.phys(p.logicals[0]), mapping.phys(p.logicals[1]))
        for p in cgates
    }
    for p in sorted(cgates, key=lambda g: g.key):
        vertices.append(
            CsgVertex(
                vertex_id=len(vertices),
                kind="cgate",
                edge=mapping_phys[p.key],
                gate_key=p.key,
            )
        )
    busy_edges = {ip.edge for ip in in_progress}
    for sc in sorted(candidate_swaps, key=lambda s: s.edge):
        if sc.edge in busy_edges:
            # The same physical SWAP is already running; restarting it would
            # be a different operation on busy qubits anyway.
            continue
        vertices.append(
            CsgVertex(
                vertex_id=len(vertices),
                kind="swap",
                edge=sc.edge,
                helps=sc.helps,
            )
        )

    pending_by_key = {p.key: p for p in pending}
    conflict_edges: set[tuple[int, int]] = set()
    maybe_crosstalk: list[tuple[float, Edge, Edge, int, int]] = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            u, v = vertices[i], vertices[j]
            if set(u.edge) & set(v.edge):
                conflict_edges.add((i, j))
                continue
            swapish = {"swap", "inprogress"}
            if u.kind in swapish and v.kind in swapish:
                shared = u.helps & v.helps
                if shared and _joint_overshoots(u.edge, v.edge, shared, pending_by_key, mapping, hw):
                    conflict_edges.add((i, j))
                    continue
            if u.kind == "inprogress" and v.kind == "inprogress":
                # Their interference, if any, was charged when they started.
                continue
            cost = budget.cost(u.edge, v.edge)
            if cost is not None:
                maybe_crosstalk.append((cost, u.edge, v.edge, i, j))

    maybe_crosstalk.sort(key=lambda t: (t[0], t[1], t[2]))
    permitted: list[tuple[int, int, float]] = []
    crosstalk_edges: dict[tuple[int, int], float] = {}
    running = 0.0
    for cost, _ea, _eb, i, j in maybe_crosstalk:
        if running + cost <= allowance_left:
            running += cost
            permitted.append((i, j, cost))
        else:
            crosstalk_edges[(i, j)] = cost
    return Csg(
        vertices=vertices,
        conflict_edges=conflict_edges,
        crosstalk_edges=crosstalk_edges,
        permitted_pairs=permitted,
    )

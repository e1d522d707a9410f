"""Ansatz synthesis for Pauli-string programs of arbitrary locality.

Each weighted Pauli string is realized as a CX parity ladder: a minimum
spanning tree over the string's active qubits (edge weights are physical
hop distances) is contracted edge by edge toward its center, every
executed CX deleting its control from the working set.  The surviving
root takes the Z rotation, and the reversed ladder uncomputes the parity.
Routing SWAPs, layer packing, and crosstalk budgeting reuse the same
candidate-set-graph machinery as the plain circuit compiler; ties between
equally ranked color classes are settled by a cost model over the
would-be tree shape, optionally peeking at the next string.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

# build_csg, welsh_powell and rank_and_select are called through schedule_layer.
# They stay imported because perfbench/tracing.py patches them by name in this
# module's namespace, and an install fails on a missing name.
from .csg import PendingPair, build_csg, cheapest_swap, executable_pairs, useful_swaps
from .errors import InvariantError
from .hardware import CouplingGraph, CrosstalkProfile, Mapping
from .ir import PAULI_POST_LABEL, PAULI_PRE_LABEL, PauliProgram
from .scheduler import (
    SWAP_DURATION,
    Op,
    ScheduleState,
    ScheduledCircuit,
    SelectionContext,
    StallGuard,
    rank_and_select,
    schedule_layer,
    welsh_powell,
)

INVALID_PATTERN_COST = float("inf")


@dataclass
class SynthesisOptions:
    """Knobs for the tie-break cost model.

    ``w1`` weighs estimated crosstalk, ``w2`` weighs SWAP count (times the
    ``SWAP_DURATION`` layers a SWAP occupies); both live in (0, 1].
    ``lookahead`` additionally scores how well a candidate SWAP pattern
    pre-positions the next string."""

    w1: float = 0.5
    w2: float = 0.5
    lookahead: bool = True

    def __post_init__(self):
        for name, w in (("w1", self.w1), ("w2", self.w2)):
            if not 0.0 < w <= 1.0:
                raise InvariantError(f"{name} must be in (0, 1], got {w}")


def build_qubit_graph(active: tuple[int, ...], mapping: Mapping, hw: CouplingGraph) -> dict[tuple[int, int], int]:
    """Complete graph over the active logical qubits, weighted by the hop
    distance between their current physical homes."""
    weights: dict[tuple[int, int], int] = {}
    nodes = sorted(active)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            weights[(a, b)] = hw.distance(mapping.phys(a), mapping.phys(b))
    return weights


class _UnionFind:
    def __init__(self, nodes):
        self.parent = {n: n for n in nodes}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal_mst(nodes: list[int], weights: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Minimum spanning tree with deterministic ties: edges are taken in
    (weight, lower node, higher node) order."""
    uf = _UnionFind(nodes)
    mst = []
    for (a, b), w in sorted(weights.items(), key=lambda kv: (kv[1], kv[0])):
        if uf.union(a, b):
            mst.append((a, b))
            if len(mst) == len(nodes) - 1:
                break
    if len(mst) != len(nodes) - 1:
        raise InvariantError("qubit graph is not connected")
    return mst


def derive_gate_sets(
    mst: list[tuple[int, int]], weights: dict[tuple[int, int], int]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split tree edges into directly executable ones (weight 1) and the
    distant edges worth routing for: weight > 1 with a leaf endpoint, so a
    SWAP toward them cannot disturb the rest of the tree's frontier."""
    degree: dict[int, int] = {}
    for a, b in mst:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    executable = [e for e in mst if weights[e] == 1]
    non_executable = [
        e for e in mst if weights[e] > 1 and (degree[e[0]] == 1 or degree[e[1]] == 1)
    ]
    return executable, non_executable


def _tree_adjacency(nodes: list[int], edges: list[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for n in adj:
        adj[n].sort()
    return adj


def _bfs_depths(adj: dict[int, list[int]], root: int, skip=None) -> dict[int, int]:
    """Hop count from ``root`` to every node it reaches without passing
    through ``skip``."""
    depth = {root: 0}
    todo = deque([root])
    while todo:
        cur = todo.popleft()
        for nxt in adj[cur]:
            if nxt != skip and nxt not in depth:
                depth[nxt] = depth[cur] + 1
                todo.append(nxt)
    return depth


def graph_center(adj: dict[int, list[int]]) -> int:
    """Node with the smallest eccentricity; ties go to the lowest index."""
    best = None
    best_ecc = None
    for node in sorted(adj):
        depth = _bfs_depths(adj, node)
        if len(depth) != len(adj):
            raise InvariantError("graph_center needs a connected graph")
        ecc = max(depth.values())
        if best_ecc is None or ecc < best_ecc:
            best, best_ecc = node, ecc
    return best


def bfs_tree(adj: dict[int, list[int]], root: int) -> dict[int, list[int]]:
    """Spanning tree by breadth-first search, visiting neighbors in
    ascending order."""
    tree: dict[int, list[int]] = {n: [] for n in adj}
    seen = {root}
    todo = deque([root])
    while todo:
        cur = todo.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                tree[cur].append(nxt)
                tree[nxt].append(cur)
                todo.append(nxt)
    for n in tree:
        tree[n].sort()
    return tree


def calculate_depths(adj: dict[int, list[int]]) -> tuple[int, int]:
    """Estimate (ladder depth, crosstalk score) of contracting a connected
    qubit graph.

    A path contracts leaf-to-root with no parallel neighbors.  Anything
    else is rooted at its center (a BFS spanning tree is taken first when
    the graph has cycles) and the child subtrees contract concurrently:
    their recursive depths, sorted and bumped apart where equal, stagger
    the merges into the root.  Adjacent finish times one step apart mean
    two nearby gates firing back to back; each such pair scores 2.  Only
    the top level's crosstalk is kept, the recursion returns depths.
    """
    n = len(adj)
    if n == 0:
        raise InvariantError("empty qubit graph")
    if n == 1:
        return 0, 0
    edge_count = sum(len(v) for v in adj.values()) // 2
    if edge_count == n - 1 and max(len(v) for v in adj.values()) <= 2:
        return n - 1, 0
    center = graph_center(adj)
    tree = adj if edge_count == n - 1 else bfs_tree(adj, center)
    depths = []
    for child in tree[center]:
        sub_nodes = _bfs_depths(tree, child, skip=center)
        sub_adj = {m: [x for x in tree[m] if x in sub_nodes] for m in sorted(sub_nodes)}
        d, _ = calculate_depths(sub_adj)
        depths.append(d)
    depths.sort()
    for i in range(len(depths) - 1):
        if depths[i + 1] <= depths[i]:
            depths[i + 1] = depths[i] + 1
    crosstalk = 2 * sum(
        1 for i in range(len(depths) - 1) if abs(depths[i + 1] - depths[i]) == 1
    )
    return 2 * max(depths) + 1, crosstalk


def assign_direction(
    edge: tuple[int, int], tree_adj: dict[int, list[int]], center: int
) -> tuple[int, int]:
    """(control, target) for a ladder CX: the endpoint nearer the tree
    center absorbs the parity and survives; ties keep the lower index."""
    depth = _bfs_depths(tree_adj, center)
    a, b = edge
    if depth[a] == depth[b]:
        target = min(a, b)
    else:
        target = a if depth[a] < depth[b] else b
    control = b if target == a else a
    return control, target


def pattern_cost(
    swap_edges: list[tuple[int, int]],
    remaining: set[int],
    mapping: Mapping,
    hw: CouplingGraph,
    options: SynthesisOptions,
) -> float:
    """Score a candidate SWAP pattern for the working set: estimated
    crosstalk (weighted by ``options.w1``) plus estimated ladder depth plus
    ``SWAP_DURATION`` layers per SWAP (weighted by ``options.w2``).  A
    pattern that leaves the working set disconnected costs infinity."""
    preview = mapping.copy()
    for e in swap_edges:
        preview.apply_swap(*e)
    nodes = sorted(remaining)
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if hw.has_edge(preview.phys(a), preview.phys(b)):
                adj[a].append(b)
                adj[b].append(a)
    if len(_bfs_depths(adj, nodes[0])) != len(nodes):
        return INVALID_PATTERN_COST
    depth_est, xtalk_est = calculate_depths(adj)
    return options.w1 * xtalk_est + depth_est + SWAP_DURATION * options.w2 * len(swap_edges)


def _lookahead_extra_swaps(
    swap_edges: list[tuple[int, int]],
    next_active: tuple[int, ...],
    drained: Mapping,
    hw: CouplingGraph,
) -> int:
    preview = drained.copy()
    for e in swap_edges:
        preview.apply_swap(*e)
    if len(next_active) < 2:
        return 0
    weights = build_qubit_graph(next_active, preview, hw)
    mst = kruskal_mst(sorted(next_active), weights)
    return sum(weights[e] - 1 for e in mst)


def synthesize(
    program: PauliProgram,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    initial_mapping: Mapping | None = None,
    allowance: float = 0.0,
    options: SynthesisOptions | None = None,
    on_iteration=None,
) -> ScheduledCircuit:
    """Schedule a whole Pauli-string program, string by string.  A string with
    no ladder CX for more than ``num_qubits`` iterations escapes (StallGuard).
    ``on_iteration`` gets compile_circuit's record plus ``"string_index"``."""
    if options is None:
        options = SynthesisOptions()
    state = ScheduleState(hw, profile, allowance, program.num_qubits, initial_mapping)
    for idx, s in enumerate(program.strings):
        active = s.non_identity()
        if not active:
            continue
        next_active: tuple[int, ...] = ()
        if options.lookahead:
            for later in program.strings[idx + 1 :]:
                if later.non_identity():
                    next_active = later.non_identity()
                    break
        _synthesize_string(state, idx, s, active, next_active, hw, options, on_iteration)
    return state.result()


def _place_basis_layer(state: ScheduleState, qubits: tuple[int, ...], operators: str, table: dict):
    labeled = [(q, table[operators[q]]) for q in qubits if operators[q] in table]
    if not labeled:
        return
    state.open_layer()
    for q, label in labeled:
        state.place(Op(kind="u", qubits=(state.mapping.phys(q),), label=label))
    state.close_layer()


def _synthesize_string(
    state: ScheduleState,
    string_index: int,
    s,
    active: tuple[int, ...],
    next_active: tuple[int, ...],
    hw: CouplingGraph,
    options: SynthesisOptions,
    on_iteration,
) -> None:
    if state.flights:
        raise InvariantError("string started with SWAPs still in flight")
    _place_basis_layer(state, active, s.operators, PAULI_PRE_LABEL)
    remaining = set(active)  # the qubits still carrying parity
    ladder: list[tuple[int, int]] = []  # committed CXs in execution order
    guard = StallGuard(len(active), hw, f"string {string_index}: ")
    while len(remaining) > 1 or state.flights:
        iterations = guard.next_iteration()
        state.open_layer()
        csg = selected = None
        if len(remaining) > 1:
            drained = state.drained()
            nodes = sorted(remaining)
            weights = build_qubit_graph(tuple(nodes), drained, hw)
            mst = kruskal_mst(nodes, weights)
            tree = _tree_adjacency(nodes, mst)
            center = graph_center(tree)
            executable_edges, non_executable = derive_gate_sets(mst, weights)
            cgates = executable_pairs([PendingPair(e, e) for e in executable_edges], state.mapping, hw)
            pending = [PendingPair(e, e) for e in non_executable]
            candidates = guard.escape_swaps(pending, drained, state.flights, criticality={})
            if candidates is None:
                reducing = useful_swaps(pending, drained, hw)
                fresh = [c for c in reducing if c.edge not in state.last_completed_edges]
                candidates = [c for c in fresh if _keeps_ladder(c.edge, ladder, drained, hw)]
                if not candidates and not cgates and not state.flights:
                    # Keeping every executed ladder pair adjacent can rule out
                    # every distance-reducing SWAP.  Adjacency only has to hold
                    # again when the mirror replays a pair, so prefer keeping
                    # it, but break it rather than deadlock; the uncompute pass
                    # re-routes any pair it finds separated.
                    candidates = fresh or reducing
            def run_cx(edge):
                control, target = assign_direction(edge, tree, center)
                state.place(
                    Op(kind="cx", qubits=(state.mapping.phys(control), state.mapping.phys(target)))
                )
                # The control's parity is folded into the target, so the
                # control leaves the working set for good.
                if control not in remaining:
                    raise InvariantError(f"qubit {control} was already deleted from the ladder")
                remaining.discard(control)
                ladder.append((control, target))

            def tie_breaker(csg, tied):
                return _arbitrate_patterns(
                    tied, csg, remaining, drained, tree, center, next_active, hw, options
                )

            ctx = SelectionContext(
                last_helped=state.last_helped & {p.key for p in pending}, tie_breaker=tie_breaker
            )
            csg, selected = schedule_layer(state, cgates, candidates, pending, ctx, run_cx)
        guard.record(state.close_layer()[0], len(ladder))
        if on_iteration is not None:
            on_iteration(
                dict(string_index=string_index, iteration=iterations, csg=csg, selected=selected)
            )
    root = next(iter(remaining))
    state.open_layer()
    state.place(Op(kind="rz", qubits=(state.mapping.phys(root),), param=s.coefficient))
    state.close_layer()
    _mirror_ladder(state, ladder, hw)
    _place_basis_layer(state, active, s.operators, PAULI_POST_LABEL)


def _route_pair(state: ScheduleState, u: int, v: int, hw: CouplingGraph) -> None:
    """Bring two logical qubits back to adjacent positions with solo SWAPs,
    cheapest reducing edge first.  Runs only when a ladder pair had to give
    up its adjacency during routing."""
    guard = 0
    while not hw.has_edge(state.mapping.phys(u), state.mapping.phys(v)):
        guard += 1
        if guard > hw.num_qubits * hw.num_qubits:
            raise InvariantError(f"uncompute routing for ({u},{v}) does not converge")
        state.open_layer()
        state.start_swap(_closing_swap(state.mapping, u, v, hw))
        state.close_layer()
        while state.flights:
            state.open_layer()
            state.close_layer()


def _mirror_ladder(state: ScheduleState, ladder: list[tuple[int, int]], hw: CouplingGraph) -> None:
    """Uncompute the parity ladder: the recorded CXs replay in reverse,
    packed as early as possible.  Entries sharing a qubit keep their order;
    a CX whose crosstalk would not fit the remaining allowance waits for a
    later (sparser) layer, and a pair that lost its adjacency is routed
    back together before its turn."""
    entries = list(reversed(ladder))
    while entries:
        c, t = entries[0]
        if not hw.has_edge(state.mapping.phys(c), state.mapping.phys(t)):
            _route_pair(state, c, t, hw)
        state.open_layer()
        # No SWAP is in flight here, so the qubits of the entries already
        # seen are all the layer holds.
        blocked: set[int] = set()
        leftover: list[tuple[int, int]] = []
        for c, t in entries:
            pc, pt = state.mapping.phys(c), state.mapping.phys(t)
            edge = (min(pc, pt), max(pc, pt))
            placeable = (
                hw.has_edge(pc, pt)
                and not ({pc, pt} & blocked)
                and state.charge_preview(edge) <= state.allowance_left() + 1e-12
            )
            if placeable:
                state.place(Op(kind="cx", qubits=(pc, pt)))
            else:
                leftover.append((c, t))
            blocked.update((pc, pt))
        placed, _ = state.close_layer()
        if not placed:
            raise InvariantError("uncompute pass failed to place any gate")
        entries = leftover


def _closing_swap(mapping: Mapping, u: int, v: int, hw: CouplingGraph) -> tuple[int, int]:
    """The device edge whose SWAP brings non-adjacent ``u`` and ``v`` one hop
    closer, least ``edge_error`` first and then the lowest edge."""
    return cheapest_swap(useful_swaps([PendingPair((u, v), (u, v))], mapping, hw), hw).edge


def _keeps_ladder(
    edge: tuple[int, int], ladder: list[tuple[int, int]], drained: Mapping, hw: CouplingGraph
) -> bool:
    """True when a SWAP on ``edge``, applied to ``drained``, leaves every
    executed ladder pair ``(c, t)`` adjacent; a pair already apart counts
    only if this SWAP brings it back together."""
    a, b = edge
    moved = {a: b, b: a}
    for c, t in ladder:
        pc, pt = drained.phys(c), drained.phys(t)
        if not hw.has_edge(moved.get(pc, pc), moved.get(pt, pt)):
            return False
    return True


def _arbitrate_patterns(
    tied,
    csg,
    remaining: set[int],
    drained: Mapping,
    tree: dict[int, list[int]],
    center: int,
    next_active: tuple[int, ...],
    hw: CouplingGraph,
    options: SynthesisOptions,
):
    """Score each tied class as a SWAP pattern: apply its SWAPs to a mapping
    preview, drop the controls its CXs would consume, and estimate the cost
    of finishing the string on the resulting qubit graph."""
    patterns = []
    for cls in tied:
        swap_edges = sorted(
            csg.vertices[v].edge for v in cls.members if csg.vertices[v].kind == "swap"
        )
        controls = set()
        for v in cls.members:
            if csg.vertices[v].kind == "cgate":
                control, _ = assign_direction(csg.vertices[v].gate_key, tree, center)
                controls.add(control)
        patterns.append((cls, swap_edges, controls))
    costs = [
        pattern_cost(swap_edges, remaining - controls, drained, hw, options)
        for _, swap_edges, controls in patterns
    ]
    best = min(costs)
    if best == INVALID_PATTERN_COST:
        return None
    survivors = [i for i, c in enumerate(costs) if c == best]
    if len(survivors) == 1:
        return patterns[survivors[0]][0]
    if options.lookahead and next_active:
        extras = {
            i: _lookahead_extra_swaps(patterns[i][1], next_active, drained, hw)
            for i in survivors
        }
        least = min(extras.values())
        survivors = [i for i in survivors if extras[i] == least]
    return patterns[survivors[0]][0]

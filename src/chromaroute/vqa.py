"""Ansatz synthesis for Pauli-string programs of arbitrary locality.

Each weighted Pauli string is realized as a CX parity ladder: a minimum
spanning tree over the string's active qubits (edge weights are physical
hop distances) is contracted edge by edge toward its center, every
executed CX deleting its control from the working set.  The surviving
root takes the Z rotation, and the reversed ladder uncomputes the parity.
Each layer is one ``scheduler.schedule_layer`` step, as in the circuit
compiler, over the SWAP candidates of ``StallGuard.swaps``; synthesis only
drops those that would pull an executed ladder pair apart.  Ties between
equally ranked color classes are settled by a cost model over the
would-be tree shape, optionally peeking at the next string.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

# Synthesis reaches build_csg, welsh_powell and rank_and_select only through
# scheduler.schedule_layer.  They stay imported because perfbench/tracing.py
# patches them by name in this module's namespace, and an install fails on a
# missing name.
from .csg import PendingPair, build_csg, closing_swap, executable_pairs, useful_swaps
from .errors import InvariantError
from .hardware import CouplingGraph, CrosstalkProfile, Mapping, bfs_depths
from .ir import PAULI_POST_LABEL, PAULI_PRE_LABEL, PauliProgram
from .scheduler import (
    SWAP_DURATION,
    Op,
    ScheduleState,
    ScheduledCircuit,
    StallGuard,
    _vertex_items,
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
                raise ValueError(f"{name} must be in (0, 1], got {w}")


def build_qubit_graph(nodes, position, hw: CouplingGraph) -> dict[tuple[int, int], int]:
    """Complete graph over the ascending logical qubits ``nodes``, weighted
    by the hop distance between their physical homes ``position[q]``: a
    placement list or a preview's dict."""
    dist = hw.all_pairs_distance()
    weights: dict[tuple[int, int], int] = {}
    for i, a in enumerate(nodes):
        row = dist[position[a]]
        for b in nodes[i + 1 :]:
            weights[(a, b)] = row[position[b]]
    return weights


def kruskal_mst(nodes: list[int], weights: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Minimum spanning tree with deterministic ties: edges are taken in
    (weight, lower node, higher node) order."""
    parent = {n: n for n in nodes}  # union-find forest

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    mst = []
    for _, a, b in sorted([(w, a, b) for (a, b), w in weights.items()]):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[rb] = ra
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
    """Sorted neighbor lists of the graph on ``nodes`` with ``edges``, a tree's or any other."""
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for n in adj:
        adj[n].sort()
    return adj


def graph_center(adj: dict[int, list[int]]) -> tuple[int, dict[int, int]]:
    """(the node with the smallest eccentricity, ties to the lowest index;
    its hop count to every node)."""
    best = best_ecc = best_depth = None
    for node in sorted(adj):
        depth = bfs_depths(adj, node)
        if len(depth) != len(adj):
            raise InvariantError("graph_center needs a connected graph")
        ecc = max(depth.values())
        if best_ecc is None or ecc < best_ecc:
            best, best_ecc, best_depth = node, ecc, depth
    return best, best_depth


def bfs_tree(adj: dict[int, list[int]], root: int) -> dict[int, list[int]]:
    """Spanning tree by breadth-first search, visiting neighbors in
    ascending order."""
    edges: list[tuple[int, int]] = []
    seen = {root}
    order = [root]
    for cur in order:  # a FIFO queue, as in bfs_depths
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                edges.append((cur, nxt))
                order.append(nxt)
    return _tree_adjacency(list(adj), edges)


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
    center, _ = graph_center(adj)
    tree = adj if edge_count == n - 1 else bfs_tree(adj, center)
    depths = []
    for child in tree[center]:
        sub_nodes = bfs_depths(tree, child, skip=center)
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


def assign_direction(edge: tuple[int, int], depth: dict[int, int]) -> tuple[int, int]:
    """(control, target) for a ladder CX on a tree edge: the endpoint nearer
    the tree center, by ``depth`` (``graph_center``'s hop counts), absorbs
    the parity and survives.  A tree edge's two ends are one level apart."""
    a, b = edge
    return (b, a) if depth[a] < depth[b] else (a, b)


def _preview_positions(
    qubits, placement: list[int], swap_edges: list[tuple[int, int]]
) -> dict[int, int]:
    """The physical home of each of ``qubits`` once the SWAPs on
    ``swap_edges`` land, in order, on ``placement``.  Each qubit's position
    is walked through the edges, which moves it as ``Mapping.apply_swap``
    on a copy would, whether or not an edge's other end is occupied."""
    position = {}
    for q in qubits:
        p = placement[q]
        for a, b in swap_edges:
            if p == a:
                p = b
            elif p == b:
                p = a
        position[q] = p
    return position


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
    nodes = sorted(remaining)
    position = _preview_positions(nodes, mapping.placement, swap_edges)
    dist = hw.all_pairs_distance()
    linked = [(a, b) for a, b in combinations(nodes, 2) if dist[position[a]][position[b]] == 1]
    adj = _tree_adjacency(nodes, linked)
    if len(bfs_depths(adj, nodes[0])) != len(nodes):
        return INVALID_PATTERN_COST
    depth_est, xtalk_est = calculate_depths(adj)
    return options.w1 * xtalk_est + depth_est + SWAP_DURATION * options.w2 * len(swap_edges)


def _lookahead_extra_swaps(
    swap_edges: list[tuple[int, int]],
    next_active: tuple[int, ...],
    drained: Mapping,
    hw: CouplingGraph,
) -> int:
    """SWAPs the next string's tree would still need after this pattern's
    SWAPs land on ``drained``: the sum over its MST edges of hop distance
    minus one, 0 for a string of fewer than two qubits."""
    if len(next_active) < 2:
        return 0
    nodes = sorted(next_active)
    weights = build_qubit_graph(nodes, _preview_positions(nodes, drained.placement, swap_edges), hw)
    mst = kruskal_mst(nodes, weights)
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
    actives = [s.non_identity() for s in program.strings]
    for idx, (s, active) in enumerate(zip(program.strings, actives)):
        if not active:
            continue
        next_active = next((a for a in actives[idx + 1 :] if a), ()) if options.lookahead else ()
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
    # The tree of a working set depends only on where its qubits will sit,
    # and that often repeats, say while SWAPs fly and no CX runs: (qubits,
    # their drained homes) -> (depth, adjacent tree pairs, distant ones).
    trees: dict[tuple, tuple] = {}
    while len(remaining) > 1 or state.flights:
        iterations = guard.next_iteration()
        state.open_layer()
        csg = selected = None
        if len(remaining) > 1:
            drained = state.drained()
            nodes = sorted(remaining)
            placement = drained.placement
            key = (tuple(nodes), tuple([placement[q] for q in nodes]))
            tree = trees.get(key)
            if tree is None:
                weights = build_qubit_graph(nodes, placement, hw)
                mst = kruskal_mst(nodes, weights)
                _, depth = graph_center(_tree_adjacency(nodes, mst))
                executable_edges, non_executable = derive_gate_sets(mst, weights)
                tree = trees[key] = (
                    depth,
                    [PendingPair(e, e) for e in executable_edges],
                    [PendingPair(e, e) for e in non_executable],
                )
            depth, executable, pending = tree
            cgates = executable_pairs(executable, state.mapping, hw)
            candidates = guard.swaps(pending, state)
            if guard.target is None:  # not escaping
                fresh = candidates
                candidates = [c for c in fresh if _keeps_ladder(c.edge, ladder, drained, hw)]
                if not candidates and not cgates and not state.flights:
                    # Keeping every executed ladder pair adjacent can rule out
                    # every distance-reducing SWAP.  Adjacency only has to hold
                    # again when the mirror replays a pair, so prefer keeping
                    # it, but break it rather than deadlock; the uncompute pass
                    # re-routes any pair it finds separated.
                    candidates = fresh or useful_swaps(pending, drained, hw)
            def run_cx(edge):
                control, target = assign_direction(edge, depth)
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
                    tied, csg, remaining, drained, depth, next_active, hw, options
                )

            items = _vertex_items(cgates, candidates, state.mapping.placement, {f.edge for f in state.flights})
            csg, selected, (_, _, items) = schedule_layer(
                state, items, pending, tie_breaker=tie_breaker, keep_csg=on_iteration is not None
            )
            state.commit(items, run_cx)
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
        state.start_swap(closing_swap(PendingPair((u, v), (u, v)), state.mapping, hw).edge)
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
                and state.charge_preview(edge) <= state.allowance_left()
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


def _keeps_ladder(
    edge: tuple[int, int], ladder: list[tuple[int, int]], drained: Mapping, hw: CouplingGraph
) -> bool:
    """True when a SWAP on ``edge``, applied to ``drained``, leaves every
    executed ladder pair ``(c, t)`` adjacent; a pair already apart counts
    only if this SWAP brings it back together."""
    a, b = edge
    moved = {a: b, b: a}
    placement = drained.placement
    for c, t in ladder:
        pc, pt = placement[c], placement[t]
        if not hw.has_edge(moved.get(pc, pc), moved.get(pt, pt)):
            return False
    return True


def _arbitrate_patterns(
    tied,
    csg,
    remaining: set[int],
    drained: Mapping,
    depth: dict[int, int],
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
                control, _ = assign_direction(csg.vertices[v].gate_key, depth)
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
    if next_active:
        extras = {
            i: _lookahead_extra_swaps(patterns[i][1], next_active, drained, hw)
            for i in survivors
        }
        least = min(extras.values())
        survivors = [i for i in survivors if extras[i] == least]
    return patterns[survivors[0]][0]

import heapq
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chromaroute import (
    InvariantError,
    Mapping,
    MappingError,
    SynthesisOptions,
    parse_pauli_program,
    synthesize,
    verify_routing,
)
from chromaroute.fixtures import (
    chain_pair,
    grid6,
    h2_terms,
    ring6,
    ring6_cross_hot,
    tree7,
    zz_string,
)
from chromaroute.jw import jw_encode
from chromaroute.scheduler import SWAP_DURATION
from chromaroute.vqa import (
    _lookahead_extra_swaps,
    _preview_positions,
    _tree_adjacency,
    assign_direction,
    build_qubit_graph,
    calculate_depths,
    derive_gate_sets,
    graph_center,
    kruskal_mst,
    pattern_cost,
)
from test_indexed import grid_device, random_pauli_program


def prufer_edges(seq, n):
    degree = [1] * n
    for i in seq:
        degree[i] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for i in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, i), max(leaf, i)))
        degree[i] -= 1
        if degree[i] == 1:
            heapq.heappush(leaves, i)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def exhaustive_min_tree_weight(n, weights):
    if n == 2:
        return weights[(0, 1)]
    best = None
    for seq in itertools.product(range(n), repeat=n - 2):
        total = sum(weights[e] for e in prufer_edges(seq, n))
        if best is None or total < best:
            best = total
    return best


def test_build_qubit_graph_hop_distances():
    hw, _ = tree7()
    m = Mapping(7, 7)
    weights = build_qubit_graph((0, 1, 3, 4), m, hw)
    assert weights == {
        (0, 1): 1,
        (0, 3): 2,
        (0, 4): 4,
        (1, 3): 1,
        (1, 4): 3,
        (3, 4): 2,
    }


def test_kruskal_known_tree():
    weights = {(0, 1): 1, (0, 2): 5, (1, 2): 2}
    assert kruskal_mst([0, 1, 2], weights) == [(0, 1), (1, 2)]


def test_kruskal_deterministic_ties():
    weights = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    assert kruskal_mst([0, 1, 2], weights) == [(0, 1), (0, 2)]
    weights4 = {e: 2 for e in itertools.combinations(range(4), 2)}
    assert kruskal_mst([0, 1, 2, 3], weights4) == [(0, 1), (0, 2), (0, 3)]


def test_kruskal_disconnected_rejected():
    with pytest.raises(InvariantError):
        kruskal_mst([0, 1, 2], {(0, 1): 1})


def test_mst_weight_matches_exhaustive_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        weights = {e: rng.randint(1, 9) for e in itertools.combinations(range(n), 2)}
        tree = kruskal_mst(list(range(n)), weights)
        assert sum(weights[e] for e in tree) == exhaustive_min_tree_weight(n, weights)


def test_tree7_mst_weight_is_4():
    hw, _ = tree7()
    m = Mapping(7, 7)
    weights = build_qubit_graph((0, 1, 3, 4), m, hw)
    tree = kruskal_mst([0, 1, 3, 4], weights)
    assert tree == [(0, 1), (1, 3), (3, 4)]
    assert sum(weights[e] for e in tree) == 4


def test_derive_gate_sets_rules():
    tree = [(0, 1), (1, 2), (2, 3)]
    weights = {(0, 1): 1, (1, 2): 3, (2, 3): 1}
    executable, routable = derive_gate_sets(tree, weights)
    assert executable == [(0, 1), (2, 3)]
    # (1,2) is distant but internal: routing toward it would disturb the rest
    assert routable == []
    star = [(0, 1), (0, 2), (0, 3)]
    weights = {(0, 1): 1, (0, 2): 2, (0, 3): 4}
    executable, routable = derive_gate_sets(star, weights)
    assert executable == [(0, 1)]
    assert routable == [(0, 2), (0, 3)]


def test_graph_center_ties_go_low():
    path4 = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    assert graph_center(path4) == (1, {0: 1, 1: 0, 2: 1, 3: 2})
    pair = {0: [1], 1: [0]}
    assert graph_center(pair) == (0, {0: 0, 1: 1})
    star = {0: [9], 9: [0, 5, 7], 5: [9], 7: [9]}
    assert graph_center(star) == (9, {9: 0, 0: 1, 5: 1, 7: 1})


def test_assign_direction_target_is_nearer_center():
    tree = {0: [1], 1: [0, 3], 3: [1, 4], 4: [3]}
    center, depth = graph_center(tree)
    assert center == 1
    assert assign_direction((0, 1), depth) == (0, 1)
    assert assign_direction((1, 3), depth) == (3, 1)
    assert assign_direction((3, 4), depth) == (4, 3)
    chain = {1: [3], 3: [1, 4], 4: [3]}
    center, depth = graph_center(chain)
    assert center == 3
    assert assign_direction((1, 3), depth) == (1, 3)
    assert assign_direction((3, 4), depth) == (4, 3)


DEPTH_CASES = [
    # paths: depth n-1, no concurrent merges
    ({0: []}, (0, 0)),
    ({0: [1], 1: [0]}, (1, 0)),
    ({0: [1], 1: [0, 2], 2: [1]}, (2, 0)),
    ({0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}, (3, 0)),
    ({0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]}, (4, 0)),
    ({0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3, 5], 5: [4]}, (5, 0)),
    (
        {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3, 5], 5: [4, 6], 6: [5]},
        (6, 0),
    ),
    # stars: k staggered leaf merges, every adjacent pair one step apart
    ({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}, (5, 4)),
    ({0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]}, (7, 6)),
    ({0: [1, 2, 3, 4, 5], 1: [0], 2: [0], 3: [0], 4: [0], 5: [0]}, (9, 8)),
    # spiders
    (
        {0: [1, 3, 5], 1: [0, 2], 2: [1], 3: [0, 4], 4: [3], 5: [0, 6], 6: [5]},
        (7, 4),
    ),
    ({0: [1, 2, 3], 1: [0], 2: [0], 3: [0, 4], 4: [3]}, (5, 4)),
    ({0: [1, 2, 4], 1: [0], 2: [0, 3], 3: [2], 4: [0, 5], 5: [4]}, (5, 4)),
    (
        {0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0, 5], 5: [4]},
        (7, 6),
    ),
    # caterpillars
    (
        {0: [1], 1: [0, 2], 2: [1, 3, 5], 3: [2, 4], 4: [3], 5: [2]},
        (5, 4),
    ),
    (
        {0: [1], 1: [0, 2, 4], 2: [1, 3, 5], 3: [2], 4: [1], 5: [2]},
        (5, 4),
    ),
    (
        {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4, 5], 4: [3], 5: [3]},
        (5, 2),
    ),
    ({0: [1], 1: [0, 2, 4], 2: [1, 3], 3: [2], 4: [1]}, (5, 4)),
    # balanced binary tree on 7 nodes
    (
        {0: [1, 2], 1: [0, 3, 4], 2: [0, 5, 6], 3: [1], 4: [1], 5: [2], 6: [2]},
        (7, 2),
    ),
    # graphs with cycles fall back to a BFS spanning tree
    ({0: [1, 2], 1: [0, 2], 2: [0, 1]}, (3, 2)),
    ({0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [0, 2]}, (3, 2)),
    (
        {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]},
        (5, 4),
    ),
]


@pytest.mark.parametrize("adj,expected", DEPTH_CASES)
def test_calculate_depths_hand_traces(adj, expected):
    assert calculate_depths(adj) == expected


def test_calculate_depths_rejects_empty():
    with pytest.raises(InvariantError):
        calculate_depths({})


def test_pattern_cost_values():
    hw, _ = ring6()
    m = Mapping(6, 6)
    # adjacent pair, no swaps: one merge layer
    assert pattern_cost([], {0, 1}, m, hw, SynthesisOptions()) == 1.0
    # separated pair stays disconnected without the swap
    assert pattern_cost([], {0, 2}, m, hw, SynthesisOptions()) == float("inf")
    # one swap reconnects it: depth 1 + 3 * w2 * 1
    assert pattern_cost([(1, 2)], {0, 2}, m, hw, SynthesisOptions(w2=0.5)) == 2.5
    assert pattern_cost([(1, 2)], {0, 2}, m, hw, SynthesisOptions(w2=1.0)) == 4.0


def test_synthesis_options_validation():
    with pytest.raises(InvariantError):
        SynthesisOptions(w1=0.0)
    with pytest.raises(InvariantError):
        SynthesisOptions(w2=1.5)
    SynthesisOptions(w1=1.0, w2=0.001)


def test_weight4_string_trace_exact_layers():
    hw, prof = tree7()
    sched = synthesize(zz_string(), hw, prof, allowance=0.0)
    assert len(sched.layers) == 8
    got = [
        {(op.kind, op.qubits, op.slice_index) for op in layer} for layer in sched.layers
    ]
    assert got == [
        {("cx", (0, 1), None), ("swap", (4, 6), 1)},
        {("cx", (1, 3), None), ("swap", (4, 6), 2)},
        {("swap", (4, 6), 3)},
        {("cx", (6, 3), None)},
        {("rz", (3,), None)},
        {("cx", (6, 3), None)},
        {("cx", (1, 3), None)},
        {("cx", (0, 1), None)},
    ]
    rz = [op for layer in sched.layers for op in layer if op.kind == "rz"]
    assert rz[0].param == 0.25
    assert sched.crosstalk_ledger == []
    assert verify_routing(sched, hw, prof, allowance=0.0)


def test_lookahead_prefers_pattern_that_helps_the_next_string():
    hw, prof = grid6()
    prog = chain_pair()
    on = synthesize(prog, hw, prof, allowance=0.0, options=SynthesisOptions(lookahead=True))
    starts_on = [
        op.qubits
        for layer in on.layers
        for op in layer
        if op.kind == "swap" and op.slice_index == 1
    ]
    assert starts_on == [(3, 4)]
    assert len(on.layers) == 11
    off = synthesize(prog, hw, prof, allowance=0.0, options=SynthesisOptions(lookahead=False))
    starts_off = [
        op.qubits
        for layer in off.layers
        for op in layer
        if op.kind == "swap" and op.slice_index == 1
    ]
    assert starts_off == [(2, 4), (1, 2)]
    assert len(off.layers) == 14
    assert verify_routing(on, hw, prof, allowance=0.0)
    assert verify_routing(off, hw, prof, allowance=0.0)


def test_single_qubit_and_identity_strings():
    hw, prof = ring6()
    prog = parse_pauli_program("1.5 IIIIII\n0.5 IIZIII\n-0.25 IXIIII\n")
    sched = synthesize(prog, hw, prof, allowance=0.0)
    ops = [(op.kind, op.qubits, op.param, op.label) for layer in sched.layers for op in layer]
    assert ops == [
        ("rz", (2,), 0.5, None),
        ("u", (1,), None, "h"),
        ("rz", (1,), -0.25, None),
        ("u", (1,), None, "h"),
    ]
    assert verify_routing(sched, hw, prof, allowance=0.0)


def test_h2_program_synthesizes_cleanly():
    hw, prof = ring6()
    prog = jw_encode(h2_terms())
    sched = synthesize(prog, hw, prof, allowance=0.0)
    assert verify_routing(sched, hw, prof, allowance=0.0)
    assert sched.crosstalk_ledger == []
    counts = {}
    for layer in sched.layers:
        for op in layer:
            counts[op.kind] = counts.get(op.kind, 0) + 1
    # one rotation per non-identity string
    assert counts["rz"] == 14
    # four weight-4 strings, two X and two Y each, basis-changed twice
    assert counts["u"] == 32
    # ladders: 6 two-qubit strings need 2 CXs, 4 four-qubit strings need 6
    assert counts["cx"] == 36
    rz_params = sorted(op.param for layer in sched.layers for op in layer if op.kind == "rz")
    coeffs = sorted(s.coefficient for s in prog.strings if s.non_identity())
    assert rz_params == pytest.approx(coeffs)


def test_synthesis_is_deterministic():
    hw, prof = grid6()
    prog = chain_pair()
    a = synthesize(prog, hw, prof, allowance=0.0).to_json_dict()
    b = synthesize(prog, hw, prof, allowance=0.0).to_json_dict()
    assert a == b


def test_synthesis_buys_hot_pairs_with_error_mass():
    hw, prof = grid6()
    sched = synthesize(chain_pair(), hw, prof, allowance=1.0)
    assert len(sched.crosstalk_ledger) == 1
    assert verify_routing(sched, hw, prof, allowance=1.0)
    # each pair of the hot ring costs about 1.78 of error mass
    hw, prof = ring6_cross_hot()
    prog = parse_pauli_program("0.5 ZZIZZI\n")
    err = synthesize(prog, hw, prof, allowance=1.0)
    assert (err.depth_cx, err.crosstalk_ledger) == (13, [])
    hot = synthesize(prog, hw, prof, allowance=2.0)
    assert (hot.depth_cx, len(hot.crosstalk_ledger)) == (12, 1)
    assert verify_routing(hot, hw, prof, allowance=2.0)
    # The uncompute pass prices its pairs the same way: two pairs fit in
    # 4, the second one in the mirrored ladder (layer 5).
    prog = parse_pauli_program("0.5 ZXIIZY\n")
    assert synthesize(prog, hw, prof, allowance=2.0).depth_cx == 8
    hot = synthesize(prog, hw, prof, allowance=4.0)
    assert hot.depth_cx == 7
    assert [e.layer for e in hot.crosstalk_ledger] == [1, 5]
    assert verify_routing(hot, hw, prof, allowance=4.0)


def test_program_wider_than_device_rejected():
    hw, prof = ring6()
    with pytest.raises(MappingError):
        synthesize(parse_pauli_program("0.5 " + "Z" * 7 + "\n"), hw, prof)


def copied_preview(mapping, swap_edges):
    """The preview the copy-free one replaces: a full copy of the mapping
    with each SWAP applied in turn."""
    preview = mapping.copy()
    for e in swap_edges:
        preview.apply_swap(*e)
    return preview


def reference_pattern_cost(swap_edges, remaining, mapping, hw, options):
    preview = copied_preview(mapping, swap_edges)
    nodes = sorted(remaining)
    linked = [
        (a, b) for a, b in itertools.combinations(nodes, 2) if hw.has_edge(preview.phys(a), preview.phys(b))
    ]
    adj = _tree_adjacency(nodes, linked)
    if len(reachable_from_lowest(adj)) != len(nodes):
        return float("inf")
    depth_est, xtalk_est = calculate_depths(adj)
    return options.w1 * xtalk_est + depth_est + SWAP_DURATION * options.w2 * len(swap_edges)


def reachable_from_lowest(adj):
    """The nodes reachable from the lowest one."""
    seen, todo = set(), [min(adj)]
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            todo.extend(adj[n])
    return seen


def reference_lookahead_extra_swaps(swap_edges, next_active, drained, hw):
    if len(next_active) < 2:
        return 0
    preview = copied_preview(drained, swap_edges)
    weights = build_qubit_graph(next_active, preview, hw)
    return sum(weights[e] - 1 for e in kruskal_mst(sorted(next_active), weights))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_copy_free_previews_match_copies(seed):
    rng = random.Random(seed)
    seen = {"empty": 0, "repeated": 0, "through_empty": 0, "finite": 0, "lookahead": 0}
    for _ in range(40):
        hw, _ = grid_device(rng.randint(2, 5), rng.randint(2, 5), rng)
        n = hw.num_qubits
        k = rng.randint(2, n)  # fewer logical qubits than physical leaves holes
        mapping = Mapping(k, n, rng.sample(range(n), k))
        edges = sorted(hw.edges)
        for _ in range(10):
            swap_edges = rng.choices(edges, k=rng.randint(0, 5))
            if swap_edges and rng.random() < 0.3:
                swap_edges.insert(rng.randrange(len(swap_edges) + 1), rng.choice(swap_edges))
            seen["empty"] += not swap_edges
            seen["repeated"] += len(set(swap_edges)) < len(swap_edges)
            walk = mapping.copy()
            for e in swap_edges:
                seen["through_empty"] += any(walk.logical_at(p) is None for p in e)
                walk.apply_swap(*e)
            copied = copied_preview(mapping, swap_edges)
            qubits = rng.sample(range(k), rng.randint(1, k))
            assert _preview_positions(qubits, mapping.placement, swap_edges) == {
                q: copied.phys(q) for q in qubits
            }
            options = SynthesisOptions(w1=rng.choice((0.2, 0.5, 1.0)), w2=rng.choice((0.2, 0.5, 1.0)))
            want = reference_pattern_cost(swap_edges, set(qubits), mapping, hw, options)
            assert pattern_cost(swap_edges, set(qubits), mapping, hw, options) == want
            seen["finite"] += want != float("inf")
            next_active = tuple(sorted(rng.sample(range(k), rng.randint(1, k))))
            want = reference_lookahead_extra_swaps(swap_edges, next_active, mapping, hw)
            assert _lookahead_extra_swaps(swap_edges, next_active, mapping, hw) == want
            seen["lookahead"] += want > 0
    assert all(seen.values()), seen


def memo_devices():
    """A program and two 9-qubit devices, a grid and a line: other edges and rates."""
    rng = random.Random(5)
    program = random_pauli_program(9, 6, rng)
    return program, grid_device(3, 3, rng), grid_device(1, 9, rng)


def synthesized_document(program, device) -> str:
    sched = synthesize(program, *device, allowance=0.05)
    assert verify_routing(sched, *device, allowance=0.05)
    return json.dumps(sched.to_json_dict(), indent=2, sort_keys=True)


def test_tree_memo_stays_inside_one_call():
    """A tree memo parked on a shared object would carry device A's trees
    into device B's run, or B's back into A's: B's document must be the one
    a fresh interpreter writes, and A's must not move."""
    program, device_a, device_b = memo_devices()
    first = synthesized_document(program, device_a)
    between = synthesized_document(program, device_b)
    assert synthesized_document(program, device_a) == first
    assert between != first
    fresh = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from test_vqa import memo_devices, synthesized_document; "
            "program, _, device_b = memo_devices(); "
            "sys.stdout.write(synthesized_document(program, device_b))",
        ],
        cwd=Path(__file__).parent,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert fresh.stdout == between

"""End-to-end checks, one per advertised guarantee, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the ten verdicts.
"""

import heapq
import itertools
import random
import time

import numpy as np
import pytest

from chromaroute import (
    Mapping,
    ScheduledCircuit,
    SynthesisOptions,
    baseline_schedule,
    compile_circuit,
    decoherence_error,
    esp,
    jw_encode,
    load_hardware,
    parse_circuit,
    parse_fermion_terms,
    search_allowance,
    synthesize,
    verify_routing,
)
from chromaroute.csg import PendingPair, useful_swaps
from chromaroute.fixtures import (
    chain_pair,
    grid6,
    h2_terms,
    pair_circuit,
    ring6,
    ring6_cross,
    ring6_cross_hot,
    tree7,
    zz_string,
)
from chromaroute.scheduler import rank_and_select, welsh_powell
from chromaroute.vqa import build_qubit_graph, calculate_depths, kruskal_mst
from test_indexed import csg_of


def _verdict(n, body, note=""):
    suffix = f" ({note})" if note else ""
    try:
        body()
    except BaseException:
        print(f"criterion {n:2d}: FAIL{suffix}")
        raise
    print(f"criterion {n:2d}: PASS{suffix}")


def test_criterion_01_parallel_vs_delay_based_reference():
    def body():
        start = time.perf_counter()
        hw, prof = ring6()
        circ = pair_circuit()
        sched = compile_circuit(circ, hw, prof, allowance=0.0)
        assert sched.depth_cx == 4
        assert sched.crosstalk_ledger == []
        assert verify_routing(sched, hw, prof, circ, allowance=0.0)
        base = baseline_schedule(circ, hw, prof)
        assert base.depth_cx >= 7
        assert base.crosstalk_ledger == []
        assert time.perf_counter() - start < 1.0

    _verdict(1, body)


def test_criterion_02_candidate_set_graph_two_coloring():
    def body():
        hw, prof = ring6()
        m = Mapping(6, 6)
        pending = [PendingPair(0, (0, 2)), PendingPair(1, (3, 5))]
        cands = useful_swaps(pending, m, hw)
        csg = csg_of([], cands, [], pending, m, hw, prof, 0.0)
        assert sum(1 for v in csg.vertices if v.kind == "cgate") == 0
        assert sum(1 for v in csg.vertices if v.kind == "swap") == 4
        classes = welsh_powell(csg)
        assert len(classes) == 2
        chosen = rank_and_select(csg, classes, frozenset(), {}, None)
        chosen_edges = {csg.vertices[i].edge for i in chosen.members}
        assert chosen_edges == {(0, 1), (3, 4)}
        sched = compile_circuit(pair_circuit(), hw, prof, allowance=0.0)
        assert sched.crosstalk_ledger == []

    _verdict(2, body)


def test_criterion_03_string_synthesis_overlaps_routing():
    def body():
        hw, prof = tree7()
        prog = zz_string()
        first_layers = []
        sched = synthesize(
            prog, hw, prof, allowance=0.0, on_iteration=lambda info: first_layers.append(info)
        )
        layer0 = {(op.kind, op.qubits, op.slice_index) for op in sched.layers[0]}
        assert layer0 == {("cx", (0, 1), None), ("swap", (4, 6), 1)}
        weights = build_qubit_graph((0, 1, 3, 4), Mapping(7, 7).placement, hw)
        tree = kruskal_mst([0, 1, 3, 4], weights)
        assert sum(weights[e] for e in tree) == 4
        assert verify_routing(sched, hw, prof, allowance=0.0)
        assert sched.crosstalk_ledger == []

    _verdict(3, body)


PAULI_M = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
ANNIHILATE = np.array([[0, 1], [0, 0]], dtype=complex)


def mode_matrix(p, dagger, n):
    factors = [PAULI_M["Z"]] * p
    factors.append(ANNIHILATE.conj().T if dagger else ANNIHILATE)
    factors.extend([PAULI_M["I"]] * (n - p - 1))
    m = factors[0]
    for f in factors[1:]:
        m = np.kron(m, f)
    return m


def dense_from_ops(terms, n):
    total = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, ops in terms:
        m = np.eye(2**n, dtype=complex)
        for p, dagger in ops:
            m = m @ mode_matrix(p, dagger, n)
        total += coeff * m
    return total


def dense_from_program(prog):
    total = np.zeros((2**prog.num_qubits, 2**prog.num_qubits), dtype=complex)
    for s in prog.strings:
        m = np.eye(1, dtype=complex)
        for ch in s.operators:
            m = np.kron(m, PAULI_M[ch])
        total += s.coefficient * m
    return total


def test_criterion_04_fermion_encoding():
    def body():
        start = time.perf_counter()
        prog = jw_encode(h2_terms())
        assert len(prog.strings) == 15
        assert {s.operators for s in prog.strings} == {
            "IIII", "ZIII", "IZII", "IIZI", "IIIZ",
            "ZZII", "ZIZI", "ZIIZ", "IZZI", "IZIZ", "IIZZ",
            "XXYY", "XYYX", "YXXY", "YYXX",
        }
        rng = random.Random(20260822)
        for _ in range(100):
            n = rng.randint(2, 3)
            k = rng.randint(1, 3)
            ops = [(rng.randrange(n), rng.random() < 0.5) for _ in range(k)]
            coeff = round(rng.uniform(-2.0, 2.0), 6)
            conj = [(p, not d) for p, d in reversed(ops)]
            terms = [(coeff, ops), (coeff, conj)]
            lines = []
            for c, oplist in terms:
                toks = [f"{p}+" if d else f"{p}-" for p, d in oplist]
                lines.append(f"{c} " + " ".join(toks))
            prog = jw_encode(parse_fermion_terms("\n".join(lines) + "\n"), num_modes=n)
            got = dense_from_program(prog)
            want = dense_from_ops(terms, n)
            assert np.abs(got - want).max() <= 1e-9
        assert time.perf_counter() - start < 10.0

    _verdict(4, body)


def random_device(rng):
    n = rng.randint(3, 10)
    edges = set()
    for child in range(1, n):
        parent = rng.randrange(child)
        edges.add((parent, child))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    edge_list = sorted(edges)
    edge_error = {f"{a}-{b}": round(rng.uniform(0.001, 0.02), 6) for a, b in edge_list}
    crosstalk = []
    seen = set()
    disjoint = [
        (e1, e2)
        for e1, e2 in itertools.combinations(edge_list, 2)
        if not set(e1) & set(e2)
    ]
    rng.shuffle(disjoint)
    for e1, e2 in disjoint[:3]:
        key = (e1, e2)
        if key in seen:
            continue
        seen.add(key)
        crosstalk.append(
            {
                "e1": list(e1),
                "e2": list(e2),
                "e1_given_e2": round(edge_error[f"{e1[0]}-{e1[1]}"] * rng.uniform(1.0, 3.0), 6),
                "e2_given_e1": round(edge_error[f"{e2[0]}-{e2[1]}"] * rng.uniform(1.0, 3.0), 6),
            }
        )
    doc = {
        "num_qubits": n,
        "edges": [list(e) for e in edge_list],
        "edge_error": edge_error,
        "gate_time_cx": 1.0,
        "crosstalk": crosstalk,
    }
    return load_hardware(doc)


def random_circuit(rng, num_logical):
    lines = [f"qubits {num_logical}"]
    for _ in range(rng.randint(3, 12)):
        kind = rng.choice(["cx", "cx", "cx", "swap", "u"])
        if kind == "u":
            lines.append(f"u h {rng.randrange(num_logical)}")
        else:
            a, b = rng.sample(range(num_logical), 2)
            lines.append(f"{kind} {a} {b}")
    return parse_circuit("\n".join(lines) + "\n")


def test_criterion_05_fuzzed_compiles_always_verify():
    def body():
        start = time.perf_counter()
        rng = random.Random(5)
        csgs_seen = 0

        def check_coloring(info):
            nonlocal csgs_seen
            csg = info["csg"]
            csgs_seen += 1
            classes = welsh_powell(csg)
            color_of = {}
            for cls in classes:
                for vid in cls.members:
                    color_of[vid] = cls.color
            for i, j in list(csg.conflict_edges) + list(csg.crosstalk_edges):
                assert color_of[i] != color_of[j]

        for case in range(500):
            hw, prof = random_device(rng)
            num_logical = rng.randint(2, min(8, hw.num_qubits))
            circ = random_circuit(rng, num_logical)
            allowance = [0.0, 0.003, float("inf")][case % 3]
            sched = compile_circuit(
                circ, hw, prof, allowance=allowance, on_iteration=check_coloring
            )
            assert verify_routing(sched, hw, prof, circ, allowance=allowance)
            assert sum(e.excess for e in sched.crosstalk_ledger) <= allowance
        assert csgs_seen >= 500
        assert time.perf_counter() - start < 60.0

    _verdict(5, body)


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


_ALL_TREES = {}


def all_labeled_trees(n):
    if n not in _ALL_TREES:
        if n == 2:
            _ALL_TREES[n] = [[(0, 1)]]
        else:
            _ALL_TREES[n] = [
                prufer_edges(seq, n) for seq in itertools.product(range(n), repeat=n - 2)
            ]
    return _ALL_TREES[n]


def test_criterion_06_spanning_tree_weight_vs_enumeration():
    def body():
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(2, 7)
            weights = {e: rng.randint(1, 20) for e in itertools.combinations(range(n), 2)}
            tree = kruskal_mst(list(range(n)), weights)
            got = sum(weights[e] for e in tree)
            want = min(
                sum(weights[e] for e in t) for t in all_labeled_trees(n)
            )
            assert got == want

    _verdict(6, body)


def path_adj(n):
    return {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}


def star_adj(k):
    adj = {0: list(range(1, k + 1))}
    for leaf in range(1, k + 1):
        adj[leaf] = [0]
    return adj


TREE_DEPTH_CASES = [
    (path_adj(1), (0, 0)),
    (path_adj(2), (1, 0)),
    (path_adj(3), (2, 0)),
    (path_adj(4), (3, 0)),
    (path_adj(5), (4, 0)),
    (path_adj(6), (5, 0)),
    (path_adj(7), (6, 0)),
    (star_adj(3), (5, 4)),
    (star_adj(4), (7, 6)),
    (star_adj(5), (9, 8)),
    (star_adj(6), (11, 10)),
    # spiders: hub plus legs of the given lengths
    ({0: [1, 3, 5], 1: [0, 2], 2: [1], 3: [0, 4], 4: [3], 5: [0, 6], 6: [5]}, (7, 4)),
    ({0: [1, 2, 3], 1: [0], 2: [0], 3: [0, 4], 4: [3]}, (5, 4)),
    ({0: [1, 2, 4], 1: [0], 2: [0, 3], 3: [2], 4: [0, 5], 5: [4]}, (5, 4)),
    ({0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0, 5], 5: [4]}, (7, 6)),
    # caterpillars
    ({0: [1], 1: [0, 2], 2: [1, 3, 5], 3: [2, 4], 4: [3], 5: [2]}, (5, 4)),
    ({0: [1], 1: [0, 2, 4], 2: [1, 3, 5], 3: [2], 4: [1], 5: [2]}, (5, 4)),
    ({0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4, 5], 4: [3], 5: [3]}, (5, 2)),
    ({0: [1], 1: [0, 2, 4], 2: [1, 3], 3: [2], 4: [1]}, (5, 4)),
    # balanced binary tree on seven nodes
    ({0: [1, 2], 1: [0, 3, 4], 2: [0, 5, 6], 3: [1], 4: [1], 5: [2], 6: [2]}, (7, 2)),
]


def test_criterion_07_merge_depth_recursion_on_tree_library():
    def body():
        assert len(TREE_DEPTH_CASES) == 20
        for adj, expected in TREE_DEPTH_CASES:
            assert calculate_depths(adj) == expected
        # the path escape hatch: depth n-1, never any concurrent finishes
        for n in range(1, 8):
            assert calculate_depths(path_adj(n)) == (n - 1, 0)

    _verdict(7, body)


def test_criterion_08_allowance_search_extremes():
    def body():
        circ = pair_circuit()

        hw, prof = ring6_cross_hot()
        res = search_allowance(
            lambda a: compile_circuit(circ, hw, prof, allowance=a), hw, prof, steps=16
        )
        delta = res.x_max / 16
        assert res.x_max > 3.0
        assert res.best_allowance <= delta

        hw2, prof2 = ring6_cross()
        res2 = search_allowance(
            lambda a: compile_circuit(circ, hw2, prof2, allowance=a), hw2, prof2, steps=16
        )
        assert res2.x_max == pytest.approx(0.002)
        assert res2.best_allowance == pytest.approx(res2.x_max)

        hw3, prof3 = ring6()
        res3 = search_allowance(
            lambda a: compile_circuit(circ, hw3, prof3, allowance=a), hw3, prof3, steps=16
        )
        assert res3.x_max == 0.0
        assert res3.best_allowance == 0.0
        best = compile_circuit(circ, hw3, prof3, allowance=res3.best_allowance)
        assert best.depth_cx == 4
        assert best.crosstalk_ledger == []

    _verdict(8, body)


def test_criterion_09_fidelity_model_properties_stand_in_for_hardware_runs():
    def body():
        hw, prof = ring6()
        sched = compile_circuit(pair_circuit(), hw, prof, allowance=0.0)
        base = esp(sched, hw, prof)
        for li in range(len(sched.layers)):
            for oi in range(len(sched.layers[li])):
                pruned = ScheduledCircuit.from_json_dict(sched.to_json_dict())
                del pruned.layers[li][oi]
                assert esp(pruned, hw, prof) >= base
        last = 0.0
        for t in [0.1, 0.5, 1.0, 5.0, 25.0, 125.0]:
            q = decoherence_error(t, 50.0, 70.0)
            assert q >= last
            last = q
        assert decoherence_error(1e9, 50.0, 70.0) == pytest.approx(1.0)

    _verdict(
        9,
        body,
        note="device-scale distribution comparisons need real hardware; "
        "model monotonicity checked instead",
    )


def test_criterion_10_lookahead_tie_break():
    def body():
        hw, prof = grid6()
        prog = chain_pair()
        on = synthesize(prog, hw, prof, allowance=0.0, options=SynthesisOptions(lookahead=True))
        starts_on = [
            op.qubits
            for layer in on.layers
            for op in layer
            if op.kind == "swap" and op.slice_index == 1
        ]
        # the tied pattern that leaves the next string adjacent: no second SWAP
        assert starts_on == [(3, 4)]
        off1 = synthesize(prog, hw, prof, allowance=0.0, options=SynthesisOptions(lookahead=False))
        off2 = synthesize(prog, hw, prof, allowance=0.0, options=SynthesisOptions(lookahead=False))
        assert off1.to_json_dict() == off2.to_json_dict()
        starts_off = [
            op.qubits
            for layer in off1.layers
            for op in layer
            if op.kind == "swap" and op.slice_index == 1
        ]
        assert starts_off[0] == (2, 4)
        assert len(starts_off) == 2

    _verdict(10, body)

import math
import random

import pytest

import chromaroute.scheduler as scheduler
from chromaroute import (
    CouplingGraph,
    CrosstalkProfile,
    CrosstalkRecord,
    Mapping,
    parse_circuit,
)
from chromaroute.csg import (
    InProgressSwap,
    PendingPair,
    SwapCandidate,
    build_csg,
    cheapest_swap,
    executable_pairs,
    useful_swaps,
)
from chromaroute.fixtures import ring6
from chromaroute.ir import frontier
from chromaroute.scheduler import rank_and_select, welsh_powell
from test_indexed import csg_of, grid_device, random_circuit


def line5():
    return CouplingGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def empty_profile(hw):
    return CrosstalkProfile(hw, [])


def test_executable_pairs_checks_adjacency():
    hw = line5()
    m = Mapping(5, 5)
    pending = [PendingPair(0, (0, 1)), PendingPair(1, (0, 2)), PendingPair(2, (3, 4))]
    ready = executable_pairs(pending, m, hw)
    assert [p.key for p in ready] == [0, 2]


def test_useful_swaps_strict_reduction():
    hw = line5()
    m = Mapping(5, 5)
    pending = [PendingPair("g", (0, 3))]
    cands = useful_swaps(pending, m, hw)
    # distance is 3; only the two edges touching an endpoint move it closer
    assert [(c.edge, set(c.helps)) for c in cands] == [
        ((0, 1), {"g"}),
        ((2, 3), {"g"}),
    ]


def test_cheapest_swap_least_error_then_lower_edge():
    hw = CouplingGraph(
        5, [(0, 1), (1, 2), (2, 3), (3, 4)], edge_error={(1, 2): 0.01, (2, 3): 0.01, (3, 4): 0.02}
    )

    def pick(*edges):
        return cheapest_swap([SwapCandidate(e, frozenset({"g"})) for e in edges], hw).edge

    assert pick((3, 4), (2, 3)) == (2, 3)  # the least isolated error wins
    assert pick((2, 3), (1, 2)) == (1, 2)  # a tie goes to the lower edge
    assert pick((1, 2), (0, 1)) == (0, 1)  # no rate for (0, 1): it costs 0.0
    hw.edge_error[(1, 2)] = 0.0
    assert pick((1, 2), (0, 1)) == (0, 1)  # and ties an explicit 0.0


def test_useful_swaps_ignores_satisfied_gates():
    hw = line5()
    m = Mapping(5, 5)
    assert useful_swaps([PendingPair("g", (1, 2))], m, hw) == []


def test_compile_does_not_undo_a_swap_that_just_landed(monkeypatch):
    # SWAP(0,1) and SWAP(2,3) both land; each gate is then one hop closer
    # through (2,3) or (0,1) again, which useful_swaps lists and the
    # compiler's layer items leave out for one iteration
    hw = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
    circuit = parse_circuit("qubits 4\ncx 0 2\ncx 1 3\n")
    undoing = []
    layer_items = scheduler._layer_items

    def recorded_layer_items(state, pending, escape):
        got = layer_items(state, pending, escape)
        landed = state.last_completed_edges
        undoing.extend(c.edge for c in useful_swaps(pending, state.drained(), hw) if c.edge in landed)
        assert not landed & {edge for edge, _, key in got if key is None}
        return got

    monkeypatch.setattr(scheduler, "_layer_items", recorded_layer_items)
    sched = scheduler.compile_circuit(circuit, hw, CrosstalkProfile(hw, []))
    assert undoing
    landed: set = set()
    for layer in sched.layers:
        # the engine writes each SWAP on its normalized edge
        assert not landed & {op.qubits for op in layer if op.slice_index == 1}
        landed = {op.qubits for op in layer if op.slice_index == 3}


def test_useful_swaps_multiple_gates_share_an_edge():
    hw = line5()
    m = Mapping(5, 5)
    pending = [PendingPair("a", (0, 2)), PendingPair("b", (1, 3))]
    cands = useful_swaps(pending, m, hw)
    by_edge = {c.edge: set(c.helps) for c in cands}
    assert by_edge == {
        (0, 1): {"a"},
        (1, 2): {"a", "b"},
        (2, 3): {"b"},
    }


def test_get_wrappers_use_the_frontier():
    hw = line5()
    m = Mapping(5, 5)
    circ = parse_circuit("qubits 5\ncx 0 1\ncx 0 4\n")

    def pending(executed):
        return [PendingPair(g.gate_id, g.qubits) for g in frontier(circ, executed)]

    assert [p.key for p in executable_pairs(pending(set()), m, hw)] == [0]
    # gate 1 is blocked behind gate 0, so nothing is routable yet
    assert useful_swaps(pending(set()), m, hw) == []
    cands = useful_swaps(pending({0}), m, hw)
    assert {c.edge for c in cands} == {(0, 1), (3, 4)}


def test_joint_overshoot_conflicts_on_a_ring():
    # one gate across a 4-ring diagonal: every pair of disjoint candidate
    # SWAPs attacks it from opposite ends and cancels out
    hw = CouplingGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    m = Mapping(4, 4)
    pending = [PendingPair("g", (0, 2))]
    cands = useful_swaps(pending, m, hw)
    assert [c.edge for c in cands] == [(0, 1), (0, 3), (1, 2), (2, 3)]
    csg = csg_of([], cands, [], pending, m, hw, empty_profile(hw), 0.0)
    assert len(csg.vertices) == 4
    # fully conflicted: 4 shared-qubit pairs plus 2 overshoot pairs
    assert len(csg.conflict_edges) == 6
    assert csg.crosstalk_edges == {}
    classes = welsh_powell(csg)
    assert len(classes) == 4


@pytest.mark.parametrize("stale", [0, 2])
def test_a_stale_shared_key_does_not_hide_a_live_overshoot(stale):
    # both SWAPs help gate 1 across the 4-ring diagonal and, together, move
    # its ends past each other; they also share the key of a gate that has
    # left the pending set, met before (0) or after (2) the live one in the
    # fixed iteration order of small integers
    hw = CouplingGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    m = Mapping(4, 4)
    pending = [PendingPair(1, (0, 2))]
    helps = frozenset({stale, 1})
    cands = [SwapCandidate(edge=(0, 1), helps=helps), SwapCandidate(edge=(2, 3), helps=helps)]
    csg = csg_of([], cands, [], pending, m, hw, empty_profile(hw), 0.0)
    assert [v.edge for v in csg.vertices] == [(0, 1), (2, 3)]
    assert csg.conflict_edges == {(0, 1)}
    assert csg.crosstalk_edges == {}


def test_stale_help_keys_are_skipped():
    hw = line5()
    m = Mapping(5, 5)
    ip = InProgressSwap(edge=(0, 1), remaining_time=2, helps=frozenset({"gone"}))
    cand = SwapCandidate(edge=(3, 4), helps=frozenset({"gone"}))
    csg = csg_of([], [cand], [ip], [], m, hw, empty_profile(hw), 0.0)
    assert len(csg.vertices) == 2
    assert csg.conflict_edges == set()


def test_vertex_ordering_and_busy_edge_skip():
    hw = line5()
    m = Mapping(5, 5)
    ip = InProgressSwap(edge=(2, 3), remaining_time=1, helps=frozenset())
    cgates = [PendingPair(7, (0, 1))]
    cands = [
        SwapCandidate(edge=(2, 3), helps=frozenset({7})),  # same edge as the flight
        SwapCandidate(edge=(3, 4), helps=frozenset({7})),
    ]
    csg = csg_of(cgates, cands, [ip], cgates, m, hw, empty_profile(hw), 0.0)
    kinds = [(v.kind, v.edge) for v in csg.vertices]
    assert kinds == [("inprogress", (2, 3)), ("cgate", (0, 1)), ("swap", (3, 4))]
    assert csg.vertices[0].remaining_time == 1
    assert csg.vertices[1].gate_key == 7


def test_allowance_greedy_permits_cheapest_first():
    hw = CouplingGraph(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        edge_error={e: 0.005 for e in [(0, 1), (1, 2), (2, 3), (3, 4)]},
    )
    prof = CrosstalkProfile(
        hw,
        [
            CrosstalkRecord((0, 1), (2, 3), 0.01, 0.01),
            CrosstalkRecord((0, 1), (3, 4), 0.03, 0.03),
        ],
    )
    m = Mapping(5, 5)
    cgates = [PendingPair(0, (0, 1)), PendingPair(1, (2, 3)), PendingPair(2, (3, 4))]
    csg = csg_of(cgates, [], [], cgates, m, hw, prof, allowance_left=0.03)
    # excesses: (0,1)/(2,3) costs 0.01, (0,1)/(3,4) costs 0.05
    assert csg.permitted_pairs == [(0, 1, pytest.approx(0.01))]
    assert set(csg.crosstalk_edges) == {(0, 2)}
    assert csg.crosstalk_edges[(0, 2)] == pytest.approx(0.05)
    # with no allowance both pairs become edges
    csg0 = csg_of(cgates, [], [], cgates, m, hw, prof, allowance_left=0.0)
    assert csg0.permitted_pairs == []
    assert set(csg0.crosstalk_edges) == {(0, 1), (0, 2)}


def test_in_progress_pairs_never_get_crosstalk_edges():
    # both links rated, so a priced pair would be an edge at allowance 0
    hw = CouplingGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], edge_error=dict.fromkeys([(0, 1), (2, 3)], 0.01))
    prof = CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (2, 3), 0.5, 0.5)])
    m = Mapping(5, 5)
    flights = [
        InProgressSwap(edge=(0, 1), remaining_time=2, helps=frozenset()),
        InProgressSwap(edge=(2, 3), remaining_time=1, helps=frozenset()),
    ]
    csg = csg_of([], [], flights, [], m, hw, prof, 0.0)
    assert csg.crosstalk_edges == {}
    assert csg.conflict_edges == set()


def test_two_distant_gates_csg_shape():
    hw, prof = ring6()
    m = Mapping(6, 6)
    pending = [PendingPair(0, (0, 2)), PendingPair(1, (3, 5))]
    cands = useful_swaps(pending, m, hw)
    assert [(c.edge, set(c.helps)) for c in cands] == [
        ((0, 1), {0}),
        ((1, 2), {0}),
        ((3, 4), {1}),
        ((4, 5), {1}),
    ]
    csg = csg_of([], cands, [], pending, m, hw, prof, 0.0)
    assert sum(1 for v in csg.vertices if v.kind == "cgate") == 0
    assert sum(1 for v in csg.vertices if v.kind == "swap") == 4
    assert csg.conflict_edges == {(0, 1), (2, 3)}
    assert set(csg.crosstalk_edges) == {(0, 3), (1, 2)}
    assert csg.crosstalk_edges[(0, 3)] == pytest.approx(0.08)
    classes = welsh_powell(csg)
    assert len(classes) == 2
    assert [cls.members for cls in classes] == [[0, 2], [1, 3]]
    chosen = rank_and_select(csg, classes, frozenset(), {}, None)
    assert chosen.members == [0, 2]
    chosen_edges = {csg.vertices[i].edge for i in chosen.members}
    assert chosen_edges == {(0, 1), (3, 4)}


def test_a_strictly_largest_class_is_taken_unranked(monkeypatch):
    # on a line, the gate on (1, 2) clashes with those on (0, 1) and (2, 3):
    # it takes color 0 alone, and the other two share color 1
    hw = line5()
    m = Mapping(5, 5)
    cgates = [PendingPair(0, (0, 1)), PendingPair(1, (1, 2)), PendingPair(2, (2, 3))]
    csg = csg_of(cgates, [], [], cgates, m, hw, empty_profile(hw), 0.0)
    classes = welsh_powell(csg)
    assert [cls.members for cls in classes] == [[1], [0, 2]]

    def refuse(*args):
        raise AssertionError("a strictly largest class needs no ranking")

    monkeypatch.setattr(scheduler, "_class_metrics", refuse)
    chosen = rank_and_select(csg, classes, frozenset(), {}, refuse)
    assert chosen.members == [0, 2]


def test_a_size_tie_is_ranked_in_full(monkeypatch):
    hw, prof = ring6()
    m = Mapping(6, 6)
    pending = [PendingPair(0, (0, 2)), PendingPair(1, (3, 5))]
    csg = csg_of([], useful_swaps(pending, m, hw), [], pending, m, hw, prof, 0.0)
    classes = welsh_powell(csg)
    assert [len(cls.members) for cls in classes] == [2, 2]
    ranked, asked = [], []
    class_metrics = scheduler._class_metrics

    def counted(csg, cls, last_helped, criticality):
        ranked.append(cls.color)
        return class_metrics(csg, cls, last_helped, criticality)

    monkeypatch.setattr(scheduler, "_class_metrics", counted)
    chosen = rank_and_select(csg, classes, frozenset(), {}, lambda csg, tied: asked.append(tied))
    # both classes tie on the first four keys; the lowest vertex id decides
    assert sorted(ranked) == [0, 1]
    assert asked == [classes]
    assert chosen.members == [0, 2]


def test_every_coloring_is_proper():
    hw, prof = ring6()
    m = Mapping(6, 6)
    pending = [PendingPair(0, (0, 2)), PendingPair(1, (3, 5))]
    cands = useful_swaps(pending, m, hw)
    csg = csg_of([], cands, [], pending, m, hw, prof, 0.0)
    classes = welsh_powell(csg)
    color_of = {}
    for cls in classes:
        for vid in cls.members:
            color_of[vid] = cls.color
    for i, j in list(csg.conflict_edges) + list(csg.crosstalk_edges):
        assert color_of[i] != color_of[j]


def test_to_dot_mentions_every_vertex():
    hw, prof = ring6()
    m = Mapping(6, 6)
    pending = [PendingPair(0, (0, 2))]
    cands = useful_swaps(pending, m, hw)
    csg = csg_of([], cands, [], pending, m, hw, prof, 0.0)
    dot = csg.to_dot("it0")
    assert dot.startswith("graph it0 {")
    for v in csg.vertices:
        assert f"v{v.vertex_id}" in dot


@pytest.mark.parametrize("rows,seed", [(4, 1), (5, 2)])
def test_the_window_is_the_allowance_left_that_builds_the_same_csg(monkeypatch, rows, seed):
    """Each CSG a seeded grid compile builds is rebuilt, on the same
    inputs, at the ends and middle of its window: the same graph.  At a
    finite hi the least refused pair fits, so the graph differs."""
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng)
    circuit = random_circuit(rows * rows, 100, rng)
    seen = {"bounded": 0, "spent": 0, "unpriced": 0}

    def shape(csg):
        return csg.adjacency, csg.permitted_pairs, csg.crosstalk_edges

    def checked_build_csg(*args):
        *inputs, allowance_left = args
        csg = build_csg(*args)
        lo, hi = csg.window
        assert lo <= allowance_left < hi
        inside = [lo, math.nextafter(hi, 0.0)] + ([(lo + hi) / 2] if hi < math.inf else [])
        for left in inside:
            assert shape(build_csg(*inputs, left)) == shape(csg)
        if hi < math.inf:
            assert shape(build_csg(*inputs, hi)) != shape(csg)
            seen["bounded"] += 1
        if not csg.permitted_pairs and not csg.crosstalk_edges:
            assert csg.window == (0.0, math.inf)
            seen["unpriced"] += 1
        seen["spent"] += lo > 0.0
        return csg

    monkeypatch.setattr(scheduler, "build_csg", checked_build_csg)
    scheduler.compile_circuit(circuit, hw, prof, allowance=0.05)
    assert seen["bounded"] and seen["spent"] and seen["unpriced"]

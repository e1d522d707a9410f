"""The indexed hot path against brute-force references kept in this file.

``useful_swaps`` merges each unsatisfied gate's memoised
``CouplingGraph.closer_swaps``, which scans only the edges at the gate's
endpoints, ``build_csg`` finds its vertex pairs through indexes,
``Csg.neighbors`` reads the adjacency ``build_csg`` fills, a layer with
SWAPs in flight commits the first of ``color_classes`` without coloring
the rest, ``CircuitRun`` keeps its ready set incrementally,
``ScheduleState`` keeps its drained mapping and its crosstalk total as it
goes.  The references
below are the straightforward versions: every coupling edge, every vertex
pair, both edge sets scanned per lookup, the full coloring's color 0,
``frontier`` recomputed from the executed set, a mapping copy with the
in-flight routing SWAPs applied, and the ledger summed again.  Seeded grid
compiles run with checking wrappers around the scheduler's calls, so every
state a compile meets is compared.

Pauli-ladder synthesis tests whether a candidate SWAP keeps every executed
ladder pair adjacent by moving the pair's two physical qubits, and finds
the SWAP that brings a separated pair closer during the uncompute pass
through the edges at those qubits.  Its references preview a mapping for
every coupling edge instead.
"""

import math
import random

import pytest

import chromaroute.scheduler as scheduler
import chromaroute.vqa as vqa
from chromaroute import (
    CouplingGraph,
    CrosstalkProfile,
    CrosstalkRecord,
    Gate,
    HardwareError,
    InvariantError,
    LogicalCircuit,
    Mapping,
    PauliProgram,
    PauliString,
    compile_circuit,
    synthesize,
)
from chromaroute.csg import PendingPair, SwapCandidate, build_csg, useful_swaps
from chromaroute.ir import frontier
from chromaroute.scheduler import CircuitRun, ColorClass, ScheduleState, welsh_powell

# The seeded compiles count their allowance in excess error, the only unit.
UNITS = ["error"]


def grid_device(rows: int, cols: int, rng: random.Random, error_levels=None):
    """A grid with isolated error rates, and crosstalk records on about half
    of the disjoint link pairs at hop distance 1.  With ``error_levels`` each
    isolated rate is drawn from that list, so equal rates are common."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    edge_error = {
        e: rng.choice(error_levels) if error_levels else rng.uniform(0.005, 0.02) for e in edges
    }
    hw = CouplingGraph(rows * cols, edges, edge_error=edge_error)
    dist = hw.all_pairs_distance()
    records = []
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1 :]:
            if set(e1) & set(e2) or min(dist[a][b] for a in e1 for b in e2) != 1:
                continue
            if rng.random() < 0.5:
                records.append(
                    CrosstalkRecord(
                        e1,
                        e2,
                        edge_error[e1] * rng.uniform(1.5, 4.0),
                        edge_error[e2] * rng.uniform(1.5, 4.0),
                    )
                )
    return hw, CrosstalkProfile(hw, records)


def random_circuit(num_qubits: int, size: int, rng: random.Random) -> LogicalCircuit:
    gates = []
    for gid in range(size):
        roll = rng.random()
        if roll < 0.3:
            gates.append(Gate(gid, "u", (rng.randrange(num_qubits),), label="h"))
        else:
            kind = "swap" if roll < 0.35 else "cx"
            gates.append(Gate(gid, kind, tuple(rng.sample(range(num_qubits), 2))))
    return LogicalCircuit(num_qubits, gates)


def reference_useful_swaps(pending, mapping, hw):
    """Every coupling edge, tried against every unsatisfied gate."""
    dist = hw.all_pairs_distance()
    unsatisfied = []
    for p in pending:
        pa, pb = mapping.phys(p.logicals[0]), mapping.phys(p.logicals[1])
        if not hw.has_edge(pa, pb):
            unsatisfied.append((p, pa, pb))
    out = []
    for edge in sorted(hw.edges):
        a, b = edge
        helps = set()
        for p, pa, pb in unsatisfied:
            na = {a: b, b: a}.get(pa, pa)
            nb = {a: b, b: a}.get(pb, pb)
            if dist[na][nb] == dist[pa][pb] - 1:
                helps.add(p.key)
        if helps:
            out.append(SwapCandidate(edge=edge, helps=frozenset(helps)))
    return out


def reference_overshoots(u, v, pending_by_key, mapping, hw):
    preview = mapping.copy()
    preview.apply_swap(*u.edge)
    preview.apply_swap(*v.edge)
    dist = hw.all_pairs_distance()
    for key in u.helps & v.helps:
        gate = pending_by_key.get(key)
        if gate is None:
            continue
        la, lb = gate.logicals
        if dist[preview.phys(la)][preview.phys(lb)] >= dist[mapping.phys(la)][mapping.phys(lb)]:
            return True
    return False


def reference_excess(prof, e1, e2):
    """The excess error of two links from their crosstalk record, never
    from the profile's memo; None when the profile does not pair them."""
    rec = prof.record_for(e1, e2)
    if rec is None:
        return None
    error_of = prof.graph.error_of
    return max((rec.e1_given_e2 - error_of(rec.e1)) + (rec.e2_given_e1 - error_of(rec.e2)), 0.0)


def reference_pairs(vertices, pending, mapping, hw, prof, allowance_left):
    """Every vertex pair in a nested i < j loop; stable sort on the cost and
    the two edges.  Returns (conflict edges, crosstalk edges, permitted
    pairs, number of cost/edge ties)."""
    pending_by_key = {p.key: p for p in pending}
    conflict = set()
    maybe = []
    for i, u in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            v = vertices[j]
            if set(u.edge) & set(v.edge):
                conflict.add((i, j))
                continue
            if u.kind != "cgate" and v.kind != "cgate" and u.helps & v.helps:
                if reference_overshoots(u, v, pending_by_key, mapping, hw):
                    conflict.add((i, j))
                    continue
            if u.kind == "inprogress" and v.kind == "inprogress":
                continue
            cost = reference_excess(prof, u.edge, v.edge)
            if cost is not None:
                maybe.append((cost, u.edge, v.edge, i, j))
    maybe.sort(key=lambda t: t[:3])
    ties = len(maybe) - len({t[:3] for t in maybe})
    crosstalk = {}
    permitted = []
    running = 0.0
    for cost, _, _, i, j in maybe:
        if running + cost <= allowance_left:
            running += cost
            permitted.append((i, j, cost))
        else:
            crosstalk[(i, j)] = cost
    return conflict, crosstalk, permitted, ties


def reference_neighbors(csg, vid):
    out = set()
    for i, j in list(csg.conflict_edges) + list(csg.crosstalk_edges):
        if i == vid:
            out.add(j)
        elif j == vid:
            out.add(i)
    return out


def reference_drained(state):
    """The mapping once the in-flight routing SWAPs land, built afresh."""
    drained = state.mapping.copy()
    for f in state.flights:
        if f.gate_key is None:
            drained.apply_swap(*f.edge)
    return drained


def reference_welsh_powell(csg):
    colors = {v.vertex_id: 0 for v in csg.vertices if v.kind == "inprogress"}
    order = sorted(
        (v.vertex_id for v in csg.vertices if v.vertex_id not in colors),
        key=lambda vid: (-len(reference_neighbors(csg, vid)), vid),
    )
    for vid in order:
        taken = {colors[n] for n in reference_neighbors(csg, vid) if n in colors}
        c = 0
        while c in taken:
            c += 1
        colors[vid] = c
    by_color = {}
    for vid, c in colors.items():
        by_color.setdefault(c, []).append(vid)
    return [ColorClass(color=c, members=sorted(m)) for c, m in sorted(by_color.items())]


def checking_build_csg(seen):
    """``build_csg`` wrapped to compare each CSG and its coloring with the
    references, counting what it saw into ``seen``.  Every candidate SWAP
    helps only gates of ``pending``, which never holds an executed gate, so
    class ranking needs no filter on the help keys of the last layer."""

    def checked_build_csg(cgates, swaps, in_prog, pending, mapping, hw, prof, allowance_left):
        csg = build_csg(cgates, swaps, in_prog, pending, mapping, hw, prof, allowance_left)
        pending_keys = {p.key for p in pending}
        assert all(v.helps <= pending_keys for v in csg.vertices if v.kind == "swap")
        conflict, crosstalk, permitted, ties = reference_pairs(
            csg.vertices, pending, mapping, hw, prof, allowance_left
        )
        assert csg.conflict_edges == conflict
        assert csg.crosstalk_edges == crosstalk
        assert csg.permitted_pairs == permitted
        for v in csg.vertices:
            assert csg.neighbors(v.vertex_id) == reference_neighbors(csg, v.vertex_id)
            assert csg.degree(v.vertex_id) == len(reference_neighbors(csg, v.vertex_id))
        assert welsh_powell(csg) == reference_welsh_powell(csg)
        seen["csgs"] += 1
        seen["permitted"] += len(permitted)
        seen["crosstalk"] += len(crosstalk)
        seen["ties"] += ties
        return csg

    return checked_build_csg


@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("rows,seed,size", [(4, 1, 90), (5, 2, 110), (6, 3, 130)])
def test_indexed_paths_match_the_references(monkeypatch, rows, seed, size, units):
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng)
    circuit = random_circuit(rows * rows, size, rng)
    seen = dict.fromkeys(
        ("swaps", "csgs", "permitted", "crosstalk", "ties", "in_flight", "routing_in_flight"), 0
    )

    def checked_useful_swaps(pending, mapping, hw):
        got = useful_swaps(pending, mapping, hw)
        assert got == reference_useful_swaps(pending, mapping, hw)
        seen["swaps"] += len(got)
        return got

    runs = []

    class RecordedRun(CircuitRun):
        def __init__(self, circuit, state):
            super().__init__(circuit, state)
            runs.append(self)

    def check_ready(info):
        run = runs[-1]
        in_flight = {f.gate_key for f in run.state.flights if f.gate_key is not None}
        want = {g.gate_id for g in frontier(circuit, run.executed)} - in_flight
        assert run.ready == want
        assert run.state.drained().as_dict() == reference_drained(run.state).as_dict()
        seen["in_flight"] += len(in_flight)
        seen["routing_in_flight"] += sum(f.gate_key is None for f in run.state.flights)

    monkeypatch.setattr(scheduler, "useful_swaps", checked_useful_swaps)
    monkeypatch.setattr(scheduler, "build_csg", checking_build_csg(seen))
    monkeypatch.setattr(scheduler, "CircuitRun", RecordedRun)
    for allowance in (0.0, 0.05, math.inf):
        sched = compile_circuit(circuit, hw, prof, allowance=allowance, on_iteration=check_ready)
        scheduler.verify_routing(sched, hw, prof, circuit=circuit, allowance=allowance)
    # the comparisons saw every kind of outcome
    assert seen["swaps"] and seen["csgs"] and seen["in_flight"] and seen["routing_in_flight"]
    # ties on (cost, e_i, e_j): a cgate and a candidate SWAP on one edge
    assert seen["permitted"] and seen["crosstalk"] and seen["ties"]


@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("allowance", [0.05, math.inf])
def test_running_crosstalk_total_is_the_ledger_sum(monkeypatch, allowance, units):
    """``ScheduleState`` adds each ledger entry's excess to its total as the
    entry is written; after every placement, in both scheduling loops, the
    total is exactly the ledger's left-to-right sum, ``ledger_total``."""
    place = ScheduleState.place
    seen = {"placements": 0, "entries": 0}

    def checked_place(state, op):
        place(state, op)
        assert state._spent == state.result().ledger_total()
        seen["placements"] += 1
        seen["entries"] = max(seen["entries"], len(state.ledger))

    monkeypatch.setattr(ScheduleState, "place", checked_place)
    for rows, seed in ((4, 1), (5, 2), (6, 3)):
        rng = random.Random(seed)
        hw, prof = grid_device(rows, rows, rng)
        circuit = random_circuit(rows * rows, 100, rng)
        program = random_pauli_program(rows * rows, 8, rng)
        compile_circuit(circuit, hw, prof, allowance=allowance)
        synthesize(program, hw, prof, allowance=allowance)
    assert seen["placements"]
    assert seen["entries"] > 1


def test_missing_isolated_rate_raises_only_when_the_pair_is_priced():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    hw = CouplingGraph(5, edges, edge_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01})
    prof = CrosstalkProfile(
        hw,
        [
            CrosstalkRecord((0, 1), (2, 3), 0.02, 0.02),
            CrosstalkRecord((0, 1), (3, 4), 0.02, 0.02),
        ],
    )
    m = Mapping(5, 5)
    # (3, 4) has no isolated rate, but it shares qubit 3 with (2, 3), so
    # the conflict comes first and its profiled pair with (0, 1) is absent
    gates = [PendingPair(0, (2, 3)), PendingPair(1, (3, 4))]
    csg = build_csg(gates, [], [], gates, m, hw, prof, 1.0)
    assert csg.conflict_edges == {(0, 1)}
    gates = [PendingPair(0, (0, 1)), PendingPair(1, (2, 3))]
    csg = build_csg(gates, [], [], gates, m, hw, prof, 1.0)
    assert csg.permitted_pairs == [(0, 1, pytest.approx(0.02))]
    gates = [PendingPair(0, (0, 1)), PendingPair(1, (3, 4))]
    with pytest.raises(HardwareError, match=r"missing error rate for edge \(3, 4\)"):
        build_csg(gates, [], [], gates, m, hw, prof, 1.0)
    # a lookup that raised is asked again, not remembered; one that
    # returned is remembered per ordered pair
    asked = []
    record_for = prof.record_for
    prof.record_for = lambda e1, e2: asked.append((e1, e2)) or record_for(e1, e2)
    with pytest.raises(HardwareError, match="missing error rate"):
        prof.excess_error((0, 1), (3, 4))
    assert prof.excess_error((2, 3), (0, 1)) == prof.excess_error((2, 3), (0, 1))
    assert asked == [((0, 1), (3, 4)), ((2, 3), (0, 1))]
    with pytest.raises(HardwareError, match="unknown edge"):
        prof.excess_error((0, 1), (0, 4))


def test_starting_a_gate_that_is_not_ready_is_an_invariant_error():
    hw = CouplingGraph(3, [(0, 1), (1, 2)])
    circuit = LogicalCircuit(3, [Gate(0, "cx", (0, 1)), Gate(1, "cx", (1, 2))])
    state = ScheduleState(hw, CrosstalkProfile(hw, []), 0.0, 3)
    run = CircuitRun(circuit, state)
    assert run.ready == {0}
    state.open_layer()
    with pytest.raises(InvariantError, match="gate 1 started before it was ready"):
        run.run_gate(1)
    run.run_gate(0)
    with pytest.raises(InvariantError, match="gate 0 started before it was ready"):
        run.run_gate(0)
    assert run.ready == {1}


def random_pauli_program(width: int, num_strings: int, rng: random.Random) -> PauliProgram:
    strings = []
    for _ in range(num_strings):
        ops = ["I"] * width
        for q in rng.sample(range(width), rng.randint(3, min(10, width))):
            ops[q] = rng.choice("XYZ")
        strings.append(PauliString("".join(ops), round(rng.uniform(-1.0, 1.0), 6)))
    return PauliProgram(width, strings)


@pytest.mark.parametrize("rows,seed", [(4, 1), (5, 2), (6, 3)])
def test_flight_layers_commit_the_reference_color_zero(monkeypatch, rows, seed):
    """While SWAPs are in flight ``schedule_layer`` commits the first of
    ``color_classes`` without coloring the rest; it must be the full
    coloring's color 0."""
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng)
    circuit = random_circuit(rows * rows, 110, rng)
    program = random_pauli_program(rows * rows, 12, rng)
    seen = {"flight_layers": 0, "joined": 0}

    def check_color_zero(info):
        csg = info["csg"]
        if csg is None or not any(v.kind == "inprogress" for v in csg.vertices):
            return
        want = reference_welsh_powell(csg)[0]
        assert info["selected"] == want
        seen["flight_layers"] += 1
        seen["joined"] += any(csg.vertices[i].kind != "inprogress" for i in want.members)

    def without_flights(fn):
        def checked(csg, *args):
            assert not any(v.kind == "inprogress" for v in csg.vertices)
            return fn(csg, *args)

        return checked

    # the other layers are colored and ranked as before
    monkeypatch.setattr(scheduler, "welsh_powell", without_flights(welsh_powell))
    monkeypatch.setattr(scheduler, "rank_and_select", without_flights(scheduler.rank_and_select))
    for allowance in (0.0, 0.05, math.inf):
        compile_circuit(circuit, hw, prof, allowance=allowance, on_iteration=check_color_zero)
        synthesize(program, hw, prof, allowance=allowance, on_iteration=check_color_zero)
    # flight layers where a cgate or a new SWAP joined the flights
    assert seen["flight_layers"] and seen["joined"]


def test_closer_swaps_match_a_scan_of_every_edge():
    grid = [(r * 4 + c, r * 4 + c + 1) for r in range(4) for c in range(3)]
    grid += [(q, q + 4) for q in range(12)]
    # the 16-qubit heavy-hex of a Falcon r4P device
    heavy_hex = [(0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7)]
    heavy_hex += [(7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14)]
    devices = {
        "grid": CouplingGraph(16, grid),
        "line": CouplingGraph(7, [(q, q + 1) for q in range(6)]),
        "ring": CouplingGraph(8, [(q, (q + 1) % 8) for q in range(8)]),
        "heavy_hex": CouplingGraph(16, heavy_hex),
    }
    for name, hw in devices.items():
        dist = hw.all_pairs_distance()
        adjacent = 0
        for pa in range(hw.num_qubits):
            for pb in range(hw.num_qubits):
                if pa == pb:
                    continue
                want = []
                for edge in sorted(hw.edges):
                    moved = {edge[0]: edge[1], edge[1]: edge[0]}
                    if dist[moved.get(pa, pa)][moved.get(pb, pb)] == dist[pa][pb] - 1:
                        want.append(edge)
                got = hw.closer_swaps(pa, pb)
                assert got == tuple(want), (name, pa, pb)
                assert hw.closer_swaps(pb, pa) is got  # one memo entry per pair
                if dist[pa][pb] == 1:
                    assert got == ()
                    adjacent += 1
                else:
                    assert got
        assert adjacent == 2 * len(hw.edges)


def reference_protection_breakers(protected, drained, hw):
    """Every coupling edge, kept when its SWAP on a preview of ``drained``
    leaves some executed ladder pair non-adjacent."""
    out = set()
    if not protected:
        return out
    for edge in sorted(hw.edges):
        preview = drained.copy()
        preview.apply_swap(*edge)
        if any(not hw.has_edge(preview.phys(c), preview.phys(t)) for c, t in protected):
            out.add(edge)
    return out


def reference_closing_swaps(mapping, u, v, hw):
    """Every coupling edge whose SWAP on a preview of ``mapping`` brings u
    and v one hop closer, as sorted (isolated error, edge) keys: the
    uncompute router takes the first."""
    dist = hw.all_pairs_distance()
    cur = dist[mapping.phys(u)][mapping.phys(v)]
    out = []
    for edge in sorted(hw.edges):
        preview = mapping.copy()
        preview.apply_swap(*edge)
        if dist[preview.phys(u)][preview.phys(v)] == cur - 1:
            out.append((hw.edge_error.get(edge, 0.0), edge))
    return sorted(out)


@pytest.mark.parametrize("units", UNITS)
@pytest.mark.parametrize("rows,seed", [(4, 1), (5, 2), (6, 3)])
def test_synthesis_indexes_match_the_references(monkeypatch, rows, seed, units):
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng, error_levels=(0.01, 0.02))
    program = random_pauli_program(rows * rows, 16, rng)
    seen = dict.fromkeys(
        ("breakers", "apart", "routed", "route_ties", "drained", "csgs", "permitted", "crosstalk", "ties"),
        0,
    )
    keeps_ladder, closing_swap = vqa._keeps_ladder, vqa._closing_swap
    breakers = {}  # the reference's answer per (ladder, drained placement)

    def checked_keeps_ladder(edge, ladder, drained, hw):
        got = keeps_ladder(edge, ladder, drained, hw)
        key = (tuple(ladder), tuple(drained.as_dict().items()))
        if key not in breakers:
            breakers[key] = reference_protection_breakers(ladder, drained, hw)
            seen["apart"] += sum(not hw.has_edge(drained.phys(c), drained.phys(t)) for c, t in ladder)
        assert got == (edge not in breakers[key])
        seen["breakers"] += not got
        return got

    def checked_closing_swap(mapping, u, v, hw):
        got = closing_swap(mapping, u, v, hw)
        want = reference_closing_swaps(mapping, u, v, hw)
        assert got == want[0][1]
        seen["routed"] += 1
        seen["route_ties"] += len(want) > 1 and want[0][0] == want[1][0]
        return got

    class CheckedState(ScheduleState):
        def drained(self):
            got = super().drained()
            assert got.as_dict() == reference_drained(self).as_dict()
            seen["drained"] += 1
            return got

    monkeypatch.setattr(vqa, "_keeps_ladder", checked_keeps_ladder)
    monkeypatch.setattr(vqa, "_closing_swap", checked_closing_swap)
    # synthesis reaches build_csg through scheduler.schedule_layer
    monkeypatch.setattr(scheduler, "build_csg", checking_build_csg(seen))
    monkeypatch.setattr(vqa, "ScheduleState", CheckedState)
    for allowance in (0.0, 0.05, math.inf):
        sched = synthesize(program, hw, prof, allowance=allowance)
        scheduler.verify_routing(sched, hw, prof, allowance=allowance)
    # the comparisons met a SWAP that breaks the ladder, a protected pair
    # that was already apart, and uncompute routing with a tie on the
    # isolated error
    assert seen["breakers"] and seen["apart"]
    assert seen["routed"] and seen["route_ties"]
    assert seen["csgs"] and seen["drained"] and seen["permitted"] and seen["crosstalk"]

"""The indexed hot path against brute-force references kept in this file.

``useful_swaps`` merges each unsatisfied gate's memoised
``CouplingGraph.closer_swaps``, which scans only the edges at the gate's
endpoints, and the circuit compiler merges the same into its layer items
in one pass over its ready gates (``_layer_items``), ``build_csg`` finds
its vertex pairs through indexes, ``Csg.adjacency`` is the one edge store
``build_csg`` fills, a layer with SWAPs in flight commits the first of
``color_classes`` without coloring the rest, and without the full CSG
when it can permit no crosstalk pair (``flight_color_zero``), a layer with
no choice commits without any CSG, ``CircuitRun`` keeps its ready set
incrementally, ``ScheduleState`` keeps its drained mapping and its
crosstalk total as it goes.  The references below are the
straightforward versions: every coupling edge, every vertex pair, both
edge sets scanned per lookup, the full CSG and coloring's color 0,
``frontier`` recomputed from the executed set, a mapping copy with the
in-flight routing SWAPs applied, and the ledger summed again.  Seeded grid
compiles run with checking wrappers around the scheduler's calls, so every
state a compile meets is compared.

Pauli-ladder synthesis tests whether a candidate SWAP keeps every executed
ladder pair adjacent by moving the pair's two physical qubits, and finds
the SWAP that brings a separated pair closer during the uncompute pass
through the edges at those qubits.  Its references preview a mapping for
every coupling edge instead.

The device's distance rows and synthesis's tree depths come from one BFS,
``bfs_depths``; its reference relaxes every edge until no hop count drops.
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
from chromaroute.csg import (
    InProgressSwap,
    PendingPair,
    SwapCandidate,
    build_csg,
    flight_color_zero,
    useful_swaps,
)
from chromaroute.hardware import bfs_depths
from chromaroute.ir import frontier
from chromaroute.scheduler import CircuitRun, ColorClass, ScheduleState, StallGuard, color_classes, welsh_powell


def grid_device(rows: int, cols: int, rng: random.Random, error_levels=None, touching=False):
    """A grid with isolated error rates, and crosstalk records on about half
    of the disjoint link pairs at hop distance 1.  With ``error_levels`` each
    isolated rate is drawn from that list, so equal rates are common; with
    ``touching`` about half of the link pairs that share a qubit get a
    record too."""
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
            if set(e1) & set(e2):
                if not touching or rng.random() >= 0.5:
                    continue
            elif min(dist[a][b] for a in e1 for b in e2) != 1:
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


def csg_of(cgates, swaps, in_progress, pending, mapping, hw, prof, allowance_left):
    """``build_csg`` on the cgates ``cgates`` and the candidates ``swaps``,
    as ``_vertex_items`` orders them: the cgates by key, then the
    candidates off the in-flight edges by edge."""
    items = scheduler._vertex_items(cgates, swaps, mapping.placement, {f.edge for f in in_progress})
    return build_csg(items, in_progress, pending, mapping, hw, prof, allowance_left)


def frozen(items):
    """``items`` with each help collection frozen, as a record holds them."""
    return [(edge, frozenset(helps), key) for edge, helps, key in items]


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
    from the profile's priced table; None when the profile does not pair
    them."""
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

    def checked_build_csg(items, in_prog, pending, mapping, hw, prof, allowance_left):
        csg = build_csg(items, in_prog, pending, mapping, hw, prof, allowance_left)
        pending_keys = {p.key for p in pending}
        assert all(v.helps <= pending_keys for v in csg.vertices if v.kind == "swap")
        conflict, crosstalk, permitted, ties = reference_pairs(
            csg.vertices, pending, mapping, hw, prof, allowance_left
        )
        assert csg.conflict_edges == conflict
        assert csg.crosstalk_edges == crosstalk
        # the adjacency is the one edge store: the derived conflict edges and
        # the crosstalk edges split its pairs between them
        adjacency_pairs = {(i, j) for i in range(len(csg.vertices)) for j in csg.adjacency[i] if i < j}
        assert csg.conflict_edges.isdisjoint(csg.crosstalk_edges)
        assert csg.conflict_edges | set(csg.crosstalk_edges) == adjacency_pairs
        assert csg.permitted_pairs == permitted
        for v in csg.vertices:
            assert csg.adjacency[v.vertex_id] == reference_neighbors(csg, v.vertex_id)
        assert welsh_powell(csg) == reference_welsh_powell(csg)
        seen["csgs"] += 1
        seen["permitted"] += len(permitted)
        seen["crosstalk"] += len(crosstalk)
        seen["ties"] += ties
        return csg

    return checked_build_csg


def reference_layer_items(state, pending, escape):
    """A compile layer's items from every pending gate's placement and, unless
    escaping, ``reference_useful_swaps`` on a freshly drained mapping less
    the edges a SWAP just landed on: the cgates by key, then the candidates
    off the in-flight edges by edge."""
    l2p, hw = state.mapping.placement, state.hw
    cgates = sorted(
        (p for p in pending if hw.has_edge(l2p[p.logicals[0]], l2p[p.logicals[1]])), key=lambda p: p.key
    )
    items = [(tuple(sorted((l2p[p.logicals[0]], l2p[p.logicals[1]]))), frozenset(), p.key) for p in cgates]
    if escape is None:
        swaps = reference_useful_swaps(pending, reference_drained(state), hw)
        assert useful_swaps(pending, state.drained(), hw) == swaps
        swaps = [s for s in swaps if s.edge not in state.last_completed_edges]
    else:
        swaps = sorted(escape, key=lambda s: s.edge)
    busy = {f.edge for f in state.flights}
    return items + [(s.edge, s.helps, None) for s in swaps if s.edge not in busy]


def escaping_case():
    """A 2x6 grid and a circuit whose compile escapes at allowance 0, once
    with SWAPs in flight."""
    rng = random.Random(7)
    hw, prof = grid_device(2, 6, rng)
    return hw, prof, random_circuit(12, 120, rng)


@pytest.mark.parametrize("rows,seed,size", [(4, 1, 90), (5, 2, 110), (6, 3, 130)])
def test_indexed_paths_match_the_references(monkeypatch, rows, seed, size):
    """Each compile layer's items against the reference's, on hooked and
    hook-free compiles of a seeded grid and of ``escaping_case``, and each
    CSG and the ready set and drained mapping of each hooked layer."""
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng)
    circuit = random_circuit(rows * rows, size, rng)
    seen = dict.fromkeys(
        ("swaps", "csgs", "permitted", "crosstalk", "ties", "in_flight", "routing_in_flight"), 0
    )
    layers = dict.fromkeys(("hooked", "hook_free", "escaping", "escape_swaps"), 0)
    layer_items, hooked = scheduler._layer_items, [False]

    def checked_layer_items(state, pending, escape):
        got = layer_items(state, pending, escape)
        assert frozen(got) == reference_layer_items(state, pending, escape)
        swaps = sum(key is None for _, _, key in got)
        seen["swaps"] += swaps
        layers["hooked" if hooked[0] else "hook_free"] += 1
        layers["escaping"] += escape is not None
        layers["escape_swaps"] += escape is not None and swaps
        return got

    runs = []

    class RecordedRun(CircuitRun):
        def __init__(self, circuit, state):
            super().__init__(circuit, state)
            runs.append(self)

    def check_ready(info):
        run = runs[-1]
        in_flight = {f.gate_key for f in run.state.flights if f.gate_key is not None}
        want = {g.gate_id for g in frontier(run.circuit, run.executed)} - in_flight
        assert run.ready == want
        assert run.state.drained().as_dict() == reference_drained(run.state).as_dict()
        seen["in_flight"] += len(in_flight)
        seen["routing_in_flight"] += sum(f.gate_key is None for f in run.state.flights)

    monkeypatch.setattr(scheduler, "_layer_items", checked_layer_items)
    monkeypatch.setattr(scheduler, "build_csg", checking_build_csg(seen))
    monkeypatch.setattr(scheduler, "CircuitRun", RecordedRun)
    cases = [(hw, prof, circuit, allowance) for allowance in (0.0, 0.05, math.inf)]
    cases.append((*escaping_case(), 0.0))
    for case_hw, case_prof, case_circuit, allowance in cases:
        for hooked[0] in (True, False):
            hook = check_ready if hooked[0] else None
            sched = compile_circuit(case_circuit, case_hw, case_prof, allowance=allowance, on_iteration=hook)
            scheduler.verify_routing(sched, case_hw, case_prof, circuit=case_circuit, allowance=allowance)
    # the comparisons saw every kind of outcome
    assert seen["swaps"] and seen["csgs"] and seen["in_flight"] and seen["routing_in_flight"]
    # ties on (cost, e_i, e_j): a cgate and a candidate SWAP on one edge
    assert seen["permitted"] and seen["crosstalk"] and seen["ties"]
    assert all(layers.values()), layers


@pytest.mark.parametrize("allowance", [0.05, math.inf])
def test_running_crosstalk_total_is_the_ledger_sum(monkeypatch, allowance):
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


def test_a_profile_prices_each_record_at_load_and_refuses_an_unrated_link():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    hw = CouplingGraph(5, edges, edge_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01})
    priced = CrosstalkRecord((0, 1), (2, 3), 0.02, 0.02)
    # (3, 4) has no isolated rate, so its record cannot be priced
    unrated = CrosstalkRecord((0, 1), (3, 4), 0.02, 0.02)
    with pytest.raises(HardwareError, match=r"record \(0, 1\) / \(3, 4\): missing error rate for edge \(3, 4\)"):
        CrosstalkProfile(hw, [priced, unrated])
    prof = CrosstalkProfile(hw, [priced])
    assert prof.partners((0, 1)) == {(2, 3): 0.02} and prof.partners((2, 3)) == {(0, 1): 0.02}
    assert prof.partners((3, 4)) == {} and prof.cheapest_excess == 0.02
    for e1, e2 in [((0, 1), (2, 3)), ((1, 0), (3, 2)), ((3, 2), (0, 1))]:
        assert prof.excess_error(e1, e2) == prof.excess_error(e2, e1) == 0.02
    assert prof.excess_error((0, 1), (1, 2)) == 0.0
    gates = [PendingPair(0, (0, 1)), PendingPair(1, (2, 3))]
    csg = csg_of(gates, [], [], gates, Mapping(5, 5), hw, prof, 1.0)
    assert csg.permitted_pairs == [(0, 1, 0.02)]
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
    coloring's color 0.  The hook asks for every CSG, so these layers all
    take the full path; ``test_unpriced_flight_layers_match_the_full_csg``
    checks the other one."""
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


def color_zero_commits(csg):
    """The ``(edge, helps, gate key)`` of each cgate and candidate SWAP in
    color 0 of ``color_classes(csg)``, in the order ``schedule_layer``
    commits them; none for an empty CSG."""
    color_zero = next(color_classes(csg), ColorClass(0, []))
    vertices = [csg.vertices[i] for i in color_zero.members]
    return [(v.edge, v.helps, v.gate_key) for v in vertices if v.kind != "inprogress"]


def checking_flight_layers(monkeypatch, seen, count=None):
    """Check every flight layer decided without the full CSG because its
    allowance left is below the profile's cheapest pair against color 0 of
    ``build_csg`` and ``color_classes``, in commit order.  Every loop
    decides them in ``schedule_layer``, checked on the items it is given;
    the compile's, for a guard that is not escaping, must be
    ``_vertex_items`` of the cgates of ``executable_pairs`` and the
    candidates of ``StallGuard.swaps``.  Returns the layers checked that go
    to ``flight_color_zero``, by path: "compile" for the compile's layers
    that are not escaping, "escaping" for those that are, and "synthesize"
    for synthesis's; a layer with no choice must record (0.0, inf, ()) and
    counts as "no_choice".  Over the former it counts into ``seen`` the
    layers where a vertex joined the flights and where no vertex was free
    of them, the vertices a flight kept out by crosstalk alone, and the
    joint overshoots between two flight-free vertices; ``count``, when
    given, gets each one's items, flights and profile too."""
    layers = dict.fromkeys(("compile", "synthesize", "escaping", "no_choice"), 0)
    escaping = [False]  # whether the compile's layer being decided escapes

    def check(path, state, items, pending, record):
        in_prog, mapping, hw, prof = state.flights, state.mapping, state.hw, state.profile
        if path != "synthesize" and not escaping[0]:
            cgates = scheduler.executable_pairs(pending, mapping, hw)
            swaps = StallGuard(0, hw).swaps(pending, state)
            busy = {f.edge for f in in_prog}
            assert frozen(items) == scheduler._vertex_items(cgates, swaps, mapping.placement, busy)
        path = "escaping" if path == "compile" and escaping[0] else path
        # every allowance below prof.cheapest_excess gives this CSG
        assert prof.cheapest_excess > 0.0
        csg = build_csg(items, in_prog, pending, mapping, hw, prof, 0.0)
        assert not csg.permitted_pairs
        got = list(record[2])
        assert got == color_zero_commits(csg)
        if not items:
            assert record == (0.0, math.inf, ())
            layers["no_choice"] += 1
            return
        assert record[:2] == (0.0, prof.cheapest_excess)
        layers[path] += 1
        if count is not None:
            count(items, in_prog, prof)
        vertices = csg.vertices
        flights = {v.vertex_id for v in vertices if v.kind == "inprogress"}
        busy = {q for i in flights for q in vertices[i].edge}
        free = set()
        for v in vertices:
            if v.vertex_id in flights:
                continue
            ties = csg.adjacency[v.vertex_id] & flights
            if not ties:
                free.add(v.vertex_id)
            elif not busy.intersection(v.edge):
                seen["crosstalk_only"] += all((f, v.vertex_id) in csg.crosstalk_edges for f in ties)
        for i, j in csg.conflict_edges:
            if i in free and j in free and not set(vertices[i].edge) & set(vertices[j].edge):
                seen["free_overshoot"] += 1
        seen["joined"] += bool(got)
        seen["none_free"] += not free

    layer_items = scheduler._layer_items

    def logged_layer_items(state, pending, escape):
        escaping[0] = escape is not None
        return layer_items(state, pending, escape)

    def checking_layer(path, layer):
        def checked_layer(state, items, pending, **kwargs):
            out = layer(state, items, pending, **kwargs)
            if out[0] is None and state.flights and state.allowance_left() < state.profile.cheapest_excess:
                check(path, state, items, pending, out[2])
            return out

        return checked_layer

    monkeypatch.setattr(scheduler, "_layer_items", logged_layer_items)
    monkeypatch.setattr(scheduler, "schedule_layer", checking_layer("compile", scheduler.schedule_layer))
    monkeypatch.setattr(vqa, "schedule_layer", checking_layer("synthesize", vqa.schedule_layer))
    return layers


@pytest.mark.parametrize("rows,seed", [(4, 1), (5, 2), (6, 3)])
def test_unpriced_flight_layers_match_the_full_csg(monkeypatch, rows, seed):
    """With no ``on_iteration`` hook a flight layer whose allowance left is
    below the profile's cheapest pair commits what ``flight_color_zero``
    gives on the compile's or synthesis's items; it must be what the full
    CSG's color 0 commits, and each schedule the one a hooked run, which
    builds every CSG, gives.  Both loops must be met."""
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng)
    circuit = random_circuit(rows * rows, 110, rng)
    program = random_pauli_program(rows * rows, 12, rng)
    seen = dict.fromkeys(("joined", "none_free", "crosstalk_only", "free_overshoot"), 0)
    layers = checking_flight_layers(monkeypatch, seen)
    for allowance in (0.0, 0.05):
        for compile_fn, source in ((compile_circuit, circuit), (synthesize, program)):
            sched = compile_fn(source, hw, prof, allowance=allowance)
            hooked = compile_fn(source, hw, prof, allowance=allowance, on_iteration=lambda info: None)
            assert sched.to_json_dict() == hooked.to_json_dict()
    assert all(seen.values()), seen
    assert layers["compile"] and layers["synthesize"] and layers["no_choice"], layers


@pytest.mark.parametrize("rows,seed", [(4, 1), (5, 2)])
def test_records_on_links_that_share_a_qubit_tie_once(monkeypatch, rows, seed):
    """The loader takes a record between two links that share a qubit, though
    no fixture or corpus device has one.  A flight-free vertex is then tied
    to a neighbor both by the qubit and by the record, and
    ``flight_color_zero`` must count that neighbor once in its Welsh–Powell
    degree, as the full CSG's adjacency does."""
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng, touching=True)
    circuit = random_circuit(rows * rows, 110, rng)
    program = random_pauli_program(rows * rows, 12, rng)
    seen = dict.fromkeys(("joined", "none_free", "crosstalk_only", "free_overshoot", "free_overlap"), 0)

    def counted(items, in_prog, prof):
        # pairs of flight-free vertices that share a qubit and a record
        busy = {q for f in in_prog for q in f.edge}
        priced = set().union(*(prof.partners(f.edge) for f in in_prog))
        edges = [edge for edge, _, _ in items]
        free = [e for e in edges if not busy & set(e) and e not in priced]
        seen["free_overlap"] += sum(
            1 for i, e in enumerate(free) for d in free[i + 1 :] if set(e) & set(d) and d in prof.partners(e)
        )

    layers = checking_flight_layers(monkeypatch, seen, counted)
    for allowance in (0.0, 0.05):
        for compile_fn, source in ((compile_circuit, circuit), (synthesize, program)):
            sched = compile_fn(source, hw, prof, allowance=allowance)
            hooked = compile_fn(source, hw, prof, allowance=allowance, on_iteration=lambda info: None)
            assert sched.to_json_dict() == hooked.to_json_dict()
    assert seen["free_overlap"] and seen["joined"], seen
    assert layers["compile"] and layers["synthesize"], layers


@pytest.mark.parametrize("rows,seed", [(4, 1), (5, 2), (6, 3)])
def test_no_choice_layers_commit_without_a_csg(monkeypatch, rows, seed):
    """Without a hook, a layer with no item, so no cgate and no candidate off
    the flights' edges, commits nothing new, and a layer with no flight and
    one item commits that item, both with neither ``build_csg`` nor
    ``flight_color_zero``, in both loops' ``schedule_layer``; the compile's
    nothing-new flight layers record (0.0, inf, ()).  The full CSG at
    allowance 0 and at inf commits the same, and each schedule is the one a
    hooked run gives."""
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng)
    circuit = random_circuit(rows * rows, 110, rng)
    program = random_pauli_program(rows * rows, 12, rng)
    seen = {name: {"nothing_new": 0, "one_vertex": 0} for name in ("compile_circuit", "synthesize")}
    seen["compile_circuit"]["flight_nothing_new"] = 0
    calls = {"csg": 0}
    build, color_zero, layer = scheduler.build_csg, scheduler.flight_color_zero, scheduler.schedule_layer

    def counted(fn):
        def wrapped(*args):
            calls["csg"] += 1
            return fn(*args)

        return wrapped

    def checked_layer(state, items, pending, **kwargs):
        flights = list(state.flights)
        if not items:
            kind, want = "nothing_new", []
        elif not flights and len(items) == 1:
            kind = "one_vertex"
            want = [("swap", edge) if key is None else ("cgate", key) for edge, _, key in items]
        else:
            kind = None
        if kind is not None and not kwargs["keep_csg"]:
            for allowance in (0.0, math.inf):
                csg = build(items, flights, pending, state.mapping, state.hw, state.profile, allowance)
                # color 0 is the class the full path commits: it holds the
                # flights, or it is the only class
                assert flights or len(welsh_powell(csg)) <= 1
                full = color_zero_commits(csg)
                assert [("swap", edge) if key is None else ("cgate", key) for edge, _, key in full] == want
        before = calls["csg"]
        csg, selected, record = layer(state, items, pending, **kwargs)
        if kind is not None and not kwargs["keep_csg"]:
            assert calls["csg"] == before and csg is None and selected is None
            lo, hi, items = record
            assert (lo, hi) == (0.0, math.inf)
            ran = [("cgate", key) for _, _, key in items if key is not None]
            started = [("swap", edge) for edge, _, key in items if key is None]
            assert ran + started == want
            seen[compile_fn.__name__][kind] += 1
            if compile_fn is compile_circuit and kind == "nothing_new" and flights:
                assert record == (0.0, math.inf, ())
                seen["compile_circuit"]["flight_nothing_new"] += 1
        return csg, selected, record

    monkeypatch.setattr(scheduler, "build_csg", counted(build))
    monkeypatch.setattr(scheduler, "flight_color_zero", counted(color_zero))
    monkeypatch.setattr(scheduler, "schedule_layer", checked_layer)
    monkeypatch.setattr(vqa, "schedule_layer", checked_layer)
    for allowance in (0.0, 0.05, math.inf):
        for compile_fn, source in ((compile_circuit, circuit), (synthesize, program)):
            sched = compile_fn(source, hw, prof, allowance=allowance)
            hooked = compile_fn(source, hw, prof, allowance=allowance, on_iteration=lambda info: None)
            assert sched.to_json_dict() == hooked.to_json_dict()
    assert all(all(kinds.values()) for kinds in seen.values()), seen


def test_a_flights_joint_overshoot_ties_only_vertices_on_a_flights_qubit():
    """``flight_color_zero`` looks for no flight's joint overshoot.  On
    every flight layer of the seeded compiles, a vertex tied to a flight by
    neither a shared qubit nor a crosstalk edge, so by an overshoot, shares
    a qubit with some flight, which keeps it out of color 0 anyway."""
    seen = {"flight_layers": 0, "overshoot_ties": 0}

    def check(info):
        csg = info["csg"]
        flights = [v for v in csg.vertices if v.kind == "inprogress"] if csg else []
        busy = {q for f in flights for q in f.edge}
        seen["flight_layers"] += bool(flights)
        for f in flights:
            for i in csg.adjacency[f.vertex_id]:
                v = csg.vertices[i]
                pair = (min(i, f.vertex_id), max(i, f.vertex_id))
                if v.kind != "inprogress" and not set(v.edge) & set(f.edge) and pair not in csg.crosstalk_edges:
                    seen["overshoot_ties"] += 1
                    assert busy.intersection(v.edge), (f, v)

    for rows, seed in [(4, 1), (5, 2), (6, 3)]:
        rng = random.Random(seed)
        hw, prof = grid_device(rows, rows, rng)
        circuit = random_circuit(rows * rows, 110, rng)
        program = random_pauli_program(rows * rows, 12, rng)
        for allowance in (0.0, 0.05, math.inf):
            compile_circuit(circuit, hw, prof, allowance=allowance, on_iteration=check)
            synthesize(program, hw, prof, allowance=allowance, on_iteration=check)
    assert seen["overshoot_ties"], seen


def test_a_joint_overshoot_alone_keeps_a_swap_from_the_flights():
    """The scheduler's candidates help on the drained mapping, so a
    candidate tied to a flight by a joint overshoot also shares a qubit
    with some flight in every seeded compile.  Here it does not: on the
    square 0-1-3-2, the flight on 0-1 and the candidate on 2-3 each bring
    the gate on 0 and 3 one hop closer, and together they leave it two
    hops apart.  The overshoot comes before the crosstalk record on the
    same two links, and holds without it.  ``flight_color_zero`` looks for
    no flight's overshoot, as its candidates help on the drained mapping,
    so it is asked about this state only with the gate gone."""
    hw = CouplingGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], edge_error=dict.fromkeys([(0, 1), (2, 3)], 0.01))
    prof = CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (2, 3), 0.02, 0.02)])
    gate = PendingPair("g", (0, 3))
    flight = InProgressSwap((0, 1), 2, frozenset({"g"}))
    swap = SwapCandidate((2, 3), frozenset({"g"}))
    for profile in (prof, CrosstalkProfile(hw, [])):
        args = ([], [swap], [flight], [gate], Mapping(4, 4), hw, profile)
        csg = csg_of(*args, 0.0)
        assert csg.conflict_edges == {(0, 1)} and not csg.crosstalk_edges
        # with the gate gone from the pending set the tie goes too
        args = ([], [swap], [flight], [], Mapping(4, 4), hw, profile)
        want = color_zero_commits(csg_of(*args, 0.0))
        swap_joins = [((2, 3), frozenset({"g"}), None)]
        assert flight_color_zero(swap_joins, [flight], [], Mapping(4, 4), hw, profile) == want
        assert want == ([] if profile is prof else swap_joins)


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


def reference_depths(edges, root, skip=None):
    """Hop count from ``root`` to each node it reaches avoiding ``skip``:
    every edge relaxed, in both directions, until no count drops."""
    depth = {root: 0}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            for u, v in ((a, b), (b, a)):
                if u in depth and v != skip and depth.get(v, math.inf) > depth[u] + 1:
                    depth[v] = depth[u] + 1
                    changed = True
    return depth


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bfs_depths_match_relaxed_hop_counts(seed):
    rng = random.Random(seed)
    # roots a skipped qubit cut off from part of the device (on a line,
    # which one row makes) or took farther from some qubit
    seen = {"cut": 0, "farther": 0}
    for _ in range(12):
        hw, _ = grid_device(rng.randint(1, 5), rng.randint(2, 5), rng)
        n = hw.num_qubits
        dist = hw.all_pairs_distance()
        for root in range(n):
            want = reference_depths(hw.edges, root)
            assert bfs_depths(hw.adjacency, root) == want
            assert dist[root] == [want[q] for q in range(n)]
            skip = rng.choice([q for q in range(n) if q != root])
            want = reference_depths(hw.edges, root, skip)
            assert bfs_depths(hw.adjacency, root, skip=skip) == want
            seen["cut"] += len(want) < n - 1
            seen["farther"] += any(d > dist[root][q] for q, d in want.items())
    assert all(seen.values()), seen


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


@pytest.mark.parametrize("rows,seed", [(4, 1), (5, 2), (6, 3)])
def test_synthesis_indexes_match_the_references(monkeypatch, rows, seed):
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng, error_levels=(0.01, 0.02))
    program = random_pauli_program(rows * rows, 16, rng)
    seen = dict.fromkeys(
        ("breakers", "apart", "routed", "route_ties", "drained", "csgs", "permitted", "crosstalk", "ties"),
        0,
    )
    keeps_ladder, closing_swap = vqa._keeps_ladder, vqa.closing_swap
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

    def checked_closing_swap(pair, mapping, hw):
        got = closing_swap(pair, mapping, hw)
        want = reference_closing_swaps(mapping, *pair.logicals, hw)
        assert got.edge == want[0][1]
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
    monkeypatch.setattr(vqa, "closing_swap", checked_closing_swap)
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

import copy
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import chromaroute
from chromaroute import (
    CouplingGraph,
    CrosstalkProfile,
    CrosstalkRecord,
    HardwareError,
    InvariantError,
    Mapping,
    MappingError,
    Op,
    ScheduledCircuit,
    StallError,
    VerificationError,
    baseline_schedule,
    compile_circuit,
    expand_two_local,
    load_hardware,
    parse_circuit,
    parse_pauli_program,
    search_allowance,
    synthesize,
    verify_routing,
)
from chromaroute.fixtures import (
    chain_pair,
    fixture_text,
    pair_circuit,
    ring6,
    ring6_cross,
    ring6_cross_hot,
)
import chromaroute.scheduler as scheduler
import chromaroute.vqa as vqa
from chromaroute.csg import PendingPair, build_csg, executable_pairs, useful_swaps
from chromaroute.hardware import normalize_edge
from chromaroute.scheduler import LedgerEntry, ScheduleState, StallGuard, schedule_layer
from test_indexed import grid_device, random_circuit, reference_excess
from test_metamorphic import scaled_rates, seeded_case


def swap_starts(sched):
    return [
        op.qubits
        for layer in sched.layers
        for op in layer
        if op.kind == "swap" and op.slice_index == 1
    ]


def interfering_pair(scale=1.0):
    """Two independent CXs whose physical edges appear in the profile, with
    every link rate times ``scale``."""
    hw = CouplingGraph(
        4,
        [(0, 1), (1, 2), (2, 3)],
        edge_error={(0, 1): 0.01 * scale, (1, 2): 0.01 * scale, (2, 3): 0.01 * scale},
    )
    prof = CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (2, 3), 0.05 * scale, 0.05 * scale)])
    circ = parse_circuit("qubits 4\ncx 0 1\ncx 2 3\n")
    return circ, hw, prof


def test_ring_pair_compile_depth_4_no_crosstalk():
    hw, prof = ring6()
    circ = pair_circuit()
    sched = compile_circuit(circ, hw, prof, allowance=0.0)
    assert sched.depth_cx == 4
    assert sched.crosstalk_ledger == []
    assert sched.swap_count == 2
    assert sorted(set(swap_starts(sched))) == [(0, 1), (3, 4)]
    # both SWAPs fire in the first layer, both CXs land in the last
    layer0 = {(op.kind, op.qubits) for op in sched.layers[0]}
    assert layer0 == {("swap", (0, 1)), ("swap", (3, 4))}
    layer3 = {(op.kind, op.qubits) for op in sched.layers[3]}
    assert layer3 == {("cx", (1, 2)), ("cx", (4, 5))}
    assert verify_routing(sched, hw, prof, circ, allowance=0.0)


def test_interfering_cxs_serialized_at_zero_allowance():
    # at rates 2**-40 as large the pair costs about 7e-14, still too much
    for scale in (1.0, 2.0**-40):
        circ, hw, prof = interfering_pair(scale)
        sched = compile_circuit(circ, hw, prof, allowance=0.0)
        assert sched.depth_cx == 2
        assert sched.crosstalk_ledger == []
        assert [(op.kind, op.qubits) for op in sched.layers[0]] == [("cx", (0, 1))]
        assert [(op.kind, op.qubits) for op in sched.layers[1]] == [("cx", (2, 3))]
        assert verify_routing(sched, hw, prof, circ, allowance=0.0)
        state = ScheduleState(hw, prof, 0.0, 4)
        state.open_layer()
        state.place(Op(kind="cx", qubits=(0, 1)))
        with pytest.raises(InvariantError, match="exceeds allowance 0"):
            state.place(Op(kind="cx", qubits=(2, 3)))


def test_interfering_cxs_parallel_when_allowed():
    circ, hw, prof = interfering_pair()
    sched = compile_circuit(circ, hw, prof, allowance=0.08)
    assert sched.depth_cx == 1
    assert len(sched.crosstalk_ledger) == 1
    entry = sched.crosstalk_ledger[0]
    assert entry.layer == 0
    assert set(entry.edges) == {(0, 1), (2, 3)}
    assert entry.excess == pytest.approx(0.08)
    assert verify_routing(sched, hw, prof, circ, allowance=0.08)
    with pytest.raises(VerificationError):
        verify_routing(sched, hw, prof, circ, allowance=0.05)
    # the same pair at rates 2**-40 as large, priced exactly 2**-40 as much,
    # still exceeds an allowance of 0
    circ, hw, prof = interfering_pair(2.0**-40)
    faint = compile_circuit(circ, hw, prof, allowance=math.inf)
    assert [e.excess for e in faint.crosstalk_ledger] == [entry.excess * 2.0**-40]
    with pytest.raises(VerificationError, match="exceeds allowance 0"):
        verify_routing(faint, hw, prof, circ, allowance=0.0)


def test_ledger_never_exceeds_allowance():
    # The seeded grid's link rates 2**-40 as large price every pair below
    # 1e-12, where an absolute slack would buy crosstalk at allowance 0.
    hw_doc, circuit_text, pauli_text = seeded_case(0)
    faint = load_hardware(scaled_rates(hw_doc, 2.0**-40))
    cases = [
        (ring6_cross(), pair_circuit(), chain_pair()),
        (faint, parse_circuit(circuit_text), parse_pauli_program(pauli_text)),
    ]
    for (hw, prof), circ, program in cases:
        for allowance in (0.0, 0.0005, 0.0015, 0.004):
            sched = compile_circuit(circ, hw, prof, allowance=allowance)
            assert sched.ledger_total() <= allowance
            assert verify_routing(sched, hw, prof, circ, allowance=allowance)
            sched = synthesize(program, hw, prof, allowance=allowance)
            assert sched.ledger_total() <= allowance
            assert verify_routing(sched, hw, prof, allowance=allowance)


def test_a_hot_pair_costs_more_error_mass_than_the_allowance():
    # Each cross pair of the hot ring inflates error by about 1.78, more
    # than the whole allowance of 1; the allowance 2 buys the cheapest one.
    hw, prof = ring6_cross_hot()
    circ = pair_circuit()
    err = compile_circuit(circ, hw, prof, allowance=1.0)
    assert err.depth_cx == 8
    assert err.crosstalk_ledger == []
    assert verify_routing(err, hw, prof, circ, allowance=1.0)
    hot = compile_circuit(circ, hw, prof, allowance=2.0)
    assert hot.depth_cx == 5
    assert len(hot.crosstalk_ledger) == 1
    assert hot.crosstalk_ledger[0].excess == pytest.approx(1.775)
    assert verify_routing(hot, hw, prof, circ, allowance=2.0)
    with pytest.raises(VerificationError):
        verify_routing(hot, hw, prof, circ, allowance=1.0)


def test_pricing_a_pair_needs_isolated_error_rates():
    # each record is priced at load, so a device whose records name links
    # without isolated rates does not load
    data = json.loads(fixture_text("ring6_cross_hot.json"))
    del data["edge_error"]
    with pytest.raises(HardwareError, match="missing error rate"):
        load_hardware(data)


def test_more_allowance_never_hurts_depth_here():
    hw, prof = ring6_cross()
    circ = pair_circuit()
    d_tight = compile_circuit(circ, hw, prof, allowance=0.0005).depth_cx
    d_mid = compile_circuit(circ, hw, prof, allowance=0.0015).depth_cx
    d_loose = compile_circuit(circ, hw, prof, allowance=0.004).depth_cx
    assert d_tight == 8
    assert d_mid == 5
    assert d_loose == 4


def test_explicit_swap_gate():
    hw = CouplingGraph(2, [(0, 1)], edge_error={(0, 1): 0.01})
    prof = CrosstalkProfile(hw, [])
    circ = parse_circuit("qubits 2\nswap 0 1\n")
    sched = compile_circuit(circ, hw, prof)
    assert sched.depth_cx == 3
    slices = [op.slice_index for layer in sched.layers for op in layer]
    assert slices == [1, 2, 3]
    assert sched.layers[0][0].gate_id == 0
    # a circuit swap exchanges the logical states in place, so the
    # name-to-qubit mapping is unchanged (unlike a routing SWAP)
    assert sched.final_mapping.phys(0) == 0
    assert sched.final_mapping.phys(1) == 1
    assert verify_routing(sched, hw, prof, circ)


def test_single_qubit_gates_and_params_carried_through():
    hw = CouplingGraph(3, [(0, 1), (1, 2)], edge_error={(0, 1): 0.01, (1, 2): 0.01})
    prof = CrosstalkProfile(hw, [])
    circ = parse_circuit("qubits 3\nu h 0\nrzz 0.5 0 1\nu rx90 2\n")
    sched = compile_circuit(circ, hw, prof)
    ops = [op for layer in sched.layers for op in layer]
    kinds = sorted(op.kind for op in ops)
    assert kinds == ["rzz", "u", "u"]
    rzz = next(op for op in ops if op.kind == "rzz")
    assert rzz.param == 0.5
    labels = {op.label for op in ops if op.kind == "u"}
    assert labels == {"h", "rx90"}
    assert verify_routing(sched, hw, prof, circ)


def test_custom_initial_mapping():
    hw, prof = ring6()
    circ = parse_circuit("qubits 2\ncx 0 1\n")
    m = Mapping(2, 6, placement=[0, 3])
    sched = compile_circuit(circ, hw, prof, initial_mapping=m)
    assert sched.initial_mapping.as_dict() == {0: 0, 1: 3}
    assert sched.depth_cx > 1  # had to route
    assert verify_routing(sched, hw, prof, circ)


def test_compile_is_deterministic():
    hw, prof = ring6_cross()
    circ = pair_circuit()
    a = compile_circuit(circ, hw, prof, allowance=0.0015).to_json_dict()
    b = compile_circuit(circ, hw, prof, allowance=0.0015).to_json_dict()
    assert a == b


def test_schedule_json_roundtrip():
    hw, prof = ring6()
    circ = pair_circuit()
    sched = compile_circuit(circ, hw, prof, allowance=0.0)
    data = sched.to_json_dict()
    again = ScheduledCircuit.from_json_dict(copy.deepcopy(data))
    assert again.to_json_dict() == data
    assert verify_routing(again, hw, prof, circ, allowance=0.0)


def test_ledger_total_adds_left_to_right():
    # sum() compensates float rounding from Python 3.12 on and gives 1.0
    entries = [LedgerEntry(layer=i, edges=((0, 1), (3, 4)), excess=0.1) for i in range(10)]
    sched = ScheduledCircuit(6, [], entries, Mapping(6, 6), Mapping(6, 6))
    assert sched.ledger_total() == 0.9999999999999999
    assert repr(ScheduledCircuit(6, [], [], Mapping(6, 6), Mapping(6, 6)).ledger_total()) == "0"


def test_a_huge_num_physical_is_a_size_mismatch():
    hw, prof = ring6()
    doc = compile_circuit(pair_circuit(), hw, prof).to_json_dict()
    doc["num_physical"] = 10**12
    # A child with 1 GiB of address space: a Mapping that allocated one
    # entry per physical qubit fails there instead of taking the machine.
    code = (
        "import json, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from chromaroute import ScheduledCircuit, VerificationError, verify_routing\n"
        "from chromaroute.fixtures import ring6\n"
        "sched = ScheduledCircuit.from_json_dict(json.load(sys.stdin))\n"
        "try:\n"
        "    verify_routing(sched, *ring6())\n"
        "except VerificationError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ)
    src = str(Path(chromaroute.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(doc), capture_output=True, text=True, env=env
    )
    assert proc.stdout == "num_physical 1000000000000, device has 6\n", proc.stderr


def test_on_iteration_hook_sees_csgs():
    hw, prof = ring6()
    circ = pair_circuit()
    seen = []
    compile_circuit(circ, hw, prof, allowance=0.0, on_iteration=seen.append)
    assert len(seen) >= 4
    first = seen[0]
    assert first["iteration"] == 1
    assert first["csg"] is not None
    assert first["selected"] is not None
    chosen = {first["csg"].vertices[i].edge for i in first["selected"].members}
    assert chosen == {(0, 1), (3, 4)}
    assert all(set(info) == {"iteration", "csg", "selected"} for info in seen)


def test_close_layer_reports_whether_anything_was_placed():
    hw, prof = ring6()
    state = ScheduleState(hw, prof, math.inf, 6)
    state.open_layer()
    state.start_swap((0, 1))
    assert state.close_layer()[0]
    # the next layer holds only the SWAP's second slice: appended, nothing placed
    state.open_layer()
    assert state.close_layer() == (False, [])
    assert [(op.kind, op.slice_index) for op in state.layers[-1]] == [("swap", 2)]
    state.open_layer()
    state.place(Op(kind="u", qubits=(3,)))
    placed, completed = state.close_layer()
    assert placed
    assert [f.edge for f in completed] == [(0, 1)]


def test_stall_guard_idle_limit():
    hw, _ = ring6()
    guard = StallGuard(10, hw, "loop: ")
    for _ in range(hw.num_qubits):
        guard.record(False, 0)
    with pytest.raises(StallError, match="loop: no gate executed and no SWAP started for 7"):
        guard.record(False, 0)


def test_verify_rejects_tampered_schedules():
    hw, prof = ring6()
    circ = pair_circuit()
    sched = compile_circuit(circ, hw, prof, allowance=0.0)

    broken = ScheduledCircuit.from_json_dict(sched.to_json_dict())
    broken.layers[3][0].qubits = (0, 3)  # not a coupling edge
    with pytest.raises(VerificationError):
        verify_routing(broken, hw, prof, circ)

    broken = ScheduledCircuit.from_json_dict(sched.to_json_dict())
    broken.layers[3].append(Op(kind="cx", qubits=(1, 2)))  # qubit used twice
    with pytest.raises(VerificationError):
        verify_routing(broken, hw, prof, circ)

    broken = ScheduledCircuit.from_json_dict(sched.to_json_dict())
    del broken.layers[1][0]  # missing SWAP slice
    with pytest.raises(VerificationError):
        verify_routing(broken, hw, prof, circ)

    broken = ScheduledCircuit.from_json_dict(sched.to_json_dict())
    broken.final_mapping.apply_swap(2, 5)
    with pytest.raises(VerificationError):
        verify_routing(broken, hw, prof, circ)

    broken = ScheduledCircuit.from_json_dict(sched.to_json_dict())
    del broken.layers[3][0]  # a circuit gate never executes
    with pytest.raises(VerificationError):
        verify_routing(broken, hw, prof, circ)


def _u_runs_the_cx(layers):
    layers[1][1] = Op(kind="u", qubits=(0,), gate_id=1)


def _u_runs_twice(layers):
    layers.append([Op(kind="u", qubits=(0,), gate_id=0, label="h")])


def _u_without_gate_id(layers):
    layers.append([Op(kind="u", qubits=(2,), label="h")])


def _rz(layers):
    layers.append([Op(kind="rz", qubits=(2,), param=0.5)])


def _swap_gate_runs_twice(layers):
    layers.extend([Op(kind="swap", qubits=(3, 4), gate_id=2, slice_index=k)] for k in (1, 2, 3))


@pytest.mark.parametrize(
    "edit", [_u_runs_the_cx, _u_runs_twice, _u_without_gate_id, _rz, _swap_gate_runs_twice]
)
def test_verify_runs_each_circuit_gate_once_by_its_own_kind(edit):
    hw, prof = ring6()
    circ = parse_circuit("qubits 6\nu h 0\ncx 0 1\nswap 3 4\n")
    sched = compile_circuit(circ, hw, prof, allowance=0.0)
    assert verify_routing(sched, hw, prof, circ, allowance=0.0)
    assert [[(op.kind, op.gate_id) for op in layer] for layer in sched.layers] == [
        [("swap", 2), ("u", 0)],
        [("swap", 2), ("cx", 1)],
        [("swap", 2)],
    ]
    edit(sched.layers)
    with pytest.raises(VerificationError):
        verify_routing(sched, hw, prof, circ, allowance=0.0)


def test_verify_checks_ledger_completeness():
    circ, hw, prof = interfering_pair()
    sched = compile_circuit(circ, hw, prof, allowance=0.08)
    assert len(sched.crosstalk_ledger) == 1
    stripped = ScheduledCircuit.from_json_dict(sched.to_json_dict())
    stripped.crosstalk_ledger.clear()
    with pytest.raises(VerificationError):
        verify_routing(stripped, hw, prof, circ)


def test_verify_checks_dependence_order():
    hw = CouplingGraph(3, [(0, 1), (1, 2)], edge_error={(0, 1): 0.01, (1, 2): 0.01})
    prof = CrosstalkProfile(hw, [])
    circ = parse_circuit("qubits 3\ncx 0 1\ncx 1 2\n")
    sched = compile_circuit(circ, hw, prof)
    flipped = ScheduledCircuit.from_json_dict(sched.to_json_dict())
    ids = [op.gate_id for layer in flipped.layers for op in layer]
    assert ids == [0, 1]
    flipped.layers[0][0].gate_id = 1
    flipped.layers[1][0].gate_id = 0
    flipped.layers[0][0].qubits = (1, 2)
    flipped.layers[1][0].qubits = (0, 1)
    with pytest.raises(VerificationError):
        verify_routing(flipped, hw, prof, circ)


def _set(layer, index, **fields):
    """A tampering that sets ``fields`` of op ``index`` of ``layer``."""

    def edit(sched):
        for name, value in fields.items():
            setattr(sched.layers[layer][index], name, value)

    return edit


def _base_schedule(base):
    """(schedule, hw, profile, circuit) of a tampering table's base: "pair"
    is ``pair_circuit`` on ``ring6`` (two routing SWAPs in layers 0-2, its
    CXs on 1-2 and 4-5 in layer 3), "gates" the circuit of
    ``test_verify_runs_each_circuit_gate_once_by_its_own_kind``, and
    "interfering" ``interfering_pair`` at allowance 0.08 (one ledger entry)."""
    if base == "interfering":
        circ, hw, prof = interfering_pair()
        return compile_circuit(circ, hw, prof, allowance=0.08), hw, prof, circ
    hw, prof = ring6()
    circ = pair_circuit() if base == "pair" else parse_circuit("qubits 6\nu h 0\ncx 0 1\nswap 3 4\n")
    return compile_circuit(circ, hw, prof, allowance=0.0), hw, prof, circ


# (id, base, tampering, allowance, message): one per VerificationError of
# verify_routing, each schedule broken in one place only.
VERIFY_TAMPERINGS = [
    ("num-physical", "pair", lambda s: setattr(s, "num_physical", 7), math.inf,
     "num_physical 7, device has 6"),
    ("initial-mapping", "pair", lambda s: setattr(s, "initial_mapping", MISFIT_MAPPINGS["wide"]()), math.inf,
     "initial mapping places logical 5 on physical 8, outside the device"),
    ("no-circuit-gate", "pair", _set(3, 0, gate_id=9), math.inf,
     "layer 3: gate id 9 names no circuit cx"),
    ("runs-twice", "gates", lambda s: _u_runs_twice(s.layers), math.inf,
     "layer 3: gate 0 runs twice"),
    ("predecessor", "gates", lambda s: s.layers[0].pop(1), math.inf,
     "layer 1: gate 1 before its predecessor 0"),
    ("mapping-says", "pair", _set(3, 0, qubits=(2, 1)), math.inf,
     "layer 3: gate 0 on (2, 1), mapping says (1, 2)"),
    ("unknown-kind", "pair", _set(3, 0, kind="cz"), math.inf,
     "layer 3: unknown operation kind 'cz'"),
    ("arity", "pair", _set(3, 0, qubits=(1,)), math.inf,
     "layer 3: cx needs 2 qubit(s), got 1"),
    ("not-an-integer", "pair", _set(3, 0, qubits=(1.0, 2)), math.inf,
     "layer 3: qubit 1.0 is not an integer"),
    ("out-of-range", "pair", _set(3, 0, qubits=(1, 9)), math.inf,
     "layer 3: qubit 9 out of range"),
    ("used-twice", "pair", lambda s: s.layers[3].append(Op(kind="cx", qubits=(1, 2))), math.inf,
     "layer 3: qubit 1 used twice"),
    ("non-adjacent", "pair", _set(3, 0, qubits=(0, 3)), math.inf,
     "layer 3: cx on non-adjacent (0, 3)"),
    ("slice-range", "pair", _set(1, 0, slice_index=4), math.inf,
     "layer 1: SWAP slice 4 is not 1, 2 or 3"),
    ("restarted", "pair", _set(1, 0, slice_index=1), math.inf,
     "layer 1: SWAP restarted on (0, 1)"),
    ("out-of-order", "pair", _set(1, 0, slice_index=3), math.inf,
     "layer 1: SWAP slice 3 on (0, 1) out of order"),
    ("changed-identity", "pair", _set(1, 0, gate_id=5), math.inf,
     "layer 1: SWAP on (0, 1) changed identity"),
    ("missing-mid-flight", "pair", lambda s: s.layers[1].pop(0), math.inf,
     "layer 1: SWAP on (0, 1) went missing mid-flight"),
    ("unfinished", "pair", lambda s: s.layers.__delitem__(slice(2, None)), math.inf,
     "unfinished SWAPs at end of schedule: [(0, 1), (3, 4)]"),
    ("never-executed", "pair", lambda s: s.layers[3].pop(0), math.inf,
     "gates never executed: [0]"),
    ("ledger-mismatch", "interfering", lambda s: s.crosstalk_ledger.clear(), math.inf,
     "crosstalk ledger mismatch: schedule has [], replay expects [(0, ((0, 1), (2, 3)), "),
    ("over-allowance", "interfering", lambda s: None, 0.05,
     "ledger total 0.08 exceeds allowance 0.05"),
    ("final-mapping", "pair", lambda s: s.final_mapping.apply_swap(2, 5), math.inf,
     "final mapping does not match replay"),
]


@pytest.mark.parametrize(
    "base,edit,allowance,message", [case[1:] for case in VERIFY_TAMPERINGS], ids=[c[0] for c in VERIFY_TAMPERINGS]
)
def test_verify_names_each_violation(base, edit, allowance, message):
    """Each tampered schedule fails verification with its own message; the
    ops are edited in place, after ``verify_routing`` passed them once."""
    sched, hw, prof, circ = _base_schedule(base)
    assert verify_routing(sched, hw, prof, circ)
    edit(sched)
    with pytest.raises(VerificationError) as info:
        verify_routing(sched, hw, prof, circ, allowance=allowance)
    assert str(info.value).startswith(message)


def test_verify_refuses_a_circuit_the_mapping_does_not_place():
    hw, prof = ring6_cross()
    sched = compile_circuit(parse_circuit("qubits 2\ncx 0 1\n"), hw, prof)
    assert verify_routing(sched, hw, prof, parse_circuit("qubits 2\ncx 0 1\n"))
    for text, n in (("qubits 3\ncx 2 0\n", 3), ("qubits 1\nu h 0\n", 1)):
        with pytest.raises(VerificationError, match=f"circuit has {n} logical qubits, the schedule's mapping places 2"):
            verify_routing(sched, hw, prof, parse_circuit(text))


def _ready_run():
    """A CircuitRun of a two-CX chain on ``ring6`` with a layer open."""
    hw, prof = ring6()
    state = ScheduleState(hw, prof, math.inf, 6)
    run = scheduler.CircuitRun(parse_circuit("qubits 6\ncx 0 1\ncx 1 2\n"), state)
    state.open_layer()
    return state, run


# (id, action on an open layer, message): one per InvariantError of the
# layer engine but the allowance's, which test_interfering_cxs_serialized_at_zero_allowance pins.
ENGINE_MISUSES = [
    ("open-twice", lambda state, run: state.open_layer(), "layer already open"),
    ("place-closed", lambda state, run: (state.close_layer(), state.place(Op(kind="u", qubits=(0,)))),
     "no open layer"),
    ("close-closed", lambda state, run: (state.close_layer(), state.close_layer()), "no open layer"),
    ("twice", lambda state, run: (state.place(Op(kind="cx", qubits=(0, 1))), state.place(Op(kind="u", qubits=(1,)))),
     "physical qubit 1 scheduled twice in layer 0"),
    ("out-of-range", lambda state, run: state.place(Op(kind="u", qubits=(6,))), "physical qubit 6 out of range"),
    ("non-adjacent", lambda state, run: state.place(Op(kind="cx", qubits=(3, 0))),
     "operation on non-adjacent qubits (0, 3)"),
    ("swap-non-adjacent", lambda state, run: state.start_swap((4, 1)), "operation on non-adjacent qubits (1, 4)"),
    ("not-ready", lambda state, run: run.run_gate(1), "gate 1 started before it was ready"),
]


@pytest.mark.parametrize("action,message", [c[1:] for c in ENGINE_MISUSES], ids=[c[0] for c in ENGINE_MISUSES])
def test_the_layer_engine_names_each_misuse(action, message):
    state, run = _ready_run()
    with pytest.raises(InvariantError) as info:
        action(state, run)
    assert str(info.value) == message


def test_expand_two_local_basis_wrapping():
    prog = parse_pauli_program("0.5 ZZI\n0.25 XIX\n-0.5 IYY\n")
    circ = expand_two_local(prog)
    text = [(g.kind, g.qubits, g.param, g.label) for g in circ.gates]
    assert text == [
        ("rzz", (0, 1), 0.5, None),
        ("u", (0,), None, "h"),
        ("u", (2,), None, "h"),
        ("rzz", (0, 2), 0.25, None),
        ("u", (0,), None, "h"),
        ("u", (2,), None, "h"),
        ("u", (1,), None, "rx90"),
        ("u", (2,), None, "rx90"),
        ("rzz", (1, 2), -0.5, None),
        ("u", (1,), None, "rxm90"),
        ("u", (2,), None, "rxm90"),
    ]


def test_expand_two_local_rejects_other_localities():
    with pytest.raises(InvariantError):
        expand_two_local(parse_pauli_program("0.5 ZZZ\n"))
    with pytest.raises(InvariantError):
        expand_two_local(parse_pauli_program("0.5 ZII\n"))


def test_program_larger_than_device_rejected():
    hw = CouplingGraph(2, [(0, 1)])
    prof = CrosstalkProfile(hw, [])
    circ = parse_circuit("qubits 3\ncx 0 1\n")
    with pytest.raises(MappingError):
        compile_circuit(circ, hw, prof)


# Initial mappings that do not fit a 6-qubit program on the 6-qubit ring:
# one logical qubit short, and one sized for a 9-qubit device.
MISFIT_MAPPINGS = {
    "short": lambda: Mapping(5, 6, [0, 1, 2, 3, 4]),
    "wide": lambda: Mapping(6, 9, [0, 1, 2, 3, 4, 8]),
}
COMPILERS = {
    "compile": lambda hw, prof, m: compile_circuit(pair_circuit(), hw, prof, m),
    "baseline": lambda hw, prof, m: baseline_schedule(pair_circuit(), hw, prof, m),
    "synthesize": lambda hw, prof, m: synthesize(chain_pair(), hw, prof, m),
}


@pytest.mark.parametrize("compiler", sorted(COMPILERS))
@pytest.mark.parametrize("misfit", sorted(MISFIT_MAPPINGS))
def test_an_initial_mapping_that_does_not_fit_is_a_mapping_error(compiler, misfit):
    hw, prof = ring6_cross()
    assert pair_circuit().num_qubits == chain_pair().num_qubits == hw.num_qubits == 6
    with pytest.raises(MappingError, match="initial mapping places"):
        COMPILERS[compiler](hw, prof, MISFIT_MAPPINGS[misfit]())


def test_verify_rejects_an_initial_mapping_outside_the_device():
    hw, prof = ring6_cross()
    sched = synthesize(chain_pair(), hw, prof)
    assert verify_routing(sched, hw, prof)
    # chain_pair never touches logical 5, so only the check on the mapping
    # itself can see it parked on physical 8 of the 6-qubit device.
    sched.initial_mapping = MISFIT_MAPPINGS["wide"]()
    with pytest.raises(VerificationError, match="logical 5 on physical 8"):
        verify_routing(sched, hw, prof)


@pytest.mark.parametrize("allowance", [-0.001, math.nan])
def test_a_negative_or_nan_allowance_is_the_callers_error(allowance):
    """A ValueError, not an InvariantError (the class of internal bugs),
    before any layer is built: neither compiles as if the allowance were 0
    or trips a ledger or uncompute check."""
    hw, prof = ring6_cross()
    with pytest.raises(ValueError, match="allowance must be >= 0"):
        compile_circuit(pair_circuit(), hw, prof, allowance=allowance)
    with pytest.raises(ValueError, match="allowance must be >= 0"):
        synthesize(chain_pair(), hw, prof, allowance=allowance)


def test_a_search_of_no_steps_is_the_callers_error():
    hw, prof = ring6_cross()

    def compile_fn(allowance):
        return compile_circuit(pair_circuit(), hw, prof, allowance=allowance)

    with pytest.raises(ValueError, match="at least one step, got 0"):
        search_allowance(compile_fn, hw, prof, steps=0)
    with pytest.raises(ValueError, match="a finite number of steps"):
        search_allowance(compile_fn, hw, prof, steps=math.inf)


def flight_beside_its_partner(allowance):
    """``interfering_pair``'s line in an open layer with a routing SWAP on
    0-1 in flight, the gate on 2-3, which the profile pairs with it, and a
    ``run_cgate`` that places the gate."""
    _, hw, prof = interfering_pair()
    state = ScheduleState(hw, prof, allowance, 4)
    state.open_layer()
    state.start_swap((0, 1))
    state.close_layer()
    state.open_layer()

    def run_cgate(key):
        state.place(Op(kind="cx", qubits=(2, 3), gate_id=key))

    return state, [PendingPair(0, (2, 3))], run_cgate


def committed_layer(state, gates, run_cgate, **kwargs):
    """``schedule_layer`` on ``gates`` with its record's items committed."""
    csg, selected, (_, _, items) = schedule_layer(state, gates, [], gates, **kwargs)
    state.commit(items, run_cgate)
    return csg, selected


def test_an_allowance_left_of_exactly_the_cheapest_pair_builds_the_csg():
    cheapest = interfering_pair()[2].cheapest_excess
    state, gates, run_cgate = flight_beside_its_partner(cheapest)
    csg, selected = committed_layer(state, gates, run_cgate, keep_csg=False)
    assert csg.permitted_pairs == [(0, 1, cheapest)]
    assert selected.members == [0, 1]
    assert [e.excess for e in state.ledger] == [cheapest]
    # a hair below it no pair can be permitted: color 0 without the CSG
    state, gates, run_cgate = flight_beside_its_partner(math.nextafter(cheapest, 0.0))
    csg, selected = committed_layer(state, gates, run_cgate, keep_csg=False)
    # color 0 holds the flight alone: the gate on 2-3 is not placed
    assert csg is None and selected is None and not state.ledger
    assert state.qubit_free(2) and state.qubit_free(3)
    # a caller that keeps the CSG, for a hook, gets it at any allowance
    state, gates, run_cgate = flight_beside_its_partner(0.0)
    csg, selected = committed_layer(state, gates, run_cgate)
    assert csg.crosstalk_edges == {(0, 1): cheapest} and selected.members == [0]


def test_each_layer_path_records_the_window_of_its_allowance_tests():
    """A layer returns the record (lo, hi, items): over [lo, hi) of
    allowance left every allowance test it made has the same outcome, and
    the allowance left it was decided at lies in it."""
    cheapest = interfering_pair()[2].cheapest_excess
    below = math.nextafter(cheapest, 0.0)

    def recorded(allowance, gates):
        state, _, _ = flight_beside_its_partner(allowance)
        left = state.allowance_left()
        _, _, (lo, hi, items) = schedule_layer(state, gates, [], gates, keep_csg=False)
        assert left == allowance and lo <= left < hi
        assert not state.ledger and state.qubit_free(2)  # the layer committed nothing
        return lo, hi, list(items)

    beside, across = [PendingPair(0, (2, 3))], [PendingPair(0, (1, 2))]
    # the pair fits: the CSG's window starts at the total it spends
    assert recorded(cheapest, beside) == (cheapest, math.inf, [((2, 3), frozenset(), 0)])
    # no pair fits: color 0 without the CSG, up to the cheapest pair
    assert recorded(below, beside) == (0.0, cheapest, [])
    # a CSG that prices no pair was still built because the cheapest fits
    assert recorded(cheapest, across) == (cheapest, math.inf, [])
    # only the flight: no allowance test
    assert recorded(below, []) == (0.0, math.inf, [])
    # the compile's own flight pass records the same windows below the
    # cheapest pair, from the gates alone: across has a candidate SWAP on
    # its cgate's edge, and both are tied to the flight
    for gates, hi in ((beside, cheapest), (across, cheapest), ([], math.inf)):
        state, _, _ = flight_beside_its_partner(below)
        record = scheduler._unpriced_flight_layer(state, gates)
        assert record[0] <= state.allowance_left() < record[1]
        assert (record[0], record[1], list(record[2])) == (0.0, hi, [])


def flight_pass_line(flight, allowance=0.0):
    """A ten-qubit line, the identity mapping and a profile whose one record
    pairs 6-7 with 8-9, in an open layer with a routing SWAP on ``flight``
    in flight and ``allowance`` left."""
    hw = CouplingGraph(10, [(q, q + 1) for q in range(9)], edge_error=dict.fromkeys([(6, 7), (8, 9)], 0.01))
    prof = CrosstalkProfile(hw, [CrosstalkRecord((6, 7), (8, 9), 0.02, 0.02)])
    state = ScheduleState(hw, prof, allowance, 10)
    state.open_layer()
    state.start_swap(flight)
    state.close_layer()
    state.open_layer()
    return state


def reference_flight_record(state, pending):
    """Color 0 of the full CSG, on the cgates of ``executable_pairs`` and
    the candidates of a guard that is not escaping, as the items a flight
    layer commits."""
    cgates = executable_pairs(pending, state.mapping, state.hw)
    swaps = StallGuard(0, state.hw).swaps(pending, state)
    csg = build_csg(cgates, swaps, state.flights, pending, state.mapping, state.hw, state.profile, 0.0)
    members = [csg.vertices[i] for i in next(scheduler.color_classes(csg)).members]
    return [(v.edge, v.helps, v.gate_key) for v in members if v.kind != "inprogress"]


def test_the_flight_pass_counts_a_cgate_and_a_swap_on_one_edge_twice():
    """The cgate of gate 0 and a candidate SWAP for gate 2 both sit on 1-2,
    so the full CSG joins each vertex tied to 1-2 to two vertices there.
    The pass must count both in the Welsh–Powell degree: the SWAP on 2-3
    then ranks first, with three neighbors, and color 0 takes it and the
    SWAP on 4-5.  Counting 1-2 once would tie it at two with the lower
    cgate on 3-4, which would take the cgates and the SWAP on 5-6."""
    state = flight_pass_line((8, 9))
    cheapest = state.profile.cheapest_excess
    pending = [PendingPair(0, (1, 2)), PendingPair(1, (3, 4)), PendingPair(2, (1, 3)), PendingPair(3, (4, 6))]
    lo, hi, items = scheduler._unpriced_flight_layer(state, pending)
    assert lo <= state.allowance_left() < hi
    assert (lo, hi) == (0.0, cheapest)
    assert items == [((2, 3), frozenset({2}), None), ((4, 5), frozenset({3}), None)]
    assert items == reference_flight_record(state, pending)
    # synthesis's path decides the same from the guard's candidates
    cgates = executable_pairs(pending, state.mapping, state.hw)
    swaps = StallGuard(0, state.hw).swaps(pending, state)
    assert schedule_layer(state, cgates, swaps, pending, keep_csg=False)[2] == (lo, hi, items)


def test_a_flight_pass_with_only_landed_and_in_flight_candidates_has_no_choice(monkeypatch):
    """A routing SWAP on 1-2 has just landed and one on 3-4 is in flight;
    on the drained mapping the gate of logicals 2 and 3 sits on 1 and 4,
    and only those two SWAPs bring it closer, so the layer commits nothing
    new at every allowance, without ranking."""
    state = flight_pass_line((1, 2))
    state.start_swap((3, 4))
    state.close_layer()
    state.open_layer()
    state.close_layer()
    state.open_layer()
    assert state.last_completed_edges == {(1, 2)} and [f.edge for f in state.flights] == [(3, 4)]
    pending = [PendingPair(0, (2, 3))]
    assert [s.edge for s in useful_swaps(pending, state.drained(), state.hw)] == [(1, 2), (3, 4)]

    def never(*args):
        raise AssertionError("a layer with no choice ranked its vertices")

    monkeypatch.setattr(scheduler, "flight_color_zero", never)
    record = scheduler._unpriced_flight_layer(state, pending)
    assert record == (0.0, math.inf, ())
    assert record[0] <= state.allowance_left() < record[1]
    assert reference_flight_record(state, pending) == []


def test_an_escaping_guard_keeps_its_flight_layers_on_schedule_layer(monkeypatch):
    """While the guard escapes, ``escape_swaps`` gives a flight layer no
    candidate, and the layer goes to ``schedule_layer`` with that empty
    list, below the cheapest pair too; the compile's own pass sees only
    layers whose guard is not escaping.  Each window holds the allowance
    left it was decided at.  This seed escapes at allowance 0 with SWAPs
    in flight."""
    rng = random.Random(7)
    hw, prof = grid_device(2, 6, rng)
    circuit = random_circuit(12, 120, rng)
    escaping = [False]
    seen = {"pass": 0, "escaping": 0}
    escape_swaps, flight_pass, layer = StallGuard.escape_swaps, scheduler._unpriced_flight_layer, schedule_layer

    def logged(guard, *args):
        swaps = escape_swaps(guard, *args)
        escaping[0] = swaps is not None
        return swaps

    def checked_pass(state, pending):
        assert not escaping[0]
        lo, hi, _ = record = flight_pass(state, pending)
        assert lo <= state.allowance_left() < hi
        seen["pass"] += 1
        return record

    def checked_layer(state, cgates, swaps, pending, **kwargs):
        out = layer(state, cgates, swaps, pending, **kwargs)
        lo, hi, _ = out[2]
        assert lo <= state.allowance_left() < hi
        if escaping[0] and state.flights:
            assert swaps == [] and state.allowance_left() < prof.cheapest_excess
            seen["escaping"] += 1
        return out

    monkeypatch.setattr(StallGuard, "escape_swaps", logged)
    monkeypatch.setattr(scheduler, "_unpriced_flight_layer", checked_pass)
    monkeypatch.setattr(scheduler, "schedule_layer", checked_layer)
    sched = compile_circuit(circuit, hw, prof, allowance=0.0)
    assert seen["pass"] and seen["escaping"], seen
    hooked = compile_circuit(circuit, hw, prof, allowance=0.0, on_iteration=lambda info: None)
    assert sched.to_json_dict() == hooked.to_json_dict()


def counting_paths(monkeypatch):
    """Count each loop's layers by the path they take: flight layers that
    build the full CSG, flight layers that take ``flight_color_zero``, and
    layers of any kind that take neither, as a layer with no choice does.
    ``seen["compile"]`` counts the circuit compiler's layers, those of
    ``schedule_layer`` and of its own flight pass
    (``_unpriced_flight_layer``), ``seen["synthesize"]`` synthesis's."""
    seen = {loop: {"full": 0, "color_zero": 0, "no_choice": 0} for loop in ("compile", "synthesize")}
    calls = {"csg": 0}
    loop = ["compile"]  # the loop of the layer being decided
    build, color_zero = scheduler.build_csg, scheduler.flight_color_zero

    def counted_build(cgates, swaps, in_prog, *args):
        calls["csg"] += 1
        seen[loop[0]]["full"] += bool(in_prog)
        return build(cgates, swaps, in_prog, *args)

    def counted_color_zero(*args):
        calls["csg"] += 1
        seen[loop[0]]["color_zero"] += 1
        return color_zero(*args)

    def counting(name, layer):
        def counted_layer(*args, **kwargs):
            loop[0] = name
            before = calls["csg"]
            out = layer(*args, **kwargs)
            seen[name]["no_choice"] += calls["csg"] == before
            return out

        return counted_layer

    monkeypatch.setattr(scheduler, "build_csg", counted_build)
    monkeypatch.setattr(scheduler, "flight_color_zero", counted_color_zero)
    monkeypatch.setattr(scheduler, "schedule_layer", counting("compile", scheduler.schedule_layer))
    monkeypatch.setattr(scheduler, "_unpriced_flight_layer", counting("compile", scheduler._unpriced_flight_layer))
    monkeypatch.setattr(vqa, "schedule_layer", counting("synthesize", vqa.schedule_layer))
    return seen


def flight_choices():
    """A circuit and a program for ``ring6`` whose flight layers have a
    cgate or a candidate to choose.  On ``ring6`` those of ``pair_circuit``
    and ``chain_pair`` have none, so each commits only the flights."""
    circuit = parse_circuit("qubits 6\ncx 0 2\ncx 3 5\ncx 1 4\ncx 0 3\ncx 2 5\n")
    return circuit, parse_pauli_program("0.5 ZIZIZI\n")


def test_a_free_crosstalk_pair_keeps_every_flight_layer_on_the_full_csg(monkeypatch):
    hw, _ = ring6()
    free_pair = CrosstalkRecord((0, 1), (2, 3), hw.error_of((0, 1)), hw.error_of((2, 3)))
    prof = CrosstalkProfile(hw, [free_pair])
    assert prof.cheapest_excess == 0.0
    seen = counting_paths(monkeypatch)
    circuit, program = flight_choices()
    compile_circuit(circuit, hw, prof, allowance=0.0)
    synthesize(program, hw, prof, allowance=0.0)
    for counts in seen.values():
        assert counts["full"] and not counts["color_zero"], seen


def test_a_profile_without_records_never_builds_a_flight_layers_csg(monkeypatch):
    """Every finite allowance is below ``cheapest_excess``, inf; an infinite
    one is not, and builds the CSG, as a hook does at any allowance."""
    hw, _ = ring6()
    prof = CrosstalkProfile(hw, [])
    assert prof.cheapest_excess == math.inf
    seen = counting_paths(monkeypatch)
    circuit, program = flight_choices()
    for allowance in (0.0, 0.05, 1e300):
        compile_circuit(circuit, hw, prof, allowance=allowance)
        synthesize(program, hw, prof, allowance=allowance)
    for counts in seen.values():
        assert counts["color_zero"] and not counts["full"], seen
    compiled = seen["compile"]
    compile_circuit(circuit, hw, prof, allowance=math.inf)
    assert compiled["full"]
    compiled["full"] = compiled["no_choice"] = 0
    compile_circuit(circuit, hw, prof, allowance=0.0, on_iteration=lambda info: None)
    assert compiled["full"] and not compiled["no_choice"]


def test_the_fixture_pairs_flight_layers_commit_with_no_choice(monkeypatch):
    hw, prof = ring6()
    seen = counting_paths(monkeypatch)
    for allowance in (0.0, math.inf):
        compile_circuit(pair_circuit(), hw, prof, allowance=allowance)
        synthesize(chain_pair(), hw, prof, allowance=allowance)
    for counts in seen.values():
        assert counts["no_choice"] and not counts["full"] and not counts["color_zero"], seen


@pytest.mark.parametrize(
    "device", ["ring6", "ring6_cross", "ring6_cross_hot", "tree7", "grid6", "seeded0", "seeded1", "seeded2"]
)
def test_cheapest_excess_is_the_least_price_of_a_record(device):
    """Each record is priced once, at load: ``partners`` holds the price
    both ways, ``excess_error`` reads it, and it is the reference price;
    each edge's partners are those its records name, and its ties the
    links on its qubits and those partners."""
    if device.startswith("seeded"):
        doc = seeded_case(int(device[-1]))[0]
    else:
        doc = json.loads(fixture_text(f"{device}.json"))
    _, prof = load_hardware(doc)
    prices, named = [], {}
    for rec in doc["crosstalk"]:
        e1, e2 = (normalize_edge(*rec[e]) for e in ("e1", "e2"))
        price = prof.partners(e1)[e2]
        assert price == prof.partners(e2)[e1] == prof.excess_error(e1, e2) == reference_excess(prof, e1, e2)
        prices.append(price)
        named.setdefault(e1, set()).add(e2)
        named.setdefault(e2, set()).add(e1)
    for edge in prof.graph.edges:
        assert set(prof.partners(edge)) == named.get(edge, set())
        touching = {e for e in prof.graph.edges if set(e) & set(edge)}
        assert prof.ties[edge] == touching | named.get(edge, set())
    assert prices and prof.cheapest_excess == min(prices)

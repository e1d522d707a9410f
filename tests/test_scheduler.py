import copy
import json
import math
import os
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
from chromaroute.scheduler import LedgerEntry, ScheduleState, StallGuard


def swap_starts(sched):
    return [
        op.qubits
        for layer in sched.layers
        for op in layer
        if op.kind == "swap" and op.slice_index == 1
    ]


def interfering_pair():
    """Two independent CXs whose physical edges appear in the profile."""
    hw = CouplingGraph(
        4,
        [(0, 1), (1, 2), (2, 3)],
        edge_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01},
    )
    prof = CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (2, 3), 0.05, 0.05)])
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
    circ, hw, prof = interfering_pair()
    sched = compile_circuit(circ, hw, prof, allowance=0.0)
    assert sched.depth_cx == 2
    assert sched.crosstalk_ledger == []
    assert [(op.kind, op.qubits) for op in sched.layers[0]] == [("cx", (0, 1))]
    assert [(op.kind, op.qubits) for op in sched.layers[1]] == [("cx", (2, 3))]
    assert verify_routing(sched, hw, prof, circ, allowance=0.0)


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


def test_ledger_never_exceeds_allowance():
    hw, prof = ring6_cross()
    circ = pair_circuit()
    for allowance in (0.0, 0.0005, 0.0015, 0.004):
        sched = compile_circuit(circ, hw, prof, allowance=allowance)
        assert sched.ledger_total() <= allowance + 1e-12
        assert verify_routing(sched, hw, prof, circ, allowance=allowance)


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
    # The device loads without isolated rates, but a compile that prices a
    # profiled pair cannot, at any allowance.
    data = json.loads(fixture_text("ring6_cross_hot.json"))
    del data["edge_error"]
    hw, prof = load_hardware(data)
    for allowance in (1.0, math.inf):
        with pytest.raises(HardwareError, match="missing error rate"):
            compile_circuit(pair_circuit(), hw, prof, allowance=allowance)


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

"""Self-tests of the benchmark: generator, oracles, log-ESP and tracer.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import time
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import chromaroute as cr  # noqa: E402
from corpus import WORKLOADS, Case, build_corpus, grid_device, random_circuit, write_corpus  # noqa: E402
from ops import OPS, compile_op, synth_op  # noqa: E402
from oracles import OracleError, check_circuit_schedule, check_pauli_schedule, log_esp  # noqa: E402
from reference import INTERVAL_S, NOMINAL_S, OpClock, reference_work, scale  # noqa: E402
from run import TAIL_BEYOND, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402


def _circuit_case(side=4, gates=80, allowance=0.05) -> Case:
    rng = Random(f"test:{side}:{gates}")
    hw = json.dumps(grid_device(rng, side))
    return Case("compile-grid", "t", hw, "circuit", random_circuit(rng, side * side, gates), allowance)


PAULI_TEXT = "0.5 XZIYZIIII\n-0.25 IIZZXIYII\n0.75 ZIIIIIZZX\n0.1 IIIIZIIII\n"


def _pauli_case(allowance=0.0) -> Case:
    hw = json.dumps(grid_device(Random("test:pauli"), 3))
    return Case("synth-pauli", "p", hw, "pauli", PAULI_TEXT, allowance)


@pytest.fixture(scope="module")
def compiled():
    case = _circuit_case()
    out = compile_op(cr, case)
    return case, json.loads(case.hardware), json.loads(out.schedule_text)


@pytest.fixture(scope="module")
def synthesized():
    case = _pauli_case()
    out = synth_op(cr, case)
    return case, json.loads(case.hardware), json.loads(out.schedule_text)


def test_generator_is_deterministic(tmp_path):
    for workload in WORKLOADS:
        assert build_corpus(workload, 7) == build_corpus(workload, 7)
        assert build_corpus(workload, 7) != build_corpus(workload, 8)
    a = write_corpus(3, str(tmp_path / "a"))
    b = write_corpus(3, str(tmp_path / "b"))
    assert len(a) == len(b) > 0
    for pa, pb in zip(a, b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_generated_inputs_load_through_the_public_parsers():
    for workload in WORKLOADS:
        cases = build_corpus(workload, 1)
        assert len(cases) > 2 * TAIL_BEYOND
        for case in cases:
            hw, profile = cr.load_hardware(json.loads(case.hardware))
            assert len(profile) > 0 and hw.t1 and hw.t2 and hw.single_qubit_error
            if case.kind == "circuit":
                assert cr.parse_circuit(case.program).num_qubits == hw.num_qubits
            elif case.kind == "pauli":
                cr.parse_pauli_program(case.program)
            else:
                assert cr.jw_encode(cr.parse_fermion_terms(case.program)).strings


def test_circuit_oracle_accepts_the_compiler_output(compiled):
    case, hw_doc, sched = compiled
    check_circuit_schedule(case.program, hw_doc, sched)


def _gate_ops(sched):
    for li, layer in enumerate(sched["layers"]):
        for oi, op in enumerate(layer):
            yield li, oi, op


def test_circuit_oracle_rejects_a_gate_moved_before_its_predecessor(compiled):
    case, hw_doc, sched = compiled
    layers = sched["layers"]
    last_use: dict[int, int] = {}  # physical qubit -> last layer that used it
    for li, oi, op in _gate_ops(sched):
        qs = op["qubits"]
        if op["kind"] in ("cx", "rzz", "u") and all(q in last_use for q in qs):
            pred = max(last_use[q] for q in qs)
            for target in range(pred - 1, -1, -1):
                idle = all(q not in o["qubits"] for o in layers[target] for q in qs)
                untouched = all(
                    not (o["kind"] == "swap" and set(o["qubits"]) & set(qs))
                    for lj in range(target, li + 1)
                    for o in layers[lj]
                )
                if idle and untouched:
                    bad = copy.deepcopy(sched)
                    bad["layers"][target].append(bad["layers"][li].pop(oi))
                    with pytest.raises(OracleError, match="sequence differs"):
                        check_circuit_schedule(case.program, hw_doc, bad)
                    return
        for q in qs:
            last_use[q] = li
    pytest.fail("no gate could be moved before its predecessor")


def test_circuit_oracle_rejects_a_removed_routing_swap_slice(compiled):
    case, hw_doc, sched = compiled
    li, oi, _ = next(
        (li, oi, op)
        for li, oi, op in _gate_ops(sched)
        if op["kind"] == "swap" and op.get("gate_id") is None and op["slice"] == 2
    )
    bad = copy.deepcopy(sched)
    del bad["layers"][li][oi]
    with pytest.raises(OracleError):
        check_circuit_schedule(case.program, hw_doc, bad)


def test_circuit_oracle_rejects_a_removed_routing_swap(compiled):
    case, hw_doc, sched = compiled
    li, _, first = next(
        (li, oi, op) for li, oi, op in _gate_ops(sched) if op["kind"] == "swap" and op["slice"] == 1
    )
    bad = copy.deepcopy(sched)
    for lj in range(li, li + 3):
        bad["layers"][lj] = [o for o in bad["layers"][lj] if o["qubits"] != first["qubits"]]
    with pytest.raises(OracleError):
        check_circuit_schedule(case.program, hw_doc, bad)


def test_pauli_oracle_accepts_the_synthesizer_output(synthesized):
    case, hw_doc, sched = synthesized
    check_pauli_schedule(case.program, hw_doc, sched)


@pytest.mark.parametrize("which", ["first", "last"])
def test_pauli_oracle_rejects_a_dropped_ladder_cx(synthesized, which):
    case, hw_doc, sched = synthesized
    cxs = [(li, oi) for li, oi, op in _gate_ops(sched) if op["kind"] == "cx"]
    li, oi = cxs[0] if which == "first" else cxs[-1]
    bad = copy.deepcopy(sched)
    del bad["layers"][li][oi]
    with pytest.raises(OracleError):
        check_pauli_schedule(case.program, hw_doc, bad)


def test_pauli_oracle_rejects_a_wrong_rotation_angle(synthesized):
    case, hw_doc, sched = synthesized
    bad = copy.deepcopy(sched)
    li, oi, _ = next((li, oi, op) for li, oi, op in _gate_ops(bad) if op["kind"] == "rz")
    bad["layers"][li][oi]["param"] += 0.5
    with pytest.raises(OracleError, match="angle"):
        check_pauli_schedule(case.program, hw_doc, bad)


def test_log_esp_matches_esp_where_it_does_not_underflow(compiled):
    case, _, sched = compiled
    hw, profile = cr.load_hardware(json.loads(case.hardware))
    value = cr.esp(cr.ScheduledCircuit.from_json_dict(sched), hw, profile)
    assert value > 1e-300
    assert math.exp(log_esp(sched, hw, profile, cr.decoherence_error)) == pytest.approx(value, rel=1e-9)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    pct, value = tail_percentile(samples)
    assert sum(1 for s in samples if s > value) == TAIL_BEYOND
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_scale_maps_a_slow_host_onto_the_nominal_one():
    assert reference_work() == reference_work()
    # Twice as slow as nominal around the op: the op's time is halved.
    assert scale(0.5, 2 * NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(0.25)
    assert scale(0.5, NOMINAL_S, 3 * NOMINAL_S) == pytest.approx(0.25)


def test_op_clock_samples_inside_an_op_and_leaves_that_time_out():
    clock = OpClock()
    with clock:
        deadline = time.perf_counter() + 3 * INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(clock.refs) >= 4  # before, at least two inside, after
    assert clock.seconds < 3 * INTERVAL_S
    assert clock.scaled == pytest.approx(clock.seconds * NOMINAL_S / (sum(clock.refs) / len(clock.refs)))


def _patch_points(tracer):
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.targets()]


def test_tracer_restores_every_wrapped_function():
    tracer = Tracer(cr)
    before = _patch_points(tracer)
    with tracer:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in before)
        with tracer.op(0):
            OPS["compile-grid"](cr, _circuit_case(gates=30), tracer)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert all(vars(owner)[attr] is fn for owner, attr, fn in before)


def test_traced_self_times_add_up_to_the_op_time():
    tracer = Tracer(cr)
    with tracer:
        for i, op, case in ((0, compile_op, _circuit_case(gates=40)), (1, synth_op, _pauli_case(0.05))):
            with tracer.op(i):
                op(cr, case, tracer)
    layers = tracer.layer_self_seconds()
    assert sum(v for k, v in layers.items() if k != "op") == pytest.approx(layers["op"], rel=1e-9)
    assert tracer.stats["csg.build_csg"][0] > 0 and tracer.stats["vqa.kruskal_mst"][0] > 0
    assert tracer.counts["csg.vertices"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"op", "scheduler.compile_circuit", "vqa.synthesize", "fidelity.esp"} <= names
    assert all(span[3] is not None for span in tracer.spans if span[0] != "op")

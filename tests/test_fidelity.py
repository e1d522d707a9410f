import math

import pytest

from chromaroute import (
    CouplingGraph,
    CrosstalkProfile,
    CrosstalkRecord,
    LedgerEntry,
    Mapping,
    Op,
    ScheduledCircuit,
    compile_circuit,
    decoherence_error,
    esp,
    fidelity_report,
    parse_circuit,
    search_allowance,
)
from chromaroute.csg import Budget
from chromaroute.fidelity import find_x_max, search_core
from chromaroute.fixtures import pair_circuit, ring6


def toy_device(t1=None, t2=None):
    hw = CouplingGraph(
        4,
        [(0, 1), (1, 2), (2, 3)],
        edge_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01},
        t1=t1 or {},
        t2=t2 or {},
    )
    prof = CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (2, 3), 0.1, 0.1)])
    return hw, prof


def parallel_schedule():
    return ScheduledCircuit(
        num_physical=4,
        layers=[[Op(kind="cx", qubits=(0, 1)), Op(kind="cx", qubits=(2, 3))]],
        crosstalk_ledger=[LedgerEntry(layer=0, edges=((0, 1), (2, 3)), excess=0.18)],
        initial_mapping=Mapping(4, 4),
        final_mapping=Mapping(4, 4),
    )


def serial_schedule():
    return ScheduledCircuit(
        num_physical=4,
        layers=[[Op(kind="cx", qubits=(0, 1))], [Op(kind="cx", qubits=(2, 3))]],
        crosstalk_ledger=[],
        initial_mapping=Mapping(4, 4),
        final_mapping=Mapping(4, 4),
    )


def test_decoherence_error_frozen_value():
    assert decoherence_error(1.0, 1.0, 1.0) == pytest.approx(0.3995764008937261, rel=1e-12)
    assert decoherence_error(0.0, 1.0, 1.0) == 0.0
    assert decoherence_error(5.0, math.inf, math.inf) == 0.0
    with pytest.raises(ValueError):
        decoherence_error(-1.0, 1.0, 1.0)


def test_decoherence_error_monotone_in_time():
    prev = 0.0
    for t in (0.5, 1.0, 2.0, 4.0, 8.0):
        cur = decoherence_error(t, 3.0, 5.0)
        assert cur > prev
        prev = cur
    assert prev < 1.0


def test_esp_with_and_without_crosstalk():
    hw, prof = toy_device()
    # both edges run at the conditional rate in the ledgered layer
    assert esp(parallel_schedule(), hw, prof) == pytest.approx(0.81)
    # serialized, both run at the isolated rate
    assert esp(serial_schedule(), hw, prof) == pytest.approx(0.9801)


def test_esp_includes_decoherence():
    t = {q: 1.0 for q in range(4)}
    hw, prof = toy_device(t1=t, t2=t)
    q1 = decoherence_error(1.0, 1.0, 1.0)
    q2 = decoherence_error(2.0, 1.0, 1.0)
    assert esp(parallel_schedule(), hw, prof) == pytest.approx(0.81 * (1 - q1) ** 4)
    assert esp(serial_schedule(), hw, prof) == pytest.approx(0.9801 * (1 - q2) ** 4)
    # with strong decoherence the noisy-but-shallow schedule wins
    assert esp(parallel_schedule(), hw, prof) > esp(serial_schedule(), hw, prof)


def test_esp_single_qubit_ops():
    hw = CouplingGraph(2, [(0, 1)], single_qubit_error={0: 0.0005, 1: 0.0005})
    prof = CrosstalkProfile(hw, [])
    sched = ScheduledCircuit(
        num_physical=2,
        layers=[[Op(kind="u", qubits=(0,), label="h"), Op(kind="u", qubits=(1,), label="h")]],
        crosstalk_ledger=[],
        initial_mapping=Mapping(2, 2),
        final_mapping=Mapping(2, 2),
    )
    assert esp(sched, hw, prof) == pytest.approx((1 - 0.0005) ** 2)


def test_removing_an_op_never_lowers_esp():
    hw, prof = ring6()
    sched = compile_circuit(pair_circuit(), hw, prof, allowance=0.0)
    base = esp(sched, hw, prof)
    for li in range(len(sched.layers)):
        for oi in range(len(sched.layers[li])):
            pruned = ScheduledCircuit.from_json_dict(sched.to_json_dict())
            del pruned.layers[li][oi]
            assert esp(pruned, hw, prof) >= base


def test_fidelity_report_fields():
    hw, prof = ring6()
    sched = compile_circuit(pair_circuit(), hw, prof, allowance=0.0)
    rep = fidelity_report(sched, hw, prof)
    assert rep.esp == pytest.approx(esp(sched, hw, prof))
    assert rep.depth_cx == 4
    assert rep.swap_count == 2
    assert rep.duration == pytest.approx(4 * hw.gate_time_cx)
    assert rep.crosstalk_entries == 0
    assert rep.crosstalk_excess_total == 0.0
    data = rep.to_json_dict()
    assert data["depth_cx"] == 4
    assert data["esp"] == rep.esp


def test_find_x_max_is_unconstrained_ledger_mass():
    hw = CouplingGraph(
        4,
        [(0, 1), (1, 2), (2, 3)],
        edge_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01},
    )
    prof = CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (2, 3), 0.05, 0.05)])
    circ = parse_circuit("qubits 4\ncx 0 1\ncx 2 3\n")
    x_max = find_x_max(lambda a: compile_circuit(circ, hw, prof, allowance=a), Budget(prof))
    assert x_max == pytest.approx(0.08)
    hw6, prof6 = ring6()
    circ6 = pair_circuit()
    assert find_x_max(lambda a: compile_circuit(circ6, hw6, prof6, allowance=a), Budget(prof6)) == 0.0


def test_search_core_parabola():
    res = search_core(0.0, 1.0, 0.01, lambda x: -((x - 0.3) ** 2))
    assert abs(res.best_allowance - 0.3) <= 0.02
    assert res.best_value == max(v for _, v in res.probes)
    xs = [x for x, _ in res.probes]
    assert 0.0 in xs and 1.0 in xs


def test_search_core_monotone_objectives():
    rising = search_core(0.0, 1.0, 0.05, lambda x: x)
    assert rising.best_allowance == 1.0
    falling = search_core(0.0, 1.0, 0.05, lambda x: -x)
    assert falling.best_allowance == 0.0


def test_search_core_keeps_best_probe_ever_seen():
    # a spike the bisection bracket walks away from: the endpoint probe wins
    def spiky(x):
        return 2.0 if x == 0.0 else x

    res = search_core(0.0, 1.0, 0.05, spiky)
    assert res.best_allowance == 0.0
    assert res.best_value == 2.0


def test_search_allowance_zero_x_max_single_probe():
    hw, prof = ring6()
    circ = pair_circuit()
    res = search_allowance(lambda a: compile_circuit(circ, hw, prof, allowance=a), hw, prof)
    assert res.x_max == 0.0
    assert res.best_allowance == 0.0
    assert len(res.probes) == 1
    best = compile_circuit(circ, hw, prof, allowance=res.best_allowance)
    assert best.depth_cx == 4
    assert best.crosstalk_ledger == []


@pytest.mark.parametrize("steps", [1, 4, 32])
def test_search_allowance_compiles_each_probe_once(steps):
    # one compile per distinct probe, plus find_x_max's compile at infinity
    hw, prof = toy_device(t1={q: 50.0 for q in range(4)}, t2={q: 50.0 for q in range(4)})
    circ = parse_circuit("qubits 4\ncx 0 1\ncx 2 3\ncx 1 2\ncx 0 1\ncx 2 3\n")
    calls = []

    def compile_fn(allowance):
        calls.append(allowance)
        return compile_circuit(circ, hw, prof, allowance=allowance)

    res = search_allowance(compile_fn, hw, prof, steps=steps)
    assert res.x_max > 0.0
    assert len(calls) == len(res.probes) + 1
    assert calls[0] == math.inf
    assert sorted(calls[1:]) == [x for x, _ in res.probes]


def test_search_allowance_prefers_crosstalk_under_heavy_decay():
    t = {q: 1.0 for q in range(4)}
    hw = CouplingGraph(
        4,
        [(0, 1), (1, 2), (2, 3)],
        edge_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01},
        t1=t,
        t2=t,
    )
    prof = CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (2, 3), 0.1, 0.1)])
    circ = parse_circuit("qubits 4\ncx 0 1\ncx 2 3\n")
    res = search_allowance(lambda a: compile_circuit(circ, hw, prof, allowance=a), hw, prof)
    assert res.x_max == pytest.approx(0.18)
    assert res.best_allowance == res.x_max
    # and without decay the zero-crosstalk schedule wins, at the lowest x
    hw2 = CouplingGraph(
        4,
        [(0, 1), (1, 2), (2, 3)],
        edge_error={(0, 1): 0.01, (1, 2): 0.01, (2, 3): 0.01},
    )
    prof2 = CrosstalkProfile(hw2, [CrosstalkRecord((0, 1), (2, 3), 0.1, 0.1)])
    res2 = search_allowance(lambda a: compile_circuit(circ, hw2, prof2, allowance=a), hw2, prof2)
    assert res2.best_allowance == 0.0
    assert res2.best_value == pytest.approx(0.9801)


def test_search_result_json():
    res = search_core(0.0, 1.0, 0.25, lambda x: x)
    data = res.to_json_dict()
    assert data["best_allowance"] == 1.0
    assert data["x_max"] == 1.0
    assert [1.0, 1.0] in data["probes"]

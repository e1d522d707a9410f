import math
import random

import pytest

import chromaroute.scheduler as scheduler
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
from chromaroute.fidelity import find_x_max, search_core
from chromaroute.fixtures import pair_circuit, ring6
from chromaroute.scheduler import StallGuard
from test_indexed import grid_device, random_circuit


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
    x_max = find_x_max(lambda a: compile_circuit(circ, hw, prof, allowance=a))
    assert x_max == pytest.approx(0.08)
    hw6, prof6 = ring6()
    circ6 = pair_circuit()
    assert find_x_max(lambda a: compile_circuit(circ6, hw6, prof6, allowance=a)) == 0.0


def test_search_core_parabola():
    res = search_core(1.0, 101, lambda x: (-((x - 0.3) ** 2), None))
    assert abs(res.best_allowance - 0.3) <= 0.01
    assert res.best_value == max(v for _, v in res.probes)
    xs = [x for x, _ in res.probes]
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert xs == sorted(set(xs))


def test_search_core_monotone_objectives():
    rising = search_core(1.0, 11, lambda x: (x, None))
    assert rising.best_allowance == 1.0
    falling = search_core(1.0, 11, lambda x: (-x, None))
    assert falling.best_allowance == 0.0
    # a flat objective ties everywhere: the lowest allowance wins
    flat = search_core(1.0, 11, lambda x: (0.5, None))
    assert flat.best_allowance == 0.0
    # with x_max 0 the search is one probe at 0
    assert search_core(0.0, 11, lambda x: (x, None)).probes == [(0.0, 0.0)]


def test_search_core_keeps_best_probe_ever_seen():
    # a spike at the first probe: every later, rising probe stays below it
    def spiky(x):
        return 2.0 if x == 0.0 else x

    res = search_core(1.0, 11, lambda x: (spiky(x), None))
    assert res.best_allowance == 0.0
    assert res.best_value == 2.0
    assert len(res.probes) == 11


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


# The grid's probe count at each resolution, max(2, 2 ceil(log2 steps) + 1).
GRID_PROBES = {1: 2, 4: 5, 32: 11}


@pytest.mark.parametrize("steps", [1, 4, 32])
def test_search_allowance_compiles_each_probe_once(steps):
    # one compile per grid probe, plus find_x_max's compile at infinity
    hw, prof = toy_device(t1={q: 50.0 for q in range(4)}, t2={q: 50.0 for q in range(4)})
    circ = parse_circuit("qubits 4\ncx 0 1\ncx 2 3\ncx 1 2\ncx 0 1\ncx 2 3\n")
    calls = []

    def compile_fn(allowance):
        calls.append(allowance)
        return compile_circuit(circ, hw, prof, allowance=allowance)

    res = search_allowance(compile_fn, hw, prof, steps=steps)
    assert res.x_max > 0.0
    n = GRID_PROBES[steps]
    assert len(calls) == len(res.probes) + 1 == n + 1
    assert calls[0] == math.inf
    assert calls[1:] == [x for x, _ in res.probes] == [res.x_max * (i / (n - 1)) for i in range(n)]
    assert calls[-1] == res.x_max


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
    res = search_core(1.0, 5, lambda x: (x, None))
    data = res.to_json_dict()
    assert data["best_allowance"] == 1.0
    assert data["x_max"] == 1.0
    assert [1.0, 1.0] in data["probes"]


def counting_iterations(monkeypatch):
    """Count the circuit compiler's loop iterations, and those of them
    decided live: each either looks for executable pairs or takes the
    compile's own flight pass, and a replayed iteration does neither."""
    seen = {"iterations": 0, "live": 0}
    next_iteration = StallGuard.next_iteration

    def counted_next_iteration(guard):
        seen["iterations"] += 1
        return next_iteration(guard)

    def counted(fn):
        def live(*args):
            seen["live"] += 1
            return fn(*args)

        return live

    monkeypatch.setattr(StallGuard, "next_iteration", counted_next_iteration)
    monkeypatch.setattr(scheduler, "executable_pairs", counted(scheduler.executable_pairs))
    monkeypatch.setattr(scheduler, "_unpriced_flight_layer", counted(scheduler._unpriced_flight_layer))
    return seen


# Upper bounds on the live iterations of the search in each case
# below: the count the replay reached over the search's even grid of probes.
# A search may make no more, so the share of iterations it replays does not
# drop.
LIVE_SCANS = {(3, 1): 1160, (4, 2): 1512, (4, 3): 1557}


@pytest.mark.parametrize("rows,seed", [(3, 1), (4, 2), (4, 3)])
def test_a_search_probe_resumes_to_the_schedule_of_a_fresh_compile(monkeypatch, rows, seed):
    """Within one search a probe replays the iterations an earlier probe's
    trail decided for its allowance; every probe's schedule is still the one
    a compile outside any search gives, and a hook turns the replay off."""
    rng = random.Random(seed)
    hw, prof = grid_device(rows, rows, rng)
    circuit = random_circuit(rows * rows, 100, rng)

    def searched(**hook):
        probes = {}

        def compile_fn(allowance):
            sched = compile_circuit(circuit, hw, prof, allowance=allowance, **hook)
            probes[allowance] = sched.to_json_dict()
            return sched

        return search_allowance(compile_fn, hw, prof), probes

    seen = counting_iterations(monkeypatch)
    result, probes = searched()
    assert scheduler.SEARCH_TRAILS.get() is None
    assert len(probes) > 2
    assert result.schedule.to_json_dict() == probes[result.best_allowance]
    # iterations were replayed, not computed, at least as many as before
    assert seen["live"] <= LIVE_SCANS[rows, seed] < seen["iterations"]
    for allowance, doc in probes.items():
        assert compile_circuit(circuit, hw, prof, allowance=allowance).to_json_dict() == doc

    seen["iterations"] = seen["live"] = 0
    hooked, hooked_probes = searched(on_iteration=lambda info: None)
    assert seen["live"] == seen["iterations"]
    assert hooked_probes == probes
    assert hooked.to_json_dict() == result.to_json_dict()
    assert hooked.schedule.to_json_dict() == result.schedule.to_json_dict()


@pytest.mark.parametrize("differ", ["mapping", "circuit"])
def test_a_search_never_follows_the_trail_of_other_inputs(monkeypatch, differ):
    """A search whose compile_fn alternates between two inputs on one
    device, two initial mappings of one circuit or two circuits: every
    probe's schedule is the one a compile outside any search gives, and
    each input still replays some of its iterations."""
    rng = random.Random(5)
    hw, prof = grid_device(3, 3, rng)
    circuit = random_circuit(9, 100, rng)
    if differ == "mapping":
        inputs = [(circuit, None), (circuit, Mapping(9, 9, list(reversed(range(9)))))]
    else:
        inputs = [(circuit, None), (random_circuit(9, 100, rng), None)]
    seen = counting_iterations(monkeypatch)
    replayed = [0, 0]
    probes = []

    def compile_fn(allowance):
        which = len(probes) % 2
        before = seen["iterations"] - seen["live"]
        sched = compile_circuit(inputs[which][0], hw, prof, inputs[which][1], allowance=allowance)
        replayed[which] += seen["iterations"] - seen["live"] - before
        probes.append((which, allowance, sched.to_json_dict()))
        return sched

    search_allowance(compile_fn, hw, prof)
    assert len(probes) > 4 and all(replayed), replayed
    for which, allowance, doc in probes:
        fresh = compile_circuit(inputs[which][0], hw, prof, inputs[which][1], allowance=allowance)
        assert fresh.to_json_dict() == doc

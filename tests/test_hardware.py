import pytest

from chromaroute import (
    CouplingGraph,
    CrosstalkProfile,
    CrosstalkRecord,
    HardwareError,
    Mapping,
    MappingError,
    load_hardware,
)
from chromaroute.fixtures import ring6
from chromaroute.hardware import normalize_edge


def line4():
    return CouplingGraph(4, [(0, 1), (1, 2), (2, 3)], edge_error={(0, 1): 0.01, (1, 2): 0.02, (2, 3): 0.03})


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)


def test_graph_basics():
    hw = line4()
    assert hw.num_qubits == 4
    assert hw.has_edge(0, 1)
    assert hw.has_edge(1, 0)
    assert not hw.has_edge(0, 2)
    assert sorted(hw.edges) == [(0, 1), (1, 2), (2, 3)]
    assert hw.error_of((2, 3)) == 0.03


def test_all_pairs_distance_on_a_line():
    hw = line4()
    dist = hw.all_pairs_distance()
    assert dist[0][3] == 3
    assert dist[3][0] == 3
    assert dist[1][2] == 1
    assert dist[2][2] == 0
    assert hw.distance(0, 2) == 2


def test_all_pairs_distance_on_a_ring():
    hw, _ = ring6()
    dist = hw.all_pairs_distance()
    assert dist[0][3] == 3
    assert dist[0][5] == 1
    assert dist[1][5] == 2
    assert dist[2][5] == 3


def test_graph_validation():
    with pytest.raises(HardwareError):
        CouplingGraph(0, [])
    with pytest.raises(HardwareError):
        CouplingGraph(3, [(0, 1), (0, 1)])
    with pytest.raises(HardwareError):
        CouplingGraph(3, [(0, 5)])
    with pytest.raises(HardwareError):
        CouplingGraph(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(HardwareError):
        CouplingGraph(2, [(0, 1)], edge_error={(0, 1): 1.5})
    with pytest.raises(HardwareError):
        CouplingGraph(2, [(0, 1)], t1={0: -3.0})
    with pytest.raises(HardwareError):
        CouplingGraph(2, [(0, 1)], gate_time_cx=0.0)


def test_device_times_reject_nan_and_keep_infinite_decay():
    nan, inf = float("nan"), float("inf")
    for field, table in (("t1", {"t1": {0: nan}}), ("t2", {"t2": {1: nan}})):
        with pytest.raises(HardwareError, match=rf"{field}\[\d\] must be positive, got nan"):
            CouplingGraph(2, [(0, 1)], **table)
    for bad in (nan, inf):
        with pytest.raises(HardwareError, match="gate_time_cx must be positive and finite"):
            CouplingGraph(2, [(0, 1)], gate_time_cx=bad)
    hw = CouplingGraph(2, [(0, 1)], t1={0: inf}, t2={1: inf})
    assert hw.t1_of(0) == hw.t1_of(1) == inf
    assert hw.t2_of(1) == hw.t2_of(0) == inf


def test_missing_decay_data_is_infinite():
    hw = line4()
    assert hw.t1_of(0) == float("inf")
    assert hw.t2_of(2) == float("inf")
    assert hw.single_qubit_error_of(1) == 0.0


def test_profile_lookup_and_excess():
    hw = line4()
    rec = CrosstalkRecord((0, 1), (2, 3), 0.05, 0.07)
    prof = CrosstalkProfile(hw, [rec])
    assert len(prof) == 1
    assert prof.record_for((0, 1), (2, 3)) is not None
    got = prof.record_for((2, 3), (1, 0))
    assert got is not None
    assert got.e1_given_e2 == 0.05
    assert prof.record_for((0, 1), (1, 2)) is None
    assert prof.record_for((0, 1), (2, 3)) is got
    assert prof.conditional_error((0, 1), (2, 3)) == 0.05
    assert prof.conditional_error((2, 3), (0, 1)) == 0.07
    assert prof.conditional_error((1, 2), (0, 1)) == 0.02
    # (0.05 - 0.01) + (0.07 - 0.03)
    assert prof.excess_error((0, 1), (2, 3)) == pytest.approx(0.08)
    assert prof.excess_error((0, 1), (1, 2)) == 0.0


def test_profile_validation():
    hw = line4()
    with pytest.raises(HardwareError):
        CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (0, 1), 0.5, 0.5)])
    with pytest.raises(HardwareError):
        CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (0, 3), 0.5, 0.5)])
    with pytest.raises(HardwareError):
        # conditional below the isolated rate
        CrosstalkProfile(hw, [CrosstalkRecord((0, 1), (2, 3), 0.001, 0.5)])
    with pytest.raises(HardwareError):
        CrosstalkProfile(
            hw,
            [
                CrosstalkRecord((0, 1), (2, 3), 0.5, 0.5),
                CrosstalkRecord((2, 3), (0, 1), 0.6, 0.6),
            ],
        )
    with pytest.raises(HardwareError):
        prof = CrosstalkProfile(hw, [])
        prof.record_for((0, 1), (0, 1))


def test_mapping_identity_and_swaps():
    m = Mapping(3, 5)
    assert m.phys(0) == 0
    assert m.phys(2) == 2
    assert m.logical_at(4) is None
    m.apply_swap(0, 1)
    assert m.phys(0) == 1
    assert m.phys(1) == 0
    m.apply_swap(2, 3)  # moves logical 2 onto an empty qubit
    assert m.phys(2) == 3
    assert m.logical_at(2) is None
    assert m.as_dict() == {0: 1, 1: 0, 2: 3}


def test_mapping_copy_is_independent():
    m = Mapping(2, 4)
    c = m.copy()
    c.apply_swap(0, 1)
    assert m.phys(0) == 0
    assert c.phys(0) == 1
    assert m != c
    assert m == Mapping(2, 4)


def test_apply_swap_refuses_one_qubit_and_an_off_device_qubit():
    """Both refusals leave the mapping as it was, whichever end is off the
    device; with both off, the message names the first."""
    m = Mapping(2, 4, placement=[3, 1])
    with pytest.raises(MappingError, match=r"^swap needs two distinct physical qubits$"):
        m.apply_swap(2, 2)
    for a, b, bad in ((0, 4, 4), (4, 0, 4), (-1, 3, -1), (1, -1, -1), (5, -2, 5)):
        with pytest.raises(MappingError, match=rf"^physical qubit {bad} out of range$"):
            m.apply_swap(a, b)
        assert m.as_dict() == {0: 3, 1: 1}
        assert [m.logical_at(p) for p in range(4)] == [None, 1, None, 0]


def test_mapping_validation():
    with pytest.raises(MappingError):
        Mapping(5, 3)
    with pytest.raises(MappingError):
        Mapping(2, 4, placement=[0, 0])
    with pytest.raises(MappingError):
        Mapping(2, 4, placement=[0, 9])
    m = Mapping(2, 4)
    with pytest.raises(MappingError):
        m.phys(7)


def test_load_hardware_roundtrip():
    data = {
        "num_qubits": 3,
        "edges": [[0, 1], [1, 2]],
        "edge_error": {"0-1": 0.01, "1-2": 0.02},
        "t1": {"0": 100.0},
        "t2": {"0": 80.0},
        "single_qubit_error": {"0": 0.001},
        "gate_time_cx": 2.0,
        "crosstalk": [
            {"e1": [0, 1], "e2": [1, 2], "e1_given_e2": 0.05, "e2_given_e1": 0.06}
        ],
    }
    hw, prof = load_hardware(data)
    assert hw.num_qubits == 3
    assert hw.error_of((1, 2)) == 0.02
    assert hw.t1_of(0) == 100.0
    assert hw.t2_of(1) == float("inf")
    assert hw.single_qubit_error_of(0) == 0.001
    assert hw.gate_time_cx == 2.0
    assert len(prof) == 1
    assert prof.conditional_error((0, 1), (1, 2)) == 0.05


def test_load_hardware_rejects_junk():
    with pytest.raises(HardwareError):
        load_hardware({"edges": [[0, 1]]})  # missing num_qubits
    with pytest.raises(HardwareError):
        load_hardware({"num_qubits": 2, "edges": [[0, 1]], "typo_field": 1})
    with pytest.raises(HardwareError):
        load_hardware({"num_qubits": 2, "edges": [[0, 1]], "edge_error": {"0+1": 0.1}})
    with pytest.raises(HardwareError):
        load_hardware(
            {
                "num_qubits": 2,
                "edges": [[0, 1]],
                "crosstalk": [{"e1": [0, 1], "e2": [0, 1], "e1_given_e2": 0.5}],
            }
        )


def test_fixture_ring6_shape():
    hw, prof = ring6()
    assert hw.num_qubits == 6
    assert len(hw.edges) == 6
    assert len(prof) == 6
    # next-nearest pairs around the ring
    assert prof.record_for((0, 1), (2, 3)) is not None
    assert prof.record_for((0, 5), (1, 2)) is not None
    assert prof.excess_error((0, 1), (2, 3)) == pytest.approx(0.08)

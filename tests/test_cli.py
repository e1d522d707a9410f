import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chromaroute
from chromaroute import (
    ScheduledCircuit,
    StallError,
    VerificationError,
    cli,
    compile_circuit,
    load_hardware_file,
    parse_circuit,
    parse_pauli_program,
)
from chromaroute.cli import main
from chromaroute.fixtures import fixture_text


@pytest.fixture
def paths(tmp_path):
    hw = tmp_path / "ring6_cross.json"
    hw.write_text(fixture_text("ring6_cross.json"))
    circ = tmp_path / "pair.txt"
    circ.write_text(fixture_text("pair_circuit.txt"))
    return tmp_path, str(hw), str(circ)


def read_schedule(text):
    return ScheduledCircuit.from_json_dict(json.loads(text))


def test_compile_to_stdout(paths, capsys):
    _, hw, circ = paths
    assert main(["compile", "-c", circ, "-H", hw, "-a", "0.004"]) == 0
    sched = read_schedule(capsys.readouterr().out)
    assert sched.depth_cx == 4
    assert sched.swap_count == 2


def test_compile_output_files(paths):
    tmp, hw, circ = paths
    out = tmp / "sched.json"
    tl = tmp / "timeline.txt"
    dot = tmp / "csg.dot"
    rc = main(
        [
            "compile",
            "-c",
            circ,
            "-H",
            hw,
            "-a",
            "0.004",
            "-o",
            str(out),
            "--emit-timeline",
            str(tl),
            "--emit-csg",
            str(dot),
        ]
    )
    assert rc == 0
    sched = read_schedule(out.read_text())
    assert sched.depth_cx == 4
    timeline = tl.read_text()
    assert timeline.startswith("layer   0:")
    assert "crosstalk @ layer" in timeline
    assert dot.read_text().startswith("graph csg_i1 {")
    assert "[kind=xtalk]" in dot.read_text()


def test_compile_baseline_flag(paths, capsys):
    _, hw, circ = paths
    assert main(["compile", "-c", circ, "-H", hw, "--baseline"]) == 0
    sched = read_schedule(capsys.readouterr().out)
    assert sched.depth_cx == 8
    assert sched.crosstalk_ledger == []


def test_compile_two_local_pauli_uses_the_gate_path(paths, capsys):
    tmp, hw, _ = paths
    pauli = tmp / "zz.txt"
    pauli.write_text("0.5 ZZIIII\n0.25 IIIXXI\n")
    assert main(["compile", "-p", str(pauli), "-H", hw]) == 0
    sched = read_schedule(capsys.readouterr().out)
    kinds = {op.kind for layer in sched.layers for op in layer}
    assert "rzz" in kinds


def test_compile_in_pair_units(tmp_path, capsys):
    # The allowance counts excess error mass only: each pair of the hot ring
    # inflates error by about 1.78, so an allowance of 1 buys none, and no
    # option counts it as one pair instead.
    hot = tmp_path / "hot.json"
    hot.write_text(fixture_text("ring6_cross_hot.json"))
    circ = tmp_path / "pair.txt"
    circ.write_text(fixture_text("pair_circuit.txt"))
    base = ["compile", "-c", str(circ), "-H", str(hot), "-a", "1"]
    assert main(base) == 0
    assert read_schedule(capsys.readouterr().out).depth_cx == 8
    with pytest.raises(SystemExit) as exc:
        main(base + ["--allowance-units", "pairs"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allowance-units pairs" in capsys.readouterr().err


def test_compile_requires_exactly_one_workload(paths, capsys):
    tmp, hw, circ = paths
    pauli = tmp / "zz.txt"
    pauli.write_text("0.5 ZZIIII\n")
    assert main(["compile", "-H", hw]) == 2
    assert main(["compile", "-c", circ, "-p", str(pauli), "-H", hw]) == 2
    capsys.readouterr()


def test_compile_with_explicit_mapping(paths, capsys):
    _, hw, circ = paths
    placement = "0:2,1:1,2:0,3:3,4:4,5:5"
    assert main(["compile", "-c", circ, "-H", hw, "-m", placement]) == 0
    sched = read_schedule(capsys.readouterr().out)
    assert sched.initial_mapping.as_dict()[0] == 2
    assert main(["compile", "-c", circ, "-H", hw, "-m", "0:2,1:0"]) == 2
    assert main(["compile", "-c", circ, "-H", hw, "-m", "0:2,0:3"]) == 2
    capsys.readouterr()


def test_vqe_synth_lookahead_flag(tmp_path, capsys):
    hw = tmp_path / "grid6.json"
    hw.write_text(fixture_text("grid6.json"))
    pauli = tmp_path / "chain.txt"
    pauli.write_text(fixture_text("chain_pair.txt"))
    assert main(["vqe-synth", "-p", str(pauli), "-H", str(hw), "--lookahead", "on"]) == 0
    on = read_schedule(capsys.readouterr().out)
    assert main(["vqe-synth", "-p", str(pauli), "-H", str(hw), "--lookahead", "off"]) == 0
    off = read_schedule(capsys.readouterr().out)
    assert len(on.layers) == 11
    assert len(off.layers) == 14


def test_jw_encode(tmp_path, capsys):
    ferm = tmp_path / "h2.txt"
    ferm.write_text(fixture_text("h2_fermion.txt"))
    assert main(["jw-encode", "-f", str(ferm)]) == 0
    prog = parse_pauli_program(capsys.readouterr().out)
    assert len(prog.strings) == 15
    assert prog.num_qubits == 4
    assert main(["jw-encode", "-f", str(ferm), "-n", "6"]) == 0
    assert parse_pauli_program(capsys.readouterr().out).num_qubits == 6


def test_jw_encode_rejects_non_hermitian(tmp_path, capsys):
    ferm = tmp_path / "bad.txt"
    ferm.write_text("0.5 0+ 1-\n")
    assert main(["jw-encode", "-f", str(ferm)]) == 2
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("0.5 0^ 1\n")
    assert main(["jw-encode", "-f", str(garbled)]) == 2
    capsys.readouterr()


def test_report(paths, capsys):
    tmp, hw, circ = paths
    out = tmp / "sched.json"
    assert main(["compile", "-c", circ, "-H", hw, "-a", "0.004", "-o", str(out)]) == 0
    assert main(["report", "-s", str(out), "-H", hw]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "crosstalk_entries",
        "crosstalk_excess_total",
        "depth_cx",
        "duration",
        "esp",
        "swap_count",
    }
    assert 0.0 < report["esp"] < 1.0
    assert report["depth_cx"] == 4
    assert report["crosstalk_excess_total"] == pytest.approx(0.002)


def test_report_rejects_junk(paths, tmp_path, capsys):
    _, hw, _ = paths
    junk = tmp_path / "junk.json"
    junk.write_text("{}")
    assert main(["report", "-s", str(junk), "-H", hw]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("pear-shaped")
    assert main(["report", "-s", str(notjson), "-H", hw]) == 2
    capsys.readouterr()


def test_report_rejects_tampered_schedule(paths, tmp_path, capsys):
    _, hw, circ = paths
    out = tmp_path / "sched.json"
    assert main(["compile", "-c", circ, "-H", hw, "-a", "0.004", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["crosstalk_ledger"] = []
    out.write_text(json.dumps(doc))
    assert main(["report", "-s", str(out), "-H", hw]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit",
    [lambda edges: edges.append([2, 3]), lambda edges: edges.pop(), lambda edges: edges[1].append(5)],
    ids=["three_edges", "one_edge", "three_qubit_edge"],
)
def test_report_rejects_a_ledger_entry_that_is_not_two_edges_of_two_qubits(paths, tmp_path, capsys, edit):
    _, hw, circ = paths
    out = tmp_path / "sched.json"
    assert main(["compile", "-c", circ, "-H", hw, "-a", "inf", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert main(["report", "-s", str(out), "-H", hw]) == 0
    edit(doc["crosstalk_ledger"][0]["edges"])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", "-s", str(out), "-H", hw]) == 2
    assert "not a valid schedule document" in capsys.readouterr().err


def test_search(paths, capsys):
    tmp, hw, circ = paths
    best_out = tmp / "best.json"
    rc = main(
        ["search", "-c", circ, "-H", hw, "--steps", "8", "--schedule-out", str(best_out)]
    )
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {"best_allowance", "best_esp", "probes", "x_max"}
    assert result["x_max"] == pytest.approx(0.002)
    assert result["best_allowance"] == pytest.approx(0.002)
    best = read_schedule(best_out.read_text())
    assert best.depth_cx == 4


def test_search_compiles_the_winner_once(paths, capsys, monkeypatch):
    # one compile per probe plus find_x_max's at infinity; the schedule
    # written out is the winning probe's, not a recompile
    tmp, hw, circ = paths
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["allowance"])
        return compile_circuit(*args, **kwargs)

    monkeypatch.setattr(cli, "compile_circuit", counted)
    best_out = tmp / "best.json"
    argv = ["search", "-c", circ, "-H", hw, "--steps", "8", "--schedule-out", str(best_out)]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)
    assert len(calls) == len(result["probes"]) + 1
    hardware, profile = load_hardware_file(hw)
    again = compile_circuit(
        parse_circuit(Path(circ).read_text()), hardware, profile, allowance=result["best_allowance"]
    )
    assert read_schedule(best_out.read_text()).to_json_dict() == again.to_json_dict()


def test_search_in_pair_units(paths, capsys):
    # search and vqe-synth count the allowance in excess error mass only
    tmp, hw, circ = paths
    pauli = tmp / "zz.txt"
    pauli.write_text("0.5 ZZZIII\n")
    for argv in (["search", "-c", circ, "--steps", "4"], ["vqe-synth", "-p", str(pauli)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-H", hw, "--allowance-units", "pairs"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allowance-units pairs" in capsys.readouterr().err


def _cx_without_qubits(tmp, hw, circ):
    out = tmp / "sched.json"
    assert main(["compile", "-c", circ, "-H", hw, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    op = next(op for layer in doc["layers"] for op in layer if op["kind"] == "cx")
    op["qubits"] = []
    out.write_text(json.dumps(doc))
    return ["report", "-s", str(out), "-H", hw]


def _non_numeric_edge_error(tmp, hw, circ):
    data = json.loads(Path(hw).read_text())
    data["edge_error"] = {"0-1": "abc"}
    bad = tmp / "bad_hw.json"
    bad.write_text(json.dumps(data))
    return ["compile", "-c", circ, "-H", str(bad)]


def _hardware_edit(edit):
    """``compile`` on a copy of ring6_cross.json that ``edit`` changed."""

    def make_argv(tmp, hw, circ):
        data = json.loads(Path(hw).read_text())
        edit(data)
        bad = tmp / "bad_hw.json"
        bad.write_text(json.dumps(data))
        return ["compile", "-c", circ, "-H", str(bad)]

    make_argv.__name__ = edit.__name__
    return make_argv


def _hardware_field(field, value):
    def edit(data):
        data[field] = value

    edit.__name__ = f"_hardware_{field}"
    return _hardware_edit(edit)


def _table_entry(name, field, key, value):
    """An edit that sets ``data[field][key]`` on the hardware document."""

    def edit(data):
        data[field][key] = value

    edit.__name__ = name
    return _hardware_edit(edit)


def _fractional_edge(data):
    data["edges"][0] = [0.4, 1.9]


def _string_conditional_rate(data):
    data["crosstalk"][0]["e1_given_e2"] = "0.05"


def _unrated_crosstalk_link(data):
    del data["edge_error"]["3-4"]


def _non_integer_qubits(tmp, hw, circ):
    out = tmp / "sched.json"
    assert main(["compile", "-c", circ, "-H", hw, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    op = next(op for layer in doc["layers"] for op in layer if op["kind"] == "cx")
    op["qubits"] = ["a", "b"]
    out.write_text(json.dumps(doc))
    return ["report", "-s", str(out), "-H", hw]


def _nan_device_time(field):
    def make_argv(tmp, hw, circ):
        data = json.loads(Path(hw).read_text())
        if field == "gate_time_cx":
            data[field] = float("nan")
        else:
            data[field]["0"] = float("nan")
        bad = tmp / "bad_hw.json"
        bad.write_text(json.dumps(data))  # writes the NaN literal
        assert "NaN" in bad.read_text()
        return ["compile", "-c", circ, "-H", str(bad)]

    make_argv.__name__ = f"_nan_{field}"
    return make_argv


def _program(command, text):
    def make_argv(tmp, hw, circ):
        program = tmp / "program.txt"
        program.write_text(text)
        return command + [str(program)] + ([] if command[0] == "jw-encode" else ["-H", hw])

    make_argv.__name__ = f"_{command[0]}_program"
    return make_argv


def _edited_schedule(edit):
    """``report`` on the schedule that ``compile`` writes for the pair
    circuit on ring6, after ``edit`` changed the document in place."""

    def make_argv(tmp, hw, circ):
        ring6 = tmp / "ring6.json"
        ring6.write_text(fixture_text("ring6.json"))
        out = tmp / "sched.json"
        assert main(["compile", "-c", circ, "-H", str(ring6), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        text = edit(doc)
        out.write_text(json.dumps(doc) if text is None else text)
        return ["report", "-s", str(out), "-H", str(ring6)]

    make_argv.__name__ = edit.__name__
    return make_argv


def _mapping_key(doc):
    doc["initial_mapping"]["a"] = doc["initial_mapping"].pop("0")


def _swap_slice(value):
    def edit(doc):
        op = next(op for layer in doc["layers"] for op in layer if op["kind"] == "swap")
        if value == "missing":
            del op["slice"]
        else:
            op["slice"] = value

    edit.__name__ = f"_swap_slice_{value}"
    return edit


def _kind_list(doc):
    doc["layers"][0][0]["kind"] = [doc["layers"][0][0]["kind"]]


def _ledger_layers(doc):
    for layer in (0, "x"):
        doc["crosstalk_ledger"].append({"layer": layer, "edges": [[0, 1], [3, 4]], "excess": 0.0})


def _cx_mid_flight(doc):
    # a cx on the edge of a SWAP between its first and second slice
    doc["layers"].insert(1, [{"kind": "cx", "qubits": [0, 1]}])


def _renumbered_mapping_keys(doc):
    mapping = doc["initial_mapping"]
    doc["initial_mapping"] = {str(3 + 7 * int(l)): p for l, p in mapping.items()}


def _slice_on_cx(doc):
    next(op for op in doc["layers"][-1] if op["kind"] == "cx")["slice"] = 1


def _op_param(literal):
    """The first op's ``param`` written as the JSON text ``literal``."""

    def edit(doc):
        doc["layers"][0][0]["param"] = 0.5
        return json.dumps(doc).replace('"param": 0.5', f'"param": {literal}', 1)

    edit.__name__ = f"_op_param_{literal}"
    return edit


def _device_size(doc):
    # a gate on qubit 50, which the 6-qubit device does not have
    doc["num_physical"] = 100
    doc["layers"].append([{"kind": "u", "qubits": [50], "label": "h"}])


@pytest.mark.parametrize(
    "make_argv,message",
    [
        (_cx_without_qubits, "cx needs 2 qubit(s), got 0"),
        (_non_numeric_edge_error, "error: edge_error['0-1']: expected a number, got 'abc'"),
        (_non_integer_qubits, "qubit 'a' is not an integer"),
        (_nan_device_time("t1"), "error: t1[0] must be positive, got nan"),
        (_nan_device_time("t2"), "error: t2[0] must be positive, got nan"),
        (_nan_device_time("gate_time_cx"), "error: gate_time_cx must be positive and finite, got nan"),
        (_program(["compile", "-c"], "qubits 2\nrzz nan 0 1\n"), "error: line 2: rzz angle must be"),
        (_program(["compile", "-c"], "qubits 2\ncx 0 1\nrzz -inf 0 1\n"), "error: line 3: rzz angle"),
        (_program(["vqe-synth", "-p"], "1e400 ZZ\n"), "error: line 1: coefficient must be"),
        (_program(["vqe-synth", "-p"], "0.5 ZZ\nnan XX\n"), "error: line 2: coefficient must be"),
        (_program(["jw-encode", "-f"], "nan 0+ 0-\n1.0 1+ 1-\n"), "error: line 1: coefficient"),
        (_program(["jw-encode", "-f"], "1.0 0+ 0-\n-1e999 1+ 1-\n"), "error: line 2: coefficient"),
        # an encoding that vqe-synth could not read back: an overflowed weight, no string at all
        (_program(["jw-encode", "-f"], "1.7e308 0+ 0-\n" * 3), "(inf+0j), which is not finite"),
        (_program(["jw-encode", "-f"], "0.5 0+ 0+\n"), "error: the operator is zero"),
        (_edited_schedule(_mapping_key), "initial_mapping: a logical qubit key is not an integer"),
        (_edited_schedule(_swap_slice(None)), "layer 0: SWAP slice None is not 1, 2 or 3"),
        (_edited_schedule(_swap_slice("missing")), "layer 0: SWAP slice None is not 1, 2 or 3"),
        (_edited_schedule(_swap_slice(0)), "layer 0: SWAP slice 0 is not 1, 2 or 3"),
        (_edited_schedule(_swap_slice(4)), "layer 0: SWAP slice 4 is not 1, 2 or 3"),
        (_edited_schedule(_swap_slice(True)), "layer 0: slice: True has the wrong type"),
        (_edited_schedule(_kind_list), "layer 0: kind: ['swap'] has the wrong type"),
        (_edited_schedule(_ledger_layers), "ledger layer: 'x' has the wrong type"),
        (_edited_schedule(_device_size), "num_physical 100, device has 6"),
        (_edited_schedule(_cx_mid_flight), "layer 1: SWAP on (0, 1) went missing mid-flight"),
        (_edited_schedule(_renumbered_mapping_keys), "initial_mapping: the logical qubit keys are not 0..5"),
        (_edited_schedule(_slice_on_cx), "layer 3: a cx op has a SWAP slice"),
        (_edited_schedule(_op_param("NaN")), "layer 0: param nan is not finite"),
        (_edited_schedule(_op_param("1e309")), "layer 0: param inf is not finite"),
        (_hardware_field("edges", 5), "error: edges: expected a JSON array, got 5"),
        (_hardware_field("crosstalk", 5), "error: crosstalk: expected a JSON array, got 5"),
        (_hardware_field("edge_error", [0.01]), "error: edge_error: expected a JSON object"),
        (_hardware_field("t1", [50.0]), "error: t1: expected a JSON object, got [50.0]"),
        (_hardware_field("single_qubit_error", "x"), "error: single_qubit_error: expected a JSON"),
        (_hardware_field("num_qubits", 10**12), "error: 6 edges cannot connect 1000000000000 qubits"),
        (_hardware_field("t1", 0), "error: t1: expected a JSON object, got 0"),
        (_hardware_field("t2", []), "error: t2: expected a JSON object, got []"),
        (_hardware_field("edge_error", ""), "error: edge_error: expected a JSON object, got ''"),
        (_hardware_field("crosstalk", 0), "error: crosstalk: expected a JSON array, got 0"),
        (
            _hardware_field("single_qubit_error", False),
            "error: single_qubit_error: expected a JSON object, got False",
        ),
        # a JSON value that is not a number of the field's kind is not read as one
        (_hardware_field("num_qubits", 6.7), "error: num_qubits: expected an integer, got 6.7"),
        (_hardware_field("num_qubits", "6"), "error: num_qubits: expected an integer, got '6'"),
        (_hardware_edit(_fractional_edge), "error: edges: expected an integer, got 0.4"),
        # a qubit table names only the device's qubits, each once; an edge rate is given once
        (_table_entry("_t1_qubit_99", "t1", "99", 50), "error: t1['99']: qubit 99 is not on the 6-qubit"),
        (_table_entry("_t1_qubit_minus_1", "t1", "-1", 50), "error: t1['-1']: qubit -1 is not on the"),
        (_table_entry("_t2_qubit_6", "t2", "6", 70), "error: t2['6']: qubit 6 is not on the 6-qubit"),
        (
            _table_entry("_single_qubit_error_qubit_6", "single_qubit_error", "6", 0.001),
            "error: single_qubit_error['6']: qubit 6 is not on the 6-qubit device",
        ),
        (_table_entry("_t1_qubit_1_twice", "t1", " 1", 60), "error: t1[' 1']: qubit 1 is given twice"),
        (_table_entry("_t2_qubit_0_twice", "t2", "00", 70), "error: t2['00']: qubit 0 is given twice"),
        (
            _table_entry("_single_qubit_error_qubit_5_twice", "single_qubit_error", "+5", 0.001),
            "error: single_qubit_error['+5']: qubit 5 is given twice",
        ),
        (
            _table_entry("_edge_error_1_0_twice", "edge_error", "1-0", 0.01),
            "error: edge_error['1-0']: edge (0, 1) is given twice",
        ),
        (_hardware_field("gate_time_cx", True), "error: gate_time_cx: expected a number, got True"),
        (
            _hardware_edit(_string_conditional_rate),
            "error: crosstalk e1_given_e2: expected a number, got '0.05'",
        ),
        # a record is priced at load, so both of its links need an isolated rate
        (
            _hardware_edit(_unrated_crosstalk_link),
            "error: crosstalk record (0, 1) / (3, 4): missing error rate for edge (3, 4)",
        ),
    ],
)
def test_bad_documents_are_usage_errors(paths, capsys, make_argv, message):
    argv = make_argv(*paths)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert message in err


def test_missing_file_is_a_usage_error(paths, capsys):
    _, hw, _ = paths
    assert main(["compile", "-c", "/nonexistent/x.txt", "-H", hw]) == 2
    assert main(["compile", "-c", "/nonexistent/x.txt", "-H", "/nonexistent/h.json"]) == 2
    capsys.readouterr()


def test_bad_hardware_is_a_usage_error(paths, tmp_path, capsys):
    _, _, circ = paths
    bad = tmp_path / "bad_hw.json"
    bad.write_text(json.dumps({"num_qubits": 2, "edges": [[0, 1]], "surprise": 1}))
    assert main(["compile", "-c", circ, "-H", str(bad)]) == 2
    capsys.readouterr()


def test_bad_circuit_is_a_usage_error(paths, tmp_path, capsys):
    _, hw, _ = paths
    bad = tmp_path / "bad.txt"
    bad.write_text("qubits 6\nteleport 0 1\n")
    assert main(["compile", "-c", str(bad), "-H", hw]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--allowance", "-1"],
        ["compile", "--allowance", "nan"],
        ["vqe-synth", "-a", "-0.5"],
        ["search", "--steps", "0"],
        ["search", "--steps", "-1"],
        ["jw-encode", "--modes", "0"],
        ["jw-encode", "-n", "-2"],
        ["vqe-synth", "--w1", "0"],
        ["vqe-synth", "--w2", "1.5"],
        ["vqe-synth", "--w1", "nan"],
    ],
)
def test_bad_numeric_options_are_usage_errors(paths, capsys, argv):
    tmp, hw, circ = paths
    pauli = tmp / "zz.txt"
    pauli.write_text("0.5 ZZZIII\n")
    ferm = tmp / "h2.txt"
    ferm.write_text(fixture_text("h2_fermion.txt"))
    workload = {
        "vqe-synth": ["-p", str(pauli), "-H", hw],
        "jw-encode": ["-f", str(ferm)],
    }.get(argv[0], ["-c", circ, "-H", hw])
    with pytest.raises(SystemExit) as exc:
        main(argv + workload)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert any(line.startswith(f"chromaroute {argv[0]}: error: argument") for line in err.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "-c", "wide.txt"],
        ["compile", "--baseline", "-c", "wide.txt"],
        ["compile", "-p", "wide_pauli.txt"],
        ["vqe-synth", "-p", "wide_pauli.txt"],
        ["search", "-c", "wide.txt"],
        ["search", "-p", "wide_pauli.txt"],
    ],
)
def test_program_wider_than_device_is_a_usage_error(tmp_path, capsys, argv):
    # ring6 has six qubits; a three-local string keeps the Pauli program
    # off the two-local gate path in compile and search.
    hw = tmp_path / "ring6.json"
    hw.write_text(fixture_text("ring6.json"))
    (tmp_path / "wide.txt").write_text("qubits 7\ncx 0 6\n")
    (tmp_path / "wide_pauli.txt").write_text("0.5 ZZZIIII\n")
    args = [str(tmp_path / a) if a.startswith("wide") else a for a in argv]
    assert main(args + ["-H", str(hw)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: program needs 7 qubits, device has 6"]


def test_stall_exit_code(paths, capsys, monkeypatch):
    _, hw, circ = paths
    import chromaroute.cli as cli

    def stall(*args, **kwargs):
        raise StallError("forced for the test")

    monkeypatch.setattr(cli, "compile_circuit", stall)
    assert main(["compile", "-c", circ, "-H", hw]) == 3
    capsys.readouterr()


def test_verification_exit_code(paths, capsys, monkeypatch):
    _, hw, circ = paths
    import chromaroute.cli as cli

    def broken(*args, **kwargs):
        raise VerificationError("forced for the test")

    monkeypatch.setattr(cli, "verify_routing", broken)
    assert main(["compile", "-c", circ, "-H", hw]) == 4
    capsys.readouterr()


def _console_script_wrapper(tmp_path, name):
    """Write the wrapper pip generates for the ``[project.scripts]`` entry ``name``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = target.split(":")
    script = tmp_path / name
    script.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")
    return script


def test_console_script_runs(paths):
    tmp, hw, circ = paths
    script = _console_script_wrapper(tmp, "chromaroute")
    # Run the tree under test, not whatever copy an install may have left behind.
    env = dict(os.environ)
    src = str(Path(chromaroute.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, str(script), *args],
            capture_output=True,
            text=True,
            cwd=tmp,
            env=env,
        )

    proc = run("compile", "-c", circ, "-H", hw, "-a", "0.004")
    assert proc.returncode == 0, proc.stderr
    assert read_schedule(proc.stdout).depth_cx == 4

    # main's return value must become the exit code of the process.
    proc = run("compile", "-c", str(tmp / "missing.txt"), "-H", hw)
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


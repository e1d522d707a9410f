import pytest

from chromaroute import (
    Gate,
    LogicalCircuit,
    ParseError,
    PauliProgram,
    PauliString,
    parse_circuit,
    parse_pauli_program,
    serialize_circuit,
    serialize_pauli_program,
)
from chromaroute.ir import frontier


def test_parse_simple_circuit():
    circ = parse_circuit("qubits 3\ncx 0 1\ncx 1 2\n")
    assert circ.num_qubits == 3
    assert len(circ.gates) == 2
    assert circ.gates[0].kind == "cx"
    assert circ.gates[0].qubits == (0, 1)
    assert circ.gates[1].qubits == (1, 2)


def test_parse_all_gate_kinds():
    text = "qubits 4\nu h 0\ncx 0 1\nrzz 0.5 1 2\nswap 2 3\n"
    circ = parse_circuit(text)
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["u", "cx", "rzz", "swap"]
    assert circ.gates[0].label == "h"
    assert circ.gates[2].param == 0.5
    assert circ.gates[3].qubits == (2, 3)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nqubits 2  # trailing\ncx 0 1\n\n# done\n"
    circ = parse_circuit(text)
    assert circ.num_qubits == 2
    assert len(circ.gates) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        parse_circuit("cx 0 1\n")
    with pytest.raises(ParseError) as exc:
        parse_circuit("qubits 2\nfrobnicate 0 1\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\ncx 0 5\n")
    with pytest.raises(ParseError):
        parse_circuit("qubits 0\n")
    with pytest.raises(ParseError):
        parse_circuit("")
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\ncx 0 0\n")
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\ncx 0\n")
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\nrzz x 0 1\n")


def test_circuit_roundtrip():
    text = "qubits 4\nu h 0\ncx 0 1\nrzz 0.5 1 2\nswap 2 3\n"
    circ = parse_circuit(text)
    again = parse_circuit(serialize_circuit(circ))
    assert [g.kind for g in again.gates] == [g.kind for g in circ.gates]
    assert [g.qubits for g in again.gates] == [g.qubits for g in circ.gates]
    assert again.gates[2].param == 0.5


def test_dag_edges_follow_qubit_use():
    circ = parse_circuit("qubits 3\ncx 0 1\ncx 1 2\ncx 0 2\n")
    assert circ.predecessors[0] == set()
    assert circ.predecessors[1] == {0}
    assert circ.predecessors[2] == {0, 1}
    assert circ.successors[0] == {1, 2}


def test_criticality_longest_path():
    circ = parse_circuit("qubits 3\ncx 0 1\ncx 1 2\ncx 0 2\n")
    crit = circ.criticality()
    assert crit == {0: 2, 1: 1, 2: 0}


def test_frontier_respects_dependences():
    circ = parse_circuit("qubits 4\ncx 0 1\ncx 2 3\ncx 1 2\n")
    ready = frontier(circ, set())
    assert [g.gate_id for g in ready] == [0, 1]
    ready = frontier(circ, {0})
    assert [g.gate_id for g in ready] == [1]
    ready = frontier(circ, {0, 1})
    assert [g.gate_id for g in ready] == [2]
    assert frontier(circ, {0, 1, 2}) == []


def test_frontier_rejects_non_closed_executed_set():
    circ = parse_circuit("qubits 3\ncx 0 1\ncx 1 2\n")
    with pytest.raises(ParseError):
        frontier(circ, {1})
    with pytest.raises(ParseError):
        frontier(circ, {99})


def test_gate_validation():
    with pytest.raises(ParseError):
        Gate(0, "cx", (1,))
    with pytest.raises(ParseError):
        Gate(0, "u", (1, 2))
    with pytest.raises(ParseError):
        Gate(0, "nope", (0, 1))
    with pytest.raises(ParseError):
        LogicalCircuit(0, [])


@pytest.mark.parametrize(
    "gates",
    [
        [Gate(5, "cx", (0, 1))],
        [Gate(1, "cx", (0, 1)), Gate(0, "cx", (1, 2))],
        [Gate(0, "cx", (0, 1)), Gate(0, "cx", (1, 2))],
    ],
)
def test_gate_ids_must_be_positions(gates):
    # the compiler looks gates up by id as a position: any other id is bad input
    with pytest.raises(ParseError, match="must be its position"):
        LogicalCircuit(3, gates)


def test_parse_pauli_program():
    prog = parse_pauli_program("0.25 ZZIZ\n-0.5 XIXI\n")
    assert prog.num_qubits == 4
    assert len(prog.strings) == 2
    assert prog.strings[0].operators == "ZZIZ"
    assert prog.strings[0].coefficient == 0.25
    assert prog.strings[1].coefficient == -0.5


def test_pauli_program_lowercase_and_comments():
    prog = parse_pauli_program("# h\n0.5 zzii\n")
    assert prog.strings[0].operators == "ZZII"


def test_pauli_program_errors():
    with pytest.raises(ParseError):
        parse_pauli_program("")
    with pytest.raises(ParseError):
        parse_pauli_program("0.5 ZZ\n0.5 ZZZ\n")
    with pytest.raises(ParseError):
        parse_pauli_program("0.5 ZQ\n")
    with pytest.raises(ParseError):
        parse_pauli_program("abc ZZ\n")
    with pytest.raises(ParseError):
        parse_pauli_program("0.5\n")


def test_pauli_string_properties():
    s = PauliString("ZIZI", 0.5)
    assert s.num_qubits == 4
    assert s.non_identity() == (0, 2)


def test_program_two_local_flag():
    assert parse_pauli_program("0.5 ZZII\n0.5 IXXI\n").all_two_local
    assert PauliProgram(4, [PauliString("ZIZI", 0.5)]).all_two_local
    assert not parse_pauli_program("0.5 ZZZI\n").all_two_local
    assert not PauliProgram(4, [PauliString("IIII", 1.0)]).all_two_local


def test_pauli_roundtrip():
    prog = parse_pauli_program("0.25 ZZIZZII\n-0.125 XYIIIIZ\n")
    again = parse_pauli_program(serialize_pauli_program(prog))
    assert [s.operators for s in again.strings] == ["ZZIZZII", "XYIIIIZ"]
    assert [s.coefficient for s in again.strings] == [0.25, -0.125]


def test_program_width_mismatch_rejected():
    with pytest.raises(ParseError):
        PauliProgram(3, [PauliString("ZZ", 1.0)])

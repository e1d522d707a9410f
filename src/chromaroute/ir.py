"""Logical circuit and Pauli-program intermediate representation.

Two program families are handled by the toolkit: plain gate lists with data
dependencies (``LogicalCircuit``) and variational programs given as weighted
Pauli strings (``PauliProgram``).  Both come with line-oriented text formats,
see ``parse_circuit`` and ``parse_pauli_program``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParseError

# Gate kinds understood by the scheduler, with their qubit counts.  "u" is an
# opaque single-qubit gate carrying a free-form label; it never constrains
# routing, only the DAG.
GATE_ARITY = {"u": 1, "cx": 2, "rzz": 2, "swap": 2}


@dataclass(frozen=True)
class Gate:
    """One gate of a logical circuit.

    ``gate_id`` is the position of the gate in program order and doubles as
    the DAG node id.  ``qubits`` are logical indices.
    """

    gate_id: int
    kind: str
    qubits: tuple[int, ...]
    param: float | None = None
    label: str | None = None

    def __post_init__(self):
        arity = GATE_ARITY.get(self.kind)
        if arity is None:
            raise ParseError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ParseError(f"{self.kind} expects {arity} qubit(s), got {len(self.qubits)}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ParseError(f"gate {self.gate_id}: repeated qubit operand")


def parse_finite(text: str, what: str, lineno: int) -> float:
    """``float(text)`` for a program line; NaN, infinities and literals too
    large for a float are rejected with the line number, like bad text."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"bad {what} ({exc})", lineno) from exc
    if not math.isfinite(value):
        raise ParseError(f"{what} must be a finite number, got {text!r}", lineno)
    return value


def program_lines(text: str):
    """``(lineno, tokens)`` for each line of a text format that still has a
    token once its ``#`` comment is cut; blank and comment lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


class LogicalCircuit:
    """Gate list over ``num_qubits`` logical qubits plus its dependence DAG.

    The DAG has an edge g -> h when h uses a qubit last written by g; a gate
    may only execute once all its predecessors have executed.
    """

    def __init__(self, num_qubits: int, gates: list[Gate]):
        if num_qubits <= 0:
            raise ParseError("circuit needs a positive qubit count")
        for i, g in enumerate(gates):
            if g.gate_id != i:
                raise ParseError(f"gate {g.gate_id} at position {i}: a gate's id must be its position")
            for q in g.qubits:
                if not 0 <= q < num_qubits:
                    raise ParseError(f"gate {g.gate_id}: qubit {q} out of range 0..{num_qubits - 1}")
        self.num_qubits = num_qubits
        self.gates = list(gates)
        self.predecessors: dict[int, set[int]] = {g.gate_id: set() for g in gates}
        self.successors: dict[int, set[int]] = {g.gate_id: set() for g in gates}
        last_on_qubit: dict[int, int] = {}
        for g in gates:
            for q in g.qubits:
                if q in last_on_qubit:
                    prev = last_on_qubit[q]
                    self.predecessors[g.gate_id].add(prev)
                    self.successors[prev].add(g.gate_id)
                last_on_qubit[q] = g.gate_id

    def criticality(self) -> dict[int, int]:
        """Longest path (in edges) from each gate to any DAG sink."""
        out: dict[int, int] = {}
        for g in reversed(self.gates):
            succ = self.successors[g.gate_id]
            out[g.gate_id] = 0 if not succ else 1 + max(out[s] for s in succ)
        return out


def frontier(circuit: LogicalCircuit, executed: set[int]) -> list[Gate]:
    """Gates whose predecessors are all executed, sorted by gate id.

    ``executed`` must be dependence-closed: it may not contain a gate whose
    predecessor is missing.
    """
    for gid in executed:
        if gid not in circuit.predecessors:
            raise ParseError(f"executed set references unknown gate {gid}")
        missing = circuit.predecessors[gid] - executed
        if missing:
            raise ParseError(
                f"executed set is not dependence-closed: gate {gid} "
                f"executed before {sorted(missing)}"
            )
    ready = [
        g
        for g in circuit.gates
        if g.gate_id not in executed and circuit.predecessors[g.gate_id] <= executed
    ]
    return sorted(ready, key=lambda g: g.gate_id)


def parse_circuit(text: str) -> LogicalCircuit:
    """Parse the circuit text format.

    First non-comment line is ``qubits N``; the rest are one gate per line:
    ``cx a b``, ``swap a b``, ``rzz theta a b`` or ``u label q``.  ``#``
    starts a comment.
    """
    num_qubits = None
    gates: list[Gate] = []
    for lineno, parts in program_lines(text):
        op = parts[0].lower()
        try:
            if num_qubits is None:
                if op != "qubits":
                    raise ParseError("expected 'qubits N' header", lineno)
                if len(parts) != 2:
                    raise ParseError("'qubits' takes one argument", lineno)
                num_qubits = int(parts[1])
                if num_qubits <= 0:
                    raise ParseError("qubit count must be positive", lineno)
                continue
            gid = len(gates)
            if op in ("cx", "swap"):
                if len(parts) != 3:
                    raise ParseError(f"'{op}' takes two qubit arguments", lineno)
                gates.append(Gate(gid, op, (int(parts[1]), int(parts[2]))))
            elif op == "rzz":
                if len(parts) != 4:
                    raise ParseError("'rzz' takes theta and two qubits", lineno)
                theta = parse_finite(parts[1], "rzz angle", lineno)
                gates.append(Gate(gid, "rzz", (int(parts[2]), int(parts[3])), param=theta))
            elif op == "u":
                if len(parts) != 3:
                    raise ParseError("'u' takes a label and one qubit", lineno)
                gates.append(Gate(gid, "u", (int(parts[2]),), label=parts[1]))
            else:
                raise ParseError(f"unknown operation {op!r}", lineno)
        except ValueError as exc:
            raise ParseError(f"bad numeric literal ({exc})", lineno) from exc
        except ParseError as exc:
            if exc.line is None:
                raise ParseError(str(exc), lineno) from None
            raise
    if num_qubits is None:
        raise ParseError("empty input: missing 'qubits N' header")
    return LogicalCircuit(num_qubits, gates)


def serialize_circuit(circuit: LogicalCircuit) -> str:
    lines = [f"qubits {circuit.num_qubits}"]
    for g in circuit.gates:
        if g.kind == "u":
            lines.append(f"u {g.label} {g.qubits[0]}")
        elif g.kind == "rzz":
            lines.append(f"rzz {g.param!r} {g.qubits[0]} {g.qubits[1]}")
        else:
            lines.append(f"{g.kind} {g.qubits[0]} {g.qubits[1]}")
    return "\n".join(lines) + "\n"


PAULI_OPS = "IXYZ"

# Basis-change labels used when Pauli strings are lowered to gates: an X
# axis is reached through h, a Y axis through a quarter x-rotation (undone
# by the matching rxm90 on the way back).  Z needs nothing.
PAULI_PRE_LABEL = {"X": "h", "Y": "rx90"}
PAULI_POST_LABEL = {"X": "h", "Y": "rxm90"}


@dataclass(frozen=True)
class PauliString:
    """A weighted Pauli operator, e.g. ``0.5 * ZZIZ``."""

    operators: str
    coefficient: float

    def __post_init__(self):
        if not self.operators:
            raise ParseError("empty Pauli operator string")
        bad = set(self.operators) - set(PAULI_OPS)
        if bad:
            raise ParseError(f"invalid Pauli operator(s) {sorted(bad)}")

    @property
    def num_qubits(self) -> int:
        return len(self.operators)

    def non_identity(self) -> tuple[int, ...]:
        return tuple(i for i, op in enumerate(self.operators) if op != "I")


@dataclass
class PauliProgram:
    """Sequence of Pauli strings over a common qubit count."""

    num_qubits: int
    strings: list[PauliString] = field(default_factory=list)

    def __post_init__(self):
        for s in self.strings:
            if s.num_qubits != self.num_qubits:
                raise ParseError(
                    f"Pauli string length {s.num_qubits} != program width {self.num_qubits}"
                )

    @property
    def all_two_local(self) -> bool:
        return all(len(s.non_identity()) == 2 for s in self.strings)


def parse_pauli_program(text: str) -> PauliProgram:
    """Parse ``coefficient OPSTRING`` lines into a PauliProgram."""
    strings: list[PauliString] = []
    width = None
    for lineno, parts in program_lines(text):
        if len(parts) != 2:
            raise ParseError("expected 'coefficient OPSTRING'", lineno)
        coeff = parse_finite(parts[0], "coefficient", lineno)
        ops = parts[1].upper()
        try:
            ps = PauliString(ops, coeff)
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        if width is None:
            width = ps.num_qubits
        elif ps.num_qubits != width:
            raise ParseError(f"string length {ps.num_qubits} != first string length {width}", lineno)
        strings.append(ps)
    if width is None:
        raise ParseError("empty Pauli program")
    return PauliProgram(width, strings)


def serialize_pauli_program(program: PauliProgram) -> str:
    return "\n".join(f"{s.coefficient!r} {s.operators}" for s in program.strings) + "\n"

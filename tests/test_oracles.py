"""Every schedule the three loops emit implements its source program.

``perfbench/oracles.py`` replays a schedule with its own placement arrays
(a circuit) or a GF(2) parity map (a Pauli program) and imports nothing of
chromaroute, so it asks what ``verify_routing`` cannot: does the schedule
run the circuit's gates in each qubit's order on the right qubits, and
does each ``rz`` act on exactly its string's parity?  The cases are the
fixture devices and seeded grids drawn by the benchmark's own generators,
at the allowances 0, 0.05 and infinity.  The oracles read the schedule
JSON as the CLI writes it, with string mapping keys.
"""

import json
import math
import os
import sys
from random import Random

import pytest

from chromaroute import (
    baseline_schedule,
    compile_circuit,
    load_hardware,
    parse_circuit,
    parse_pauli_program,
    synthesize,
)
from chromaroute.fixtures import fixture_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from corpus import grid_device, random_circuit, random_pauli_program  # noqa: E402
from oracles import check_circuit_schedule, check_pauli_schedule  # noqa: E402

ALLOWANCES = (0.0, 0.05, math.inf)
FIXTURE_DEVICES = ("ring6", "ring6_cross", "ring6_cross_hot", "tree7", "grid6")


def fixture_case(device: str, allowance: float):
    """(device document, circuit text, Pauli program text, allowance); the
    seven-qubit tree gets the seven-wide string."""
    pauli = "zz_string.txt" if device == "tree7" else "chain_pair.txt"
    hw_doc = json.loads(fixture_text(f"{device}.json"))
    return hw_doc, fixture_text("pair_circuit.txt"), fixture_text(pauli), allowance


def seeded_case(seed: int):
    """A 3x3 or 4x4 grid with a 20-60 gate circuit and a 2-6 string program."""
    rng = Random(f"oracle:{seed}")
    side = 3 + seed % 2
    n = side * side
    hw_doc = grid_device(rng, side)
    circuit = random_circuit(rng, n, rng.randint(20, 60))
    pauli = random_pauli_program(rng, n, rng.randint(2, 6), 2, 5)
    return hw_doc, circuit, pauli, ALLOWANCES[seed % 3]


CASES = {f"{d}-{a}": (fixture_case, (d, a)) for d in FIXTURE_DEVICES for a in ALLOWANCES}
CASES.update({f"seed{k}": (seeded_case, (k,)) for k in range(20)})


def as_read_back(sched) -> dict:
    return json.loads(json.dumps(sched.to_json_dict()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_loop_implements_its_program(case):
    make, args = CASES[case]
    hw_doc, circuit_text, pauli_text, allowance = make(*args)
    hw, prof = load_hardware(hw_doc)
    circuit = parse_circuit(circuit_text)
    check_circuit_schedule(
        circuit_text, hw_doc, as_read_back(compile_circuit(circuit, hw, prof, allowance=allowance))
    )
    check_circuit_schedule(circuit_text, hw_doc, as_read_back(baseline_schedule(circuit, hw, prof)))
    program = parse_pauli_program(pauli_text)
    check_pauli_schedule(
        pauli_text, hw_doc, as_read_back(synthesize(program, hw, prof, allowance=allowance))
    )

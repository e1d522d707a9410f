"""Every schedule the three loops emit implements its source program.

``perfbench/oracles.py`` replays a schedule with its own placement arrays
(a circuit) or a GF(2) parity map (a Pauli program) and imports nothing of
chromaroute, so it asks what ``verify_routing`` cannot: does the schedule
run the circuit's gates in each qubit's order on the right qubits, and
does each ``rz`` act on exactly its string's parity?  The cases are the
fixture devices, seeded grids drawn by the benchmark's own generators, and
seeded heavy-hex, line, ring, random-tree and sparse random devices, where
crosstalk partners lie otherwise than on a grid, at the allowances 0, 0.05
and infinity.  The oracles read the schedule JSON as the CLI writes it,
with string mapping keys.
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


# the 16-qubit heavy-hex of ibmq_guadalupe (Falcon r4P)
HEAVY_HEX = [(0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7)]
HEAVY_HEX += [(7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14)]
SHAPES = ("heavyhex", "line", "ring", "tree", "sparse")


def coupling(rng: Random, shape: str) -> tuple[int, list[tuple[int, int]]]:
    """Qubit count and links of a device of ``shape``; ``sparse`` is a
    random tree with about n/3 more links."""
    if shape == "heavyhex":
        return 16, HEAVY_HEX
    if shape in ("line", "ring"):
        n = rng.randint(5, 10)
        return n, [(q, q + 1) for q in range(n - 1)] + ([(0, n - 1)] if shape == "ring" else [])
    n = rng.randint(6, 12)
    edges = {(rng.randrange(q), q) for q in range(1, n)}
    while shape == "sparse" and len(edges) < n - 1 + n // 3:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return n, sorted(edges)


def shaped_device(rng: Random, shape: str) -> dict:
    """``grid_device``'s tables on a device of ``shape``: isolated link
    errors, T1/T2 and single-qubit errors, and crosstalk records, inflated
    1.5-4x, on about half of the disjoint link pairs that a link joins."""
    n, edges = coupling(rng, shape)
    edge_error = {e: round(rng.uniform(0.005, 0.02), 6) for e in edges}
    t1 = {q: round(rng.uniform(4000.0, 8000.0), 1) for q in range(n)}
    t2 = {q: round(min(2.0 * t1[q], t1[q] * rng.uniform(0.5, 1.5)), 1) for q in range(n)}
    records = []
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1 :]:
            near = any((min(a, b), max(a, b)) in edge_error for a in e1 for b in e2)
            if set(e1) & set(e2) or not near or rng.random() >= 0.5:
                continue
            records.append(
                {
                    "e1": list(e1),
                    "e2": list(e2),
                    "e1_given_e2": round(edge_error[e1] * rng.uniform(1.5, 4.0), 6),
                    "e2_given_e1": round(edge_error[e2] * rng.uniform(1.5, 4.0), 6),
                }
            )
    return {
        "num_qubits": n,
        "edges": [list(e) for e in edges],
        "edge_error": {f"{a}-{b}": v for (a, b), v in edge_error.items()},
        "t1": {str(q): v for q, v in t1.items()},
        "t2": {str(q): v for q, v in t2.items()},
        "single_qubit_error": {str(q): round(rng.uniform(0.0002, 0.002), 6) for q in range(n)},
        "gate_time_cx": 1.0,
        "crosstalk": records,
    }


def shaped_case(shape: str, k: int, allowance: float):
    """A device of ``shape`` with a 20-60 gate circuit and a 2-6 string
    program; the allowance does not change what is drawn."""
    rng = Random(f"oracle:{shape}:{k}")
    hw_doc = shaped_device(rng, shape)
    n = hw_doc["num_qubits"]
    circuit = random_circuit(rng, n, rng.randint(20, 60))
    pauli = random_pauli_program(rng, n, rng.randint(2, 6), 2, 5)
    return hw_doc, circuit, pauli, allowance


CASES = {f"{d}-{a}": (fixture_case, (d, a)) for d in FIXTURE_DEVICES for a in ALLOWANCES}
CASES.update({f"seed{k}": (seeded_case, (k,)) for k in range(20)})
CASES.update(
    {f"{s}-seed{k}-{a}": (shaped_case, (s, k, a)) for s in SHAPES for k in range(10) for a in ALLOWANCES}
)


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

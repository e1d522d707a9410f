"""A schedule depends on the device's numbers only through the prices the
scheduler compares.

Scaling every link rate (each ``edge_error`` and both conditional rates of
every crosstalk record) by a power of two scales every excess error, and
so every price, exactly.  Scaled with the allowance, it must leave each
compiler's ops and ledger pairs as they were, with each ledger excess
exactly 2**k times the original; the reference compiler takes no
allowance.  At 2**-40 every pair is priced below 1e-12, so an absolute
slack in an allowance test shows there as crosstalk bought at allowance 0.
T1, T2 and single-qubit errors are priced only by the ESP: changing them
must leave every schedule unchanged.  Devices and programs are drawn by the
benchmark's own generators, as in ``tests/test_oracles.py``.

The Jordan-Wigner encoding is scale-free too: scaling every fermion
coefficient by 2**k scales each Pauli weight by exactly 2**k and keeps
every string.
"""

import json
import math
import os
import sys
from random import Random

import pytest

from chromaroute import (
    FermionTerm,
    baseline_schedule,
    compile_circuit,
    jw_encode,
    load_hardware,
    parse_circuit,
    parse_fermion_terms,
    parse_pauli_program,
    synthesize,
)
from chromaroute.fixtures import fixture_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from corpus import build_corpus, grid_device, random_circuit, random_pauli_program  # noqa: E402

SEEDS = range(12)
ALLOWANCES = (0.0, 0.05, math.inf)
EXPONENTS = (-40, -1, 1)


def seeded_case(seed: int):
    """(device document, circuit text, Pauli program text): a 3x3 or 4x4
    grid with a 20-60 gate circuit and a 2-6 string program."""
    rng = Random(f"meta:{seed}")
    side = 3 + seed % 2
    n = side * side
    hw_doc = grid_device(rng, side)
    circuit = random_circuit(rng, n, rng.randint(20, 60))
    pauli = random_pauli_program(rng, n, rng.randint(2, 6), 2, 5)
    return hw_doc, circuit, pauli


def scaled_rates(hw_doc: dict, factor: float) -> dict:
    """``hw_doc`` with every isolated and conditional link rate times ``factor``."""
    doc = json.loads(json.dumps(hw_doc))
    doc["edge_error"] = {edge: rate * factor for edge, rate in doc["edge_error"].items()}
    for rec in doc["crosstalk"]:
        rec["e1_given_e2"] *= factor
        rec["e2_given_e1"] *= factor
    return doc


def schedules(hw_doc: dict, circuit_text: str, pauli_text: str, allowance: float) -> dict:
    """Each compiler's schedule of the case on ``hw_doc``."""
    hw, prof = load_hardware(hw_doc)
    circuit = parse_circuit(circuit_text)
    return {
        "compile": compile_circuit(circuit, hw, prof, allowance=allowance),
        "baseline": baseline_schedule(circuit, hw, prof),
        "synthesize": synthesize(parse_pauli_program(pauli_text), hw, prof, allowance=allowance),
    }


def ops(sched) -> dict:
    doc = sched.to_json_dict()
    del doc["crosstalk_ledger"]
    return doc


@pytest.mark.parametrize("allowance", ALLOWANCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_the_rates_and_the_allowance_scales_only_the_ledger(seed, allowance):
    hw_doc, circuit, pauli = seeded_case(seed)
    original = schedules(hw_doc, circuit, pauli, allowance)
    for k in EXPONENTS:
        factor = 2.0**k
        scaled = schedules(scaled_rates(hw_doc, factor), circuit, pauli, allowance * factor)
        for name, sched in scaled.items():
            want = original[name]
            assert ops(sched) == ops(want), (name, k)
            assert [(e.layer, e.edges) for e in sched.crosstalk_ledger] == [
                (e.layer, e.edges) for e in want.crosstalk_ledger
            ], (name, k)
            assert [e.excess for e in sched.crosstalk_ledger] == [
                e.excess * factor for e in want.crosstalk_ledger
            ], (name, k)


@pytest.mark.parametrize("allowance", ALLOWANCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_coherence_and_single_qubit_errors_leave_schedules_alone(seed, allowance):
    hw_doc, circuit, pauli = seeded_case(seed)
    original = schedules(hw_doc, circuit, pauli, allowance)
    doc = json.loads(json.dumps(hw_doc))
    for table in ("t1", "t2"):
        doc[table] = {q: t * 0.1 for q, t in doc[table].items()}
    doc["single_qubit_error"] = {q: e * 3 for q, e in doc["single_qubit_error"].items()}
    changed = schedules(doc, circuit, pauli, allowance)
    for name, sched in changed.items():
        assert sched.to_json_dict() == original[name].to_json_dict(), name


FERMION_CASES = [("h2_fermion", fixture_text("h2_fermion.txt"))] + [
    (case.name, case.program) for case in build_corpus("synth-pauli", 1) if case.kind == "fermion"
]


@pytest.mark.parametrize("name,text", FERMION_CASES, ids=[name for name, _ in FERMION_CASES])
def test_scaling_every_fermion_coefficient_scales_only_the_encoding(name, text):
    terms = parse_fermion_terms(text)
    want = jw_encode(terms).strings
    assert want
    for k in (-60, -40, 40):
        factor = 2.0**k
        got = jw_encode([FermionTerm(t.coefficient * factor, t.ops) for t in terms]).strings
        assert [s.operators for s in got] == [s.operators for s in want], k
        assert [s.coefficient for s in got] == [s.coefficient * factor for s in want], k

"""Every scheduling loop finishes: the circuit compiler, the reference
compiler and Pauli-ladder synthesis on seeded random grids, each schedule
checked by ``verify_routing``.

The escape mode that makes a stuck loop finish lives in
``StallGuard.escape_swaps``.  A wrapper counts the calls that return SWAPs
rather than None, so each test also shows that the loops it runs really
escaped: a loop that never gets stuck would pass without the escape.
"""

import math
import random

import pytest

from chromaroute import Mapping, baseline_schedule, compile_circuit, synthesize, verify_routing
from chromaroute.scheduler import StallGuard
from test_indexed import grid_device, random_circuit, random_pauli_program

ALLOWANCES = (0.0, 0.05, math.inf)


@pytest.fixture
def escapes(monkeypatch):
    """Escaping iterations by loop: "compiler", "baseline" or "synthesis"
    (told apart by the prefix each loop gives its StallGuard)."""
    counts = {"compiler": 0, "baseline": 0, "synthesis": 0}
    escape_swaps = StallGuard.escape_swaps

    def counted(guard, *args, **kwargs):
        swaps = escape_swaps(guard, *args, **kwargs)
        if swaps is not None:
            if guard.prefix.startswith("baseline"):
                counts["baseline"] += 1
            elif guard.prefix.startswith("string"):
                counts["synthesis"] += 1
            else:
                counts["compiler"] += 1
        return swaps

    monkeypatch.setattr(StallGuard, "escape_swaps", counted)
    return counts


def test_every_loop_finishes_on_seeded_grids(escapes):
    # Synthesis rarely escapes on programs this small; this seed draws two
    # synthesis cases that do (a 5x4 grid at allowance 0, a 6x5 one at inf).
    rng = random.Random(10)
    for case in range(60):
        hw, prof = grid_device(rng.randint(2, 6), rng.randint(2, 6), rng)
        n = hw.num_qubits
        mapping = Mapping(n, n, rng.sample(range(n), n)) if case % 2 else None
        allowance = ALLOWANCES[case % 3]
        circuit = random_circuit(n, rng.randint(20, 120), rng)
        sched = compile_circuit(circuit, hw, prof, mapping, allowance=allowance)
        verify_routing(sched, hw, prof, circuit=circuit, allowance=allowance)
        sched = baseline_schedule(circuit, hw, prof, mapping)
        verify_routing(sched, hw, prof, circuit=circuit, allowance=0.0)
        program = random_pauli_program(n, rng.randint(2, 8), rng)
        sched = synthesize(program, hw, prof, mapping, allowance=allowance)
        verify_routing(sched, hw, prof, allowance=allowance)
    assert all(escapes.values()), escapes


def test_synthesis_finishes_at_unlimited_pair_allowance(escapes):
    rng = random.Random(3)
    hw, prof = grid_device(6, 6, rng)
    program = random_pauli_program(36, 16, rng)
    sched = synthesize(program, hw, prof, allowance=math.inf, allowance_units="pairs")
    verify_routing(sched, hw, prof, allowance=math.inf, allowance_units="pairs")
    assert escapes["synthesis"]

"""Every scheduling loop finishes: the circuit compiler, the reference
compiler and Pauli-ladder synthesis on seeded random grids, each schedule
checked by ``verify_routing``.

The escape mode that makes a stuck loop finish lives in
``StallGuard.escape_swaps``.  A wrapper counts the calls that return SWAPs
rather than None, so each test also shows that the loops it runs really
escaped: a loop that never gets stuck would pass without the escape.
"""

import hashlib
import json
import math
import random

import pytest

from chromaroute import (
    Mapping,
    SynthesisOptions,
    baseline_schedule,
    compile_circuit,
    synthesize,
    verify_routing,
)
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


# sha256 over every schedule JSON a loop emits in the seeded-grid fuzz, in
# case order.  A change that alters a schedule on purpose re-pins these;
# ``PYTHONPATH=src python tests/test_golden.py`` prints the current ones.
SEEDED_GRID_DIGESTS = {
    "compiler": "bada6181b972d5c6bc3c709ac569db9beb086ddbca7e613de0539905b0713ee6",
    "baseline": "1f4fbdeb306d3fabba202de274c4b8466609ff6a00f939e457c58c1ea9782c61",
    "synthesis": "725e20c5849c0f9463716824ce624ae39b9488a3ea6e2104cee5d8f16fa37ee1",
}


def seeded_grid_digests() -> dict[str, str]:
    """Run the seeded-grid fuzz: every schedule verified, and hashed per loop."""
    digests = {loop: hashlib.sha256() for loop in SEEDED_GRID_DIGESTS}

    def fold(loop, sched):
        digests[loop].update(json.dumps(sched.to_json_dict()).encode())

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
        fold("compiler", sched)
        sched = baseline_schedule(circuit, hw, prof, mapping)
        verify_routing(sched, hw, prof, circuit=circuit, allowance=0.0)
        fold("baseline", sched)
        program = random_pauli_program(n, rng.randint(2, 8), rng)
        sched = synthesize(program, hw, prof, mapping, allowance=allowance)
        verify_routing(sched, hw, prof, allowance=allowance)
        fold("synthesis", sched)
    return {loop: h.hexdigest() for loop, h in digests.items()}


def test_every_loop_finishes_on_seeded_grids(escapes):
    assert seeded_grid_digests() == SEEDED_GRID_DIGESTS
    assert all(escapes.values()), escapes


# sha256 over every schedule JSON ``synthesize`` emits under option sets the
# benchmark never uses, in case order; re-pinned the same way as above.
SYNTHESIS_OPTION_DIGESTS = {
    "no-lookahead": "78fc730146796c01bc75f3f9a156d4e56583a2c0e2b4a67cc7f2550bc14921a6",
    "w1=0.2,w2=1.0": "e1311876bd95908d03ffc1c18695a7118708d64294d124a1bd86225fceb4e95d",
}
SYNTHESIS_OPTIONS = {
    "no-lookahead": SynthesisOptions(lookahead=False),
    "w1=0.2,w2=1.0": SynthesisOptions(w1=0.2, w2=1.0),
}


def synthesis_option_digests() -> dict[str, str]:
    """Synthesize seeded Pauli programs under each of ``SYNTHESIS_OPTIONS``:
    every schedule verified, and hashed per option set."""
    digests = {name: hashlib.sha256() for name in SYNTHESIS_OPTIONS}
    rng = random.Random(16)
    for case in range(60):
        hw, prof = grid_device(rng.randint(2, 6), rng.randint(2, 6), rng)
        n = hw.num_qubits
        mapping = Mapping(n, n, rng.sample(range(n), n)) if case % 2 else None
        allowance = ALLOWANCES[case % 3]
        program = random_pauli_program(n, rng.randint(2, 8), rng)
        for name, options in SYNTHESIS_OPTIONS.items():
            sched = synthesize(program, hw, prof, mapping, allowance=allowance, options=options)
            verify_routing(sched, hw, prof, allowance=allowance)
            digests[name].update(json.dumps(sched.to_json_dict()).encode())
    return {name: h.hexdigest() for name, h in digests.items()}


def test_synthesis_option_sets_keep_their_schedules():
    assert synthesis_option_digests() == SYNTHESIS_OPTION_DIGESTS

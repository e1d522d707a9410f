"""Seeded input generator for the benchmark.

Every input is produced in the text or JSON format the ``chromaroute`` CLI
reads, so a case can be replayed by hand with the matching subcommand.  The
same seed gives byte-identical inputs: each case draws from its own
``random.Random`` seeded with a string, which does not depend on
``PYTHONHASHSEED``.

Write a corpus to disk with::

    python3 perfbench/corpus.py --seed 1 --out perfbench/out/corpus-1
"""

from __future__ import annotations

import argparse
import json
import math
import os
from dataclasses import dataclass
from random import Random

WORKLOADS = ("compile-grid", "synth-pauli", "search-allowance")

U_LABELS = ("h", "x", "sx", "t", "rx90")
PAULI_AXES = "XYZ"


@dataclass(frozen=True)
class Case:
    """One op's input.  ``kind`` names the format of ``program``:
    ``circuit`` (circuit text), ``pauli`` (Pauli program text) or
    ``fermion`` (fermion term text, encoded with ``jw_encode`` in the op)."""

    workload: str
    name: str
    hardware: str
    kind: str
    program: str
    allowance: float


def grid_device(rng: Random, side: int) -> dict:
    """A ``side`` x ``side`` grid with isolated link errors, T1/T2 and
    single-qubit errors on every qubit, and crosstalk records on about half
    of the link pairs at hop distance 1, inflated 1.5-4x."""
    n = side * side
    edges = []
    for r in range(side):
        for c in range(side):
            q = r * side + c
            if c + 1 < side:
                edges.append((q, q + 1))
            if r + 1 < side:
                edges.append((q, q + side))
    edge_error = {e: round(rng.uniform(0.005, 0.02), 6) for e in edges}
    t1 = {q: round(rng.uniform(4000.0, 8000.0), 1) for q in range(n)}
    t2 = {q: round(min(2.0 * t1[q], t1[q] * rng.uniform(0.5, 1.5)), 1) for q in range(n)}
    sqe = {q: round(rng.uniform(0.0002, 0.002), 6) for q in range(n)}
    adjacent = set(edges)
    records = []
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1 :]:
            if set(e1) & set(e2):
                continue
            near = any((min(a, b), max(a, b)) in adjacent for a in e1 for b in e2)
            if not near or rng.random() >= 0.5:
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
        "single_qubit_error": {str(q): v for q, v in sqe.items()},
        "gate_time_cx": 1.0,
        "crosstalk": records,
    }


def random_circuit(rng: Random, num_qubits: int, num_gates: int) -> str:
    """Circuit text of ``num_gates`` gates, about 30 % single-qubit ``u``
    and the rest ``cx`` or ``rzz`` on uniformly random qubit pairs."""
    lines = [f"qubits {num_qubits}"]
    for _ in range(num_gates):
        if rng.random() < 0.3:
            lines.append(f"u {rng.choice(U_LABELS)} {rng.randrange(num_qubits)}")
            continue
        a, b = rng.sample(range(num_qubits), 2)
        if rng.random() < 0.5:
            lines.append(f"cx {a} {b}")
        else:
            lines.append(f"rzz {round(rng.uniform(-math.pi, math.pi), 6)!r} {a} {b}")
    return "\n".join(lines) + "\n"


def random_pauli_program(rng: Random, width: int, num_strings: int, lo: int, hi: int) -> str:
    """Pauli program text: string i has ``lo + i % (hi - lo + 1)`` active
    qubits, so the seed draws which qubits and axes but not how many."""
    lines = []
    for i in range(num_strings):
        ops = ["I"] * width
        for q in rng.sample(range(width), lo + i % (hi - lo + 1)):
            ops[q] = rng.choice(PAULI_AXES)
        coeff = round(rng.uniform(-1.0, 1.0), 6)
        lines.append(f"{coeff!r} {''.join(ops)}")
    return "\n".join(lines) + "\n"


def random_fermion_hamiltonian(rng: Random, modes: int, hops: int, pairs: int, max_span: int) -> str:
    """Hermitian one- and two-body fermion terms.  Each hopping term
    ``p+ q-`` comes with its conjugate ``q+ p-``, with ``|p - q| <=
    max_span``; two-body terms are density-density ``p+ q+ q- p-``."""
    lines = [f"{round(rng.uniform(-1.5, -0.2), 6)!r} {p}+ {p}-" for p in range(modes)]
    for _ in range(hops):
        p = rng.randrange(modes - 1)
        q = rng.randint(p + 1, min(modes - 1, p + max_span))
        c = round(rng.uniform(-0.5, 0.5), 6)
        lines.append(f"{c!r} {p}+ {q}-")
        lines.append(f"{c!r} {q}+ {p}-")
    for _ in range(pairs):
        p, q = sorted(rng.sample(range(modes), 2))
        lines.append(f"{round(rng.uniform(0.1, 0.8), 6)!r} {p}+ {q}+ {q}- {p}-")
    return "\n".join(lines) + "\n"


def _hardware_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _pairs(shapes: tuple) -> tuple:
    """Two cases per (side, size) shape, the second 10 % larger."""
    return tuple(case for side, size in shapes for case in ((side, size), (side, round(size * 1.1))))


# Case shapes.  The seed draws the devices, gates and strings, never the
# shapes, so every seed costs about the same to run.  Many cases make the
# per-pass totals and the latency percentiles depend less on any one draw,
# and put the tail well above the median; no two share a size, so their
# latencies form an even ladder and the percentiles do not jump across gaps
# between clusters of equal cases.
COMPILE_SHAPES = _pairs(
    (
        (4, 100), (4, 120), (4, 150), (4, 200), (4, 250), (4, 300), (4, 400),
        (5, 100), (5, 120), (5, 150), (5, 200), (5, 300), (5, 400),
        (6, 100), (6, 120), (6, 150), (6, 200), (6, 300), (6, 450),
        (7, 100), (7, 120), (7, 150), (7, 200), (7, 400),
        (8, 100), (8, 120), (8, 150), (8, 200),
    )
) + ((8, 1000), (8, 2000))
# (side, strings) of random n-local programs with 3-10 active qubits.
PAULI_SHAPES = tuple((side, n) for side in (4, 5, 6) for n in range(8, 33, 2))
# (side, modes) of JW-encoded one- and two-body fermion Hamiltonians.
FERMION_SHAPES = tuple((side, modes) for side in (4, 5, 6) for modes in range(10, 17))
SEARCH_SHAPES = (
    tuple((3, g) for g in range(100, 300, 10))
    + tuple((4, g) for g in range(100, 180, 10))
    + ((5, 100), (5, 120))
)


def build_corpus(workload: str, seed: int) -> list[Case]:
    """The cases of one workload for ``seed``, in op order."""
    cases = []

    def rng_for(name: str) -> Random:
        return Random(f"{seed}:{workload}:{name}")

    def name_of(label: str) -> str:
        return f"{len(cases):02d}-{label}"

    if workload == "compile-grid":
        for i, (side, gates) in enumerate(COMPILE_SHAPES):
            name = name_of(f"grid{side}-g{gates}")
            rng = rng_for(name)
            hw = _hardware_text(grid_device(rng, side))
            prog = random_circuit(rng, side * side, gates)
            cases.append(Case(workload, name, hw, "circuit", prog, (0.0, 0.05)[i % 2]))
    elif workload == "synth-pauli":
        for i, (side, strings) in enumerate(PAULI_SHAPES):
            name = name_of(f"grid{side}-s{strings}")
            rng = rng_for(name)
            hw = _hardware_text(grid_device(rng, side))
            prog = random_pauli_program(rng, side * side, strings, 3, 10)
            cases.append(Case(workload, name, hw, "pauli", prog, (0.0, 0.05)[i % 2]))
        for i, (side, modes) in enumerate(FERMION_SHAPES):
            name = name_of(f"grid{side}-jw{modes}")
            rng = rng_for(name)
            hw = _hardware_text(grid_device(rng, side))
            prog = random_fermion_hamiltonian(rng, modes, 3 * modes, 3 * modes, 12)
            cases.append(Case(workload, name, hw, "fermion", prog, (0.0, 0.05)[i % 2]))
    elif workload == "search-allowance":
        for side, gates in SEARCH_SHAPES:
            name = name_of(f"grid{side}-g{gates}")
            rng = rng_for(name)
            hw = _hardware_text(grid_device(rng, side))
            prog = random_circuit(rng, side * side, gates)
            cases.append(Case(workload, name, hw, "circuit", prog, math.inf))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def write_corpus(seed: int, out_dir: str) -> list[str]:
    """Write every workload's inputs under ``out_dir`` in CLI formats;
    returns the paths written."""
    ext = {"circuit": "circ.txt", "pauli": "pauli.txt", "fermion": "fermion.txt"}
    written = []
    for workload in WORKLOADS:
        wdir = os.path.join(out_dir, workload)
        os.makedirs(wdir, exist_ok=True)
        for case in build_corpus(workload, seed):
            for suffix, text in (("hw.json", case.hardware), (ext[case.kind], case.program)):
                path = os.path.join(wdir, f"{case.name}.{suffix}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the corpus into")
    args = parser.parse_args(argv)
    paths = write_corpus(args.seed, args.out)
    print(f"wrote {len(paths)} files under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

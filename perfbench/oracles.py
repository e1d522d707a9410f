"""Output checks that share no code with the scheduler's mapping model.

``check_circuit_schedule`` follows logical qubits through the routing SWAPs
of a compiled schedule with its own placement arrays and checks that every
logical qubit sees exactly the gate sequence of the source circuit.
``check_pauli_schedule`` replays a synthesized schedule as a GF(2) parity
map: every ``rz`` must act on the parity of exactly its string's active
qubits, and every ladder must uncompute back to a permutation that ends as
the schedule's final mapping.  Both read the schedule JSON the op emitted,
the device JSON and the program text; neither imports chromaroute.

``log_esp`` recomputes the estimated success probability in log space from
the device's public accessors, so it stays finite where ``esp()``
underflows to 0.0.
"""

from __future__ import annotations

import math

# Basis-change labels of a Pauli string's pre and post layers: X goes
# through h, Y through a quarter x-rotation and back.
PRE_LABEL = {"X": "h", "Y": "rx90"}
POST_LABEL = {"X": "h", "Y": "rxm90"}
SWAP_SLICES = 3


class OracleError(Exception):
    """A schedule that does not implement its source program."""


def parse_circuit_text(text: str) -> tuple[int, list[tuple]]:
    """(qubit count, gates) of circuit text; a gate is (kind, qubits, arg)
    with ``arg`` the rzz angle or the u label."""
    num_qubits = None
    gates = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if num_qubits is None:
            num_qubits = int(parts[1])
        elif parts[0] == "u":
            gates.append(("u", (int(parts[2]),), parts[1]))
        elif parts[0] == "rzz":
            gates.append(("rzz", (int(parts[2]), int(parts[3])), float(parts[1])))
        else:
            gates.append((parts[0], (int(parts[1]), int(parts[2])), None))
    return num_qubits, gates


def parse_pauli_text(text: str) -> list[tuple[float, str]]:
    out = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts:
            out.append((float(parts[0]), parts[1].upper()))
    return out


def _placement(mapping: dict, num_logical: int) -> list[int]:
    if sorted(int(k) for k in mapping) != list(range(num_logical)):
        raise OracleError(f"mapping covers {sorted(mapping)}, expected 0..{num_logical - 1}")
    return [int(mapping[str(l)]) for l in range(num_logical)]


class _Device:
    def __init__(self, hw_doc: dict):
        self.num_qubits = int(hw_doc["num_qubits"])
        self.edges = {tuple(sorted((int(a), int(b)))) for a, b in hw_doc["edges"]}


class _SwapTracker:
    """SWAP slice bookkeeping: slices 1, 2, 3 on one edge in consecutive
    layers, nothing else on those qubits meanwhile (the caller checks
    exclusivity per layer)."""

    def __init__(self):
        self.open: dict[tuple[int, int], list] = {}  # edge -> [next slice, gate id]

    def see(self, li: int, op: dict) -> bool:
        """Record one swap slice; True when it starts a new SWAP."""
        edge = tuple(sorted(op["qubits"]))
        sl = op.get("slice")
        if sl == 1:
            if edge in self.open:
                raise OracleError(f"layer {li}: SWAP restarted on {edge}")
            self.open[edge] = [2, op.get("gate_id")]
            return True
        state = self.open.get(edge)
        if state is None or state[0] != sl:
            raise OracleError(f"layer {li}: SWAP slice {sl} on {edge} out of order")
        if state[1] != op.get("gate_id"):
            raise OracleError(f"layer {li}: SWAP on {edge} changed identity")
        state[0] = sl + 1
        return False

    def end_layer(self, li: int, layer_edges: set) -> list[tuple[tuple[int, int], object]]:
        """Check that no SWAP went missing mid-flight; return the SWAPs that
        completed in this layer as (edge, gate id)."""
        done = []
        for edge, (nxt, gid) in list(self.open.items()):
            if edge not in layer_edges:
                raise OracleError(f"layer {li}: SWAP on {edge} went missing mid-flight")
            if nxt > SWAP_SLICES:
                done.append((edge, gid))
                del self.open[edge]
        return done

    def finish(self):
        if self.open:
            raise OracleError(f"unfinished SWAPs at end of schedule: {sorted(self.open)}")


def _layer_qubits(li: int, layer: list, dev: _Device) -> set:
    busy: set[int] = set()
    edges = set()
    for op in layer:
        qs = op["qubits"]
        if not qs:
            raise OracleError(f"layer {li}: {op['kind']} without qubits")
        for q in qs:
            if not 0 <= q < dev.num_qubits:
                raise OracleError(f"layer {li}: qubit {q} out of range")
            if q in busy:
                raise OracleError(f"layer {li}: qubit {q} used twice")
            busy.add(q)
        if len(qs) == 2:
            edge = tuple(sorted(qs))
            if edge not in dev.edges:
                raise OracleError(f"layer {li}: {op['kind']} on non-adjacent {edge}")
            edges.add(edge)
    return edges


def check_circuit_schedule(circuit_text: str, hw_doc: dict, sched: dict) -> None:
    """Raise OracleError unless ``sched`` runs every gate of the circuit,
    on the physical qubits that hold its logical operands at that time, in
    the circuit's per-qubit order, and ends in its stated final mapping."""
    num_logical, gates = parse_circuit_text(circuit_text)
    dev = _Device(hw_doc)
    expected: list[list[tuple]] = [[] for _ in range(num_logical)]
    for kind, qubits, arg in gates:
        if kind == "swap":
            qubits = tuple(sorted(qubits))
        for q in qubits:
            expected[q].append((kind, qubits, arg))
    l2p = _placement(sched["initial_mapping"], num_logical)
    p2l: list[int | None] = [None] * dev.num_qubits
    for l, p in enumerate(l2p):
        p2l[p] = l
    seen: list[list[tuple]] = [[] for _ in range(num_logical)]
    swaps = _SwapTracker()

    def logical(li: int, p: int) -> int:
        l = p2l[p]
        if l is None:
            raise OracleError(f"layer {li}: gate on physical qubit {p}, which holds no logical qubit")
        return l

    for li, layer in enumerate(sched["layers"]):
        layer_edges = _layer_qubits(li, layer, dev)
        for op in layer:
            kind, qs = op["kind"], op["qubits"]
            if kind == "swap":
                if swaps.see(li, op) and op.get("gate_id") is not None:
                    # A SWAP gate of the circuit: a gate on its two logical
                    # qubits, which keep their placement.
                    ls = tuple(sorted((logical(li, qs[0]), logical(li, qs[1]))))
                    for l in ls:
                        seen[l].append(("swap", ls, None))
            elif kind in ("cx", "rzz") and len(qs) == 2:
                ls = (logical(li, qs[0]), logical(li, qs[1]))
                for l in ls:
                    seen[l].append((kind, ls, op.get("param")))
            elif kind == "u" and len(qs) == 1:
                l = logical(li, qs[0])
                seen[l].append(("u", (l,), op.get("label")))
            else:
                raise OracleError(f"layer {li}: unexpected {kind} on {qs}")
        for (a, b), gid in swaps.end_layer(li, layer_edges):
            if gid is None:
                la, lb = p2l[a], p2l[b]
                p2l[a], p2l[b] = lb, la
                if la is not None:
                    l2p[la] = b
                if lb is not None:
                    l2p[lb] = a
    swaps.finish()
    for l in range(num_logical):
        if seen[l] != expected[l]:
            first = next(
                (i for i, (x, y) in enumerate(zip(seen[l], expected[l])) if x != y),
                min(len(seen[l]), len(expected[l])),
            )
            raise OracleError(
                f"logical qubit {l}: gate {first} of its sequence differs "
                f"({len(seen[l])} scheduled, {len(expected[l])} in the circuit)"
            )
    if l2p != _placement(sched["final_mapping"], num_logical):
        raise OracleError("final mapping does not match the replay")


def _is_permutation(parity: list[int]) -> bool:
    return all(v & (v - 1) == 0 for v in parity)


def check_pauli_schedule(program_text: str, hw_doc: dict, sched: dict) -> None:
    """Raise OracleError unless ``sched`` implements the Pauli program: the
    k-th ``rz`` carries string k's coefficient on a qubit holding exactly
    the parity of its active qubits, the ladder is undone right after it,
    basis changes wrap each string on its active X/Y qubits, and the final
    permutation is the schedule's final mapping."""
    strings = [(c, ops) for c, ops in parse_pauli_text(program_text) if set(ops) != {"I"}]
    num_logical = len(parse_pauli_text(program_text)[0][1])
    dev = _Device(hw_doc)
    expected: list[list[tuple]] = [[] for _ in range(num_logical)]
    actives = []
    for k, (_, ops) in enumerate(strings):
        active = [q for q, o in enumerate(ops) if o != "I"]
        actives.append(active)
        for q in active:
            if ops[q] in PRE_LABEL:
                expected[q].append(("u", PRE_LABEL[ops[q]]))
            expected[q].append(("rz", k))
            if ops[q] in POST_LABEL:
                expected[q].append(("u", POST_LABEL[ops[q]]))
    l2p = _placement(sched["initial_mapping"], num_logical)
    parity = [0] * dev.num_qubits
    for l, p in enumerate(l2p):
        parity[p] = 1 << l
    seen: list[list[tuple]] = [[] for _ in range(num_logical)]
    swaps = _SwapTracker()
    rz_count = 0
    mirror_left = 0  # ladder CXs still to be undone after the last rz

    for li, layer in enumerate(sched["layers"]):
        layer_edges = _layer_qubits(li, layer, dev)
        for op in layer:
            kind, qs = op["kind"], op["qubits"]
            if kind == "swap":
                swaps.see(li, op)
            elif kind == "cx" and len(qs) == 2:
                parity[qs[1]] ^= parity[qs[0]]
                if mirror_left:
                    mirror_left -= 1
                    if mirror_left == 0 and not _is_permutation(parity):
                        raise OracleError(f"layer {li}: ladder of string {rz_count - 1} not uncomputed")
            elif kind == "rz" and len(qs) == 1:
                if mirror_left:
                    raise OracleError(f"layer {li}: rz before string {rz_count - 1} was uncomputed")
                if rz_count >= len(strings):
                    raise OracleError(f"layer {li}: more rz gates than Pauli strings")
                coeff, _ = strings[rz_count]
                want = sum(1 << q for q in actives[rz_count])
                if parity[qs[0]] != want:
                    raise OracleError(
                        f"layer {li}: rz of string {rz_count} acts on parity {parity[qs[0]]:#x}, "
                        f"expected {want:#x}"
                    )
                if op.get("param") != coeff:
                    raise OracleError(f"layer {li}: rz of string {rz_count} has angle {op.get('param')}")
                for q in actives[rz_count]:
                    seen[q].append(("rz", rz_count))
                mirror_left = len(actives[rz_count]) - 1
                rz_count += 1
            elif kind == "u" and len(qs) == 1:
                v = parity[qs[0]]
                if mirror_left or not _is_permutation(parity) or v == 0:
                    raise OracleError(f"layer {li}: basis change inside a parity ladder")
                seen[v.bit_length() - 1].append(("u", op.get("label")))
            else:
                raise OracleError(f"layer {li}: unexpected {kind} on {qs}")
        for (a, b), _ in swaps.end_layer(li, layer_edges):
            parity[a], parity[b] = parity[b], parity[a]
    swaps.finish()
    if rz_count != len(strings):
        raise OracleError(f"{rz_count} rz gates for {len(strings)} Pauli strings")
    if mirror_left:
        raise OracleError("last ladder not uncomputed")
    final = _placement(sched["final_mapping"], num_logical)
    want = [0] * dev.num_qubits
    for l, p in enumerate(final):
        want[p] = 1 << l
    if parity != want:
        raise OracleError("final parity map is not the final mapping's permutation")
    for l in range(num_logical):
        if seen[l] != expected[l]:
            raise OracleError(f"logical qubit {l}: basis changes or rotations out of order")


def log_esp(sched: dict, hw, profile, decoherence_error) -> float:
    """Natural log of the estimated success probability, by the model of
    ``chromaroute.fidelity.esp`` but summed as ``log1p(-rate)`` terms.

    ``hw``/``profile`` are the loaded device and crosstalk profile; only
    their public accessors are used."""
    inflated: dict[tuple[int, tuple[int, int]], float] = {}
    for entry in sched["crosstalk_ledger"]:
        e1, e2 = (tuple(e) for e in entry["edges"])
        for of, given in ((e1, e2), (e2, e1)):
            key = (entry["layer"], of)
            inflated[key] = max(inflated.get(key, 0.0), profile.conditional_error(of, given))
    total = 0.0
    used = {int(p) for p in sched["initial_mapping"].values()}
    for li, layer in enumerate(sched["layers"]):
        for op in layer:
            qs = op["qubits"]
            used.update(qs)
            if len(qs) == 2:
                edge = (min(qs), max(qs))
                rate = inflated.get((li, edge))
                if rate is None:
                    rate = hw.error_of(edge)
            else:
                rate = hw.single_qubit_error_of(qs[0])
            total += math.log1p(-rate)
    duration = len(sched["layers"]) * hw.gate_time_cx
    for q in sorted(used):
        total += math.log1p(-decoherence_error(duration, hw.t1_of(q), hw.t2_of(q)))
    return total

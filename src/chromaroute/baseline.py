"""Comparison compiler: crosstalk-oblivious mapping plus crosstalk
removal by delaying.

The oblivious pass routes like a conventional noise-adaptive mapper: it
executes whatever is executable, and for every still-distant gate starts
the distance-reducing SWAP with the lowest isolated error rate, without
looking at the crosstalk profile at all; after more than ``num_qubits``
iterations with no gate run it escapes, one least-error SWAP at a time
toward one gate, as every loop here does.  The serialization pass then
takes that schedule and pushes operations later until no two profile-linked
links are ever driven in the same layer.  Together they give the
"avoid crosstalk by waiting" reference point that the allowance-based
scheduler is measured against.
"""

from __future__ import annotations

import math

from .csg import Budget, cheapest_swap, executable_pairs, useful_swaps
from .hardware import CouplingGraph, CrosstalkProfile, Mapping
from .ir import LogicalCircuit
from .scheduler import (
    SWAP_DURATION,
    CircuitRun,
    Op,
    ScheduleState,
    ScheduledCircuit,
    StallGuard,
)


def oblivious_schedule(
    circuit: LogicalCircuit,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    initial_mapping: Mapping | None = None,
) -> ScheduledCircuit:
    """Route greedily by isolated error rates, ignoring crosstalk, and after
    more than ``num_qubits`` iterations with no gate run walk one gate in
    by single least-error SWAPs (StallGuard).  Interference the schedule
    commits is still in the ledger, so its ESP reflects the inflated rates."""
    state = ScheduleState(hw, Budget(profile, math.inf), circuit.num_qubits, initial_mapping)
    run = CircuitRun(circuit, state)
    guard = StallGuard(len(circuit.gates), hw, "baseline: ")
    while not run.done():
        guard.next_iteration()
        state.open_layer()
        two_q, singles = run.pending()
        progress = False
        for p in executable_pairs(two_q, state.mapping, hw):
            if all(state.qubit_free(state.mapping.phys(q)) for q in p.logicals):
                run.run_gate(p.key)
                progress = True
        helped_now = set()
        for f in state.flights:
            helped_now.update(f.helps)
        candidates = guard.escape_swaps(two_q, state.mapping, state.flights, criticality={})
        if candidates is None:
            candidates = useful_swaps(two_q, state.mapping, hw)
        for p in two_q:
            if p.key in helped_now:
                continue
            free = [
                c
                for c in candidates
                if p.key in c.helps and state.qubit_free(c.edge[0]) and state.qubit_free(c.edge[1])
            ]
            if free:
                c = cheapest_swap(free, hw)
                state.start_swap(c.edge, helps=c.helps)
                helped_now.update(c.helps)
                progress = True
        progress = run.finish_layer(singles) or progress
        guard.record(progress, len(run.executed))
    return state.result()


def serialize_crosstalk(
    sched: ScheduledCircuit,
    circuit: LogicalCircuit,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
) -> ScheduledCircuit:
    """Rebuild a schedule with zero committed crosstalk by delaying.

    Operations are replayed in their original order; each is placed at the
    earliest layer where its qubits are free and its link shares no layer
    with a profile-linked link.  Op order fixes the mapping evolution, so
    only timing changes."""
    layers: list[list[Op]] = []
    busy: list[set[int]] = []
    active: list[set[tuple[int, int]]] = []
    mapping = sched.initial_mapping.copy()
    qubit_ready: dict[int, int] = {}

    def ensure(n: int):
        while len(layers) < n:
            layers.append([])
            busy.append(set())
            active.append(set())

    def clashes(edge, layer_idx) -> bool:
        if layer_idx >= len(active):
            return False
        for other in active[layer_idx]:
            if profile.record_for(edge, other) is not None:
                return True
        return False

    def fits(qubits, layer_idx) -> bool:
        if layer_idx >= len(busy):
            return True
        return not (busy[layer_idx] & set(qubits))

    for layer in sched.layers:
        for op in layer:
            if op.kind == "swap" and op.slice_index != 1:
                continue
            if op.kind == "swap":
                edge = (min(op.qubits), max(op.qubits))
                start = max((qubit_ready.get(q, 0) for q in edge), default=0)
                while True:
                    ok = all(
                        fits(edge, start + k) and not clashes(edge, start + k)
                        for k in range(SWAP_DURATION)
                    )
                    if ok:
                        break
                    start += 1
                ensure(start + SWAP_DURATION)
                for k in range(SWAP_DURATION):
                    layers[start + k].append(
                        Op(kind="swap", qubits=edge, gate_id=op.gate_id, slice_index=k + 1)
                    )
                    busy[start + k].update(edge)
                    active[start + k].add(edge)
                for q in edge:
                    qubit_ready[q] = start + SWAP_DURATION
                if op.gate_id is None:
                    mapping.apply_swap(*edge)
            elif op.kind == "u":
                g = circuit.gate(op.gate_id)
                pq = mapping.phys(g.qubits[0])
                start = qubit_ready.get(pq, 0)
                while not fits((pq,), start):
                    start += 1
                ensure(start + 1)
                layers[start].append(Op(kind="u", qubits=(pq,), gate_id=op.gate_id, label=op.label))
                busy[start].add(pq)
                qubit_ready[pq] = start + 1
            else:
                g = circuit.gate(op.gate_id)
                pq = (mapping.phys(g.qubits[0]), mapping.phys(g.qubits[1]))
                edge = (min(pq), max(pq))
                start = max(qubit_ready.get(q, 0) for q in pq)
                while not (fits(pq, start) and not clashes(edge, start)):
                    start += 1
                ensure(start + 1)
                layers[start].append(Op(kind=op.kind, qubits=pq, gate_id=op.gate_id, param=op.param))
                busy[start].add(pq[0])
                busy[start].add(pq[1])
                active[start].add(edge)
                for q in pq:
                    qubit_ready[q] = start + 1
    packed = [layer for layer in layers if layer]
    return ScheduledCircuit(
        num_physical=sched.num_physical,
        layers=packed,
        crosstalk_ledger=[],
        initial_mapping=sched.initial_mapping,
        final_mapping=mapping,
    )


def baseline_schedule(
    circuit: LogicalCircuit,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    initial_mapping: Mapping | None = None,
) -> ScheduledCircuit:
    """Oblivious routing followed by crosstalk removal through delays."""
    routed = oblivious_schedule(circuit, hw, profile, initial_mapping)
    return serialize_crosstalk(routed, circuit, hw, profile)

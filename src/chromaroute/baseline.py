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
from .hardware import CouplingGraph, CrosstalkProfile, Mapping, normalize_edge
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
        for p in executable_pairs(two_q, state.mapping, hw):
            if all(state.qubit_free(state.mapping.phys(q)) for q in p.logicals):
                run.run_gate(p.key)
        helped_now = {k for f in state.flights for k in f.helps}
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
        guard.record(run.finish_layer(singles), len(run.executed))
    return state.result()


def serialize_crosstalk(
    sched: ScheduledCircuit,
    circuit: LogicalCircuit,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
) -> ScheduledCircuit:
    """Rebuild a schedule with zero committed crosstalk by delaying.

    Operations are replayed in their original order, a SWAP as one op over
    its three slices.  ``put`` is the one placement rule: an op goes to the
    earliest layers, no sooner than its qubits' last use, where its qubits
    are free and its link shares no layer with a profile-linked link.  Op
    order fixes the mapping evolution, so only timing changes."""
    layers: list[list[Op]] = []
    busy: list[set[int]] = []
    active: list[set[tuple[int, int]]] = []
    mapping = sched.initial_mapping.copy()
    qubit_ready: dict[int, int] = {}

    def blocked(qubits, edge, li: int) -> bool:
        if li >= len(layers):
            return False
        if busy[li] & set(qubits):
            return True
        return edge is not None and any(profile.record_for(edge, o) is not None for o in active[li])

    def put(qubits: tuple[int, ...], duration: int, make_op) -> None:
        """Place ``make_op(k)`` for slices k = 1..``duration`` in consecutive layers."""
        edge = normalize_edge(*qubits) if len(qubits) == 2 else None
        start = max(qubit_ready.get(q, 0) for q in qubits)
        while any(blocked(qubits, edge, start + k) for k in range(duration)):
            start += 1
        while len(layers) < start + duration:
            layers.append([])
            busy.append(set())
            active.append(set())
        for k in range(duration):
            layers[start + k].append(make_op(k + 1))
            busy[start + k].update(qubits)
            if edge is not None:
                active[start + k].add(edge)
        for q in qubits:
            qubit_ready[q] = start + duration

    for layer in sched.layers:
        for op in layer:
            if op.kind != "swap":
                pq = tuple(mapping.phys(q) for q in circuit.gate(op.gate_id).qubits)
                put(pq, 1, lambda k: Op(op.kind, pq, op.gate_id, param=op.param, label=op.label))
            elif op.slice_index == 1:
                edge = normalize_edge(*op.qubits)
                put(edge, SWAP_DURATION, lambda k: Op("swap", edge, op.gate_id, slice_index=k))
                if op.gate_id is None:
                    mapping.apply_swap(*edge)
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

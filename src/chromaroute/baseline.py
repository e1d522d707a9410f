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
from dataclasses import replace

from .csg import cheapest_swap, executable_pairs, useful_swaps
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
    state = ScheduleState(hw, profile, math.inf, circuit.num_qubits, initial_mapping)
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
        # Escape SWAPs start only with no flight open, when drained() is mapping.
        candidates = guard.escape_swaps(two_q, state)
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


def serialize_crosstalk(sched: ScheduledCircuit, profile: CrosstalkProfile) -> ScheduledCircuit:
    """Rebuild a schedule with zero committed crosstalk by delaying.

    Operations are replayed in their original order on their own qubits, a
    SWAP as one op over its three slices.  ``put`` is the one placement
    rule: an op goes to the earliest layers, no sooner than its qubits' last
    use, where its link shares no layer with a profile-linked link.  The
    qubit order alone keeps a layer's qubits distinct: ops on one qubit are
    placed in replay order, so its latest op ends at ``qubit_ready`` and no
    layer from there on holds it yet.  A routing SWAP holds its qubits until
    it lands, so keeping each qubit's op order keeps every op's qubits right
    and the final mapping ``sched.final_mapping``; only timing changes."""
    layers: list[list[Op]] = []
    active: list[set[tuple[int, int]]] = []
    qubit_ready: dict[int, int] = {}

    def blocked(edge, li: int) -> bool:
        return li < len(layers) and not active[li].isdisjoint(profile.partners(edge))

    def put(qubits: tuple[int, ...], duration: int, make_op) -> None:
        """Place ``make_op(k)`` for slices k = 1..``duration`` in consecutive layers."""
        edge = normalize_edge(*qubits) if len(qubits) == 2 else None
        start = max(qubit_ready.get(q, 0) for q in qubits)
        while edge is not None and any(blocked(edge, start + k) for k in range(duration)):
            start += 1
        while len(layers) < start + duration:
            layers.append([])
            active.append(set())
        for k in range(duration):
            layers[start + k].append(make_op(k + 1))
            if edge is not None:
                active[start + k].add(edge)
        for q in qubits:
            qubit_ready[q] = start + duration

    for layer in sched.layers:
        for op in layer:
            if op.kind != "swap":
                put(op.qubits, 1, lambda k: replace(op))
            elif op.slice_index == 1:
                edge = normalize_edge(*op.qubits)
                put(edge, SWAP_DURATION, lambda k: Op("swap", edge, op.gate_id, slice_index=k))
    packed = [layer for layer in layers if layer]
    return ScheduledCircuit(
        num_physical=sched.num_physical,
        layers=packed,
        crosstalk_ledger=[],
        initial_mapping=sched.initial_mapping,
        final_mapping=sched.final_mapping,
    )


def baseline_schedule(
    circuit: LogicalCircuit,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    initial_mapping: Mapping | None = None,
) -> ScheduledCircuit:
    """Oblivious routing followed by crosstalk removal through delays."""
    routed = oblivious_schedule(circuit, hw, profile, initial_mapping)
    return serialize_crosstalk(routed, profile)

"""Success-probability estimation and the crosstalk-allowance search.

The estimated success probability (ESP) of a schedule multiplies the
survival probability of every scheduled operation with a per-qubit
decoherence factor for the total circuit duration.  Operations listed in
the crosstalk ledger use their conditional (inflated) error rate at the
charged layer; everything else uses the isolated rate.

The allowance search trades those two loss channels off: more permitted
crosstalk shortens the circuit (less decoherence, fewer SWAPs) but
inflates gate errors.  ESP over allowance is rugged, not unimodal, so
the search probes an even grid over [0, x_max] and keeps the best probe,
ties to the lower allowance.  Within one search, a compile of
the circuit compiler follows the trails of earlier probes of the same
inputs (the scheduler module states the window rule): while the allowance
it has left lies in a trail's next window it commits that record and
builds no CSG, then it decides the rest itself.  A compile with an
``on_iteration`` hook neither records nor follows, and nothing is kept
outside a search.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .hardware import CouplingGraph, CrosstalkProfile, normalize_edge
from .scheduler import SEARCH_TRAILS, ScheduledCircuit


def decoherence_error(t: float, t1: float, t2: float) -> float:
    """The product (1 - e^{-t/T1}) (1 - e^{-t/T2}): the probability that a
    qubit idling for time ``t`` is lost to both relaxation and dephasing,
    taken as independent.  Whether the loss should rather be either of the
    two, 1 - e^{-t/T1 - t/T2}, is an open model question (ROADMAP item 2).
    Infinite T1/T2 mean a perfect memory."""
    if t < 0:
        raise ValueError(f"negative duration {t}")
    return (1.0 - math.exp(-t / t1)) * (1.0 - math.exp(-t / t2))


def _conditional_rates(sched: ScheduledCircuit, profile: CrosstalkProfile):
    """Map (layer, edge) -> inflated error rate from the ledger."""
    out: dict[tuple[int, tuple[int, int]], float] = {}
    for entry in sched.crosstalk_ledger:
        e1, e2 = entry.edges
        r1 = profile.conditional_error(e1, e2)
        r2 = profile.conditional_error(e2, e1)
        for edge, rate in ((e1, r1), (e2, r2)):
            key = (entry.layer, edge)
            out[key] = max(out.get(key, 0.0), rate)
    return out


def esp(sched: ScheduledCircuit, hw: CouplingGraph, profile: CrosstalkProfile) -> float:
    """Estimated success probability of a schedule on the given device.

    Every op of every layer is one survival factor, multiplied in in layer
    and op order.  A SWAP's three slices are three ops, so a SWAP costs
    three factors of its edge's CX error.  An edge in the ledger at a layer
    uses the highest conditional rate its entries there give it; any other
    two-qubit op uses its edge's isolated rate, and a single-qubit op its
    qubit's rate.  An edge the device lacks, or whose rate it lacks, raises
    ``HardwareError`` (``CouplingGraph.error_of``)."""
    inflated = _conditional_rates(sched, profile)
    edge_error, single_error = hw.edge_error, hw.single_qubit_error
    p = 1.0
    used_qubits: set[int] = set(sched.initial_mapping.placement)
    for li, layer in enumerate(sched.layers):
        for op in layer:
            qubits = op.qubits
            used_qubits.update(qubits)
            if len(qubits) == 2:
                a, b = qubits
                edge = (a, b) if a < b else normalize_edge(a, b)
                rate = inflated.get((li, edge)) if inflated else None
                if rate is None:
                    rate = edge_error.get(edge)
                    if rate is None:
                        rate = hw.error_of(edge)  # raises
                p *= 1.0 - rate
            else:
                p *= 1.0 - single_error.get(qubits[0], 0.0)
    duration = sched.depth_cx * hw.gate_time_cx
    for q in sorted(used_qubits):
        p *= 1.0 - decoherence_error(duration, hw.t1_of(q), hw.t2_of(q))
    return p


@dataclass
class FidelityReport:
    esp: float
    depth_cx: int
    swap_count: int
    duration: float
    crosstalk_entries: int
    crosstalk_excess_total: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def fidelity_report(sched: ScheduledCircuit, hw: CouplingGraph, profile: CrosstalkProfile) -> FidelityReport:
    return FidelityReport(
        esp=esp(sched, hw, profile),
        depth_cx=sched.depth_cx,
        swap_count=sched.swap_count,
        duration=sched.depth_cx * hw.gate_time_cx,
        crosstalk_entries=len(sched.crosstalk_ledger),
        crosstalk_excess_total=sched.ledger_total(),
    )


def find_x_max(compile_fn) -> float:
    """Upper end of the allowance search interval: the excess error an
    unconstrained compilation actually commits.  ``compile_fn`` maps an
    allowance to a ScheduledCircuit."""
    return compile_fn(math.inf).ledger_total()


@dataclass
class AllowanceSearchResult:
    """The search's outcome.  ``schedule`` is what the objective returned
    with the best probe's value (not part of the JSON document)."""

    best_allowance: float
    best_value: float
    x_max: float
    probes: list[tuple[float, float]] = field(default_factory=list)
    schedule: ScheduledCircuit | None = None

    def to_json_dict(self) -> dict:
        return {
            "best_allowance": self.best_allowance,
            "best_esp": self.best_value,
            "x_max": self.x_max,
            "probes": [[x, v] for x, v in self.probes],
        }


def search_core(x_max: float, probes: int, objective) -> AllowanceSearchResult:
    """Maximize ``objective(x) -> (value, schedule)`` over ``probes`` >= 2
    evenly spaced points ``x_max * (i / (probes - 1))``, in ascending order,
    so the last is ``x_max`` itself; with ``x_max`` 0 it is one probe at 0.
    The best value wins, ties to the lower x, and only its schedule is kept.
    """
    xs = [x_max * (i / (probes - 1)) for i in range(probes)] if x_max > 0 else [0.0]
    probed = []
    best = None  # (x, value, schedule) of the best probe so far
    for x in xs:
        value, schedule = objective(x)
        probed.append((x, value))
        if best is None or value > best[1]:
            best = x, value, schedule
    return AllowanceSearchResult(best[0], best[1], x_max, probed, best[2])


def search_allowance(
    compile_fn,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    steps: int = 32,
) -> AllowanceSearchResult:
    """Find the crosstalk allowance with the best ESP for one workload.

    ``compile_fn(allowance) -> ScheduledCircuit`` is the workload; the
    interval is [0, find_x_max] in excess error.  ``steps`` >= 1 buys
    max(2, 2 ceil(log2 steps) + 1) evenly spaced probes, no more than a
    bisection to resolution x_max/steps would make.  The result keeps the
    best probe's schedule."""
    if not steps >= 1:
        raise ValueError(f"search needs at least one step, got {steps}")
    if steps == math.inf:
        raise ValueError("search needs a finite number of steps")

    def objective(x: float):
        sched = compile_fn(x)
        return esp(sched, hw, profile), sched

    token = SEARCH_TRAILS.set([])
    try:
        x_max = max(0.0, find_x_max(compile_fn))
        return search_core(x_max, max(2, 2 * math.ceil(math.log2(steps)) + 1), objective)
    finally:
        SEARCH_TRAILS.reset(token)

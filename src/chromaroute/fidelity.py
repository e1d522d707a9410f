"""Success-probability estimation and the crosstalk-allowance search.

The estimated success probability (ESP) of a schedule multiplies the
survival probability of every scheduled operation with a per-qubit
decoherence factor for the total circuit duration.  Operations listed in
the crosstalk ledger use their conditional (inflated) error rate at the
charged layer; everything else uses the isolated rate.

The allowance search trades those two loss channels off: more permitted
crosstalk shortens the circuit (less decoherence, fewer SWAPs) but
inflates gate errors.  ESP over allowance is generally not monotonic, so
the search probes a bracketing interval with a derivative-sign bisection
and keeps the best probe it ever saw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .csg import Budget
from .hardware import CouplingGraph, CrosstalkProfile
from .scheduler import ScheduledCircuit

# Bisection steps search_core takes at most, whatever the resolution.
SEARCH_MAX_ITER = 64


def decoherence_error(t: float, t1: float, t2: float) -> float:
    """Probability that a qubit idling for time ``t`` is lost to relaxation
    or dephasing.  Infinite T1/T2 mean a perfect memory."""
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
    """Estimated success probability of a schedule on the given device."""
    inflated = _conditional_rates(sched, profile)
    p = 1.0
    used_qubits: set[int] = set(sched.initial_mapping.as_dict().values())
    for li, layer in enumerate(sched.layers):
        for op in layer:
            used_qubits.update(op.qubits)
            edge = op.phys_edge()
            if edge is not None:
                rate = inflated.get((li, edge), None)
                if rate is None:
                    rate = hw.error_of(edge)
                p *= 1.0 - rate
            else:
                p *= 1.0 - hw.single_qubit_error_of(op.qubits[0])
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
        return {
            "esp": self.esp,
            "depth_cx": self.depth_cx,
            "swap_count": self.swap_count,
            "duration": self.duration,
            "crosstalk_entries": self.crosstalk_entries,
            "crosstalk_excess_total": self.crosstalk_excess_total,
        }


def fidelity_report(sched: ScheduledCircuit, hw: CouplingGraph, profile: CrosstalkProfile) -> FidelityReport:
    return FidelityReport(
        esp=esp(sched, hw, profile),
        depth_cx=sched.depth_cx,
        swap_count=sched.swap_count,
        duration=sched.depth_cx * hw.gate_time_cx,
        crosstalk_entries=len(sched.crosstalk_ledger),
        crosstalk_excess_total=sched.ledger_total(),
    )


def find_x_max(compile_fn, budget: Budget) -> float:
    """Upper end of the allowance search interval: the crosstalk an
    unconstrained compilation actually commits, in ``budget``'s units.
    ``compile_fn`` maps an allowance to a ScheduledCircuit."""
    return budget.spent(compile_fn(math.inf).crosstalk_ledger)


@dataclass
class AllowanceSearchResult:
    """The search's outcome.  ``schedule`` is the best probe's schedule when
    search_allowance made it (not part of the JSON document)."""

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


def search_core(lo: float, hi: float, delta: float, objective) -> AllowanceSearchResult:
    """Derivative-sign bisection over [lo, hi], maximizing ``objective``.

    Each step evaluates the objective at mid and mid+delta; a rising pair
    moves the bracket up, otherwise down.  Every evaluation is remembered
    and the best one wins, so a non-unimodal objective still returns the
    best value actually seen (endpoints included).
    """
    seen: dict[float, float] = {}

    def probe(x: float) -> float:
        if x not in seen:
            seen[x] = objective(x)
        return seen[x]

    probe(lo)
    probe(hi)
    it = 0
    a, b = lo, hi
    while b - a > delta and it < SEARCH_MAX_ITER:
        it += 1
        mid = (a + b) / 2.0
        f_mid = probe(mid)
        f_next = probe(min(mid + delta, hi))
        if f_next > f_mid:
            a = mid
        else:
            b = mid
    probes = sorted(seen.items())
    best_x, best_v = max(probes, key=lambda kv: (kv[1], -kv[0]))
    return AllowanceSearchResult(
        best_allowance=best_x, best_value=best_v, x_max=hi, probes=probes
    )


def search_allowance(
    compile_fn,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    steps: int = 32,
    allowance_units: str = "error",
) -> AllowanceSearchResult:
    """Find the crosstalk allowance with the best ESP for one workload.

    ``compile_fn(allowance) -> ScheduledCircuit`` is the workload and must
    count its allowance in ``allowance_units``; the interval is
    [0, find_x_max] in those units, with resolution x_max/steps.  The
    result keeps the best probe's schedule, picked as search_core picks."""
    best = None  # ((value, -x), schedule) of the best probe so far

    def objective(x: float) -> float:
        nonlocal best
        sched = compile_fn(x)
        value = esp(sched, hw, profile)
        if best is None or (value, -x) > best[0]:
            best = ((value, -x), sched)
        return value

    # With x_max 0 the search is one probe at 0.
    x_max = max(0.0, find_x_max(compile_fn, Budget(profile, units=allowance_units)))
    result = search_core(0.0, x_max, x_max / steps, objective)
    result.schedule = best[1]
    return result

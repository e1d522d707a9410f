"""Layer-by-layer scheduler built on coloring the candidate set graph.

Each iteration assembles the candidate set graph for the current frontier
and commits one color class as the next layer: while SWAPs are in flight
the first color, which holds them, and otherwise the class a ranked
tie-break chain picks from a full coloring.  SWAPs occupy their qubits for
three consecutive layers; the logical-to-physical mapping changes when a
routing SWAP finishes.  Every crosstalk pair actually committed is written
to a ledger at the layer where the later of the two operations starts, and
the ledger total can never exceed the configured allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from types import MappingProxyType

from .csg import (
    Csg,
    InProgressSwap,
    PendingPair,
    build_csg,
    cheapest_swap,
    executable_pairs,
    useful_swaps,
)
from .errors import InvariantError, MappingError, ParseError, StallError, VerificationError
from .hardware import CouplingGraph, CrosstalkProfile, Edge, Mapping, normalize_edge
from .ir import (
    GATE_ARITY,
    PAULI_POST_LABEL,
    PAULI_PRE_LABEL,
    Gate,
    LogicalCircuit,
    PauliProgram,
    frontier,
)

SWAP_DURATION = 3

# Classes ranked in full by rank_and_select; the rest lose on size alone.
TOP_K = 3

# Qubit count of each operation kind a schedule may hold.
OP_ARITY = {**GATE_ARITY, "rz": 1}


def left_sum(values):
    """The values added left to right, starting from the int 0 as ``sum``
    does.  ``sum`` compensates float rounding from Python 3.12 on; this
    gives every version the older result."""
    return reduce(add, values, 0)


def _typed(value, types, where: str, optional: bool = False):
    """A schedule document's field ``value`` if it is of ``types`` (a bool
    never is) or, when ``optional``, None; a ParseError otherwise."""
    if (value is None and optional) or (isinstance(value, types) and not isinstance(value, bool)):
        return value
    raise ParseError(f"{where}: {value!r} has the wrong type")


@dataclass(slots=True)
class Op:
    """One scheduled operation on physical qubits.  ``qubits`` keeps the
    control/target order for directed gates; ``slice_index`` is 1..3 for
    the three layers of a SWAP."""

    kind: str
    qubits: tuple[int, ...]
    gate_id: int | None = None
    param: float | None = None
    label: str | None = None
    slice_index: int | None = None

    def phys_edge(self) -> Edge | None:
        if len(self.qubits) == 2:
            return normalize_edge(self.qubits[0], self.qubits[1])
        return None

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "qubits": list(self.qubits)}
        if self.gate_id is not None:
            d["gate_id"] = self.gate_id
        if self.param is not None:
            d["param"] = self.param
        if self.label is not None:
            d["label"] = self.label
        if self.slice_index is not None:
            d["slice"] = self.slice_index
        return d


@dataclass(frozen=True)
class LedgerEntry:
    layer: int
    edges: tuple[Edge, Edge]
    excess: float

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "edges": [list(self.edges[0]), list(self.edges[1])],
            "excess": self.excess,
        }


@dataclass
class ScheduledCircuit:
    num_physical: int
    layers: list[list[Op]]
    crosstalk_ledger: list[LedgerEntry]
    initial_mapping: Mapping
    final_mapping: Mapping

    @property
    def depth_cx(self) -> int:
        return len(self.layers)

    @property
    def swap_count(self) -> int:
        return sum(1 for layer in self.layers for op in layer if op.kind == "swap" and op.slice_index == 1)

    def ledger_total(self) -> float:
        return left_sum(e.excess for e in self.crosstalk_ledger)

    def to_json_dict(self) -> dict:
        return {
            "num_physical": self.num_physical,
            "depth_cx": self.depth_cx,
            "swap_count": self.swap_count,
            "layers": [[op.to_dict() for op in layer] for layer in self.layers],
            "crosstalk_ledger": [e.to_dict() for e in self.crosstalk_ledger],
            "initial_mapping": self.initial_mapping.as_dict(),
            "final_mapping": self.final_mapping.as_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScheduledCircuit":
        """Read a schedule document back.  This is where every field's type
        is checked (ParseError); whether the schedule holds together is
        verify_routing's question."""
        num_physical = _typed(data["num_physical"], int, "num_physical")

        def mapping_from(name: str) -> Mapping:
            d = _typed(data[name], dict, name)
            try:
                keys = sorted(d, key=int)
            except ValueError as exc:
                raise ParseError(f"{name}: a logical qubit key is not an integer ({exc})") from exc
            if [str(k) for k in keys] != [str(l) for l in range(len(keys))]:
                raise ParseError(f"{name}: the logical qubit keys are not 0..{len(keys) - 1}")
            placement = [_typed(d[k], int, f"{name}[{k!r}]") for k in keys]
            return Mapping(len(placement), num_physical, placement)

        layers = []
        for li, layer in enumerate(data["layers"]):
            ops = []
            for od in layer:
                op = Op(
                    kind=_typed(od["kind"], str, f"layer {li}: kind"),
                    qubits=tuple(od["qubits"]),
                    gate_id=_typed(od.get("gate_id"), int, f"layer {li}: gate_id", optional=True),
                    param=_typed(od.get("param"), (int, float), f"layer {li}: param", optional=True),
                    label=_typed(od.get("label"), str, f"layer {li}: label", optional=True),
                    slice_index=_typed(od.get("slice"), int, f"layer {li}: slice", optional=True),
                )
                if op.slice_index is not None and op.kind != "swap":
                    raise ParseError(f"layer {li}: a {op.kind} op has a SWAP slice")
                if op.param is not None and not math.isfinite(op.param):
                    raise ParseError(f"layer {li}: param {op.param!r} is not finite")
                ops.append(op)
            layers.append(ops)
        ledger = [
            LedgerEntry(
                layer=_typed(ed["layer"], int, "ledger layer"),
                edges=tuple(
                    tuple(_typed(q, int, "ledger edge qubit") for q in ed["edges"][k])
                    for k in (0, 1)
                ),
                excess=_typed(ed["excess"], (int, float), "ledger excess"),
            )
            for ed in data["crosstalk_ledger"]
        ]
        return cls(
            num_physical=num_physical,
            layers=layers,
            crosstalk_ledger=ledger,
            initial_mapping=mapping_from("initial_mapping"),
            final_mapping=mapping_from("final_mapping"),
        )


@dataclass
class ColorClass:
    color: int
    members: list[int]  # sorted vertex ids


def color_classes(csg: Csg):
    """Welsh–Powell's greedy coloring of ``csg``, one class at a time.  The
    in-flight SWAPs are pinned to color 0; every other vertex, in
    Welsh–Powell order (degree descending, ties to the lower id), joins the
    current class when it has no neighbor there.  First fit in one order
    peels greedy independent sets in that order, so each class is the one a
    first-fit coloring gives that color, and a caller can stop after the
    first."""
    neighbors = csg._adjacency
    members = {v.vertex_id for v in csg.vertices if v.kind == "inprogress"}
    rest = [v.vertex_id for v in csg.vertices if v.kind != "inprogress"]
    rest.sort(key=lambda vid: -len(neighbors[vid]))  # stable: degree ties go to the lower id
    color = 0
    while members or rest:
        left = []
        for vid in rest:
            if members.isdisjoint(neighbors[vid]):
                members.add(vid)
            else:
                left.append(vid)
        yield ColorClass(color=color, members=sorted(members))
        members, rest, color = set(), left, color + 1


def welsh_powell(csg: Csg) -> list[ColorClass]:
    """Every class of ``color_classes(csg)``, color 0 first."""
    return list(color_classes(csg))


def _class_metrics(csg: Csg, cls: ColorClass, last_helped: frozenset, criticality) -> tuple:
    verts = [csg.vertices[i] for i in cls.members]
    cgates = sum(1 for v in verts if v.kind == "cgate")
    continuing = sum(1 for v in verts if v.kind == "swap" and (v.helps & last_helped))
    members = set(cls.members)
    usage = left_sum(cost for i, j, cost in csg.permitted_pairs if i in members and j in members)
    crit = 0
    for v in verts:
        if v.kind == "cgate":
            crit += criticality.get(v.gate_key, 0)
        elif v.helps:
            crit += max(criticality.get(k, 0) for k in v.helps)
    return (-len(cls.members), -cgates, -continuing, usage, -crit, min(cls.members))


def rank_and_select(
    csg: Csg, classes: list[ColorClass], last_helped: frozenset, criticality, tie_breaker
) -> ColorClass:
    """Pick the color class to commit next from a CSG with no SWAP in
    flight (``schedule_layer`` commits the first class while one is).

    The classes are cut down to the ``TOP_K`` largest and ranked by member
    count, cgate count, count of SWAPs that help a gate ``last_helped``
    names, allowance usage, summed ``criticality``, and finally lowest
    vertex id.  A strictly largest class wins on the first key, so it is
    returned unranked.  ``tie_breaker(csg, tied)``, when not None, gets a
    shot at any tie that survives the first four keys.
    """
    if not classes:
        raise InvariantError("no color classes to select from")
    short = sorted(classes, key=lambda c: (-len(c.members), min(c.members)))[:TOP_K]
    if len(short) == 1 or len(short[0].members) > len(short[1].members):
        return short[0]
    metrics = {cls.color: _class_metrics(csg, cls, last_helped, criticality) for cls in short}
    best4 = min(metrics[c.color][:4] for c in short)
    tied = [c for c in short if metrics[c.color][:4] == best4]
    if len(tied) > 1 and tie_breaker is not None:
        chosen = tie_breaker(csg, tied)
        if chosen is not None:
            return chosen
    return min(short, key=lambda c: metrics[c.color])


class StallGuard:
    """The iteration cap, the idle limit and the escape mode of one
    scheduling loop (messages start with ``prefix``).  SWAPs for different
    gates can cancel each other forever, so after more than ``num_qubits``
    iterations in a row with no gate run the loop escapes: it drains its
    flights, then walks one gate in by single least-error SWAPs."""

    def __init__(self, work: int, hw: CouplingGraph, prefix: str = ""):
        self.cap = 50 * (work + hw.num_qubits + 10)
        self.hw = hw
        self.prefix = prefix
        self.iterations = 0
        self.idle = 0
        self.gates_done = 0
        self.gates_idle = 0
        self.target = None

    def next_iteration(self) -> int:
        self.iterations += 1
        if self.iterations > self.cap:
            raise StallError(f"{self.prefix}no convergence after {self.iterations} iterations")
        return self.iterations

    def record(self, progress: bool, gates_done: int) -> None:
        self.gates_idle = 0 if gates_done > self.gates_done else self.gates_idle + 1
        self.gates_done = gates_done
        self.idle = 0 if progress else self.idle + 1
        if self.idle > self.hw.num_qubits:
            raise StallError(
                f"{self.prefix}no gate executed and no SWAP started for {self.idle} iterations"
            )

    def escape_swaps(self, pending: list, drained: Mapping, flights: list, criticality: dict):
        """None unless escaping; then [] while flights are open, else one least-error SWAP."""
        if self.target is None or self.target not in pending:
            self.target = None
            if self.gates_idle > self.hw.num_qubits and pending:
                self.target = min(pending, key=lambda p: (-criticality.get(p.key, 0), p.key))
        if self.target is None:
            return None
        swaps = [] if flights else useful_swaps([self.target], drained, self.hw)
        return [cheapest_swap(swaps, self.hw)] if swaps else []


class ScheduleState:
    """Mutable engine shared by the circuit compiler, the reference
    compiler and the ansatz synthesizer: opens a layer, places operations
    with crosstalk charging against ``allowance``, an excess error mass that
    ``profile`` prices, closes the layer advancing in-flight SWAPs."""

    def __init__(
        self,
        hw: CouplingGraph,
        profile: CrosstalkProfile,
        allowance: float,
        num_logical: int,
        initial_mapping: Mapping | None = None,
    ):
        if num_logical > hw.num_qubits:
            raise MappingError(f"program needs {num_logical} qubits, device has {hw.num_qubits}")
        if initial_mapping is None:
            initial_mapping = Mapping(num_logical, hw.num_qubits)
        elif (initial_mapping.num_logical, initial_mapping.num_physical) != (num_logical, hw.num_qubits):
            raise MappingError(
                f"initial mapping places {initial_mapping.num_logical} logical qubits on "
                f"{initial_mapping.num_physical} physical ones; the program has {num_logical} "
                f"and the device {hw.num_qubits}"
            )
        self.hw = hw
        self.profile = profile
        self.allowance = allowance
        self.initial_mapping = initial_mapping
        self.mapping = initial_mapping.copy()
        self._drained = initial_mapping.copy()  # kept current by start_swap
        self.layers: list[list[Op]] = []
        self.ledger: list[LedgerEntry] = []
        self._spent = 0  # ledger_total() of self.ledger, kept current by _charge
        self.flights: list[InProgressSwap] = []
        self.last_completed_edges: set[Edge] = set()
        self.last_helped: frozenset = frozenset()
        self._cur: list[Op] | None = None
        self._cur_edges: set[Edge] = set()
        self._cur_busy: set[int] = set()
        self._placed = False

    def allowance_left(self) -> float:
        return max(self.allowance - self._spent, 0.0)

    def drained(self) -> Mapping:
        """The mapping that will hold once the in-flight routing SWAPs land.
        It is the state's own, kept current as each routing SWAP starts, so
        callers read it and must not change it (``vqa.pattern_cost`` and
        ``_lookahead_extra_swaps`` preview a pattern by walking positions
        through its SWAPs, ``vqa._preview_positions``).  They read it before
        ``schedule_layer`` commits, as synthesis's tie-breaker does: the
        SWAPs a commit starts move it."""
        return self._drained

    def result(self) -> ScheduledCircuit:
        return ScheduledCircuit(
            num_physical=self.hw.num_qubits,
            layers=self.layers,
            crosstalk_ledger=self.ledger,
            initial_mapping=self.initial_mapping,
            final_mapping=self.mapping.copy(),
        )

    def open_layer(self) -> None:
        if self._cur is not None:
            raise InvariantError("layer already open")
        self._cur = []
        self._cur_edges = set()
        self._cur_busy = set()
        self._placed = False
        for f in self.flights:
            sl = SWAP_DURATION - f.remaining_time + 1
            self._cur.append(Op(kind="swap", qubits=f.edge, gate_id=f.gate_key, slice_index=sl))
            self._cur_edges.add(f.edge)
            self._cur_busy.update(f.edge)

    def qubit_free(self, phys: int) -> bool:
        return phys not in self._cur_busy

    def place(self, op: Op) -> None:
        if self._cur is None:
            raise InvariantError("no open layer")
        for q in op.qubits:
            if q in self._cur_busy:
                raise InvariantError(f"physical qubit {q} scheduled twice in layer {len(self.layers)}")
            if not 0 <= q < self.hw.num_qubits:
                raise InvariantError(f"physical qubit {q} out of range")
        edge = op.phys_edge()
        if edge is not None:
            if not self.hw.has_edge(*edge):
                raise InvariantError(f"operation on non-adjacent qubits {edge}")
            self._charge(edge)
            self._cur_edges.add(edge)
        self._cur.append(op)
        self._cur_busy.update(op.qubits)
        self._placed = True

    def start_swap(self, edge: Edge, helps: frozenset = frozenset(), gate_key=None) -> None:
        edge = normalize_edge(*edge)
        self.place(Op(kind="swap", qubits=edge, gate_id=gate_key, slice_index=1))
        self.flights.append(InProgressSwap(edge, SWAP_DURATION, helps, gate_key))
        if gate_key is None:
            self._drained.apply_swap(*edge)

    def charge_preview(self, edge: Edge) -> float:
        """Excess error that placing a two-qubit op on ``edge``, whose qubits
        are free, into the open layer would charge."""
        partners = self.profile.partners(edge)
        return left_sum(
            self.profile.excess_error(edge, other) for other in self._cur_edges if other in partners
        )

    def _charge(self, edge: Edge) -> None:
        """Write a ledger entry for each profiled pair of ``edge`` with a
        link of the open layer, and add each entry's excess to the running
        total in ledger order, which is the ledger's ``ledger_total``."""
        layer_idx = len(self.layers)
        for other in sorted(self._cur_edges.intersection(self.profile.partners(edge))):
            excess = self.profile.excess_error(edge, other)
            self.ledger.append(LedgerEntry(layer_idx, tuple(sorted((edge, other))), excess))
            self._spent += excess
        if self._spent > self.allowance + 1e-9:
            raise InvariantError(
                f"crosstalk ledger {self._spent:.6g} exceeds allowance {self.allowance:.6g}"
            )

    def close_layer(self) -> tuple[bool, list[InProgressSwap]]:
        """Commit the open layer.  Returns (was an op placed in it?, completed
        flights); the slices of SWAPs already in flight are not placements.
        An empty layer is dropped rather than padded in."""
        if self._cur is None:
            raise InvariantError("no open layer")
        ops = self._cur
        self._cur = None
        if not ops:
            return False, []
        self.layers.append(ops)
        helped: set = set()
        completed: list[InProgressSwap] = []
        for f in self.flights:
            helped.update(f.helps)
            f.remaining_time -= 1
            if f.remaining_time == 0:
                completed.append(f)
        self.flights = [f for f in self.flights if f.remaining_time > 0]
        self.last_completed_edges = set()
        for f in completed:
            if f.gate_key is None:
                self.mapping.apply_swap(*f.edge)
                self.last_completed_edges.add(f.edge)
        self.last_helped = frozenset(helped)
        return self._placed, completed


def schedule_layer(
    state: ScheduleState,
    cgates: list[PendingPair],
    swaps: list,
    pending: list[PendingPair],
    run_cgate,
    *,
    criticality=MappingProxyType({}),
    tie_breaker=None,
) -> tuple[Csg, ColorClass | None]:
    """One CSG layer step into the open layer: build the candidate set graph
    of ``cgates``, ``swaps`` and the state's flights, pick a class and
    commit its members in vertex order, ``run_cgate(key)`` for a cgate and
    a started SWAP for a candidate.  With SWAPs in flight the class is the
    first of ``color_classes``, the one holding them: an interrupted SWAP
    is not a thing.  Otherwise the CSG is colored in full and
    ``rank_and_select`` picks by the state's ``last_helped``,
    ``criticality`` (gate key -> weight) and ``tie_breaker``.  Returns
    (csg, selected class), the class None when the CSG is empty."""
    csg = build_csg(
        cgates,
        swaps,
        state.flights,
        pending,
        state.mapping,
        state.hw,
        state.profile,
        state.allowance_left(),
    )
    if not csg.vertices:
        return csg, None
    if state.flights:
        selected = next(color_classes(csg))
    else:
        selected = rank_and_select(csg, welsh_powell(csg), state.last_helped, criticality, tie_breaker)
    for vid in selected.members:
        v = csg.vertices[vid]
        if v.kind == "cgate":
            run_cgate(v.gate_key)
        elif v.kind == "swap":
            state.start_swap(v.edge, helps=v.helps)
    return csg, selected


class CircuitRun:
    """A gate circuit's progress through a ScheduleState: the gates that ran
    and the ready gates: not started, every predecessor run.  A circuit SWAP
    gate counts as run when its flight lands; until then its ``gate_key`` is
    in ``state.flights``.  Counting each gate's predecessors still to run
    keeps the ready set current without rescanning the circuit."""

    def __init__(self, circuit: LogicalCircuit, state: ScheduleState):
        self.circuit = circuit
        self.state = state
        self.executed: set[int] = set()
        self.ready: set[int] = {g.gate_id for g in frontier(circuit, set())}
        self._waiting = {gid: len(preds) for gid, preds in circuit.predecessors.items()}
        self._pairs = {
            g.gate_id: PendingPair(g.gate_id, (g.qubits[0], g.qubits[1]))
            for g in circuit.gates
            if g.kind != "u"
        }

    def done(self) -> bool:
        return len(self.executed) == len(self.circuit.gates)

    def _start(self, gate_id: int) -> None:
        if gate_id not in self.ready:
            raise InvariantError(f"gate {gate_id} started before it was ready")
        self.ready.remove(gate_id)

    def _finish(self, gate_id: int) -> None:
        self.executed.add(gate_id)
        for succ in self.circuit.successors[gate_id]:
            self._waiting[succ] -= 1
            if self._waiting[succ] == 0:
                self.ready.add(succ)

    def pending(self) -> tuple[list[PendingPair], list[Gate]]:
        """The ready two-qubit gates and the ready single-qubit gates, each
        by gate id."""
        two_q: list[PendingPair] = []
        singles: list[Gate] = []
        for gid in sorted(self.ready):
            pair = self._pairs.get(gid)
            if pair is None:
                singles.append(self.circuit.gate(gid))
            else:
                two_q.append(pair)
        return two_q, singles

    def run_gate(self, gate_id: int) -> None:
        """Start a circuit SWAP, or place any other two-qubit gate, on the
        physical qubits that hold its operands now."""
        self._start(gate_id)
        g = self.circuit.gate(gate_id)
        mapping = self.state.mapping
        pq = (mapping.phys(g.qubits[0]), mapping.phys(g.qubits[1]))
        if g.kind == "swap":
            self.state.start_swap(pq, gate_key=g.gate_id)
        else:
            self.state.place(Op(kind=g.kind, qubits=pq, gate_id=g.gate_id, param=g.param))
            self._finish(g.gate_id)

    def finish_layer(self, singles: list[Gate]) -> bool:
        """Place every ready single-qubit gate whose qubit is still free,
        close the layer and land the circuit SWAP gates that finish.  True
        when the layer had an op placed or a circuit SWAP landed."""
        for g in singles:
            p = self.state.mapping.phys(g.qubits[0])
            if self.state.qubit_free(p):
                self._start(g.gate_id)
                self.state.place(Op(kind="u", qubits=(p,), gate_id=g.gate_id, label=g.label))
                self._finish(g.gate_id)
        placed, completed = self.state.close_layer()
        for f in completed:
            if f.gate_key is not None:
                self._finish(f.gate_key)
                placed = True
        return placed


def compile_circuit(
    circuit: LogicalCircuit,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    initial_mapping: Mapping | None = None,
    allowance: float = 0.0,
    on_iteration=None,
) -> ScheduledCircuit:
    """Map and schedule a logical circuit onto hardware.

    Inserts SWAPs as needed and never lets the crosstalk ledger exceed
    ``allowance``, an excess error mass.  After more than ``num_qubits``
    iterations with no gate run it escapes: one SWAP at a time for its most
    critical gate (StallGuard).
    ``on_iteration`` gets ``{"iteration", "csg", "selected"}`` after each layer."""
    state = ScheduleState(hw, profile, allowance, circuit.num_qubits, initial_mapping)
    run = CircuitRun(circuit, state)
    criticality = circuit.criticality()
    guard = StallGuard(len(circuit.gates), hw)
    while not run.done():
        iterations = guard.next_iteration()
        state.open_layer()
        two_q, singles = run.pending()
        cgates = executable_pairs(two_q, state.mapping, hw)
        # Candidate SWAPs are judged against the mapping that will hold once
        # the in-flight routing SWAPs land, not the one of this instant.
        # Judging against the current mapping lets a new SWAP "help" by
        # undoing an in-flight one, and two such SWAPs can chase each other
        # forever.
        drained = state.drained()
        swaps = guard.escape_swaps(two_q, drained, state.flights, criticality)
        if swaps is None:
            # A SWAP that just landed is not undone at once.
            swaps = useful_swaps(two_q, drained, hw)
            swaps = [s for s in swaps if s.edge not in state.last_completed_edges]
        csg, selected = schedule_layer(
            state, cgates, swaps, two_q, run.run_gate, criticality=criticality
        )
        guard.record(run.finish_layer(singles), len(run.executed))
        if on_iteration is not None:
            on_iteration({"iteration": iterations, "csg": csg, "selected": selected})
    return state.result()


def expand_two_local(program: PauliProgram) -> LogicalCircuit:
    """Rewrite a strictly two-local Pauli program as a gate circuit: each
    string becomes an rzz on its two active qubits, wrapped in basis
    changes where the operator is X or Y."""
    gates: list[Gate] = []
    gid = 0

    def add(kind, qubits, param=None, label=None):
        nonlocal gid
        gates.append(Gate(gate_id=gid, kind=kind, qubits=tuple(qubits), param=param, label=label))
        gid += 1

    for s in program.strings:
        active = s.non_identity()
        if len(active) != 2:
            raise InvariantError(
                f"expand_two_local needs exactly two active operators per string, got {s.operators!r}"
            )
        for q in active:
            op = s.operators[q]
            if op in PAULI_PRE_LABEL:
                add("u", (q,), label=PAULI_PRE_LABEL[op])
        qa, qb = active
        add("rzz", (qa, qb), param=s.coefficient)
        for q in active:
            op = s.operators[q]
            if op in PAULI_POST_LABEL:
                add("u", (q,), label=PAULI_POST_LABEL[op])
    return LogicalCircuit(num_qubits=program.num_qubits, gates=gates)


def verify_routing(
    sched: ScheduledCircuit,
    hw: CouplingGraph,
    profile: CrosstalkProfile,
    circuit: LogicalCircuit | None = None,
    allowance: float = math.inf,
) -> bool:
    """Independent replay of a schedule.

    Walks the layers with its own mapping copy, checking adjacency, qubit
    exclusivity, SWAP slice bookkeeping, the crosstalk ledger (both
    completeness and the allowance bound), and the final mapping.  With the
    source ``circuit`` every op but a routing SWAP (one with no gate id)
    must start a circuit gate: one of its own kind, not started before,
    after all its predecessors have run, on the qubits the replayed mapping
    gives the gate's operands; a circuit SWAP gate counts as run when it
    lands, and every gate must run.  Synthesized schedules carry no gate
    ids, so they verify structurally.  Raises VerificationError on the
    first violation."""
    if sched.num_physical != hw.num_qubits:
        raise VerificationError(f"num_physical {sched.num_physical}, device has {hw.num_qubits}")
    for q, p in enumerate(sched.initial_mapping.placement):
        if not 0 <= p < sched.num_physical:
            raise VerificationError(
                f"initial mapping places logical {q} on physical {p}, outside the device"
            )
    mapping = sched.initial_mapping.copy()
    executed: set[int] = set()
    gate_of = {g.gate_id: g for g in circuit.gates} if circuit is not None else {}
    open_swaps: dict[Edge, int] = {}  # edge -> expected next slice
    swap_gate_edge: dict[Edge, int | None] = {}
    expected_ledger: list[tuple[int, tuple[Edge, Edge], float]] = []

    def start_gate(li: int, op: Op) -> None:
        if circuit is None:
            return
        g = gate_of.get(op.gate_id)
        if g is None or g.kind != op.kind:
            raise VerificationError(f"layer {li}: gate id {op.gate_id} names no circuit {op.kind}")
        if g.gate_id in executed or g.gate_id in swap_gate_edge.values():  # run or in flight
            raise VerificationError(f"layer {li}: gate {g.gate_id} runs twice")
        for p in circuit.predecessors[g.gate_id]:
            if p not in executed:
                raise VerificationError(f"layer {li}: gate {g.gate_id} before its predecessor {p}")
        got, want = tuple(op.qubits), tuple(mapping.phys(q) for q in g.qubits)
        if g.kind == "swap":
            got, want = normalize_edge(*got), normalize_edge(*want)
        if got != want:
            raise VerificationError(f"layer {li}: gate {g.gate_id} on {got}, mapping says {want}")
        if g.kind != "swap":
            executed.add(g.gate_id)

    for li, layer in enumerate(sched.layers):
        busy: set[int] = set()
        started_edges: list[Edge] = []
        layer_edges: set[Edge] = set()
        for op in layer:
            arity = OP_ARITY.get(op.kind)
            if arity is None:
                raise VerificationError(f"layer {li}: unknown operation kind {op.kind!r}")
            if len(op.qubits) != arity:
                raise VerificationError(
                    f"layer {li}: {op.kind} needs {arity} qubit(s), got {len(op.qubits)}"
                )
            for q in op.qubits:
                if type(q) is not int:
                    raise VerificationError(f"layer {li}: qubit {q!r} is not an integer")
                if not 0 <= q < sched.num_physical:
                    raise VerificationError(f"layer {li}: qubit {q} out of range")
                if q in busy:
                    raise VerificationError(f"layer {li}: qubit {q} used twice")
                busy.add(q)
            edge = op.phys_edge()
            if edge is not None:
                if not hw.has_edge(*edge):
                    raise VerificationError(f"layer {li}: {op.kind} on non-adjacent {edge}")
                layer_edges.add(edge)
            if op.kind != "swap":
                start_gate(li, op)
            elif op.slice_index not in range(1, SWAP_DURATION + 1):
                raise VerificationError(
                    f"layer {li}: SWAP slice {op.slice_index!r} is not 1, 2 or 3"
                )
            elif op.slice_index == 1:
                if edge in open_swaps:
                    raise VerificationError(f"layer {li}: SWAP restarted on {edge}")
                if op.gate_id is not None:
                    start_gate(li, op)
                open_swaps[edge] = 2
                swap_gate_edge[edge] = op.gate_id
                started_edges.append(edge)
            else:
                if open_swaps.get(edge) != op.slice_index:
                    raise VerificationError(
                        f"layer {li}: SWAP slice {op.slice_index} on {edge} out of order"
                    )
                if swap_gate_edge.get(edge) != op.gate_id:
                    raise VerificationError(f"layer {li}: SWAP on {edge} changed identity")
                open_swaps[edge] = op.slice_index + 1
        # a SWAP in flight runs its own next slice in every layer
        missing = open_swaps.keys() - {op.phys_edge() for op in layer if op.kind == "swap"}
        if missing:
            raise VerificationError(f"layer {li}: SWAP on {min(missing)} went missing mid-flight")
        # expected crosstalk entries: every profiled pair where at least one
        # side starts here, charged once (a layer's ops share no qubit)
        charged_pairs: set[tuple[Edge, Edge]] = set()
        for edge in started_edges + [op.phys_edge() for op in layer if op.kind in ("cx", "rzz")]:
            for other in layer_edges.intersection(profile.partners(edge)):
                pair = tuple(sorted((edge, other)))
                if pair not in charged_pairs:
                    charged_pairs.add(pair)
                    expected_ledger.append((li, pair, profile.excess_error(edge, other)))
        # close out finished swaps
        for edge in [e for e, nxt in open_swaps.items() if nxt > SWAP_DURATION]:
            gid = swap_gate_edge.pop(edge)
            if gid is None:
                mapping.apply_swap(*edge)
            else:
                executed.add(gid)
            del open_swaps[edge]

    if open_swaps:
        raise VerificationError(f"unfinished SWAPs at end of schedule: {sorted(open_swaps)}")
    if circuit is not None:
        missing = {g.gate_id for g in circuit.gates} - executed
        if missing:
            raise VerificationError(f"gates never executed: {sorted(missing)}")
    got = [(e.layer, e.edges, e.excess) for e in sched.crosstalk_ledger]
    if sorted(got) != sorted(expected_ledger):
        raise VerificationError(
            f"crosstalk ledger mismatch: schedule has {sorted(got)}, replay expects {sorted(expected_ledger)}"
        )
    total = sched.ledger_total()
    if total > allowance + 1e-9:
        raise VerificationError(f"ledger total {total:.6g} exceeds allowance {allowance:.6g}")
    if mapping.as_dict() != sched.final_mapping.as_dict():
        raise VerificationError("final mapping does not match replay")
    return True

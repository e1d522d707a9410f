"""Layer-by-layer scheduler built on coloring the candidate set graph.

Each iteration assembles the candidate set graph for the current frontier,
colors it (in-flight SWAPs pinned to the first color), picks one color
class by a ranked tie-break chain, and commits that class as the next
layer.  SWAPs occupy their qubits for three consecutive layers; the
logical-to-physical mapping changes when a routing SWAP finishes.  Every
crosstalk pair actually committed is written to a ledger at the layer
where the later of the two operations starts, and the ledger total can
never exceed the configured allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .csg import (
    Budget,
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


def _typed(value, types, where: str, optional: bool = False):
    """A schedule document's field ``value`` if it is of ``types`` (a bool
    never is) or, when ``optional``, None; a ParseError otherwise."""
    if (value is None and optional) or (isinstance(value, types) and not isinstance(value, bool)):
        return value
    raise ParseError(f"{where}: {value!r} has the wrong type")


@dataclass
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
        n = sum(1 for layer in self.layers for op in layer if op.kind == "swap" and op.slice_index == 1)
        return n

    def ledger_total(self) -> float:
        return sum(e.excess for e in self.crosstalk_ledger)

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
            d = data[name]
            try:
                keys = sorted(d, key=int)
            except ValueError as exc:
                raise ParseError(f"{name}: a logical qubit key is not an integer ({exc})") from exc
            placement = [_typed(d[k], int, f"{name}[{k!r}]") for k in keys]
            return Mapping(len(placement), num_physical, placement)

        layers = []
        for li, layer in enumerate(data["layers"]):
            ops = []
            for od in layer:
                ops.append(
                    Op(
                        kind=_typed(od["kind"], str, f"layer {li}: kind"),
                        qubits=tuple(od["qubits"]),
                        gate_id=_typed(od.get("gate_id"), int, f"layer {li}: gate_id", optional=True),
                        param=_typed(od.get("param"), (int, float), f"layer {li}: param", optional=True),
                        label=_typed(od.get("label"), str, f"layer {li}: label", optional=True),
                        slice_index=_typed(od.get("slice"), int, f"layer {li}: slice", optional=True),
                    )
                )
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


def welsh_powell(csg: Csg) -> list[ColorClass]:
    """Greedy coloring, highest degree first, with in-flight SWAPs forced
    into color 0 before anything else is considered.  Later vertices may
    still join color 0 when nothing pins them apart."""
    colors: dict[int, int] = {}
    for v in csg.vertices:
        if v.kind == "inprogress":
            colors[v.vertex_id] = 0
    order = sorted(
        (v for v in csg.vertices if v.vertex_id not in colors),
        key=lambda v: (-csg.degree(v.vertex_id), v.vertex_id),
    )
    for v in order:
        taken = {colors[n] for n in csg.neighbors(v.vertex_id) if n in colors}
        c = 0
        while c in taken:
            c += 1
        colors[v.vertex_id] = c
    by_color: dict[int, list[int]] = {}
    for vid, c in colors.items():
        by_color.setdefault(c, []).append(vid)
    return [ColorClass(color=c, members=sorted(vids)) for c, vids in sorted(by_color.items())]


@dataclass
class SelectionContext:
    """What rank_and_select knows beyond the CSG.  ``tie_breaker(csg, tied)``
    takes the CSG as an argument, so a context can be built before its CSG."""

    last_helped: frozenset = field(default_factory=frozenset)
    criticality: dict = field(default_factory=dict)
    tie_breaker: object = None  # callable(Csg, list[ColorClass]) -> ColorClass | None


def class_allowance_usage(csg: Csg, cls: ColorClass) -> float:
    members = set(cls.members)
    return sum(cost for i, j, cost in csg.permitted_pairs if i in members and j in members)


def _class_metrics(csg: Csg, cls: ColorClass, ctx: SelectionContext) -> tuple:
    verts = [csg.vertices[i] for i in cls.members]
    cgates = sum(1 for v in verts if v.kind == "cgate")
    continuing = sum(
        1 for v in verts if v.kind == "swap" and (v.helps & ctx.last_helped)
    )
    usage = class_allowance_usage(csg, cls)
    crit = 0
    for v in verts:
        if v.kind == "cgate":
            crit += ctx.criticality.get(v.gate_key, 0)
        elif v.helps:
            crit += max(ctx.criticality.get(k, 0) for k in v.helps)
    return (-len(cls.members), -cgates, -continuing, usage, -crit, min(cls.members))


def rank_and_select(csg: Csg, classes: list[ColorClass], ctx: SelectionContext) -> ColorClass:
    """Pick the color class to commit next.

    With SWAPs in flight the class holding them (color 0) is committed
    unconditionally: an interrupted SWAP is not a thing.  Otherwise the
    classes are cut down to the ``TOP_K`` largest and ranked by member
    count, cgate count, continued-help count, allowance usage, summed
    criticality, and finally lowest vertex id.  A caller-supplied
    ``ctx.tie_breaker(csg, tied)`` gets a shot at any tie that survives the
    first four keys.
    """
    if not classes:
        raise InvariantError("no color classes to select from")
    if any(v.kind == "inprogress" for v in csg.vertices):
        for cls in classes:
            if cls.color == 0:
                return cls
        raise InvariantError("in-flight SWAPs present but color 0 missing")
    short = sorted(classes, key=lambda c: (-len(c.members), min(c.members)))[:TOP_K]
    metrics = {cls.color: _class_metrics(csg, cls, ctx) for cls in short}
    best4 = min(metrics[c.color][:4] for c in short)
    tied = [c for c in short if metrics[c.color][:4] == best4]
    if len(tied) > 1 and ctx.tie_breaker is not None:
        chosen = ctx.tie_breaker(csg, tied)
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
        if self.target not in pending:
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
    with crosstalk charging against ``budget``, closes the layer advancing
    in-flight SWAPs."""

    def __init__(
        self,
        hw: CouplingGraph,
        budget: Budget,
        num_logical: int,
        initial_mapping: Mapping | None = None,
    ):
        if num_logical > hw.num_qubits:
            raise MappingError(f"program needs {num_logical} qubits, device has {hw.num_qubits}")
        if initial_mapping is None:
            initial_mapping = Mapping(num_logical, hw.num_qubits)
        self.hw = hw
        self.budget = budget
        self.initial_mapping = initial_mapping
        self.mapping = initial_mapping.copy()
        self.layers: list[list[Op]] = []
        self.ledger: list[LedgerEntry] = []
        self.flights: list[InProgressSwap] = []
        self.last_completed_edges: set[Edge] = set()
        self.last_helped: frozenset = frozenset()
        self._cur: list[Op] | None = None
        self._cur_edges: set[Edge] = set()
        self._cur_busy: set[int] = set()
        self._placed = False

    def allowance_left(self) -> float:
        return max(self.budget.allowance - self.budget.spent(self.ledger), 0.0)

    def drained(self) -> Mapping:
        """The mapping that will hold once the in-flight routing SWAPs land."""
        drained = self.mapping.copy()
        for f in self.flights:
            if f.gate_key is None:
                drained.apply_swap(*f.edge)
        return drained

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
            op = Op(
                kind="swap",
                qubits=f.edge,
                gate_id=f.gate_key if isinstance(f.gate_key, int) else None,
                slice_index=sl,
            )
            self._cur.append(op)
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
        self.place(
            Op(
                kind="swap",
                qubits=edge,
                gate_id=gate_key if isinstance(gate_key, int) else None,
                slice_index=1,
            )
        )
        self.flights.append(InProgressSwap(edge, SWAP_DURATION, helps, gate_key))

    def charge_preview(self, edge: Edge) -> float:
        """Budget delta that placing a two-qubit op on ``edge`` into the
        open layer would cost."""
        total = 0.0
        for other in self._cur_edges:
            if set(edge) & set(other):
                continue
            cost = self.budget.cost(edge, other)
            if cost is not None:
                total += cost
        return total

    def _charge(self, edge: Edge) -> None:
        layer_idx = len(self.layers)
        for other in sorted(self._cur_edges):
            if self.budget.cost(edge, other) is None:
                continue
            excess = self.budget.recorded_excess(edge, other)
            pair = tuple(sorted((edge, other)))
            self.ledger.append(LedgerEntry(layer=layer_idx, edges=pair, excess=excess))
        spent = self.budget.spent(self.ledger)
        if spent > self.budget.allowance + 1e-9:
            raise InvariantError(
                f"crosstalk ledger {spent:.6g} exceeds allowance {self.budget.allowance:.6g}"
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
    ctx: SelectionContext,
    run_cgate,
) -> tuple[Csg, ColorClass | None]:
    """One CSG layer step into the open layer: build the candidate set graph
    of ``cgates``, ``swaps`` and the state's flights, color it, pick a class
    by ``ctx`` and commit its members in vertex order, ``run_cgate(key)``
    for a cgate and a started SWAP for a candidate.  Returns (csg, selected
    class), the class None when the CSG is empty."""
    csg = build_csg(
        cgates,
        swaps,
        state.flights,
        pending,
        state.mapping,
        state.hw,
        state.budget,
        state.allowance_left(),
    )
    if not csg.vertices:
        return csg, None
    selected = rank_and_select(csg, welsh_powell(csg), ctx)
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
            g = self.circuit.gate(gid)
            if g.kind == "u":
                singles.append(g)
            else:
                two_q.append(PendingPair(g.gate_id, (g.qubits[0], g.qubits[1])))
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
    allowance_units: str = "error",
    on_iteration=None,
) -> ScheduledCircuit:
    """Map and schedule a logical circuit onto hardware.

    Inserts SWAPs as needed and never lets the crosstalk ledger exceed
    ``allowance``.  After more than ``num_qubits`` iterations with no gate
    run it escapes: one SWAP at a time for its most critical gate (StallGuard).
    ``on_iteration`` gets ``{"iteration", "csg", "selected"}`` after each layer."""
    budget = Budget(profile, allowance, allowance_units)
    state = ScheduleState(hw, budget, circuit.num_qubits, initial_mapping)
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
            swaps = useful_swaps(
                two_q, drained, hw, excluded_edges=state.last_completed_edges
            )
        ctx = SelectionContext(
            last_helped=state.last_helped - run.executed, criticality=criticality
        )
        csg, selected = schedule_layer(state, cgates, swaps, two_q, ctx, run.run_gate)
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
    allowance_units: str = "error",
) -> bool:
    """Independent replay of a schedule.

    Walks the layers with its own mapping copy, checking adjacency, qubit
    exclusivity, SWAP slice bookkeeping, the crosstalk ledger (both
    completeness and the allowance bound), and the final mapping.  With the
    source ``circuit`` it additionally checks gate identity, dependence
    order, and completeness; synthesized schedules carry no gate ids, so
    they verify structurally.  Raises VerificationError on the first
    violation."""
    if sched.num_physical != hw.num_qubits:
        raise VerificationError(f"num_physical {sched.num_physical}, device has {hw.num_qubits}")
    budget = Budget(profile, allowance, allowance_units)
    mapping = sched.initial_mapping.copy()
    executed: set[int] = set()
    gate_of = {g.gate_id: g for g in circuit.gates} if circuit is not None else {}
    open_swaps: dict[Edge, int] = {}  # edge -> expected next slice
    swap_gate_edge: dict[Edge, int | None] = {}
    expected_ledger: list[tuple[int, tuple[Edge, Edge], float]] = []
    active_prev: dict[Edge, int] = {}  # edges continuing from earlier layers

    def check_ready(li: int, g: Gate) -> None:
        for p in circuit.predecessors[g.gate_id]:
            if p not in executed:
                raise VerificationError(f"layer {li}: gate {g.gate_id} before its predecessor {p}")

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
            if op.kind == "swap":
                if op.slice_index not in range(1, SWAP_DURATION + 1):
                    raise VerificationError(
                        f"layer {li}: SWAP slice {op.slice_index!r} is not 1, 2 or 3"
                    )
                if op.slice_index == 1:
                    if edge in open_swaps:
                        raise VerificationError(f"layer {li}: SWAP restarted on {edge}")
                    if op.gate_id is not None and circuit is not None:
                        g = gate_of.get(op.gate_id)
                        if g is None or g.kind != "swap":
                            raise VerificationError(f"layer {li}: SWAP gate id {op.gate_id} unknown")
                        check_ready(li, g)
                        want = normalize_edge(mapping.phys(g.qubits[0]), mapping.phys(g.qubits[1]))
                        if edge != want:
                            raise VerificationError(
                                f"layer {li}: SWAP gate {g.gate_id} on {edge}, mapping says {want}"
                            )
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
            elif op.kind in ("cx", "rzz") and circuit is not None:
                g = gate_of.get(op.gate_id)
                if g is None or g.kind != op.kind:
                    raise VerificationError(f"layer {li}: unknown gate id {op.gate_id}")
                check_ready(li, g)
                want = (mapping.phys(g.qubits[0]), mapping.phys(g.qubits[1]))
                if tuple(op.qubits) != want:
                    raise VerificationError(
                        f"layer {li}: gate {g.gate_id} placed on {op.qubits}, mapping says {want}"
                    )
                if g.gate_id in executed:
                    raise VerificationError(f"layer {li}: gate {g.gate_id} executed twice")
                executed.add(g.gate_id)
            elif op.kind == "u" and circuit is not None:
                g = gate_of.get(op.gate_id)
                if g is not None:
                    check_ready(li, g)
                    if (op.qubits[0],) != (mapping.phys(g.qubits[0]),):
                        raise VerificationError(f"layer {li}: gate {g.gate_id} on wrong qubit")
                    executed.add(g.gate_id)
        # continuing swap edges must occupy their qubits
        for edge, nxt in open_swaps.items():
            if edge not in layer_edges and nxt <= SWAP_DURATION:
                raise VerificationError(f"layer {li}: SWAP on {edge} went missing mid-flight")
        # expected crosstalk entries: every profile pair where at least one
        # side starts here, charged once
        charged_pairs: set[tuple[Edge, Edge]] = set()
        for edge in started_edges + [
            op.phys_edge() for op in layer if op.kind in ("cx", "rzz") and op.phys_edge()
        ]:
            if edge is None:
                continue
            for other in layer_edges:
                if other == edge or set(edge) & set(other):
                    continue
                if profile.record_for(edge, other) is None:
                    continue
                pair = tuple(sorted((edge, other)))
                if pair in charged_pairs:
                    continue
                # both new: charge once; one continuing: charge at the new one
                if other in active_prev and edge in active_prev:
                    continue
                charged_pairs.add(pair)
                expected_ledger.append((li, pair, budget.recorded_excess(edge, other)))
        # close out finished swaps, then roll actives forward
        for edge in [e for e, nxt in open_swaps.items() if nxt > SWAP_DURATION]:
            gid = swap_gate_edge.pop(edge)
            if gid is None:
                mapping.apply_swap(*edge)
            else:
                if circuit is not None:
                    g = gate_of.get(gid)
                    if g is None or g.kind != "swap":
                        raise VerificationError(f"layer {li}: SWAP gate id {gid} unknown")
                executed.add(gid)
            del open_swaps[edge]
        active_prev = {e: 1 for e in open_swaps}

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
    total = budget.spent(sched.crosstalk_ledger)
    if total > allowance + 1e-9:
        raise VerificationError(f"ledger total {total:.6g} exceeds allowance {allowance:.6g}")
    if mapping.as_dict() != sched.final_mapping.as_dict():
        raise VerificationError("final mapping does not match replay")
    return True

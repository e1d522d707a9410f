"""Layer-by-layer scheduler built on coloring the candidate set graph.

Each iteration's ``schedule_layer`` takes the layer's cgates and candidate
SWAPs as ``(edge, helps, gate key)`` items, the vertex format of
``build_csg``: the circuit compiler finds them in one pass over its ready
gates (``_layer_items``), synthesis from its ladder (``_vertex_items``).
It assembles the candidate set graph of the items and the flights and
commits one color class as the next layer: while SWAPs are in flight the
first color, which holds them, and otherwise the class a ranked tie-break
chain picks from a full coloring.  Unless an ``on_iteration`` hook is to
receive every graph, two kinds of layer build none.  A layer with no
choice commits at once, whatever the allowance: with no item it commits
nothing new, and with no flight and one item it commits that item.  A
flight layer whose allowance left can pay for no crosstalk pair gets its
first color from the items no flight is tied to
(``csg.flight_color_zero``).  SWAPs occupy their qubits for three
consecutive layers; the logical-to-physical mapping changes when a routing
SWAP finishes.  Every crosstalk pair actually committed is written to a
ledger at the layer where the later of the two operations starts.  Every
allowance test admits a price up to ``allowance_left()``, with no absolute
slack, so the ledger total exceeds the allowance only by the rounding of
adding the prices back up, which ``LEDGER_RTOL`` bounds relative to the
allowance: exact at 0, void at inf.

Each iteration's allowance tests have one outcome over a window [lo, hi)
of allowance left, so ``schedule_layer`` returns its decision as a record
(lo, hi, items) that its caller commits, and a compile inside an allowance
search keeps them as a trail.  A later compile of the same inputs follows
the earlier trails whose next record's window holds its live
``allowance_left()`` and commits that record instead of deciding; by
induction over iterations its state is the trail's, so the window was
built for that very value, and the replay is what a fresh compile does.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import reduce
from operator import add, attrgetter
from types import MappingProxyType

# No code here calls executable_pairs any more.  It stays imported because
# perfbench/tracing.py patches it by name in this module's namespace, and
# an install fails on a missing name.
from .csg import (
    Csg,
    InProgressSwap,
    PendingPair,
    build_csg,
    closing_swap,
    executable_pairs,
    flight_color_zero,
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

# Classes ranked in full by rank_and_select, cut by (size, lowest member).
TOP_K = 3

LEDGER_RTOL = 1e-9  # see the module docstring

# An allowance search's list of (inputs, trail) pairs, one per finished
# hook-free compile; None outside a search (see compile_circuit).
SEARCH_TRAILS: ContextVar[list | None] = ContextVar("search_trails", default=None)

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
        """Read a schedule document back, type-checking every field but the
        elements of an op's ``qubits`` (ParseError), and each ledger entry
        must name two edges of two qubits; an op's qubits, and whether the
        schedule holds together, are verify_routing's question."""
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

        def pair(value, where: str) -> list:
            if len(_typed(value, list, where)) != 2:
                raise ParseError(f"{where}: {value!r} does not hold two")
            return value

        ledger = [
            LedgerEntry(
                layer=_typed(ed["layer"], int, "ledger layer"),
                edges=tuple(
                    tuple(_typed(q, int, "ledger edge qubit") for q in pair(edge, "ledger edge"))
                    for edge in pair(ed["edges"], "ledger edges")
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
    first.  ``csg.flight_color_zero`` gives what the first class of a
    flight layer that permits no crosstalk pair commits, without the full
    graph; this is its reference."""
    neighbors = csg.adjacency
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
    vertices = csg.vertices
    cgates = continuing = crit = 0
    for i in cls.members:
        v = vertices[i]
        if v.kind == "cgate":
            cgates += 1
            crit += criticality.get(v.gate_key, 0)
        elif v.helps:
            continuing += v.kind == "swap" and not last_helped.isdisjoint(v.helps)
            crit += max(criticality.get(k, 0) for k in v.helps)
    pairs = csg.permitted_pairs
    members = set(cls.members) if pairs else ()
    usage = left_sum(cost for i, j, cost in pairs if i in members and j in members)
    return (-len(cls.members), -cgates, -continuing, usage, -crit, min(cls.members))


def rank_and_select(
    csg: Csg, classes: list[ColorClass], last_helped: frozenset, criticality, tie_breaker
) -> ColorClass:
    """Pick the color class to commit next from a CSG with no SWAP in
    flight (``schedule_layer`` takes the first class while one is).

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
    """The iteration cap, idle limit, escape mode and SWAP candidates of one
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

    def escape_swaps(self, pending: list, state: "ScheduleState", criticality=MappingProxyType({})):
        """None unless escaping; then [] while flights are open, else one
        least-error SWAP toward the most critical gate of ``pending``."""
        if self.target is None or self.target not in pending:
            self.target = None
            if self.gates_idle > self.hw.num_qubits and pending:
                self.target = min(pending, key=lambda p: (-criticality.get(p.key, 0), p.key))
        if self.target is None:
            return None
        swap = None if state.flights else closing_swap(self.target, state.drained(), self.hw)
        return [] if swap is None else [swap]

    def swaps(self, pending: list, state: "ScheduleState", criticality=MappingProxyType({})):
        """A synthesis layer's candidate SWAPs: ``escape_swaps`` while
        escaping, else those that bring a gate of ``pending`` closer on the
        drained mapping, less any whose SWAP just landed (``_layer_items``
        gives the circuit compiler's, and why)."""
        swaps = self.escape_swaps(pending, state, criticality)
        if swaps is None:
            landed = state.last_completed_edges
            swaps = [s for s in useful_swaps(pending, state.drained(), self.hw) if s.edge not in landed]
        return swaps


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
        if not allowance >= 0:  # NaN fails too
            raise ValueError(f"allowance must be >= 0, got {allowance}")
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
        ``commit``, as synthesis's tie-breaker does: the SWAPs a commit
        starts move it."""
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
        cur = self._cur = []
        edges = self._cur_edges = set()
        busy = self._cur_busy = set()
        self._placed = False
        for f in self.flights:
            edge = f.edge
            cur.append(Op("swap", edge, f.gate_key, None, None, SWAP_DURATION - f.remaining_time + 1))
            edges.add(edge)
            busy.update(edge)

    def qubit_free(self, phys: int) -> bool:
        return phys not in self._cur_busy

    def place(self, op: Op) -> None:
        cur = self._cur
        if cur is None:
            raise InvariantError("no open layer")
        busy = self._cur_busy
        qubits = op.qubits
        for q in qubits:
            if q in busy:
                raise InvariantError(f"physical qubit {q} scheduled twice in layer {len(self.layers)}")
            if not 0 <= q < self.hw.num_qubits:
                raise InvariantError(f"physical qubit {q} out of range")
        if len(qubits) == 2:
            a, b = qubits
            edge = (a, b) if a < b else normalize_edge(a, b)
            if edge not in self.hw.edges:
                raise InvariantError(f"operation on non-adjacent qubits {edge}")
            self._charge(edge)
            self._cur_edges.add(edge)
        cur.append(op)
        busy.update(qubits)
        self._placed = True

    def start_swap(self, edge: Edge, helps: frozenset = frozenset(), gate_key=None) -> None:
        edge = normalize_edge(*edge)
        self.place(Op("swap", edge, gate_key, None, None, 1))
        self.flights.append(InProgressSwap(edge, SWAP_DURATION, helps, gate_key))
        if gate_key is None:
            self._drained.apply_swap(*edge)

    def charge_preview(self, edge: Edge) -> float:
        """Excess error that placing a two-qubit op on ``edge``, whose qubits
        are free, into the open layer would charge."""
        partners = self.profile.partners(edge)
        return left_sum(partners[other] for other in self._cur_edges if other in partners)

    def _charge(self, edge: Edge) -> None:
        """Write a ledger entry for each profiled pair of ``edge`` with a
        link of the open layer, and add each entry's excess to the running
        total in ledger order, which is the ledger's ``ledger_total``.  Only
        an entry moves the total, so only then is it checked."""
        partners = self.profile.partners(edge)
        hits = self._cur_edges.intersection(partners)
        if not hits:
            return
        layer_idx = len(self.layers)
        for other in sorted(hits):
            excess = partners[other]
            self.ledger.append(LedgerEntry(layer_idx, (edge, other) if edge < other else (other, edge), excess))
            self._spent += excess
        if self._spent > self.allowance * (1 + LEDGER_RTOL):
            raise InvariantError(
                f"crosstalk ledger {self._spent:.6g} exceeds allowance {self.allowance:.6g}"
            )

    def close_layer(self) -> tuple[bool, list[InProgressSwap]]:
        """Commit the open layer.  Returns (was an op placed in it?, completed
        flights); the slices of SWAPs already in flight are not placements.
        An empty layer is dropped rather than padded in."""
        ops = self._cur
        if ops is None:
            raise InvariantError("no open layer")
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
        landed = self.last_completed_edges = set()
        if completed:
            self.flights = [f for f in self.flights if f.remaining_time > 0]
            for f in completed:
                if f.gate_key is None:
                    self.mapping.apply_swap(*f.edge)
                    landed.add(f.edge)
        self.last_helped = frozenset(helped)
        return self._placed, completed

    def commit(self, items, run_cgate) -> None:
        """Commit ``items``, ``(edge, helps, gate key)`` each, in order:
        ``run_cgate(key)`` for a cgate, a started SWAP where the key is None."""
        for edge, helps, key in items:
            if key is None:
                self.start_swap(edge, helps=helps)
            else:
                run_cgate(key)


def schedule_layer(
    state: ScheduleState,
    items: list[tuple],
    pending: list[PendingPair],
    *,
    criticality=MappingProxyType({}),
    tie_breaker=None,
    keep_csg: bool = True,
) -> tuple[Csg | None, ColorClass | None, tuple]:
    """Decide one CSG layer step into the open layer, committing nothing:
    build the candidate set graph of ``items``, the cgates and candidate
    SWAPs in ``build_csg``'s format, and the state's flights and pick a
    class.  With SWAPs in flight the class is the first of
    ``color_classes``, the one holding them: an interrupted SWAP is not a
    thing.  Otherwise the CSG is colored in full and ``rank_and_select``
    picks by the state's ``last_helped``, ``criticality`` (gate key ->
    weight) and ``tie_breaker``.  Returns (csg, selected class, record), the
    class None when the CSG is empty; the caller commits the record's items
    with ``state.commit``.

    The record is ``(lo, hi, items)``: the window [lo, hi) of allowance
    left over which each of the step's allowance tests has the same
    outcome, and the items of the class's members in vertex order, flights
    left out, each SWAP's helps frozen.  The window is ``Csg.window``, [0,
    inf) for a layer with no choice, [0, cheapest_excess) for a flight
    layer that permits no pair, and a flight layer that builds the CSG
    raises lo to ``cheapest_excess``.

    Unless ``keep_csg`` asks for the CSG, two kinds of layer are decided
    without building it and return no csg and no class.  A layer with no
    choice: with no item it commits nothing new, and with no flight and one
    item that item; every allowance gives it that commit.  A flight layer
    whose allowance left is below the profile's ``cheapest_excess``: it
    permits no pair, and ``flight_color_zero`` gives what its color 0
    commits."""
    flights = state.flights
    lo, hi = 0.0, math.inf
    selected = chosen = None
    if not keep_csg:
        if flights:
            cheapest = state.profile.cheapest_excess
            if not items:
                chosen = ()
            elif state.allowance_left() < cheapest:
                hi = cheapest
                chosen = flight_color_zero(items, flights, pending, state.mapping, state.hw, state.profile)
            else:
                lo = cheapest
        elif len(items) < 2:
            chosen = items
    if chosen is not None:
        chosen = [(edge, frozenset(helps), key) for edge, helps, key in chosen] if chosen else ()
        return None, None, (lo, hi, chosen)
    csg = build_csg(items, flights, pending, state.mapping, state.hw, state.profile, state.allowance_left())
    lo, hi = max(lo, csg.window[0]), csg.window[1]
    items = ()
    if csg.vertices:
        if flights:
            selected = next(color_classes(csg))
        else:
            selected = rank_and_select(csg, welsh_powell(csg), state.last_helped, criticality, tie_breaker)
        members = map(csg.vertices.__getitem__, selected.members)
        items = [(v.edge, v.helps, v.gate_key) for v in members if v.kind != "inprogress"]
    return csg, selected, (lo, hi, items)


def _vertex_items(cgates: list[PendingPair], swaps: list, l2p: list[int], busy=()) -> list[tuple]:
    """``schedule_layer``'s items from ``cgates`` on the placement ``l2p``
    and the candidates ``swaps`` (``SwapCandidate`` each): the cgates by
    key, then the candidates off the in-flight ``busy`` edges by edge."""
    cgates = sorted(cgates, key=attrgetter("key"))
    items = [(normalize_edge(l2p[p.logicals[0]], l2p[p.logicals[1]]), frozenset(), p.key) for p in cgates]
    swaps = sorted(swaps, key=attrgetter("edge"))
    return items + [(s.edge, s.helps, None) for s in swaps if s.edge not in busy]


def _layer_items(state: ScheduleState, pending: list[PendingPair], escape) -> list[tuple]:
    """A circuit compile's ``schedule_layer`` items in one pass over its ready
    gates ``pending``, by key: their cgates, then the guard's ``escape``
    SWAPs (none while flights are open) or, not escaping, their
    ``closer_swaps`` on the drained mapping merged per edge, an unfrozen
    help list each, less the in-flight edges and those a SWAP just landed
    on.  Drained, a new SWAP cannot "help" by undoing an in-flight one, nor,
    so filtered, a landed one: such SWAPs can chase each other forever."""
    edges, closer_swaps = state.hw.edges, state.hw.closer_swaps
    l2p, drained = state.mapping.placement, state.drained().placement
    items, helps = [], {}
    for p in pending:
        x, y = p.logicals
        a, b = l2p[x], l2p[y]
        edge = (a, b) if a < b else (b, a)
        if edge in edges:
            items.append((edge, frozenset(), p.key))
        if escape is None:
            for edge in closer_swaps(drained[x], drained[y]):
                helps.setdefault(edge, []).append(p.key)
    if escape is not None:
        return items + [(s.edge, s.helps, None) for s in escape]
    if helps:
        skip = state.last_completed_edges.union([f.edge for f in state.flights])
        items += [(edge, helps[edge], None) for edge in sorted(helps) if edge not in skip]
    return items


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
        ready = self.ready
        if gate_id not in ready:
            raise InvariantError(f"gate {gate_id} started before it was ready")
        ready.remove(gate_id)

    def _finish(self, gate_id: int) -> None:
        self.executed.add(gate_id)
        waiting, ready = self._waiting, self.ready
        for succ in self.circuit.successors[gate_id]:
            left = waiting[succ] - 1
            waiting[succ] = left
            if not left:
                ready.add(succ)

    def pending(self) -> tuple[list[PendingPair], list[Gate]]:
        """The ready two-qubit gates and the ready single-qubit gates, each
        by gate id."""
        pairs, gates = self._pairs, self.circuit.gates
        two_q: list[PendingPair] = []
        singles: list[Gate] = []
        for gid in sorted(self.ready):
            pair = pairs.get(gid)
            if pair is None:
                singles.append(gates[gid])
            else:
                two_q.append(pair)
        return two_q, singles

    def run_gate(self, gate_id: int) -> None:
        """Start a circuit SWAP, or place any other two-qubit gate, on the
        physical qubits that hold its operands now."""
        self._start(gate_id)
        g = self.circuit.gates[gate_id]
        state = self.state
        l2p = state.mapping.placement
        a, b = g.qubits
        pq = (l2p[a], l2p[b])
        if g.kind == "swap":
            state.start_swap(pq, gate_key=gate_id)
        else:
            state.place(Op(g.kind, pq, gate_id, g.param))
            self._finish(gate_id)

    def finish_layer(self, singles: list[Gate]) -> bool:
        """Place every ready single-qubit gate whose qubit is still free,
        close the layer and land the circuit SWAP gates that finish.  True
        when the layer had an op placed or a circuit SWAP landed."""
        state = self.state
        l2p = state.mapping.placement
        for g in singles:
            p = l2p[g.qubits[0]]
            if state.qubit_free(p):
                self._start(g.gate_id)
                state.place(Op("u", (p,), g.gate_id, None, g.label))
                self._finish(g.gate_id)
        placed, completed = state.close_layer()
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
    ``on_iteration`` gets ``{"iteration", "csg", "selected"}`` after each layer;
    without it, inside an allowance search, the compile keeps a trail and
    follows earlier ones (see the module docstring)."""
    state = ScheduleState(hw, profile, allowance, circuit.num_qubits, initial_mapping)
    run = CircuitRun(circuit, state)
    criticality = circuit.criticality()
    guard = StallGuard(len(circuit.gates), hw)
    trails = SEARCH_TRAILS.get() if on_iteration is None else None
    follow = ()  # the earlier trails of these inputs that this compile is still on
    if trails is not None:
        inputs = (circuit, hw, profile, tuple(state.initial_mapping.placement))
        follow = [
            t
            for (*objects, placement), t in trails
            if placement == inputs[-1] and all(a is b for a, b in zip(objects, inputs))
        ]
        trail = []
    while not run.done():
        iterations = guard.next_iteration()
        state.open_layer()
        two_q, singles = run.pending()
        if follow:
            n, left = iterations - 1, state.allowance_left()
            follow = [t for t in follow if t[n][0] <= left < t[n][1]]
        escape = guard.escape_swaps(two_q, state, criticality)  # the target moves on a replay too
        if follow:
            record = follow[0][n]
        else:
            items = _layer_items(state, two_q, escape)
            csg, selected, record = schedule_layer(
                state, items, two_q, criticality=criticality, keep_csg=on_iteration is not None
            )
        state.commit(record[2], run.run_gate)
        guard.record(run.finish_layer(singles), len(run.executed))
        if trails is not None:
            trail.append(record)
        if on_iteration is not None:
            on_iteration({"iteration": iterations, "csg": csg, "selected": selected})
    if trails is not None:
        trails.append((inputs, trail))
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

    Walks the layers once with its own mapping copy, checking adjacency,
    qubit exclusivity, SWAP slice bookkeeping, the crosstalk ledger (both
    completeness and the allowance bound), and the final mapping.  Each
    op's edge is derived once, from its ``qubits`` as they are now, and
    the same walk collects the layer's edges, the edges of the ops that
    start in it, which the ledger prices, and the SWAPs that finish in it;
    it counts the in-flight SWAPs that ran a slice.  With the source
    ``circuit``, whose qubit count must be the one the schedule's mapping
    places, every op but a routing SWAP (one with no gate id) must start a
    circuit gate: one of its own kind, not started before, after all its
    predecessors have run, on the qubits the replayed mapping gives the
    gate's operands; a circuit SWAP gate counts as run when it lands, and
    every gate must run.  Synthesized schedules carry no gate ids, so they
    verify structurally.  Raises VerificationError on the first violation."""
    num_physical = sched.num_physical
    if num_physical != hw.num_qubits:
        raise VerificationError(f"num_physical {num_physical}, device has {hw.num_qubits}")
    for q, p in enumerate(sched.initial_mapping.placement):
        if not 0 <= p < num_physical:
            raise VerificationError(
                f"initial mapping places logical {q} on physical {p}, outside the device"
            )
    num_logical = sched.initial_mapping.num_logical
    if circuit is not None and circuit.num_qubits != num_logical:
        raise VerificationError(
            f"circuit has {circuit.num_qubits} logical qubits, the schedule's mapping places {num_logical}"
        )
    mapping = sched.initial_mapping.copy()
    l2p = mapping.placement
    device_edges = hw.edges
    partners_of = profile.partners
    executed: set[int] = set()
    gate_of = {g.gate_id: g for g in circuit.gates} if circuit is not None else {}
    open_swaps: dict[Edge, int] = {}  # edge -> expected next slice
    swap_gate_edge: dict[Edge, int | None] = {}
    expected_ledger: list[tuple[int, tuple[Edge, Edge], float]] = []

    def start_gate(li: int, op: Op, got) -> None:
        gid = op.gate_id
        g = gate_of.get(gid)
        if g is None or g.kind != op.kind:
            raise VerificationError(f"layer {li}: gate id {gid} names no circuit {op.kind}")
        if gid in executed or gid in swap_gate_edge.values():  # run or in flight
            raise VerificationError(f"layer {li}: gate {gid} runs twice")
        for p in circuit.predecessors[gid]:
            if p not in executed:
                raise VerificationError(f"layer {li}: gate {gid} before its predecessor {p}")
        want = tuple([l2p[q] for q in g.qubits])
        if g.kind == "swap":
            want = normalize_edge(*want)
        if got != want:
            raise VerificationError(f"layer {li}: gate {gid} on {got}, mapping says {want}")
        if g.kind != "swap":
            executed.add(gid)

    later_slices = range(2, SWAP_DURATION + 1)
    for li, layer in enumerate(sched.layers):
        busy: set[int] = set()
        layer_edges: set[Edge] = set()
        priced: list[Edge] = []  # the edges of the ops that start here
        in_flight, finished = len(open_swaps), []
        for op in layer:
            kind, qubits = op.kind, op.qubits
            arity = OP_ARITY.get(kind)
            if arity is None:
                raise VerificationError(f"layer {li}: unknown operation kind {kind!r}")
            if len(qubits) != arity:
                raise VerificationError(f"layer {li}: {kind} needs {arity} qubit(s), got {len(qubits)}")
            for q in qubits:
                if type(q) is not int:
                    raise VerificationError(f"layer {li}: qubit {q!r} is not an integer")
                if not 0 <= q < num_physical:
                    raise VerificationError(f"layer {li}: qubit {q} out of range")
                if q in busy:
                    raise VerificationError(f"layer {li}: qubit {q} used twice")
                busy.add(q)
            edge = None
            if arity == 2:
                a, b = qubits
                edge = (a, b) if a < b else (b, a)
                if edge not in device_edges:
                    raise VerificationError(f"layer {li}: {kind} on non-adjacent {edge}")
                layer_edges.add(edge)
            if kind != "swap":
                if circuit is not None:
                    start_gate(li, op, tuple(qubits))
                if edge is not None:
                    priced.append(edge)
                continue
            sl = op.slice_index
            if sl == 1:
                if edge in open_swaps:
                    raise VerificationError(f"layer {li}: SWAP restarted on {edge}")
                if op.gate_id is not None and circuit is not None:
                    start_gate(li, op, edge)
                open_swaps[edge] = 2
                swap_gate_edge[edge] = op.gate_id
                priced.append(edge)
            elif sl not in later_slices:
                raise VerificationError(f"layer {li}: SWAP slice {sl!r} is not 1, 2 or 3")
            else:
                if open_swaps.get(edge) != sl:
                    raise VerificationError(f"layer {li}: SWAP slice {sl} on {edge} out of order")
                if swap_gate_edge.get(edge) != op.gate_id:
                    raise VerificationError(f"layer {li}: SWAP on {edge} changed identity")
                open_swaps[edge] = sl + 1
                in_flight -= 1
                if sl == SWAP_DURATION:
                    finished.append(edge)
        # a SWAP in flight runs its own next slice in every layer; the
        # layer's ops share no qubit, so each slice that ran is another flight's
        if in_flight:
            ran = {normalize_edge(*op.qubits) for op in layer if op.kind == "swap"}
            raise VerificationError(f"layer {li}: SWAP on {min(open_swaps.keys() - ran)} went missing mid-flight")
        # expected crosstalk entries: every profiled pair where at least one
        # side starts here, charged once (a layer's ops share no qubit)
        charged_pairs: set[tuple[Edge, Edge]] = set()
        for edge in priced:
            partners = partners_of(edge)
            for other in layer_edges.intersection(partners):
                pair = (edge, other) if edge < other else (other, edge)
                if pair not in charged_pairs:
                    charged_pairs.add(pair)
                    expected_ledger.append((li, pair, partners[other]))
        # close out finished swaps
        for edge in finished:
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
    if total > allowance * (1 + LEDGER_RTOL):
        raise VerificationError(f"ledger total {total:.6g} exceeds allowance {allowance:.6g}")
    if mapping.as_dict() != sched.final_mapping.as_dict():
        raise VerificationError("final mapping does not match replay")
    return True

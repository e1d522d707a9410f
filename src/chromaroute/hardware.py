"""Hardware model: coupling graph, error rates, and the crosstalk profile.

The device is an undirected connected coupling graph.  Crosstalk is modeled
pairwise: for a pair of links (e1, e2) the profile stores the conditional
two-qubit error of each link while the other is driven simultaneously.  The
amount by which the conditional errors exceed the isolated ones is the
"excess" that the scheduler budgets against an allowance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType

from .errors import HardwareError, MappingError

Edge = tuple[int, int]


def normalize_edge(a: int, b: int) -> Edge:
    if a == b:
        raise HardwareError(f"self-loop edge ({a},{b})")
    return (a, b) if a < b else (b, a)


def bfs_depths(adj, root: int, skip=None) -> dict[int, int]:
    """Hop count from ``root`` to every node it reaches without passing
    through ``skip``; ``adj[n]`` lists the neighbors of node ``n``, a
    device's ``adjacency`` or a qubit graph's neighbor dict."""
    depth = {root: 0}
    order = [root]
    for cur in order:  # a FIFO queue: the loop reaches what it appends
        nxt_depth = depth[cur] + 1
        for nxt in adj[cur]:
            if nxt not in depth and nxt != skip:
                depth[nxt] = nxt_depth
                order.append(nxt)
    return depth


class CouplingGraph:
    """Undirected connected device graph with per-edge and per-qubit rates.

    Missing error rates load, except on a link that a crosstalk record
    names (``CrosstalkProfile`` refuses it); fidelity estimation raises if
    it actually needs one.  Missing T1/T2 entries mean "no decay data" and
    are treated as infinite.
    """

    def __init__(
        self,
        num_qubits: int,
        edges: list[Edge],
        edge_error: dict[Edge, float] | None = None,
        t1: dict[int, float] | None = None,
        t2: dict[int, float] | None = None,
        gate_time_cx: float = 1.0,
        single_qubit_error: dict[int, float] | None = None,
    ):
        if num_qubits <= 0:
            raise HardwareError("device needs a positive qubit count")
        if len(edges) < num_qubits - 1:  # before a list per qubit is built
            raise HardwareError(f"{len(edges)} edges cannot connect {num_qubits} qubits")
        self.num_qubits = num_qubits
        self.edges: set[Edge] = set()
        self.adjacency: list[list[int]] = [[] for _ in range(num_qubits)]
        for a, b in edges:
            e = normalize_edge(a, b)
            if not (0 <= e[0] < num_qubits and 0 <= e[1] < num_qubits):
                raise HardwareError(f"edge {e} out of range")
            if e in self.edges:
                raise HardwareError(f"duplicate edge {e}")
            self.edges.add(e)
            self.adjacency[e[0]].append(e[1])
            self.adjacency[e[1]].append(e[0])
        for neigh in self.adjacency:
            neigh.sort()
        self.edge_error = dict(edge_error or {})
        for e, eps in self.edge_error.items():
            if e not in self.edges:
                raise HardwareError(f"error rate for unknown edge {e}")
            if not 0.0 <= eps < 1.0:
                raise HardwareError(f"edge error {eps} outside [0,1) for {e}")
        self.t1 = dict(t1 or {})
        self.t2 = dict(t2 or {})
        for name, table in (("t1", self.t1), ("t2", self.t2)):
            for q, val in table.items():
                if not val > 0:  # also rejects NaN; +inf means no decay
                    raise HardwareError(f"{name}[{q}] must be positive, got {val}")
        if not 0 < gate_time_cx < math.inf:
            raise HardwareError(f"gate_time_cx must be positive and finite, got {gate_time_cx}")
        self.gate_time_cx = gate_time_cx
        self.single_qubit_error = dict(single_qubit_error or {})
        for q, eps in self.single_qubit_error.items():
            if not 0.0 <= eps < 1.0:
                raise HardwareError(f"single-qubit error {eps} outside [0,1) for {q}")
        self._check_connected()
        self._dist: list[list[int]] | None = None
        self._closer: dict[int, tuple[Edge, ...]] = {}  # keyed min * num_qubits + max

    def _check_connected(self):
        reached = bfs_depths(self.adjacency, 0)
        missing = [q for q in range(self.num_qubits) if q not in reached]
        if missing:
            raise HardwareError(f"coupling graph is disconnected; unreachable: {missing}")

    def has_edge(self, a: int, b: int) -> bool:
        return normalize_edge(a, b) in self.edges

    def all_pairs_distance(self) -> list[list[int]]:
        """Hop-count distance matrix computed by BFS from every qubit."""
        if self._dist is None:
            qubits = range(self.num_qubits)
            depths = [bfs_depths(self.adjacency, src) for src in qubits]
            self._dist = [[depth[q] for q in qubits] for depth in depths]
        return self._dist

    def distance(self, a: int, b: int) -> int:
        return self.all_pairs_distance()[a][b]

    def closer_swaps(self, pa: int, pb: int) -> tuple[Edge, ...]:
        """The sorted edges whose SWAP brings qubits ``pa`` and ``pb`` one
        hop closer; () when they are adjacent.  Only an edge at one of the
        two moves them, and a SWAP moves at most one of two non-adjacent
        qubits.  Memoised per pair: (pb, pa) has the same answer."""
        key = pa * self.num_qubits + pb if pa < pb else pb * self.num_qubits + pa
        swaps = self._closer.get(key)
        if swaps is None:
            dist = self.all_pairs_distance()
            cur = dist[pa][pb]
            found = []
            if cur > 1:
                for moved, fixed in ((pa, pb), (pb, pa)):
                    for nxt in self.adjacency[moved]:
                        if dist[nxt][fixed] == cur - 1:
                            found.append((moved, nxt) if moved < nxt else (nxt, moved))
            swaps = self._closer[key] = tuple(sorted(found))
        return swaps

    def error_of(self, edge: Edge) -> float:
        e = normalize_edge(*edge)
        if e not in self.edges:
            raise HardwareError(f"unknown edge {e}")
        if e not in self.edge_error:
            raise HardwareError(f"missing error rate for edge {e}")
        return self.edge_error[e]

    def t1_of(self, q: int) -> float:
        return self.t1.get(q, math.inf)

    def t2_of(self, q: int) -> float:
        return self.t2.get(q, math.inf)

    def single_qubit_error_of(self, q: int) -> float:
        return self.single_qubit_error.get(q, 0.0)


@dataclass(frozen=True)
class CrosstalkRecord:
    e1: Edge
    e2: Edge
    e1_given_e2: float
    e2_given_e1: float


_UNPAIRED = MappingProxyType({})  # the partners of an edge that no record names


class CrosstalkProfile:
    """Pairwise conditional-error table over coupling edges, each record
    priced once, at load, by its excess error.  A record needs both links'
    isolated rates.  ``cheapest_excess`` is the least price, ``inf`` with
    no record: an allowance below it can permit no pair.

    ``ties[edge]``, built at load for every coupling edge, is the frozenset
    of links that cannot share a layer with ``edge`` when no pair is
    permitted: those that share a qubit with it (``edge`` itself included)
    and its record partners, a partner on a shared qubit held once.  It is
    the profile's own table, so do not modify it."""

    def __init__(self, graph: CouplingGraph, records: list[CrosstalkRecord]):
        self._by_pair: dict[frozenset[Edge], CrosstalkRecord] = {}
        self._partners: dict[Edge, dict[Edge, float]] = {}
        self._conditional: dict[tuple[Edge, Edge], float] = {}  # (of_edge, given_edge) -> rate
        self.cheapest_excess = math.inf
        for rec in records:
            e1 = normalize_edge(*rec.e1)
            e2 = normalize_edge(*rec.e2)
            if e1 == e2:
                raise HardwareError(f"crosstalk record pairs edge {e1} with itself")
            for e in (e1, e2):
                if e not in graph.edges:
                    raise HardwareError(f"crosstalk record references unknown edge {e}")
                if e not in graph.edge_error:
                    raise HardwareError(f"crosstalk record {e1} / {e2}: missing error rate for edge {e}")
            for cond in (rec.e1_given_e2, rec.e2_given_e1):
                if not 0.0 <= cond < 1.0:
                    raise HardwareError(f"conditional error {cond} outside [0,1)")
            base1, base2 = graph.edge_error[e1], graph.edge_error[e2]
            if rec.e1_given_e2 < base1:
                raise HardwareError(f"conditional error for {e1} given {e2} below isolated rate")
            if rec.e2_given_e1 < base2:
                raise HardwareError(f"conditional error for {e2} given {e1} below isolated rate")
            key = frozenset((e1, e2))
            if key in self._by_pair:
                raise HardwareError(f"duplicate crosstalk record for {e1} / {e2}")
            self._by_pair[key] = CrosstalkRecord(e1, e2, rec.e1_given_e2, rec.e2_given_e1)
            self._conditional[e1, e2] = rec.e1_given_e2
            self._conditional[e2, e1] = rec.e2_given_e1
            excess = (rec.e1_given_e2 - base1) + (rec.e2_given_e1 - base2)
            self._partners.setdefault(e1, {})[e2] = excess
            self._partners.setdefault(e2, {})[e1] = excess
            self.cheapest_excess = min(self.cheapest_excess, excess)
        self.graph = graph
        adj = graph.adjacency
        self.ties: dict[Edge, frozenset[Edge]] = {
            (a, b): frozenset(
                [(min(q, n), max(q, n)) for q in (a, b) for n in adj[q]] + list(self.partners((a, b)))
            )
            for a, b in graph.edges
        }

    def __len__(self) -> int:
        return len(self._by_pair)

    def partners(self, edge: Edge) -> dict[Edge, float] | MappingProxyType:
        """Each edge the profile pairs with the normalized ``edge``, mapped
        to the pair's ``excess_error``: the profile's own table, so do not
        modify it."""
        return self._partners.get(edge, _UNPAIRED)

    def record_for(self, e1: Edge, e2: Edge) -> CrosstalkRecord | None:
        e1 = normalize_edge(*e1)
        e2 = normalize_edge(*e2)
        if e1 == e2:
            raise HardwareError("crosstalk lookup needs two distinct edges")
        for e in (e1, e2):
            if e not in self.graph.edges:
                raise HardwareError(f"unknown edge {e}")
        return self._by_pair.get(frozenset((e1, e2)))

    def conditional_error(self, of_edge: Edge, given_edge: Edge) -> float:
        """Error rate of ``of_edge`` while ``given_edge`` runs concurrently."""
        rate = self._conditional.get((of_edge, given_edge))
        if rate is not None:
            return rate
        rec = self.record_for(of_edge, given_edge)  # unnormalized edges, or no record
        of_edge = normalize_edge(*of_edge)
        if rec is None:
            return self.graph.error_of(of_edge)
        return rec.e1_given_e2 if of_edge == rec.e1 else rec.e2_given_e1

    def excess_error(self, e1: Edge, e2: Edge) -> float:
        """Total error inflation of running e1 and e2 simultaneously: the
        one price of a link pair that the crosstalk allowance pays, read
        from ``partners``.  Zero when the pair is not in the profile; never
        negative, as no conditional rate is below its isolated one."""
        excess = self.partners(e1).get(e2)
        if excess is None:  # unknown or unnormalized edges, or no record
            rec = self.record_for(e1, e2)
            excess = 0.0 if rec is None else self._partners[rec.e1][rec.e2]
        return excess


class Mapping:
    """Injective placement of logical qubits onto physical qubits.

    Physical qubits without a logical occupant are allowed; SWAPs may move a
    state through them.
    """

    def __init__(self, num_logical: int, num_physical: int, placement: list[int] | None = None):
        if num_logical > num_physical:
            raise MappingError(
                f"{num_logical} logical qubits cannot map onto {num_physical} physical qubits"
            )
        if placement is None:
            placement = list(range(num_logical))
        if len(placement) != num_logical:
            raise MappingError("placement length != logical qubit count")
        if len(set(placement)) != len(placement):
            raise MappingError("placement is not injective")
        for p in placement:
            if not 0 <= p < num_physical:
                raise MappingError(f"physical qubit {p} out of range")
        self.num_logical = num_logical
        self.num_physical = num_physical
        self._l2p = list(placement)
        # keyed by occupied qubit only, so the device size costs no memory
        self._p2l = {p: l for l, p in enumerate(self._l2p)}

    def copy(self) -> "Mapping":
        return Mapping(self.num_logical, self.num_physical, list(self._l2p))

    @property
    def placement(self) -> list[int]:
        """The physical qubit of each logical qubit, unchecked: the
        mapping's own list, so do not modify it."""
        return self._l2p

    def phys(self, logical: int) -> int:
        if not 0 <= logical < self.num_logical:
            raise MappingError(f"logical qubit {logical} out of range")
        return self._l2p[logical]

    def logical_at(self, physical: int) -> int | None:
        if not 0 <= physical < self.num_physical:
            raise MappingError(f"physical qubit {physical} out of range")
        return self._p2l.get(physical)

    def apply_swap(self, a: int, b: int):
        """Exchange the occupants of physical qubits a and b."""
        if a == b:
            raise MappingError("swap needs two distinct physical qubits")
        n = self.num_physical
        if not (0 <= a < n and 0 <= b < n):
            raise MappingError(f"physical qubit {b if 0 <= a < n else a} out of range")
        p2l, l2p = self._p2l, self._l2p
        la, lb = p2l.pop(a, None), p2l.pop(b, None)
        if la is not None:
            p2l[b] = la
            l2p[la] = b
        if lb is not None:
            p2l[a] = lb
            l2p[lb] = a

    def as_dict(self) -> dict[int, int]:
        return {l: p for l, p in enumerate(self._l2p)}

    def __eq__(self, other) -> bool:
        return isinstance(other, Mapping) and self._l2p == other._l2p and (
            self.num_physical == other.num_physical
        )


_HW_FIELDS = {
    "num_qubits",
    "edges",
    "edge_error",
    "t1",
    "t2",
    "crosstalk",
    "gate_time_cx",
    "single_qubit_error",
}

_XT_FIELDS = {"e1", "e2", "e1_given_e2", "e2_given_e1"}


def _number(convert, value, where: str):
    """``convert(value)`` for a JSON number (never a string or a bool), an
    integer one where ``convert`` is ``int``; a HardwareError naming the field
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, int if convert is int else (int, float)):
        what = "an integer" if convert is int else "a number"
        raise HardwareError(f"{where}: expected {what}, got {value!r}")
    return convert(value)


def _json(kind: type, value, where: str, optional: bool = False):
    """``value`` if it is a JSON array (``list``) or object (``dict``), as
    ``kind`` says, an empty one for a missing or null ``optional`` table, or
    a HardwareError naming the field."""
    if value is None and optional:
        return kind()
    if not isinstance(value, kind):
        what = "array" if kind is list else "object"
        raise HardwareError(f"{where}: expected a JSON {what}, got {value!r}")
    return value


def _parse_edge_key(key: str) -> Edge:
    parts = key.split("-")
    if len(parts) != 2:
        raise HardwareError(f"bad edge key {key!r}, expected 'a-b'")
    try:
        return normalize_edge(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise HardwareError(f"bad edge key {key!r}: {exc}") from exc


def _parse_edge(item, where: str) -> Edge:
    try:
        a, b = item
    except (TypeError, ValueError) as exc:
        raise HardwareError(f"{where}: bad edge entry {item!r}") from exc
    return normalize_edge(_number(int, a, where), _number(int, b, where))


def _qubit_table(data: dict, name: str, num_qubits: int) -> dict[int, float]:
    table: dict[int, float] = {}
    for key, v in _json(dict, data.get(name), name, optional=True).items():
        try:
            q = int(key)
        except ValueError as exc:
            raise HardwareError(f"{name} key: bad qubit key {key!r}") from exc
        if not 0 <= q < num_qubits or q in table:
            what = "is given twice" if q in table else f"is not on the {num_qubits}-qubit device"
            raise HardwareError(f"{name}[{key!r}]: qubit {q} {what}")
        table[q] = _number(float, v, f"{name}[{key}]")
    return table


def load_hardware(data: dict) -> tuple[CouplingGraph, CrosstalkProfile]:
    """Build a device and profile from a parsed hardware JSON document.

    Unknown top-level fields are rejected so that typos do not silently turn
    into default behavior, and so is any field of the wrong JSON type: a
    numeric field that is not a JSON number (a string or a bool is not), a
    qubit count or edge endpoint that is not an integer, or a table that is
    not an array or object.  Object keys (``"0"``, ``"0-1"``) are parsed, and
    must name a qubit of the device or an edge, each once.
    """
    if not isinstance(data, dict):
        raise HardwareError("hardware document must be a JSON object")
    unknown = set(data) - _HW_FIELDS
    if unknown:
        raise HardwareError(f"unknown hardware field(s): {sorted(unknown)}")
    try:
        num_qubits = _number(int, data["num_qubits"], "num_qubits")
        raw_edges = data["edges"]
    except KeyError as exc:
        raise HardwareError(f"missing required field {exc.args[0]!r}") from exc
    edges = [_parse_edge(item, "edges") for item in _json(list, raw_edges, "edges")]
    edge_error = {}
    for key, val in _json(dict, data.get("edge_error"), "edge_error", optional=True).items():
        edge = _parse_edge_key(key)
        if edge in edge_error:
            raise HardwareError(f"edge_error[{key!r}]: edge {edge} is given twice")
        edge_error[edge] = _number(float, val, f"edge_error[{key!r}]")
    graph = CouplingGraph(
        num_qubits,
        edges,
        edge_error=edge_error,
        t1=_qubit_table(data, "t1", num_qubits),
        t2=_qubit_table(data, "t2", num_qubits),
        gate_time_cx=_number(float, data.get("gate_time_cx", 1.0), "gate_time_cx"),
        single_qubit_error=_qubit_table(data, "single_qubit_error", num_qubits),
    )
    records = []
    for rec in _json(list, data.get("crosstalk"), "crosstalk", optional=True):
        if not isinstance(rec, dict):
            raise HardwareError(f"bad crosstalk record {rec!r}")
        unknown = set(rec) - _XT_FIELDS
        if unknown:
            raise HardwareError(f"unknown crosstalk field(s): {sorted(unknown)}")
        try:
            records.append(
                CrosstalkRecord(
                    e1=_parse_edge(rec["e1"], "crosstalk e1"),
                    e2=_parse_edge(rec["e2"], "crosstalk e2"),
                    e1_given_e2=_number(float, rec["e1_given_e2"], "crosstalk e1_given_e2"),
                    e2_given_e1=_number(float, rec["e2_given_e1"], "crosstalk e2_given_e1"),
                )
            )
        except KeyError as exc:
            raise HardwareError(f"crosstalk record missing {exc.args[0]!r}") from exc
    return graph, CrosstalkProfile(graph, records)


def load_hardware_file(path: str) -> tuple[CouplingGraph, CrosstalkProfile]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise HardwareError(f"{path}: invalid JSON ({exc})") from exc
    return load_hardware(data)

"""Traced runs: time calls into chromaroute's modules from outside them.

``Tracer`` replaces public functions with timing wrappers in the module
namespace that looks them up (``chromaroute.scheduler.build_csg`` and
``chromaroute.vqa.build_csg`` are two patches of one function), plus
``CrosstalkProfile.record_for`` and ``Mapping.copy`` on their classes.
Nothing under ``src/`` changes; ``uninstall`` puts every original back.

Each call is a span (name, start, end, parent, op id).  The calls the
benchmark makes itself are kept in memory as spans and written as JSONL.
The calls made inside the scheduler's loops (hundreds of thousands per op)
are folded into per-op aggregates as they end, which keeps the trace small;
their time still counts against the enclosing span, so self times are
exact.  A span's self time is its duration minus that of its child spans;
time inside an op that no span covers is reported as ``other``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Calls kept as individual spans; every other wrapped call is aggregated.
SPAN_NAMES = frozenset(
    {
        "op",
        "cli.serialize",
        "hardware.load_hardware",
        "ir.parse_circuit",
        "ir.parse_pauli_program",
        "ir.serialize_pauli_program",
        "jw.parse_fermion_terms",
        "jw.jw_encode",
        "scheduler.compile_circuit",
        "scheduler.verify_routing",
        "vqa.synthesize",
        "fidelity.fidelity_report",
        "fidelity.search_allowance",
        "fidelity.find_x_max",
        "fidelity.esp",
    }
)

LAYERS = ("hardware", "ir", "csg", "scheduler", "vqa", "fidelity", "jw", "cli")

# Names the benchmark's ops look up on the ``chromaroute`` package.
PACKAGE_FUNCTIONS = (
    "load_hardware",
    "parse_circuit",
    "parse_pauli_program",
    "parse_fermion_terms",
    "jw_encode",
    "serialize_pauli_program",
    "compile_circuit",
    "synthesize",
    "verify_routing",
    "fidelity_report",
    "search_allowance",
)
# Names each module looks up in its own namespace while scheduling.
MODULE_FUNCTIONS = {
    "scheduler": (
        "frontier",
        "executable_pairs",
        "useful_swaps",
        "build_csg",
        "welsh_powell",
        "rank_and_select",
    ),
    "vqa": (
        "useful_swaps",
        "build_csg",
        "welsh_powell",
        "rank_and_select",
        "kruskal_mst",
        "build_qubit_graph",
        "graph_center",
        "calculate_depths",
    ),
    "fidelity": ("esp", "find_x_max"),
}


def _ledger_size(sched) -> int:
    return len(sched.crosstalk_ledger)


# Result sizes counted at each call: span name -> ((counter, size of result), ...)
COUNTERS = {
    "csg.build_csg": (
        ("csg.vertices", lambda csg: len(csg.vertices)),
        ("csg.conflict_edges", lambda csg: len(csg.conflict_edges)),
        ("csg.crosstalk_edges", lambda csg: len(csg.crosstalk_edges)),
        ("csg.permitted_pairs", lambda csg: len(csg.permitted_pairs)),
    ),
    "csg.useful_swaps": (("csg.swap_candidates", len),),
    "scheduler.welsh_powell": (("scheduler.colors", len),),
    "scheduler.rank_and_select": (("csg.committed_vertices", lambda cls: len(cls.members)),),
    "scheduler.compile_circuit": (("scheduler.ledger_entries", _ledger_size),),
    "vqa.synthesize": (("scheduler.ledger_entries", _ledger_size),),
}


class Tracer:
    """Install with ``with Tracer(chromaroute) as tr:``; run ops inside
    ``tr.op(op_id)``.  ``stats`` maps a span name to [calls, outermost
    inclusive seconds, self seconds, current nesting depth]; ``counts``
    holds result sizes."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.aggregates: list[dict] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[list] = []  # frames: [child seconds, span index or None]
        self._saved: list[tuple] = []

    def targets(self) -> list[tuple[object, str, str]]:
        """(owner, attribute, span name) of every patch point."""
        cr = self.package
        out = []
        for attr in PACKAGE_FUNCTIONS:
            fn = getattr(cr, attr)
            out.append((cr, attr, f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"))
        for mod_name, attrs in MODULE_FUNCTIONS.items():
            mod = getattr(cr, mod_name)
            for attr in attrs:
                fn = getattr(mod, attr)
                out.append((mod, attr, f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"))
        out.append((cr.CrosstalkProfile, "record_for", "hardware.record_for"))
        out.append((cr.Mapping, "copy", "hardware.mapping_copy"))
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in self.targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _open(self, name: str) -> list:
        """Push a frame; a kept span gets its record now so that children
        can name it as their parent."""
        index = None
        if name in SPAN_NAMES:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = [0.0, index]
        self._stack.append(frame)
        self.stats[name][3] += 1
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        st = self.stats[name]
        st[3] -= 1
        st[0] += 1
        st[2] += dur - frame[0]
        if st[3] == 0:
            st[1] += dur
        if self._stack:
            self._stack[-1][0] += dur
        if frame[1] is not None:
            self.spans[frame[1]][1:3] = [start, end]

    def _wrap(self, fn, name: str):
        counters = COUNTERS.get(name, ())
        clock = time.perf_counter
        counts = self.counts
        if name in SPAN_NAMES:
            tracer = self

            def wrapper(*args, **kwargs):
                frame = tracer._open(name)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    for key, size in counters:
                        counts[key] += size(result)
                    return result
                finally:
                    tracer._close(name, frame, start, clock())

        else:
            # The same bookkeeping as _open/_close, inlined: these run
            # hundreds of thousands of times per op.
            stack = self._stack
            st = self.stats[name]

            def wrapper(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                st[3] += 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    for key, size in counters:
                        counts[key] += size(result)
                    return result
                finally:
                    dur = clock() - start
                    stack.pop()
                    st[3] -= 1
                    st[0] += 1
                    st[2] += dur - frame[0]
                    if st[3] == 0:
                        st[1] += dur
                    if stack:
                        stack[-1][0] += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def span(self, name: str):
        """Context manager for a span of the benchmark's own code."""
        return _Span(self, name)

    def op(self, op_id):
        """Root span of one op; aggregates of the op's inner calls are
        recorded when it ends."""
        return _OpSpan(self, op_id)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self seconds per chromaroute module, ``other`` for op time no
        span covers, and ``op`` for the ops' total duration."""
        out = {layer: 0.0 for layer in LAYERS}
        out["other"] = out["op"] = 0.0
        for name, (_, incl, self_s, _) in self.stats.items():
            if name == "op":
                out["other"] += self_s
                out["op"] += incl
            else:
                out[name.split(".", 1)[0]] += self_s
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                fh.write(json.dumps(record) + "\n")
            for agg in self.aggregates:
                fh.write(json.dumps(agg) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._open(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, self.frame, self.start, time.perf_counter())
        return False


class _OpSpan(_Span):
    def __init__(self, tracer: Tracer, op_id):
        super().__init__(tracer, "op")
        self.op_id = op_id

    def __enter__(self):
        if self.tracer._stack:
            raise RuntimeError("ops do not nest")
        self.tracer.op_id = self.op_id
        self.before = {k: (v[0], v[2]) for k, v in self.tracer.stats.items()}
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        for name, (calls, _, self_s, _) in sorted(self.tracer.stats.items()):
            if name in SPAN_NAMES:
                continue
            calls0, self0 = self.before.get(name, (0, 0.0))
            if calls > calls0:
                self.tracer.aggregates.append(
                    {"name": name, "op": self.op_id, "calls": calls - calls0, "self_s": self_s - self0}
                )
        self.tracer.op_id = None
        return False

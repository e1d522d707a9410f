"""chromaroute benchmark: seeded grid corpus, three closed-loop workloads.

    python3 perfbench/run.py --seed 1                       # all workloads
    python3 perfbench/run.py --workload compile-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload synth-pauli --seed 1 --trace 1

One client in one process runs passes over the workload's corpus until
``--seconds`` of op time are spent (the first pass always completes).  Every
op's output is checked outside the timed region.  End-to-end times are
scaled by a reference loop timed around each op (see reference.py), so that
the host's speed swings cancel.  ``--trace 1`` alternates untraced and
traced whole passes and reports per-layer numbers instead of end-to-end
ones.  The last line of standard output is one JSON object; see README.md
for how to read the rest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from corpus import WORKLOADS, build_corpus  # noqa: E402
from ops import OPS  # noqa: E402
from oracles import OracleError, check_circuit_schedule, check_pauli_schedule, log_esp  # noqa: E402
from reference import NOMINAL_S, OpClock, reference_seconds, scale  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_FIRST = 8
SETUP_PER_PASS = 4
TAIL_BEYOND = 10
ESP_REL_TOL = 1e-9
ESP_FLOOR = 1e-300

# (name, unit, direction) of the end-to-end metrics, in print order.
# ``failed_share`` can read 0 and ``log10_esp_mean`` is negative, so the
# JSON line carries ``neg_log10_esp_mean`` and leaves ``failed_share`` to
# its ``attempted``/``failed`` counts.
END_TO_END = (
    ("ops_per_s", "ops/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("failed_share", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("depth_cx_mean", "layers", "lower"),
    ("swap_count_mean", "SWAPs", "lower"),
    ("log10_esp_mean", "log10", "higher"),
    ("neg_log10_esp_mean", "log10", "lower"),
)
PRINT_ONLY = ("failed_share", "log10_esp_mean")
JSON_ONLY = ("neg_log10_esp_mean",)

PER_LAYER_UNITS = {
    ".calls": "count",
    ".s": "s",
    ".self_s": "s",
    "_share": "ratio",
    ".schedule_bytes": "bytes",
    ".compiles_per_search": "compiles",
    ".esp_underflow": "ops",
    ".op_s": "s",
}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_chromaroute():
    """Import chromaroute from this checkout's ``src/``, never from an
    installed copy."""
    init = os.path.join(SRC, "chromaroute", "__init__.py")
    if not os.path.isfile(init):
        die(f"no chromaroute sources at {init}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import chromaroute

    if os.path.abspath(chromaroute.__file__) != init:
        die(f"imported chromaroute from {chromaroute.__file__}, expected {init}")
    return chromaroute


def import_seconds() -> float:
    """Seconds of ``import chromaroute`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import chromaroute; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, SRC], capture_output=True, text=True, timeout=60, cwd=ROOT
    )
    if proc.returncode != 0:
        die(f"fresh-interpreter import failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def sample_setup(times: list[float], raw: list[float], count: int) -> None:
    """Append ``count`` import timings, scaled to ``times`` and as measured
    to ``raw``.  Sampling at the start and after every pass spreads them
    over the run, so a slow spell of the machine does not set the median
    alone."""
    for _ in range(count):
        before = reference_seconds()
        seconds = import_seconds()
        raw.append(seconds)
        times.append(scale(seconds, before, reference_seconds()))


class CaseResult:
    def __init__(self, case):
        self.case = case
        self.latencies: list[float] = []  # untraced passes only, scaled
        self.wall: list[float] = []  # the same, as measured
        self.error: str | None = None
        self.digest: str | None = None
        self.depth = self.swaps = 0
        self.log10_esp = None
        self.esp_underflow = 0
        self.schedule_bytes = 0
        self.compiles = 0


def check_output(cr, res: CaseResult, out) -> None:
    """The output checks: independent replay, log-ESP cross-check, and the
    digest every later pass must reproduce.  Raises OracleError."""
    res.digest = digest_of(out)
    sched = json.loads(out.schedule_text)
    hw_doc = json.loads(res.case.hardware)
    if res.case.workload == "synth-pauli":
        check_pauli_schedule(out.program_text, hw_doc, sched)
    else:
        check_circuit_schedule(out.program_text, hw_doc, sched)
    lesp = log_esp(sched, out.hw, out.profile, cr.decoherence_error)
    if not math.isfinite(lesp):
        raise OracleError(f"log-ESP is {lesp}")
    if out.esp > ESP_FLOOR:
        if abs(math.exp(lesp) - out.esp) > ESP_REL_TOL * out.esp:
            raise OracleError(f"esp() {out.esp!r} disagrees with exp(log-ESP) {math.exp(lesp)!r}")
    else:
        res.esp_underflow = 1
    res.log10_esp = lesp / math.log(10)
    res.depth = sched["depth_cx"]
    res.swaps = sched["swap_count"]
    res.schedule_bytes = len(out.schedule_text.encode())
    res.compiles = out.compiles


def digest_of(out) -> str:
    return hashlib.sha256((out.schedule_text + out.report_text).encode()).hexdigest()


def run_pass(cr, op, results, tracer, first: bool, bad: list, budget: float | None = None) -> float:
    """One pass over the corpus, cut short once ``budget`` op seconds are
    spent; returns the summed op seconds.  Untraced passes time the
    reference loop around and inside each op to scale its latency."""
    total = 0.0
    clock = OpClock() if tracer is None else None
    for i, res in enumerate(results):
        if budget is not None and total >= budget:
            break
        # No op pays for collecting the garbage of the one before it or of
        # the output checks.
        gc.collect()
        out = None
        try:
            if tracer is None:
                with clock:
                    out = op(cr, res.case)
            else:
                start = time.perf_counter()
                with tracer.op(i):
                    out = op(cr, res.case, tracer)
        except Exception as exc:  # an op's failure is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = clock.seconds if tracer is None else time.perf_counter() - start
        total += elapsed
        if first:
            res.error = error
            if out is not None:
                try:
                    check_output(cr, res, out)
                except OracleError as exc:
                    res.error = f"OracleError: {exc}"
                    bad.append(f"{res.case.name}: {exc}")
        elif (None if out is None else digest_of(out)) != res.digest:
            bad.append(f"{res.case.name}: output differs from the first pass ({error})")
        if out is not None and tracer is None:
            res.latencies.append(clock.scaled)
            res.wall.append(elapsed)
    return total


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least
    ``TAIL_BEYOND`` samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, ordered[rank - 1]


def run_workload(cr, workload: str, seed: int, seconds: float, trace: bool, setup: tuple) -> dict:
    op = OPS[workload]
    results = [CaseResult(c) for c in build_corpus(workload, seed)]
    bad: list[str] = []
    plain_s = traced_s = 0.0
    plain_passes = traced_passes = 0
    tracer = Tracer(cr) if trace else None
    while plain_s + traced_s < seconds or plain_passes == 0:
        # Traced runs need whole passes: their layer numbers are per pass.
        budget = None if trace or plain_passes == 0 else seconds - plain_s
        plain_s += run_pass(cr, op, results, None, plain_passes == 0, bad, budget)
        plain_passes += 1
        sample_setup(*setup, SETUP_PER_PASS)
        if trace:
            with tracer:
                traced_s += run_pass(cr, op, results, tracer, False, bad)
            traced_passes += 1

    ok = [r for r in results if r.error is None]
    failed = [r for r in results if r.error is not None]
    per_case = [statistics.median(r.latencies) for r in ok if r.latencies]
    wall_case = [statistics.median(r.wall) for r in ok if r.wall]
    pct, tail = tail_percentile(per_case) if per_case else (0.0, 0.0)
    # Every pass repeats the same ops and must reproduce their outputs, so
    # ``attempted`` and ``failed`` count distinct ops of the corpus: they
    # depend on the seed alone, not on how many passes fit in the time.
    row = {
        "workload": workload,
        "seed": seed,
        "passes": plain_passes,
        "cases": len(results),
        "attempted": len(results),
        "failed": len(failed),
        "correct": not bad,
        "problems": bad,
        "digest": hashlib.sha256("".join(r.digest or "-" for r in results).encode()).hexdigest(),
        "tail_percentile": pct,
        "tail_samples": len(per_case),
        "wall": {
            "ops_per_s": len(wall_case) / sum(wall_case) if wall_case else 0.0,
            "latency_p50_ms": 1e3 * statistics.median(wall_case) if wall_case else 0.0,
            "latency_tail_ms": 1e3 * tail_percentile(wall_case)[1] if wall_case else 0.0,
            "setup_s": statistics.median(setup[1]),
        },
        "e2e": {
            "ops_per_s": len(per_case) / sum(per_case) if per_case else 0.0,
            "latency_p50_ms": 1e3 * statistics.median(per_case) if per_case else 0.0,
            "latency_tail_ms": 1e3 * tail,
            "failed_share": len(failed) / len(results),
            "setup_s": statistics.median(setup[0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "depth_cx_mean": _mean(r.depth for r in ok),
            "swap_count_mean": _mean(r.swaps for r in ok),
            "log10_esp_mean": _mean(r.log10_esp for r in ok),
            "neg_log10_esp_mean": -_mean(r.log10_esp for r in ok),
        },
        "cases_detail": [
            {
                "name": r.case.name,
                "allowance": r.case.allowance,
                "error": r.error,
                "digest": r.digest,
                "latency_ms": [1e3 * x for x in r.latencies],
                "wall_latency_ms": [1e3 * x for x in r.wall],
                "depth_cx": r.depth,
                "swap_count": r.swaps,
                "log10_esp": r.log10_esp,
            }
            for r in results
        ],
    }
    if trace:
        row["layers"] = per_layer(
            tracer,
            results,
            traced_passes,
            len(results) * plain_passes / plain_s,
            len(results) * traced_passes / traced_s,
        )
        layers = tracer.layer_self_seconds()
        identity = abs(sum(v for k, v in layers.items() if k != "op") - layers["op"])
        if identity > 1e-6 * max(1.0, layers["op"]):
            bad.append(f"layer self times miss the op time by {identity:.3g} s")
            row["correct"] = False
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    return row


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer, results, passes: int, plain_rate: float, traced_rate: float) -> dict:
    """Per-layer metrics of one corpus pass (traced totals / passes)."""
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return stats[name][0] / passes if name in stats else 0.0

    def incl(*names):
        return sum(stats[n][1] for n in names if n in stats) / passes

    def self_s(name):
        return stats[name][2] / passes if name in stats else 0.0

    def count(name):
        return counts.get(name, 0) / passes

    search_ops = sum(1 for r in results if r.case.workload == "search-allowance")
    vertices = counts.get("csg.vertices", 0)
    out = {
        "hardware.load_hardware.s": incl("hardware.load_hardware"),
        "ir.parse.s": incl("ir.parse_circuit", "ir.parse_pauli_program"),
        "hardware.record_for.calls": calls("hardware.record_for"),
        "hardware.record_for.s": incl("hardware.record_for"),
        "hardware.mapping_copy.calls": calls("hardware.mapping_copy"),
        "ir.frontier.calls": calls("ir.frontier"),
        "ir.frontier.s": incl("ir.frontier"),
        "csg.build_csg.calls": calls("csg.build_csg"),
        "csg.build_csg.self_s": self_s("csg.build_csg"),
        "csg.vertices": count("csg.vertices"),
        "csg.conflict_edges": count("csg.conflict_edges"),
        "csg.crosstalk_edges": count("csg.crosstalk_edges"),
        "csg.useful_swaps.s": incl("csg.useful_swaps"),
        "csg.swap_candidates": count("csg.swap_candidates"),
        "csg.permitted_pairs": count("csg.permitted_pairs"),
        "csg.committed_share": counts.get("csg.committed_vertices", 0) / vertices if vertices else 0.0,
        "scheduler.welsh_powell.s": incl("scheduler.welsh_powell"),
        "scheduler.colors": count("scheduler.colors"),
        "scheduler.rank_and_select.s": incl("scheduler.rank_and_select"),
        "scheduler.compile_circuit.self_s": self_s("scheduler.compile_circuit"),
        "scheduler.ledger_entries": count("scheduler.ledger_entries"),
        "scheduler.verify_routing.s": incl("scheduler.verify_routing"),
        "vqa.synthesize.self_s": self_s("vqa.synthesize"),
        "vqa.kruskal_mst.calls": calls("vqa.kruskal_mst"),
        "vqa.kruskal_mst.s": incl("vqa.kruskal_mst"),
        "vqa.build_qubit_graph.s": incl("vqa.build_qubit_graph"),
        "vqa.graph_center.s": incl("vqa.graph_center"),
        "vqa.calculate_depths.calls": calls("vqa.calculate_depths"),
        "vqa.calculate_depths.s": incl("vqa.calculate_depths"),
        "fidelity.esp.calls": calls("fidelity.esp"),
        "fidelity.esp.s": incl("fidelity.esp"),
        "fidelity.search_allowance.self_s": self_s("fidelity.search_allowance"),
        "fidelity.compiles_per_search": sum(r.compiles for r in results) / search_ops if search_ops else 0.0,
        "fidelity.esp_underflow": float(sum(r.esp_underflow for r in results)),
        "jw.jw_encode.s": incl("jw.jw_encode"),
        "cli.serialize.s": incl("cli.serialize"),
        "cli.schedule_bytes": float(sum(r.schedule_bytes for r in results)),
        "trace.overhead_share": 1.0 - traced_rate / plain_rate,
    }
    for layer, seconds in tracer.layer_self_seconds().items():
        key = "trace.op_s" if layer == "op" else f"layer.{layer}.self_s"
        out[key] = seconds / passes
    return out


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def print_rows(rows: list[dict], trace: bool) -> None:
    shown = [m for m in END_TO_END if m[0] not in JSON_ONLY]
    width = max(len(m[0]) for m in shown) + 2
    print("end-to-end metrics (one row per workload)")
    print("workload".ljust(18) + "".join(m[0].rjust(width) for m in shown))
    print("".ljust(18) + "".join(f"[{m[1]}, {m[2]}]".rjust(width) for m in shown))
    for row in rows:
        cells = "".join(f"{row['e2e'][m[0]]:.6g}".rjust(width) for m in shown)
        print(row["workload"].ljust(18) + cells)
    print(f"times are scaled to a host on which the reference loop takes {1e3 * NOMINAL_S:g} ms; as measured:")
    for row in rows:
        wall = row["wall"]
        print(
            f"{row['workload']}: ops_per_s {wall['ops_per_s']:.6g}, latency_p50_ms {wall['latency_p50_ms']:.6g}, "
            f"latency_tail_ms {wall['latency_tail_ms']:.6g}, setup_s {wall['setup_s']:.6g}"
        )
    for row in rows:
        print(
            f"{row['workload']}: seed {row['seed']}, {row['cases']} cases x {row['passes']} passes, "
            f"latency_tail_ms is p{row['tail_percentile']:.1f} of {row['tail_samples']} per-case medians, "
            f"failed {row['failed']}/{row['attempted']}, correct {row['correct']}, digest {row['digest'][:16]}"
        )
        for problem in row["problems"]:
            print(f"  check failed: {problem}")
        for case in row["cases_detail"]:
            if case["error"]:
                print(f"  {case['name']}: {case['error']}")
    if trace:
        print("per-layer metrics (summed over one pass of the corpus)")
        names = list(rows[0]["layers"])
        print("metric".ljust(34) + "".join(r["workload"].rjust(18) for r in rows))
        for name in names:
            print(name.ljust(34) + "".join(f"{r['layers'][name]:.6g}".rjust(18) for r in rows))


def result_line(rows: list[dict], trace: bool) -> dict:
    metrics = {}
    for row in rows:
        prefix = "" if len(rows) == 1 else f"{row['workload']}."
        if trace:
            for name, value in row["layers"].items():
                metrics[prefix + name] = {"value": value, "unit": per_layer_unit(name)}
        else:
            for name, unit, _ in END_TO_END:
                if name not in PRINT_ONLY:
                    metrics[prefix + name] = {"value": row["e2e"][name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in rows),
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chromaroute benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="op seconds to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cr = load_chromaroute()
    setup: tuple[list[float], list[float]] = ([], [])
    import_seconds()  # writes the bytecode cache; not timed
    sample_setup(*setup, SETUP_FIRST)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = [
        run_workload(cr, w, args.seed, args.seconds, bool(args.trace), setup) for w in workloads
    ]
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
    print_rows(rows, bool(args.trace))
    print(json.dumps(result_line(rows, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

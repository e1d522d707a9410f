"""Command line entry points.

Exit codes: 0 success, 2 bad input (files, formats, mappings), 3 a loop
stalled even in escape mode, 4 an internal invariant or verification
failure (a bug, not a usage problem).  Set CHROMAROUTE_LOG=debug for
per-iteration logging on stderr.  All JSON output is deterministic:
sorted keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .baseline import baseline_schedule
from .errors import (
    EncodingError,
    HardwareError,
    InvariantError,
    MappingError,
    ParseError,
    StallError,
    VerificationError,
)
from .fidelity import fidelity_report, search_allowance
from .hardware import Mapping, load_hardware_file
from .ir import parse_circuit, parse_pauli_program, serialize_pauli_program
from .jw import jw_encode, parse_fermion_terms
from .scheduler import SWAP_DURATION, ScheduledCircuit, compile_circuit, expand_two_local, verify_routing
from .vqa import SynthesisOptions, synthesize

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STALL = 3
EXIT_INVARIANT = 4

log = logging.getLogger("chromaroute")


def _setup_logging() -> None:
    value = os.environ.get("CHROMAROUTE_LOG", "").strip()
    if not value:
        return
    if value.lower() in ("1", "debug", "true"):
        level = logging.DEBUG
    else:
        level = getattr(logging, value.upper(), logging.INFO)
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_mapping_spec(spec: str | None, num_logical: int, num_physical: int) -> Mapping | None:
    """Parse ``l:p,l:p,...`` into a Mapping covering every logical qubit;
    None when no --mapping was given."""
    if not spec:
        return None
    placement: dict[int, int] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise MappingError(f"bad mapping entry {chunk!r}, expected 'logical:physical'")
        try:
            l, p = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MappingError(f"bad mapping entry {chunk!r}: {exc}") from exc
        if l in placement:
            raise MappingError(f"logical qubit {l} mapped twice")
        placement[l] = p
    if sorted(placement) != list(range(num_logical)):
        raise MappingError(
            f"mapping must cover logical qubits 0..{num_logical - 1}, got {sorted(placement)}"
        )
    return Mapping(num_logical, num_physical, [placement[l] for l in range(num_logical)])


def format_timeline(sched: ScheduledCircuit) -> str:
    """Human-readable layer-by-layer rendering of a schedule."""
    lines = []
    for i, layer in enumerate(sched.layers):
        parts = []
        for op in layer:
            if op.kind == "swap":
                parts.append(f"swap({op.qubits[0]},{op.qubits[1]})[{op.slice_index}/{SWAP_DURATION}]")
            elif len(op.qubits) == 2:
                parts.append(f"{op.kind}({op.qubits[0]},{op.qubits[1]})")
            elif op.kind == "u":
                parts.append(f"u:{op.label}({op.qubits[0]})")
            else:
                parts.append(f"{op.kind}({op.qubits[0]})")
        lines.append(f"layer {i:3d}: " + " ".join(parts))
    for entry in sched.crosstalk_ledger:
        (a1, b1), (a2, b2) = entry.edges
        lines.append(
            f"crosstalk @ layer {entry.layer}: ({a1},{b1}) with ({a2},{b2}), "
            f"excess {entry.excess:g}"
        )
    return "\n".join(lines) + "\n"


class _CsgCollector:
    """on_iteration hook that renders every candidate set graph to DOT."""

    def __init__(self):
        self.graphs: list[str] = []

    def __call__(self, info: dict) -> None:
        csg = info.get("csg")
        if csg is None or not csg.vertices:
            return
        if "string_index" in info:
            name = f"csg_s{info['string_index']}_i{info['iteration']}"
        else:
            name = f"csg_i{info['iteration']}"
        self.graphs.append(csg.to_dot(name))
        if log.isEnabledFor(logging.DEBUG):
            sel = info.get("selected")
            log.debug(
                "%s: %d vertices, selected %s",
                name,
                len(csg.vertices),
                sel.members if sel is not None else None,
            )

    def text(self) -> str:
        return "\n".join(self.graphs)


def _load_inputs(args):
    """Hardware and workload of ``compile`` and ``search``, a strictly
    two-local Pauli program rewritten as a gate circuit.  Returns (hw,
    profile, circuit, mapping, schedule): ``circuit`` is None for a Pauli
    program, and ``schedule(allowance, options, hook)`` compiles either."""
    hw, profile = load_hardware_file(args.hardware)
    circuit = None
    program = None
    if args.circuit:
        circuit = parse_circuit(_read_text(args.circuit))
    if args.pauli:
        program = parse_pauli_program(_read_text(args.pauli))
    if (circuit is None) == (program is None):
        raise ParseError("exactly one of --circuit and --pauli is required")
    if program is not None and program.all_two_local:
        circuit, program = expand_two_local(program), None
    num_logical = circuit.num_qubits if circuit is not None else program.num_qubits
    mapping = _parse_mapping_spec(args.mapping, num_logical, hw.num_qubits)

    def schedule(allowance: float, options=None, hook=None) -> ScheduledCircuit:
        kwargs = {
            "initial_mapping": mapping,
            "allowance": allowance,
            "on_iteration": hook,
        }
        if circuit is not None:
            return compile_circuit(circuit, hw, profile, **kwargs)
        return synthesize(program, hw, profile, options=options, **kwargs)

    return hw, profile, circuit, mapping, schedule


def _emit_schedule(args, sched: ScheduledCircuit, hook: _CsgCollector | None, what: str) -> int:
    """Output of ``compile`` and ``vqe-synth``: the log line, the optional
    DOT and timeline files, and the schedule JSON."""
    log.info(
        "%s: depth_cx=%d swaps=%d crosstalk_entries=%d excess=%g",
        what,
        sched.depth_cx,
        sched.swap_count,
        len(sched.crosstalk_ledger),
        sched.ledger_total(),
    )
    if args.emit_csg:
        _write_text(hook.text(), args.emit_csg)
    if args.emit_timeline:
        _write_text(format_timeline(sched), args.emit_timeline)
    _write_text(_json_text(sched.to_json_dict()), args.out)
    return EXIT_OK


def _cmd_compile(args) -> int:
    hw, profile, circuit, mapping, schedule = _load_inputs(args)
    hook = _CsgCollector() if (args.emit_csg or log.isEnabledFor(logging.DEBUG)) else None
    if args.baseline:
        if circuit is None:
            raise ParseError("--baseline needs a gate circuit or a two-local Pauli program")
        sched = baseline_schedule(circuit, hw, profile, mapping)
        verify_routing(sched, hw, profile, circuit=circuit)
    else:
        sched = schedule(args.allowance, hook=hook)
        verify_routing(sched, hw, profile, circuit=circuit, allowance=args.allowance)
    return _emit_schedule(args, sched, hook, "compiled")


def _cmd_vqe_synth(args) -> int:
    hw, profile = load_hardware_file(args.hardware)
    program = parse_pauli_program(_read_text(args.pauli))
    mapping = _parse_mapping_spec(args.mapping, program.num_qubits, hw.num_qubits)
    options = SynthesisOptions(w1=args.w1, w2=args.w2, lookahead=args.lookahead == "on")
    hook = _CsgCollector() if (args.emit_csg or log.isEnabledFor(logging.DEBUG)) else None
    sched = synthesize(
        program,
        hw,
        profile,
        initial_mapping=mapping,
        allowance=args.allowance,
        options=options,
        on_iteration=hook,
    )
    verify_routing(sched, hw, profile, allowance=args.allowance)
    return _emit_schedule(args, sched, hook, "synthesized")


def _cmd_jw_encode(args) -> int:
    terms = parse_fermion_terms(_read_text(args.fermions))
    program = jw_encode(terms, num_modes=args.modes)
    if not program.strings:
        raise EncodingError("the operator is zero: every Pauli string cancels")
    _write_text(serialize_pauli_program(program), args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    hw, profile = load_hardware_file(args.hardware)
    try:
        sched = ScheduledCircuit.from_json_dict(json.loads(_read_text(args.schedule)))
    except (json.JSONDecodeError, KeyError, TypeError, IndexError, ParseError) as exc:
        raise ParseError(f"{args.schedule}: not a valid schedule document ({exc})") from exc
    try:
        verify_routing(sched, hw, profile)
    except VerificationError as exc:
        raise ParseError(f"{args.schedule}: schedule does not verify ({exc})") from exc
    report = fidelity_report(sched, hw, profile)
    _write_text(_json_text(report.to_json_dict()), args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    hw, profile, circuit, _, schedule = _load_inputs(args)
    options = SynthesisOptions(lookahead=args.lookahead == "on")

    def compile_fn(allowance: float) -> ScheduledCircuit:
        return schedule(allowance, options)

    result = search_allowance(compile_fn, hw, profile, steps=args.steps)
    log.info(
        "search: best allowance %g of x_max %g, esp %g (%d probes)",
        result.best_allowance,
        result.x_max,
        result.best_value,
        len(result.probes),
    )
    if args.schedule_out:
        best = result.schedule
        verify_routing(best, hw, profile, circuit=circuit, allowance=result.best_allowance)
        _write_text(_json_text(best.to_json_dict()), args.schedule_out)
    _write_text(_json_text(result.to_json_dict()), args.out)
    return EXIT_OK


def _checked(convert, ok, what: str):
    """An argparse type: ``convert(text)``, rejected unless ``ok(value)``.
    Text ``convert`` refuses is read as NaN, which no range here admits."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _add_device_args(p: argparse.ArgumentParser):
    p.add_argument("--hardware", "-H", required=True, help="hardware description JSON")
    p.add_argument("--mapping", "-m", help="initial placement, e.g. '0:2,1:0,2:1'")
    p.add_argument("--out", "-o", help="output file (default: stdout)")


def _add_common_compile_args(p: argparse.ArgumentParser):
    _add_device_args(p)
    p.add_argument(
        "--allowance",
        "-a",
        type=_checked(float, lambda v: v >= 0.0, "a number >= 0 or 'inf'"),
        default=0.0,
        help="crosstalk allowance: the excess error mass the committed link pairs "
        "may add up to (default 0; 'inf' allowed)",
    )
    p.add_argument("--emit-csg", help="write every iteration's candidate set graph as DOT")
    p.add_argument("--emit-timeline", help="write a human-readable layer timeline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromaroute",
        description="Crosstalk-aware quantum circuit mapping and scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="map and schedule a circuit or Pauli program")
    p.add_argument("--circuit", "-c", help="gate circuit input file")
    p.add_argument("--pauli", "-p", help="Pauli program input file")
    _add_common_compile_args(p)
    p.add_argument(
        "--baseline",
        action="store_true",
        help="use the crosstalk-oblivious reference compiler with delay-based avoidance",
    )
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("vqe-synth", help="synthesize an ansatz for a Pauli program")
    p.add_argument("--pauli", "-p", required=True, help="Pauli program input file")
    _add_common_compile_args(p)
    weight = _checked(float, lambda w: 0.0 < w <= 1.0, "a number in (0, 1]")
    p.add_argument("--w1", type=weight, default=0.5, help="crosstalk weight in (0,1]")
    p.add_argument("--w2", type=weight, default=0.5, help="SWAP-count weight in (0,1]")
    p.add_argument(
        "--lookahead",
        choices=("on", "off"),
        default="on",
        help="score SWAP patterns against the next string too",
    )
    p.set_defaults(func=_cmd_vqe_synth)

    p = sub.add_parser("jw-encode", help="encode fermionic terms as a Pauli program")
    p.add_argument("--fermions", "-f", required=True, help="fermion term input file")
    p.add_argument(
        "--modes",
        "-n",
        type=_checked(int, lambda v: v >= 1, "a whole number >= 1"),
        help="mode count (default: inferred)",
    )
    p.add_argument("--out", "-o", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_jw_encode)

    p = sub.add_parser("report", help="estimate the success probability of a schedule")
    p.add_argument("--schedule", "-s", required=True, help="schedule JSON file")
    p.add_argument("--hardware", "-H", required=True, help="hardware description JSON")
    p.add_argument("--out", "-o", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("search", help="search the crosstalk allowance with the best ESP")
    p.add_argument("--circuit", "-c", help="gate circuit input file")
    p.add_argument("--pauli", "-p", help="Pauli program input file")
    _add_device_args(p)
    p.add_argument(
        "--steps",
        type=_checked(int, lambda v: v >= 1, "a whole number >= 1"),
        default=32,
        help="probe max(2, 2*ceil(log2 STEPS)+1) evenly spaced allowances (default 32: 11 probes)",
    )
    p.add_argument(
        "--lookahead",
        choices=("on", "off"),
        default="on",
        help="lookahead for Pauli-program workloads",
    )
    p.add_argument("--schedule-out", help="also write the schedule at the best allowance")
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, HardwareError, MappingError, EncodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StallError as exc:
        print(f"error: compilation stalled: {exc}", file=sys.stderr)
        return EXIT_STALL
    except (InvariantError, VerificationError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

"""One op per workload: the public-API calls of the matching CLI subcommand,
in the CLI's order, on inputs handed over as CLI-format text.

Every chromaroute function is looked up on the package at call time, so a
``Tracer`` patch of ``chromaroute.<name>`` sees the call.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass

from corpus import Case

SEARCH_STEPS = 32  # the CLI's ``search --steps`` default


@dataclass
class OpOutput:
    """What an op emits, plus what the output checks need."""

    schedule_text: str  # the schedule JSON document, as the CLI writes it
    report_text: str  # the fidelity report or search result JSON document
    program_text: str  # the program the schedule implements, as text
    esp: float  # chromaroute's own ESP of the emitted schedule
    hw: object
    profile: object
    compiles: int = 0


def json_text(obj) -> str:
    """The CLI's JSON output format: sorted keys, two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _serialize(tracer, sched) -> str:
    with tracer.span("cli.serialize") if tracer else contextlib.nullcontext():
        return json_text(sched.to_json_dict())


def compile_op(cr, case: Case, tracer=None) -> OpOutput:
    """``compile --circuit C --hardware H --allowance A``, then ``report``."""
    hw, profile = cr.load_hardware(json.loads(case.hardware))
    circuit = cr.parse_circuit(case.program)
    sched = cr.compile_circuit(circuit, hw, profile, allowance=case.allowance)
    cr.verify_routing(sched, hw, profile, circuit=circuit, allowance=case.allowance)
    report = cr.fidelity_report(sched, hw, profile)
    text = _serialize(tracer, sched)
    return OpOutput(text, json_text(report.to_json_dict()), case.program, report.esp, hw, profile)


def synth_op(cr, case: Case, tracer=None) -> OpOutput:
    """``vqe-synth --pauli P --hardware H --allowance A`` (after
    ``jw-encode`` for fermion input), then ``report``."""
    hw, profile = cr.load_hardware(json.loads(case.hardware))
    if case.kind == "fermion":
        terms = cr.parse_fermion_terms(case.program)
        program_text = cr.serialize_pauli_program(cr.jw_encode(terms))
    else:
        program_text = case.program
    program = cr.parse_pauli_program(program_text)
    sched = cr.synthesize(
        program, hw, profile, allowance=case.allowance, options=cr.SynthesisOptions()
    )
    cr.verify_routing(sched, hw, profile, allowance=case.allowance)
    report = cr.fidelity_report(sched, hw, profile)
    text = _serialize(tracer, sched)
    return OpOutput(text, json_text(report.to_json_dict()), program_text, report.esp, hw, profile)


def search_op(cr, case: Case, tracer=None) -> OpOutput:
    """``search --circuit C --hardware H --steps 32 --schedule-out S``."""
    hw, profile = cr.load_hardware(json.loads(case.hardware))
    circuit = cr.parse_circuit(case.program)
    compiles = 0

    def compile_fn(allowance: float):
        nonlocal compiles
        compiles += 1
        return cr.compile_circuit(circuit, hw, profile, allowance=allowance)

    result = cr.search_allowance(compile_fn, hw, profile, steps=SEARCH_STEPS)
    best = compile_fn(result.best_allowance)
    cr.verify_routing(
        sched=best, hw=hw, profile=profile, circuit=circuit, allowance=result.best_allowance
    )
    text = _serialize(tracer, best)
    return OpOutput(
        text,
        json_text(result.to_json_dict()),
        case.program,
        result.best_value,
        hw,
        profile,
        compiles,
    )


OPS = {"compile-grid": compile_op, "synth-pauli": synth_op, "search-allowance": search_op}

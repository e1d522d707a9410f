"""Crosstalk-aware mapping, scheduling and ansatz synthesis for coupled qubits."""

from .baseline import baseline_schedule
from .errors import (
    ChromarouteError,
    EncodingError,
    HardwareError,
    InvariantError,
    MappingError,
    ParseError,
    StallError,
    VerificationError,
)
from .fidelity import (
    AllowanceSearchResult,
    FidelityReport,
    decoherence_error,
    esp,
    fidelity_report,
    search_allowance,
    tvd,
)
from .hardware import (
    CouplingGraph,
    CrosstalkProfile,
    CrosstalkRecord,
    Mapping,
    load_hardware,
    load_hardware_file,
)
from .ir import (
    Gate,
    LogicalCircuit,
    PauliProgram,
    PauliString,
    parse_circuit,
    parse_pauli_program,
    serialize_circuit,
    serialize_pauli_program,
)
from .jw import FermionTerm, jw_encode, parse_fermion_terms
from .scheduler import (
    LedgerEntry,
    Op,
    ScheduledCircuit,
    compile_circuit,
    expand_two_local,
    verify_routing,
)
from .vqa import SynthesisOptions, synthesize

__version__ = "0.1.0"

__all__ = [
    "AllowanceSearchResult",
    "ChromarouteError",
    "CouplingGraph",
    "CrosstalkProfile",
    "CrosstalkRecord",
    "EncodingError",
    "FermionTerm",
    "FidelityReport",
    "Gate",
    "HardwareError",
    "InvariantError",
    "LedgerEntry",
    "LogicalCircuit",
    "Mapping",
    "MappingError",
    "Op",
    "ParseError",
    "PauliProgram",
    "PauliString",
    "ScheduledCircuit",
    "StallError",
    "SynthesisOptions",
    "VerificationError",
    "baseline_schedule",
    "compile_circuit",
    "decoherence_error",
    "esp",
    "expand_two_local",
    "fidelity_report",
    "jw_encode",
    "load_hardware",
    "load_hardware_file",
    "parse_circuit",
    "parse_fermion_terms",
    "parse_pauli_program",
    "search_allowance",
    "serialize_circuit",
    "serialize_pauli_program",
    "synthesize",
    "tvd",
    "verify_routing",
]

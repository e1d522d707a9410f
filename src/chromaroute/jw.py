"""Jordan-Wigner encoding of fermionic operators into Pauli programs.

A mode-j creation operator becomes Z x ... x Z x sigma+ with j leading Zs,
where sigma+ = (X - iY)/2 flips |0> (empty) to |1> (occupied) and the Z
chain carries the antisymmetric sign.  Products of ladder operators are
expanded symbolically over Pauli strings; the input must be Hermitian as a
whole, which shows up as all imaginary parts cancelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EncodingError, ParseError
from .ir import PauliProgram, PauliString, parse_finite, program_lines

COEFF_CUTOFF = 1e-12
IMAG_TOLERANCE = 1e-9

# Single-qubit products, left factor times right factor: (phase, result).
_PAULI_MUL = {
    ("I", "I"): (1, "I"),
    ("I", "X"): (1, "X"),
    ("I", "Y"): (1, "Y"),
    ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"),
    ("Y", "I"): (1, "Y"),
    ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"),
    ("Y", "Y"): (1, "I"),
    ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


@dataclass(frozen=True)
class FermionTerm:
    """A scalar times a product of ladder operators, applied left to right.

    ``ops`` holds (mode, is_creation) pairs; ``0.5 * a0+ a1-`` is
    FermionTerm(0.5, ((0, True), (1, False))).
    """

    coefficient: float
    ops: tuple[tuple[int, bool], ...]

    def max_mode(self) -> int:
        return max((m for m, _ in self.ops), default=-1)


def parse_fermion_terms(text: str) -> list[FermionTerm]:
    """Parse lines of the form ``coefficient 0+ 1+ 3- 2-``.

    Each token after the coefficient is a mode index suffixed with ``+``
    (creation) or ``-`` (annihilation).  A line with only a coefficient is a
    constant term.  ``#`` starts a comment.
    """
    terms: list[FermionTerm] = []
    for lineno, parts in program_lines(text):
        coeff = parse_finite(parts[0], "coefficient", lineno)
        ops = []
        for tok in parts[1:]:
            if len(tok) < 2 or tok[-1] not in "+-":
                raise ParseError(f"bad ladder operator {tok!r}, expected e.g. '2+'", lineno)
            try:
                mode = int(tok[:-1])
            except ValueError as exc:
                raise ParseError(f"bad mode index in {tok!r}", lineno) from exc
            if mode < 0:
                raise ParseError(f"negative mode index in {tok!r}", lineno)
            ops.append((mode, tok[-1] == "+"))
        terms.append(FermionTerm(coeff, tuple(ops)))
    if not terms:
        raise ParseError("empty fermion input")
    return terms


def _ladder_strings(mode: int, creation: bool, width: int) -> list[tuple[str, complex]]:
    zs = "Z" * mode
    tail = "I" * (width - mode - 1)
    y_coeff = -0.5j if creation else 0.5j
    return [(zs + "X" + tail, 0.5), (zs + "Y" + tail, y_coeff)]


def _multiply(s1: str, s2: str) -> tuple[complex, str]:
    phase: complex = 1
    out = []
    for a, b in zip(s1, s2):
        ph, c = _PAULI_MUL[(a, b)]
        phase *= ph
        out.append(c)
    return phase, "".join(out)


def jw_encode(terms: list[FermionTerm], num_modes: int | None = None) -> PauliProgram:
    """Encode a Hermitian sum of fermionic terms as a Pauli program.

    A weight that is not finite (an overflow) raises EncodingError.  A
    string is dropped if its |weight| is 0 or below ``COEFF_CUTOFF`` times
    the largest, and a kept one whose |imaginary part| exceeds
    ``IMAG_TOLERANCE`` times it (the input was not Hermitian) raises: both
    are relative, so scaling every coefficient by 2**k scales each weight.
    The output is sorted by weight (non-identity count), then
    lexicographically.
    """
    highest = max((t.max_mode() for t in terms), default=-1)
    if num_modes is None:
        num_modes = highest + 1
        if num_modes <= 0:
            raise EncodingError("cannot infer mode count: no ladder operators present")
    elif num_modes <= 0:
        raise EncodingError(f"mode count must be at least 1, got {num_modes}")
    if highest >= num_modes:
        raise EncodingError(f"mode {highest} out of range for {num_modes} modes")
    identity = "I" * num_modes
    total: dict[str, complex] = {}
    for term in terms:
        acc: dict[str, complex] = {identity: complex(term.coefficient)}
        for mode, creation in term.ops:
            nxt: dict[str, complex] = {}
            for s1, c1 in acc.items():
                for s2, c2 in _ladder_strings(mode, creation, num_modes):
                    phase, prod = _multiply(s1, s2)
                    nxt[prod] = nxt.get(prod, 0) + c1 * c2 * phase
            acc = nxt
        for s, c in acc.items():
            total[s] = total.get(s, 0) + c
    for s, c in total.items():  # before the cutoff, which a NaN would pass
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise EncodingError(f"string {s} has weight {c}, which is not finite")
    scale = max(map(abs, total.values()), default=0.0)
    surviving = {s: c for s, c in total.items() if c and abs(c) >= COEFF_CUTOFF * scale}
    for s, c in surviving.items():
        if abs(c.imag) > IMAG_TOLERANCE * scale:
            raise EncodingError(f"operator is not Hermitian: string {s} has imaginary weight {c.imag:g}")
    ordered = sorted(surviving, key=lambda s: (sum(1 for ch in s if ch != "I"), s))
    return PauliProgram(num_modes, [PauliString(s, surviving[s].real) for s in ordered])

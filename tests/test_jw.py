import random

import numpy as np
import pytest

from chromaroute import EncodingError, FermionTerm, ParseError, jw_encode, parse_fermion_terms
from chromaroute.fixtures import h2_terms

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
ANNIHILATE = np.array([[0, 1], [0, 0]], dtype=complex)


def ladder_matrix(mode, creation, width):
    # mode 0 is the leftmost tensor factor, Z chain on the modes before it
    factors = [SIGMA["Z"]] * mode
    factors.append(ANNIHILATE.conj().T if creation else ANNIHILATE)
    factors.extend([SIGMA["I"]] * (width - mode - 1))
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def dense_from_terms(terms, width):
    dim = 2**width
    total = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        acc = np.eye(dim, dtype=complex) * t.coefficient
        for mode, creation in t.ops:
            acc = acc @ ladder_matrix(mode, creation, width)
        total += acc
    return total


def dense_from_program(program):
    dim = 2**program.num_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for s in program.strings:
        acc = np.array([[1.0]], dtype=complex)
        for ch in s.operators:
            acc = np.kron(acc, SIGMA[ch])
        total += s.coefficient * acc
    return total


def test_pauli_product_phase_table():
    from chromaroute.jw import _PAULI_MUL

    for a in "IXYZ":
        for b in "IXYZ":
            phase, c = _PAULI_MUL[(a, b)]
            assert np.allclose(SIGMA[a] @ SIGMA[b], phase * SIGMA[c])


def test_parse_fermion_terms():
    terms = parse_fermion_terms("# H\n0.5 0+ 1-\n-1.25 2+ 2-\n3.0\n")
    assert terms[0] == FermionTerm(0.5, ((0, True), (1, False)))
    assert terms[1] == FermionTerm(-1.25, ((2, True), (2, False)))
    assert terms[2] == FermionTerm(3.0, ())
    assert terms[1].max_mode() == 2
    assert terms[2].max_mode() == -1


def test_parse_fermion_errors():
    with pytest.raises(ParseError):
        parse_fermion_terms("")
    with pytest.raises(ParseError):
        parse_fermion_terms("abc 0+\n")
    with pytest.raises(ParseError):
        parse_fermion_terms("0.5 0*\n")
    with pytest.raises(ParseError):
        parse_fermion_terms("0.5 +\n")
    with pytest.raises(ParseError):
        parse_fermion_terms("0.5 -1+\n")


def test_number_operator_encoding():
    prog = jw_encode([FermionTerm(1.0, ((0, True), (0, False)))])
    assert [(s.operators, s.coefficient) for s in prog.strings] == [("I", 0.5), ("Z", -0.5)]


def test_hopping_term_encoding():
    terms = [
        FermionTerm(1.0, ((0, True), (1, False))),
        FermionTerm(1.0, ((1, True), (0, False))),
    ]
    prog = jw_encode(terms)
    assert [(s.operators, s.coefficient) for s in prog.strings] == [
        ("XX", pytest.approx(0.5)),
        ("YY", pytest.approx(0.5)),
    ]


def test_z_chain_spans_intermediate_modes():
    terms = [
        FermionTerm(1.0, ((0, True), (2, False))),
        FermionTerm(1.0, ((2, True), (0, False))),
    ]
    prog = jw_encode(terms)
    assert [s.operators for s in prog.strings] == ["XZX", "YZY"]
    assert [s.coefficient for s in prog.strings] == [pytest.approx(0.5), pytest.approx(0.5)]


def test_constant_term_needs_explicit_width():
    with pytest.raises(EncodingError):
        jw_encode([FermionTerm(2.0, ())])
    prog = jw_encode([FermionTerm(2.0, ())], num_modes=2)
    assert [(s.operators, s.coefficient) for s in prog.strings] == [("II", 2.0)]


def test_non_hermitian_input_rejected():
    with pytest.raises(EncodingError):
        jw_encode([FermionTerm(1.0, ((0, True),))])
    with pytest.raises(EncodingError):
        jw_encode([FermionTerm(1.0, ((0, True), (1, False)))])
    # every weight is far below 1e-12, but the cutoffs are relative
    with pytest.raises(EncodingError, match="not Hermitian"):
        jw_encode([FermionTerm(0.5 * 2.0**-40, ((0, True), (1, False)))])


def test_mode_out_of_range():
    with pytest.raises(EncodingError):
        jw_encode([FermionTerm(1.0, ((3, True), (3, False)))], num_modes=2)
    for num_modes in (0, -2):
        with pytest.raises(EncodingError, match=f"mode count must be at least 1, got {num_modes}"):
            jw_encode([FermionTerm(1.0, ((0, True), (0, False)))], num_modes=num_modes)


def test_a_weight_that_is_not_finite_is_rejected():
    # Three number operators near the float maximum overflow when summed.
    with pytest.raises(EncodingError, match="not finite"):
        jw_encode([FermionTerm(1.7e308, ((0, True), (0, False)))] * 3)
    # A NaN weight fails the cutoff test, so it is checked before the cutoff.
    with pytest.raises(EncodingError, match="not finite"):
        jw_encode([FermionTerm(float("nan"), ((0, True), (0, False)))])


def test_annihilation_squared_vanishes():
    prog = jw_encode(
        [FermionTerm(1.0, ((0, False), (0, False))), FermionTerm(1.0, ((0, True), (0, True)))],
        num_modes=1,
    )
    assert prog.strings == []


def test_h2_fixture_encodes_to_the_15_terms():
    prog = jw_encode(h2_terms())
    assert prog.num_qubits == 4
    got = {s.operators: s.coefficient for s in prog.strings}
    expected = {
        "IIII": -0.81261,
        "ZIII": 0.171201,
        "IZII": 0.171201,
        "IIZI": -0.2227965,
        "IIIZ": -0.2227965,
        "ZZII": 0.16862325,
        "ZIZI": 0.12054625,
        "ZIIZ": 0.165868,
        "IZZI": 0.165868,
        "IZIZ": 0.12054625,
        "IIZZ": 0.17434925,
        "XXYY": -0.04532175,
        "XYYX": 0.04532175,
        "YXXY": 0.04532175,
        "YYXX": -0.04532175,
    }
    assert set(got) == set(expected)
    for ops, coeff in expected.items():
        assert got[ops] == pytest.approx(coeff, abs=1e-9), ops


def test_h2_output_sorted_by_weight_then_lex():
    prog = jw_encode(h2_terms())
    weights = [sum(1 for ch in s.operators if ch != "I") for s in prog.strings]
    assert weights == sorted(weights)
    assert prog.strings[0].operators == "IIII"
    by_weight = {}
    for s in prog.strings:
        by_weight.setdefault(sum(1 for ch in s.operators if ch != "I"), []).append(s.operators)
    for group in by_weight.values():
        assert group == sorted(group)


def test_h2_matches_dense_matrix():
    terms = h2_terms()
    prog = jw_encode(terms)
    assert np.allclose(dense_from_terms(terms, 4), dense_from_program(prog), atol=1e-9)


def test_random_hermitian_operators_match_dense_oracle():
    rng = random.Random(20260822)
    for _ in range(100):
        width = rng.choice([2, 3])
        terms = []
        for _ in range(rng.randint(1, 3)):
            ops = tuple(
                (rng.randrange(width), rng.random() < 0.5)
                for _ in range(rng.randint(1, 4))
            )
            coeff = rng.uniform(-2.0, 2.0)
            conj = tuple((m, not creation) for m, creation in reversed(ops))
            terms.append(FermionTerm(coeff, ops))
            terms.append(FermionTerm(coeff, conj))
        dense = dense_from_terms(terms, width)
        assert np.allclose(dense, dense.conj().T, atol=1e-12)
        prog = jw_encode(terms, num_modes=width)
        assert np.allclose(dense, dense_from_program(prog), atol=1e-9)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaroute import (
    HardwareError,
    Mapping,
    decoherence_error,
    parse_circuit,
    parse_pauli_program,
    serialize_circuit,
    serialize_pauli_program,
    tvd,
)
from chromaroute.hardware import normalize_edge
from chromaroute.vqa import kruskal_mst

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-100.0, max_value=100.0)


@st.composite
def circuit_texts(draw):
    n = draw(st.integers(2, 8))
    lines = [f"qubits {n}"]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["cx", "swap", "rzz", "u"]))
        if kind == "u":
            label = draw(st.sampled_from(["h", "t", "rx90", "rxm90"]))
            lines.append(f"u {label} {draw(st.integers(0, n - 1))}")
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1).filter(lambda x: x != a))
            if kind == "rzz":
                lines.append(f"rzz {draw(finite)!r} {a} {b}")
            else:
                lines.append(f"{kind} {a} {b}")
    return "\n".join(lines) + "\n"


@given(circuit_texts())
def test_circuit_roundtrip(text):
    circ = parse_circuit(text)
    again = parse_circuit(serialize_circuit(circ))
    assert again.num_qubits == circ.num_qubits
    assert [
        (g.kind, g.qubits, g.param, g.label) for g in again.gates
    ] == [(g.kind, g.qubits, g.param, g.label) for g in circ.gates]


@st.composite
def pauli_texts(draw):
    n = draw(st.integers(1, 6))
    count = draw(st.integers(1, 6))
    lines = []
    for _ in range(count):
        ops = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
        coeff = draw(finite.filter(lambda x: x != 0.0))
        lines.append(f"{coeff!r} {ops}")
    return "\n".join(lines) + "\n"


@given(pauli_texts())
def test_pauli_program_roundtrip(text):
    prog = parse_pauli_program(text)
    again = parse_pauli_program(serialize_pauli_program(prog))
    assert again.num_qubits == prog.num_qubits
    assert [(s.coefficient, s.operators) for s in again.strings] == [
        (s.coefficient, s.operators) for s in prog.strings
    ]


@given(
    st.integers(1, 6),
    st.integers(0, 20),
    st.randoms(use_true_random=False),
)
def test_mapping_stays_a_bijection_under_swaps(num_logical, num_swaps, rng):
    num_physical = max(2, num_logical + rng.randint(0, 3))
    m = Mapping(num_logical, num_physical)
    for _ in range(num_swaps):
        a, b = rng.sample(range(num_physical), 2)
        m.apply_swap(a, b)
    seen = set()
    for l in range(num_logical):
        p = m.phys(l)
        assert 0 <= p < num_physical
        assert m.logical_at(p) == l
        seen.add(p)
    assert len(seen) == num_logical


@given(st.integers(0, 50), st.integers(0, 50))
def test_normalize_edge_sorts_and_is_idempotent(a, b):
    if a == b:
        with pytest.raises(HardwareError):
            normalize_edge(a, b)
        return
    e = normalize_edge(a, b)
    assert e == (min(a, b), max(a, b))
    assert normalize_edge(*e) == e


dists = st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=8).map(
    lambda ws: {i: w / sum(ws) for i, w in enumerate(ws)}
)


@given(dists, dists)
def test_tvd_is_a_bounded_metric(p, q):
    d = tvd(p, q)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert tvd(q, p) == d
    assert tvd(p, p) == 0.0


@given(dists, dists, dists)
def test_tvd_triangle_inequality(p, q, r):
    assert tvd(p, r) <= tvd(p, q) + tvd(q, r) + 1e-12


@given(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e3),
    st.floats(min_value=0.1, max_value=1e3),
)
def test_decoherence_error_is_monotone_and_bounded(t_a, t_b, t1, t2):
    lo, hi = sorted((t_a, t_b))
    q_lo = decoherence_error(lo, t1, t2)
    q_hi = decoherence_error(hi, t1, t2)
    assert 0.0 <= q_lo <= q_hi <= 1.0


@settings(max_examples=50)
@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_kruskal_always_returns_a_spanning_tree(n, rng):
    import itertools

    weights = {e: rng.randint(1, 30) for e in itertools.combinations(range(n), 2)}
    tree = kruskal_mst(list(range(n)), weights)
    assert len(tree) == n - 1
    reach = {0}
    frontier = [0]
    adj = {}
    for a, b in tree:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    while frontier:
        node = frontier.pop()
        for nxt in adj.get(node, []):
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    assert reach == set(range(n))

"""Mutation fuzz of the documents the CLI reads.

Each example makes one mutation of a fixture document: it replaces the
value at one path with a value from ``POOL`` or deletes the key.  Then it
runs the command in-process.  Whatever the mutation, the command must end
with exit 0 or with a usage error (exit 2), never with a traceback (exit 1)
or an internal error (exit 4).
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromaroute.cli import main
from chromaroute.fixtures import fixture_text

DELETE = object()
POOL = (None, 0, -1, math.nan, "", [], {}, True, 10**12, DELETE)


def _paths(doc, prefix=()):
    """Every path into ``doc``: the root, then each key or index below it."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


def _draw_mutated(data, doc):
    """A deep copy of ``doc`` with one value replaced or one key deleted."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(st.sampled_from(POOL if path else POOL[:-1]))
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run(argv):
    """``main(argv)`` with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """ring6_cross.json, the pair circuit, the chain Pauli program, and the
    schedule ``compile`` writes for the circuit at allowance inf."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "hw.json").write_text(fixture_text("ring6_cross.json"))
    (tmp / "pair.txt").write_text(fixture_text("pair_circuit.txt"))
    (tmp / "chain.txt").write_text(fixture_text("chain_pair.txt"))
    argv = ["compile", "-c", str(tmp / "pair.txt"), "-H", str(tmp / "hw.json"), "-a", "inf"]
    assert _run(argv + ["-o", str(tmp / "sched.json")]) == (0, "")
    return tmp


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_hardware_compiles_or_is_a_usage_error(workdir, data):
    """Every entry point that prices crosstalk on the device: compile,
    synthesis and the allowance search."""
    hardware = json.loads((workdir / "hw.json").read_text())
    bad = workdir / "bad_hw.json"
    bad.write_text(json.dumps(_draw_mutated(data, hardware)))
    allowance = data.draw(st.sampled_from(("0", "0.05", "inf")))
    for argv in (
        ["compile", "-c", str(workdir / "pair.txt"), "-a", allowance],
        ["vqe-synth", "-p", str(workdir / "chain.txt"), "-a", allowance],
        ["search", "-c", str(workdir / "pair.txt"), "--steps", "4"],
    ):
        code, err = _run(argv + ["-H", str(bad), "-o", str(workdir / "out.json")])
        assert code in (0, 2), err
        assert "Traceback" not in err


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_mutated_schedule_reports_or_is_a_usage_error(workdir, data):
    schedule = json.loads((workdir / "sched.json").read_text())
    bad = workdir / "bad_sched.json"
    bad.write_text(json.dumps(_draw_mutated(data, schedule)))
    argv = ["report", "-s", str(bad), "-H", str(workdir / "hw.json")]
    code, err = _run(argv + ["-o", str(workdir / "report.json")])
    assert code in (0, 2), err
    assert "Traceback" not in err

"""Pinned sha256 digests of what the CLI writes for the fixtures.

Each case runs one subcommand with ``-o``, ``--emit-timeline`` and
``--emit-csg`` and hashes the three files: the schedule JSON, the timeline
text (which also renders the crosstalk ledger) and the DOT text of every
candidate set graph the scheduler built.  Each compiler case also runs
with ``-o`` alone, where no hook asks for the graphs, and must write the
same schedule.  ``report`` on each case's schedule and device must write
the bytes ``REPORT_DIGESTS`` pins, which holds the ESP to the last bit.
A change that alters any of them
on purpose updates the digests here and says why; print the current ones,
and the per-loop digests of ``test_escape.py``'s seeded-grid fuzz, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from chromaroute.cli import main
from chromaroute.fixtures import fixture_text

# Single-qubit gates, an explicit SWAP gate, rzz and cx on six qubits, so
# the circuit loops place singles and land circuit SWAPs as well as routing.
MIXED_CIRCUIT = """\
qubits 6
u h 0
cx 0 3
rzz 0.3 1 4
swap 2 5
cx 5 0
u x 3
cx 2 4
rzz 0.7 0 1
cx 3 5
u h 2
cx 1 3
swap 0 4
cx 4 2
"""

# Three- and four-local strings: parity ladders, routing and the mirror.
WIDE_PAULI = """\
0.5 ZIZIZI
0.25 XZIIZY
-0.125 IYZZII
0.75 ZZZZII
"""

FILES = {
    "ring6_cross.json": lambda: fixture_text("ring6_cross.json"),
    "ring6_cross_hot.json": lambda: fixture_text("ring6_cross_hot.json"),
    "grid6.json": lambda: fixture_text("grid6.json"),
    "tree7.json": lambda: fixture_text("tree7.json"),
    "pair_circuit.txt": lambda: fixture_text("pair_circuit.txt"),
    "chain_pair.txt": lambda: fixture_text("chain_pair.txt"),
    "zz_string.txt": lambda: fixture_text("zz_string.txt"),
    "mixed.txt": lambda: MIXED_CIRCUIT,
    "wide.txt": lambda: WIDE_PAULI,
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for allowance in ("0", "0.05", "inf"):
        cases[f"compile-pair-error-{allowance}"] = [
            "compile", "-c", "pair_circuit.txt", "-H", "ring6_cross.json", "-a", allowance,
        ]
    for allowance in ("0", "0.05", "0.1", "inf"):
        cases[f"compile-mixed-error-{allowance}"] = [
            "compile", "-c", "mixed.txt", "-H", "grid6.json", "-a", allowance,
        ]
    cases["compile-mixed-mapped"] = [
        "compile", "-c", "mixed.txt", "-H", "ring6_cross.json",
        "-a", "0.004", "-m", "0:3,1:0,2:5,3:1,4:2,5:4",
    ]
    cases["baseline-pair"] = ["compile", "--baseline", "-c", "pair_circuit.txt", "-H", "ring6_cross.json"]
    cases["baseline-mixed"] = ["compile", "--baseline", "-c", "mixed.txt", "-H", "grid6.json"]
    for look in ("on", "off"):
        cases[f"synth-chain-{look}"] = [
            "vqe-synth", "-p", "chain_pair.txt", "-H", "grid6.json", "--lookahead", look,
        ]
        cases[f"synth-wide-{look}"] = [
            "vqe-synth", "-p", "wide.txt", "-H", "grid6.json", "-a", "0.05", "--lookahead", look,
        ]
    cases["synth-zz-tree7"] = ["vqe-synth", "-p", "zz_string.txt", "-H", "tree7.json", "-a", "inf"]
    cases["compile-wide-pauli"] = ["compile", "-p", "wide.txt", "-H", "ring6_cross.json", "-a", "0.004"]
    return cases


CASES = _cases()

# case -> (schedule JSON, timeline, CSG DOT) sha256, computed before the
# crosstalk budget and the shared loop bookkeeping were factored out.
EXPECTED: dict[str, tuple[str, str, str]] = {
    'baseline-mixed': (
        '51d9b4674c6912329cdbfa69c593a6e728eb9b0c79b9edaabf1a12afafe0ae24',
        'd167cea243a55615ce47e43dc999862ab34e5084836f79cbc976a642f4ff1005',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    'baseline-pair': (
        'f55854ad0956ab5043a411e4282d8cc05446f61ca32fd07647785c573265b7cb',
        '5b1ecf4a2a6ec9af99db619b178a95d837acdc101f6b24490c05481441c572d0',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    ),
    'compile-mixed-error-0': (
        'e3bb4eaa6ae4b2be9249e12908797cbdb2d4567108eda8fcb516c786228f181a',
        '1e23c6ffddf990103a62c67fdfd5fbb0aa57c55e6c5f86cf25a06f6d2782a9b7',
        '6e816cc523426474e7444f587e06e7c27b4629c2d166f33479e5d4776077801b',
    ),
    'compile-mixed-error-0.05': (
        'e3bb4eaa6ae4b2be9249e12908797cbdb2d4567108eda8fcb516c786228f181a',
        '1e23c6ffddf990103a62c67fdfd5fbb0aa57c55e6c5f86cf25a06f6d2782a9b7',
        '6e816cc523426474e7444f587e06e7c27b4629c2d166f33479e5d4776077801b',
    ),
    'compile-mixed-error-0.1': (
        '4035cc3926f636c6a62cef7c97b420acb556c7f69806429e41e3ce26e3ed4594',
        '9920c7d928df841ec16da86437f5d43af4ef216350100c8f6a6fd6d08f97ac5d',
        '7b114f5622a219e369b19f188647451d7db3e99eba96042c078451565d97c8b6',
    ),
    'compile-mixed-error-inf': (
        'fc12d327f1dc0d037da6853a615b62bb0bf7027ec945eb344fa48e7e3805887f',
        'eef9d79e15f4b9834c1e9565a1533ebe11bb5f3e90a8d71d1998fea2b27e1213',
        '6e9fbb30337487cf169514686733610425e483bdc60c44640d9ab576dad4dc95',
    ),
    'compile-mixed-mapped': (
        'd4ef06dcaf5d07e896a8ee944194ee6868cb836d5d1ac9a8b9f7098f9cf9f9e2',
        '818f8d7d1759d8a679320ed129e238e38fbc359083454f7a534f0e4b5ff53f36',
        '92029e5a96bd17e21699e410f0118d56518832bf87206767935de047a5ada2ca',
    ),
    'compile-pair-error-0': (
        '8e74985bd6a5b972f7045184762546d36644137ae831dfde1bf1f9239846e9a3',
        'd61ec1bc34c4ca463f437d2131bf2c1d5d40b507156bd41af0146e33c16e3623',
        '7574c6ac887e24a425834ef8c7ac3dc09ca2896367bf798ab973e8c98662d253',
    ),
    'compile-pair-error-0.05': (
        'e900aa3bb66ef09c5d24f8b1e9635e8df6a2882378e61d26637675d4143bfc07',
        'e332dde7b3dc16077c9f062b2e655780b353a1481e024e8ffa3cdaa5cc581ad0',
        '9d781d19d6657e846498886c39e67d44d928267d519069a32480ebee97f22126',
    ),
    'compile-pair-error-inf': (
        'e900aa3bb66ef09c5d24f8b1e9635e8df6a2882378e61d26637675d4143bfc07',
        'e332dde7b3dc16077c9f062b2e655780b353a1481e024e8ffa3cdaa5cc581ad0',
        '9d781d19d6657e846498886c39e67d44d928267d519069a32480ebee97f22126',
    ),
    'compile-wide-pauli': (
        'ab62da755f35b5f305b33aaa146570e1681795ebfcba7f58c42ca7eb33c44304',
        '7e98af899f4ac2f955d997c6ae085cf8844ab159deeec70cc06f3835cc88cabc',
        '46214dba23f585722d2b92d6ae119f60a1d0fc948e5e740fba8cbf3904cadf58',
    ),
    'synth-chain-off': (
        '9ee66cf5300d9088f14c4e68455e99c59f62d04dd722adddd39b77cf2e5ea433',
        '1084eb8137298e0ef47724f3543e3ce182e6eb983a76d21975e94f88f8d3c085',
        '6b71d4586cf98e8edb829de57c0889b2fba7811a8ff00de04673a3c9e34acfa7',
    ),
    'synth-chain-on': (
        'ab72e5eb7947dfcd41d0c3b2554a6c100d9fd46684af242df2c73c763ddffef0',
        '10c2a3a7e09b1b192e6d214a3d7ad0890769623e373ed092ed2a40e4dee939b8',
        '444aa0ebc4c646ff052700df39228a724f285e32536b16139981bd86d764075e',
    ),
    'synth-wide-off': (
        '9e89cc7cb50fd60a4cb2536d4ca05df384f5f181f2c3253f43a6ad95114f2ea7',
        '157751e41b1f81a691b7a68d5bb44eeea787cf47aedc3f9708634bb816cda795',
        '779ee4cdc11640da2d9bdccc391bc4721d7f5bd810d830821b52ca186d9e8464',
    ),
    'synth-wide-on': (
        '9e89cc7cb50fd60a4cb2536d4ca05df384f5f181f2c3253f43a6ad95114f2ea7',
        '157751e41b1f81a691b7a68d5bb44eeea787cf47aedc3f9708634bb816cda795',
        '779ee4cdc11640da2d9bdccc391bc4721d7f5bd810d830821b52ca186d9e8464',
    ),
    'synth-zz-tree7': (
        '3d0c1e9aeb06285d2f7b33fc31bc8c0d730b828034f866b4fb17c6477596415b',
        '68fff29226cb9eece257e72a4a38257ce2e87df876abe088e9c3e54616952f54',
        '97e4bc822d6c3d5beae0496a889f1e1ee08545f367d891d62be82374bcddb462',
    ),
}

# case -> sha256 of the ``report`` JSON of its schedule, computed before
# ``esp`` read the device's rate tables directly.
REPORT_DIGESTS: dict[str, str] = {
    'baseline-mixed': 'e7a1808bdfffbcaaa3ef5dbd1306a7f276e940a01326addd36a423baf7acd6f4',
    'baseline-pair': '47eed33f914b572c03042bb2a797b5cbca35dd486ec12b6549c689f5f02c0dd8',
    'compile-mixed-error-0': 'c3463d7333f35825c2c001fe239b2d2b9ded5659f093a1dada5ac3f83b9ea8db',
    'compile-mixed-error-0.05': 'c3463d7333f35825c2c001fe239b2d2b9ded5659f093a1dada5ac3f83b9ea8db',
    'compile-mixed-error-0.1': '9f40aca1f16cefe834f03455403cb771cb0912a329cfc03e6010926840ab8c0a',
    'compile-mixed-error-inf': '602ca199b4f923d8ed081b9ff76d42b505e947aadb484b3651e39446c8f66585',
    'compile-mixed-mapped': '70aeb788e0e4c7e27f0fe1699134f049c897f396dfdf2f3cc8b787cdfbc431b4',
    'compile-pair-error-0': 'f065a5d1282d2842d7740e50c2b55f1724c4c1c02a1dd1e812ea603499222440',
    'compile-pair-error-0.05': 'f58084a0c57cb32a8d69f1bc36d5afc28bccceca7152d6a6329f825a68e12609',
    'compile-pair-error-inf': 'f58084a0c57cb32a8d69f1bc36d5afc28bccceca7152d6a6329f825a68e12609',
    'compile-wide-pauli': 'fa97bc86dc7b9a35182e894d39c0ec3d48a262b1fe7ba72d8997af99fd3971f0',
    'synth-chain-off': 'e965edb0b578c3fb41adec3110dd7e1ca1073dd863fe66eecbb461a0bc9aead0',
    'synth-chain-on': '9e7c8d74323086e73e3d0248bae919cc4e2532241dad1de93ae92933df2f94a4',
    'synth-wide-off': 'f848f93d1e1555d13d6444996625433cf56b4efbf1abacb9c19dc35d40b12d5b',
    'synth-wide-on': 'f848f93d1e1555d13d6444996625433cf56b4efbf1abacb9c19dc35d40b12d5b',
    'synth-zz-tree7': 'd93fbcf052af0e6c6f765da3fb8fae9ffc2909503c3d01958082e401af664380',
}


def run_case(tmp_path: Path, argv: list[str]) -> tuple[str, str, str]:
    for name, text in FILES.items():
        path = tmp_path / name
        if not path.exists():
            path.write_text(text(), encoding="utf-8")
    args = [str(tmp_path / a) if a in FILES else a for a in argv]
    outs = [tmp_path / "out.json", tmp_path / "timeline.txt", tmp_path / "csg.dot"]
    rc = main(args + ["-o", str(outs[0]), "--emit-timeline", str(outs[1]), "--emit-csg", str(outs[2])])
    assert rc == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in outs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digests(name, tmp_path):
    assert run_case(tmp_path, CASES[name]) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(n for n in CASES if not n.startswith("baseline-")))
def test_schedules_without_hooks_match_the_digest(name, tmp_path):
    """Without ``--emit-csg`` and ``--emit-timeline`` no ``on_iteration``
    hook asks for the CSG, so a flight layer that can permit no crosstalk
    pair commits what ``flight_color_zero`` gives, and a layer with no
    choice builds no CSG; the schedule must be the one the hooked run
    pins."""
    for file, text in FILES.items():
        (tmp_path / file).write_text(text(), encoding="utf-8")
    out = tmp_path / "out.json"
    args = [str(tmp_path / a) if a in FILES else a for a in CASES[name]]
    assert main(args + ["-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED[name][0]


def report_digest(tmp_path: Path, argv: list[str]) -> str:
    """sha256 of what ``report`` writes for the schedule the case ``argv``
    writes, on the case's own device."""
    for name, text in FILES.items():
        (tmp_path / name).write_text(text(), encoding="utf-8")
    sched, report = tmp_path / "out.json", tmp_path / "report.json"
    args = [str(tmp_path / a) if a in FILES else a for a in argv]
    assert main(args + ["-o", str(sched)]) == 0
    device = args[argv.index("-H") + 1]
    assert main(["report", "-s", str(sched), "-H", device, "-o", str(report)]) == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digests(name, tmp_path):
    assert report_digest(tmp_path, CASES[name]) == REPORT_DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(EXPECTED) == sorted(CASES) == sorted(REPORT_DIGESTS)


if __name__ == "__main__":
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests = run_case(Path(tmp), CASES[name])
        sys.stdout.write(f"    {name!r}: (\n" + "".join(f"        {d!r},\n" for d in digests) + "    ),\n")

    sys.stdout.write("\nREPORT_DIGESTS = {\n")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f"    {name!r}: {report_digest(Path(tmp), CASES[name])!r},\n")
    sys.stdout.write("}\n")

    from test_escape import seeded_grid_digests

    sys.stdout.write("\nSEEDED_GRID_DIGESTS = {\n")
    for loop, digest in seeded_grid_digests().items():
        sys.stdout.write(f"    {loop!r}: {digest!r},\n")
    sys.stdout.write("}\n")

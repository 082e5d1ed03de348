"""Fixed-seed CLI reports stay byte-identical.

Each command runs in-process and its report's sha256 is compared with the
hash pinned in ``perfbench/golden.json``, which the benchmark checks too.
Every pinned report is covered, the d = 6 Breuer-Hall build (``network-bh6``,
a 94 MB report, a few seconds) included. Four more d = 6 reports, which
the benchmark does not run, are pinned in this file (``D6_REPORTS``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from netwitness.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

COMMANDS = {
    "readme-witness-choi": "witness build --family choi",
    "readme-network-bh4": "network build --family bh --d 4",
    "readme-verify-reconstruction-pbd3":
        "verify reconstruction --family pbd --d 3 --lambda 2/3,1/3,0",
    "readme-verify-ppt-smolin": "verify ppt --family smolin",
    "readme-protocol-run": "protocol run --family two-qubit --state psi-minus",
    "readme-protocol-shots": "protocol shots --family choi --state isotropic --fidelity 0.8 "
                             "--shots 100000 --seed 7",
    "readme-scan": "scan choi-bound-entangled --resolution 40 --seed 0",
    "readme-graph-demo": "graph demo",
    "network-pbd4": "network build --family pbd --lambda 0.4,0.3,0.2,0.1",
    "network-bh4-csv": "network build --family bh --d 4 --format csv",
    "network-bh6": "network build --family bh --d 6",
}


def test_every_golden_report_is_covered():
    assert set(GOLDEN) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden_hash(name, tmp_path, capsys):
    out = tmp_path / name
    main(COMMANDS[name].split() + ["--out", str(out)])
    capsys.readouterr()
    data = out.read_bytes()
    assert {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)} == GOLDEN[name]


# d = 6 reports outside golden.json, pinned here: the dense d = 6 network
# build dominates each of them, and each must keep its bytes.
D6_REPORTS = {
    "protocol run --family bh --d 6 --state maximally-mixed":
        "4b95062a08cb3965ffdeafbbd9fdc224f7ae93d2c42f484715e36547561c1dcd",
    "verify ppt --family bh --d 6":
        "ea9e41093ef089e6b22db2cce5312dc65977ade31d2ef4c569672bf100ce2ece",
    "verify reconstruction --family bh --d 6":
        "44bb94b0182705a6a47411544d59892abcc8724ab35015f08842151128430f5c",
    # d = 6 is the one d where the readout table is not the gate product bit
    # for bit (rows other than (0, 0) differ by up to 1.5e-15)
    "protocol shots --family bh --d 6 --state isotropic --fidelity 0.3 --shots 100000 --seed 1":
        "5814773b4ef4a0d042452a89591618bdb4274718143066b1e64f497617fffa14",
}


@pytest.mark.parametrize("command", sorted(D6_REPORTS))
def test_d6_report_matches_pinned_hash(command, tmp_path, capsys):
    out = tmp_path / "report"
    main(command.split() + ["--out", str(out)])
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == D6_REPORTS[command]

"""Smoke test of the programs in scripts/: each runs from a fresh interpreter
against the package in src/ and prints its headline lines."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_identities():
    out = run_script("reproduce_identities.py")
    lines = out.splitlines()
    assert lines[0].split() == ["family", "d", "eta", "recon_const", "max_error"]
    rows = [line.split() for line in lines[1:lines.index("")]]
    assert [row[0] for row in rows] == [
        "flip", "flip", "decomposable", "choi",
        "reduction", "reduction", "smolin", "breuer-hall", "ghz", "graph"]
    assert all(float(row[-1]) <= 1e-9 for row in rows)
    residuals = re.findall(r"worst \|LHS - \(1/(?:8|16) - tr\[rho W\]/(?:4|8)\)\| = (\S+)", out)
    assert len(residuals) == 2
    assert all(float(r) <= 1e-9 for r in residuals)
    assert "LHS for the singlet input        = 0.250000000000" in out


def test_scan_bound_entanglement():
    out = run_script("scan_bound_entanglement.py")
    assert out.startswith("Bell-label weights p[s,t]:\n")
    values = dict(re.findall(r"^\s*(tr\[W rho\]|min eig of PT)\s+= (\S+)", out, re.M))
    assert float(values["tr[W rho]"]) <= -1e-4
    assert float(values["min eig of PT"]) >= -1e-12
    assert re.search(r"^\s+verdict\s+= detected$", out, re.M)

"""Pinned sha256 of every fixed-seed cli-export report (golden.json).

Fixed-seed reports are meant to be byte-identical across refactors. A change
that legitimately alters report bytes re-pins them in the same change:

    python3 perfbench/golden.py    # from the repository root
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def digest(path: Path) -> dict:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            size += len(block)
    return {"sha256": h.hexdigest(), "bytes": size}


def check(name: str, path: Path, pinned: dict) -> list:
    got = digest(path)
    if got != pinned[name]:
        return [f"report differs from golden: {got['bytes']} bytes sha256 {got['sha256'][:16]}"
                f" vs {pinned[name]['bytes']} bytes {pinned[name]['sha256'][:16]}"]
    return []


def main() -> int:
    from cli_export import FIXED_COMMANDS, child_env

    root = Path(__file__).resolve().parent.parent
    env = child_env(root / "src")
    pinned = {}
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        for name, cmd in FIXED_COMMANDS.items():
            out = Path(tmp) / name
            argv = [sys.executable, "-m", "netwitness", *cmd.split(), "--out", str(out)]
            subprocess.run(argv, env=env, check=True, timeout=300)
            pinned[name] = digest(out)
    GOLDEN_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} reports in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

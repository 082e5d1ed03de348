"""Deterministic report emission: canonical JSON and flat CSV.

Identical inputs must produce byte-identical files, so floats are printed
with a fixed %.12e format, keys are sorted, and no timestamps or absolute
paths enter a report.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys

import numpy as np

from . import __version__ as VERSION

TOLERANCES = {
    "structural": 1e-10,
    "reconstruction": 1e-9,
    "ppt_floor": -1e-9,
    "sep_floor": -1e-6,
    "verdict_band": 1e-9,
}


def _format_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12e}"
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"unsupported report value type {type(x)!r}")


# Item lines per write of a float block: bounded memory for any matrix size.
_FLOAT_CHUNK = 4096


def _float_block(values: np.ndarray, inner: str, write) -> None:
    """Write the item lines of a 1-D float64 array, ``_FLOAT_CHUNK`` at a time,
    each distinct bit pattern of a chunk (so -0.0 and every NaN payload apart)
    formatted once."""
    sep = "[\n"
    for start in range(0, len(values), _FLOAT_CHUNK):
        chunk = values[start:start + _FLOAT_CHUNK].view(np.uint64)
        bits, inverse = np.unique(chunk, return_inverse=True)
        lines = np.array([f"{inner}{v:.12e}" for v in bits.view(np.float64).tolist()],
                         dtype=object)
        write(sep + ",\n".join(lines[inverse].tolist()))
        sep = ",\n"


def _write_json(obj, write, indent: int = 0) -> None:
    """Pass the canonical JSON text of ``obj`` to ``write`` piece by piece."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        sep = "{\n"
        for key in sorted(obj):
            write(f"{sep}{inner}{json.dumps(str(key))}: ")
            _write_json(obj[key], write, indent + 1)
            sep = ",\n"
        write(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            write("[]")
            return
        if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1:
            _float_block(obj, inner, write)
        else:
            sep = "[\n"
            for v in obj.tolist() if isinstance(obj, np.ndarray) else obj:
                write(f"{sep}{inner}")
                _write_json(v, write, indent + 1)
                sep = ",\n"
        write(f"\n{pad}]")
    else:
        write(_format_scalar(obj))


def canonical_json(obj) -> str:
    parts = []
    _write_json(obj, parts.append)
    return "".join(parts)


def base_report(command: str, inputs: dict) -> dict:
    return {
        "command": command,
        "version": VERSION,
        "tolerances": dict(TOLERANCES),
        "inputs": inputs,
        "outputs": {},
    }


# exactly the scalar types _format_scalar renders
_SCALARS = (type(None), bool, np.bool_, int, np.integer, float, np.floating, str)


def _flatten_scalars(obj, prefix: str = "", out=None) -> dict:
    if out is None:
        out = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten_scalars(obj[key], path, out)
    elif isinstance(obj, _SCALARS):
        out[prefix] = obj
    # lists and matrices are dropped from the CSV view
    return out


def to_csv(report: dict) -> str:
    flat = _flatten_scalars(report)
    keys = sorted(flat)
    header = ",".join(json.dumps(k) for k in keys)
    return header + "\n" + ",".join(_format_scalar(flat[k]) for k in keys) + "\n"


def _write_report(report: dict, fmt: str, fh) -> None:
    if fmt == "csv":
        fh.write(to_csv(report))
    else:
        _write_json(report, fh.write)
        fh.write("\n")


def emit_report(report: dict, path: str | None, fmt: str = "json") -> None:
    """Write the report piece by piece to ``path``, or to stdout without one.

    A new or regular file is written under a name beside ``path`` and renamed
    onto it once whole, so a failed write leaves no partial report and any
    earlier one intact; it gets the mode ``open(path, "w")`` would give it.
    Other targets (a symlink such as /dev/stdout, a device) are written in place.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    old = os.lstat(path) if path and os.path.lexists(path) else None
    if not path or (old is not None and not stat.S_ISREG(old.st_mode)):
        with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
            _write_report(report, fmt, fh)
        return
    part = f"{path}.{os.getpid()}.part"
    fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open()
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            _write_report(report, fmt, fh)
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise

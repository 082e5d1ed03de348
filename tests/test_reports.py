import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from netwitness import cli, networks, protocol, reports, tensor
from netwitness.cli import FAMILIES, build_network, main
from netwitness.reports import TOLERANCES, base_report, canonical_json, emit_report, to_csv
from netwitness.states import random_state


def _loop_json(obj, indent: int = 0) -> str:
    """canonical_json as one recursive call per value: the reference the
    block-formatting serializer must reproduce byte for byte."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(key))}: {_loop_json(obj[key], indent + 1)}"
                 for key in sorted(obj)]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{_loop_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.12e}"
    return json.dumps(obj)


def _network_report(family: str, lam=None) -> dict:
    report = base_report("network build", {"family": family, "lambda": lam})
    report["outputs"] = build_network(family, None, lam).to_dict()
    return report


NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
SPECIALS = [0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
            5e-324, -5e-324, 1e308, 0.1, 0.0, -0.0, 1e308]


class TestCanonicalJsonMatchesLoop:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_network_report_of_every_family(self, family):
        lam = (2 / 3, 1 / 3, 0.0) if FAMILIES[family].d is None else None
        report = _network_report(family, lam)
        assert canonical_json(report) == _loop_json(report)

    def test_pbd4_network_report(self):
        report = _network_report("pbd", (0.5, 0.25, 0.125, 0.125))
        assert canonical_json(report) == _loop_json(report)

    def test_dense_random_state_with_all_values_distinct(self):
        # a Hermitian state repeats each off-diagonal value once; the raw
        # Gaussian draws repeat none
        state = random_state((4, 4, 4), rng_seed=17).mat.to_dict()
        draws = np.random.default_rng(17).standard_normal(4096).tolist()
        assert len(set(state["re"])) > len(state["re"]) // 2
        assert len(set(draws)) == len(draws)
        report = {"outputs": {"state": state, "draws": draws}}
        assert canonical_json(report) == _loop_json(report)

    def test_special_and_mixed_values(self):
        obj = {
            "floats": SPECIALS,
            "mixed": SPECIALS + [1, True, False, None, np.float64(2.5), np.int64(-3),
                                 np.bool_(True), "x", [0.0, -0.0, [math.nan]], [], {}],
            "nested": [[], [1.0], [-0.0, 0.0], [[0.5, 0.5], [0.5, np.float32(0.5)]]],
            "array": np.array([-0.0, 0.0, math.inf, 1e-300]),
            "tuple": (1.0, -0.0),
            "ints": [1, 2, 3],
            "np_floats": [np.float64(0.5), np.float64(-0.0)],
            "empty": [],
        }
        assert canonical_json(obj) == _loop_json(obj)
        assert canonical_json(SPECIALS) == _loop_json(SPECIALS)

    def test_cli_file_and_stdout_hold_the_same_bytes(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["network", "build", "--family", "choi", "--out", str(path)]) == 0
        assert main(["network", "build", "--family", "choi"]) == 0
        text = path.read_text()
        assert capsys.readouterr().out == text
        assert text == _loop_json(json.loads(text)) + "\n"


class TestEmitReport:
    def test_writes_json_and_csv(self, capsys, tmp_path):
        report = {"a": [0.5, -0.0], "b": {"c": 1}}
        emit_report(report, None)
        assert capsys.readouterr().out == _loop_json(report) + "\n"
        path = tmp_path / "r.csv"
        emit_report(report, str(path), "csv")
        assert path.read_text() == to_csv(report)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            emit_report({}, str(tmp_path / "r.txt"), "xml")

    def test_float_blocks_across_chunk_boundaries(self):
        n = 3 * reports._FLOAT_CHUNK + 5
        values = np.resize(np.array(SPECIALS), n)
        mixed = np.empty(n, dtype=complex)
        mixed.real, mixed.imag = values, values[::-1]
        obj = {"array": values, "strided": mixed.imag, "list": values.tolist()}
        assert canonical_json(obj) == _loop_json(obj)

    def test_failed_write_leaves_no_partial_report(self, tmp_path):
        # the writer raises on the object after some 200 kB of floats
        bad = {"a": np.arange(10_000.0), "z": object()}
        path = tmp_path / "r.json"
        with pytest.raises(TypeError, match="unsupported report value"):
            emit_report(bad, str(path))
        assert list(tmp_path.iterdir()) == []
        emit_report({"a": [0.5]}, str(path))
        earlier = path.read_bytes()
        with pytest.raises(TypeError, match="unsupported report value"):
            emit_report(bad, str(path))
        assert path.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [path]

    def test_keeps_the_permissions_of_a_plain_open(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "r.json"
        emit_report({"a": 1}, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        path.chmod(0o640)
        emit_report({"a": 2}, str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert json.loads(path.read_text()) == {"a": 2}

    def test_other_targets_are_written_in_place(self, capfd, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        emit_report({"a": 1}, str(link))
        assert link.is_symlink() and json.loads(target.read_text()) == {"a": 1}
        emit_report({"a": 1}, "/dev/stdout")
        assert capfd.readouterr().out == _loop_json({"a": 1}) + "\n"
        emit_report({"a": 1}, os.devnull)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_network_report_memory_is_bounded_by_the_state(self, tmp_path):
        # the matrix goes out in chunks from the state's own array: no list of
        # Python floats and no whole-block string
        net = networks.bh_network(4)
        tracemalloc.start()
        try:
            report = base_report("network build", {"family": "bh", "d": 4})
            report["outputs"] = net.to_dict()
            emit_report(report, str(tmp_path / "bh4.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * net.state.data.nbytes


class TestCsv:
    def test_numpy_scalars_are_kept(self):
        text = to_csv({"a": np.bool_(True), "b": np.int64(3), "c": 1.5, "d": np.float32(0.5)})
        assert text == '"a","b","c","d"\ntrue,3,1.500000000000e+00,5.000000000000e-01\n'

    def test_csv_accepts_what_json_renders(self):
        report = {"a": np.bool_(False), "b": {"c": np.uint8(7), "d": None, "e": "s"}}
        header, row = to_csv(report).strip().split("\n")
        assert header == '"a","b.c","b.d","b.e"'
        assert row == 'false,7,null,"s"'
        assert '"c": 7' in canonical_json(report)


def test_tolerance_echo_matches_applied_constants():
    # the report echoes these three; the PPT and separable floors are not yet in step
    assert TOLERANCES["structural"] == tensor.STRUCTURAL_TOL
    assert TOLERANCES["reconstruction"] == cli.RECON_TOL
    assert TOLERANCES["verdict_band"] == protocol.VERDICT_BAND

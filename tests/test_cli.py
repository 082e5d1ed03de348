import json

import numpy as np
import pytest

from netwitness.cli import main
from netwitness.reports import canonical_json, to_csv
from netwitness.tensor import Mat


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


class TestProtocolRun:
    def test_psi_minus_two_qubit(self, capsys):
        code, report = run_json(
            ["protocol", "run", "--family", "two-qubit", "--state", "psi-minus"], capsys)
        assert code == 0
        out = report["outputs"]
        assert out["verdict"] == "detected"
        assert abs(out["raw_overlap"] - 0.25) <= 1e-12
        assert abs(out["raw_threshold"] - 0.125) <= 1e-12
        assert report["version"] == "0.1.0"
        assert report["tolerances"]["reconstruction"] == 1e-9

    def test_state_file_input(self, capsys, tmp_path):
        psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
        mat = Mat(np.outer(psi, psi), (2, 2))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(mat.to_dict()))
        code, report = run_json(
            ["protocol", "run", "--family", "two-qubit", "--state-file", str(path)], capsys)
        assert code == 0
        assert report["outputs"]["verdict"] == "detected"

    def test_missing_state_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["protocol", "run", "--family", "two-qubit"])
        assert err.value.code == 2

    @pytest.mark.parametrize("content", [
        {"dims": [2, 2], "re": [float("nan")] + [0.0] * 15, "im": [0.0] * 16},
        {"dims": [2, 2], "re": [float("inf")] + [0.0] * 15, "im": [0.0] * 16},
        {"dims": [2, 2], "re": [0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0.25]},
        [0.25, 0.25, 0.25, 0.25],
    ], ids=["nan", "inf", "missing-im", "top-level-array"])
    def test_bad_state_file_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as err:
            main(["protocol", "run", "--family", "choi", "--state-file", str(path)])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestProtocolShots:
    def test_zero_shots_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["protocol", "shots", "--family", "two-qubit",
                  "--state", "psi-minus", "--shots", "0"])
        assert err.value.code == 2

    def test_seed_echo_and_determinism(self, capsys):
        args = ["protocol", "shots", "--family", "choi", "--state", "maximally-mixed",
                "--shots", "2000", "--seed", "11"]
        code1, out1 = run_cli(args, capsys)
        code2, out2 = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["outputs"]["shots"]["seed"] == 11
        assert report["inputs"]["shots"] == 2000


class TestVerify:
    def test_reconstruction_pbd_choi(self, capsys):
        code, report = run_json(
            ["verify", "reconstruction", "--family", "pbd", "--d", "3",
             "--lambda", "2/3,1/3,0"], capsys)
        assert code == 0
        out = report["outputs"]
        assert out["max_elementwise_error"] <= 1e-9
        assert out["passed"] is True
        assert report["inputs"]["lambda"]["text"] == "2/3,1/3,0"
        # values pass through the fixed %.12e report formatting
        assert abs(report["inputs"]["lambda"]["values"][0] - 2 / 3) <= 1e-12

    @pytest.mark.parametrize("family,extra", [
        ("two-qubit", []),
        ("flip", ["--d", "3"]),
        ("reduction", ["--d", "3"]),
        ("bh", ["--d", "4"]),
        ("decomposable", ["--d", "3", "--seed", "5"]),
    ])
    def test_reconstruction_families(self, capsys, family, extra):
        code, report = run_json(
            ["verify", "reconstruction", "--family", family] + extra, capsys)
        assert code == 0
        assert report["outputs"]["passed"] is True

    def test_reconstruction_custom_eta(self, capsys):
        code, report = run_json(
            ["verify", "reconstruction", "--family", "decomposable", "--d", "2",
             "--eta", "0.55", "--seed", "3"], capsys)
        assert code == 0
        assert report["outputs"]["passed"] is True
        assert abs(report["outputs"]["eta"] - 0.55) <= 1e-12

    def test_eta_rejected_for_fixed_families(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["network", "build", "--family", "choi", "--eta", "0.7"])
        assert err.value.code == 2

    def test_ppt_smolin_passes(self, capsys):
        code, report = run_json(["verify", "ppt", "--family", "smolin"], capsys)
        assert code == 0
        assert report["outputs"]["passed"] is True
        assert len(report["outputs"]["min_eig_by_cut"]) == 7

    def test_ppt_reduction_d3_expects_negative_cut(self, capsys):
        code, report = run_json(
            ["verify", "ppt", "--family", "reduction", "--d", "3"], capsys)
        assert code == 0
        checks = report["outputs"]["checks"]
        assert checks[0]["cut"] == "A2A3:B2B3"
        assert checks[0]["value"] < -1e-6


class TestBuildCommands:
    def test_witness_build_choi(self, capsys):
        code, report = run_json(["witness", "build", "--family", "choi"], capsys)
        assert code == 0
        out = report["outputs"]
        assert out["family"] == "choi"
        mat = Mat.from_dict(out["matrix"])
        assert mat.dims == (3, 3)
        assert abs(out["eta"] - 2 / 3) <= 1e-12

    def test_network_build_bh(self, capsys):
        code, report = run_json(
            ["network", "build", "--family", "bh", "--d", "4"], capsys)
        assert code == 0
        out = report["outputs"]
        assert out["d"] == 4
        state = Mat.from_dict(out["state"])
        assert abs(np.trace(state.data) - 1) <= 1e-10

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["witness", "build", "--family", "nonsense"])
        assert err.value.code == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["witness", "build", "--family", "choi", "--bogus", "1"])
        assert err.value.code == 2


class TestScanAndGraph:
    def test_scan_finds_state(self, capsys):
        code, report = run_json(
            ["scan", "choi-bound-entangled", "--resolution", "20", "--seed", "3"], capsys)
        assert code == 0
        out = report["outputs"]
        assert out["found"] is True
        assert out["min_pt_eig"] >= -1e-12
        assert out["witness_value"] <= -1e-4
        assert out["protocol"]["verdict"] == "detected"

    def test_scan_not_found_exit_code(self, capsys):
        code, report = run_json(
            ["scan", "choi-bound-entangled", "--resolution", "4", "--seed", "0"], capsys)
        assert code == 1
        assert report["outputs"]["found"] is False

    def test_graph_demo(self, capsys):
        code, report = run_json(["graph", "demo"], capsys)
        assert code == 0
        out = report["outputs"]
        assert out["passed"] is True
        assert out["ghz"]["verdict"] == "detected"
        assert out["cl4"]["verdict"] == "detected"
        assert abs(out["cl4"]["witness_expectation"] + 0.5) <= 1e-9


class TestReportFormats:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["witness", "build", "--family", "two-qubit", "--out", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["command"] == "witness build"

    def test_csv_format(self, capsys):
        code, out = run_cli(
            ["protocol", "run", "--family", "two-qubit", "--state", "psi-minus",
             "--format", "csv"], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        assert '"outputs.verdict"' in header
        cols = header.split(",")
        vals = row.split(",")
        verdict = vals[cols.index('"outputs.verdict"')]
        assert verdict == '"detected"'

    def test_canonical_json_sorted_and_fixed_floats(self):
        text = canonical_json({"b": 0.5, "a": 2, "c": {"y": None, "x": True}})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "5.000000000000e-01" in text

    def test_csv_drops_lists(self):
        text = to_csv({"a": [1, 2, 3], "b": 1.5})
        assert "a" not in text.split("\n")[0]

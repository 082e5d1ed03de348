import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netwitness import networks, states
from netwitness.cli import FAMILIES, build_network, build_witness, main, ppt_expectations
from netwitness.networks import ppt_report
from netwitness.reports import canonical_json, to_csv
from netwitness.tensor import Mat

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def usage_error(args, capsys):
    """Run the CLI, expect exit code 2 with an ``error:`` or usage line; return stderr."""
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    return capsys.readouterr().err


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
        path.write_text(canonical_json(mat.to_dict()))
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

    @pytest.mark.parametrize("dims", [[2.9, 2.2], ["2", "2"]], ids=["float", "str"])
    def test_non_integer_dims_in_state_file_is_usage_error(self, capsys, tmp_path, dims):
        path = tmp_path / "state.json"
        path.write_text(canonical_json({**Mat(np.eye(4) / 4, (2, 2)).to_dict(), "dims": dims}))
        err = usage_error(["protocol", "run", "--family", "two-qubit",
                           "--state-file", str(path)], capsys)
        assert err.startswith("error: ") and "integer" in err

    def test_state_and_state_file_together_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(canonical_json(Mat(np.eye(4) / 4, (2, 2)).to_dict()))
        err = usage_error(["protocol", "run", "--family", "two-qubit",
                           "--state", "maximally-mixed", "--state-file", str(path)], capsys)
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("field, content, message", [
        ("re", {"dims": [3, 3], "re": [1.0], "im": [0.0] * 81},
         "matrix JSON field re must list prod(dims)^2 = 81 numbers, not an array of shape (1,)"),
        ("im", {"dims": [2, 2], "re": [0.25] * 16, "im": [[0.0] * 4] * 4},
         "matrix JSON field im must list prod(dims)^2 = 16 numbers, not an array of shape (4, 4)"),
        ("dims", {"dims": [True, 2], "re": [1.0] * 4, "im": [0.0] * 4},
         "matrix JSON field dims must hold integers, not [True, 2]"),
        # a side that wraps to 0 in int64 once read this as an empty matrix
        ("re", {"dims": [2**32, 2**32], "re": [], "im": []},
         f"matrix JSON field re must list prod(dims)^2 = {2**128} numbers, "
         "not an array of shape (0,)"),
        # a string or boolean entry once read as a number and the command ran
        ("re", {"dims": [2, 2], "re": ["0.5"] + [0.0] * 4 + [0.5] + [0.0] * 10, "im": [0.0] * 16},
         "matrix JSON field re must hold numbers, not '0.5'"),
        ("im", {"dims": [2, 2], "re": [0.25] + [0.0] * 4 + [0.75] + [0.0] * 10,
                "im": [False] * 16},
         "matrix JSON field im must hold numbers, not False"),
    ], ids=["short-re", "nested-im", "boolean-dims", "overflowing-dims", "string-re",
            "boolean-im"])
    def test_malformed_state_file_names_the_field(self, capsys, tmp_path, field, content,
                                                  message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(content))
        err = usage_error(["protocol", "run", "--family", "two-qubit",
                           "--state-file", str(path)], capsys)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"dims": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                             ids=["list", "dims"])
    def test_deeply_nested_state_file_is_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        err = usage_error(["protocol", "run", "--family", "two-qubit",
                           "--state-file", str(path)], capsys)
        assert err == f"error: --state-file {path} nests too deeply\n"

    def test_unreadable_state_file_is_usage_error(self, capsys, tmp_path):
        err = usage_error(["protocol", "run", "--family", "two-qubit",
                           "--state-file", str(tmp_path)], capsys)
        assert err.startswith("error: ")


class TestOversizedD:
    def test_overflowing_d_is_usage_error(self, capsys):
        # the (1/d,) * d lambda tuple overflows before any array is allocated
        err = usage_error(["witness", "build", "--family", "reduction", "--d", str(10**20)],
                          capsys)
        assert err.startswith("error: cannot fit 'int' into an index-sized integer")

    def test_side_beyond_int64_is_not_read_as_empty(self, capsys):
        # d^2 = 2**64 wraps to 0 in int64, which once built a (0, 0) matrix
        err = usage_error(["witness", "build", "--family", "decomposable", "--d", str(2**32)],
                          capsys)
        assert err.startswith("error: ") and "(0, 0)" not in err

    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch):
        def unaffordable(d):
            raise MemoryError(f"Unable to allocate the d = {d} network state")

        monkeypatch.setattr(networks, "flip_network", unaffordable)
        err = usage_error(["protocol", "run", "--family", "flip", "--state", "phi-plus"], capsys)
        assert err == "error: Unable to allocate the d = 2 network state\n"


class TestProtocolShots:
    def test_zero_shots_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["protocol", "shots", "--family", "two-qubit",
                  "--state", "psi-minus", "--shots", "0"])
        assert err.value.code == 2

    def test_shots_beyond_int64_usage_error(self, capsys):
        err = usage_error(["protocol", "shots", "--family", "two-qubit",
                           "--state", "psi-minus", "--shots", str(2**63)], capsys)
        assert "error: shots must lie in" in err

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


@pytest.mark.parametrize("command", [["run"], ["shots", "--shots", "100"]],
                         ids=["run", "shots"])
def test_protocol_rejects_a_lambda_that_is_no_witness(capsys, tmp_path, command):
    # lambda = (0.1, 0.9) violates the cyclic inequality; unscreened, the run
    # would call the product state |00> "detected"
    path = tmp_path / "state.json"
    path.write_text(canonical_json(Mat(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2)).to_dict()))
    err = usage_error(["protocol", *command, "--family", "pbd", "--lambda", "0.1,0.9",
                       "--state-file", str(path)], capsys)
    assert "cyclic inequality violated" in err


@pytest.mark.parametrize("lam", [
    "0.1,0.9",
    # 9 l1 l2 - (2 - 3 l0)^2 = -1/50176: no witness, though 2,000 random
    # falsifier trials find no violation; decided exactly at d = 3
    "4/7,5/224,13/32",
    "0.1,0.3,0.3,0.3",  # the falsifier's worst value is 10 > 4
    # Fourier mode 3 has |hat|^2 - Re hat = +6.0e-4, though the falsifier's
    # 2,000 trials find no violation
    "0.3867,0.0737,0.0729,0.3641,0.0401,0.0625",
], ids=["d2-rule", "d3-rule", "d4-falsifier", "d6-fourier"])
@pytest.mark.parametrize("command", [
    ["network", "build"],
    ["verify", "reconstruction"],
    ["verify", "ppt"],
    ["protocol", "run", "--state", "maximally-mixed"],
    ["protocol", "shots", "--state", "maximally-mixed", "--shots", "100"],
], ids=["network-build", "verify-reconstruction", "verify-ppt", "protocol-run", "protocol-shots"])
def test_family_commands_reject_a_lambda_that_is_no_witness(capsys, command, lam):
    err = usage_error([*command, "--family", "pbd", "--lambda", lam], capsys)
    assert "not a valid Bell-diagonal witness: cyclic inequality violated" in err


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("command", [["network", "build"], ["verify", "reconstruction"]],
                         ids=["network-build", "verify-reconstruction"])
def test_decomposable_row_has_one_realization(capsys, command, d):
    # without --eta the row realizes its witness at eta = 1/d, through the same
    # split as an explicit --eta 1/d
    argv = [*command, "--family", "decomposable", "--d", str(d), "--seed", "3"]
    code, plain = run_json(argv, capsys)
    code_eta, explicit = run_json(argv + ["--eta", repr(1 / d)], capsys)
    assert code == code_eta == 0
    assert plain["outputs"] == explicit["outputs"]


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

    @pytest.mark.parametrize("text, reason", [
        ("nan,0.5", "Invalid literal for Fraction: 'nan'"),
        ("0.5,,0.5", "Invalid literal for Fraction: ''"),
        ("1/0,0", "Fraction(1, 0)"),
    ], ids=["nan", "empty", "zero-denominator"])
    def test_bad_lambda_names_the_flag(self, capsys, text, reason):
        err = usage_error(["verify", "reconstruction", "--family", "pbd", "--lambda", text],
                          capsys)
        assert err.startswith(f"error: invalid --lambda {text!r}: ")
        assert reason in err

    def test_lambda_zero_denominator_is_usage_error(self, capsys):
        err = usage_error(["verify", "reconstruction", "--family", "pbd", "--lambda", "1/0"],
                          capsys)
        assert err.startswith("error: ")

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

    def test_reconstruction_fails_when_the_target_is_within_tolerance(self, capsys):
        # recon_constant is 1.7e-16 here, so a residual under 1e-9 shows nothing
        code, report = run_json(
            ["verify", "reconstruction", "--family", "decomposable", "--d", "3",
             "--eta", "0.9999999999999999", "--seed", "1"], capsys)
        assert code == 1
        assert report["outputs"]["max_elementwise_error"] <= 1e-9
        assert report["outputs"]["passed"] is False

    def test_reconstruction_custom_eta(self, capsys):
        code, report = run_json(
            ["verify", "reconstruction", "--family", "decomposable", "--d", "2",
             "--eta", "0.55", "--seed", "3"], capsys)
        assert code == 0
        assert report["outputs"]["passed"] is True
        assert abs(report["outputs"]["eta"] - 0.55) <= 1e-12

    def test_network_build_eta_below_one_over_d(self, capsys):
        code, report = run_json(
            ["network", "build", "--family", "decomposable", "--d", "3", "--eta", "0.2"], capsys)
        assert code == 0
        assert abs(report["outputs"]["eta"] - 0.2) <= 1e-12

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

    @pytest.mark.parametrize("argv", [
        ["network", "build"],
        ["verify", "reconstruction"],
        ["verify", "reconstruction", "--eta", "0.5"],
        ["protocol", "run", "--state", "phi-plus"],
    ], ids=["network-build", "verify-reconstruction", "verify-reconstruction-eta", "protocol-run"])
    def test_decomposable_q_is_drawn_once(self, capsys, monkeypatch, argv):
        draws = []
        random_state = states.random_state

        def counted(*args, **kwargs):
            draws.append(args)
            return random_state(*args, **kwargs)

        monkeypatch.setattr(states, "random_state", counted)
        assert main(argv + ["--family", "decomposable", "--seed", "7"]) == 0
        assert draws == [((3, 3),)]  # the seeded Q, once

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["witness", "build", "--family", "nonsense"])
        assert err.value.code == 2

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["witness", "build", "--family", "choi", "--bogus", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("args", [
        ["network", "build", "--family", "choi", "--d", "5"],
        ["witness", "build", "--family", "two-qubit", "--d", "3"],
        ["network", "build", "--family", "pbd", "--d", "4", "--lambda", "2/3,1/3,0"],
        ["witness", "build", "--family", "pbd", "--d", "4", "--lambda", "2/3,1/3,0"],
        ["network", "build", "--family", "reduction", "--d", "0"],
        ["network", "build", "--family", "reduction", "--d", "1"],
        ["network", "build", "--family", "choi", "--lambda", "2/3,1/3,0"],
        ["witness", "build", "--family", "bh", "--lambda", "1"],
        ["protocol", "run", "--family", "two-qubit", "--state", "psi-minus",
         "--fidelity", "0.8"],
        ["protocol", "run", "--family", "choi", "--state", "maximally-mixed",
         "--fidelity", "0.8"],
    ], ids=["d-fixed-family", "d-fixed-witness", "d-vs-lambda", "d-vs-lambda-witness",
            "d-zero", "d-one", "lambda-fixed-family", "lambda-bh-witness",
            "fidelity-psi-minus", "fidelity-maximally-mixed"])
    def test_ignored_input_is_usage_error(self, capsys, args):
        usage_error(args, capsys)

    def test_fidelity_with_state_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(canonical_json(Mat(np.eye(4) / 4, (2, 2)).to_dict()))
        err = usage_error(["protocol", "run", "--family", "two-qubit", "--state-file",
                           str(path), "--fidelity", "0.8"], capsys)
        assert err.startswith("error: ")


def family_args(family):
    """--family plus the --lambda a row without a default d needs."""
    return ["--family", family] + (["--lambda", "2/3,1/3,0"] if FAMILIES[family].d is None else [])


class TestFamilyTable:
    """Every name in the table, aliases included, serves every family command."""

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_every_command_accepts_every_family(self, capsys, tmp_path, family):
        out = str(tmp_path / "report")
        for command in (["witness", "build"], ["network", "build"],
                        ["verify", "reconstruction"], ["verify", "ppt"]):
            assert main(command + family_args(family) + ["--out", out]) == 0, command
            assert json.loads(Path(out).read_text())["outputs"].get("passed", True) is True

    @pytest.mark.parametrize("family, eta", [(f, None) for f in FAMILIES] + [("decomposable", 0.5)],
                             ids=[*FAMILIES, "decomposable-eta"])
    def test_witness_pairs_with_its_network(self, family, eta):
        lam = (2 / 3, 1 / 3, 0.0) if FAMILIES[family].d is None else None
        w = build_witness(family, None, lam).mat.data
        n = build_network(family, None, lam, eta=eta)
        # the network reconstructs a positive multiple of the row's witness
        # (d - 2 for the scaled Breuer-Hall witness, 1 for the rest)
        scale = np.vdot(w, n.witness.data).real / np.vdot(w, w).real
        assert scale > 0
        assert np.max(np.abs(n.witness.data - scale * w)) <= 1e-12
        cuts = {cut for d in (2, 3, 4) for cut, _, _ in ppt_expectations(family, d)}
        assert cuts <= set(ppt_report(n))

    @pytest.mark.parametrize("family", [f for f in FAMILIES if FAMILIES[f] is not FAMILIES["bh"]])
    def test_network_witness_has_the_builders_bits(self, family):
        # one formula per witness: the network carries the builder's matrix
        lam = (0.4, 0.3, 0.2, 0.1) if FAMILIES[family].d is None else None
        w = build_witness(family, None, lam).mat.data
        assert build_network(family, None, lam).witness.data.tobytes() == w.tobytes()

    def test_readme_family_list_matches_table(self):
        cli_section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1]
        cli_section = cli_section.split("\n## ")[0]
        listed = set()
        for line in cli_section.splitlines():
            if line.startswith("* `"):
                listed.update(re.findall(r"`([^`]+)`", line.split(":")[0]))
        assert listed == set(FAMILIES)


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

    def test_scan_resolution_beyond_the_bound_is_usage_error(self, capsys, monkeypatch):
        def screen(*args):
            raise AssertionError("the scan started")
        monkeypatch.setattr(states, "_screen", screen)
        for resolution in ("16384", "100000000"):
            err = usage_error(["scan", "choi-bound-entangled", "--resolution", resolution],
                              capsys)
            assert err == f"error: resolution must lie in [2, 16383], not {resolution}\n"

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

    def test_graph_demo_builds_each_network_once(self, tmp_path):
        # a fresh process, so that no protocol is cached yet: GHZ and CL4, one build each
        code = ("import netwitness.graphs as graphs\n"
                "from netwitness.cli import main\n"
                "builds, build = [], graphs.pairing\n"
                "graphs.pairing = lambda *a: builds.append(a) or build(*a)\n"
                f"assert main(['graph', 'demo', '--out', {str(tmp_path / 'r')!r}]) == 0\n"
                "print(len(builds))\n")
        assert run_fresh(code).split() == ["2"]


class TestReportFormats:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["witness", "build", "--family", "two-qubit", "--out", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["command"] == "witness build"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        err = usage_error(["witness", "build", "--family", "two-qubit", "--out", str(tmp_path)],
                          capsys)
        assert err.startswith("error: ")

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


@pytest.mark.parametrize("argv", [
    [],
    ["network", "build", "--family", "bh", "--d", "4"],
    ["verify", "reconstruction", "--family", "pbd", "--d", "3", "--lambda", "2/3,1/3,0"],
    ["verify", "ppt", "--family", "smolin"],
    ["protocol", "run", "--family", "two-qubit", "--state", "psi-minus"],
    ["witness", "build", "--family", "choi"],
    ["protocol", "run", "--family", "choi", "--state", "isotropic", "--fidelity", "0.8"],
], ids=["import", "network-bh4", "verify-reconstruction-pbd3",
        "verify-ppt-smolin", "protocol-run-two-qubit", "witness-build-choi",
        "protocol-run-choi-isotropic"])
def test_command_leaves_numpy_random_unloaded(tmp_path, argv):
    # loading numpy.random adds about 5 MB to a command's peak RSS; a pbd
    # command at d >= 4 loads it, since the falsifier screens --lambda there
    code = ("import sys, netwitness\n"
            "from netwitness.cli import main\n"
            f"argv = {argv!r}\n"
            f"assert not argv or main(argv + ['--out', {str(tmp_path / 'r')!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    assert run_fresh(code).split() == ["False"]

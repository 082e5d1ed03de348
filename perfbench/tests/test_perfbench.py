"""Tests of the benchmark itself: seeded inputs, output checks, emitted metrics.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import common
from certify import Certify
from cli_export import CliExport, child_env
from hostspeed import REFERENCE_S, HostSpeed
from run import END_TO_END, PER_LAYER, SRC
from sweep import ProtocolSweep
from tracing import Tracer

RUN = str(SRC.parent / "perfbench" / "run.py")

# The layer table of the benchmark note: every name must come out of a traced run.
LAYER_TABLE = [
    "import.netwitness_ms", "networks.build_s", "tensor.validate_s", "tensor.validate_calls",
    "reports.to_dict_s", "reports.canonical_json_s", "reports.write_s", "reports.bytes_written",
    "reports.canonical_json_peak_mb", "tensor.from_dict_s",
    "protocol.teleport_contraction_s", "protocol.bell_outcome_distribution_s",
    "protocol.filtering_channel_s", "protocol.measurement_circuit_probs_s",
    "protocol.sampling_s", "protocol.postselect_ratio", "protocol.inconclusive_ratio",
    "graphs.network_build_s", "graphs.detect_multi_exact_s",
    "witnesses.sep_floor_estimate_s", "witnesses.cyclic_inequality_check_s", "witnesses.build_s",
    "networks.ppt_report_s", "networks.reconstruct_witness_s", "networks.solve_decomposition_s",
    "states.find_choi_detected_ppt_s", "trace.overhead_s",
]


def _sweep_inputs(seed):
    wl = ProtocolSweep(seed)
    wl.setup(Tracer(False))
    return b"".join(op.rho.data.tobytes() + str(op.shot_seed).encode() for op in wl.ops)


def _certify_inputs(seed):
    wl = Certify(seed)
    wl.setup(Tracer(False))
    parts = []
    for op in wl.ops:
        if op.kind == "network":  # fixed builds, no seeded input
            continue
        for arg in op.args:
            if hasattr(arg, "mat"):
                parts.append(arg.mat.data.tobytes())
            else:
                parts.append(repr(arg).encode())
    return b"".join(parts)


def _cli_inputs(seed, tmp_path):
    wl = CliExport(seed, tmp_path, child_env(SRC))
    wl.setup(Tracer(False))
    return (tmp_path / "state.json").read_bytes() + " ".join(
        " ".join(op.argv) for op in wl.ops).encode()


@pytest.mark.parametrize("inputs", [_sweep_inputs, _certify_inputs])
def test_seed_fixes_in_process_inputs(inputs):
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_seed_fixes_cli_inputs(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = _cli_inputs(3, a)
    assert first.replace(str(a).encode(), b"") == _cli_inputs(3, b).replace(str(b).encode(), b"")
    assert first.replace(str(a).encode(), b"") != _cli_inputs(4, c).replace(str(c).encode(), b"")


def test_rng_stream_matches_falsifier_draws():
    # oracle.cyclic_worst draws the falsifier's candidates as one block
    rng = np.random.default_rng(5)
    rows = np.array([rng.random(3) for _ in range(7)])
    assert np.array_equal(rows, np.random.default_rng(5).random((7, 3)))


def _tamper(run, path_of, old: bytes, new: bytes):
    def tampered(op, tr):
        proc = run(op, tr)
        data = path_of(op).read_bytes()
        assert old in data
        path_of(op).write_bytes(data.replace(old, new, 1))
        return proc
    return tampered


@pytest.mark.parametrize("name, old, new", [
    ("readme-protocol-run", b"detected", b"not_detected"),          # golden sha256
    ("protocol-shots-state-file", b'"n_postselected": ', b'"n_postselected": 9'),  # parsed
])
def test_tampered_report_counts_as_failed(tmp_path, name, old, new):
    wl = CliExport(7, tmp_path, child_env(SRC))
    wl.setup(Tracer(False))
    ops = [op for op in wl.ops if op.name == name]
    clean = common.run_pass(ops, wl.run, wl.check, Tracer(False))
    assert clean.failures == []
    bad = common.run_pass(ops, _tamper(wl.run, lambda op: op.path, old, new), wl.check,
                          Tracer(False))
    assert len(bad.failures) == 1


def test_host_speed_scales_by_the_kernel_time_around_each_interval():
    speed = HostSpeed()
    speed.times, speed.mids = [REFERENCE_S] * 3 + [2 * REFERENCE_S] * 3, [0, 1, 2, 10, 11, 12]
    # before the slow phase, inside it, and halfway between
    fixed = speed.correct([0.5, 11.0, 5.9], [0.2, 0.2, 0.2])
    assert fixed == pytest.approx([0.2, 0.1, 0.2 / 1.5])


def _result(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_emits_every_layer_metric():
    proc = subprocess.run([sys.executable, RUN, "--workload", "protocol-sweep", "--seed", "1",
                           "--seconds", "0.1", "--trace", "1"],
                          capture_output=True, text=True, timeout=170, check=True)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert set(LAYER_TABLE) <= set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["protocol.bell_outcome_distribution_s"]["value"] > 0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(SRC.parent / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""netwitness benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload cli-export --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. Each
workload is a closed loop with one client: a pass runs the workload's fixed
job op by op, and passes repeat while the next one should still end within
--seconds (at least one pass runs).
Every op's output is checked. The last stdout line is the result JSON; the
line before it gives the run's details (machine facts, p90, per-op medians,
failures).

--trace 0 prints the end-to-end metrics: setup_s (median set-up), wall_s
(the job's time: the sum over its ops of each op's median time),
op_p50_ms (median op time) and peak_rss_mb. The times are corrected for the
host's speed drift (see hostspeed.py); the details line also gives them as
measured. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics, as measured, including the tracing overhead (median
traced pass minus median untraced pass); ops a workload lists as
``traced_once`` run once, traced, before the passes.
"""

from __future__ import annotations

import os

# One BLAS thread: a single closed-loop client on a shared host, with at
# most one thread computing at a time. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-export", "protocol-sweep", "certify")
SETUP_REPEATS = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.netwitness_ms": "ms",
    "networks.build_s": "s", "networks.build_calls": "count",
    "tensor.validate_s": "s", "tensor.validate_calls": "count",
    "tensor.from_dict_s": "s", "tensor.from_dict_calls": "count",
    "reports.to_dict_s": "s", "reports.to_dict_calls": "count",
    "reports.canonical_json_s": "s", "reports.canonical_json_calls": "count",
    "reports.canonical_json_peak_mb": "MB",
    "reports.to_csv_s": "s",
    "reports.write_s": "s", "reports.bytes_written": "bytes",
    "protocol.detect_exact_s": "s", "protocol.detect_exact_calls": "count",
    "protocol.detect_shots_s": "s", "protocol.detect_shots_calls": "count",
    "protocol.teleport_contraction_s": "s",
    "protocol.bell_outcome_distribution_s": "s",
    "protocol.filtering_channel_s": "s",
    "protocol.measurement_circuit_probs_s": "s",
    "protocol.sampling_s": "s",
    "protocol.postselect_ratio": "ratio",
    "protocol.inconclusive_ratio": "ratio",
    "graphs.network_build_s": "s",
    "graphs.detect_multi_exact_s": "s", "graphs.detect_multi_exact_calls": "count",
    "witnesses.build_s": "s", "witnesses.build_calls": "count",
    "witnesses.cyclic_inequality_check_s": "s",
    "witnesses.sep_floor_estimate_s": "s", "witnesses.sep_floor_estimate_calls": "count",
    "networks.ppt_report_s": "s", "networks.ppt_report_calls": "count",
    "networks.reconstruct_witness_s": "s",
    "networks.solve_decomposition_s": "s",
    "states.find_choi_detected_ppt_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import netwitness; "
                "print(t0, time.perf_counter())")


def machine_facts() -> dict:
    import numpy as np

    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
            caches[level.lower()] = int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            caches[level.lower()] = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **caches,
    }


def import_probe(env: dict, tr) -> None:
    """Start a fresh interpreter that imports netwitness and record the import span."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    start, end = (float(x) for x in out.split())
    tr.merge([["import.netwitness", None, start, end]])


def make_workload(name: str, seed: int, workdir: Path, env: dict):
    if name == "cli-export":
        from cli_export import CliExport
        return CliExport(seed, workdir, env)
    if name == "protocol-sweep":
        from sweep import ProtocolSweep
        return ProtocolSweep(seed)
    from certify import Certify
    return Certify(seed)


def per_layer_values(setup_totals, pass_totals, once_totals, overhead, import_ms) -> dict:
    """Median over traced set-ups plus median over traced passes, plus the ops
    traced once per run, per metric."""
    def med(totals, key):
        return statistics.median(t.get(key, 0.0) for t in totals) if totals else 0.0

    keys = set().union(*setup_totals, *pass_totals, once_totals)
    merged = {k: med(setup_totals, k) + med(pass_totals, k) + once_totals.get(k, 0.0)
              for k in keys}
    shots = merged.get("protocol.shots_total", 0.0)
    runs = merged.get("protocol.shot_runs", 0.0)
    merged["protocol.postselect_ratio"] = merged.get("protocol.shots_postselected", 0.0) / shots \
        if shots else 0.0
    merged["protocol.inconclusive_ratio"] = merged.get("protocol.inconclusive_runs", 0.0) / runs \
        if runs else 0.0
    merged["import.netwitness_ms"] = import_ms
    merged["trace.overhead_s"] = overhead
    return {k: merged.get(k, 0.0) for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "netwitness" / "__init__.py").is_file():
        print(f"error: no netwitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM unwind normally: kill the running child, remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from cli_export import child_env
    from hostspeed import HostSpeed
    from tracing import Tracer
    import common

    env = child_env(SRC)
    facts = machine_facts()
    speed = HostSpeed()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workload = make_workload(args.workload, args.seed, Path(tmp), env)
        import_probe(env, Tracer(False))  # compiles bytecode once; users pay that once

        setup_starts, setup_times, setup_totals = [], [], []
        for _ in range(SETUP_REPEATS):
            speed.measure()
            tr = Tracer(bool(args.trace))
            if args.trace:
                # the import is traced, not timed in setup_s: process start-up
                # swings with the host's load far more than compute does, and
                # cli-export pays it in every op
                import_probe(env, tr)
            t0 = time.perf_counter()
            workload.setup(tr)
            setup_starts.append(t0)
            setup_times.append(time.perf_counter() - t0)
            setup_totals.append(tr.totals())

        plain, traced, pass_totals, once = [], [], [], []
        once_totals = {}
        start = time.perf_counter()
        if args.trace and getattr(workload, "traced_once", None):
            tr = Tracer(True)
            once.append(common.run_pass(workload.traced_once, workload.run, workload.check, tr,
                                        speed.maybe_measure))
            once_totals = tr.totals()
            once_totals["trace.spans"] = len(tr.spans)
        while True:
            t0 = time.perf_counter()
            plain.append(common.run_pass(workload.ops, workload.run, workload.check, Tracer(False),
                                         speed.maybe_measure))
            if args.trace:
                tr = Tracer(True)
                traced.append(common.run_pass(workload.ops, workload.run, workload.check, tr,
                                              speed.maybe_measure))
                totals = tr.totals()
                totals["trace.spans"] = len(tr.spans)
                pass_totals.append(totals)
            # start another round only if it should still end within --seconds
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
        speed.measure()  # brackets the last op
        summary = workload.summary()

    passes = plain + traced + once
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    lat_ms = sorted(x * 1e3 for p in plain for x in p.latencies)
    fixed = [speed.correct(p.starts, p.latencies) for p in plain]
    fixed_ms = sorted(x * 1e3 for lat in fixed for x in lat)
    # per op, its median over the passes; the job's time is their sum
    op_median = [statistics.median(lat[i] for lat in fixed) for i in range(len(workload.ops))]
    op_measured = [statistics.median(p.latencies[i] for p in plain)
                   for i in range(len(workload.ops))]
    deciles = statistics.quantiles(fixed_ms, n=10)  # every pass has at least 12 ops
    rss_of = resource.RUSAGE_CHILDREN if args.workload == "cli-export" else resource.RUSAGE_SELF
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": facts, "passes": len(plain), "traced_passes": len(traced),
        "ops_per_pass": len(workload.ops), "op_samples": len(lat_ms),
        "op_p90_ms": deciles[8], "op_p90_samples_beyond": sum(x > deciles[8] for x in fixed_ms),
        "fail_ratio": len(failures) / attempted, "failures": failures[:10],
        "host_speed": speed.summary(),
        "op_median_ms": {op.name: t * 1e3 for op, t in zip(workload.ops, op_median)},
        "measured": {"setup_s": statistics.median(setup_times),
                     "wall_s": sum(op_measured),
                     "op_p50_ms": statistics.median(lat_ms)},
        "setup_runs_s": setup_times, "pass_walls_s": [p.wall_s for p in plain], **summary,
    }
    if args.trace:
        imports = [t["import.netwitness_s"] / t["import.netwitness_calls"]
                   for t in setup_totals + pass_totals if t.get("import.netwitness_calls")]
        overhead = statistics.median(p.wall_s for p in traced) \
            - statistics.median(p.wall_s for p in plain)
        values = per_layer_values(setup_totals, pass_totals, once_totals, overhead,
                                  statistics.median(imports) * 1e3)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(speed.correct(setup_starts, setup_times)),
            "wall_s": sum(op_median),
            "op_p50_ms": statistics.median(fixed_ms),
            "peak_rss_mb": resource.getrusage(rss_of).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

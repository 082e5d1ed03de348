"""Calls into netwitness with a span around each layer.

The in-process workloads and the cli-export stage runner share these, so a
stage name means the same call everywhere. A stage that a public function
runs internally (validation inside a builder, the contraction inside
``detect_shots``) is timed by calling that stage's own public function again
on the same inputs; such re-runs happen only when tracing.
"""

from __future__ import annotations

import tracemalloc

from netwitness import graphs, protocol, reports
from netwitness.tensor import DensityOperator


def revalidate(tr, state) -> None:
    """Re-run the DensityOperator validation on a state the program produced."""
    with tr.span("tensor.validate"):
        DensityOperator(state.mat)


def detect_exact(tr, rho, n, provenance=None):
    with tr.span("protocol.detect_exact"):
        rep = protocol.detect_exact(rho, n, provenance=provenance)
    if tr.enabled:
        d2 = n.d * n.d
        with tr.span("protocol.teleport_contraction"):
            protocol.teleport_contraction(rho.data, n.state.data, d2, d2)
    return rep


def detect_shots(tr, rho, n, shots: int, seed: int, provenance=None):
    """``detect_shots`` plus, when tracing, its stages re-run on the same inputs.

    ``protocol.sampling_s`` is derived: the detect_shots time minus the
    re-run stages (contraction, Bell-outcome distribution, filtering channel,
    measurement-circuit table), i.e. the multinomial draws and bookkeeping.
    """
    with tr.span("protocol.detect_shots"):
        rep = protocol.detect_shots(rho, n, shots=shots, rng_seed=seed,
                                    provenance=provenance)
    if not tr.enabled:
        return rep
    total = tr.last_duration("protocol.detect_shots")
    d2 = n.d * n.d
    with tr.span("protocol.teleport_contraction"):
        protocol.teleport_contraction(rho.data, n.state.data, d2, d2)
    staged = tr.last_duration("protocol.teleport_contraction")
    with tr.span("protocol.bell_outcome_distribution"):
        protocol.bell_outcome_distribution(rho, n)
    staged += tr.last_duration("protocol.bell_outcome_distribution")
    if rep.shots.n_postselected:
        with tr.span("protocol.filtering_channel"):
            _, filtered = protocol.filtering_channel(rho, n)
        staged += tr.last_duration("protocol.filtering_channel")
        with tr.span("protocol.measurement_circuit_probs"):
            protocol.measurement_circuit_probs(filtered)
        staged += tr.last_duration("protocol.measurement_circuit_probs")
        revalidate(tr, filtered)
    tr.add("protocol.sampling_s", total - staged)
    tr.add("protocol.shots_total", rep.shots.n_total)
    tr.add("protocol.shots_postselected", rep.shots.n_postselected)
    tr.add("protocol.shot_runs", 1)
    tr.add("protocol.inconclusive_runs", rep.verdict == "inconclusive")
    return rep


def graph_detect(tr, which: str, rho, provenance=None):
    """``ghz_detect_exact`` / ``cl4_detect_exact``; split into their public
    parts when tracing so the network build is timed on its own."""
    if not tr.enabled:
        run = graphs.ghz_detect_exact if which == "ghz" else graphs.cl4_detect_exact
        return run(rho, provenance=provenance)
    with tr.span("graphs.network_build"):
        if which == "ghz":
            net = graphs.ghz_network()
        else:
            g = graphs.cl4_graph()
            net = graphs.graph_network(g, graphs.CL4_LABELS)
    if which == "ghz":
        w, target = graphs.ghz_witness(), graphs.ghz_ket()
    else:
        w, target = graphs.graph_witness(g, graphs.CL4_LABELS), graphs.graph_basis_state(g, "0000")
    with tr.span("graphs.detect_multi_exact"):
        return graphs.detect_multi_exact(rho, net, w, target, provenance=provenance)


def serialize(tr, report: dict, fmt: str = "json") -> str:
    """Render a report as the CLI does; when tracing, also record the
    tracemalloc peak of a second canonical_json call (kept out of the timed one)."""
    if fmt == "csv":
        with tr.span("reports.to_csv"):
            return reports.to_csv(report)
    with tr.span("reports.canonical_json"):
        text = reports.canonical_json(report) + "\n"
    if tr.enabled:
        tracemalloc.start()
        try:
            reports.canonical_json(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tr.peak("reports.canonical_json_peak_mb", peak / 1e6)
    return text


def write(tr, text: str, path: str) -> None:
    with tr.span("reports.write"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    tr.add("reports.bytes_written", len(text.encode("utf-8")))

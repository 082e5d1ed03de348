"""Traced stand-in for one `netwitness` command, used by the traced cli-export run.

    python3 perfbench/stages.py <netwitness arguments> --out PATH

It parses the arguments with the CLI's own parser, makes the same public
calls as the matching ``cli.cmd_*`` function with a span around each layer,
and writes the same report bytes (the golden check in cli-export verifies
that). The last stdout line is a JSON object with the spans and counters.
Stages that run inside another public call are re-run on the same inputs,
as in layers.py.
"""

from __future__ import annotations

import inspect
import json
import sys
from fractions import Fraction

from tracing import Tracer


def _lam(args):
    if not args.lam:
        return None, None
    values = tuple(float(Fraction(part.strip())) for part in args.lam.split(","))
    return {"text": args.lam, "values": list(values)}, values


def run_command(tr, argv) -> int:
    import numpy as np

    import layers
    from netwitness import bell, cli, graphs, networks, reports, states, witnesses
    from netwitness.tensor import DensityOperator, Mat, density

    args = cli.build_parser().parse_args(argv)
    eta = getattr(args, "eta", None)

    def network(lam, with_eta=True):
        with tr.span("networks.build"):
            n = cli.build_network(args.family, args.d, lam, seed=args.seed,
                                  eta=eta if with_eta else None)
        layers.revalidate(tr, n.state)
        return n

    def emit(report, outputs_of):
        with tr.span("reports.to_dict"):
            report["outputs"] = outputs_of()
        layers.write(tr, layers.serialize(tr, report, args.format), args.out)

    def common_inputs(lam_echo):
        return {"family": args.family, "d": args.d, "lambda": lam_echo, "seed": args.seed}

    name = args.func.__name__
    if name == "cmd_witness_build":
        lam_echo, lam = _lam(args)
        with tr.span("witnesses.build"):
            w = cli.build_witness(args.family, args.d, lam)
        if w.lambda_vec is not None:
            # bell_diagonal_witness screens lambda with its default falsifier settings
            params = inspect.signature(witnesses.bell_diagonal_witness).parameters
            with tr.span("witnesses.cyclic_inequality_check"):
                witnesses.cyclic_inequality_check(
                    w.lambda_vec, trials=params["check_trials"].default,
                    rng_seed=params["check_seed"].default)
        emit(reports.base_report("witness build", common_inputs(lam_echo)), w.to_dict)
        return 0

    if name == "cmd_network_build":
        lam_echo, lam = _lam(args)
        n = network(lam)
        emit(reports.base_report("network build", {**common_inputs(lam_echo), "eta": eta}),
             n.to_dict)
        return 0

    if name == "cmd_verify_reconstruction":
        lam_echo, lam = _lam(args)
        n = network(lam)
        if eta is not None:
            dd = args.d or 3
            q = states.random_state((dd, dd), rng_seed=args.seed, rank=1)
            with tr.span("networks.solve_decomposition"):
                networks.solve_decomposition(witnesses.decomposable_witness(q), eta)
        with tr.span("networks.reconstruct_witness"):
            rec = networks.reconstruct_witness(n)
        max_err = float(np.max(np.abs(rec.data - n.recon_constant * n.witness.data.T)))
        passed = max_err <= cli.RECON_TOL
        emit(reports.base_report("verify reconstruction", {**common_inputs(lam_echo), "eta": eta}),
             lambda: {"recon_constant": n.recon_constant, "eta": n.eta,
                      "max_elementwise_error": max_err, "tolerance": cli.RECON_TOL,
                      "passed": passed})
        return 0 if passed else 1

    if name == "cmd_verify_ppt":
        lam_echo, lam = _lam(args)
        n = network(lam, with_eta=False)
        with tr.span("networks.ppt_report"):
            rep = networks.ppt_report(n)
        checks, passed = [], True
        for cut, op, bound in cli.ppt_expectations(args.family, n.d):
            value = rep[cut]
            ok = value >= bound if op == ">=" else value < bound
            passed &= ok
            checks.append({"cut": cut, "relation": op, "bound": bound, "value": value,
                           "passed": ok})
        emit(reports.base_report("verify ppt", common_inputs(lam_echo)),
             lambda: {"min_eig_by_cut": rep, "checks": checks, "passed": passed})
        return 0 if passed else 1

    if name in ("cmd_protocol_run", "cmd_protocol_shots"):
        lam_echo, lam = _lam(args)
        n = network(lam, with_eta=False)
        if args.state_file:
            with open(args.state_file, encoding="utf-8") as fh:
                obj = json.load(fh)
            with tr.span("tensor.from_dict"):
                mat = Mat.from_dict(obj)
            with tr.span("tensor.validate"):
                rho = DensityOperator(mat)
        elif args.state == "psi-minus":
            rho = density(np.outer(bell.bell_ket(2, 1, 1), bell.bell_ket(2, 1, 1).conj()), (2, 2))
        elif args.state == "phi-plus":
            v = bell.bell_ket(n.d, 0, 0)
            rho = density(np.outer(v, v.conj()), (n.d, n.d))
        elif args.state == "maximally-mixed":
            rho = density(np.eye(n.d * n.d) / (n.d * n.d), (n.d, n.d))
        else:
            rho = states.isotropic_state(n.d, args.fidelity)
        inputs = {**common_inputs(lam_echo), "state": args.state,
                  "state_file": args.state_file, "fidelity": args.fidelity}
        provenance = {"state": args.state or "file"}
        if name == "cmd_protocol_run":
            rep = layers.detect_exact(tr, rho, n, provenance=provenance)
            emit(reports.base_report("protocol run", inputs), rep.to_dict)
        else:
            inputs["shots"] = args.shots
            rep = layers.detect_shots(tr, rho, n, args.shots, args.seed, provenance=provenance)
            emit(reports.base_report("protocol shots", inputs), rep.to_dict)
        return 0

    if name == "cmd_scan_choi":
        with tr.span("states.find_choi_detected_ppt"):
            result = states.find_choi_detected_ppt(grid_resolution=args.resolution,
                                                   rng_seed=args.seed)
        if result.found:
            with tr.span("networks.build"):
                net = networks.choi_network()
            rep = layers.detect_exact(tr, result.rho, net)

        def outputs():
            out = result.to_dict()
            if result.found:
                out["protocol"] = rep.to_dict()
            return out

        emit(reports.base_report("scan choi-bound-entangled",
                                 {"resolution": args.resolution, "seed": args.seed}), outputs)
        return 0 if result.found else 1

    if name == "cmd_graph_demo":
        rng_rho = states.random_state((2, 2, 2), rng_seed=args.seed)
        ghz = density(np.outer(graphs.ghz_ket(), graphs.ghz_ket()), (2, 2, 2))
        ghz_rep = layers.graph_detect(tr, "ghz", ghz, provenance={"state": "ghz"})
        with tr.span("graphs.network_build"):
            ghz_net = graphs.ghz_network()
        identity_residual = abs(
            graphs.multi_overlap_raw(rng_rho, ghz_net, graphs.ghz_ket())
            - (1 / 16 - graphs.ghz_witness().expectation(rng_rho) / 8))
        g = graphs.cl4_graph()
        v = graphs.graph_basis_state(g, "0000")
        cluster = density(np.outer(v, v.conj()), (2, 2, 2, 2))
        cl4_rep = layers.graph_detect(tr, "cl4", cluster, provenance={"state": "cl4-cluster"})
        passed = (ghz_rep.verdict == "detected" and cl4_rep.verdict == "detected"
                  and identity_residual <= 1e-9
                  and abs(cl4_rep.witness_expectation + 0.5) <= 1e-9)
        emit(reports.base_report("graph demo", {"seed": args.seed}),
             lambda: {"ghz": ghz_rep.to_dict(), "ghz_identity_residual_x16": identity_residual,
                      "cl4": cl4_rep.to_dict(), "passed": passed})
        return 0 if passed else 1

    raise SystemExit(f"no traced stand-in for {name}")


def main(argv) -> int:
    tr = Tracer(True)
    with tr.span("import.netwitness"):
        import netwitness  # noqa: F401
    code = run_command(tr, argv)
    print(json.dumps({"spans": tr.spans, "values": tr.values, "maxima": tr.maxima}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

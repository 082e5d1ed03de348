"""Command-line front end.

Subcommands: witness build, network build, verify reconstruction, verify ppt,
protocol run, protocol shots, scan choi-bound-entangled, graph demo. Every
run emits a deterministic JSON (or CSV) report; exit code 0 on success, 1 on a failed
check (also a reconstruction whose target is within tolerance), 2 on usage errors.

The family commands look ``--family`` up in one table, ``FAMILIES``. A row is
``witness(d, lam, seed)`` plus ``network(w, eta)``, the map that realizes that
witness as a network state; every name serves every family command, and each
realizes the one witness it builds, so a ``--lambda`` that is no witness is a
usage error. ``--d`` defaults to the row's local dimension; a row without one
takes d = len(--lambda) and is the only kind that accepts it. A ``--d`` or
``--eta`` the built object does not carry is a usage error, never silently
replaced. Named input states come from the second table, ``STATES``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bell, graphs, networks, protocol, states, witnesses
from .reports import base_report, emit_report
from .tensor import DensityOperator, Mat, density

RECON_TOL = 1e-9
PPT_PASS_FLOOR = -1e-10
PPT_FAIL_CEILING = -1e-6

_PPT_TWO_TWO = tuple((cut, ">=", PPT_PASS_FLOOR)
                     for cut in ("A2B2:A3B3", "A2A3:B2B3", "A2B3:B2A3"))
_PPT_A2A3 = (("A2A3:B2B3", ">=", PPT_PASS_FLOOR),)
_NPT_A2A3 = (("A2A3:B2B3", "<", PPT_FAIL_CEILING),)


@dataclass(frozen=True)
class Family:
    """A witness family with the map that realizes its witness as a network state.

    A row is ``witness(d, lam, seed)``, which builds the witness, plus
    ``network(w, eta)``, which builds the network state that realizes the
    witness ``w``. ``d`` is the default local dimension (None: d = len(lam));
    ``ppt(d)`` is the documented partial-transpose profile, a sequence of
    (cut, relation, bound) checks for `verify ppt`.
    """

    d: int | None
    witness: Callable
    network: Callable
    ppt: Callable = lambda d: ()


_FLIP = Family(2, lambda d, *_: witnesses.flip_witness(d),
               lambda w, _: networks.flip_network(w.d), lambda d: _PPT_A2A3)
# flip with d fixed at 2, so that build_witness rejects any other --d
_TWO_QUBIT = Family(2, lambda d, *a: _FLIP.witness(2, *a), _FLIP.network, _FLIP.ppt)
_PBD = Family(None, lambda d, lam, *_: witnesses.bell_diagonal_witness(lam),
              lambda w, _: networks.pbd_network(w.lambda_vec))
_BH = Family(4, lambda d, *_: witnesses.breuer_hall_witness(d),
             lambda w, _: networks.bh_network(w.d))
FAMILIES = {
    "two-qubit": _TWO_QUBIT,
    "two-qubit-pt": _TWO_QUBIT,
    "flip": _FLIP,
    "decomposable": Family(3, lambda d, lam, seed: witnesses.decomposable_witness(
                               states.random_state((d, d), rng_seed=seed, rank=1)),
                           lambda w, eta: networks.network_from_decomposition(
                               w, w.eta if eta is None else eta)),
    "pbd": _PBD,
    "bell-diagonal": _PBD,
    "choi": Family(3, lambda *_: witnesses.choi_witness(), lambda *_: networks.choi_network(),
                   lambda d: _NPT_A2A3),
    "reduction": Family(3, lambda d, *_: witnesses.reduction_witness(d),
                        lambda w, _: networks.reduction_network(w.d),
                        lambda d: _PPT_TWO_TWO if d == 2 else _NPT_A2A3),
    "smolin": Family(2, lambda *_: witnesses.bell_diagonal_witness((0.5, 0.5), family="smolin"),
                     lambda *_: networks.smolin_network(), lambda d: _PPT_TWO_TWO),
    "bh": _BH,
    "breuer-hall": _BH,
}


# name: (whether it takes --fidelity, builder(d, fidelity))
STATES = {
    "psi-minus": (False, lambda d, f: DensityOperator(bell.bell_projector(2, 1, 1))),
    "phi-plus": (False, lambda d, f: DensityOperator(bell.bell_projector(d))),
    "maximally-mixed": (False, lambda d, f: density(np.eye(d * d) / (d * d), (d, d))),
    "isotropic": (True, states.isotropic_state),
}


def _parse_lambda(text: str):
    try:
        values = tuple(float(Fraction(part.strip())) for part in text.split(","))
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"invalid --lambda {text!r}: {exc}") from None
    return {"text": text, "values": list(values)}, values


def build_witness(family: str, d: int | None, lam, seed: int = 0):
    row = FAMILIES[family]
    if (lam is None) == (row.d is None):
        rule = "is required for" if row.d is None else "does not apply to"
        raise ValueError(f"--lambda {rule} the {family} family")
    w = row.witness(row.d if d is None else d, lam, seed)
    if d is not None and w.d != d:
        raise ValueError(f"--d {d} does not match the {family} family, which has d = {w.d}")
    return w


def build_network(family: str, d: int | None, lam, seed: int = 0,
                  eta: float | None = None):
    n = FAMILIES[family].network(build_witness(family, d, lam, seed), eta)
    if eta is not None and n.eta != eta:
        raise ValueError(f"eta is fixed at {n.eta} for the {family} family")
    return n


def ppt_expectations(family: str, d: int):
    """Documented partial-transpose profiles, checked by `verify ppt`."""
    return FAMILIES[family].ppt(d)


def _load_state(args, d: int) -> DensityOperator:
    takes_fidelity, make = STATES.get(args.state, (False, None))
    if takes_fidelity != (args.fidelity is not None):
        rule = "is required for" if takes_fidelity else "does not apply to"
        source = f"--state {args.state}" if args.state else "--state-file"
        raise ValueError(f"--fidelity {rule} {source}")
    if make is None:
        with open(args.state_file, encoding="utf-8") as fh:
            try:
                return DensityOperator(Mat.from_dict(json.load(fh)))
            except RecursionError:  # not RuntimeError: protocol.ConsistencyError is one
                raise ValueError(f"--state-file {args.state_file} nests too deeply") from None
    return make(d, args.fidelity)


def _family_inputs(args, *echo):
    """Parsed --lambda and the report's inputs: the family flags plus ``echo``."""
    lam_echo, lam = _parse_lambda(args.lam) if args.lam else (None, None)
    inputs = {"family": args.family, "d": args.d, "lambda": lam_echo, "seed": args.seed}
    inputs.update((name, getattr(args, name)) for name in echo)
    return lam, inputs


def _emit(args, command: str, inputs: dict, outputs: dict) -> None:
    report = base_report(command, inputs)
    report["outputs"] = outputs
    emit_report(report, args.out, args.format)


def cmd_witness_build(args) -> int:
    lam, inputs = _family_inputs(args)
    w = build_witness(args.family, args.d, lam, seed=args.seed)
    _emit(args, "witness build", inputs, w.to_dict())
    return 0


def cmd_network_build(args) -> int:
    lam, inputs = _family_inputs(args, "eta")
    n = build_network(args.family, args.d, lam, seed=args.seed, eta=args.eta)
    _emit(args, "network build", inputs, n.to_dict())
    return 0


def cmd_verify_reconstruction(args) -> int:
    lam, inputs = _family_inputs(args, "eta")
    n = build_network(args.family, args.d, lam, seed=args.seed, eta=args.eta)
    rec = networks.reconstruct_witness(n)
    target = n.recon_constant * n.witness.data.T
    max_err = float(np.max(np.abs(rec.data - target)))
    passed = max_err <= RECON_TOL < np.max(np.abs(target))
    _emit(args, "verify reconstruction", inputs, {
        "recon_constant": n.recon_constant,
        "eta": n.eta,
        "max_elementwise_error": max_err,
        "tolerance": RECON_TOL,
        "passed": passed,
    })
    return 0 if passed else 1


def cmd_verify_ppt(args) -> int:
    lam, inputs = _family_inputs(args)
    n = build_network(args.family, args.d, lam, seed=args.seed)
    rep = networks.ppt_report(n)
    checks = [{"cut": cut, "relation": op, "bound": bound, "value": rep[cut],
               "passed": rep[cut] >= bound if op == ">=" else rep[cut] < bound}
              for cut, op, bound in ppt_expectations(args.family, n.d)]
    passed = all(check["passed"] for check in checks)
    _emit(args, "verify ppt", inputs,
          {"min_eig_by_cut": rep, "checks": checks, "passed": passed})
    return 0 if passed else 1


def _protocol_inputs(args, *echo):
    lam, inputs = _family_inputs(args, "state", "state_file", "fidelity", *echo)
    n = build_network(args.family, args.d, lam, seed=args.seed)
    return n, _load_state(args, n.d), inputs


def cmd_protocol_run(args) -> int:
    n, rho, inputs = _protocol_inputs(args)
    rep = protocol.detect_exact(rho, n, provenance={"state": args.state or "file"})
    _emit(args, "protocol run", inputs, rep.to_dict())
    return 0


def cmd_protocol_shots(args) -> int:
    n, rho, inputs = _protocol_inputs(args, "shots")
    rep = protocol.detect_shots(rho, n, shots=args.shots, rng_seed=args.seed,
                                provenance={"state": args.state or "file"})
    _emit(args, "protocol shots", inputs, rep.to_dict())
    return 0


def cmd_scan_choi(args) -> int:
    result = states.find_choi_detected_ppt(grid_resolution=args.resolution,
                                           rng_seed=args.seed)
    outputs = result.to_dict()
    if result.found:
        rep = protocol.detect_exact(result.rho, networks.choi_network())
        outputs["protocol"] = rep.to_dict()
    _emit(args, "scan choi-bound-entangled",
          {"resolution": args.resolution, "seed": args.seed}, outputs)
    return 0 if result.found else 1


def cmd_graph_demo(args) -> int:
    rng_rho = states.random_state((2, 2, 2), rng_seed=args.seed)
    ghz, cl4 = graphs.ghz_protocol(), graphs.cl4_protocol()
    ghz_rep = protocol.detect_exact(density(np.outer(ghz.target, ghz.target), ghz.layer), ghz,
                                    provenance={"state": "ghz"})
    wexp = float(np.real(np.trace(ghz.witness.data @ rng_rho.data)))
    identity_residual = abs(protocol.bell_overlap_raw(rng_rho, ghz) - (1 / 16 - wexp / 8))
    cl4_rep = protocol.detect_exact(density(np.outer(cl4.target, cl4.target), cl4.layer), cl4,
                                    provenance={"state": "cl4-cluster"})
    passed = (
        ghz_rep.verdict == "detected"
        and cl4_rep.verdict == "detected"
        and identity_residual <= RECON_TOL
        and abs(cl4_rep.witness_expectation + 0.5) <= RECON_TOL
    )
    _emit(args, "graph demo", {"seed": args.seed}, {
        "ghz": ghz_rep.to_dict(),
        "ghz_identity_residual_x16": identity_residual,
        "cl4": cl4_rep.to_dict(),
        "passed": passed,
    })
    return 0 if passed else 1


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _add_output(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return p


def _add_family(p: argparse.ArgumentParser, with_eta: bool = False) -> argparse.ArgumentParser:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--d", type=_int_at_least(2), default=None, help="local dimension")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated weights, fractions allowed (2/3,1/3,0)")
    if with_eta:
        p.add_argument("--eta", type=float, default=None,
                       help="detection threshold (only families whose threshold is free)")
    return _add_output(p)


def _add_state_flags(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", choices=STATES)
    source.add_argument("--state-file", help="JSON file with {dims, re, im}")
    p.add_argument("--fidelity", type=float, default=None)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netwitness",
        description="Entanglement detection by state preparation and a fixed measurement.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def group(name: str):
        return top.add_parser(name).add_subparsers(dest="action", required=True)

    _add_family(group("witness").add_parser("build")).set_defaults(func=cmd_witness_build)
    _add_family(group("network").add_parser("build"), with_eta=True).set_defaults(
        func=cmd_network_build)

    verify = group("verify")
    _add_family(verify.add_parser("reconstruction"), with_eta=True).set_defaults(
        func=cmd_verify_reconstruction)
    _add_family(verify.add_parser("ppt")).set_defaults(func=cmd_verify_ppt)

    proto = group("protocol")
    _add_state_flags(_add_family(proto.add_parser("run"))).set_defaults(func=cmd_protocol_run)
    ps = _add_state_flags(_add_family(proto.add_parser("shots")))
    ps.add_argument("--shots", type=_int_at_least(1), required=True)
    ps.set_defaults(func=cmd_protocol_shots)

    sc = _add_output(group("scan").add_parser("choi-bound-entangled"))
    sc.add_argument("--resolution", type=int, default=40)
    sc.set_defaults(func=cmd_scan_choi)

    _add_output(group("graph").add_parser("demo")).set_defaults(func=cmd_graph_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())

"""certify: witness-property and network-property checks, in process.

Why: Python-loop solvers (the cyclic-inequality falsifier, the seesaw
``sep_floor_estimate``, the scan grid) and dense partial-transpose
eigensolves do all the work; there is no protocol and no serialization. It
is the only workload that measures ``sep_floor_estimate``.

Ops per pass, cheapest first (2-core x86 host): the decomposition builds
at three seeded eta, as one op (about 4 ms); the PPT profile plus
reconstruction of the five d <= 3 networks, as one op (about 20 ms); 4
seesaws on small witnesses (about 30 ms); the two d = 4 network ops (about
80 ms); the cyclic checks and the resolution-40 scan (105-145 ms); the
resolution-80 scan (about 340 ms) and the Choi seesaw (about 1 s). The
median op, the 8th of 15, sits inside the d = 4 network tier, whose time
varies least from run to run (about 5%); the small seesaws move together by
up to 14% between runs, which the host-speed correction does not follow,
and they held the median when each small call was an op of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import common
import layers
import oracle
from netwitness import networks, states, witnesses
from netwitness.tensor import density
from sweep import FAMILIES

TOL = 1e-9
PPT_FLOOR = -1e-10        # cut expected PPT
PPT_ENTANGLED = -1e-6     # cut expected to have a negative partial transpose
SEP_FLOOR = -1e-6         # seesaw floor accepted for a true witness
SCAN_WITNESS_MAX = -1e-4  # scan certificate: tr[W rho] at most this
SCAN_PPT_MIN = -1e-12     # scan certificate: partial transpose at least this
CYCLIC_TRIALS = 10_000
PRODUCT_SAMPLES = 512

# Valid Bell-diagonal weight vectors; the valid set is convex (each cyclic
# term is convex in lambda), so seeded convex mixtures of these stay valid.
LAMBDA_VERTICES = {
    3: [(1 / 3,) * 3, (2 / 3, 1 / 3, 0.0), (2 / 3, 0.0, 1 / 3)],
    4: [(0.25,) * 4, (0.75, 0.25, 0.0, 0.0), (0.75, 0.0, 0.0, 0.25),
        (0.5, 0.25, 0.0, 0.25), (0.5, 0.0, 0.5, 0.0)],
}

TWO_TWO = ("A2B2:A3B3", "A2A3:B2B3", "A2B3:B2A3")
ONE_THREE = ("A2:B2A3B3", "A2B2A3:B3", "A2B2B3:A3", "A2A3B3:B2")
# Documented partial-transpose profiles (README, cli.ppt_expectations). Every
# network is a convex sum of products across A2B2:A3B3, hence PPT there. The
# Smolin 1:3 cuts have eigenvalue exactly -1/8: that is its profile.
PPT_PROFILES = {
    "smolin": [(cut, ">=", PPT_FLOOR) for cut in TWO_TWO]
    + [(cut, "==", -0.125) for cut in ONE_THREE],
    "flip3": [("A2A3:B2B3", ">=", PPT_FLOOR)],
    "choi": [("A2A3:B2B3", "<", PPT_ENTANGLED)],
    "reduction3": [("A2A3:B2B3", "<", PPT_ENTANGLED)],
}


@dataclass
class Op:
    name: str
    kind: str
    args: tuple
    expect: object = None


class Certify:
    name = "certify"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr) -> None:
        ops = []
        for d, count in ((3, 2), (4, 2)):
            for i in range(count):
                rng = common.rng_for(self.seed, 3, d, i)
                mix = rng.dirichlet(np.ones(len(LAMBDA_VERTICES[d])))
                lam = tuple(float(x) for x in mix @ np.array(LAMBDA_VERTICES[d]))
                s = int(rng.integers(2**31))
                ops.append(Op(f"witness/d{d}/{i}", "witness", (lam, s),
                              oracle.cyclic_worst(lam, CYCLIC_TRIALS, s)))

        rng = common.rng_for(self.seed, 4)
        q = common.ginibre_state(9, rng, rank=1)
        with tr.span("witnesses.build"):
            sep_cases = [
                ("choi", witnesses.choi_witness(), oracle.bell_diagonal_witness((2 / 3, 1 / 3, 0.0))),
                ("reduction3", witnesses.reduction_witness(3),
                 oracle.bell_diagonal_witness((1 / 3,) * 3)),
                ("breuer-hall4", witnesses.breuer_hall_witness(4), oracle.breuer_hall_paired(4) / 2),
                ("two-qubit-pt", witnesses.two_qubit_pt_witness(), oracle.two_qubit_witness()),
                ("decomposable", witnesses.decomposable_witness(density(q, (3, 3))),
                 oracle.decomposable_witness(q, 3)),
            ]
        for name, w, own in sep_cases:
            bound = oracle.product_sample_min(own, w.d, PRODUCT_SAMPLES, int(rng.integers(2**31)))
            ops.append(Op(f"sep_floor/{name}", "sep_floor", (w,), (own, bound)))

        small = []
        for family, (build, _) in FAMILIES.items():
            with tr.span("networks.build"):
                n = build()
            entry = (family, n, oracle.NETWORK_WITNESSES[family]())
            if n.d <= 3:
                small.append(entry)
            else:
                ops.append(Op(f"network/{family}", "network", (entry,)))
        ops.append(Op("network/d<=3", "network", tuple(small)))

        rng = common.rng_for(self.seed, 5)
        q = common.ginibre_state(9, rng, rank=1)
        with tr.span("witnesses.build"):
            wq = witnesses.decomposable_witness(density(q, (3, 3)))
        etas = tuple(float(eta) for eta in rng.uniform(0.4, 0.9, size=3))
        ops.append(Op("decomposition", "decomposition", (wq, etas),
                      oracle.decomposable_witness(q, 3)))

        choi = oracle.bell_diagonal_witness((2 / 3, 1 / 3, 0.0))
        for res in (40, 80):
            ops.append(Op(f"scan/{res}", "scan", (res,), choi))
        self.ops = ops

    def run(self, op: Op, tr):
        if op.kind == "witness":
            lam, s = op.args
            with tr.span("witnesses.cyclic_inequality_check"):
                check = witnesses.cyclic_inequality_check(lam, trials=CYCLIC_TRIALS, rng_seed=s)
            with tr.span("witnesses.build"):
                return check, witnesses.bell_diagonal_witness(lam)
        if op.kind == "sep_floor":
            # the seesaw keeps its default restart seed: its iteration count,
            # and so its cost, would otherwise vary with the workload seed
            with tr.span("witnesses.sep_floor_estimate"):
                return witnesses.sep_floor_estimate(op.args[0])
        if op.kind == "network":
            out = []
            for _, n, _ in op.args:
                with tr.span("networks.ppt_report"):
                    ppt = networks.ppt_report(n)
                with tr.span("networks.reconstruct_witness"):
                    out.append((ppt, networks.reconstruct_witness(n)))
            return out
        if op.kind == "decomposition":
            w, etas = op.args
            out = []
            for eta in etas:
                with tr.span("networks.build"):
                    n = networks.network_from_decomposition(w, eta)
                if tr.enabled:
                    with tr.span("networks.solve_decomposition"):
                        networks.solve_decomposition(w, eta)
                    layers.revalidate(tr, n.state)
                out.append(n)
            return out
        with tr.span("states.find_choi_detected_ppt"):
            result = states.find_choi_detected_ppt(grid_resolution=op.args[0], rng_seed=self.seed)
        if tr.enabled and result.found:
            layers.revalidate(tr, result.rho)
        return result

    def check(self, op: Op, out) -> list:
        return getattr(self, f"_check_{op.kind}")(op, out)

    def _check_witness(self, op, out):
        check, w = out
        lam = op.args[0]
        errs = []
        if not check.passed or not oracle.close(check.worst_value, op.expect, TOL):
            errs.append(f"cyclic check {check.passed} worst {check.worst_value!r}, oracle {op.expect!r}")
        if np.max(np.abs(w.mat.data - oracle.bell_diagonal_witness(lam))) > TOL or w.eta != lam[0]:
            errs.append("Bell-diagonal witness differs from sum_s lambda_s Pi_s - P_00")
        return errs

    def _check_sep_floor(self, op, value):
        w = op.args[0]
        own, bound = op.expect
        errs = []
        if np.max(np.abs(w.mat.data - own)) > TOL:
            errs.append("witness matrix differs from its closed form")
        if value < SEP_FLOOR:
            errs.append(f"seesaw floor {value!r} flags a true witness")
        if value > bound + TOL:
            errs.append(f"seesaw floor {value!r} above random product sampling {bound!r}")
        return errs

    def _check_network(self, op, out):
        errs = []
        for (family, n, w), (ppt, rec) in zip(op.args, out):
            for cut, rel, bound in [("A2B2:A3B3", ">=", PPT_FLOOR)] + PPT_PROFILES.get(family, []):
                v = ppt[cut]
                ok = {">=": v >= bound, "<": v < bound, "==": abs(v - bound) <= TOL}[rel]
                if not ok:
                    errs.append(f"{family} {cut} min eigenvalue {v!r}, documented {rel} {bound}")
            target = n.recon_constant * w.T
            own = oracle.reconstruct(n.state.data, n.d, n.eta)
            if np.max(np.abs(rec.data - target)) > TOL or np.max(np.abs(own - target)) > TOL:
                errs.append(f"{family} reconstruction differs from recon_constant * W^T")
        return errs

    def _check_decomposition(self, op, out):
        errs = []
        for eta, n in zip(op.args[1], out):
            if n.eta != eta or abs(np.trace(n.state.data).real - 1) > 1e-10:
                errs.append(f"eta {eta}: network does not echo eta or is not normalized")
            own = oracle.reconstruct(n.state.data, 3, eta)
            if np.max(np.abs(own - n.recon_constant * op.expect.T)) > TOL:
                errs.append(f"eta {eta}: decomposition network does not reconstruct Q^PT")
        return errs

    def _check_scan(self, op, result):
        if not result.found:
            return ["scan found no certified state"]
        rho = result.rho.data
        errs = []
        if not oracle.close(oracle.expectation(op.expect, rho), result.witness_value, TOL) \
                or result.witness_value > SCAN_WITNESS_MAX:
            errs.append(f"witness certificate {result.witness_value!r} not reproduced")
        own_pt = oracle.min_eig(oracle.partial_transpose(rho, (3, 3), [1]))
        if not oracle.close(own_pt, result.min_pt_eig, TOL) or own_pt < SCAN_PPT_MIN:
            errs.append(f"PPT certificate {result.min_pt_eig!r} not reproduced ({own_pt!r})")
        return errs

    def summary(self) -> dict:
        return {}

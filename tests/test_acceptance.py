"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from contextlib import contextmanager

import numpy as np

from netwitness import bell, cli, graphs
from netwitness.cli import main as cli_main
from netwitness.networks import (
    bh_network,
    choi_network,
    flip_network,
    pbd_network,
    reduction_network,
    reconstruct_witness,
    smolin_network,
    two_qubit_network,
    ppt_report,
)
from netwitness.protocol import (
    bell_overlap_raw,
    detect_exact,
    detect_shots,
    measurement_circuit_probs,
)
from netwitness.states import (
    find_choi_detected_ppt,
    isotropic_state,
    random_state,
)
from netwitness.tensor import Mat, density
from netwitness.witnesses import (
    breuer_hall_witness,
    choi_witness,
    cyclic_inequality_check,
    decomposable_witness,
    reduction_witness,
    sep_floor_estimate,
    two_qubit_pt_witness,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL - {label}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS - {label}")


def dm(ket, dims):
    return density(np.outer(ket, np.conj(ket)), dims)


def singlet_fraction(sigma):
    """<phi_00|sigma|phi_00> for a bipartite state."""
    v = bell.bell_ket(sigma.dims[0], 0, 0)
    return float(np.real(v.conj() @ sigma.data @ v))


def test_acceptance_01_two_qubit_readout_identity():
    with criterion(1, "two-qubit readout identity 1/8 - tr[rho W]/4"):
        net = two_qubit_network()
        w = two_qubit_pt_witness()
        for seed in range(200):
            rho = random_state((2, 2), rng_seed=seed)
            lhs = bell_overlap_raw(rho, net)
            assert abs(lhs - (1 / 8 - w.expectation(rho) / 4)) <= 1e-10
        psi_minus = dm(bell.bell_ket(2, 1, 1), (2, 2))
        assert abs(bell_overlap_raw(psi_minus, net) - 0.25) <= 1e-12


def test_acceptance_02_reconstruction_suite():
    with criterion(2, "reconstruction identities with printed constants"):
        cases = []
        cases.append((two_qubit_network(), 0.25))
        for d in (2, 3):
            for seed in range(5):
                w = cli.build_witness("decomposable", d, None, 100 * d + seed)
                net = cli.FAMILIES["decomposable"].network(w, None)
                vals = np.linalg.eigvalsh(w.mat.data)
                neg, pos, eta = vals[vals < 0].sum(), vals[vals > 0].sum(), 1 / d
                cases.append((net, 1 / (neg / (eta - 1) + pos / eta)))
        for d in (2, 3):
            cases.append((flip_network(d), 2 / (d * (d + 2))))
        cases.append((choi_network(), (2 / 3) / 3))
        rng = np.random.default_rng(42)
        for _ in range(5):
            lam = rng.random(3)
            lam /= lam.sum()
            cases.append((pbd_network(tuple(lam)), lam[0] / 3))
        for d in (2, 3):
            cases.append((reduction_network(d), (1 / d) / d))
        d = 4
        cases.append((bh_network(d),
                      ((2 * d * d - 2 * d) / (3 * d * d - 3 * d + 2)) / d**2))
        for net, printed in cases:
            rec = reconstruct_witness(net)
            err = np.max(np.abs(rec.data - net.recon_constant * net.witness.data.T))
            assert err <= 1e-9, f"{net.family}: reconstruction error {err}"
            assert abs(net.recon_constant - printed) <= 1e-12 * abs(printed), (
                f"{net.family}: recon constant {net.recon_constant} vs printed {printed}")


def test_acceptance_03_threshold_biconditional():
    with criterion(3, "threshold biconditional over 500 random states per family"):
        families = [
            (two_qubit_network(), 2),
            (flip_network(3), 3),
            (choi_network(), 3),
            (reduction_network(3), 3),
            (bh_network(4), 4),
        ]
        for net, d in families:
            disagreements = 0
            for seed in range(500):
                rho = random_state((d, d), rng_seed=seed)
                rep = detect_exact(rho, net)  # raises on any out-of-band mismatch
                if abs(rep.singlet_fraction - rep.eta) > 1e-9:
                    if (rep.singlet_fraction > rep.eta) != (rep.witness_expectation < 0):
                        disagreements += 1
            assert disagreements == 0, f"{net.family}: {disagreements} verdict mismatches"


def test_acceptance_04_bound_entanglement_scan():
    with criterion(4, "Choi-detected PPT entangled state found by scan"):
        start = time.monotonic()
        result = find_choi_detected_ppt(grid_resolution=40, rng_seed=0)
        elapsed = time.monotonic() - start
        assert elapsed <= 120.0, f"scan took {elapsed:.1f}s"
        assert result.found
        assert result.min_pt_eig >= -1e-12
        assert result.witness_value <= -1e-4
        rep = detect_exact(result.rho, choi_network())
        assert rep.verdict == "detected"
        assert rep.singlet_fraction > 2 / 3


def test_acceptance_05_ppt_reports():
    with criterion(5, "PPT profiles: uniform PBD d=3 negative cut, flip network PPT"):
        rep = ppt_report(reduction_network(3))
        assert rep["A2A3:B2B3"] < -1e-6
        for d in (2, 3):
            rep = ppt_report(flip_network(d))
            assert rep["A2A3:B2B3"] >= -1e-10


def test_acceptance_05_smolin_ppt_all_bipartitions():
    # The 2:2 splittings are PPT; the claim extends to all 7 bipartitions,
    # but the four 1:3 partial transposes have eigenvalue -1/8 exactly
    # (Pauli form (1111+XXXX+YYYY+ZZZZ)/16, one Y flips sign), so this
    # criterion fails as stated. See the decisions ledger.
    with criterion(5, "Smolin state PPT across all 7 bipartitions"):
        rep = ppt_report(smolin_network())
        assert len(rep) == 7
        for cut, value in rep.items():
            assert value >= -1e-10, f"{cut}: min PT eigenvalue {value}"


def test_acceptance_06_separability_floor():
    with criterion(6, "seesaw separability floor for built-in witnesses"):
        builtins = [
            two_qubit_pt_witness(),
            decomposable_witness(density(bell.bell_projector(2, 0, 0).data, (2, 2))),
            decomposable_witness(density(bell.bell_projector(3, 0, 0).data, (3, 3))),
            choi_witness(),
            reduction_witness(2),
            reduction_witness(3),
            breuer_hall_witness(4),
        ]
        for w in builtins:
            floor = sep_floor_estimate(w, restarts=64, iters=200, rng_seed=0)
            assert floor >= -1e-6, f"{w.family}: floor {floor}"
        for d in (2, 3):
            control = Mat(-bell.bell_projector(d, 0, 0).data, (d, d))
            floor = sep_floor_estimate(control, restarts=64, iters=200, rng_seed=0)
            assert floor <= -1 / d + 1e-6, f"non-witness control at d={d}: {floor}"


def test_acceptance_07_circuit_equivalence():
    with criterion(7, "fixed-measurement circuit reproduces the singlet fraction"):
        for d in (2, 3):
            for seed in range(100):
                sigma = random_state((d, d), rng_seed=seed)
                probs = measurement_circuit_probs(sigma)
                assert abs(probs[0, 0] - singlet_fraction(sigma)) <= 1e-12
            for s in range(d):
                for t in range(d):
                    probs = measurement_circuit_probs(dm(bell.bell_ket(d, s, t), (d, d)))
                    assert abs(probs[t, s] - 1.0) <= 1e-12


def test_acceptance_08_ghz_identity():
    with criterion(8, "three-party GHZ identity 1/16 - tr[rho W]/8"):
        net = graphs.ghz_network()
        w = graphs.ghz_witness()
        target = graphs.ghz_ket()
        for seed in range(50):
            rho = random_state((2, 2, 2), rng_seed=seed)
            raw = graphs.multi_overlap_raw(rho, net, target)
            assert abs(raw - (1 / 16 - w.expectation(rho) / 8)) <= 1e-10
        rep = graphs.ghz_detect_exact(dm(target, (2, 2, 2)))
        assert abs(rep.raw_overlap - 1 / 8) <= 1e-12
        assert rep.verdict == "detected"


def test_acceptance_09_cl4():
    with criterion(9, "four-qubit cluster witness and protocol"):
        g = graphs.cl4_graph()
        w = graphs.graph_witness(g, graphs.CL4_LABELS)
        cluster = dm(graphs.graph_basis_state(g, "0000"), (2, 2, 2, 2))
        assert abs(w.expectation(cluster) + 0.5) <= 1e-12
        net = graphs.graph_network(g, graphs.CL4_LABELS)
        target = graphs.graph_basis_state(g, "0000")
        consts = []
        for seed in range(50):
            rho = random_state((2, 2, 2, 2), rng_seed=seed)
            from netwitness.protocol import teleport_contraction

            k = teleport_contraction(rho.data, net.data, 16, 16)
            raw = float(np.real(target.conj() @ k @ target))
            trk = float(np.real(np.trace(k)))
            consts.append((raw - 0.5 * trk) / (-w.expectation(rho)))
            rep = graphs.cl4_detect_exact(rho)
            if abs(rep.singlet_fraction - rep.eta) > 1e-9:
                assert (rep.verdict == "detected") == (rep.witness_expectation < 0)
        consts = np.asarray(consts)
        assert np.max(np.abs(consts - consts[0])) <= 1e-9 * abs(consts[0])


def test_acceptance_10_shot_statistics(tmp_path):
    with criterion(10, "finite-shot estimates track exact values; reports reproducible"):
        shots = 10**6
        psi_minus = dm(bell.bell_ket(2, 1, 1), (2, 2))
        runs = [
            (psi_minus, two_qubit_network()),
            (density(np.eye(4) / 4, (2, 2)), two_qubit_network()),
            (isotropic_state(3, 0.8), choi_network()),
        ]
        for rho, net in runs:
            rep = detect_shots(rho, net, shots=shots, rng_seed=2024)
            stats = rep.shots
            rate = stats.n_postselected / stats.n_total
            sig_rate = np.sqrt(rep.success_prob * (1 - rep.success_prob) / shots)
            assert abs(rate - rep.success_prob) <= 3 * sig_rate + 1e-12
            f = rep.singlet_fraction
            sig_est = np.sqrt(max(f * (1 - f), 0.0) / stats.n_postselected)
            assert abs(stats.estimate - f) <= 3 * sig_est + 1e-12
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["protocol", "shots", "--family", "choi", "--state", "isotropic",
                "--fidelity", "0.8", "--shots", "20000", "--seed", "7"]
        assert cli_main(argv + ["--out", str(out1)]) == 0
        assert cli_main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_acceptance_11_cyclic_inequality():
    with criterion(11, "cyclic inequality: Choi weights pass, (0,1,0) fails"):
        res = cyclic_inequality_check((2 / 3, 1 / 3, 0.0), trials=10**4, rng_seed=0)
        assert res.passed
        assert res.bound - res.worst_value >= -1e-9
        bad = cyclic_inequality_check((0.0, 1.0, 0.0), trials=10**4, rng_seed=0)
        assert not bad.passed

import tracemalloc

import numpy as np
import pytest

from netwitness import bell
from netwitness.graphs import CL4_LABELS, cl4_graph, graph_network
from netwitness.networks import (
    bh_network,
    choi_network,
    flip_network,
    pbd_network,
    reduction_network,
    smolin_network,
    two_qubit_network,
)
from netwitness.protocol import (
    _readout_circuit,
    _weyl_tables,
    bell_outcome_distribution,
    bell_overlap_raw,
    detect_exact,
    detect_shots,
    filtering_channel,
    measurement_circuit_probs,
    teleport_contraction,
    wilson_interval,
)
from netwitness.states import isotropic_state, random_state
from netwitness.tensor import density
from netwitness.witnesses import two_qubit_pt_witness


def dm(ket, dims):
    return density(np.outer(ket, np.conj(ket)), dims)


def singlet_fraction(sigma):
    """<phi_00|sigma|phi_00> for a bipartite state."""
    v = bell.bell_ket(sigma.dims[0], 0, 0)
    return float(np.real(v.conj() @ sigma.data @ v))


def bell_diagonal_state(d, p):
    """The mixture sum_st p[s, t] P_st of generalized Bell projectors."""
    return density(sum(p[s, t] * bell.bell_projector(d, s, t).data
                       for s in range(d) for t in range(d)), (d, d))


PSI_MINUS = dm(bell.bell_ket(2, 1, 1), (2, 2))
MIXED2 = density(np.eye(4) / 4, (2, 2))


class TestFilteringChannel:
    @pytest.mark.parametrize("net", [two_qubit_network(), choi_network(), bh_network(4)])
    def test_maximally_mixed_success_prob(self, net):
        d = net.d
        rho = density(np.eye(d * d) / (d * d), (d, d))
        success, out = filtering_channel(rho, net)
        assert abs(success - 1 / d**4) <= 1e-12
        assert out.dims == (d, d)

    def test_product_network_output_independent_of_input(self):
        # no correlations across an unentangled 2:3 cut: output is always tau
        d = 2
        sigma = random_state((d, d), rng_seed=1)
        tau = random_state((d, d), rng_seed=2)
        from netwitness.networks import NetworkState
        from netwitness.tensor import Mat

        net = NetworkState(density(np.kron(sigma.data, tau.data), (d, d, d, d)), 0.5, 1.0, "product",
                           Mat(np.diag([1.0, -1.0, 1.0, 1.0]), (d, d)))
        for seed in (3, 4):
            rho = random_state((d, d), rng_seed=seed)
            _, out = filtering_channel(rho, net)
            assert np.max(np.abs(out.data - tau.data)) <= 1e-12

    def test_psi_minus_filtered_to_phi_plus(self):
        success, out = filtering_channel(PSI_MINUS, two_qubit_network())
        assert abs(success - 1 / 16) <= 1e-12
        assert np.max(np.abs(out.data - bell.bell_projector(2, 0, 0).data)) <= 1e-12

    def test_vanishing_postselection_raises(self):
        # network orthogonal to the input on the contracted pair
        from netwitness.networks import NetworkState
        from netwitness.tensor import Mat

        p = bell.bell_projector(2, 0, 0).data
        net = NetworkState(density(np.kron(p, p), (2, 2, 2, 2)), 0.5, 1.0, "pure",
                           Mat(np.diag([1.0, -1.0, 1.0, 1.0]), (2, 2)))
        with pytest.raises(ValueError, match="vanishes"):
            filtering_channel(PSI_MINUS, net)


class TestSingletFraction:
    def test_values(self):
        d = 3
        assert np.isclose(singlet_fraction(density(np.eye(9) / 9, (3, 3))), 1 / 9)
        assert np.isclose(singlet_fraction(dm(bell.bell_ket(d, 0, 0), (d, d))), 1.0)
        assert abs(singlet_fraction(PSI_MINUS)) <= 1e-12


def qudit_hadamard(d):
    """Unitary discrete Fourier matrix d^{-1/2} sum_jk omega^{jk} |j><k|."""
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def qudit_cnot(d):
    """sum_j |j><j| (x) sum_k |k+j mod d><k|."""
    m = np.zeros((d * d, d * d))
    for j in range(d):
        for kk in range(d):
            m[j * d + (kk + j) % d, j * d + kk] = 1.0
    return m


class TestMeasurementCircuit:
    def test_circuit_prepares_phi00(self):
        for d in (2, 3, 4):
            ket00 = np.zeros(d * d)
            ket00[0] = 1.0
            out = qudit_cnot(d) @ np.kron(qudit_hadamard(d), np.eye(d)) @ ket00
            assert np.max(np.abs(out - bell.bell_ket(d, 0, 0))) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 8))
    def test_readout_is_the_inverse_gate_circuit(self, d):
        # (H^dag (x) 1) CNOT^dag |phi_st> = |t, s>: the table of rows <phi_st|
        # is the gate product, and at d <= 5 its probabilities keep every bit
        gates = np.kron(qudit_hadamard(d).conj().T, np.eye(d)) @ qudit_cnot(d).T
        assert np.max(np.abs(_readout_circuit(d) - gates)) <= 2e-15
        if d > 5:
            return  # at d = 6 the two routes' np.exp phases differ in the last bits
        for seed in range(10):
            sigma = random_state((d, d), rng_seed=seed)
            expect = np.real(np.diag(gates @ sigma.data @ gates.conj().T)).reshape(d, d)
            assert np.array_equal(measurement_circuit_probs(sigma), expect)

    def test_p00_gives_certain_outcome(self):
        probs = measurement_circuit_probs(dm(bell.bell_ket(3, 0, 0), (3, 3)))
        assert np.isclose(probs[0, 0], 1.0, atol=1e-12)

    def test_maximally_mixed_uniform(self):
        probs = measurement_circuit_probs(density(np.eye(9) / 9, (3, 3)))
        assert np.allclose(probs, 1 / 9, atol=1e-12)

    def test_bell_basis_deterministic_outcomes(self):
        # |phi_st> lands on computational outcome (t, s)
        for d in (2, 3):
            for s in range(d):
                for t in range(d):
                    probs = measurement_circuit_probs(dm(bell.bell_ket(d, s, t), (d, d)))
                    assert np.isclose(probs[t, s], 1.0, atol=1e-12)

    def test_agrees_with_singlet_fraction(self):
        for d in (2, 3):
            for seed in range(10):
                sigma = random_state((d, d), rng_seed=seed)
                probs = measurement_circuit_probs(sigma)
                assert abs(probs[0, 0] - singlet_fraction(sigma)) <= 1e-12
                assert abs(probs.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3)])
    def test_rejects_a_state_not_on_two_equal_sites(self, dims):
        sigma = random_state(dims, rng_seed=0)
        with pytest.raises(ValueError, match=rf"two equal sites, not dims \({dims[0]}, "):
            measurement_circuit_probs(sigma)


class TestOverlapIdentity:
    def test_psi_minus_value(self):
        raw = bell_overlap_raw(PSI_MINUS, two_qubit_network())
        assert abs(raw - 0.25) <= 1e-12

    def test_identity_random_states(self):
        net = two_qubit_network()
        w = two_qubit_pt_witness()
        for seed in range(50):
            rho = random_state((2, 2), rng_seed=seed)
            raw = bell_overlap_raw(rho, net)
            assert abs(raw - (1 / 8 - w.expectation(rho) / 4)) <= 1e-10

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match network"):
            bell_overlap_raw(MIXED2, choi_network())


class TestDetectExact:
    def test_psi_minus_detected(self):
        rep = detect_exact(PSI_MINUS, two_qubit_network())
        assert rep.verdict == "detected"
        assert abs(rep.raw_overlap - 0.25) <= 1e-12
        assert abs(rep.raw_threshold - 0.125) <= 1e-12
        assert abs(rep.singlet_fraction - 1.0) <= 1e-12
        assert abs(rep.witness_expectation + 0.5) <= 1e-12

    def test_network_fixes_the_witness(self):
        # a witness passed where the removed override stood fails loudly
        # instead of landing in provenance or shots
        w = two_qubit_pt_witness()
        with pytest.raises(TypeError):
            detect_exact(PSI_MINUS, two_qubit_network(), w)
        with pytest.raises(TypeError):
            detect_shots(PSI_MINUS, two_qubit_network(), w, 100)

    def test_maximally_mixed_not_detected(self):
        rep = detect_exact(MIXED2, two_qubit_network())
        assert rep.verdict == "not_detected"
        assert abs(rep.raw_overlap - 1 / 16) <= 1e-12

    def test_separable_boundary_state_pbd(self):
        # mixes P00 with uniform weight on the other Bell rows; filtering
        # returns exactly the threshold singlet fraction lambda_0
        d = 3
        lam = (2 / 3, 1 / 3, 0.0)
        net = pbd_network(lam)
        p = np.zeros((d, d))
        p[0, 0] = 1 / d
        for s in range(1, d):
            for t in range(d):
                p[s, t] = 1 / (d * d)
        sigma = bell_diagonal_state(d, p)
        rep = detect_exact(sigma, net)
        assert abs(rep.singlet_fraction - lam[0]) <= 1e-12
        # exactly on the threshold: the strict comparison sits inside the
        # tolerance band, so only the raw margin is meaningful
        assert abs(rep.singlet_fraction - rep.eta) <= 1e-12
        assert rep.witness_expectation >= -1e-12

    @pytest.mark.parametrize(
        "net_factory,d",
        [
            (two_qubit_network, 2),
            (lambda: flip_network(3), 3),
            (choi_network, 3),
            (lambda: reduction_network(3), 3),
            (lambda: bh_network(4), 4),
        ],
    )
    def test_biconditional_random_states(self, net_factory, d):
        net = net_factory()
        for seed in range(40):
            rho = random_state((d, d), rng_seed=seed)
            rep = detect_exact(rho, net)  # raises ConsistencyError on mismatch
            if abs(rep.singlet_fraction - rep.eta) > 1e-9:
                assert (rep.singlet_fraction > rep.eta) == (rep.witness_expectation < 0)

    def test_dims_mismatch_rejected(self):
        rho = density(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="do not match network"):
            detect_exact(rho, choi_network())
        with pytest.raises(ValueError, match="do not match network"):
            detect_shots(rho, choi_network(), shots=10)

    def test_isotropic_threshold(self):
        d = 3
        net = reduction_network(d)
        for f, expect in ((1 / d + 0.05, "detected"), (1 / d - 0.05, "not_detected")):
            rep = detect_exact(isotropic_state(d, f), net)
            assert abs(rep.singlet_fraction - f) <= 1e-12
            assert rep.verdict == expect


def weyl(d: int, s: int, t: int) -> np.ndarray:
    """Shift-and-phase unitary X^s Z^t with (1 (x) weyl(d, s, t)) |phi_00> = |phi_st>."""
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + s) % d, j] = np.exp(2j * np.pi * t * j / d)
    return m


def embed(op: np.ndarray, targets, dims) -> np.ndarray:
    """op on the listed factors of a space with factor ``dims``, identity on
    the rest: the joint-space oracle."""
    n = len(dims)
    rest = [i for i in range(n) if i not in targets]
    big = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest]))))
    order = list(targets) + rest
    axes = [order.index(i) for i in range(n)]
    t = big.reshape(tuple(dims[i] for i in order) * 2)
    return t.transpose(axes + [a + n for a in axes]).reshape(big.shape)


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every factor not in the sorted ``keep``: the joint-space oracle."""
    n = len(dims)
    col = [n + i if i in keep else i for i in range(n)]
    out = np.einsum(m.reshape(tuple(dims) * 2), list(range(n)) + col,
                    list(keep) + [n + i for i in keep])
    side = int(np.prod([dims[i] for i in keep]))
    return out.reshape(side, side)


def loop_bell_outcome_distribution(rho, net):
    """Reference: one Kronecker-product Weyl conjugation per outcome."""
    d = net.d
    d2 = d * d
    n2 = np.trace(net.state.data.reshape(d2, d2, d2, d2), axis1=1, axis2=3)
    p = np.empty((d, d, d, d))
    for s, t, u, v in np.ndindex(d, d, d, d):
        w = np.kron(weyl(d, s, t), weyl(d, u, v))
        p[s, t, u, v] = np.real(np.trace(rho.data.T @ w.conj().T @ n2 @ w)) / d2
    return p


def joint_space_bell_distribution(rho, net):
    """Oracle: tr[(rho (x) N)(P_st (x) P_uv)] on the six-factor joint space.

    Factors are (A1, B1, A2, B2, A3, B3); P_st pairs A1 with A2 and P_uv
    pairs B1 with B2, and the layer-3 factors are traced out.
    """
    d = net.d
    r = rho.data.reshape((d,) * 4)
    n = net.state.data.reshape((d,) * 8)
    bells = np.array([bell.bell_projector(d, s, t).data.reshape((d,) * 4)
                      for s in range(d) for t in range(d)])
    p = np.einsum("abAB,cdxyCDxy,sACac,uBDbd->su", r, n, bells, bells, optimize=True)
    return np.real(p).reshape(d, d, d, d)


DISTRIBUTION_NETWORKS = [
    (two_qubit_network, 2),
    (smolin_network, 2),
    (choi_network, 3),
    (lambda: flip_network(3), 3),
    (lambda: reduction_network(3), 3),
    (lambda: pbd_network((0.4, 0.3, 0.2, 0.1)), 4),
    (lambda: bh_network(4), 4),
    (lambda: flip_network(5), 5),
    (lambda: bh_network(6), 6),
]
DISTRIBUTION_IDS = ["two-qubit", "smolin", "choi", "flip3", "reduction3", "pbd4", "bh4",
                    "flip5", "bh6"]


class TestBellOutcomeDistribution:
    @pytest.mark.parametrize("net_factory,d", DISTRIBUTION_NETWORKS, ids=DISTRIBUTION_IDS)
    def test_matches_per_outcome_loop(self, net_factory, d):
        net = net_factory()
        for seed in range(3):
            rho = random_state((d, d), rng_seed=seed)
            p = bell_outcome_distribution(rho, net)
            assert np.max(np.abs(p - loop_bell_outcome_distribution(rho, net))) <= 1e-14

    @pytest.mark.parametrize("net_factory", [choi_network, lambda: flip_network(3),
                                             lambda: reduction_network(3)],
                             ids=["choi", "flip3", "reduction3"])
    def test_against_joint_space_oracle_d3(self, net_factory):
        net = net_factory()
        for seed in (12, 13):
            rho = random_state((3, 3), rng_seed=seed)
            p = bell_outcome_distribution(rho, net)
            assert np.max(np.abs(p - joint_space_bell_distribution(rho, net))) <= 1e-12

    def test_peak_memory_bh6(self):
        net = bh_network(6)
        rho = random_state((6, 6), rng_seed=1)
        tracemalloc.start()
        try:
            bell_outcome_distribution(rho, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_weyl_tables_cached_read_only_and_match_weyl(self, d):
        shift, phase = _weyl_tables(d)
        again = _weyl_tables(d)
        assert again[0] is shift and again[1] is phase
        assert not shift.flags.writeable and not phase.flags.writeable
        for s, t in np.ndindex(d, d):  # the oracle lifts |phi_00> to |phi_st>
            lifted = np.kron(np.eye(d), weyl(d, s, t)) @ bell.bell_ket(d, 0, 0)
            assert np.max(np.abs(lifted - bell.bell_ket(d, s, t))) <= 1e-12
        # W_st (x) W_uv has one nonzero per column i: row shift[(s,u), i],
        # value phase[(t,v), i]
        cols = np.arange(d * d)
        for s, t, u, v in np.ndindex(d, d, d, d):
            w = np.kron(weyl(d, s, t), weyl(d, u, v))
            assert np.count_nonzero(w) == d * d
            assert np.allclose(w[shift[s * d + u], cols], phase[t * d + v],
                               atol=1e-15)

    def test_normalization_and_success_entry(self):
        for net, rho in ((two_qubit_network(), PSI_MINUS),
                         (choi_network(), random_state((3, 3), rng_seed=4))):
            p = bell_outcome_distribution(rho, net)
            assert abs(p.sum() - 1.0) <= 1e-10
            assert np.min(p) >= -1e-12
            rep = detect_exact(rho, net)
            assert abs(p[0, 0, 0, 0] - rep.success_prob) <= 1e-12

    def test_against_explicit_projector_contraction(self):
        # independent oracle: build rho (x) N in the full d^6 space at d = 2
        net = two_qubit_network()
        rho = random_state((2, 2), rng_seed=11)
        joint = np.kron(rho.data, net.state.data)
        p = bell_outcome_distribution(rho, net)
        for s in range(2):
            for t in range(2):
                for u in range(2):
                    for v in range(2):
                        pa = embed(bell.bell_projector(2, s, t).data, [0, 2], (2,) * 6)
                        pb = embed(bell.bell_projector(2, u, v).data, [1, 3], (2,) * 6)
                        val = np.real(np.trace(joint @ pa @ pb))
                        assert abs(p[s, t, u, v] - val) <= 1e-12


class TestDetectShots:
    def test_psi_minus_million_shots(self):
        net = two_qubit_network()
        rep = detect_shots(PSI_MINUS, net, shots=200000, rng_seed=7)
        stats = rep.shots
        # success rate within 3 sigma of 1/16
        sig = np.sqrt(rep.success_prob * (1 - rep.success_prob) / stats.n_total)
        assert abs(stats.n_postselected / stats.n_total - rep.success_prob) <= 3 * sig
        assert stats.estimate == 1.0  # filtered state is exactly |phi+>
        assert rep.verdict == "detected"

    def test_mixed_ci_contains_exact(self):
        net = two_qubit_network()
        rep = detect_shots(MIXED2, net, shots=100000, rng_seed=21)
        assert rep.shots.ci_low <= 0.25 <= rep.shots.ci_high
        assert rep.verdict == "not_detected"

    def test_single_failed_shot_inconclusive(self):
        rep = detect_shots(PSI_MINUS, two_qubit_network(), shots=1, rng_seed=0)
        assert rep.verdict == "inconclusive"
        assert rep.shots.n_postselected == 0
        assert rep.shots.estimate is None

    def test_deterministic_given_seed(self):
        a = detect_shots(MIXED2, two_qubit_network(), shots=5000, rng_seed=9)
        b = detect_shots(MIXED2, two_qubit_network(), shots=5000, rng_seed=9)
        assert a.to_dict() == b.to_dict()

    def test_invalid_shot_count(self):
        with pytest.raises(ValueError):
            detect_shots(MIXED2, two_qubit_network(), shots=0, rng_seed=0)

    def test_non_integer_shot_count_rejected(self):
        with pytest.raises(ValueError, match=r"^shots must be an integer, not 2\.5$"):
            detect_shots(MIXED2, two_qubit_network(), shots=2.5, rng_seed=0)
        rep = detect_shots(MIXED2, two_qubit_network(), shots=np.int64(5), rng_seed=0)
        assert rep.shots.n_total == 5
        assert rep.to_dict() == detect_shots(MIXED2, two_qubit_network(), shots=5,
                                             rng_seed=0).to_dict()

    def test_shot_count_beyond_int64_rejected(self):
        limit = int(np.iinfo(np.int64).max)
        rep = detect_shots(MIXED2, two_qubit_network(), shots=limit, rng_seed=0)
        assert rep.shots.n_total == limit
        with pytest.raises(ValueError, match="shots must lie in"):
            detect_shots(MIXED2, two_qubit_network(), shots=limit + 1, rng_seed=0)

    def test_estimator_unbiased_over_seeds(self):
        net = choi_network()
        rho = isotropic_state(3, 0.8)
        exact = detect_exact(rho, net).singlet_fraction
        estimates, n_posts = [], []
        for seed in range(50):
            rep = detect_shots(rho, net, shots=10**4, rng_seed=seed)
            estimates.append(rep.shots.estimate)
            n_posts.append(rep.shots.n_postselected)
        mean = float(np.mean(estimates))
        sigma = np.sqrt(exact * (1 - exact) / np.mean(n_posts))
        assert abs(mean - exact) <= 4 * sigma / np.sqrt(50)


class TestWilson:
    def test_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_extreme_counts_contain_estimate(self):
        for n in range(1, 2001):
            for k in (0, n):
                lo, hi = wilson_interval(k, n)
                assert lo <= k / n <= hi, (k, n, lo, hi)

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 or lo <= 1e-12
        lo, hi = wilson_interval(50, 50)
        assert hi >= 1 - 1e-12


@pytest.mark.parametrize("make, seed", [
    (two_qubit_network, 33),
    (choi_network, 34),
    (lambda: flip_network(3), 35),
    (lambda: reduction_network(3), 36),
], ids=["two-qubit", "choi", "flip3", "reduction3"])
def test_teleport_contraction_matches_dense_computation(make, seed):
    # oracle: tr_12[(rho (x) N) P] assembled in the full d^6-dim space
    net = make()
    d = net.d
    rho = random_state((d, d), rng_seed=seed)
    joint = np.kron(rho.data, net.state.data)
    pa = embed(bell.bell_projector(d, 0, 0).data, [0, 2], (d,) * 6)
    pb = embed(bell.bell_projector(d, 0, 0).data, [1, 3], (d,) * 6)
    m = partial_trace(joint @ pa @ pb, (d,) * 6, keep=(4, 5))
    k = teleport_contraction(rho.data, net.state.data, d * d, d * d)
    assert np.max(np.abs(m - k / (d * d))) <= 1e-12


def test_teleport_contraction_on_unequal_layers():
    # layer 2 of side 4, layer 3 of side 9: the (d2, d3) signature allows it
    rng = np.random.default_rng(37)
    rho = random_state((2, 2), rng_seed=38).data
    net = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    k = teleport_contraction(rho, net, 4, 9)
    assert k.shape == (9, 9)
    assert np.allclose(k, np.einsum("ij,ixjy->xy", rho, net.reshape(4, 9, 4, 9)),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("make, dims", [
    (lambda: bh_network(4).state, (4, 4)),
    (lambda: pbd_network((0.4, 0.3, 0.2, 0.1)).state, (4, 4)),
    (lambda: graph_network(cl4_graph(), CL4_LABELS), (2,) * 4),
], ids=["bh4", "pbd4", "cl4"])
@pytest.mark.parametrize("view", [lambda a: a, lambda a: a.T], ids=["contiguous", "transposed"])
def test_teleport_contraction_matches_einsum_at_side_16(make, dims, view):
    # the joint-space oracle would need 268 MB here; einsum sums the same terms
    net = make().data
    rho = view(random_state(dims, rng_seed=40).data)
    k = teleport_contraction(rho, net, 16, 16)
    ref = np.einsum("ij,ixjy->xy", rho, net.reshape(16, 16, 16, 16))
    assert np.max(np.abs(k - ref)) <= 1e-15


@pytest.mark.parametrize("rho_shape, net_shape", [
    ((1, 9), (81, 81)),
    ((9, 1), (81, 81)),
    ((4, 4), (81, 81)),
    ((9, 9), (36, 36)),
], ids=["row", "column", "wrong-side-rho", "wrong-side-net"])
def test_teleport_contraction_refuses_misshapen_input(rho_shape, net_shape):
    # broadcasting would take a (1, 9) rho and return a wrong K without error
    rho = np.full(rho_shape, 1 / 9, dtype=complex)
    net = np.zeros(net_shape, dtype=complex)
    with pytest.raises(ValueError) as err:
        teleport_contraction(rho, net, 9, 9)
    assert str(rho_shape) in str(err.value) and str(net_shape) in str(err.value)


@pytest.mark.parametrize("d", [4, 6])
def test_teleport_contraction_makes_no_copy_of_the_network(d):
    # a transposed copy of net alone would take net.nbytes
    net = bh_network(d).state.data
    rho = random_state((d, d), rng_seed=41).data
    tracemalloc.start()
    try:
        teleport_contraction(rho, net, d * d, d * d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(net.nbytes / 8, 2**20)

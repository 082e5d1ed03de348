import itertools
import tracemalloc

import numpy as np
import pytest

from netwitness import bell, cli, graphs, networks, tensor
from netwitness.networks import (
    DENSE_EIGVALSH_MAX_SIDE,
    SITE_NAMES,
    NetworkState,
    _blocks,
    bh_network,
    choi_network,
    decomposable_network,
    flip_network,
    network_from_decomposition,
    pbd_network,
    ppt_report,
    reconstruct_witness,
    reduction_network,
    smolin_network,
    solve_decomposition,
    two_qubit_network,
)
from netwitness.protocol import detect_exact
from netwitness.states import random_state
from netwitness.tensor import (
    DensityOperator,
    Mat,
    _pt_source,
    density,
    hermitian_part,
    mixture,
    partial_transpose,
)
from netwitness.witnesses import (
    breuer_hall_witness,
    choi_witness,
    decomposable_witness,
    two_qubit_pt_witness,
)


def as_network(state: DensityOperator, eta: float) -> NetworkState:
    """A bare state on two equal two-site layers as a network; its witness is a
    placeholder, since neither reconstruct_witness nor ppt_report reads it."""
    d = state.dims[0]
    return NetworkState(state, eta, 1.0, "bare", Mat(np.eye(d * d), (d, d)))


def recon_error(net: NetworkState) -> float:
    rec = reconstruct_witness(net)
    return float(np.max(np.abs(rec.data - net.recon_constant * net.witness.data.T)))


class TestTwoQubitNetwork:
    def test_unit_trace_and_psd(self):
        net = two_qubit_network()
        assert np.isclose(np.trace(net.state.data), 1.0)
        assert np.linalg.eigvalsh(net.state.data)[0] >= -1e-12

    def test_eigenvalues(self):
        vals = np.sort(np.linalg.eigvalsh(two_qubit_network().state.data))
        expect = np.sort([0.25] + [1 / 12] * 9 + [0.0] * 6)
        assert np.allclose(np.sort(vals), expect, atol=1e-12)

    def test_reconstruction(self):
        net = two_qubit_network()
        assert net.recon_constant == 0.25
        assert recon_error(net) <= 1e-10

    def test_matches_decomposable_construction(self):
        # the explicit mixture equals the generic build for Q = |phi+><phi+|
        net = two_qubit_network()
        generic = flip_network(2)
        assert np.max(np.abs(net.state.data - generic.state.data)) <= 1e-12


class TestSolveDecomposition:
    def test_two_qubit_weights(self):
        w = two_qubit_pt_witness()
        terms, k = solve_decomposition(w, 0.5)
        assert np.allclose([t[0] for t in terms], [0.25, 0.75], atol=1e-12)
        assert np.isclose(k, 4.0, atol=1e-12)
        # the signed weights a_j = k * c_j * (eta - <phi_00|Pi_j|phi_00>)
        phi = bell.bell_ket(2)
        a = [k * cj * (0.5 - np.real(phi.conj() @ pi @ phi)) for cj, _, pi in terms]
        assert np.isclose(a[0], -0.5, atol=1e-12)
        assert np.isclose(a[1], 1.5, atol=1e-12)

    def test_explicit_pi_choices_reproduce_standard_network(self):
        # the fixed readouts P_00 and (1 - P_00)/3 give the standard mixture
        net = network_from_decomposition(two_qubit_pt_witness(), 0.5)
        assert np.max(np.abs(net.state.data - two_qubit_network().state.data)) <= 1e-12
        assert np.isclose(net.recon_constant, 0.25)
        # readouts passed where the removed option stood do not become the family
        p00 = bell.bell_projector(2, 0, 0)
        with pytest.raises(TypeError):
            network_from_decomposition(two_qubit_pt_witness(), 0.5, [p00, p00])

    @pytest.mark.parametrize("w", [two_qubit_pt_witness(),
                                   decomposable_witness(random_state((3, 3), rng_seed=3, rank=1))],
                             ids=["two-qubit", "d3"])
    def test_eta_one_ulp_below_one(self, w):
        # the exact gaps eta - 1 and eta keep their signs up to the last ulp
        eta = 0.9999999999999999
        terms, k = solve_decomposition(w, eta)
        assert all(np.array_equal(t[2], pi) for t, pi in zip(terms, networks._readouts(w.d)))
        assert all(c > 0 for c, _, _ in terms) and k > 0
        net = network_from_decomposition(w, eta)
        rec = reconstruct_witness(net)
        # recon_constant is about 2e-16 here, the size of the contraction's own
        # round-off, so the residual is held absolute, as at every other eta
        assert np.max(np.abs(rec.data - net.recon_constant * w.mat.data.T)) <= 1e-14

    @pytest.mark.parametrize("d,eta", [(2, 0.05), (3, 0.05), (2, 0.4), (3, 0.2)])
    def test_eta_below_one_over_d(self, d, eta):
        # the readout gaps are eta - 1 < 0 and eta > 0, so every eta in (0, 1)
        # is feasible; 40 seeded witnesses, each run on a seeded pure state
        verdicts = set()
        for seed in range(40):
            w = decomposable_witness(random_state((d, d), rng_seed=seed, rank=1))
            net = network_from_decomposition(w, eta)
            rec = reconstruct_witness(net)
            assert np.max(np.abs(rec.data - net.recon_constant * w.mat.data.T)) <= 1e-14
            rep = detect_exact(random_state((d, d), rng_seed=100 + seed, rank=1), net)
            assert (rep.verdict == "detected") == (rep.witness_expectation < 0)
            verdicts.add(rep.verdict)
        assert verdicts == {"detected", "not_detected"}

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_eta_outside_the_open_unit_interval_refused(self, eta):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\)"):
            solve_decomposition(two_qubit_pt_witness(), eta)

    def test_random_q_witness_reconstructs(self):
        for seed in range(5):
            q = random_state((2, 2), rng_seed=seed, rank=1)
            w = decomposable_witness(q)
            net = network_from_decomposition(w, 0.5)
            rec = reconstruct_witness(net)
            err = np.max(np.abs(rec.data - net.recon_constant * w.mat.data.T))
            assert err <= 1e-9

    def test_terms_are_psd_and_normalized(self):
        w = choi_witness()
        terms, k = solve_decomposition(w, w.eta)
        assert np.isclose(sum(t[0] for t in terms), 1.0, atol=1e-12)
        assert k > 0
        for term in terms:
            assert np.linalg.eigvalsh(term[1])[0] >= -1e-10
            assert np.isclose(np.trace(term[1]), 1.0, atol=1e-10)
            assert np.isclose(np.trace(term[2]), 1.0, atol=1e-10)

    @pytest.mark.parametrize("d,eta", [(d, eta) for d in (2, 3, 4) for eta in (1 / d, 0.5, 0.7)])
    def test_network_keeps_the_bits_of_the_wrapped_terms(self, d, eta):
        # seeded decomposable witnesses: 5 seeds at each (d, eta)
        for seed in range(5):
            w = decomposable_witness(random_state((d, d), rng_seed=seed, rank=1))
            self.assert_same_network(w, eta)

    def test_choi_network_keeps_the_bits_of_the_wrapped_terms(self):
        self.assert_same_network(choi_witness(), 0.8)

    @staticmethod
    def assert_same_network(w, eta):
        net = network_from_decomposition(w, eta)
        state, recon = wrapped_decomposition_network(w, eta)
        assert_same_bits(net.state.data, state.data)
        assert net.recon_constant == recon


class TestDecomposableNetwork:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unit_trace_and_reconstruction(self, d):
        q = random_state((d, d), rng_seed=d, rank=1)
        net = decomposable_network(q)
        assert np.isclose(np.trace(net.state.data), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(net.state.data)[0] >= -1e-12
        assert recon_error(net) <= 1e-9

    def test_recon_constant_formula(self):
        d = 3
        q = random_state((d, d), rng_seed=17, rank=1)
        net = decomposable_network(q)
        lam = float(np.max(np.abs(
            np.linalg.eigvalsh(partial_transpose(q.mat, {1}).data))))
        assert np.isclose(net.recon_constant,
                          2 * (d - 1) / (d * (d**3 * lam + d - 2)), rtol=1e-12)

    def test_rejects_identity_like_q(self):
        q = density(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="degenerate"):
            decomposable_network(q)

    def test_flip_instance_matches_symmetric_form(self):
        # mixture of normalized antisymmetric/symmetric projectors
        d = 3
        net = flip_network(d)
        f = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]  # F|i,j> = |j,i>
        s, a = (np.eye(9) + f) / 2, (np.eye(9) - f) / 2
        p00 = bell.bell_projector(d, 0, 0).data
        first = np.kron(a / np.trace(a).real, p00)
        second = np.kron(s / np.trace(s).real, (np.eye(9) - p00) / 8)
        expect = first / (d + 2) + second * (d + 1) / (d + 2)
        assert np.max(np.abs(net.state.data - expect)) <= 1e-12
        assert np.isclose(net.recon_constant, 2 / (d * (d + 2)), rtol=1e-12)


class TestPbdNetwork:
    def test_smolin_is_uniform_d2(self):
        net = smolin_network()
        expect = np.zeros((16, 16), dtype=complex)
        for s in range(2):
            for t in range(2):
                p = bell.bell_projector(2, s, t).data
                expect += np.kron(p, p) / 4
        assert np.max(np.abs(net.state.data - expect)) <= 1e-12

    def test_choi_instance(self):
        net = choi_network()
        expect = np.zeros((81, 81), dtype=complex)
        for t in range(3):
            p0 = bell.bell_projector(3, 0, t).data
            p1 = bell.bell_projector(3, 1, t).data
            expect += 2 / 9 * np.kron(p0, p0) + 1 / 9 * np.kron(p1, p1)
        assert np.max(np.abs(net.state.data - expect)) <= 1e-12
        assert np.isclose(net.eta, 2 / 3)
        assert np.isclose(net.recon_constant, 2 / 9)

    def test_random_lambda_valid_state(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            lam = rng.random(3)
            lam /= lam.sum()
            net = pbd_network(tuple(lam))
            assert np.isclose(np.trace(net.state.data), 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(net.state.data)[0] >= -1e-12
            assert recon_error(net) <= 1e-9

    def test_zero_lambda0_rejected(self):
        with pytest.raises(ValueError, match="eta would be 0"):
            pbd_network((0.0, 0.5, 0.5))

    def test_reduction_reconstruction(self):
        for d in (2, 3):
            net = reduction_network(d)
            assert np.isclose(net.recon_constant, 1 / d**2, rtol=1e-12)
            assert recon_error(net) <= 1e-10


class TestBhNetwork:
    def test_weights_at_d4(self):
        net = bh_network(4)
        assert np.isclose(net.recon_constant, (24 / 38) / 16, rtol=1e-12)

    def test_valid_state_and_reconstruction(self):
        net = bh_network(4)
        assert np.isclose(np.trace(net.state.data), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(net.state.data)[0] >= -1e-12
        assert recon_error(net) <= 1e-10

    def test_paired_witness_is_scaled_breuer_hall(self):
        d = 4
        net = bh_network(d)
        scaled = breuer_hall_witness(d)
        assert np.max(np.abs(net.witness.data - (d - 2) * scaled.mat.data)) <= 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            bh_network(3)


class TestReconstructWitness:
    def test_product_network_sign(self):
        # sigma (x) P00 with eta close to 1 contracts to (eta - 1) sigma <= 0
        d = 2
        sigma = random_state((d, d), rng_seed=23)
        p00 = bell.bell_projector(d, 0, 0)
        raw = density(np.kron(sigma.data, p00.data), (d,) * 4)
        eta = 1 - 1e-3
        out = reconstruct_witness(as_network(raw, eta))
        assert np.max(np.abs(out.data - (eta - 1) * sigma.data)) <= 1e-12
        assert np.linalg.eigvalsh(out.data)[-1] <= 1e-12

    def test_hermitian_output(self):
        out = reconstruct_witness(choi_network())
        assert out.hermiticity_defect() <= 1e-12


class TestPptReport:
    def test_smolin_two_two_cuts_ppt_and_one_three_cuts_npt(self):
        # Pauli form (1111 + XXXX + YYYY + ZZZZ)/16: a single-qubit partial
        # transpose flips YYYY, giving eigenvalue (1 - 1 - 1 + 1 ... ) = -1/8
        rep = ppt_report(smolin_network())
        assert len(rep) == 7
        for cut in ("A2B2:A3B3", "A2A3:B2B3", "A2B3:B2A3"):
            assert rep[cut] >= -1e-10
        for cut in ("A2:B2A3B3", "A2B2A3:B3", "A2A3B3:B2", "A2B2B3:A3"):
            assert abs(rep[cut] + 0.125) <= 1e-10

    def test_uniform_pbd_d3_breaks_ppt_across_cross_cut(self):
        rep = ppt_report(reduction_network(3))
        assert rep["A2A3:B2B3"] < -1e-6

    def test_flip_network_ppt_across_cross_cut(self):
        for d in (2, 3):
            rep = ppt_report(flip_network(d))
            assert rep["A2A3:B2B3"] >= -1e-10

    def test_choi_network_has_negative_cut(self):
        rep = ppt_report(choi_network())
        assert min(rep.values()) < -1e-6

    def test_pure_product_state_all_ppt(self):
        rng = np.random.default_rng(0)
        kets = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
        v = kets[0]
        for k in kets[1:]:
            v = np.kron(v, k)
        v /= np.linalg.norm(v)
        rep = ppt_report(as_network(DensityOperator(Mat(np.outer(v, v.conj()), (2, 2, 2, 2))), 0.5))
        assert all(val >= -1e-10 for val in rep.values())


def dense_min_eigenvalue(mat: Mat, cut: str) -> float:
    """The partial transpose's dense spectrum, transposing the cut's left sites."""
    left = cut.split(":")[0]
    subset = [SITE_NAMES.index(left[i:i + 2]) for i in range(0, len(left), 2)]
    pt = partial_transpose(mat, subset).data
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def ppt_oracle_cases():
    lams = {2: (0.7, 0.3), 3: (2 / 3, 1 / 3, 0.0), 4: (0.4, 0.3, 0.2, 0.1)}
    for name, row in cli.FAMILIES.items():
        for d in (2, 3, 4):
            try:
                net = cli.build_network(name, d, lams[d] if row.d is None else None)
            except ValueError:  # the row has no network at this d
                continue
            yield pytest.param(net, id=f"{name}-d{d}")


@pytest.mark.parametrize("net", list(ppt_oracle_cases()))
def test_blocked_ppt_report_matches_dense_eigvalsh(net):
    rep = ppt_report(net)
    assert len(rep) == 7
    for cut, value in rep.items():
        assert abs(value - dense_min_eigenvalue(net.state.mat, cut)) <= 1e-14, cut


def spy_eigvalsh_sides(monkeypatch) -> list:
    """Record the side of every matrix eigvalsh solves, one entry per matrix of a stack."""
    sides = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shape = np.shape(a)
        sides.extend([shape[-1]] * int(np.prod(shape[:-2])))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sides


PARITY_COUPLING = (0, 1)


def parity_network(coupling=None) -> NetworkState:
    """d = 3: a random Hermitian matrix restricted to entries between indices of
    equal digit-sum parity; every partial transpose keeps that parity, so each
    cut has two blocks, of 41 and 40. Shifted by a multiple of the identity and
    normalized it is a state with the same zero pattern. ``coupling`` = (x, y)
    sets entries [0, 1] and [1, 0], whose indices differ in parity, before the
    normalization."""
    rng = np.random.default_rng(3)
    parity = np.indices((3,) * 4).reshape(4, -1).sum(axis=0) % 2
    g = rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81))
    h = np.where(parity[:, None] == parity[None, :], g + g.conj().T, 0)
    h += (1 - np.linalg.eigvalsh(h)[0]) * np.eye(81)
    i, j = PARITY_COUPLING
    assert parity[i] != parity[j]
    if coupling is not None:
        h[i, j], h[j, i] = coupling
    return as_network(density(h / np.trace(h).real, (3,) * 4), 1 / 3)


def test_tiny_coupling_is_not_dropped(monkeypatch):
    split = parity_network()
    # one coupling entry (and its mirror) across the parities joins them in every cut
    joined = parity_network((1e-300, 1e-300))
    assert joined.state.data[PARITY_COUPLING] != 0
    sides = spy_eigvalsh_sides(monkeypatch)
    ppt_report(split)
    assert sorted(sides) == [40] * 7 + [41] * 7
    sides.clear()
    rep = ppt_report(joined)
    assert sides == [81] * 7
    for cut, value in rep.items():
        assert abs(value - dense_min_eigenvalue(joined.state.mat, cut)) <= 1e-14, cut


def test_pair_cancelling_in_the_hermitian_part_keeps_the_split(monkeypatch):
    # entries [0, 1] and [1, 0] are nonzero, but the Hermitian part is exactly
    # 0 there, so no partial transpose of it couples the two parities
    cancelled = parity_network((1e-300, -1e-300))
    data = cancelled.state.data
    i, j = PARITY_COUPLING
    assert data[i, j] != 0 and data[j, i] != 0
    assert (data[i, j] + data[j, i].conj()) / 2 == 0
    sides = spy_eigvalsh_sides(monkeypatch)
    rep = ppt_report(cancelled)
    assert sorted(sides) == [40] * 7 + [41] * 7
    assert rep == per_cut_ppt_report(cancelled)


def per_cut_ppt_report(n: NetworkState) -> dict:
    """The per-cut profile that the one-pass ppt_report replaced: a dense
    Hermitian copy, its nonzero pattern, then per cut one block search and one
    eigvalsh per block size."""
    mat = n.state.mat
    side = mat.side
    herm = hermitian_part(mat.data)
    rows, cols = np.nonzero(herm)
    report = {}
    for bits in range(7):
        subset = [0] + [i for i in range(1, 4) if bits & (1 << (i - 1))]
        rest = [i for i in range(4) if i not in subset]
        label = ":".join("".join(SITE_NAMES[i] for i in part) for part in (subset, rest))
        if side <= DENSE_EIGVALSH_MAX_SIDE:
            stacks = [np.arange(side)[None]]
        else:
            stacks = _blocks(side, *_pt_source(mat.dims, subset, rows, cols))
        lowest = np.inf
        for idx in stacks:
            i = idx[:, :, None]
            pt = herm[_pt_source(mat.dims, subset, i, i.transpose(0, 2, 1))]
            lowest = min(lowest, np.linalg.eigvalsh(pt)[:, 0].min())
        report[label] = float(lowest)
    return report


@pytest.fixture(scope="module")
def bh6():
    return bh_network(6)


@pytest.mark.parametrize("net", list(ppt_oracle_cases()) + [
    pytest.param(parity_network(), id="parity-split"),
    pytest.param(parity_network((1e-300, 1e-300)), id="parity-joined"),
])
def test_one_pass_ppt_report_equals_the_per_cut_profile_bit_for_bit(net):
    rep, want = ppt_report(net), per_cut_ppt_report(net)
    assert list(rep) == list(want)
    assert rep == want


def test_one_pass_ppt_report_equals_the_per_cut_profile_bit_for_bit_bh6(bh6):
    rep, want = ppt_report(bh6), per_cut_ppt_report(bh6)
    assert list(rep) == list(want)
    assert rep == want


def test_ppt_report_peak_stays_below_one_state(bh6):
    ppt_report(bh6)  # warm the cached digit shifts
    tracemalloc.start()
    try:
        ppt_report(bh6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bh6.state.data.nbytes


def test_ppt_report_decomposes_no_block_larger_than_a_factor(monkeypatch):
    net = bh_network(4)
    sides = spy_eigvalsh_sides(monkeypatch)
    ppt_report(net)
    assert sides, "ppt_report made no eigensolve"
    assert max(sides) <= 16


def test_smolin_permutation_invariance():
    net = smolin_network()
    t = net.state.data.reshape((2,) * 8)
    for perm in itertools.permutations(range(4)):
        axes = list(perm) + [p + 4 for p in perm]
        permuted = t.transpose(axes).reshape(16, 16)
        assert np.max(np.abs(permuted - net.state.data)) <= 1e-12


def test_recon_constant_must_be_positive():
    net = two_qubit_network()
    with pytest.raises(ValueError, match="positive"):
        NetworkState(net.state, net.eta, -1.0, "broken", net.witness)


# --- reference copies of the per-family accumulation loops and of the dense
# reconstruction that tensor.mixture and the one-einsum reconstruct_witness
# replaced; reports pin the builders' exact bits, and the dense PSD check that
# the per-term certificate replaced serves as an oracle ---


def old_decomposable_matrix(q, lam=None):
    d = q.dims[0]
    wq = partial_transpose(q.mat, {1})
    if lam is None:
        lam = float(np.max(np.abs(np.linalg.eigh(wq.data)[0])))
    denom = d**3 * lam + d - 2
    c1 = (d * d * lam - 1) / denom
    c2 = (d - 1) * (d * d * lam + 1) / denom
    wqt = wq.data.T
    eye = np.eye(d * d)
    first = (lam * eye - wqt) / (lam * d * d - 1)
    first = (first + first.conj().T) / 2
    second = (lam * eye + wqt) / (lam * d * d + 1)
    second = (second + second.conj().T) / 2
    p00 = bell.bell_projector(d, 0, 0).data
    return c1 * np.kron(first, p00) + c2 * np.kron(second, (eye - p00) / (d * d - 1))


def old_pbd_matrix(lam):
    d = len(lam)
    n = np.zeros((d**4, d**4), dtype=complex)
    for s in range(d):
        if lam[s] == 0.0:
            continue
        for t in range(d):
            p = bell.bell_projector(d, s, t).data
            n += (lam[s] / d) * np.kron(p, p)
    return n


def old_bh_matrix(d):
    from fractions import Fraction

    denom = 3 * d * d - 3 * d + 2
    c0 = Fraction(2 * d * d - 2 * d, denom)
    c1 = Fraction(d + 1, denom)
    c2 = 1 - c0 - c1
    fp = bell.twisted_flip(d).data
    p00 = bell.bell_projector(d, 0, 0).data
    eye = np.eye(d * d)
    paired = np.zeros((d**4, d**4), dtype=complex)
    for s in range(d):
        for t in range(d):
            p = bell.bell_projector(d, s, t).data
            paired += np.kron(p, p) / (d * d)
    return (
        float(c0) * paired
        + float(c1) * np.kron((eye + fp) / (d * d + d), p00)
        + float(c2) * np.kron((eye - fp) / (d * d - d), (eye - p00) / (d * d - 1))
    )


def old_decomposition_matrix(w, eta):
    terms, _ = solve_decomposition(w, eta)
    d = w.d
    n = np.zeros((d**4, d**4), dtype=complex)
    for term in terms:
        n += term[0] * np.kron(term[1], term[2])
    return n


def wrapped_decomposition_network(w, eta):
    """The split as solved when each term was a record of its signed weight and
    Mat-wrapped operators, with the weights and gaps in parallel lists, read
    back into ``mixture`` term by term; returns the state and 1 / k."""
    d = w.d
    vals, vecs = np.linalg.eigh(hermitian_part(w.mat.data.T))
    p00 = bell.bell_projector(d, 0, 0)
    rest = Mat((np.eye(d * d) - p00.data) / (d * d - 1), (d, d))
    terms, gaps, k = [], [], 0.0
    for mask, pi, gap in ((vals < -1e-12, p00, eta - 1.0), (vals > 1e-12, rest, eta)):
        if not np.any(mask):
            continue
        block = (vecs[:, mask] * vals[mask]) @ vecs[:, mask].conj().T
        a = float(np.real(np.trace(block)))
        gaps.append(gap)
        terms.append((a, Mat(hermitian_part(block / a), w.mat.dims), pi))
        k += a / gaps[-1]
    c = [a / (k * g) for (a, _, _), g in zip(terms, gaps)]
    state = mixture(((cj, wn.data, pi.data) for cj, (_, wn, pi) in zip(c, terms)),
                    w.mat.dims * 2)
    return state, 1.0 / float(k)


def old_reconstruct(mat, eta):
    d2, d3 = mat.dims[0] * mat.dims[1], mat.dims[2] * mat.dims[3]
    p00 = bell.bell_projector(mat.dims[2], 0, 0).data
    meas = np.kron(np.eye(d2), eta * np.eye(d3) - p00)
    # trace out A3B3
    out = np.einsum((mat.data @ meas).reshape(mat.dims * 2), [0, 1, 2, 3, 4, 5, 2, 3],
                    [0, 1, 4, 5]).reshape(d2, d2)
    return Mat((out + out.conj().T) / 2, mat.dims[:2])


def assert_same_bits(got, expect):
    # stricter than np.array_equal: a -0.0 entry prints as -0.0 in the report
    expect = np.asarray(expect, dtype=complex)
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


Q3 = random_state((3, 3), rng_seed=4, rank=1)

FAMILIES = [
    ("flip2", lambda: flip_network(2),
     lambda: old_decomposable_matrix(density(bell.bell_projector(2, 0, 0).data, (2, 2)), 1 / 2)),
    ("decomposable", lambda: decomposable_network(Q3), lambda: old_decomposable_matrix(Q3)),
    ("flip3", lambda: flip_network(3),
     lambda: old_decomposable_matrix(density(bell.bell_projector(3, 0, 0).data, (3, 3)), 1 / 3)),
    ("pbd4", lambda: pbd_network((0.4, 0.3, 0.2, 0.1)),
     lambda: old_pbd_matrix((0.4, 0.3, 0.2, 0.1))),
    ("pbd-zero-weight", lambda: pbd_network((0.5, 0.0, 0.5)),
     lambda: old_pbd_matrix((0.5, 0.0, 0.5))),
    ("choi", choi_network, lambda: old_pbd_matrix((2 / 3, 1 / 3, 0.0))),
    ("smolin", smolin_network, lambda: old_pbd_matrix((0.5, 0.5))),
    ("bh4", lambda: bh_network(4), lambda: old_bh_matrix(4)),
    ("bh6", lambda: bh_network(6), lambda: old_bh_matrix(6)),
    ("decomposition", lambda: network_from_decomposition(decomposable_witness(Q3), 0.6),
     lambda: old_decomposition_matrix(decomposable_witness(Q3), 0.6)),
]


@pytest.mark.parametrize("name,build,old", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_product_mixture_matches_old_loop_bit_for_bit(name, build, old):
    expect = old()
    assert_same_bits(build().state.data, expect)
    assert np.linalg.eigvalsh(expect)[0] >= -1e-10
    assert abs(np.trace(expect) - 1.0) <= 1e-10


@pytest.mark.parametrize("name,build,old", [f for f in FAMILIES if f[0] != "bh6"],
                         ids=[f[0] for f in FAMILIES if f[0] != "bh6"])
def test_reconstruction_matches_dense_reference_on_families(name, build, old):
    net = build()
    got = reconstruct_witness(net)
    expect = old_reconstruct(net.state.mat, net.eta)
    assert got.dims == expect.dims
    assert np.max(np.abs(got.data - expect.data)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_reconstruction_matches_dense_reference_on_random_matrices(d):
    for seed in range(5):
        state = random_state((d,) * 4, rng_seed=seed)
        for eta in (1 / d, 0.7):
            got = reconstruct_witness(as_network(state, eta))
            expect = old_reconstruct(state.mat, eta)
            assert got.dims == expect.dims == (d, d)
            assert np.max(np.abs(got.data - expect.data)) <= 1e-15


def test_pbd3_reported_reconstruction_error_unchanged():
    net = pbd_network((2 / 3, 1 / 3, 0.0))
    target = net.recon_constant * net.witness.data.T
    old_err = float(np.max(np.abs(old_reconstruct(net.state.mat, net.eta).data - target)))
    assert recon_error(net) == old_err


def test_reconstruction_rejects_non_four_factor_input():
    # a state that is not two layers of equal site dims never becomes a network
    witness = Mat(np.eye(4), (2, 2))
    for dims in ((2, 4), (2, 2, 2), (2, 3, 3, 2)):
        side = int(np.prod(dims))
        state = density(np.eye(side) / side, dims)
        with pytest.raises(ValueError, match="not two layers of equal site dims"):
            NetworkState(state, 0.5, 1.0, "broken", witness)


class TestNetworkTarget:
    def test_two_equal_sites_default_to_phi00_read_only(self):
        for d in (2, 3):
            net = flip_network(d)
            assert net.layer == (d, d)
            assert net.target.tobytes() == bell.bell_ket(d, 0, 0).tobytes()
            assert not net.target.flags.writeable

    def test_target_is_copied_and_read_only(self):
        net = two_qubit_network()
        ket = np.array([0, 1, 0, 0], dtype=complex)
        custom = NetworkState(net.state, net.eta, 1.0, "custom", net.witness, ket)
        ket[1] = 0
        assert custom.target[1] == 1 and not custom.target.flags.writeable

    def test_rejects_a_target_of_the_wrong_length(self):
        net = two_qubit_network()
        for target in (np.ones(2), np.ones(8), np.ones((4, 1))):
            with pytest.raises(ValueError, match=r"ket on the layer \(2, 2\)"):
                NetworkState(net.state, net.eta, 1.0, "broken", net.witness, target)

    def test_other_layers_need_a_target(self):
        # one-site layers and the three-qubit GHZ layer have no |phi_00>
        witness = Mat(np.eye(8), (2, 2, 2))
        for state in (density(np.eye(4) / 4, (2, 2)), graphs.ghz_network()):
            with pytest.raises(ValueError, match="ket on the layer"):
                NetworkState(state, 0.5, 1.0, "broken", witness)


class TestMixtureCertificate:
    """tensor.mixture proves positivity per term; each broken term is refused."""

    P = bell.bell_projector(2, 0, 0).data

    def test_accepts_valid_terms_and_nested_state(self):
        nested = [(0.5, self.P, self.P), (0.5, np.eye(4) / 4, np.eye(4) / 4)]
        inner = mixture(nested, (2,) * 4)
        outer = mixture([(0.25, nested), (0.75, self.P, np.eye(4) / 4)], (2,) * 4)
        expect = 0 + 0.25 * inner.data + 0.75 * np.kron(self.P, np.eye(4) / 4)
        assert isinstance(outer, DensityOperator)
        assert_same_bits(outer.data, expect)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="weight"):
            mixture([(1.25, self.P, self.P), (-0.25, self.P, np.eye(4) / 4)], (2,) * 4)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, c):
        with pytest.raises(ValueError, match="weight"):
            mixture([(c, self.P, self.P)], (2,) * 4)

    def test_rejects_non_hermitian_factor(self):
        a = np.eye(4) / 4
        a[0, 1] = 0.01
        with pytest.raises(ValueError, match="Hermitian"):
            mixture([(1.0, a, self.P)], (2,) * 4)

    def test_rejects_non_finite_factor(self):
        a = np.eye(4) / 4
        a[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mixture([(0.0, a, self.P), (1.0, self.P, self.P)], (2,) * 4)

    def test_rejects_factor_with_negative_eigenvalue(self):
        a = np.diag([1 + 1e-8, -1e-8, 0.0, 0.0])
        with pytest.raises(ValueError, match="eigenvalue below"):
            mixture([(1.0, a, self.P)], (2,) * 4)

    def test_rejects_empty_term_list(self):
        with pytest.raises(ValueError, match="at least one term"):
            mixture([], (2,) * 4)

    @pytest.mark.parametrize("rho", [np.eye(16) / 16, Mat(np.eye(16) / 16, (2,) * 4),
                                     DensityOperator(Mat(np.eye(16) / 16, (2,) * 4)),
                                     ((1.0, P, P),), []])
    def test_rejects_nested_term_that_is_not_a_density_operator(self, rho):
        # a nested term is a non-empty list of terms; no state stands in for one
        for terms in ([(1.0, rho)], [(0.5, self.P, self.P), (0.5, [(1.0, rho)])]):
            with pytest.raises(ValueError, match="needs a non-empty list of terms"):
                mixture(terms, (2,) * 4)

    def test_no_full_size_copy_or_temporary(self):
        # a fully dense term takes the broadcast: the sum and the one term
        # buffer are the only full-size arrays
        a = np.full((32, 32), 1 / 32)
        tracemalloc.start()
        try:
            state = mixture([(0.5, a, a), (0.5, a, a)], (2,) * 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * state.data.nbytes

    def test_bh6_build_peak_below_two_and_a_half_states(self):
        # scattered terms need no term buffer: the sum and the nested paired
        # sum are the only full-size arrays
        bh_network(6)  # warm every cache first
        tracemalloc.start()
        try:
            state = bh_network(6).state
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * state.data.nbytes

    @pytest.mark.parametrize("d", [4, 6])
    def test_bh_checks_the_structure_once(self, d, monkeypatch):
        # the paired terms are nested: no intermediate state is built or checked
        checked, real = [], tensor._check_structure
        monkeypatch.setattr(tensor, "_check_structure", lambda m: checked.append(m) or real(m))
        state = bh_network(d).state
        assert len(checked) == 1 and checked[0] is state.mat

    def test_still_checks_the_trace_of_the_sum(self):
        with pytest.raises(ValueError, match="trace"):
            mixture([(0.5, self.P, self.P)], (2,) * 4)

    def test_decomposable_lambda_below_spectral_radius(self):
        radius = float(np.max(np.abs(
            np.linalg.eigvalsh(partial_transpose(Q3.mat, {1}).data))))
        assert radius * 9 > 1 / 0.9
        with pytest.raises(ValueError, match="eigenvalue below"):
            decomposable_network(Q3, lam=0.9 * radius)


def test_builds_decompose_no_matrix_larger_than_a_factor(monkeypatch):
    sides = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _real=real, **kwargs):
            sides.append(np.shape(a)[-1])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    cl4 = graphs.cl4_graph()
    for build, factor_side in [
        (lambda: bh_network(4), 16),
        (lambda: pbd_network((0.4, 0.3, 0.2, 0.1)), 16),
        (lambda: graphs.graph_network(cl4, graphs.CL4_LABELS), 16),
    ]:
        sides.clear()
        build()
        assert sides, "the per-term certificate made no eigensolve"
        assert max(sides) <= factor_side

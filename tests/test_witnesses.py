from fractions import Fraction

import numpy as np
import pytest

from netwitness import bell, witnesses
from netwitness.networks import pbd_network
from netwitness.states import find_choi_detected_ppt, random_state
from netwitness.tensor import Mat, density, partial_transpose
from netwitness.witnesses import (
    Witness,
    _bell_diagonal_matrix,
    bell_diagonal_witness,
    breuer_hall_witness,
    choi_witness,
    cyclic_inequality_check,
    decomposable_witness,
    reduction_witness,
    sep_floor_estimate,
    two_qubit_pt_witness,
)


class TestTwoQubitWitness:
    def test_detects_psi_minus(self):
        w = two_qubit_pt_witness()
        psi = bell.bell_ket(2, 1, 1)
        assert np.isclose(w.expectation(density(np.outer(psi, psi.conj()), (2, 2))), -0.5)

    def test_maximally_mixed_value(self):
        w = two_qubit_pt_witness()
        assert np.isclose(w.expectation(density(np.eye(4) / 4, (2, 2))), 0.25)

    def test_eigenvalues(self):
        vals = np.linalg.eigvalsh(two_qubit_pt_witness().mat.data)
        assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_equals_pt_of_phi_plus(self):
        w = two_qubit_pt_witness()
        pt = partial_transpose(bell.bell_projector(2, 0, 0), {1})
        assert np.max(np.abs(w.mat.data - pt.data)) <= 1e-12

    def test_eta(self):
        assert two_qubit_pt_witness().eta == 0.5


class TestDecomposableWitness:
    def test_flip_case(self):
        d = 2
        w = decomposable_witness(density(bell.bell_projector(d, 0, 0).data, (d, d)))
        f = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]  # F|i,j> = |j,i>
        assert np.max(np.abs(w.mat.data - f / d)) <= 1e-12
        assert w.eta == 0.5

    def test_rejects_maximally_mixed_q(self):
        q = density(np.eye(9) / 9, (3, 3))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            decomposable_witness(q)

    def test_random_entangled_pure_q_has_negative_eigenvalue(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v /= np.linalg.norm(v)
        w = decomposable_witness(density(np.outer(v, v.conj()), (3, 3)))
        assert np.linalg.eigvalsh(w.mat.data)[0] < 0

    def test_adjoint_of_partial_transpose(self):
        # tr[W rho] = tr[Q rho^PT] for random rho
        rng_seeds = range(5)
        q = random_state((3, 3), rng_seed=77, rank=1)
        w = decomposable_witness(q)
        for seed in rng_seeds:
            rho = random_state((3, 3), rng_seed=seed)
            lhs = w.expectation(rho)
            rhs = np.real(np.trace(q.data @ partial_transpose(rho.mat, {1}).data))
            assert abs(lhs - rhs) <= 1e-10


class TestBellDiagonalWitness:
    def test_choi_matrix(self):
        w = choi_witness()
        # Pi_s = sum_t P_st, from its definition
        row = [sum(bell.bell_projector(3, s, t).data for t in range(3)) for s in range(3)]
        expect = 2 / 3 * row[0] + 1 / 3 * row[1] - bell.bell_projector(3, 0, 0).data
        assert np.max(np.abs(w.mat.data - expect)) <= 1e-12
        assert np.isclose(w.eta, 2 / 3)

    def test_uniform_equals_reduction(self):
        d = 3
        w = reduction_witness(d)
        expect = np.eye(9) / 3 - bell.bell_projector(3, 0, 0).data
        assert np.max(np.abs(w.mat.data - expect)) <= 1e-12

    def test_choi_on_maximally_mixed(self):
        w = choi_witness()
        assert np.isclose(w.expectation(density(np.eye(9) / 9, (3, 3))), 2 / 9)

    def test_expectation_formula(self):
        # tr[W(lam) rho] = sum_s lam_s q_s - p_00 for rho = sum_st p_st P_st,
        # with q_s the row sums of p
        rng = np.random.default_rng(5)
        w = choi_witness()
        lam = np.array(w.lambda_vec)
        for _ in range(10):
            p = rng.random((3, 3))
            p /= p.sum()
            rho = density(sum(p[s, t] * bell.bell_projector(3, s, t).data
                              for s in range(3) for t in range(3)), (3, 3))
            formula = float(lam @ p.sum(axis=1) - p[0, 0])
            assert abs(w.expectation(rho) - formula) <= 1e-12

    def test_transpose_invariant(self):
        w = bell_diagonal_witness((0.5, 0.3, 0.2))
        assert np.max(np.abs(w.mat.data - w.mat.data.T)) <= 1e-12

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError, match="cyclic"):
            bell_diagonal_witness((0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="sum to 1"):
            bell_diagonal_witness((0.5, 0.2))
        with pytest.raises(ValueError, match="non-negative"):
            bell_diagonal_witness((1.2, -0.2))

    @pytest.mark.parametrize("lam", [(float("nan"), 0.5, 0.5), (0.5, float("inf"), 0.5)])
    def test_non_finite_lambda_rejected(self, lam):
        for build in (bell_diagonal_witness, cyclic_inequality_check, pbd_network):
            with pytest.raises(ValueError, match="must be finite"):
                build(lam)


def _bell_diagonal_loop(lam):
    """sum_s lambda_s Pi_s - P_00 summed term by term, each Pi_s a full d^2 x d^2
    matrix with ones at |j, j+s>."""
    d = len(lam)
    m = -bell.bell_projector(d, 0, 0).data
    for s in range(d):
        pi = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            pi[j * d + (j + s) % d, j * d + (j + s) % d] = 1.0
        m = m + lam[s] * pi
    return Mat(m, (d, d)).data


@pytest.mark.parametrize("d", range(2, 9))
def test_closed_form_matches_the_row_projector_sum_bit_for_bit(d):
    # signed zeros included: a -0.0 weight must give the +0.0 that the sum
    # gives once any weight is positive, as in every lambda that sums to 1
    rng = np.random.default_rng(60 + d)
    cases = [(1 / d,) * d, (1.0,) + (0.0,) * (d - 1), (1.0,) + (-0.0,) * (d - 1)]
    cases += [(2 / 3, 1 / 3, 0.0), (2 / 3, -0.0, 1 / 3)] if d == 3 else []
    for _ in range(20):
        lam = rng.random(d)
        zero = rng.random(d) < 0.4
        zero[rng.integers(d)] = False
        lam[zero] = rng.choice([0.0, -0.0], zero.sum())
        cases.append(tuple(lam / lam.sum()))
    for lam in cases:
        got = _bell_diagonal_matrix(lam).data
        assert np.array_equal(got.view(np.uint64), _bell_diagonal_loop(lam).view(np.uint64)), lam


def _choi_map_margin(lam):
    """9 lambda_1 lambda_2 - (2 - 3 lambda_0)^2, exact for Fraction input."""
    return 9 * lam[1] * lam[2] - (2 - 3 * lam[0]) ** 2


class TestExactRuleAtSmallDimension:
    # d = 2: a witness iff lambda_0 >= 1/2; d = 3: iff lambda_0 >= 1/3 and
    # (lambda_0 >= 2/3 or 9 lambda_1 lambda_2 >= (2 - 3 lambda_0)^2)
    MISSED_LAMBDA = (Fraction(4, 7), Fraction(5, 224), Fraction(13, 32))

    @pytest.mark.parametrize("lam", [
        (Fraction(22, 39), Fraction(16, 39), Fraction(1, 39)),
        (Fraction(23, 39), Fraction(5, 13), Fraction(1, 39)),
        (Fraction(1, 3),) * 3,
        (Fraction(2, 3), Fraction(1, 3), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
    ], ids=["boundary", "inside", "reduction", "choi", "smolin"])
    def test_accepted(self, lam):
        w = bell_diagonal_witness(lam)
        assert w.lambda_vec == tuple(float(x) for x in lam)

    def test_boundary_point_sits_exactly_on_the_boundary(self):
        assert _choi_map_margin((Fraction(22, 39), Fraction(16, 39), Fraction(1, 39))) == 0
        assert _choi_map_margin((Fraction(23, 39), Fraction(5, 13), Fraction(1, 39))) > 0

    def test_sampled_falsifier_misses_a_non_witness(self):
        # the default falsifier accepts this lambda; the exact rule and the seesaw do not
        lam = self.MISSED_LAMBDA
        assert _choi_map_margin(lam) == Fraction(-1, 50176)
        assert cyclic_inequality_check(lam, trials=2000, rng_seed=7).passed
        assert sep_floor_estimate(_bell_diagonal_matrix(tuple(map(float, lam)))) < -3e-6
        with pytest.raises(ValueError, match="cyclic inequality violated"):
            bell_diagonal_witness(lam)

    def test_rejected_just_below_one_half_at_d2(self):
        with pytest.raises(ValueError, match="cyclic inequality violated"):
            bell_diagonal_witness((0.5 - 1e-6, 0.5 + 1e-6))

    def test_falsifier_runs_only_at_d_ge_4(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the falsifier ran")
        monkeypatch.setattr(witnesses, "cyclic_inequality_check", fail)
        choi_witness()
        bell_diagonal_witness((0.7, 0.3))
        with pytest.raises(AssertionError, match="falsifier"):
            bell_diagonal_witness((0.4, 0.3, 0.2, 0.1))

    def test_agrees_with_the_seesaw_on_a_grid(self):
        # every lambda of step 1/20; a floor within 1e-6 of zero decides nothing,
        # and every witness here touches zero on some product state. (1, 0, 0)
        # passes the rule but is refused as PSD, hence 68 of the rule's 69
        counts = {"valid": 0, "decided": 0}
        for i in range(21):
            for j in range(21 - i):
                lam = (Fraction(i, 20), Fraction(j, 20), Fraction(20 - i - j, 20))
                try:
                    bell_diagonal_witness(lam)
                    valid = True
                except ValueError:
                    valid = False
                floor = sep_floor_estimate(_bell_diagonal_matrix(tuple(map(float, lam))),
                                           restarts=16, rng_seed=0)
                if abs(floor) > 1e-6:
                    assert (floor > 0) == valid, (lam, floor)
                counts["valid"] += valid
                counts["decided"] += abs(floor) > 1e-6
        assert counts == {"valid": 68, "decided": 162}


class TestFourierModeAtLargerDimension:
    # f(x) = sum_k x_k / sum_s lambda_s x_{k-s} has curvature
    # 2 (|hat(w)|^2 - Re hat(w)) at x = (1, ..., 1) on Fourier mode w
    LAMBDA = (0.3867, 0.0737, 0.0729, 0.3641, 0.0401, 0.0625)

    @staticmethod
    def curvature(lam):
        hat = np.fft.fft(lam)
        return np.abs(hat) ** 2 - hat.real

    def test_positive_mode_gives_a_negative_product_value(self):
        lam = np.array(self.LAMBDA)
        curvature = self.curvature(lam)
        assert np.argmax(curvature) == 3 and abs(curvature[3] - 6.0e-4) < 1e-6
        # a real product vector along mode 3: x = 1 + t cos(pi k + phi),
        # a_k ~ sqrt(x_k), b_k ~ a_k / mu_k with mu_k = sum_j lambda_{k-j} x_j
        d, t, phi = len(lam), 0.3, 0.0
        k = np.arange(d)
        x = 1 + t * np.cos(np.pi * k + phi)
        a = np.sqrt(x)
        b = a / (lam[(k[:, None] - k) % d] @ x)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        value = v @ _bell_diagonal_matrix(self.LAMBDA).data.real @ v
        assert -9.1e-6 < value < -8.9e-6

    def test_refused_though_the_sampled_falsifier_misses_it(self):
        assert cyclic_inequality_check(self.LAMBDA, trials=2000, rng_seed=7).passed
        with pytest.raises(ValueError, match=r"cyclic inequality violated \(Fourier mode 3: "):
            bell_diagonal_witness(self.LAMBDA)

    @pytest.mark.parametrize("lam", [(0.25,) * 4, (0.5, 0.0, 0.5, 0.0)],
                             ids=["uniform", "alternating"])
    def test_flat_modes_still_build(self, lam):
        # certify's d = 4 vertices: every mode value is exactly 0 or negative
        assert max(self.curvature(lam)) == 0.0
        assert bell_diagonal_witness(lam).lambda_vec == lam


class TestCyclicInequality:
    def test_uniform_lambda_sits_on_the_bound(self):
        res = cyclic_inequality_check((1 / 3,) * 3, trials=200, rng_seed=1)
        assert res.passed
        assert abs(res.worst_value - 3.0) <= 1e-9

    def test_choi_passes_many_samples(self):
        res = cyclic_inequality_check((2 / 3, 1 / 3, 0.0), trials=10000, rng_seed=2)
        assert res.passed
        assert res.bound - res.worst_value >= -1e-9

    def test_basis_vector_blowup_fails(self):
        res = cyclic_inequality_check((0.0, 1.0, 0.0), trials=10, rng_seed=3)
        assert not res.passed
        assert np.isinf(res.worst_value)

    def test_small_lambda0_fails_via_basis_vector(self):
        # t = e_j makes the sum 1/lambda_0, so lambda_0 < 1/d must fail
        res = cyclic_inequality_check((0.2, 0.5, 0.3), trials=10, rng_seed=4)
        assert not res.passed
        assert res.worst_value >= 5.0 - 1e-9


def _cyclic_reference(lam, trials, rng_seed):
    """Per-candidate scalar loop: strict-> scan, stops at the first inf."""
    d = len(lam)
    rng = np.random.default_rng(rng_seed)
    candidates = [tuple(1.0 if i == j else 0.0 for i in range(d)) for j in range(d)]
    candidates.append((1.0,) * d)
    for _ in range(trials):
        candidates.append(tuple(rng.random(d)))
    worst_value, worst_t = -np.inf, candidates[0]
    for t in candidates:
        t_sq = [x * x for x in t]
        val = 0.0
        for j in range(d):
            den = sum(lam[s] * t_sq[(j + s) % d] for s in range(d))
            if den == 0.0:
                if t_sq[j] == 0.0:
                    continue
                val = float("inf")
                break
            val += t_sq[j] / den
        if val > worst_value:
            worst_value, worst_t = val, t
            if np.isinf(val):
                break
    return worst_value <= d + 1e-9, float(worst_value), worst_t


class TestCyclicReference:
    @pytest.mark.parametrize(
        "lam",
        [
            (0.5, 0.5),
            (0.7, 0.3),
            (1 / 3,) * 3,
            (2 / 3, 1 / 3, 0.0),
            (0.5, 0.3, 0.2),
            (0.25,) * 4,
            (0.75, 0.25, 0.0, 0.0),
            (0.5, 0.0, 0.5, 0.0),
            (0.2,) * 5,
            (0.4, 0.1, 0.2, 0.1, 0.2),
        ],
    )
    def test_matches_loop(self, lam):
        for seed in (0, 1, 7, 123):
            res = cyclic_inequality_check(lam, trials=500, rng_seed=seed)
            assert (res.passed, res.worst_value, res.worst_t) == _cyclic_reference(lam, 500, seed)

    def test_inf_case_matches_loop(self):
        for seed in (0, 3):
            res = cyclic_inequality_check((0.0, 1.0, 0.0), trials=50, rng_seed=seed)
            assert np.isinf(res.worst_value)
            assert (res.passed, res.worst_value, res.worst_t) == _cyclic_reference(
                (0.0, 1.0, 0.0), 50, seed
            )

    def test_corner_worst_matches_loop(self):
        # t = e_j gives 1/lambda_0 = 5, above every random candidate
        lam = (0.2, 0.5, 0.3)
        ref = _cyclic_reference(lam, 200, 4)
        assert ref[2] == (1.0, 0.0, 0.0)
        res = cyclic_inequality_check(lam, trials=200, rng_seed=4)
        assert (res.passed, res.worst_value, res.worst_t) == ref

    @pytest.mark.parametrize("lam", [(2 / 3, 1 / 3, 0.0), (0.2, 0.5, 0.3)])
    def test_worst_t_holds_python_floats(self, lam):
        res = cyclic_inequality_check(lam, trials=100, rng_seed=2)
        assert len(res.worst_t) == len(lam)
        assert all(type(x) is float for x in res.worst_t)


class TestBreuerHall:
    def test_requires_even_dimension_at_least_four(self):
        with pytest.raises(ValueError):
            breuer_hall_witness(3)
        with pytest.raises(ValueError):
            breuer_hall_witness(2)

    def test_trace_is_one(self):
        # tr F' = tr F = d (similarity transform), so
        # tr W = (d - 1 - 1)/(d - 2) = 1
        for d in (4, 6):
            w = breuer_hall_witness(d)
            assert np.isclose(np.trace(w.mat.data), 1.0, atol=1e-12)

    def test_hermitian_with_negative_eigenvalue(self):
        w = breuer_hall_witness(4)
        assert w.mat.hermiticity_defect() <= 1e-12
        assert np.linalg.eigvalsh(w.mat.data)[0] < -1e-6

    def test_nonnegative_on_separable_samples(self):
        # tr[W sigma] is linear in sigma, so the pure product states, the
        # extreme points of the separable set, are the samples to check
        w = breuer_hall_witness(4)
        rng = np.random.default_rng(0)
        for _ in range(180):
            a, b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert w.expectation(density(np.outer(v, v.conj()), (4, 4))) >= -1e-10


class TestWitnessValidation:
    def test_positive_matrix_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            Witness(Mat(np.eye(4) / 4, (2, 2)), "none", 0.5)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # an inf diagonal once passed both checks; a NaN failed the eigenvalue one
        with pytest.raises(ValueError, match="non-finite"):
            Witness(Mat(np.diag([bad, -1.0, 1.0, 1.0]), (2, 2)), "none", 0.5)

    def test_non_hermitian_rejected(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            Witness(Mat(m, (2, 2)), "none", 0.5)


def _seesaw_reference(mat, restarts=64, iters=200, rng_seed=0, tol=1e-10):
    """One restart at a time, each iterated until its value settles."""
    da, db = mat.dims
    t = mat.data.reshape(da, db, da, db)
    rng = np.random.default_rng(rng_seed)
    best = np.inf
    for _ in range(restarts):
        a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        prev = np.inf
        for _ in range(iters):
            mb = np.einsum("ikjl,k,l->ij", t, b.conj(), b, optimize=True)
            vals, vecs = np.linalg.eigh((mb + mb.conj().T) / 2)
            a = vecs[:, 0]
            ma = np.einsum("ikjl,i,j->kl", t, a.conj(), a, optimize=True)
            vals, vecs = np.linalg.eigh((ma + ma.conj().T) / 2)
            b = vecs[:, 0]
            val = float(vals[0])
            if abs(prev - val) < tol:
                break
            prev = val
        best = min(best, val)
    return best


def _random_hermitian(dims, seed):
    """Seeded Gaussian Hermitian operator on dims, as a Witness (it has a
    negative eigenvalue for these seeds)."""
    side = dims[0] * dims[1]
    g = np.random.default_rng(seed).standard_normal((side, side, 2)) @ [1, 1j]
    return Witness(Mat((g + g.conj().T) / 2, dims), "random", 0.0)


def _product_sample_min(mat, samples, rng_seed):
    """Smallest <a,b|W|a,b> over random unit product vectors."""
    da, db = mat.dims
    rng = np.random.default_rng(rng_seed)
    a = rng.standard_normal((samples, da)) + 1j * rng.standard_normal((samples, da))
    b = rng.standard_normal((samples, db)) + 1j * rng.standard_normal((samples, db))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    ab = (a[:, :, None] * b[:, None, :]).reshape(samples, da * db)
    return float(np.min(np.real(np.einsum("ni,ij,nj->n", ab.conj(), mat.data, ab))))


class TestSepFloor:
    def test_rejects_empty_search(self):
        w = two_qubit_pt_witness()
        with pytest.raises(ValueError, match="restarts"):
            sep_floor_estimate(w, restarts=0)
        with pytest.raises(ValueError, match="iters"):
            sep_floor_estimate(w, iters=0)

    @pytest.mark.parametrize(
        "factory",
        [
            choi_witness,
            lambda: reduction_witness(3),
            lambda: breuer_hall_witness(4),
            two_qubit_pt_witness,
            lambda: decomposable_witness(random_state((3, 3), rng_seed=11, rank=1)),
            lambda: _random_hermitian((2, 3), 21),
            lambda: _random_hermitian((3, 2), 22),
            lambda: _random_hermitian((2, 4), 23),
        ],
    )
    def test_matches_per_restart_loop(self, factory):
        w = factory()
        for seed in (0, 3):
            floor = sep_floor_estimate(w, rng_seed=seed)
            assert abs(floor - _seesaw_reference(w.mat, rng_seed=seed)) <= 1e-9

    @pytest.mark.parametrize(
        "factory",
        [
            choi_witness,
            lambda: breuer_hall_witness(4),
            lambda: _random_hermitian((2, 3), 21),
            lambda: _random_hermitian((3, 3), 24),
        ],
    )
    def test_anti_hermitian_part_does_not_move_the_floor(self, factory):
        # <a,b|W|a,b> sees only the Hermitian part of W, so a bare Mat with an
        # anti-Hermitian part added is seesawed on the same operator
        mat = factory().mat
        g = np.random.default_rng(5).standard_normal((mat.side, mat.side, 2)) @ [1, 1j]
        skewed = Mat(mat.data + 1e-3 * (g - g.conj().T) / 2, mat.dims)
        for seed in (0, 3):
            floor = sep_floor_estimate(mat, rng_seed=seed)
            assert abs(sep_floor_estimate(skewed, rng_seed=seed) - floor) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_below_random_product_states(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(3):
            g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            m = Mat((g + g.conj().T) / 2, (d, d))
            floor = sep_floor_estimate(m, restarts=16, rng_seed=1)
            assert floor <= _product_sample_min(m, 1024, int(rng.integers(2**31))) + 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_known_product_minimum(self, d):
        # 1 - 2|00><00| has <ab|.|ab> = 1 - 2|a_0 b_0|^2, minimum -1 at a = b = e_0
        m = np.eye(d * d, dtype=complex)
        m[0, 0] = -1.0
        floor = sep_floor_estimate(Mat(m, (d, d)), restarts=16, rng_seed=2)
        assert abs(floor + 1.0) <= 1e-9

    def test_constant_witness(self):
        floor = sep_floor_estimate(Mat(np.eye(4) / 4, (2, 2)), restarts=8, rng_seed=0)
        assert abs(floor - 0.25) <= 1e-9

    def test_two_qubit_floor_is_zero(self):
        floor = sep_floor_estimate(two_qubit_pt_witness(), restarts=64, rng_seed=0)
        assert floor >= -1e-6
        assert floor <= 1e-6

    def test_negative_projector_control(self):
        for d in (2, 3):
            m = Mat(-bell.bell_projector(d, 0, 0).data, (d, d))
            floor = sep_floor_estimate(m, restarts=32, rng_seed=1)
            assert floor <= -1 / d + 1e-6

    def test_deterministic_given_seed(self):
        w = choi_witness()
        a = sep_floor_estimate(w, restarts=8, rng_seed=5)
        b = sep_floor_estimate(w, restarts=8, rng_seed=5)
        assert a == b

    @pytest.mark.parametrize(
        "factory",
        [
            two_qubit_pt_witness,
            choi_witness,
            lambda: reduction_witness(3),
            lambda: breuer_hall_witness(4),
        ],
    )
    def test_witness_property_for_builtins(self, factory):
        assert sep_floor_estimate(factory(), restarts=64, rng_seed=3) >= -1e-6


@pytest.mark.parametrize("call, what", [
    (lambda: find_choi_detected_ppt(40.5), "resolution"),
    (lambda: cyclic_inequality_check((2 / 3, 1 / 3, 0.0), trials=2.5), "trials"),
    (lambda: sep_floor_estimate(choi_witness(), restarts=2.5), "restarts"),
    (lambda: sep_floor_estimate(choi_witness(), iters=3.0), "iters"),
], ids=["resolution", "trials", "restarts", "iters"])
def test_non_integer_count_rejected(call, what):
    with pytest.raises(ValueError, match=f"^{what} must be an integer, not "):
        call()

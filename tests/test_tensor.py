import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netwitness.tensor import (
    Mat,
    density,
    embed,
    hermitian_eigen,
    identity,
    kron,
    overlap,
    partial_trace,
    partial_transpose,
    proj,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_mat(dims, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    side = int(np.prod(dims))
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    if hermitian:
        m = (m + m.conj().T) / 2
    return Mat(m, dims)


def brute_partial_trace(m: Mat, keep):
    """Direct summation over traced indices; the independent oracle."""
    keep = sorted(keep)
    dims = m.dims
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    out_dims = [dims[i] for i in keep]
    side = int(np.prod(out_dims))
    out = np.zeros((side, side), dtype=complex)

    def unpack(flat, which):
        idx = []
        for d in reversed([dims[i] for i in which]):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    for r in range(side):
        for c in range(side):
            ridx, cidx = unpack(r, keep), unpack(c, keep)
            total = 0.0
            for tflat in range(int(np.prod([dims[i] for i in traced])) if traced else 1):
                tidx = unpack(tflat, traced)
                full_r = [0] * n
                full_c = [0] * n
                for pos, i in enumerate(keep):
                    full_r[i], full_c[i] = ridx[pos], cidx[pos]
                for pos, i in enumerate(traced):
                    full_r[i] = full_c[i] = tidx[pos]
                fr = fc = 0
                for i in range(n):
                    fr = fr * dims[i] + full_r[i]
                    fc = fc * dims[i] + full_c[i]
                total += m.data[fr, fc]
            out[r, c] = total
    return out


class TestMat:
    def test_dims_must_match_side(self):
        with pytest.raises(ValueError):
            Mat(np.eye(3), (2, 2))

    def test_dims_nonempty_and_at_least_two(self):
        with pytest.raises(ValueError):
            Mat(np.eye(1), ())
        with pytest.raises(ValueError):
            Mat(np.eye(2), (1, 2))

    def test_serialization_round_trip(self):
        m = random_mat((2, 3), seed=3)
        back = Mat.from_dict(m.to_dict())
        assert back.dims == m.dims
        assert np.array_equal(back.data, m.data)

    def test_data_read_only(self):
        m = identity((2,))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    @pytest.mark.parametrize("key", ["dims", "re", "im"])
    def test_from_dict_missing_key(self, key):
        obj = identity((2,)).to_dict()
        del obj[key]
        with pytest.raises(ValueError, match=f"missing key.*{key}"):
            Mat.from_dict(obj)

    @pytest.mark.parametrize("obj", [[1.0, 0.0], {"dims": 2, "re": [1, 0, 0, 1], "im": [0] * 4}])
    def test_from_dict_wrong_type(self, obj):
        with pytest.raises(ValueError, match="list|wrong type"):
            Mat.from_dict(obj)

    @pytest.mark.parametrize("dims", [[2.9, 2.2], ["2", "2"], [2.0, 2.0]])
    def test_from_dict_rejects_non_integer_dims(self, dims):
        obj = {"dims": dims, "re": np.eye(4).reshape(-1).tolist(), "im": [0.0] * 16}
        with pytest.raises(ValueError, match="integer"):
            Mat.from_dict(obj)

    @pytest.mark.parametrize("dims", [(2.9, 2.2), ("2", "2"), (2.0, 2)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(ValueError, match="integers"):
            Mat(np.eye(4), dims)

    def test_accepts_numpy_integer_dims(self):
        assert Mat(np.eye(4), (np.int64(2), np.int32(2))).dims == (2, 2)

    @pytest.mark.parametrize("dims", [(2, 3), (20, 20), (2, 3, 7, 7)])
    def test_hermiticity_defect_equals_dense_form(self, dims):
        # (20, 20) and (2, 3, 7, 7) span several row blocks of the check
        m = random_mat(dims, seed=5).data
        assert Mat(m, dims).hermiticity_defect() == float(np.max(np.abs(m - m.conj().T)))
        m = m.copy()
        m[-1, 0] = np.nan
        assert np.isnan(Mat(m, dims).hermiticity_defect())


class TestKron:
    def test_identity_case(self):
        out = kron(identity((2,)), identity((2,)))
        assert out.dims == (2, 2)
        assert np.array_equal(out.data, np.eye(4))

    def test_z_times_x_hand_values(self):
        out = kron(Mat(Z, (2,)), Mat(X, (2,)))
        assert out.data[0, 1] == 1
        assert out.data[2, 3] == -1
        assert out.data[1, 0] == 1
        assert out.data[3, 2] == -1

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_multiplicative(self, seed):
        a = random_mat((3,), seed)
        b = random_mat((3,), seed + 1)
        assert np.isclose(kron(a, b).trace(), a.trace() * b.trace(), atol=1e-12)


class TestPartialTrace:
    def test_bell_marginal(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        out = partial_trace(proj(phi, (2, 2)), keep={0})
        assert np.allclose(out.data, np.eye(2) / 2, atol=1e-12)

    def test_product_factorization(self):
        a = random_mat((2,), 11)
        b = random_mat((2,), 12)
        left = partial_trace(kron(a, b), keep={0})
        assert np.allclose(left.data, a.data * b.trace(), atol=1e-12)
        right = partial_trace(kron(a, b), keep={1})
        assert np.allclose(right.data, b.data * a.trace(), atol=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        m = Mat(g @ g.conj().T, (2, 3, 2))
        for keep in ({0}, {1}, {2}, {0, 2}, {1, 2}, {0, 1}):
            got = partial_trace(m, keep)
            want = brute_partial_trace(m, keep)
            assert np.max(np.abs(got.data - want)) <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_trace_preserved(self, seed):
        m = random_mat((2, 3, 2), seed, hermitian=True)
        out = partial_trace(m, keep={1})
        assert np.isclose(out.trace(), m.trace(), atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="at least one factor"):
            partial_trace(identity((2, 2)), keep=set())


class TestPartialTranspose:
    def test_p00_gives_half_swap(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        out = partial_transpose(proj(phi, (2, 2)), {1})
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.max(np.abs(out.data - swap / 2)) <= 1e-15

    def test_product_case(self):
        a = random_mat((2,), 21)
        b = random_mat((2,), 22)
        out = partial_transpose(kron(a, b), {1})
        assert np.array_equal(out.data, np.kron(a.data, b.data.T))

    def test_psi_minus_min_eigenvalue(self):
        psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
        pt = partial_transpose(proj(psi, (2, 2)), {1})
        vals = np.linalg.eigvalsh(pt.data)
        assert abs(vals[0] + 0.5) <= 1e-12

    @given(st.integers(0, 2**31 - 1), st.sampled_from([frozenset({0}), frozenset({1}), frozenset({0, 1})]))
    @settings(max_examples=25, deadline=None)
    def test_involution_and_trace_exact(self, seed, subset):
        m = random_mat((2, 3), seed, hermitian=True)
        pt = partial_transpose(m, subset)
        assert np.array_equal(partial_transpose(pt, subset).data, m.data)
        assert pt.trace() == m.trace()
        assert pt.hermiticity_defect() == 0.0


class TestHermitianEigen:
    def test_diagonal_case(self):
        vals, _ = hermitian_eigen(Mat(np.diag([3.0, 1.0, 2.0]), (3,)))
        assert np.allclose(vals, [1, 2, 3])

    def test_swap_spectrum_d3(self):
        # antisymmetric subspace has dimension d(d-1)/2 = 3 at d = 3
        swap = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                swap[i * 3 + j, j * 3 + i] = 1
        vals, _ = hermitian_eigen(Mat(swap, (3, 3)))
        assert np.allclose(vals[:3], -1, atol=1e-12)
        assert np.allclose(vals[3:], 1, atol=1e-12)

    def test_spectral_reconstruction(self):
        m = random_mat((4, 4), seed=5, hermitian=True)
        vals, vecs = hermitian_eigen(m)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - m.data)) <= 1e-9 * np.linalg.norm(m.data)

    def test_residuals_at_side_729(self):
        m = random_mat((3,) * 6, seed=9, hermitian=True)
        vals, vecs = hermitian_eigen(m)
        norm = np.linalg.norm(m.data, 2)
        resid = np.max(np.abs(m.data @ vecs - vecs * vals))
        assert resid <= 1e-9 * norm
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(729))) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigen(Mat(np.array([[0, 1], [0, 0]], dtype=complex), (2,)))


class TestEmbed:
    def test_single_site(self):
        out = embed(Mat(X, (2,)), [1], (2, 2))
        assert np.array_equal(out.data, np.kron(np.eye(2), X))

    def test_nonadjacent_placement_then_trace(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        big = embed(proj(phi, (2, 2)), [0, 2], (2, 2, 2))
        # tracing out the embedded pair leaves tr(P00) * identity on the middle site
        out = partial_trace(big, keep={1})
        assert np.allclose(out.data, np.eye(2), atol=1e-12)

    def test_reversed_targets_swap_factors(self):
        m = random_mat((2, 3), seed=31)
        fwd = embed(m, [0, 1], (2, 3))
        assert np.array_equal(fwd.data, m.data)
        rev = embed(Mat(m.data.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6), (3, 2)),
                    [1, 0], (2, 3))
        assert np.array_equal(rev.data, m.data)

    def test_homomorphism_on_shared_targets(self):
        a = random_mat((2,), 41)
        b = random_mat((2,), 42)
        ab = Mat(a.data @ b.data, (2,))
        lhs = embed(ab, [1], (2, 2, 2))
        rhs = Mat(embed(a, [1], (2, 2, 2)).data @ embed(b, [1], (2, 2, 2)).data, (2, 2, 2))
        assert np.allclose(lhs.data, rhs.data, atol=1e-12)

    def test_disjoint_embeds_commute_exactly(self):
        a = embed(random_mat((2,), 51), [0], (2, 2, 2)).data
        b = embed(random_mat((2,), 52), [2], (2, 2, 2)).data
        assert np.array_equal(a @ b, b @ a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed(Mat(X, (2,)), [0], (3, 2))


class TestOverlap:
    def test_values(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.isclose(overlap(phi, Mat(np.eye(4) / 4, (2, 2))), 0.25)
        assert np.isclose(overlap(phi, proj(phi, (2, 2))), 1.0)

    def test_real_for_hermitian(self):
        m = random_mat((2, 2), seed=61, hermitian=True)
        rng = np.random.default_rng(62)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        assert abs(overlap(v, m).imag) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap(np.ones(3), identity((2, 2)))


class TestDensityOperator:
    def test_accepts_valid(self):
        d = density(np.eye(4) / 4, (2, 2))
        assert np.isclose(np.trace(d.data), 1.0)

    def test_rejects_nonunit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            density(np.eye(4), (2, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            density(np.diag([1.5, -0.5, 0, 0]), (2, 2))

    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            density(m, (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4) / 4
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            density(m, (2, 2))


class TestNonIntegerArguments:
    """Factor indices and dims go through operator.index: a float is an error,
    never truncated to the factor it rounds down to."""

    @pytest.mark.parametrize("dims", [[2.9], [2, 2.0], ["2"]])
    def test_identity(self, dims):
        with pytest.raises(ValueError, match="integers"):
            identity(dims)

    @pytest.mark.parametrize("subset", [[1.7], [0, 1.0]])
    def test_partial_transpose(self, subset):
        with pytest.raises(ValueError, match="integers"):
            partial_transpose(random_mat((2, 2), 0), subset)

    @pytest.mark.parametrize("keep", [[0.9], [1.0]])
    def test_partial_trace(self, keep):
        with pytest.raises(ValueError, match="integers"):
            partial_trace(random_mat((2, 2), 0), keep)

    @pytest.mark.parametrize("targets,full_dims", [([0.5], [2, 2]), ([0], [2, 2.7]),
                                                   ([0.5], [2, 2.7])])
    def test_embed(self, targets, full_dims):
        with pytest.raises(ValueError, match="integers"):
            embed(Mat(X, (2,)), targets, full_dims)

    def test_numpy_integers_still_accepted(self):
        m = random_mat((2, 3), 1)
        assert identity((np.int64(2),)).dims == (2,)
        assert partial_trace(m, [np.int32(1)]).dims == (3,)
        assert np.array_equal(partial_transpose(m, {np.int64(0)}).data,
                              partial_transpose(m, {0}).data)
        assert embed(Mat(X, (2,)), [np.int64(1)], (np.int64(3), 2)).dims == (3, 2)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netwitness import bell
from netwitness.tensor import Mat, partial_transpose


def test_bell_ket_d2_phi_plus():
    v = bell.bell_ket(2, 0, 0)
    assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_bell_ket_d2_psi_minus():
    # s=1 shifts the second ket, t=1 puts the minus sign on j=1
    v = bell.bell_ket(2, 1, 1)
    assert np.allclose(v, np.array([0, 1, -1, 0]) / np.sqrt(2))


def test_gram_matrix_d3():
    kets = [bell.bell_ket(3, s, t) for s in range(3) for t in range(3)]
    gram = np.array([[ki.conj() @ kj for kj in kets] for ki in kets])
    assert np.max(np.abs(gram - np.eye(9))) <= 1e-12


def test_index_validation():
    with pytest.raises(ValueError):
        bell.bell_ket(3, 3, 0)
    with pytest.raises(ValueError):
        bell.bell_ket(3, 0, -1)


@pytest.mark.parametrize("d", [0, 1, -2])
def test_dimension_checked_before_the_range(d):
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        bell.bell_ket(d)


@pytest.mark.parametrize("call", [
    lambda: bell.bell_ket(3, 1.5, 0),
    lambda: bell.bell_ket(3, 0, 2.0),
    lambda: bell.bell_ket(3.0),
    lambda: bell.bell_basis(3.0),
    lambda: bell.twisted_flip(4.0),
], ids=["s", "t", "ket-d", "basis-d", "twisted-flip-d"])
def test_float_arguments_rejected(call):
    # the d = 3 and d = 4 tables are cached first: 3.0 == 3 must not find them
    bell.bell_basis(3)
    bell.bell_basis(4)
    with pytest.raises(ValueError, match="must be .*integer"):
        call()


def test_numpy_integer_arguments_accepted():
    v = bell.bell_ket(np.int64(3), np.int64(1), np.int32(2))
    assert v.tobytes() == bell.bell_ket(3, 1, 2).tobytes()
    assert np.array_equal(bell.twisted_flip(np.int64(4)).data, bell.twisted_flip(4).data)


def scalar_bell_ket(d, s, t):
    """The oracle: d^{-1/2} sum_j omega^{tj} |j>|j+s mod d>, one entry at a time."""
    v = np.zeros(d * d, dtype=complex)
    for j in range(d):
        v[j * d + (j + s) % d] = np.exp(2j * np.pi * t * j / d)
    return v / np.sqrt(d)


class TestBellBasis:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_rows_are_the_scalar_formula_bit_for_bit(self, d):
        expect = np.array([scalar_bell_ket(d, s, t) for s in range(d) for t in range(d)])
        table = bell.bell_basis(d)
        assert table.dtype == complex and table.shape == (d * d, d * d)
        assert table.tobytes() == expect.tobytes()

    def test_read_only_and_cached(self):
        table = bell.bell_basis(3)
        assert table is bell.bell_basis(3)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
        assert not bell.bell_ket(3, 1, 2).flags.writeable

    def test_ket_is_the_table_row(self):
        d, table = 4, bell.bell_basis(4)
        for s in range(d):
            for t in range(d):
                assert bell.bell_ket(d, s, t).tobytes() == table[s * d + t].tobytes()

    def test_row_outer_products_are_the_projectors(self):
        # the Choi scan's nine P_st, s-major, have the bits of bell_projector
        stack = [np.outer(v, v.conj()) for v in bell.bell_basis(3)]
        expect = [bell.bell_projector(3, s, t).data for s in range(3) for t in range(3)]
        assert [p.tobytes() for p in stack] == [p.tobytes() for p in expect]


def test_projector_is_rank_one_idempotent():
    p = bell.bell_projector(3, 1, 2)
    assert np.allclose(p.data @ p.data, p.data, atol=1e-12)
    assert np.isclose(np.trace(p.data), 1.0)


def test_projectors_orthogonal():
    p = bell.bell_projector(2, 0, 1)
    q = bell.bell_projector(2, 1, 0)
    assert np.max(np.abs(p.data @ q.data)) <= 1e-12


def row_projector(d, s):
    """Pi_s = sum_j |j,j+s><j,j+s|, the diagonal form of sum_t P_st."""
    m = np.zeros((d * d, d * d))
    for j in range(d):
        k = j * d + (j + s) % d
        m[k, k] = 1.0
    return m


def test_row_projector_trace_and_rank():
    pi0 = row_projector(3, 0)
    assert np.isclose(np.trace(pi0), 3.0)
    assert np.allclose(pi0 @ pi0, pi0, atol=1e-12)


def test_row_projector_orthogonal_to_phi00():
    phi = bell.bell_ket(3, 0, 0)
    val = phi.conj() @ row_projector(3, 1) @ phi
    assert abs(val) <= 1e-12


def test_row_projector_matches_bell_sum():
    for d in (2, 3, 4):
        for s in range(d):
            total = sum(bell.bell_projector(d, s, t).data for t in range(d))
            assert np.max(np.abs(total - row_projector(d, s))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_completeness(d):
    total = sum(row_projector(d, s) for s in range(d))
    assert np.max(np.abs(total - np.eye(d * d))) <= 1e-12


@given(st.integers(2, 5))
@settings(max_examples=4, deadline=None)
def test_transpose_maps_t_to_minus_t(d):
    for s in range(d):
        for t in range(d):
            pt = bell.bell_projector(d, s, t).data.T
            other = bell.bell_projector(d, s, (-t) % d).data
            assert np.max(np.abs(pt - other)) <= 1e-12


def flip(d):
    """Swap operator F|i,j> = |j,i>: the reference that the twisted flip conjugates."""
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0
    return m


def skew(d):
    """Real unitary with U^T = -U, a direct sum of 2x2 blocks [[0,1],[-1,0]].

    Acts on basis kets as U|2m> = -|2m+1>, U|2m+1> = |2m>.
    """
    u = np.zeros((d, d))
    for m in range(d // 2):
        u[2 * m, 2 * m + 1] = 1.0
        u[2 * m + 1, 2 * m] = -1.0
    return u


class TestFlip:
    def test_action_on_basis(self):
        f = flip(3)
        for i in range(3):
            for j in range(3):
                v = np.zeros(9)
                v[i * 3 + j] = 1
                out = f @ v
                assert out[j * 3 + i] == 1

    def test_squares_to_identity(self):
        f = flip(4)
        assert np.array_equal(f @ f, np.eye(16))

    def test_equals_d_times_pt_of_p00(self):
        for d in (2, 3, 4):
            lhs = flip(d)
            rhs = d * partial_transpose(bell.bell_projector(d, 0, 0), {1}).data
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_sym_antisym_traces(self):
        # tr F = d: the symmetric and antisymmetric projectors (1 +/- F)/2
        # have traces d(d+1)/2 and d(d-1)/2
        for d in (2, 3, 4):
            assert np.trace(flip(d)) == d

    def test_projectors_orthogonal_and_complete(self):
        f = flip(3)
        s, a = (np.eye(9) + f) / 2, (np.eye(9) - f) / 2
        assert np.max(np.abs(s @ a)) <= 1e-12
        assert np.allclose(s + a, np.eye(9))

    def test_eigen_split_matches_projectors(self):
        f = flip(3)
        vals, vecs = np.linalg.eigh(f)
        minus = vecs[:, vals < 0]
        plus = vecs[:, vals > 0]
        assert np.allclose(minus @ minus.conj().T, (np.eye(9) - f) / 2, atol=1e-10)
        assert np.allclose(plus @ plus.conj().T, (np.eye(9) + f) / 2, atol=1e-10)


class TestSkewUnitary:
    def test_block_action(self):
        u = skew(4)
        e0, e1 = np.eye(4)[0], np.eye(4)[1]
        assert np.array_equal(u @ e0, -e1)
        assert np.array_equal(u @ e1, e0)

    def test_exactly_skew_and_unitary(self):
        for d in (2, 4, 6):
            u = skew(d)
            assert np.array_equal(u.T, -u)
            assert np.allclose(u @ u.conj().T, np.eye(d))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            bell.twisted_flip(3)

    @pytest.mark.parametrize("d", [2, 4, 6, 8, 10])
    def test_twisted_flip_is_the_conjugated_flip_bit_for_bit(self, d):
        # the signed permutation keeps every bit of (1 (x) U) F (1 (x) U^dag),
        # signed zeros included
        iu = np.kron(np.eye(d), skew(d))
        expect = Mat(iu @ flip(d) @ iu.conj().T, (d, d)).data
        assert np.array_equal(bell.twisted_flip(d).data.view(np.uint64), expect.view(np.uint64))

    def test_twisted_flip_involution_and_spectrum(self):
        fp = bell.twisted_flip(4)
        assert fp.hermiticity_defect() <= 1e-12
        assert np.allclose(fp.data @ fp.data, np.eye(16), atol=1e-12)
        vals = np.linalg.eigvalsh(fp.data)
        assert np.allclose(np.abs(vals), 1.0, atol=1e-12)

    def test_twisted_flip_trace_equals_d(self):
        # similarity transform of the flip: the trace stays d, and the
        # twisted flip is transpose-invariant for the real block U
        for d in (4, 6):
            fp = bell.twisted_flip(d)
            assert np.isclose(np.trace(fp.data), d)
            assert np.max(np.abs(fp.data - fp.data.T)) <= 1e-12


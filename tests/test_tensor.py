import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netwitness import bell, cli, graphs, networks, tensor
from netwitness.states import random_state
from netwitness.tensor import (
    Mat,
    _pt_shift,
    _pt_source,
    density,
    hermitian_part,
    mixture,
    pairing,
    partial_transpose,
)


def random_mat(dims, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    side = int(np.prod(dims))
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    if hermitian:
        m = (m + m.conj().T) / 2
    return Mat(m, dims)


def axes_swap_pt(m: np.ndarray, dims, subset) -> np.ndarray:
    """Partial transpose of the (stacked) matrices m by swapping each chosen
    factor's row and column axis of the reshaped tensor: the independent oracle."""
    n, lead = len(dims), m.ndim - 2
    axes = list(range(2 * n))
    for i in subset:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    t = m.reshape(m.shape[:lead] + tuple(dims) * 2)
    return t.transpose(list(range(lead)) + [a + lead for a in axes]).reshape(m.shape)


class TestMat:
    def test_dims_must_match_side(self):
        with pytest.raises(ValueError):
            Mat(np.eye(3), (2, 2))

    def test_dims_whose_product_overflows_int64(self):
        # 2**32 * 2**32 wraps to 0 in int64, which once let an empty matrix through
        with pytest.raises(ValueError, match="does not match dims"):
            Mat(np.zeros((0, 0)), (2**32, 2**32))

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
        m = Mat(np.eye(2), (2,))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    @pytest.mark.parametrize("key", ["dims", "re", "im"])
    def test_from_dict_missing_key(self, key):
        obj = Mat(np.eye(2), (2,)).to_dict()
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

    @pytest.mark.parametrize("obj, message", [
        ({"dims": [2, 2], "re": [0.25], "im": [0.0] * 16}, r"field re must list .* 16 numbers"),
        # a one-entry im once broadcast onto every entry
        ({"dims": [2, 2], "re": [0.25] * 16, "im": [0.0]}, r"field im must list .* 16 numbers"),
        ({"dims": [2, True], "re": [0.25] * 4, "im": [0.0] * 4}, "dims must hold integers"),
        ({"dims": [2**32, 2**32], "re": [], "im": []}, rf"field re must list .* {2**128} numbers"),
    ], ids=["short-re", "short-im", "boolean-dims", "overflowing-dims"])
    def test_from_dict_names_the_malformed_field(self, obj, message):
        with pytest.raises(ValueError, match=message):
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


class TestPartialTranspose:
    def test_p00_gives_half_swap(self):
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        out = partial_transpose(Mat(np.outer(phi, phi), (2, 2)), {1})
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.max(np.abs(out.data - swap / 2)) <= 1e-15

    def test_product_case(self):
        a = random_mat((2,), 21)
        b = random_mat((2,), 22)
        out = partial_transpose(Mat(np.kron(a.data, b.data), (2, 2)), {1})
        assert np.array_equal(out.data, np.kron(a.data, b.data.T))

    def test_psi_minus_min_eigenvalue(self):
        psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
        pt = partial_transpose(Mat(np.outer(psi, psi), (2, 2)), {1})
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


class TestPartialTransposeMap:
    """The one partial-transpose index map, shared by ``partial_transpose``,
    ``networks.ppt_report`` and the Choi scan."""

    @pytest.mark.parametrize("subset", [c for r in range(5)
                                        for c in itertools.combinations(range(4), r)],
                             ids=lambda c: "-".join(map(str, c)) or "none")
    def test_matches_axes_swap_on_every_subset(self, subset):
        dims = (2, 3, 2, 3)
        m = random_mat(dims, seed=sum(2**i for i in subset)).data
        idx = np.arange(36)
        want = axes_swap_pt(m, dims, subset).tobytes()
        assert m[_pt_source(dims, subset, idx[:, None], idx)].tobytes() == want
        assert partial_transpose(Mat(m, dims), subset).data.tobytes() == want

    def test_matches_axes_swap_on_a_stack(self):
        # the scan's use: one (9, 9) index pair gathers a whole (n, 9, 9) stack
        rng = np.random.default_rng(3)
        m = rng.standard_normal((7, 9, 9)) + 1j * rng.standard_normal((7, 9, 9))
        idx = np.arange(9)
        rows, cols = _pt_source((3, 3), {1}, idx[:, None], idx)
        assert m[:, rows, cols].tobytes() == axes_swap_pt(m, (3, 3), {1}).tobytes()

    def test_shift_cached_and_read_only(self):
        s = _pt_shift((2, 3, 2, 3), frozenset({1, 3}))
        assert _pt_shift((2, 3, 2, 3), frozenset({3, 1})) is s
        assert not s.flags.writeable


class TestHermitianPart:
    def test_matrix_and_stack(self):
        m = random_mat((2, 3), 2).data
        assert hermitian_part(m).tobytes() == ((m + m.conj().T) / 2).tobytes()
        stack = np.stack([m, 3 * m.T])
        got = hermitian_part(stack)
        assert all(got[i].tobytes() == hermitian_part(stack[i]).tobytes() for i in range(2))


class TestPairing:
    def test_equals_dense_sum_bit_for_bit(self):
        rng = np.random.default_rng(3)
        kets = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0].T
        weights = (0.4, 0.3, 0.2, 0.1)
        expect = np.zeros((16, 16), dtype=complex)
        for c, v in zip(weights, kets):
            p = np.outer(v, v.conj())
            expect += c * np.kron(p, p)
        terms = pairing(zip(weights, kets))
        assert [(c, a is b) for c, a, b in terms] == [(c, True) for c in weights]
        got = mixture(terms, (2,) * 4)
        assert got.dims == (2,) * 4
        assert got.data.tobytes() == expect.tobytes()


def kron_sum(terms):
    """The dense oracle of ``mixture``: 0 + sum(c * np.kron(A, B)), with
    c * kron_sum(nested) for a (c, [terms]) term, added in order."""
    return 0 + sum(c * (np.kron(*f) if len(f) == 2 else kron_sum(f[0])) for c, *f in terms)


def random_factor(side, seed):
    """A fully dense random Hermitian PSD matrix of unit trace."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m = hermitian_part(g @ g.conj().T)
    return m / np.trace(m).real


@pytest.fixture
def branches(monkeypatch):
    """Every scatter (True) or broadcast (False) choice of ``mixture``, in order."""
    seen, real = [], tensor._scatters

    def spy(nnz, side):
        seen.append(real(nnz, side))
        return seen[-1]

    monkeypatch.setattr(tensor, "_scatters", spy)
    return seen


class TestMixtureBranches:
    """Both ways of adding a term give the bits of the dense Kronecker sum."""

    def test_signed_zero_entries_scatter(self, branches):
        a = np.diag([0.5, 0.25, 0.25, -0.0])
        a[0, 1] = a[1, 0] = -0.0
        b = np.zeros((4, 4), dtype=complex)
        b[:2, :2] = [[0.5, 0.1j], [-0.1j, 0.5]]
        b[2, 3] = b[3, 2] = complex(-0.0, -0.0)
        got = mixture([(1.0, a, b)], (4, 4))
        assert branches == [True]
        assert got.data.tobytes() == kron_sum([(1.0, a, b)]).tobytes()
        # the skipped products include -0.0 ones, and none of them shows
        assert np.signbit(np.kron(a, b).real[np.kron(a, b) == 0]).any()
        zeros = got.data[got.data == 0]
        assert not (np.signbit(zeros.real).any() or np.signbit(zeros.imag).any())

    def test_dense_random_term_broadcasts(self, branches):
        terms = [(1.0, random_factor(9, 1), random_factor(9, 2))]
        got = mixture(terms, (3,) * 4)
        assert branches == [False]
        assert got.data.tobytes() == kron_sum(terms).tobytes()

    def test_mixed_branches_with_nested_terms(self, branches):
        p00 = bell.bell_projector(3, 0, 0).data
        choi_pairs = pairing((lam / 3, bell.bell_ket(3, s, t))
                             for s, lam in enumerate((2 / 3, 1 / 3)) for t in range(3))
        terms = [
            (0.2, random_factor(9, 3), random_factor(9, 4)),
            (0.1, p00, np.diag([0.5, 0, 0, 0, 0.5, 0, 0, 0, -0.0])),
            (0.3, choi_pairs),
            (0.4, [(0.5, random_factor(9, 5), p00),
                   (0.5, [(1.0, random_factor(9, 6), random_factor(9, 7))])]),
        ]
        got = mixture(terms, (3,) * 4)
        # a nested list adds its own terms' branches in order, then one broadcast
        assert branches == [False, True] + [True] * 6 + [False, False]
        assert got.data.tobytes() == kron_sum(terms).tobytes()
        assert got.data.tobytes() == (
            0 + 0.2 * np.kron(random_factor(9, 3), random_factor(9, 4))
            + 0.1 * np.kron(p00, np.diag([0.5, 0, 0, 0, 0.5, 0, 0, 0, -0.0]))
            + 0.3 * networks.choi_network().state.data
            + 0.4 * kron_sum(terms[3][1])).tobytes()

    def test_nested_term_with_signed_zeros(self, branches):
        # -0.0 entries in nested factors, scattered and broadcast, leave the
        # bits of 0 + c * (0 + sum c_i kron(A_i, B_i)) + ...
        a = np.diag([0.5, -0.0, 0.5, -0.0])
        a[1, 3] = a[3, 1] = -0.0
        b = np.full((4, 4), 1 / 8, dtype=complex) + np.eye(4) / 8
        b[0, 1] = b[2, 3] = complex(1 / 8, -0.0)
        nested = [(0.5, a, a), (0.5, [(1.0, b, a)]), (0.0, b, b)]
        terms = [(0.25, [(1.0, a, b)]), (0.75, nested)]
        got = mixture(terms, (4, 4))
        assert branches == [False, True, False, False]
        expect = 0 + 0.25 * (0 + 1.0 * np.kron(a, b)) + 0.75 * (
            0 + 0.5 * np.kron(a, a) + 0.5 * (0 + 1.0 * np.kron(b, a)) + 0.0 * np.kron(b, b))
        assert got.data.tobytes() == expect.tobytes() == kron_sum(terms).tobytes()
        assert np.signbit(np.kron(a, b).real[np.kron(a, b) == 0]).any()


class TestMixtureBoundary:
    """A term that does not fit the state is refused before any term is added."""

    P = bell.bell_projector(2, 0, 0).data

    @staticmethod
    def factor(side, dense):
        return np.full((side, side), 1 / side) if dense else np.eye(side) / side

    @pytest.mark.parametrize("dense", [False, True])
    def test_non_square_factor(self, dense, branches):
        a = self.factor(4, dense)[:, :2] * 2
        with pytest.raises(ValueError, match="not square"):
            mixture([(0.5, self.P, self.P), (0.5, a, self.factor(4, dense))], (2,) * 4)
        assert branches == []

    @pytest.mark.parametrize("dense", [False, True])
    def test_factor_sides_not_the_state_side(self, dense, branches):
        a = self.factor(2, dense)
        with pytest.raises(ValueError, match="do not make side 16"):
            mixture([(1.0, a, a)], (2,) * 4)
        with pytest.raises(ValueError, match="do not make side 16"):
            mixture([(0.5, self.P, self.P), (0.5, np.eye(8) / 8, self.P)], (2,) * 4)
        assert branches == []

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("rho_dims", [(2, 2), (4, 8), (8, 4)])
    def test_nested_state_on_other_dims(self, rho_dims, dense, branches):
        # a nested sum whose factor sides make another side than the state's
        nested = [(0.5, self.P, self.P), (0.5, *(self.factor(n, dense) for n in rho_dims))]
        with pytest.raises(ValueError, match="do not make side 16"):
            mixture([(0.5, self.P, self.P), (0.5, nested)], (2,) * 4)
        with pytest.raises(ValueError, match="do not make side 16"):
            mixture([(0.5, self.P, self.P), (0.5, [(1.0, nested)])], (2,) * 4)
        assert branches == []

    def test_term_of_wrong_length(self):
        for term in [(1.0, self.P, self.P, self.P), (1.0,), (1.0, [(1.0, self.P, self.P, self.P)])]:
            with pytest.raises(ValueError, match=r"\(c, A, B\) or \(c, \[terms\]\)"):
                mixture([term], (2,) * 4)

    def test_npt_state_term_refused(self):
        # its partial transpose across A2B2:A3B3 is not PSD: no sum of products is this state
        rho = random_state((3,) * 4, 5)
        assert np.linalg.eigvalsh(partial_transpose(rho.mat, {2, 3}).data)[0] < -0.01
        with pytest.raises(ValueError, match="needs a non-empty list of terms"):
            mixture([(1.0, rho)], rho.dims)


def _family_networks():
    """Every cli.FAMILIES network at its default d (pbd at d = 3 and 4, the
    decomposable row with and without a raised eta), and bh at d = 6."""
    rows = {id(f): f for f in cli.FAMILIES.values()}.values()
    for f in rows:
        if f.d is None:
            yield f.network(None, (2 / 3, 1 / 3, 0.0), 0, None)
            yield f.network(None, (0.4, 0.3, 0.2, 0.1), 0, None)
        else:
            yield f.network(f.d, None, 7, None)
    yield cli.FAMILIES["decomposable"].network(3, None, 7, 0.5)
    yield networks.bh_network(6)


class TestMixtureFamilies:
    def test_either_branch_alone_gives_the_same_bits(self, monkeypatch):
        default = [n.state.data.tobytes() for n in _family_networks()]
        for forced in (True, False):
            monkeypatch.setattr(tensor, "_scatters", lambda nnz, side, _f=forced: _f)
            assert [n.state.data.tobytes() for n in _family_networks()] == default

    @pytest.mark.parametrize("build, scatters", [
        (lambda: networks.bh_network(4), True),
        (lambda: networks.bh_network(6), True),
        (lambda: networks.pbd_network((0.4, 0.3, 0.2, 0.1)), True),
        (lambda: graphs.graph_network(graphs.cl4_graph(), graphs.CL4_LABELS), False),
        (lambda: cli.FAMILIES["decomposable"].network(3, None, 7, None), False),
        (lambda: cli.FAMILIES["decomposable"].network(3, None, 7, 0.5), False),
    ])
    def test_sparse_families_scatter_dense_ones_broadcast(self, build, scatters, branches):
        build()
        assert branches and set(branches) == {scatters}


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
    """Factor indices go through operator.index: a float is an error, never
    truncated to the factor it rounds down to."""

    @pytest.mark.parametrize("subset", [[1.7], [0, 1.0]])
    def test_partial_transpose(self, subset):
        with pytest.raises(ValueError, match="integers"):
            partial_transpose(random_mat((2, 2), 0), subset)

    def test_numpy_integers_still_accepted(self):
        m = random_mat((2, 3), 1)
        assert np.array_equal(partial_transpose(m, {np.int64(0)}).data,
                              partial_transpose(m, {0}).data)

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netwitness import bell, states, witnesses
from netwitness.networks import choi_network
from netwitness.protocol import detect_exact
from netwitness.reports import canonical_json
from netwitness.states import (
    MAX_CHOI_RESOLUTION,
    PPT_EIG_FLOOR,
    WITNESS_CUTOFF,
    ScanResult,
    _qutrit_bell_projectors,
    _refine,
    _screen,
    find_choi_detected_ppt,
    isotropic_state,
    random_state,
)
from netwitness.tensor import _pt_source, density, partial_transpose
from netwitness.witnesses import choi_witness, reduction_witness


def singlet_fraction(sigma):
    """<phi_00|sigma|phi_00> for a bipartite state."""
    v = bell.bell_ket(sigma.dims[0], 0, 0)
    return float(np.real(v.conj() @ sigma.data @ v))


class TestIsotropic:
    def test_extremes(self):
        d = 3
        assert np.max(np.abs(isotropic_state(d, 1.0).data
                             - bell.bell_projector(d, 0, 0).data)) <= 1e-12
        assert np.max(np.abs(isotropic_state(d, 1 / d**2).data
                             - np.eye(d * d) / d**2)) <= 1e-12

    def test_singlet_fraction_is_f(self):
        for f in (0.0, 0.3, 0.9):
            assert abs(singlet_fraction(isotropic_state(3, f)) - f) <= 1e-12

    def test_reduction_expectation_linear_in_f(self):
        d = 3
        w = reduction_witness(d)
        for f in np.linspace(0, 1, 7):
            rho = isotropic_state(d, f)
            assert abs(w.expectation(rho) - (1 / d - f)) <= 1e-12

    def test_rejects_bad_fidelity(self):
        with pytest.raises(ValueError):
            isotropic_state(3, 1.2)


class TestRandomStates:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_state_valid(self, seed):
        rho = random_state((2, 3), rng_seed=seed)
        assert abs(np.trace(rho.data) - 1) <= 1e-10
        assert np.linalg.eigvalsh(rho.data)[0] >= -1e-10

    def test_rank_control(self):
        rho = random_state((3, 3), rng_seed=1, rank=1)
        vals = np.linalg.eigvalsh(rho.data)
        assert np.sum(vals > 1e-10) == 1

    def test_deterministic(self):
        a = random_state((2, 2), rng_seed=4)
        b = random_state((2, 2), rng_seed=4)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("dims", [(2.9, 2), (2, "3")])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="dims must be integers"):
            random_state(dims, rng_seed=0)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            random_state((2, 2), rng_seed=0, rank=rank)

    def test_non_integer_rank_rejected(self):
        with pytest.raises(ValueError, match=r"^rank must be an integer, not 2\.5$"):
            random_state((2, 2), rng_seed=0, rank=2.5)

    def test_numpy_integer_rank_accepted(self):
        a = random_state((2, 2), rng_seed=3, rank=np.int64(2))
        assert a.data.tobytes() == random_state((2, 2), rng_seed=3, rank=2).data.tobytes()


def random_separable(d: int, terms: int, rng_seed: int):
    """Uniform mixture of random product pure states on d (x) d: the
    separable-state oracle for the witness-positivity checks."""
    rng = np.random.default_rng(rng_seed)
    m = np.zeros((d * d, d * d), dtype=complex)
    for _ in range(terms):
        a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        m += np.outer(v, v.conj()) / terms
    return density(m, (d, d))


class TestRandomSeparable:
    def test_single_term_is_pure_product(self):
        sigma = random_separable(3, terms=1, rng_seed=0)
        vals = np.linalg.eigvalsh(sigma.data)
        assert abs(vals[-1] - 1.0) <= 1e-10
        pt = partial_transpose(sigma.mat, {1})
        assert np.linalg.eigvalsh(pt.data)[0] >= -1e-10

    def test_always_ppt(self):
        for seed in range(100):
            sigma = random_separable(2, terms=4, rng_seed=seed)
            pt = partial_transpose(sigma.mat, {1})
            assert np.linalg.eigvalsh(pt.data)[0] >= -1e-10

    def test_choi_witness_nonnegative(self):
        w = choi_witness()
        for seed in range(100):
            sigma = random_separable(3, terms=50, rng_seed=seed)
            assert w.expectation(sigma) >= -1e-9


class TestChoiScan:
    def test_certificates_at_default_resolution(self):
        result = find_choi_detected_ppt(grid_resolution=40, rng_seed=0)
        assert result.found
        assert result.min_pt_eig >= -1e-12
        assert result.witness_value <= -1e-4
        # re-derive both certificates from the returned state
        w = choi_witness()
        assert abs(w.expectation(result.rho) - result.witness_value) <= 1e-12
        pt = partial_transpose(result.rho.mat, {1})
        assert abs(np.linalg.eigvalsh(pt.data)[0] - result.min_pt_eig) <= 1e-12

    def test_protocol_detects_found_state(self):
        result = find_choi_detected_ppt(grid_resolution=40, rng_seed=0)
        rep = detect_exact(result.rho, choi_network())
        assert rep.verdict == "detected"
        assert rep.singlet_fraction > 2 / 3

    def test_reduction_witness_blind_to_it(self):
        # decomposable witnesses cannot see PPT entanglement
        result = find_choi_detected_ppt(grid_resolution=40, rng_seed=0)
        assert reduction_witness(3).expectation(result.rho) >= -1e-12

    def test_not_found_at_coarse_resolution(self):
        result = find_choi_detected_ppt(grid_resolution=4, rng_seed=0)
        assert not result.found
        assert result.rho is None

    def test_deterministic(self):
        a = find_choi_detected_ppt(grid_resolution=12, rng_seed=0)
        b = find_choi_detected_ppt(grid_resolution=12, rng_seed=0)
        assert a.found == b.found
        if a.found:
            assert np.array_equal(a.p, b.p)

    def test_scan_runs_no_cyclic_check(self, monkeypatch):
        # the scan reads the Choi witness's matrix; it need not re-screen its lambda
        calls = []
        check = witnesses.cyclic_inequality_check
        monkeypatch.setattr(witnesses, "cyclic_inequality_check",
                            lambda *a, **k: calls.append(a) or check(*a, **k))
        assert find_choi_detected_ppt(grid_resolution=40).found
        assert calls == []

    @pytest.mark.parametrize("resolution", [MAX_CHOI_RESOLUTION + 1, 10**8])
    def test_too_fine_a_grid_is_rejected_before_any_allocation(self, monkeypatch, resolution):
        # on a finer grid one screen block would be a whole grid row; the
        # screen must never start, and nothing the size of a row is allocated
        def screen(*args):
            raise AssertionError("the scan started")
        monkeypatch.setattr(states, "_screen", screen)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"resolution must lie in \[2, 16383\]"):
                find_choi_detected_ppt(grid_resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert 2**14 // (MAX_CHOI_RESOLUTION + 1) == 1  # the finest grid: one row per block

    def test_projector_stack_built_once(self, monkeypatch):
        find_choi_detected_ppt(grid_resolution=40)  # fills the cache
        calls = []
        projector = bell.bell_projector
        monkeypatch.setattr(bell, "bell_projector",
                            lambda *a: calls.append(a) or projector(*a))
        assert find_choi_detected_ppt(grid_resolution=40).found
        assert calls == [(3, 0, 0)]  # the witness matrix's own P_00 only
        stack = _qutrit_bell_projectors()
        assert not stack.flags.writeable
        assert [p.tobytes() for p in stack] == [p.data.tobytes() for p in _PROJS]


_PROJS = [bell.bell_projector(3, s, t) for s in range(3) for t in range(3)]
_PTS = [partial_transpose(pm, {1}).data for pm in _PROJS]
_WMAT = choi_witness().mat.data


def _loop_point(a, b):
    """Weights, state, witness value and min partial-transpose eigenvalue at
    the slice point (a, b), built one matrix at a time; None outside."""
    if a < 0 or b < 0 or a + b > 1:
        return None
    c = 1.0 - a - b
    p = np.array([[a, 0, 0], [b / 3, b / 3, b / 3], [c / 3, c / 3, c / 3]])
    m = sum(p.reshape(-1)[i] * _PROJS[i].data for i in range(9))
    pt = sum(p.reshape(-1)[i] * _PTS[i] for i in range(9))
    wval = float(np.real(np.trace(_WMAT @ m)))
    min_eig = float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])
    return p, m, wval, min_eig


def _loop_feasible(wval, min_eig):
    return min_eig >= PPT_EIG_FLOOR and wval <= WITNESS_CUTOFF


def _loop_refine(a, b, h):
    """Step-halving refinement one move at a time, each move judged by
    ``_loop_point``: the end point and the most moves accepted in one sweep."""
    wval, most = _loop_point(a, b)[2], 0
    for _ in range(12):
        accepted = 0
        for da, db in ((h, 0), (-h, 0), (0, h), (0, -h), (h, -h), (-h, h)):
            res = _loop_point(a + da, b + db)
            if res is not None and _loop_feasible(*res[2:]) and res[2] < wval:
                wval, a, b = res[2], a + da, b + db
                accepted += 1
        most = max(most, accepted)
        if not accepted:
            h /= 2
    return a, b, most


def _loop_scan(grid_resolution: int, rng_seed: int = 0) -> ScanResult:
    """The scan as one Python iteration per grid point, the reference the
    screened ``find_choi_detected_ppt`` must reproduce bit for bit."""
    best = None
    step = 1.0 / grid_resolution
    for i in range(grid_resolution + 1):
        for j in range(grid_resolution + 1 - i):
            a, b = i * step, j * step
            res = _loop_point(a, b)
            if res is None:
                continue
            wval, min_eig = res[2:]
            if _loop_feasible(wval, min_eig) and (best is None or wval < best[0]):
                best = (wval, a, b)
    if best is None:
        return ScanResult(False, None, None, None, None, grid_resolution, rng_seed)
    a, b, _ = _loop_refine(best[1], best[2], step)
    p, m, wval, min_eig = _loop_point(a, b)
    return ScanResult(True, density(m, (3, 3)), p, wval, min_eig, grid_resolution, rng_seed)


def _grid(n):
    """The scan's slice points at resolution n, in grid order."""
    step = 1.0 / n
    pts = [(i * step, j * step) for i in range(n + 1) for j in range(n + 1 - i)]
    return np.array([pt for pt in pts if pt[0] + pt[1] <= 1]).T


def _dense_route(a, b):
    """Witness values and min partial-transpose eigenvalues at the slice
    points (a[k], b[k]) from dense 9x9 matrices: the screen's oracle."""
    c = 1.0 - a - b
    w = np.stack([a, 0 * a, 0 * a] + [b / 3] * 3 + [c / 3] * 3, axis=-1)
    pt = (w @ np.reshape(_PTS, (9, 81))).reshape(-1, 9, 9)
    # tr[W m] = sum_i w_i tr[W P_i]
    wval = w @ np.array([np.trace(_WMAT @ pm.data).real for pm in _PROJS])
    return wval, np.linalg.eigvalsh(pt)[:, 0]


class TestChoiScanMatchesLoop:
    @pytest.mark.parametrize("resolution", [2, 3, 7, 10, 12, 40, 57, 80, 120])
    def test_bit_identical_to_point_loop(self, resolution):
        fast, ref = find_choi_detected_ppt(resolution, rng_seed=5), _loop_scan(resolution, 5)
        # the report bytes, and every value in them exactly
        assert canonical_json(fast.to_dict()) == canonical_json(ref.to_dict())
        assert fast.found == (resolution >= 7)
        assert (fast.witness_value, fast.min_pt_eig) == (ref.witness_value, ref.min_pt_eig)
        if ref.found:
            assert fast.rho.data.tobytes() == ref.rho.data.tobytes()
            assert fast.p.tobytes() == ref.p.tobytes()

    @pytest.mark.parametrize("start", [(0.2, 0.15, 0.01), (0.1, 0.05, 0.01), (0.2, 0.15, 0.05)])
    def test_refine_matches_one_move_at_a_time(self, start):
        # interior starts, where one sweep accepts two or more moves: after an
        # accepted move the stacked sweep must try only the later moves
        a, b, most = _loop_refine(*start)
        assert most >= 2
        assert _refine(*start) == (a, b)

    @pytest.mark.parametrize("resolution", [10, 40])
    def test_screen_min_eig_matches_dense_on_grid(self, resolution):
        a, b = _grid(resolution)
        _, min_eig, _ = _screen(a, b)
        assert np.max(np.abs(min_eig - _dense_route(a, b)[1])) <= 1e-15

    def test_screen_min_eig_matches_dense_on_boundary(self):
        # b c = a^2 (a 2x2 block is singular), a = 0 and c = 0, exactly
        x = np.linspace(0.0, 1.0, 41)
        a = np.concatenate([x / (1 + x + x * x), 0 * x, x / 2])
        b = np.concatenate([x * x / (1 + x + x * x), x, 1 - x / 2])
        wval, min_eig, _ = _screen(a, b)
        dense_wval, dense_eig = _dense_route(a, b)
        assert np.max(np.abs(min_eig - dense_eig)) <= 1e-15
        assert np.max(np.abs(wval - dense_wval)) <= 1e-15

    def test_screen_mask_matches_dense_on_grid(self):
        for resolution in range(2, 121):
            a, b = _grid(resolution)
            wval, min_eig = _dense_route(a, b)
            dense = (min_eig >= PPT_EIG_FLOOR) & (wval <= WITNESS_CUTOFF)
            assert np.array_equal(_screen(a, b)[2], dense), resolution

    @pytest.mark.parametrize("s", range(3))
    @pytest.mark.parametrize("t", range(3))
    def test_pt_gather_is_partial_transpose(self, s, t):
        # the scan's stacked gather against an axes swap of the reshaped P_st
        pm = bell.bell_projector(3, s, t).data
        idx = np.arange(9)
        rows, cols = _pt_source((3, 3), {1}, idx[:, None], idx)
        swapped = pm.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        assert pm[None][:, rows, cols].tobytes() == swapped.tobytes()

    @pytest.mark.parametrize("resolution", [80, 1000])
    def test_memory_stays_one_block(self, resolution):
        tracemalloc.start()
        try:
            result = find_choi_detected_ppt(resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.found
        # the grid is screened by closed forms in blocks of about 2**14 points,
        # and 9x9 matrices are built only for the ties and the winner, so the
        # bound holds at any resolution (a 9x9 stack per grid row takes 8 MB
        # at resolution 1000, one over the whole resolution-80 grid ~20 MB)
        assert peak < 2e6

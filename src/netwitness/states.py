"""Test states: the isotropic family, seeded random states, and a desk-scale
search for a PPT entangled qutrit state seen by the Bell-diagonal witness
with weights (2/3, 1/3, 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bell
from .tensor import (DensityOperator, _index, _indices, _pt_source, _read_only, density,
                     hermitian_part)
from .witnesses import _bell_diagonal_matrix

PPT_EIG_FLOOR = -1e-12
WITNESS_CUTOFF = -1e-4
MAX_CHOI_RESOLUTION = 2**14 - 1  # finer grids screen blocks of one row, over 2**14 points


def isotropic_state(d: int, fidelity: float) -> DensityOperator:
    """F * P_00 + (1-F) * (1 - P_00)/(d^2-1); singlet fraction F exactly."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    p00 = bell.bell_projector(d, 0, 0).data
    m = fidelity * p00 + (1 - fidelity) * (np.eye(d * d) - p00) / (d * d - 1)
    return density(m, (d, d))


def random_state(dims, rng_seed: int, rank: int | None = None) -> DensityOperator:
    """Full-rank (by default) random mixed state from a Ginibre matrix."""
    dims = _indices(dims, "dims")
    dim = math.prod(dims)  # np.prod would wrap past int64
    rank = dim if rank is None else _index(rank, "rank")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, not {rank}")
    rng = np.random.default_rng(rng_seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return density(m / np.trace(m), dims)


@dataclass(frozen=True)
class ScanResult:
    found: bool
    rho: DensityOperator | None
    p: np.ndarray | None           # (3, 3) Bell-label weights
    witness_value: float | None    # tr[W rho], certified entangled when <= -1e-4
    min_pt_eig: float | None       # certified PPT when >= -1e-12
    resolution: int
    rng_seed: int

    def to_dict(self) -> dict:
        out = {
            "found": self.found,
            "resolution": self.resolution,
            "rng_seed": self.rng_seed,
            "witness_value": self.witness_value,
            "min_pt_eig": self.min_pt_eig,
        }
        if self.rho is not None:
            out["p"] = [list(row) for row in self.p]
            out["state"] = self.rho.mat.to_dict()
        return out


def _screen(a, b):
    """Witness values, min partial-transpose eigenvalues and the certificate
    mask at the slice points (a, b), in closed form (see
    ``find_choi_detected_ppt``); a and b broadcast."""
    c = 1.0 - a - b
    wval = (b - a) / 3
    min_eig = np.minimum(a / 3, (b + c - np.hypot(b - c, 2 * a)) / 6)
    return wval, min_eig, (min_eig >= PPT_EIG_FLOOR) & (wval <= WITNESS_CUTOFF)


def _refine(a: float, b: float, h: float) -> tuple[float, float]:
    """The point where step-halving pattern search, from the feasible slice
    point (a, b) with first step h, stops lowering the screened witness value."""
    wval = _screen(a, b)[0]
    for _ in range(12):
        improved = False
        moves = ((h, 0), (-h, 0), (0, h), (0, -h), (h, -h), (-h, h))
        # one stacked screen for the moves still to try; after an accepted
        # move the rest start from the new point, as a one-by-one sweep does
        while moves:
            ca = np.array([a + da for da, _ in moves])
            cb = np.array([b + db for _, db in moves])
            inside = np.flatnonzero((ca >= 0) & (cb >= 0) & (ca + cb <= 1))
            cand, _, feasible = _screen(ca[inside], cb[inside])
            better = np.flatnonzero(feasible & (cand < wval))
            if not better.size:
                break
            k = better[0]
            wval, a, b = cand[k], float(ca[inside[k]]), float(cb[inside[k]])
            moves = moves[inside[k] + 1:]
            improved = True
        if not improved:
            h /= 2
    return a, b


@functools.cache
def _qutrit_bell_projectors() -> np.ndarray:
    """Read-only stack of the nine qutrit Bell projectors P_st, s-major."""
    return _read_only(np.stack([bell.bell_projector(3, s, t).data
                                for s in range(3) for t in range(3)]))


def find_choi_detected_ppt(grid_resolution: int = 40, rng_seed: int = 0) -> ScanResult:
    """Search Bell-diagonal qutrit states for PPT entanglement.

    States are parametrized by the weight a on P_00 and uniform row weights
    b, c = 1 - a - b on the s = 1 and s = 2 Bell rows:
    m = a P_00 + (b/3) D_1 + (c/3) D_2 with D_s = sum_t P_st, the Horodecki
    qutrit family. D_s is the diagonal projector onto the |k, k+s>, so it is
    its own partial transpose, and P_00's is F/3 with F the flip; hence
    m^PT = (a F + b D_1 + c D_2)/3. It leaves the |k, k> and the pairs
    {|k, k+1>, |k+1, k>} invariant: three 1x1 blocks a/3 and three 2x2
    blocks [[b, a], [a, c]]/3, so min eig m^PT = min(a/3,
    ((b + c) - hypot(b - c, 2a))/6). The witness value tr[W m] is (b - a)/3.

    ``_screen`` evaluates both closed forms on a simplex grid of step
    1/resolution <= 1/MAX_CHOI_RESOLUTION, a block of rows at a time, so
    memory does not grow with the grid. Grid points with equal j - i (a = i
    step, b = j step) have equal witness values in exact arithmetic, and
    those of the least feasible j - i are the ties: the winner is the first
    of them in grid order with the least witness value by the matrix route,
    tr[W m] with m = sum_st p_st P_st, as a point-by-point scan would pick it.
    ``_refine`` then lowers the screened witness value by step-halving
    moves, none of which ties with another (each moves b - a by at least
    the step). The result's p, state and witness value are built by the
    matrix route, and its min_pt_eig is a dense eigvalsh of the state's
    partial transpose (gathered through ``tensor._pt_source``), an
    independent certificate: >= -1e-12 and tr[W rho] <= -1e-4, or an
    explicit not-found outcome.
    The search is deterministic; ``rng_seed`` is only echoed in the result.
    """
    n = grid_resolution = _index(grid_resolution, "resolution")
    if not 2 <= n <= MAX_CHOI_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_CHOI_RESOLUTION}], not {n}")
    wmat = _bell_diagonal_matrix((2 / 3, 1 / 3, 0.0)).data  # the Choi witness's matrix
    projs = _qutrit_bell_projectors()
    idx = np.arange(9)
    pt_rows, pt_cols = _pt_source((3, 3), {1}, idx[:, None], idx)

    def evaluate(a: np.ndarray, b: np.ndarray):
        """Weights, states, witness values and min partial-transpose
        eigenvalues at the slice points (a[k], b[k]), by the matrix route."""
        c = 1.0 - a - b
        zero = np.zeros_like(a)
        w = np.stack([a, zero, zero, b / 3, b / 3, b / 3, c / 3, c / 3, c / 3], axis=1)
        # the weights of P_01 and P_02 are exact zeros: their terms are left out
        m = sum(w[:, i, None, None] * projs[i] for i in (0, 3, 4, 5, 6, 7, 8))
        pt = m[:, pt_rows, pt_cols]
        wval = np.real(np.trace(wmat @ m, axis1=1, axis2=2))
        min_eig = np.linalg.eigvalsh(hermitian_part(pt))[:, 0]
        return w.reshape(-1, 3, 3), m, wval, min_eig

    step = 1.0 / n
    j = np.arange(n + 1)
    rows = max(1, 2**14 // (n + 1))  # a block of about 2**14 grid points
    # ties: the rows i whose point (i, i + level) is feasible, for the least
    # feasible j - i met so far; j - i <= n, so n + 1 marks a point that is
    # off the simplex or infeasible
    level, ties = n, []
    for i0 in range(0, n + 1, rows):
        i = np.arange(i0, min(i0 + rows, n + 1))[:, None]
        a, b = i * step, j * step
        feasible = _screen(a, b)[2] & (j <= n - i) & (a + b <= 1)
        diff = np.where(feasible, j - i, n + 1)
        low = diff.min()
        if low < level:
            level, ties = low, []
        if low == level:
            ties.extend(i0 + np.nonzero(diff == low)[0])
    if not ties:
        return ScanResult(False, None, None, None, None, grid_resolution, rng_seed)
    ties = np.array(ties)
    k = int(np.argmin(evaluate(ties * step, (ties + level) * step)[2]))
    a, b = _refine(float(ties[k] * step), float((ties[k] + level) * step), step)
    p, m, wval, min_eig = evaluate(np.array([a]), np.array([b]))
    return ScanResult(
        found=True,
        rho=density(m[0], (3, 3)),
        p=p[0],
        witness_value=float(wval[0]),
        min_pt_eig=float(min_eig[0]),
        resolution=grid_resolution,
        rng_seed=rng_seed,
    )

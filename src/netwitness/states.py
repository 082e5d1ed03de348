"""Test states: isotropic and Bell-diagonal families, seeded random states,
and a desk-scale search for a PPT entangled qutrit state seen by the
Bell-diagonal witness with weights (2/3, 1/3, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bell
from .tensor import DensityOperator, _indices, _pt_source, density
from .witnesses import choi_witness

PPT_EIG_FLOOR = -1e-12
WITNESS_CUTOFF = -1e-4


def isotropic_state(d: int, fidelity: float) -> DensityOperator:
    """F * P_00 + (1-F) * (1 - P_00)/(d^2-1); singlet fraction F exactly."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    p00 = bell.bell_projector(d, 0, 0).data
    m = fidelity * p00 + (1 - fidelity) * (np.eye(d * d) - p00) / (d * d - 1)
    return density(m, (d, d))


def bell_diagonal_state(d: int, p) -> DensityOperator:
    """Mixture sum_st p[s,t] P_st of generalized Bell projectors."""
    p = np.asarray(p, dtype=float).reshape(d, d)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p must be a probability vector over the d^2 Bell labels")
    m = np.zeros((d * d, d * d), dtype=complex)
    for s in range(d):
        for t in range(d):
            if p[s, t]:
                m += p[s, t] * bell.bell_projector(d, s, t).data
    return density(m, (d, d))


def random_state(dims, rng_seed: int, rank: int | None = None) -> DensityOperator:
    """Full-rank (by default) random mixed state from a Ginibre matrix."""
    dims = _indices(dims, "dims")
    dim = int(np.prod(dims))
    rank = dim if rank is None else _indices((rank,), "rank")[0]
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


def find_choi_detected_ppt(grid_resolution: int = 40, rng_seed: int = 0) -> ScanResult:
    """Search Bell-diagonal qutrit states for PPT entanglement.

    States are parametrized by the weight a on P_00 and uniform row weights
    b, c = 1 - a - b on the s = 1 and s = 2 Bell rows; the witness value is
    (b - a)/3 in this slice. A simplex grid at the given resolution, scanned
    one row of fixed a at a time as stacked arrays, is followed by local
    step-halving refinement whose moves are evaluated in stacked calls too;
    each partial transpose is a gather of its state's entries through
    ``tensor._pt_source``. The search itself certifies the result: min
    eigenvalue of the partial transpose >= -1e-12 and tr[W rho] <= -1e-4, or
    an explicit not-found outcome.
    The search is deterministic; ``rng_seed`` is only echoed in the result.
    """
    if grid_resolution < 2:
        raise ValueError("resolution must be >= 2")
    wmat = choi_witness().mat.data
    projs = [bell.bell_projector(3, s, t).data for s in range(3) for t in range(3)]
    idx = np.arange(9)
    pt_rows, pt_cols = _pt_source((3, 3), {1}, idx[:, None], idx)

    def evaluate(a: np.ndarray, b: np.ndarray):
        """Weights, states, witness values and min partial-transpose
        eigenvalues at the slice points (a[k], b[k])."""
        c = 1.0 - a - b
        zero = np.zeros_like(a)
        w = np.stack([a, zero, zero, b / 3, b / 3, b / 3, c / 3, c / 3, c / 3], axis=1)
        # the weights of P_01 and P_02 are exact zeros: their terms are left out
        m = sum(w[:, i, None, None] * projs[i] for i in (0, 3, 4, 5, 6, 7, 8))
        pt = m[:, pt_rows, pt_cols]
        wval = np.real(np.trace(wmat @ m, axis1=1, axis2=2))
        min_eig = np.linalg.eigvalsh((pt + pt.conj().transpose(0, 2, 1)) / 2)[:, 0]
        feasible = (min_eig >= PPT_EIG_FLOOR) & (wval <= WITNESS_CUTOFF)
        return w.reshape(-1, 3, 3), m, wval, min_eig, feasible

    best = None  # (wval, a, b, payload)
    step = 1.0 / grid_resolution
    for i in range(grid_resolution + 1):
        a = i * step
        b = np.arange(grid_resolution + 1 - i) * step
        b = b[a + b <= 1]
        p, m, wval, min_eig, feasible = evaluate(np.full(b.size, a), b)
        # the first feasible point of the row with the least witness value
        k = int(np.argmin(np.where(feasible, wval, np.inf)))
        if feasible[k] and (best is None or wval[k] < best[0]):
            best = (float(wval[k]), a, float(b[k]), (p[k], m[k], float(min_eig[k])))
    # step-halving pattern refinement around the incumbent
    if best is not None:
        wval, a, b, payload = best
        h = step
        for _ in range(12):
            improved = False
            moves = ((h, 0), (-h, 0), (0, h), (0, -h), (h, -h), (-h, h))
            # one stacked call for the moves still to try; after an accepted
            # move the rest start from the new point, as a one-by-one sweep does
            while moves:
                ca = np.array([a + da for da, _ in moves])
                cb = np.array([b + db for _, db in moves])
                inside = np.flatnonzero((ca >= 0) & (cb >= 0) & (ca + cb <= 1))
                p, m, cand, min_eig, feasible = evaluate(ca[inside], cb[inside])
                better = np.flatnonzero(feasible & (cand < wval))
                if not better.size:
                    break
                k = better[0]
                wval, payload = float(cand[k]), (p[k], m[k], float(min_eig[k]))
                a, b = float(ca[inside[k]]), float(cb[inside[k]])
                moves = moves[inside[k] + 1:]
                improved = True
            if not improved:
                h /= 2
        p, m, min_eig = payload
        return ScanResult(
            found=True,
            rho=density(m, (3, 3)),
            p=p,
            witness_value=wval,
            min_pt_eig=min_eig,
            resolution=grid_resolution,
            rng_seed=rng_seed,
        )
    return ScanResult(False, None, None, None, None, grid_resolution, rng_seed)

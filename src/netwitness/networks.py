"""Network states on two layers and the witness reconstruction map.

A network state N on layers 2 and 3 of equal site dims (A2B2 and A3B3 for
the families below, one qubit per vertex for ``graphs``) is separable across
that cut as certified per term (``tensor.mixture`` builds every family as a
convex sum of products across it, the paired ones from ``tensor.pairing``'s
terms, nested as one term in the Breuer-Hall state), such that contracting
layer 3 against (eta*1 - |target><target|) returns a positive multiple of the
transposed witness:

    tr_3[N (eta*1 - |target><target|)_3] = recon_constant * W^T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bell
from .tensor import DensityOperator, Mat, _pt_shift, _read_only, hermitian_part, mixture, pairing
from .witnesses import (Witness, _bell_diagonal_matrix, _breuer_hall_paired, check_lambda_vec,
                        flip_witness)

SITE_NAMES = ("A2", "B2", "A3", "B3")
# The 7 bipartitions: cut k transposes the sites i with bit i of 2k + 1 set,
# the proper subsets that hold A2 (complements repeat spectra).
_CUT_SITES = tuple(frozenset(i for i in range(4) if (2 * k + 1) >> i & 1) for k in range(7))
CUT_LABELS = tuple(":".join("".join(SITE_NAMES[i] for i in range(4) if (i in c) == left)
                            for left in (True, False)) for c in _CUT_SITES)


@dataclass(frozen=True, eq=False)
class NetworkState:
    """A prepared resource state with its detection threshold and readout ket.

    ``witness`` is the matrix whose transpose the reconstruction contraction
    yields; ``recon_constant`` is the exact positive prefactor. ``target`` is
    the read-only ket read out on the last layer; a layer of two equal sites
    defaults to |phi_00>.
    """

    state: DensityOperator
    eta: float
    recon_constant: float
    family: str
    witness: Mat
    target: np.ndarray | None = None

    def __post_init__(self):
        dims, layer, target = self.state.dims, self.layer, self.target
        if dims[: len(dims) // 2] != layer:
            raise ValueError(f"network state dims {dims} are not two layers of equal site dims")
        if target is None and layer == (self.d, self.d):
            target = bell.bell_ket(self.d)
        if np.shape(target) != (math.prod(layer),):
            raise ValueError(f"network target must be a ket on the layer {layer}")
        object.__setattr__(self, "target", _read_only(np.array(target)))
        if self.recon_constant <= 0:
            raise ValueError("reconstruction constant must be positive")

    @property
    def d(self) -> int:
        return self.state.dims[0]

    @property
    def layer(self) -> tuple:
        """Site dims of the last layer, which equal those of the first."""
        return self.state.dims[len(self.state.dims) // 2:]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "d": self.d,
            "eta": self.eta,
            "recon_constant": self.recon_constant,
            "state": self.state.mat.to_dict(),
        }


def _readouts(d: int) -> tuple:
    """The fixed readout pair on a layer: P_00 and (1 - P_00)/(d^2 - 1)."""
    p00 = bell.bell_projector(d, 0, 0).data
    return p00, (np.eye(d * d) - p00) / (d * d - 1)


def two_qubit_network() -> NetworkState:
    """The flip network at d = 2; realizes the two-qubit partial-transpose witness."""
    return flip_network(2)


def flip_network(d: int) -> NetworkState:
    """Network state for the flip witness F/d = P_00^PT, threshold 1/d.

    The A2B2 factors mix (1/d -/+ F^T/d), the normalized antisymmetric and
    symmetric projectors, with the readout pair, so the contraction returns
    the transpose of F/d; 1/d is its exact spectral radius.
    """
    w, lam = flip_witness(d), 1.0 / d
    denom = d**3 * lam + d - 2
    wqt, eye = w.mat.data.T, np.eye(d * d)
    first = hermitian_part((lam * eye - wqt) / (lam * d * d - 1))
    second = hermitian_part((lam * eye + wqt) / (lam * d * d + 1))
    p00, rest = _readouts(d)
    return NetworkState(
        state=mixture([((d * d * lam - 1) / denom, first, p00),
                       ((d - 1) * (d * d * lam + 1) / denom, second, rest)], (d,) * 4),
        eta=lam,
        recon_constant=2 * (d - 1) / (d * denom),
        family="flip",
        witness=w.mat,
    )


def pbd_network(lam, family: str = "pbd") -> NetworkState:
    """Paired Bell-diagonal state: sum_s lambda_s/d sum_t P_st (x) P_st.

    Threshold lambda_0; reconstruction constant lambda_0/d against the
    Bell-diagonal witness with the same lambda.
    """
    lam = check_lambda_vec(lam)
    d = len(lam)
    if lam[0] == 0.0:
        raise ValueError("threshold eta would be 0; witness not realizable this way")
    pairs = ((lam[s] / d, bell.bell_ket(d, s, t))
             for s in range(d) if lam[s] != 0.0 for t in range(d))
    return NetworkState(
        state=mixture(pairing(pairs), (d,) * 4),
        eta=lam[0],
        recon_constant=lam[0] / d,
        family=family,
        witness=_bell_diagonal_matrix(lam),
    )


def reduction_network(d: int) -> NetworkState:
    """Uniform paired Bell-diagonal state; realizes 1/d - P_00."""
    return pbd_network((1.0 / d,) * d, family="reduction")


def smolin_network() -> NetworkState:
    """The four-qubit permutation-invariant bound entangled state."""
    return pbd_network((0.5, 0.5), family="smolin")


def choi_network() -> NetworkState:
    """Paired Bell-diagonal state for lambda = (2/3, 1/3, 0) at d = 3."""
    return pbd_network((2 / 3, 1 / 3, 0.0), family="choi")


def bh_network(d: int) -> NetworkState:
    """Three-term mixture realizing the Breuer-Hall witness in even d >= 4.

    The paired witness is the unscaled form (1/d)(1 - F') - P_00; the scaled
    variant divides it by d - 2. Mixture weights are computed in exact
    rational arithmetic before conversion to floats.
    """
    if d % 2 or d < 4:
        raise ValueError("Breuer-Hall network requires even dimension >= 4")
    denom = 3 * d * d - 3 * d + 2
    c0 = Fraction(2 * d * d - 2 * d, denom)
    c1 = Fraction(d + 1, denom)
    c2 = 1 - c0 - c1
    assert c2 == Fraction((d - 1) ** 2, denom)
    fp = bell.twisted_flip(d).data
    p00, rest = _readouts(d)
    eye = np.eye(d * d)
    paired = pairing((1 / (d * d), bell.bell_ket(d, s, t)) for s in range(d) for t in range(d))
    return NetworkState(
        state=mixture([
            (float(c0), paired),
            (float(c1), (eye + fp) / (d * d + d), p00),
            (float(c2), (eye - fp) / (d * d - d), rest),
        ], (d,) * 4),
        eta=1.0 / d,
        recon_constant=float(c0) / d**2,
        family="breuer-hall",
        witness=_breuer_hall_paired(d),
    )


def solve_decomposition(w: Witness, eta: float):
    """Solve for mixture weights c_j and scale k in the network-state ansatz.

    The witness transpose is split into its trace-normalized negative and
    positive eigenspace parts, W^T = sum_j a_j * Wn_j, read out by the fixed
    operators Pi = P_00 and (1 - P_00)/(d^2 - 1) respectively. The weights
    satisfy

        a_j = k * c_j * (eta - <phi_00|Pi_j|phi_00>),  sum_j c_j = 1, k > 0,

    and N = sum_j c_j Wn_j (x) Pi_j reconstructs W^T / k. The overlaps
    <phi_00|Pi_j|phi_00> are 1 and 0 exactly, so the gaps are eta - 1 < 0 and
    eta > 0, each of the sign of its a_j: every eta in (0, 1) is feasible.
    Returns the ``tensor.mixture`` terms (c_j, Wn_j, Pi_j) and k.
    """
    d = w.d
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    vals, vecs = np.linalg.eigh(hermitian_part(w.mat.data.T))
    split = []  # (a_j, gap_j, Wn_j, Pi_j)
    k = 0.0
    for mask, pi, gap in zip((vals < -1e-12, vals > 1e-12), _readouts(d), (eta - 1.0, eta)):
        if not np.any(mask):
            continue
        block = (vecs[:, mask] * vals[mask]) @ vecs[:, mask].conj().T
        a = float(np.real(np.trace(block)))  # signed weight
        split.append((a, gap, hermitian_part(block / a), pi))
        k += a / gap
    return [(a / (k * gap), wn, pi) for a, gap, wn, pi in split], float(k)


def network_from_decomposition(w: Witness, eta: float) -> NetworkState:
    """Assemble the solved decomposition into a network state labelled ``w.family``."""
    terms, k = solve_decomposition(w, eta)
    return NetworkState(
        state=mixture(terms, w.mat.dims * 2),
        eta=eta,
        recon_constant=1.0 / k,
        family=w.family,
        witness=w.mat,
    )


def reconstruct_witness(n: NetworkState) -> Mat:
    """tr over layer 3 of N*(eta*1 - |target><target| on layer 3); Hermitian output."""
    t = n.target
    side = len(t)
    out = np.einsum("axby,yx->ab", n.state.data.reshape(side, side, side, side),
                    n.eta * np.eye(side) - np.outer(t, t.conj()))
    return Mat(hermitian_part(out), n.layer)


# Side up to which ppt_report takes each partial transpose whole, as one
# dense block (the d = 2 states).
DENSE_EIGVALSH_MAX_SIDE = 16


def _blocks(side: int, rows: np.ndarray, cols: np.ndarray) -> list:
    """Connected components of ``side`` nodes joined by symmetric edges (rows, cols).

    Returns one (blocks, size) array of member indices per distinct block
    size. The components come from min-label propagation with pointer
    jumping: a label only falls and stays a node of its own component, so at
    the fixed point every component carries one label of its own.
    """
    labels = np.arange(side)
    while True:
        step = labels.copy()
        np.minimum.at(step, rows, labels[cols])
        step = step[step]
        if np.array_equal(step, labels):
            break
        labels = step
    _, sizes = np.unique(labels, return_counts=True)
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    return [members[starts[sizes == size][:, None] + np.arange(size)]
            for size in np.unique(sizes)]


def ppt_report(n: NetworkState) -> dict:
    """Min eigenvalue of the partial transpose across the 7 cuts of A2B2A3B3.

    Each Hermitized partial transpose is split into blocks that no nonzero
    entry couples. Only exact zeros separate them, so the matrix is exactly
    block-diagonal up to a permutation of the basis and its spectrum is the
    union of the blocks' spectra: the split is exact, not an approximation.
    The blocks are small because the network states' diagonal Weyl-phase
    symmetries survive partial transposition (at most 16 of 256 at d = 4,
    108 of 1296 at d = 6). A partial transpose only permutes entries, so one
    block search over all seven cuts (cut k's nodes offset by k * side) runs
    on the nonzero pattern of the state's Hermitian part; blocks of one size
    share one stacked ``eigvalsh``, each gathered from the state and Hermitized.

    Sides up to ``DENSE_EIGVALSH_MAX_SIDE`` are taken whole, which costs less
    than the search (d = 2: 0.12-0.18 ms against 0.20-0.27 ms on a 2-core
    Xeon, 1 BLAS thread) and keeps the pinned d = 2 reports' round-off digits.
    """
    mat = n.state.mat
    if len(mat.dims) != 4:
        raise ValueError(f"ppt_report needs layers of two sites, not {n.layer}")
    side, data = mat.side, mat.data
    # shifts[k, i]: the digits of index i on the sites that cut k transposes
    shifts = np.stack([_pt_shift(mat.dims, sites) for sites in _CUT_SITES])
    offset = side * np.arange(len(shifts))[:, None]
    if side <= DENSE_EIGVALSH_MAX_SIDE:
        stacks = [offset + np.arange(side)]
    else:
        pairs = np.nonzero((data != 0) | (data.T != 0))
        rows, cols = np.compress((data[pairs] + data.T[pairs].conj()) / 2 != 0, pairs, axis=1)
        t = shifts[:, cols] - shifts[:, rows]  # [i, j] moves to [i + t, j - t]
        stacks = _blocks(shifts.size, (offset + rows + t).ravel(), (offset + cols - t).ravel())
    lowest = np.full(len(shifts), np.inf)
    for idx in stacks:  # one stacked eigvalsh per block size
        cut, i = np.divmod(idx, side)
        s = shifts[cut, i]
        src = (i - s)[:, :, None] + s[:, None, :]
        # Hermitizing the gathered block gives the bits of gathering the Hermitian part
        pt = hermitian_part(data[src, src.swapaxes(1, 2)])
        np.minimum.at(lowest, cut[:, 0], np.linalg.eigvalsh(pt)[:, 0])
    return dict(zip(CUT_LABELS, lowest.tolist()))

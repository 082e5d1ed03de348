"""Independent reference formulas in plain numpy.

Nothing here imports netwitness: every value the benchmark checks a program
output against is computed from these closed forms, so a defect in the
program cannot hide behind a shared helper. Conventions follow the README:
row-major composite indices, leftmost factor most significant,
|phi_st> = d^{-1/2} sum_j exp(2 pi i t j / d) |j>|j+s mod d>.
"""

from __future__ import annotations

import numpy as np


def bell_ket(d: int, s: int = 0, t: int = 0) -> np.ndarray:
    j = np.arange(d)
    v = np.zeros(d * d, dtype=complex)
    v[j * d + (j + s) % d] = np.exp(2j * np.pi * t * j / d)
    return v / np.sqrt(d)


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def partial_transpose(m: np.ndarray, dims, subset) -> np.ndarray:
    n = len(dims)
    t = m.reshape(tuple(dims) * 2)
    axes = list(range(2 * n))
    for i in subset:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    side = int(np.prod(dims))
    return t.transpose(axes).reshape(side, side)


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def flip(d: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    f = np.zeros((d * d, d * d))
    f[(i * d + j).ravel(), (j * d + i).ravel()] = 1.0
    return f


def twisted_flip(d: int) -> np.ndarray:
    """(1 (x) U) F (1 (x) U^dag) with U the block skew unitary U|2m> = -|2m+1>."""
    u = np.zeros((d, d))
    for m in range(d // 2):
        u[2 * m, 2 * m + 1] = 1.0
        u[2 * m + 1, 2 * m] = -1.0
    iu = np.kron(np.eye(d), u)
    return iu @ flip(d) @ iu.T


def bell_diagonal_witness(lam) -> np.ndarray:
    """sum_s lambda_s Pi_s - P_00, Pi_s = sum_j |j, j+s><j, j+s|."""
    d = len(lam)
    w = -projector(bell_ket(d))
    j = np.arange(d)
    for s, weight in enumerate(lam):
        idx = j * d + (j + s) % d
        w[idx, idx] += weight
    return w


def breuer_hall_paired(d: int) -> np.ndarray:
    """Unscaled Breuer-Hall witness 1/d - P_00 - F'/d, the bh network's witness."""
    return np.eye(d * d) / d - projector(bell_ket(d)) - twisted_flip(d) / d


def two_qubit_witness() -> np.ndarray:
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return np.eye(4) / 2 - projector(psi)


def decomposable_witness(q: np.ndarray, d: int) -> np.ndarray:
    return partial_transpose(q, (d, d), [1])


# Witness matrices realized by the protocol-sweep and certify networks.
NETWORK_WITNESSES = {
    "two-qubit": two_qubit_witness,
    "flip3": lambda: decomposable_witness(projector(bell_ket(3)), 3),
    "choi": lambda: bell_diagonal_witness((2 / 3, 1 / 3, 0.0)),
    "reduction3": lambda: bell_diagonal_witness((1 / 3,) * 3),
    "pbd4": lambda: bell_diagonal_witness((0.4, 0.3, 0.2, 0.1)),
    "bh4": lambda: breuer_hall_paired(4),
    "smolin": lambda: bell_diagonal_witness((0.5, 0.5)),
}


def expectation(w: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(np.trace(w @ rho)))


def layer2_marginal(net: np.ndarray, d2: int, d3: int) -> np.ndarray:
    """tr over layer 3 of a (layer 2) (x) (layer 3) operator."""
    return np.trace(net.reshape(d2, d3, d2, d3), axis1=1, axis2=3)


def success_prob(rho: np.ndarray, n2: np.ndarray) -> float:
    """Post-selection probability tr[rho^T N_2] / D, D the layer dimension."""
    return float(np.real(np.sum(rho * n2))) / rho.shape[0]


def singlet_fraction(eta: float, recon_constant: float, wexp: float,
                     success: float, dim: int) -> float:
    """Filtered singlet fraction from the reconstruction identity.

    tr_3[N (eta - P_00)_3] = c W^T contracted with rho gives
    eta tr K - <phi|K|phi> = c tr[rho W], and tr K = D * success.
    """
    return eta - recon_constant * wexp / (dim * success)


def reconstruct(net: np.ndarray, d: int, eta: float) -> np.ndarray:
    """tr over (A3, B3) of N (eta 1 - P_00)_{A3B3} for a d^4-dim network."""
    d2 = d * d
    meas = eta * np.eye(d2) - projector(bell_ket(d))
    return np.einsum("ixjy,yx->ij", net.reshape(d2, d2, d2, d2), meas)


def cyclic_worst(lam, trials: int, rng_seed: int) -> float:
    """Largest cyclic-inequality LHS over the falsifier's candidate vectors.

    Candidates: the basis vectors, the all-ones vector, then ``trials`` rows
    of uniform draws from default_rng(rng_seed). 0/0 terms count as 0.
    """
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    rng = np.random.default_rng(rng_seed)
    t = np.vstack([np.eye(d), np.ones((1, d)), rng.random((trials, d))])
    t_sq = t * t
    shift = (np.arange(d)[:, None] + np.arange(d)[None, :]) % d  # [j, s] -> j + s
    den = np.einsum("s,njs->nj", lam, t_sq[:, shift])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(den == 0.0, np.where(t_sq == 0.0, 0.0, np.inf), t_sq / den)
    return float(np.max(terms.sum(axis=1)))


def product_sample_min(w: np.ndarray, d: int, samples: int, rng_seed: int) -> float:
    """Smallest <a,b|W|a,b> over random unit product vectors (an upper bound
    on the product-state minimum)."""
    rng = np.random.default_rng(rng_seed)
    a = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    b = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    ab = np.einsum("ni,nj->nij", a, b).reshape(samples, d * d)
    return float(np.min(np.real(np.einsum("ni,ij,nj->n", ab.conj(), w, ab))))


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))

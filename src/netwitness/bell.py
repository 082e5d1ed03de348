"""Generalized Bell states, flip operators, and the skew-unitary twisted flip.

Conventions: omega = exp(+2*pi*i/d); ket labels wrap with least non-negative
residues mod d.
"""

from __future__ import annotations

import numpy as np

from .tensor import Mat, proj


def _check_index(d: int, s: int, t: int) -> None:
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not (0 <= s < d and 0 <= t < d):
        raise ValueError(f"bell index (s={s}, t={t}) out of range for d={d}")


def bell_ket(d: int, s: int = 0, t: int = 0) -> np.ndarray:
    """|phi_st> = d^{-1/2} sum_j omega^{tj} |j>|j+s mod d>."""
    _check_index(d, s, t)
    v = np.zeros(d * d, dtype=complex)
    for j in range(d):
        v[j * d + (j + s) % d] = np.exp(2j * np.pi * t * j / d)
    return v / np.sqrt(d)


def bell_projector(d: int, s: int = 0, t: int = 0) -> Mat:
    """Rank-one projector onto |phi_st>."""
    return proj(bell_ket(d, s, t), (d, d))


def bell_row_projector(d: int, s: int) -> Mat:
    """Sum over t of P_st: the rank-d projector sum_j |j,j+s><j,j+s|."""
    _check_index(d, s, 0)
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        k = j * d + (j + s) % d
        m[k, k] = 1.0
    return Mat(m, (d, d))


def flip_operator(d: int) -> Mat:
    """Swap operator: F|i,j> = |j,i>."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0
    return Mat(m, (d, d))


def skew_unitary(d: int) -> np.ndarray:
    """Real unitary with U^T = -U, a direct sum of 2x2 blocks [[0,1],[-1,0]].

    Acts on basis kets as U|2m> = -|2m+1>, U|2m+1> = |2m>.
    """
    if d % 2:
        raise ValueError("skew-symmetric unitary requires even dimension")
    u = np.zeros((d, d))
    for m in range(d // 2):
        u[2 * m, 2 * m + 1] = 1.0
        u[2 * m + 1, 2 * m] = -1.0
    return u


def twisted_flip(d: int) -> Mat:
    """The flip conjugated by the skew unitary on the second factor.

    (1 (x) U) F (1 (x) U^dag); Hermitian, squares to the identity.
    """
    u = skew_unitary(d)
    iu = np.kron(np.eye(d), u)
    return Mat(iu @ flip_operator(d).data @ iu.conj().T, (d, d))


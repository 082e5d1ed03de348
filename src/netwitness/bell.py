"""Generalized Bell states and the twisted flip.

Conventions: omega = exp(+2*pi*i/d); ket labels wrap with least non-negative
residues mod d.
"""

from __future__ import annotations

import numpy as np

from .tensor import Mat


def bell_ket(d: int, s: int = 0, t: int = 0) -> np.ndarray:
    """|phi_st> = d^{-1/2} sum_j omega^{tj} |j>|j+s mod d>."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not (0 <= s < d and 0 <= t < d):
        raise ValueError(f"bell index (s={s}, t={t}) out of range for d={d}")
    v = np.zeros(d * d, dtype=complex)
    for j in range(d):
        v[j * d + (j + s) % d] = np.exp(2j * np.pi * t * j / d)
    return v / np.sqrt(d)


def bell_projector(d: int, s: int = 0, t: int = 0) -> Mat:
    """Rank-one projector onto |phi_st>."""
    v = bell_ket(d, s, t)
    return Mat(np.outer(v, v.conj()), (d, d))


def twisted_flip(d: int) -> Mat:
    """The flip F|i,j> = |j,i> conjugated by a skew unitary on the second factor.

    (1 (x) U) F (1 (x) U^dag), with U|2m> = -|2m+1> and U|2m+1> = |2m>, is the
    signed permutation |i, j> -> s |j^1, i^1>, where ^1 flips the lowest bit
    and s = -1 exactly when i and j have the same parity; Hermitian, squares
    to the identity.
    """
    if d % 2 or d < 2:
        raise ValueError("the twisted flip requires an even dimension >= 2")
    i, j = np.divmod(np.arange(d * d), d)
    m = np.zeros((d * d, d * d))
    m[(j ^ 1) * d + (i ^ 1), i * d + j] = np.where((i - j) % 2, 1.0, -1.0)
    return Mat(m, (d, d))

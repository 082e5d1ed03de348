"""Generalized Bell states and the twisted flip.

Conventions: omega = exp(+2*pi*i/d); ket labels wrap with least non-negative
residues mod d.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import Mat, _index, _indices, _read_only


def bell_basis(d: int) -> np.ndarray:
    """Read-only (d*d, d*d) table whose row s*d + t is |phi_st>, built once per d."""
    return _bell_table(_index(d, "dimension"))


@functools.cache
def _bell_table(d: int) -> np.ndarray:
    if d < 2:
        raise ValueError("dimension must be >= 2")
    s, t, j, k = np.ogrid[:d, :d, :d, :d]
    # the phase argument in real arithmetic keeps the bits of the scalar omega^{tj}
    table = np.where(k == (j + s) % d, np.exp(1j * (2 * np.pi * t * j / d)), 0)
    return _read_only(table.reshape(d * d, d * d) / np.sqrt(d))


def bell_ket(d: int, s: int = 0, t: int = 0) -> np.ndarray:
    """|phi_st> = d^{-1/2} sum_j omega^{tj} |j>|j+s mod d>, a read-only row of ``bell_basis``."""
    basis = bell_basis(d)
    s, t = _indices((s, t), "bell indices")
    if not (0 <= s < d and 0 <= t < d):
        raise ValueError(f"bell index (s={s}, t={t}) out of range for d={d}")
    return basis[s * d + t]


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
    if _index(d, "dimension") % 2 or d < 2:
        raise ValueError("the twisted flip requires an even dimension >= 2")
    i, j = np.divmod(np.arange(d * d), d)
    m = np.zeros((d * d, d * d))
    m[(j ^ 1) * d + (i ^ 1), i * d + j] = np.where((i - j) % 2, 1.0, -1.0)
    return Mat(m, (d, d))

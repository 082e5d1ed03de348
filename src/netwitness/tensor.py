"""Dense complex linear algebra on tensor-product spaces.

Every operator carries an explicit list of tensor-factor dimensions, so
partial transposes are unambiguous; every partial transpose in the package
indexes through the digit shifts of ``_pt_shift``. Composite indices are
row-major with the leftmost factor most significant; all transposes are
taken in the computational basis.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

# Structural validation (hermiticity, unit trace, positivity).
STRUCTURAL_TOL = 1e-10


def _index(value, what) -> int:
    """The integer ``value``; a float such as 2.9 is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {value!r}") from None


def _indices(values, what) -> tuple:
    """Integer tuple of ``values``; a float such as 2.9 is rejected, not truncated."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"{what} must be integers, not {values!r}") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Mat:
    """Square complex matrix on a tensor product of factors.

    ``dims`` lists the factor dimensions from most to least significant;
    their product must equal the matrix side.
    """

    data: np.ndarray
    dims: tuple

    def __post_init__(self):
        _settle(self, np.array(self.data, dtype=complex), self.dims)

    @property
    def side(self) -> int:
        return self.data.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def hermiticity_defect(self) -> float:
        """max |M - M^dag| entrywise, over the upper triangle (the defect is
        symmetric) in row blocks of about 2**14 entries: no full-size temporary."""
        m, step = self.data, max(1, 2**14 // self.side)
        return float(functools.reduce(np.maximum, (  # np.maximum keeps a NaN
            np.max(np.abs(m[i:i + step, i:] - m[i:, i:i + step].conj().T))
            for i in range(0, self.side, step)
        )))

    def to_dict(self) -> dict:
        """JSON form {dims, re, im}; entries row-major, as read-only float views."""
        flat = self.data.reshape(-1)
        return {"dims": list(self.dims), "re": flat.real, "im": flat.imag}

    @classmethod
    def from_dict(cls, obj: dict) -> "Mat":
        """Inverse of to_dict; malformed input raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(
                f"matrix JSON must be an object with keys dims, re, im, not {type(obj).__name__}"
            )
        missing = [key for key in ("dims", "re", "im") if key not in obj]
        if missing:
            raise ValueError(f"matrix JSON is missing key(s): {', '.join(missing)}")
        try:
            dims = tuple(operator.index(d) for d in obj["dims"])
            re, im = (np.asarray(obj[key], dtype=float) for key in ("re", "im"))
        except TypeError as exc:
            raise ValueError(f"matrix JSON has a value of the wrong type: {exc}") from None
        if any(isinstance(d, bool) for d in obj["dims"]):
            raise ValueError(f"matrix JSON field dims must hold integers, not {obj['dims']!r}")
        side = math.prod(dims)
        for key, part in (("re", re), ("im", im)):
            if part.shape != (side * side,):
                raise ValueError(f"matrix JSON field {key} must list prod(dims)^2 = {side * side} "
                                 f"numbers, not an array of shape {part.shape}")
        return cls((re + 1j * im).reshape(side, side), dims)


def _settle(m: Mat, data: np.ndarray, dims) -> None:
    """Check ``dims`` against the complex ``data`` and store both on m; m takes
    ``data`` as it is, read-only, without a copy."""
    dims = _indices(dims, "dims")
    if not dims:
        raise ValueError("dims must be non-empty")
    if min(dims) < 2:
        raise ValueError("every tensor factor must have dimension >= 2")
    side = math.prod(dims)  # np.prod would wrap past int64
    if data.shape != (side, side):
        raise ValueError(f"matrix of shape {data.shape} does not match dims {dims}")
    data.setflags(write=False)
    object.__setattr__(m, "data", data)
    object.__setattr__(m, "dims", dims)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix with factor dims."""

    mat: Mat

    def __post_init__(self):
        _check_structure(self.mat)
        if float(np.linalg.eigvalsh(self.mat.data)[0]) < -STRUCTURAL_TOL:
            raise ValueError("density operator has an eigenvalue below -1e-10")

    @property
    def data(self) -> np.ndarray:
        return self.mat.data

    @property
    def dims(self) -> tuple:
        return self.mat.dims


def _check_structure(m: Mat) -> None:
    """The O(n^2) density-operator checks: finite, Hermitian, unit trace."""
    # every comparison against NaN is False, so the checks below would pass
    if not np.isfinite(m.data).all():
        raise ValueError("density operator has a non-finite entry")
    if m.hermiticity_defect() > STRUCTURAL_TOL:
        raise ValueError("density operator is not Hermitian within 1e-10")
    if abs(m.trace() - 1.0) > STRUCTURAL_TOL:
        raise ValueError("density operator trace deviates from 1 beyond 1e-10")


def density(data, dims) -> DensityOperator:
    return DensityOperator(Mat(data, dims))


# A term scatters its nonzero entries when they fill less than 1/_SCATTER_FILL
# of the state; denser terms are cheaper as one broadcast product.
_SCATTER_FILL = 16


def _scatters(nnz: int, side: int) -> bool:
    """Whether ``mixture`` adds a term with nnz nonzero entries by scatter."""
    return nnz * _SCATTER_FILL < side * side


def _mixture_term(term, side: int) -> tuple:
    """The mixture term (c, A, B) or (c, [terms]), its weight and shapes checked."""
    c, *factor = term
    if not (np.isfinite(c) and c >= 0):
        raise ValueError(f"mixture weight {c!r} is not finite and >= 0")
    if len(factor) == 1:
        if not (isinstance(factor[0], list) and factor[0]):
            raise ValueError("a (c, [terms]) mixture term needs a non-empty list of terms, "
                             f"not {type(factor[0]).__name__}")
        return c, [_mixture_term(t, side) for t in factor[0]]
    if len(factor) != 2:
        raise ValueError("a mixture term is (c, A, B) or (c, [terms])")
    a, b = (np.asarray(f) for f in factor)
    if any(f.ndim != 2 or f.shape[0] != f.shape[1] for f in (a, b)):
        raise ValueError(f"mixture factors of shapes {a.shape}, {b.shape} are not square")
    if len(a) * len(b) != side:
        raise ValueError(f"mixture factor sides {len(a)} x {len(b)} do not make side {side}")
    return c, a, b


def _add_terms(checked, side: int, factors: dict) -> np.ndarray:
    """0 + the checked terms, added in order into a new (side, side) array;
    every factor is recorded in ``factors`` by id."""
    acc = np.zeros((side, side), dtype=complex)
    scaled = None  # c * (A (x) B) of the current broadcast term; one buffer for all
    for c, *factor in checked:
        if len(factor) == 1:
            nested = _add_terms(factor[0], side, factors)
            acc += np.multiply(nested, c, out=nested)
            continue
        a, b = factor
        factors.update({id(a): a, id(b): b})
        if _scatters(np.count_nonzero(a) * np.count_nonzero(b), side):
            (ia, ja), (ib, jb) = np.nonzero(a), np.nonzero(b)
            rows, cols = (ia * len(b))[:, None] + ib, (ja * len(b))[:, None] + jb
            vals = np.empty(rows.shape, dtype=complex)  # complex, as the broadcast's buffer
            np.multiply(a[ia, ja][:, None], b[ib, jb], out=vals)
            acc[rows, cols] += np.multiply(vals, c, out=vals)
            continue
        if scaled is None:
            scaled = np.empty_like(acc)
        grid = scaled.reshape(len(a), len(b), len(a), len(b))  # a view: np.kron's entries
        np.multiply(a[:, None, :, None], b[None, :, None, :], out=grid)
        acc += np.multiply(scaled, c, out=scaled)
    return acc


def mixture(terms, dims) -> DensityOperator:
    """The state N = sum_j c_j A_j (x) B_j, certified per term with no dense eigensolve.

    A term is (c, A, B) with square arrays A, B whose sides multiply to the
    state's side, or (c, [terms]) with a non-empty list of such terms; every
    term is checked before any is added. Terms are added in the given order
    onto zeros, a nested list summed onto zeros of its own, scaled by c and
    added as one broadcast, so N has the bits of ``0 + sum(c * T ...)``, T
    being np.kron(A, B) or the nested ``0 + sum(...)``. A product term with
    fewer than side^2 / 16 nonzero entries (nnz(A) * nnz(B)) adds only those:
    the products of A's and B's nonzero entries, made by the same two
    multiplies into complex as the broadcast, are scattered onto their
    Kronecker positions, which are distinct within a term. Any other product
    term is one broadcast product in a full-size buffer, one per list. Both
    give the same bits: a skipped product is +-0, and adding +-0 leaves every
    entry as it was, since a sum starts at +0.0 and only -0.0 + -0.0 gives
    -0.0.

    Every c must be finite and >= 0, every distinct factor Hermitian within
    STRUCTURAL_TOL with smallest eigenvalue >= -STRUCTURAL_TOL (one stacked
    eigvalsh per factor shape); factors need no unit trace. Then, up to
    rounding, lambda_min(N) >= -STRUCTURAL_TOL * sum_j c_j max(|A_j|, |B_j|)
    (spectral norms; c times the nested sum's own bound for a nested term),
    and N is that close to a state separable across the A:B cut. N also
    passes the finite, Hermitian and unit-trace checks of DensityOperator.
    """
    dims = _indices(dims, "dims")
    side = math.prod(dims)
    checked = [_mixture_term(term, side) for term in terms]
    if not checked:
        raise ValueError("mixture needs at least one term")
    factors = {}
    acc = _add_terms(checked, side, factors)
    for shape in {f.shape for f in factors.values()}:
        stack = np.stack([f for f in factors.values() if f.shape == shape])
        # a NaN defect fails the comparison, so a non-finite factor is rejected here
        if not np.max(np.abs(stack - stack.conj().swapaxes(1, 2))) <= STRUCTURAL_TOL:
            raise ValueError("mixture factor is not finite and Hermitian within 1e-10")
        if np.linalg.eigvalsh(stack)[:, 0].min() < -STRUCTURAL_TOL:
            raise ValueError("mixture factor has an eigenvalue below -1e-10")
    mat = object.__new__(Mat)  # mixture owns acc: wrap it without a copy
    _settle(mat, acc, dims)
    _check_structure(mat)
    state = object.__new__(DensityOperator)  # certified above: skip the dense eigvalsh
    object.__setattr__(state, "mat", mat)
    return state


def pairing(terms) -> list:
    """The ``mixture`` terms (c, P, P), P = |v><v|, of (c, ket) terms v: the
    paired state sum_x c_x |v_x><v_x| (x) |v_x><v_x| in the given order."""
    return [(c, p, p) for c, v in terms for p in [np.outer(v, np.conj(v))]]


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2 of a matrix, or of each matrix in a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


@functools.cache
def _pt_shift(dims: tuple, subset: frozenset) -> np.ndarray:
    """Read-only s[i]: the part of composite index i on the factors in ``subset``."""
    side = math.prod(dims)
    digits = np.indices(dims).reshape(len(dims), side)
    place = side // np.cumprod(dims)
    factors = sorted(subset)
    return _read_only(place[factors] @ digits[factors])


def _pt_source(dims, subset, rows, cols):
    """Where entry [rows, cols] of a partial transpose sits in the matrix itself.

    Transposing the factors in ``subset`` swaps their digits between row and
    column index, so with s = _pt_shift(dims, subset)

        pt[i, j] = m[i - s[i] + s[j], j - s[j] + s[i]].

    ``rows`` and ``cols`` broadcast; ``subset`` holds valid factor indices.
    """
    s = _pt_shift(tuple(dims), frozenset(subset))
    return rows - s[rows] + s[cols], cols - s[cols] + s[rows]


def partial_transpose(m: Mat, subset) -> Mat:
    """Transpose the chosen factors' indices only (computational basis)."""
    subset = frozenset(_indices(subset, "subset"))
    n = len(m.dims)
    if any(i < 0 or i >= n for i in subset):
        raise ValueError(f"subset {sorted(subset)} out of range for {n} factors")
    idx = np.arange(m.side)
    return Mat(m.data[_pt_source(m.dims, subset, idx[:, None], idx)], m.dims)

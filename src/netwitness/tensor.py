"""Dense complex linear algebra on tensor-product spaces.

Every operator carries an explicit list of tensor-factor dimensions, so
partial traces, partial transposes and factor embeddings are unambiguous.
Composite indices are row-major with the leftmost factor most significant;
all transposes are taken in the computational basis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Structural validation (hermiticity, unit trace, positivity).
STRUCTURAL_TOL = 1e-10
# Hermiticity required of eigensolver inputs.
EIGEN_INPUT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Mat:
    """Square complex matrix on a tensor product of factors.

    ``dims`` lists the factor dimensions from most to least significant;
    their product must equal the matrix side.
    """

    data: np.ndarray
    dims: tuple

    def __post_init__(self):
        data = np.array(self.data, dtype=complex)
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            raise ValueError(f"dims must be integers, not {self.dims!r}") from None
        if not dims:
            raise ValueError("dims must be non-empty")
        if min(dims) < 2:
            raise ValueError("every tensor factor must have dimension >= 2")
        side = int(np.prod(dims))
        if data.shape != (side, side):
            raise ValueError(f"matrix of shape {data.shape} does not match dims {dims}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)

    @property
    def side(self) -> int:
        return self.data.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def dagger(self) -> "Mat":
        return Mat(self.data.conj().T, self.dims)

    def transpose(self) -> "Mat":
        return Mat(self.data.T, self.dims)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.data - self.data.conj().T)))

    def to_dict(self) -> dict:
        """JSON form {dims, re, im}; entries row-major."""
        flat = self.data.reshape(-1)
        return {
            "dims": list(self.dims),
            "re": flat.real.tolist(),
            "im": flat.imag.tolist(),
        }

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
            flat = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        except TypeError as exc:
            raise ValueError(f"matrix JSON has a value of the wrong type: {exc}") from None
        side = int(np.prod(dims))
        return cls(flat.reshape(side, side), dims)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix with factor dims."""

    mat: Mat

    def __post_init__(self):
        m = self.mat
        # every comparison against NaN is False, so the checks below would pass
        if not np.isfinite(m.data).all():
            raise ValueError("density operator has a non-finite entry")
        if m.hermiticity_defect() > STRUCTURAL_TOL:
            raise ValueError("density operator is not Hermitian within 1e-10")
        if abs(m.trace() - 1.0) > STRUCTURAL_TOL:
            raise ValueError("density operator trace deviates from 1 beyond 1e-10")
        if float(np.linalg.eigvalsh(m.data)[0]) < -STRUCTURAL_TOL:
            raise ValueError("density operator has an eigenvalue below -1e-10")

    @property
    def data(self) -> np.ndarray:
        return self.mat.data

    @property
    def dims(self) -> tuple:
        return self.mat.dims


def density(data, dims) -> DensityOperator:
    return DensityOperator(Mat(data, dims))


def identity(dims) -> Mat:
    dims = tuple(int(d) for d in dims)
    return Mat(np.eye(int(np.prod(dims))), dims)


def proj(ket, dims) -> Mat:
    """Rank-one projector |v><v|."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return Mat(np.outer(v, v.conj()), dims)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; dims concatenate, left factor most significant."""
    return Mat(np.kron(a.data, b.data), a.dims + b.dims)


def partial_trace(m: Mat, keep) -> Mat:
    """Trace out every factor not listed in ``keep`` (order preserved)."""
    keep = sorted({int(i) for i in keep})
    n = len(m.dims)
    if not keep:
        raise ValueError("must keep at least one factor")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    t = m.data.reshape(m.dims + m.dims)
    row = list(range(n))
    # traced factors share their row label; kept columns get fresh labels
    col = [n + i if i in keep else i for i in range(n)]
    out = keep + [n + i for i in keep]
    res = np.einsum(t, row + col, out)
    new_dims = tuple(m.dims[i] for i in keep)
    side = int(np.prod(new_dims))
    return Mat(res.reshape(side, side), new_dims)


def partial_transpose(m: Mat, subset) -> Mat:
    """Transpose the chosen factors' indices only (computational basis)."""
    subset = {int(i) for i in subset}
    n = len(m.dims)
    if any(i < 0 or i >= n for i in subset):
        raise ValueError(f"subset {sorted(subset)} out of range for {n} factors")
    t = m.data.reshape(m.dims + m.dims)
    axes = list(range(2 * n))
    for i in subset:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    return Mat(t.transpose(axes).reshape(m.side, m.side), m.dims)


def hermitian_eigen(m: Mat):
    """Eigenvalues in ascending order and orthonormal eigenvector columns."""
    if m.hermiticity_defect() > EIGEN_INPUT_TOL:
        raise ValueError("matrix is not Hermitian within 1e-8")
    return np.linalg.eigh(m.data)


def embed(op: Mat, targets, full_dims) -> Mat:
    """Place ``op`` on the listed factors of a larger space, identity elsewhere.

    The result is a pure entry permutation of op (x) identity; no arithmetic
    is performed beyond multiplying by exact zeros and ones.
    """
    targets = [int(i) for i in targets]
    full_dims = tuple(int(d) for d in full_dims)
    n = len(full_dims)
    if len(set(targets)) != len(targets):
        raise ValueError("target factors must be distinct")
    if len(targets) != len(op.dims):
        raise ValueError("target list length must match op factor count")
    for pos, d in zip(targets, op.dims):
        if pos < 0 or pos >= n or full_dims[pos] != d:
            raise ValueError(
                f"op dims {op.dims} do not fit full dims {full_dims} at {targets}"
            )
    rest = [i for i in range(n) if i not in targets]
    order = targets + rest
    big = op.data
    if rest:
        big = np.kron(big, np.eye(int(np.prod([full_dims[i] for i in rest]))))
    order_dims = tuple(full_dims[i] for i in order)
    t = big.reshape(order_dims + order_dims)
    axes = [order.index(i) for i in range(n)]
    t = t.transpose(axes + [a + n for a in axes])
    side = int(np.prod(full_dims))
    return Mat(t.reshape(side, side), full_dims)


def overlap(ket, m: Mat) -> complex:
    """<v|m|v> for a column vector v."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    if v.shape[0] != m.side:
        raise ValueError("ket dimension does not match matrix side")
    return complex(v.conj() @ m.data @ v)

"""Entanglement witness families and numerical witness-property checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bell
from .tensor import (STRUCTURAL_TOL, DensityOperator, Mat, _index, hermitian_part,
                     partial_transpose)

# A witness must dip below zero somewhere to detect anything.
NEGATIVITY_TOL = 1e-12
# Slack on each exact Bell-diagonal witness inequality at d <= 3; the reduction
# and Smolin weights sit on the boundary, where rounding may land either side.
LAMBDA_TOL = 1e-12
# A seesaw restart stops once its value moves by less than this.
SEESAW_STOP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian observable with a negative eigenvalue, plus protocol metadata.

    ``eta`` is the detection threshold the matching network state compares
    singlet fractions against; ``lambda_vec`` is set for Bell-diagonal
    families only.
    """

    mat: Mat
    family: str
    eta: float
    lambda_vec: tuple | None = None

    def __post_init__(self):
        # every comparison against NaN is False, so the checks below would pass
        if not np.isfinite(self.mat.data).all():
            raise ValueError(f"{self.family} witness matrix has a non-finite entry")
        if self.mat.hermiticity_defect() > STRUCTURAL_TOL:
            raise ValueError(f"{self.family} witness matrix is not Hermitian")
        if float(np.linalg.eigvalsh(self.mat.data)[0]) >= -NEGATIVITY_TOL:
            raise ValueError(
                f"{self.family} matrix has no negative eigenvalue; it detects nothing"
            )

    @property
    def d(self) -> int:
        return self.mat.dims[0]

    def expectation(self, rho: DensityOperator) -> float:
        return float(np.real(np.trace(self.mat.data @ rho.data)))

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "d": self.d,
            "eta": self.eta,
            "matrix": self.mat.to_dict(),
        }
        if self.lambda_vec is not None:
            out["lambda"] = list(self.lambda_vec)
        return out


def check_lambda_vec(lam) -> tuple:
    lam = tuple(float(x) for x in lam)
    # every comparison against NaN is False, so the checks below would pass
    if not all(math.isfinite(x) for x in lam):
        raise ValueError(f"lambda entries must be finite, got {lam}")
    if any(x < 0 for x in lam):
        raise ValueError("lambda entries must be non-negative")
    if abs(sum(lam) - 1.0) > 1e-9:
        raise ValueError("lambda entries must sum to 1")
    return lam


def two_qubit_pt_witness() -> Witness:
    """The flip witness at d = 2: (|phi+><phi+|)^{T_B} = 0.5*1 - |psi-><psi-|."""
    return flip_witness(2)


def flip_witness(d: int) -> Witness:
    """The flip witness F/d = P_00^PT, threshold 1/d."""
    return decomposable_witness(DensityOperator(bell.bell_projector(d, 0, 0)))


def decomposable_witness(q: DensityOperator) -> Witness:
    """Partial transpose of a unit-trace PSD operator, threshold 1/d."""
    if len(q.dims) != 2 or q.dims[0] != q.dims[1]:
        raise ValueError("Q must live on d (x) d")
    d = q.dims[0]
    return Witness(partial_transpose(q.mat, {1}), "decomposable", 1.0 / d)


def bell_diagonal_witness(
    lam, family: str = "bell-diagonal", check_trials: int = 2000, check_seed: int = 7
) -> Witness:
    """sum_s lambda_s Pi_s - P_00 on d (x) d with d = len(lambda).

    The lambda vector is decided exactly at d = 2 (lambda_0 >= 1/2) and d = 3,
    where 3W is the Choi matrix of the generalized Choi map (Cho, Kye, Lee,
    Linear Algebra Appl. 171, 213, 1992); each inequality is allowed
    LAMBDA_TOL. At d >= 4 two necessary tests screen it: the cyclic sum, d at
    (1, ..., 1), curves by 2 (|hat(w)|^2 - Re hat(w)) there along each Fourier
    mode w (hat the DFT of lambda / sum(lambda)), which must not be positive;
    then the randomized cyclic-inequality falsifier samples the sum.
    """
    lam = check_lambda_vec(lam)
    d, l0, tol = len(lam), lam[0], LAMBDA_TOL
    if d <= 3:
        why = "exact test at d <= 3"
        ok = l0 >= 1 / 2 - tol if d == 2 else l0 >= 1 / 3 - tol and (
            l0 >= 2 / 3 - tol or 9 * lam[1] * lam[2] >= (2 - 3 * l0) ** 2 - tol)
    else:
        hat = np.fft.fft(lam) / sum(lam)
        curvature = np.abs(hat) ** 2 - hat.real
        mode = int(np.argmax(curvature))
        ok, why = curvature[mode] <= tol, (
            f"Fourier mode {mode}: |hat|^2 - Re hat = {curvature[mode]:.2e} > 0")
        if ok:
            result = cyclic_inequality_check(lam, trials=check_trials, rng_seed=check_seed)
            ok, why = result.passed, f"worst value {result.worst_value:.6g} > {d}"
    if not ok:
        raise ValueError(f"not a valid Bell-diagonal witness: cyclic inequality violated ({why})")
    return Witness(_bell_diagonal_matrix(lam), family, l0, lambda_vec=lam)


def _bell_diagonal_matrix(lam) -> Mat:
    """sum_s lambda_s Pi_s - P_00 on d (x) d, d = len(lambda); lambda unscreened.

    Pi_s = sum_j |j,j+s><j,j+s| is diagonal, so the sum is diag(lambda_{(k-j) mod d})
    at |j,k>; + 0.0 gives a -0.0 weight the +0.0 that summing the Pi_s gives."""
    d = len(lam)
    j, k = np.divmod(np.arange(d * d), d)
    diag = np.diag(np.asarray(lam, dtype=float)[(k - j) % d] + 0.0)
    return Mat(diag - bell.bell_projector(d, 0, 0).data, (d, d))


def choi_witness() -> Witness:
    """Qutrit Bell-diagonal witness with lambda = (2/3, 1/3, 0)."""
    return bell_diagonal_witness((2 / 3, 1 / 3, 0.0), family="choi")


def reduction_witness(d: int) -> Witness:
    """1/d - P_00: the uniform Bell-diagonal case."""
    return bell_diagonal_witness((1.0 / d,) * d, family="reduction")


def breuer_hall_witness(d: int) -> Witness:
    """(1/(d-2)) * (1/d - P_00 - F'/d) in even dimension d >= 4."""
    if d % 2 or d < 4:
        raise ValueError("Breuer-Hall witness requires even dimension >= 4")
    return Witness(Mat(_breuer_hall_paired(d).data / (d - 2), (d, d)), "breuer-hall", 1.0 / d)


def _breuer_hall_paired(d: int) -> Mat:
    """The unscaled Breuer-Hall form 1/d - P_00 - F'/d; d unchecked."""
    fp = bell.twisted_flip(d).data
    p00 = bell.bell_projector(d, 0, 0).data
    return Mat(np.eye(d * d) / d - p00 - fp / d, (d, d))


@dataclass(frozen=True)
class CyclicCheckResult:
    passed: bool
    worst_value: float
    worst_t: tuple
    bound: float


def cyclic_inequality_check(lam, trials: int = 10000, rng_seed: int = 0) -> CyclicCheckResult:
    """Randomized falsifier for the cyclic inequalities bounding the LHS by d.

    The LHS is sum_j t_j^2 / sum_s lambda_s t_{j+s}^2, with 0/0 terms skipped
    and x/0 = inf for x > 0. Deterministic corner cases (basis vectors,
    all-ones) are always included; the rest are random non-negative vectors.
    This samples, it does not prove. ``worst_t`` is the first candidate
    reaching the largest LHS.
    """
    lam = check_lambda_vec(lam)
    d = len(lam)
    trials = _index(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    t = np.vstack([np.eye(d), np.ones((1, d)), rng.random((trials, d))])
    t_sq = t * t
    total = np.zeros(len(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        # sums run in the order of the scalar definition, so every LHS keeps
        # its bits and argmax picks the same first worst candidate
        for j in range(d):
            num = t_sq[:, j]
            den = sum(lam[s] * t_sq[:, (j + s) % d] for s in range(d))
            total += np.where((den == 0.0) & (num == 0.0), 0.0, num / den)
    worst = int(np.argmax(total))
    worst_value = float(total[worst])
    return CyclicCheckResult(
        worst_value <= d + 1e-9, worst_value, tuple(t[worst].tolist()), float(d)
    )


def _outer(v: np.ndarray) -> np.ndarray:
    """Row r holds conj(v[r]) (x) v[r], flattened."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)


def sep_floor_estimate(w, restarts: int = 64, iters: int = 200, rng_seed: int = 0) -> float:
    """Seesaw minimum of <a,b|W|a,b> over unit product vectors.

    Alternately eigensolves the d x d operators obtained by conditioning W's
    Hermitian part (all <a,b|W|a,b> sees; taken once) on one side's current
    vector, for all restarts at once, each half-step one matrix product of the
    restarts' outer products with it; a restart stops once its value moves by
    less than SEESAW_STOP_TOL. Returns the lowest value over restarts,
    deterministic for a given seed; values below -1e-6 flag a non-witness.
    """
    restarts, iters = _index(restarts, "restarts"), _index(iters, "iters")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    mat = w.mat if isinstance(w, Witness) else w
    if len(mat.dims) != 2:
        raise ValueError("seesaw expects a bipartite operator")
    da, db = mat.dims
    t = hermitian_part(mat.data).reshape(da, db, da, db)
    # W conditioned on b is _outer(b) @ t_b, on a it is _outer(a) @ t_a
    t_b = t.transpose(1, 3, 0, 2).reshape(db * db, da * da)
    t_a = t.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    # per restart: the starting a (2 da normals; the first half-step replaces
    # it), then the real and imaginary parts of the starting b
    draw = np.random.default_rng(rng_seed).standard_normal((restarts, 2 * da + 2 * db))
    b = draw[:, 2 * da:2 * da + db] + 1j * draw[:, 2 * da + db:]
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    # rows of b and prev hold the restarts still iterating; a finished
    # restart leaves them and its last value folds into best
    best = np.inf
    prev = np.full(restarts, np.inf)
    for _ in range(iters):
        a = np.linalg.eigh((_outer(b) @ t_b).reshape(-1, da, da))[1][:, :, 0]
        vals, vecs = np.linalg.eigh((_outer(a) @ t_a).reshape(-1, db, db))
        b, val = vecs[:, :, 0], vals[:, 0]
        done = np.abs(prev - val) < SEESAW_STOP_TOL
        if done.any():
            best = min(best, val[done].min())
            b, val = b[~done], val[~done]
        prev = val
        if not prev.size:
            break
    return float(np.min(prev, initial=best))

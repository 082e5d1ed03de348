"""Detection protocol: Bell post-selection, teleportation filtering, readout.

The joint space is ordered (layer 1, layer 2, layer 3) where layer 1 holds
the state under test, layers 2 and 3 the network state. The Bell projector
pairs each layer-1 site with its layer-2 partner; because site orders match,
the pair projectors regrouped across layer1:layer2 form a single maximally
entangled projector of the layer dimension D. Everything reduces to the
contraction

    K[x, y] = sum_{ij} rho[i, j] * N[(i, x), (j, y)],

an operator on layer 3, with tr_12[rho (x) N * P] = K / D. The d^6 joint
operator is never materialized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import bell
from .networks import NetworkState
from .tensor import DensityOperator, Mat, _index, _read_only, density

MIN_SUCCESS_PROB = 1e-14
VERDICT_BAND = 1e-9  # |fraction - eta| window where sign cross-checks are skipped
WILSON_Z = 1.959963984540054  # two-sided 95%
MAX_SHOTS = int(np.iinfo(np.int64).max)  # numpy's multinomial counts are int64


class ConsistencyError(RuntimeError):
    """Exact-path verdict disagrees with the directly computed tr[rho W]."""


@dataclass(frozen=True)
class ShotStats:
    n_total: int
    n_postselected: int
    estimate: float | None
    ci_low: float | None
    ci_high: float | None
    seed: int

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one protocol run.

    ``singlet_fraction`` is the overlap of the normalized filtered state with
    the target ket and is compared against ``eta``; ``raw_overlap`` is the
    same overlap scaled by D * success_prob (the unnormalized Bell-outcome
    bookkeeping used by the closed-form identities), compared against
    ``raw_threshold`` = eta * D * success_prob.
    """

    success_prob: float
    singlet_fraction: float
    eta: float
    verdict: str
    witness_expectation: float
    raw_overlap: float
    raw_threshold: float
    shots: ShotStats | None = None
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["shots"] = self.shots.to_dict() if self.shots is not None else None
        out["provenance"] = dict(self.provenance)
        return out


def teleport_contraction(rho: np.ndarray, net: np.ndarray, d2: int, d3: int) -> np.ndarray:
    """K[x,y] = sum_ij rho[i,j] net[(i,x),(j,y)] for net on layer2 (x) layer3 by one batched
    matmul over the (i, x, j, y) view: net is not copied, no temporary exceeds d2 d3^2 entries."""
    if rho.shape != (d2, d2) or net.shape != (d2 * d3, d2 * d3):
        raise ValueError(f"rho of shape {rho.shape} and net of shape {net.shape} "
                         f"do not fit layers of side {d2} and {d3}")
    t = net.reshape(d2, d3, d2, d3)
    return np.matmul(rho[:, None, None, :], t).sum(axis=0)[:, 0, :]


def _teleport(rho: DensityOperator, net: DensityOperator) -> np.ndarray:
    """K for rho through a network on layer 2 (x) layer 3; rejects a state
    whose dims are not the dims of the network's layer 2."""
    layer = net.dims[: len(net.dims) // 2]
    if rho.dims != layer:
        raise ValueError(f"state dims {rho.dims} do not match network layer dims {layer}")
    dim = rho.data.shape[0]
    return teleport_contraction(rho.data, net.data, dim, dim)


def _contract(rho: DensityOperator, net: DensityOperator):
    """K and tr K for rho through net; rejects mismatched dims and a vanishing
    post-selection probability tr K / D."""
    k = _teleport(rho, net)
    trk = float(np.real(np.trace(k)))
    if trk / k.shape[0] <= MIN_SUCCESS_PROB:
        raise ValueError("post-selection probability vanishes")
    return k, trk


def _readout(target, k: np.ndarray) -> float:
    t = np.asarray(target, dtype=complex)
    return float(np.real(t.conj() @ k @ t))


def _filtered_state(k: np.ndarray, trk: float, layer: tuple) -> DensityOperator:
    return density((k + k.conj().T) / (2 * trk), layer)


def filtering_channel(rho: DensityOperator, n: NetworkState):
    """Post-selected teleportation of rho through the network state.

    Returns (success probability, filtered state on the last layer).
    """
    k, trk = _contract(rho, n.state)
    return trk / k.shape[0], _filtered_state(k, trk, n.layer)


def bell_overlap_raw(rho: DensityOperator, n: NetworkState) -> float:
    """<target|K|target> with K the unscaled teleport contraction.

    This is the closed-form Bell-outcome probability; for the two-qubit
    family it equals 1/8 - tr[rho W]/4, for GHZ 1/16 - tr[rho W]/8.
    """
    return target_overlap(rho, n.state, n.target)


def target_overlap(rho: DensityOperator, net: DensityOperator, target) -> float:
    """<target|K|target> with K the unscaled teleport contraction of rho
    through the network matrix ``net``."""
    return _readout(target, _teleport(rho, net))


def measurement_circuit_probs(sigma: DensityOperator) -> np.ndarray:
    """Computational-basis outcome table after undoing the Bell-pair circuit.

    Applies (H^dag (x) 1) CNOT^dag and reads both sites; entry [j, k] is the
    outcome probability, and [0, 0] equals the singlet fraction. The circuit
    maps each Bell ket to a computational one, (H^dag (x) 1) CNOT^dag |phi_st>
    = |t, s>, so entry [t, s] is <phi_st|sigma|phi_st>.
    """
    d, *rest = sigma.dims
    if rest != [d]:
        raise ValueError(f"the readout circuit needs two equal sites, not dims {sigma.dims}")
    u = _readout_circuit(d)
    probs = np.real(np.diag(u @ sigma.data @ u.conj().T))
    return probs.reshape(d, d)


@functools.cache
def _readout_circuit(d: int) -> np.ndarray:
    """Read-only (H^dag (x) 1) CNOT^dag on two qudits: row (t, s) is <phi_st|."""
    rows = bell.bell_basis(d).reshape(d, d, d * d).swapaxes(0, 1).reshape(d * d, d * d)
    return _read_only(rows.conj())


@functools.cache
def _weyl_tables(d: int):
    """Read-only shift[x, i] = i + x per site mod d, and phase = kron(F, F)
    with F[a, b] = omega^{ab}."""
    site = np.arange(d)
    wrap = (site[:, None] + site) % d  # wrap[s, i] = i + s mod d
    shift = (wrap[:, None, :, None] * d + wrap[None, :, None, :]).reshape(d * d, d * d)
    f = np.exp(2j * np.pi * (np.outer(site, site) % d) / d)
    return _read_only(shift), _read_only(np.kron(f, f))


def bell_outcome_distribution(rho: DensityOperator, n: NetworkState) -> np.ndarray:
    """Joint Bell-measurement distribution p[s,t,u,v] over both site pairs.

    (s,t) labels the outcome on (A1,A2) and (u,v) on (B1,B2); the (0,0),(0,0)
    entry is the protocol's post-selection probability. An outcome conjugates
    layer 2 by W = W_st (x) W_uv = sum_i omega^{z.i} |i+x><i|, x = (s,u), z = (t,v),
    so with n2 = tr_3 N, D = d^2 and j = i+e, D p = Re tr[rho^T W^dag n2 W] =
    Re sum_{i,e} rho[i, i+e] n2[i+x, i+x+e] omega^{z.e}: a cyclic correlation of
    shifted diagonals, then one two-site Fourier transform, in O(d^6) work.
    """
    d, *rest = n.layer
    if rest != [d]:
        raise ValueError(f"Bell outcome tables need a layer of two equal sites, not {n.layer}")
    d2 = d * d
    shift, phase = _weyl_tables(d)
    n2 = np.trace(n.state.data.reshape(d2, d2, d2, d2), axis1=1, axis2=3)
    rows = np.arange(d2)
    diag = n2[rows, shift]  # diag[e, k] = n2[k, k+e]
    c = np.einsum("exi,ei->xe", diag[:, shift], rho.data[rows, shift])
    p = np.real(c @ phase) / d2  # p[(s,u), (t,v)]
    return p.reshape(d, d, d, d).transpose(0, 2, 1, 3)


def _verdict(fraction: float, eta: float) -> str:
    return "detected" if fraction > eta else "not_detected"


def detect_exact(rho: DensityOperator, n: NetworkState, *,
                 provenance: dict | None = None) -> DetectionReport:
    """Run the exact protocol and cross-check the verdict against tr[rho W],
    W the network's own witness.

    The verdict compares the filtered singlet fraction against eta with a
    strict inequality; disagreement with the sign of tr[rho W] outside a
    1e-9 band around the threshold raises ConsistencyError.
    """
    return detect_target(rho, n.state, n.witness, n.eta, n.target, provenance)[0]


def detect_target(rho: DensityOperator, net: DensityOperator, wmat: Mat, eta: float,
                  target, provenance: dict | None = None):
    """Exact protocol run through the network matrix ``net``, read out against
    the ``target`` ket of its last layer, cross-checked against tr[rho W].

    Returns the DetectionReport together with the contraction K and tr K.
    """
    k, trk = _contract(rho, net)
    raw = _readout(target, k)
    fraction = raw / trk
    wexp = float(np.real(np.trace(wmat.data @ rho.data)))
    if abs(fraction - eta) > VERDICT_BAND and (fraction > eta) != (wexp < 0):
        raise ConsistencyError(
            f"fraction {fraction:.12g} vs eta {eta:.12g} disagrees with "
            f"tr[rho W] = {wexp:.12g}"
        )
    report = DetectionReport(
        success_prob=trk / k.shape[0],
        singlet_fraction=fraction,
        eta=eta,
        verdict=_verdict(fraction, eta),
        witness_expectation=wexp,
        raw_overlap=raw,
        raw_threshold=eta * trk,
        provenance=provenance or {},
    )
    return report, k, trk


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion. The lower end at
    0 successes and the upper end at ``trials`` are exactly 0 and 1."""
    if trials == 0:
        raise ValueError("no trials")
    z = WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else center - half
    hi = 1.0 if successes == trials else center + half
    return lo, hi


def detect_shots(rho: DensityOperator, n: NetworkState, *, shots: int = 10000,
                 rng_seed: int = 0, provenance: dict | None = None) -> DetectionReport:
    """Finite-statistics emulation of the protocol.

    Every shot draws a joint Bell outcome on both pairs from the exact
    distribution; shots post-selected on the double (0,0) outcome draw a
    computational readout from the measurement-circuit table of the filtered
    state, so the network's target must be |phi_00>. The estimate is the
    frequency of (0,0) readouts among post-selected shots, with a 95% Wilson
    interval. A fixed seed reproduces the sample only from a bit-identical
    distribution: numpy's multinomial draws binomials that branch at p = 1/2,
    so one ulp can move every count.
    """
    shots = _index(shots, "shots")
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], not {shots}")
    exact, k, trk = detect_target(rho, n.state, n.witness, n.eta, n.target, provenance)
    rng = np.random.default_rng(rng_seed)
    p = bell_outcome_distribution(rho, n).reshape(-1)
    if not np.array_equal(n.target, bell.bell_ket(n.d)):
        raise ValueError("the readout circuit reads |phi_00>, not this network's target")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    bell_counts = rng.multinomial(shots, p)
    n_post = int(bell_counts[0])  # flat index 0 == (0,0),(0,0)
    if n_post == 0:
        stats = ShotStats(shots, 0, None, None, None, rng_seed)
        return replace(exact, verdict="inconclusive", shots=stats)
    q = measurement_circuit_probs(_filtered_state(k, trk, n.layer)).reshape(-1)
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    readout_counts = rng.multinomial(n_post, q)
    hits = int(readout_counts[0])  # flat index 0 == outcome (0, 0)
    estimate = hits / n_post
    lo, hi = wilson_interval(hits, n_post)
    stats = ShotStats(shots, n_post, estimate, float(lo), float(hi), rng_seed)
    return replace(exact, verdict=_verdict(estimate, exact.eta), shots=stats)

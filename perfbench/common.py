"""Seeded generators and the closed-loop pass runner shared by the workloads."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import oracle


def rng_for(seed: int, *purpose: int) -> np.random.Generator:
    """Independent stream per (workload seed, purpose) so inputs never share draws."""
    return np.random.default_rng([seed, *purpose])


def ginibre_state(dim: int, rng, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_ket(dim: int, rng) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def product_mixture(dims, terms: int, rng) -> np.ndarray:
    """Uniform mixture of random product pure states (separable by construction)."""
    side = int(np.prod(dims))
    m = np.zeros((side, side), dtype=complex)
    for _ in range(terms):
        v = np.ones(1, dtype=complex)
        for d in dims:
            v = np.kron(v, random_ket(d, rng))
        m += oracle.projector(v) / terms
    return m


def isotropic(d: int, fidelity: float) -> np.ndarray:
    p00 = oracle.projector(oracle.bell_ket(d))
    return fidelity * p00 + (1 - fidelity) * (np.eye(d * d) - p00) / (d * d - 1)


@dataclass
class PassResult:
    starts: list
    latencies: list
    failures: list

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(ops, run, check, tr, between=None) -> PassResult:
    """One closed-loop pass: each op starts when the previous one has returned.

    Only the calls are timed, and the pass's wall time is the sum of its op
    times; ``between`` (the host-speed kernel) runs before each op, untimed.
    Outputs are checked after the loop and then dropped, so memory does not
    grow with the number of passes. An op that raises counts as failed with
    its exception as the message.
    """
    results, starts, latencies = [], [], []
    for op in ops:
        if between is not None:
            between()
        t0 = time.perf_counter()
        starts.append(t0)
        with tr.span("op"):
            try:
                out = run(op, tr)
            except Exception as exc:  # counted in fail_ratio, run continues
                out = exc
        latencies.append(time.perf_counter() - t0)
        results.append(out)
    failures = []
    for op, out in zip(ops, results):
        errs = [f"{type(out).__name__}: {out}"] if isinstance(out, Exception) else check(op, out)
        if errs:
            failures.append(f"{op.name}: {'; '.join(errs)}")
    return PassResult(starts, latencies, failures)

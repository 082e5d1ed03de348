"""Graph states and the n-party extension of the detection protocol.

A graph basis ket is built from the graph-state circuit (|+>^n, then a
controlled-Z on every edge) with Z flips at the labelled vertices; GHZ and
cluster witnesses pair these kets uniformly across the network layers.

Qubits are vertices 1..n; the joint protocol space is grouped by layer,
(layer 1 vertices, layer 2 vertices, layer 3 vertices), and the Bell
projector pairs vertex v of layer 1 with vertex v of layer 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import protocol
from .tensor import DensityOperator, Mat, _indices, _read_only, mixture
from .witnesses import Witness


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph on vertices 1..n with edges (i, j), i < j."""

    n: int
    edges: tuple

    def __post_init__(self):
        (n,) = _indices((self.n,), "n")
        edges = tuple(_indices(e, "edge vertices") for e in self.edges)
        seen = set()
        for i, j in edges:
            if not (1 <= i < j <= n):
                raise ValueError(f"edge ({i},{j}) invalid for n={n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        if n < 1:
            raise ValueError("graph needs at least one vertex")


def cl4_graph() -> GraphSpec:
    """The length-four linear cluster graph 1-2-3-4."""
    return GraphSpec(4, ((1, 2), (2, 3), (3, 4)))


# label set for the four-qubit linear cluster witness
CL4_LABELS = (
    "0000", "0001", "0010", "0011", "0100", "0101",
    "0110", "0111", "1000", "1010", "1100", "1110",
)


def _parse_label(x, n: int) -> tuple:
    bits = tuple(int(c) for c in x) if isinstance(x, str) else _indices(x, "label bits")
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"label {x!r} is not a length-{n} bit string")
    return bits


def graph_state_circuit(g: GraphSpec) -> np.ndarray:
    """|+>^n followed by a controlled-Z on every edge."""
    ket = np.full(2**g.n, 2.0 ** (-g.n / 2))
    t = ket.reshape((2,) * g.n)
    for i, j in g.edges:
        sl = [slice(None)] * g.n
        sl[i - 1] = 1
        sl[j - 1] = 1
        t[tuple(sl)] *= -1.0
    return t.reshape(-1)


def graph_basis_state(g: GraphSpec, x) -> np.ndarray:
    """Joint eigenket of the generators with signs (-1)^{x_i}.

    Built by flipping the base circuit state with Z at every vertex where
    x_i = 1; the projector-product definition is kept as the test oracle.
    """
    bits = _parse_label(x, g.n)
    t = graph_state_circuit(g).reshape((2,) * g.n).copy()
    for i, b in enumerate(bits):
        if b:
            sl = [slice(None)] * g.n
            sl[i] = 1
            t[tuple(sl)] *= -1.0
    return t.reshape(-1)


def graph_witness(g: GraphSpec, labels) -> Witness:
    """(1/2) sum over the label set of graph projectors, minus the all-zeros one."""
    labels = [_parse_label(x, g.n) for x in labels]
    if not labels:
        raise ValueError("label set must be non-empty")
    if (0,) * g.n not in labels:
        raise ValueError("label set must contain the all-zeros string")
    m = np.zeros((2**g.n, 2**g.n), dtype=complex)
    for bits in labels:
        v = graph_basis_state(g, bits)
        m += 0.5 * np.outer(v, v.conj())
    v0 = graph_basis_state(g, (0,) * g.n)
    m -= np.outer(v0, v0.conj())
    return Witness(Mat(m, (2,) * g.n), "graph", 0.5)


def _uniform_pairing(kets, dims) -> DensityOperator:
    """(1/|S|) sum over the kets |v> of |v><v| (x) |v><v| across layers 2 and 3."""
    projectors = [np.outer(v, v.conj()) for v in kets]
    return mixture(((1 / len(projectors), p, p) for p in projectors), dims)


def graph_network(g: GraphSpec, labels) -> DensityOperator:
    """Uniform pairing of graph-basis projectors across layers 2 and 3."""
    labels = [_parse_label(x, g.n) for x in labels]
    if not labels:
        raise ValueError("label set must be non-empty")
    kets = [graph_basis_state(g, bits) for bits in labels]
    return _uniform_pairing(kets, (2,) * (2 * g.n))


def ghz_ket(a: int = 0, b: int = 0, c: int = 0) -> np.ndarray:
    """Z^a (x) X^b (x) X^c applied to (|000> + |111>)/sqrt(2)."""
    if any(v not in (0, 1) for v in (a, b, c)):
        raise ValueError("labels must be bits")
    v = np.zeros(8)
    v[0] = v[7] = 1 / np.sqrt(2)
    t = v.reshape(2, 2, 2).copy()
    if a:
        t[1, :, :] *= -1.0
    if b:
        t = t[:, ::-1, :]
    if c:
        t = t[:, :, ::-1]
    return t.reshape(-1)


def ghz_witness() -> Witness:
    """(1/2) 1 - GHZ projector on three qubits."""
    v = ghz_ket()
    m = np.eye(8) / 2 - np.outer(v, v)
    return Witness(Mat(m, (2, 2, 2)), "ghz", 0.5)


def ghz_network() -> DensityOperator:
    """Uniform pairing of the eight GHZ-family projectors across two layers."""
    kets = [ghz_ket(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    return _uniform_pairing(kets, (2,) * 6)


# <target|K|target> for an n-qubit layer; the unscaled contraction value
multi_overlap_raw = protocol.target_overlap


def detect_multi_exact(rho: DensityOperator, net: DensityOperator, w: Witness,
                       target, provenance: dict | None = None) -> protocol.DetectionReport:
    """Exact n-party protocol run: vertex-wise Bell pairs, then target readout
    against the threshold ``w.eta``."""
    return protocol.detect_target(rho, net, w.mat, w.eta, target, provenance)[0]


# The protocol objects are immutable (Mat data and the target are read-only),
# so each family is built and validated once per process.
@functools.cache
def _ghz_protocol():
    """(network, witness, target ket) of the GHZ protocol."""
    return ghz_network(), ghz_witness(), _read_only(ghz_ket())


@functools.cache
def _cl4_protocol():
    """(network, witness, target ket) of the four-qubit cluster protocol."""
    g = cl4_graph()
    return (graph_network(g, CL4_LABELS), graph_witness(g, CL4_LABELS),
            _read_only(graph_basis_state(g, "0000")))


def ghz_detect_exact(rho: DensityOperator, provenance: dict | None = None):
    return detect_multi_exact(rho, *_ghz_protocol(), provenance=provenance)


def cl4_detect_exact(rho: DensityOperator, provenance: dict | None = None):
    return detect_multi_exact(rho, *_cl4_protocol(), provenance=provenance)

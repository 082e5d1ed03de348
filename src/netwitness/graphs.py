"""Graph states and the n-party extension of the detection protocol.

A graph basis ket is |G_x> = CZ_E H^n |x> for a bit string x and edge set E
(Hein, Eisert, Briegel, PRA 69, 062311, 2004). H^n gives |b> the sign
(-1)^{x.b} and the controlled-Z on an edge (i, j) the sign (-1)^{b_i b_j}, so
<b|G_x> = 2^{-n/2} (-1)^{sum_E b_i b_j + x.b}. ``_graph_signs`` builds these
signs as one +-1 table and each builder scales it by a power of two once, so
every sum over the table is an exact integer, at every n and in any order.

For labels S containing 0, the network N = |S|^-1 sum_{x in S} |G_x><G_x|
(x) |G_x><G_x| contracts rho, K[a, b] = sum_ij rho[i, j] N[(i, a), (j, b)],
to K = |S|^-1 sum_{x in S} <G_x|rho|G_x> |G_x><G_x| (the kets are real).
They are orthonormal, so the fraction read out on |G_0> is <G_0|K|G_0> / tr K
= <G_0|rho|G_0> / sum_{x in S} <G_x|rho|G_x>. It exceeds 1/2 exactly when
tr[rho W] < 0 for the witness W = (1/2) sum_{x in S} |G_x><G_x| - |G_0><G_0|.

Qubits are vertices 1..n; the joint protocol space is grouped by layer,
(layer 1 vertices, layer 2 vertices, layer 3 vertices), and the Bell
projector pairs vertex v of layer 1 with vertex v of layer 2.
``graph_protocol`` packs N, W, eta = 1/2, the reconstruction constant 1/|S|
and the target |G_0> into one ``networks.NetworkState``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import protocol
from .networks import NetworkState
from .tensor import DensityOperator, Mat, _index, _indices, mixture, pairing
from .witnesses import Witness


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph on vertices 1..n with edges (i, j), i < j."""

    n: int
    edges: tuple

    def __post_init__(self):
        n = _index(self.n, "n")
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


def _graph_signs(g: GraphSpec, labels) -> np.ndarray:
    """(|S|, 2^n) table of +-1.0 whose row s is 2^{n/2} times the graph basis
    ket of the s-th label."""
    rows = {}
    for x in labels:
        # a character other than "0" or "1" reads as -1, which is not a bit
        bits = tuple("01".find(c) for c in x) if isinstance(x, str) else _indices(x, "label bits")
        if len(bits) != g.n or any(b not in (0, 1) for b in bits):
            raise ValueError(f"label {x!r} is not a length-{g.n} bit string")
        if bits in rows:
            raise ValueError(f"repeated graph label {x!r}")
        rows[bits] = None
    if not rows:
        raise ValueError("label set must be non-empty")
    b = (np.arange(2**g.n)[:, None] >> np.arange(g.n - 1, -1, -1)) & 1  # bit of vertex i+1 in |k>
    i, j = (np.array(g.edges, dtype=int).reshape(-1, 2) - 1).T
    parity = (b[:, i] & b[:, j]).sum(axis=1) + np.array(list(rows)) @ b.T
    return np.where(parity % 2, -1.0, 1.0)


def graph_basis_state(g: GraphSpec, x) -> np.ndarray:
    """Joint eigenket of the generators with signs (-1)^{x_i}."""
    return _graph_signs(g, [x])[0] * 2.0 ** (-g.n / 2)


def graph_witness(g: GraphSpec, labels) -> Witness:
    """(1/2) sum over the label set of graph projectors, minus the all-zeros one."""
    signs = _graph_signs(g, labels)
    s0 = _graph_signs(g, [(0,) * g.n])[0]
    if not (signs == s0).all(axis=1).any():
        raise ValueError("label set must contain the all-zeros string")
    m = 2.0**-g.n * (0.5 * (signs.T @ signs) - np.outer(s0, s0))
    return Witness(Mat(m, (2,) * g.n), "graph", 0.5)


def graph_network(g: GraphSpec, labels) -> DensityOperator:
    """Uniform pairing of graph-basis projectors across layers 2 and 3."""
    signs = _graph_signs(g, labels)
    return mixture(pairing((4.0**-g.n / len(signs), s) for s in signs), (2,) * (2 * g.n))


# GHZ is the star graph 1-2, 1-3 seen through a Hadamard on each leaf:
# (1 (x) H (x) H) |G_abc> = Z^a (x) X^b (x) X^c (|000> + |111>)/sqrt(2).
_STAR = GraphSpec(3, ((1, 2), (1, 3)))
_H = np.array([[1, 1], [1, -1]])
_LEAF_FRAME = np.kron(np.eye(2, dtype=int), np.kron(_H, _H))


def ghz_ket(a: int = 0, b: int = 0, c: int = 0) -> np.ndarray:
    """Z^a (x) X^b (x) X^c applied to (|000> + |111>)/sqrt(2)."""
    # the frame takes the +-1 signs to 0 and +-4, so only the last division rounds
    return (_LEAF_FRAME @ _graph_signs(_STAR, [(a, b, c)])[0]) / 4 / np.sqrt(2)


def ghz_witness() -> Witness:
    """(1/2) 1 - GHZ projector on three qubits."""
    v = ghz_ket()
    m = np.eye(8) / 2 - np.outer(v, v)
    return Witness(Mat(m, (2, 2, 2)), "ghz", 0.5)


def ghz_network() -> DensityOperator:
    """Uniform pairing of the eight GHZ-family projectors across two layers."""
    kets = (ghz_ket(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    return mixture(pairing((1 / 8, v) for v in kets), (2,) * 6)


# <target|K|target> for an n-qubit layer; the unscaled contraction value
multi_overlap_raw = protocol.target_overlap


def detect_multi_exact(rho: DensityOperator, net: DensityOperator, w: Witness,
                       target, provenance: dict | None = None) -> protocol.DetectionReport:
    """Exact n-party protocol run: vertex-wise Bell pairs, then target readout
    against the threshold ``w.eta``."""
    return protocol.detect_target(rho, net, w.mat, w.eta, target, provenance)[0]


def graph_protocol(g: GraphSpec, labels) -> NetworkState:
    """The protocol of ``graph_witness``: ``graph_network`` read out on |G_0>."""
    labels = tuple(labels)
    w = graph_witness(g, labels)
    return NetworkState(graph_network(g, labels), w.eta, 1 / len(labels), w.family, w.mat,
                        graph_basis_state(g, (0,) * g.n))


# The protocol objects are immutable (Mat data and the target are read-only),
# so each family is built and validated once per process.
@functools.cache
def ghz_protocol() -> NetworkState:
    """The GHZ protocol: the eight paired GHZ projectors read out on the GHZ ket."""
    w = ghz_witness()
    return NetworkState(ghz_network(), w.eta, 1 / 8, w.family, w.mat, ghz_ket())


@functools.cache
def cl4_protocol() -> NetworkState:
    """The four-qubit linear cluster protocol."""
    return graph_protocol(cl4_graph(), CL4_LABELS)


def ghz_detect_exact(rho: DensityOperator, provenance: dict | None = None):
    return protocol.detect_exact(rho, ghz_protocol(), provenance=provenance)


def cl4_detect_exact(rho: DensityOperator, provenance: dict | None = None):
    return protocol.detect_exact(rho, cl4_protocol(), provenance=provenance)

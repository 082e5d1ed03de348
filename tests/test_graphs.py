import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from netwitness import cli, graphs, protocol
from netwitness.graphs import (
    CL4_LABELS,
    GraphSpec,
    cl4_graph,
    ghz_detect_exact,
    ghz_ket,
    ghz_network,
    ghz_witness,
    graph_basis_state,
    graph_network,
    graph_protocol,
    graph_witness,
    multi_overlap_raw,
)
from netwitness.networks import ppt_report, reconstruct_witness
from netwitness.states import random_state
from netwitness.tensor import Mat, density, mixture, pairing
from netwitness.witnesses import Witness

X = np.array([[0, 1], [1, 0]])
Z = np.diag([1.0, -1.0])

PATH2 = GraphSpec(2, ((1, 2),))
CYCLE5 = GraphSpec(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
CYCLE5_LABELS = ("00000", "00001", "00110", "01010", "10011", "10101", "11100", "11111")


def dm(ket, dims):
    return density(np.outer(ket, np.conj(ket)), dims)


# --- oracles: the stabilizer-generator, projector-product and dense-circuit
# forms of the graph basis, which graph_basis_state must agree with ---


def neighbors(g: GraphSpec, i: int) -> tuple:
    out = []
    for a, b in g.edges:
        if a == i:
            out.append(b)
        elif b == i:
            out.append(a)
    return tuple(sorted(out))


def single_site(op, i: int, n: int) -> np.ndarray:
    m = np.array([[1.0]])
    for j in range(1, n + 1):
        m = np.kron(m, op if j == i else np.eye(2))
    return m


def generator(g: GraphSpec, i: int) -> Mat:
    """Stabilizer generator: X at vertex i, Z at each neighbor."""
    if not (1 <= i <= g.n):
        raise ValueError(f"vertex {i} out of range 1..{g.n}")
    m = single_site(X, i, g.n)
    for j in neighbors(g, i):
        m = m @ single_site(Z, j, g.n)
    return Mat(m, (2,) * g.n)


def label_bits(x) -> tuple:
    return tuple(int(c) for c in x) if isinstance(x, str) else tuple(x)


def graph_basis_projector(g: GraphSpec, x) -> Mat:
    """Product of (1 + (-1)^{x_i} g_i)/2 over all vertices."""
    bits = label_bits(x)
    m = np.eye(2**g.n, dtype=complex)
    for i, b in enumerate(bits, start=1):
        gi = generator(g, i).data
        m = m @ (np.eye(2**g.n) + (-1) ** b * gi) / 2
    return Mat(m, (2,) * g.n)


def graph_measurement_circuit(g: GraphSpec, sigma) -> float:
    """All-zeros outcome probability after undoing the graph circuit.

    Applies Hadamards on every vertex after the edge controlled-Z gates, as
    dense 2^n x 2^n matrices; the probability equals the overlap with the
    all-zeros graph basis state.
    """
    if len(sigma.dims) != g.n:
        raise ValueError(f"state must live on {g.n} qubits")
    dim = 2**g.n
    cz_diag = np.ones(dim)
    for idx in range(dim):
        bits = [(idx >> (g.n - 1 - q)) & 1 for q in range(g.n)]
        flips = sum(bits[i - 1] & bits[j - 1] for i, j in g.edges)
        if flips % 2:
            cz_diag[idx] = -1.0
    h_all = np.array([[1.0]])
    for _ in range(g.n):
        h_all = np.kron(h_all, np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
    u = h_all @ np.diag(cz_diag)
    return float(np.real((u @ sigma.data @ u.conj().T)[0, 0]))


class TestGraphSpec:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            GraphSpec(3, ((2, 2),))
        with pytest.raises(ValueError):
            GraphSpec(3, ((1, 4),))
        with pytest.raises(ValueError):
            GraphSpec(3, ((1, 2), (1, 2)))

    @pytest.mark.parametrize("n, edges", [(3, ((1.7, 2),)), (3, ((1, 2.0),)), (2.5, ()),
                                          ("3", ())])
    def test_rejects_non_integer_vertices(self, n, edges):
        message = "^(n must be an integer|edge vertices must be integers), not"
        with pytest.raises(ValueError, match=message):
            GraphSpec(n, edges)

    def test_numpy_integers_accepted(self):
        g = GraphSpec(np.int64(3), ((np.int64(1), 2),))
        assert g == GraphSpec(3, ((1, 2),))
        assert type(g.n) is int and type(g.edges[0][0]) is int

    def test_neighbors(self):
        g = cl4_graph()
        assert neighbors(g, 2) == (1, 3)
        assert neighbors(g, 4) == (3,)


class TestGenerators:
    def test_single_vertex(self):
        g = GraphSpec(1, ())
        assert np.array_equal(generator(g, 1).data.real, X)

    def test_path_graph(self):
        g1 = generator(PATH2, 1).data.real
        g2 = generator(PATH2, 2).data.real
        assert np.array_equal(g1, np.kron(X, Z))
        assert np.array_equal(g2, np.kron(Z, X))
        assert np.array_equal(g1 @ g2, g2 @ g1)

    def test_generators_square_to_identity_cl4(self):
        g = cl4_graph()
        for i in range(1, 5):
            gi = generator(g, i).data
            assert np.allclose(gi @ gi, np.eye(16), atol=1e-12)

    def test_all_pairs_commute_cl4(self):
        g = cl4_graph()
        gens = [generator(g, i).data for i in range(1, 5)]
        for a, b in itertools.combinations(gens, 2):
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            generator(PATH2, 3)


class TestGraphBasis:
    def test_single_vertex_plus_state(self):
        g = GraphSpec(1, ())
        v = graph_basis_state(g, (0,))
        assert np.allclose(v, np.array([1, 1]) / np.sqrt(2))
        v1 = graph_basis_state(g, (1,))
        assert np.allclose(v1, np.array([1, -1]) / np.sqrt(2))

    def test_stabilizer_relations(self):
        for g in (PATH2, GraphSpec(3, ((1, 2), (2, 3))), cl4_graph()):
            gens = [generator(g, i).data for i in range(1, g.n + 1)]
            for bits in itertools.product((0, 1), repeat=g.n):
                v = graph_basis_state(g, bits)
                for i, gi in enumerate(gens):
                    assert np.max(np.abs(gi @ v - (-1) ** bits[i] * v)) <= 1e-12

    def test_gram_matrix_cl4(self):
        g = cl4_graph()
        kets = [graph_basis_state(g, bits) for bits in itertools.product((0, 1), repeat=4)]
        gram = np.array([[ki.conj() @ kj for kj in kets] for ki in kets])
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-12

    def test_matches_projector_oracle(self):
        g = cl4_graph()
        for bits in (("0000"), ("0101"), ("1110")):
            v = graph_basis_state(g, bits)
            p = graph_basis_projector(g, bits).data
            assert np.max(np.abs(np.outer(v, v.conj()) - p)) <= 1e-12

    def test_projector_annihilates_other_labels(self):
        g = PATH2
        p = graph_basis_projector(g, (0, 1)).data
        v = graph_basis_state(g, (1, 1))
        assert np.max(np.abs(p @ v)) <= 1e-12


class TestCircuit:
    def test_empty_graph(self):
        g = GraphSpec(2, ())
        assert np.allclose(graph_basis_state(g, (0, 0)), np.full(4, 0.5))

    def test_single_edge_explicit(self):
        v = graph_basis_state(PATH2, (0, 0))
        assert np.allclose(v, np.array([1, 1, 1, -1]) / 2)


class TestGhz:
    def test_ghz_ket(self):
        v = ghz_ket()
        expect = np.zeros(8)
        expect[0] = expect[7] = 1 / np.sqrt(2)
        assert np.allclose(v, expect)

    def test_family_orthonormal(self):
        kets = [ghz_ket(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        gram = np.array([[ki @ kj for kj in kets] for ki in kets])
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12

    def test_z_flip_orthogonality(self):
        assert abs(ghz_ket(0, 0, 0) @ ghz_ket(1, 0, 0)) <= 1e-12

    def test_network_valid(self):
        net = ghz_network()
        assert np.isclose(np.trace(net.data), 1.0)
        assert net.dims == (2,) * 6

    def test_identity_random_states(self):
        net = ghz_network()
        w = ghz_witness()
        target = ghz_ket()
        for seed in range(50):
            rho = random_state((2, 2, 2), rng_seed=seed)
            raw = multi_overlap_raw(rho, net, target)
            expect = 1 / 16 - w.expectation(rho) / 8
            assert abs(raw - expect) <= 1e-10

    def test_ghz_state_detected(self):
        rep = ghz_detect_exact(dm(ghz_ket(), (2, 2, 2)))
        assert abs(rep.raw_overlap - 0.125) <= 1e-12
        assert rep.verdict == "detected"
        assert abs(rep.witness_expectation + 0.5) <= 1e-12


class TestGraphWitnessAndNetwork:
    def test_cl4_witness_values(self):
        g = cl4_graph()
        w = graph_witness(g, CL4_LABELS)
        cluster = dm(graph_basis_state(g, "0000"), (2,) * 4)
        assert abs(w.expectation(cluster) + 0.5) <= 1e-12
        mixed = density(np.eye(16) / 16, (2,) * 4)
        assert abs(w.expectation(mixed) - 5 / 16) <= 1e-12

    def test_label_set_validation(self):
        g = cl4_graph()
        with pytest.raises(ValueError, match="non-empty"):
            graph_witness(g, [])
        with pytest.raises(ValueError, match="all-zeros"):
            graph_witness(g, ["0001"])
        # a float bit is rejected, not truncated to 0 or 1
        with pytest.raises(ValueError, match="must be integers"):
            graph_witness(g, [(0.5, 0, 0, 0)])
        with pytest.raises(ValueError, match="must be integers"):
            graph_basis_state(g, (0.9, 0, 0, 1.2))
        assert np.array_equal(graph_basis_state(g, (0, 0, 0, np.int64(1))),
                              graph_basis_state(g, "0001"))

    def test_network_valid(self):
        g = cl4_graph()
        net = graph_network(g, CL4_LABELS)
        assert np.isclose(np.trace(net.data), 1.0)
        vals = np.linalg.eigvalsh(net.data)
        assert vals[0] >= -1e-12

    def test_cluster_state_detected(self):
        g = cl4_graph()
        cluster = dm(graph_basis_state(g, "0000"), (2,) * 4)
        rep = graphs.cl4_detect_exact(cluster)
        assert rep.verdict == "detected"
        assert abs(rep.singlet_fraction - 1.0) <= 1e-12

    def test_mixed_state_not_detected(self):
        rep = graphs.cl4_detect_exact(density(np.eye(16) / 16, (2,) * 4))
        assert rep.verdict == "not_detected"

    def test_repeated_label_rejected(self):
        g = cl4_graph()
        for labels in (["0000", "0001", "0001"], ["0000", "0001", (0, 0, 0, 1)]):
            with pytest.raises(ValueError, match="repeated graph label"):
                graph_witness(g, labels)
            with pytest.raises(ValueError, match="repeated graph label"):
                graph_network(g, labels)

    @pytest.mark.parametrize("label", ["\u0661\u0660\u0660\u0660", "0 01", "00a0", "000\u00b9"])
    def test_string_label_is_ascii_bits_only(self, label):
        # an Arabic-Indic or superscript digit is not read as a bit through int()
        g = cl4_graph()
        message = "is not a length-4 bit string"
        with pytest.raises(ValueError, match=message):
            graph_basis_state(g, label)
        with pytest.raises(ValueError, match=message):
            graph_witness(g, ["0000", label])
        with pytest.raises(ValueError, match=message):
            graph_network(g, [label])

    def test_protocol_built_once_and_read_only(self):
        rho = random_state((2,) * 4, rng_seed=5)
        assert graphs.cl4_detect_exact(rho).to_dict() == graphs.cl4_detect_exact(rho).to_dict()
        for build in (graphs.cl4_protocol, graphs.ghz_protocol):
            assert build() is build()
            n = build()
            for arr in (n.state.data, n.witness.data, n.target):
                assert not arr.flags.writeable

    def test_cl4_proportionality_constant_stable(self):
        g = cl4_graph()
        w = graph_witness(g, CL4_LABELS)
        net = graph_network(g, CL4_LABELS)
        target = graph_basis_state(g, "0000")
        consts = []
        for seed in range(50):
            rho = random_state((2,) * 4, rng_seed=seed)
            raw = multi_overlap_raw(rho, net, target)
            from netwitness.protocol import teleport_contraction

            k = teleport_contraction(rho.data, net.data, 16, 16)
            trk = float(np.real(np.trace(k)))
            wexp = w.expectation(rho)
            consts.append((raw - 0.5 * trk) / (-wexp))
        consts = np.array(consts)
        assert np.max(np.abs(consts - consts[0])) <= 1e-9 * abs(consts[0])
        # the measured slope is 1/|S| for the 12-label set
        assert abs(consts[0] - 1 / 12) <= 1e-10

    def test_verdict_matches_witness_sign(self):
        g = cl4_graph()
        for seed in range(25):
            rho = random_state((2,) * 4, rng_seed=seed)
            rep = graphs.cl4_detect_exact(rho)
            if abs(rep.singlet_fraction - rep.eta) > 1e-9:
                assert (rep.verdict == "detected") == (rep.witness_expectation < 0)


class TestGraphMeasurementCircuit:
    def test_cluster_state_certain(self):
        g = cl4_graph()
        sigma = dm(graph_basis_state(g, "0000"), (2,) * 4)
        assert abs(graph_measurement_circuit(g, sigma) - 1.0) <= 1e-12

    def test_maximally_mixed(self):
        g = cl4_graph()
        sigma = density(np.eye(16) / 16, (2,) * 4)
        assert abs(graph_measurement_circuit(g, sigma) - 1 / 16) <= 1e-12

    def test_other_basis_states_zero(self):
        g = PATH2
        sigma = dm(graph_basis_state(g, (1, 0)), (2, 2))
        assert abs(graph_measurement_circuit(g, sigma)) <= 1e-12

    def test_matches_graph_overlap(self):
        g = cl4_graph()
        for seed in range(10):
            sigma = random_state((2,) * 4, rng_seed=seed)
            p0 = graph_measurement_circuit(g, sigma)
            v0 = graph_basis_state(g, "0000")
            assert abs(p0 - np.real(v0.conj() @ sigma.data @ v0)) <= 1e-12


# --- reference copies of the per-family pairing loops, of the separate
# n-party detect routine that tensor.mixture and protocol.detect_target
# replaced, and of the circuit-plus-Z-flip ket builder and per-label loops
# that the graph-basis table replaced; the old dense PSD check now serves
# as an oracle ---


def old_graph_basis_state(g, x):
    """|+>^n, a controlled-Z on every edge, then Z at every vertex with x_i = 1."""
    t = np.full(2**g.n, 2.0 ** (-g.n / 2)).reshape((2,) * g.n)
    for i, j in g.edges:
        sl = [slice(None)] * g.n
        sl[i - 1] = 1
        sl[j - 1] = 1
        t[tuple(sl)] *= -1.0
    for i, b in enumerate(label_bits(x)):
        if b:
            sl = [slice(None)] * g.n
            sl[i] = 1
            t[tuple(sl)] *= -1.0
    return t.reshape(-1)


def old_graph_witness_matrix(g, labels):
    m = np.zeros((2**g.n, 2**g.n), dtype=complex)
    for x in labels:
        v = old_graph_basis_state(g, x)
        m += 0.5 * np.outer(v, v.conj())
    v0 = old_graph_basis_state(g, (0,) * g.n)
    m -= np.outer(v0, v0.conj())
    return m


def old_graph_network(g, labels):
    kets = [old_graph_basis_state(g, x) for x in labels]
    return mixture(pairing((1 / len(kets), v) for v in kets), (2,) * (2 * g.n))


def old_ghz_ket(a=0, b=0, c=0):
    """The hand-built GHZ kets that the star graph in a leaf frame replaced."""
    t = np.zeros(8)
    t[0] = t[7] = 1 / np.sqrt(2)
    t = t.reshape(2, 2, 2).copy()
    if a:
        t[1, :, :] *= -1.0
    if b:
        t = t[:, ::-1, :]
    if c:
        t = t[:, :, ::-1]
    return t.reshape(-1)


def old_ghz_network_matrix():
    m = np.zeros((64, 64))
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                v = old_ghz_ket(a, b, c)
                p = np.outer(v, v)
                m += np.kron(p, p) / 8
    return m


def old_graph_network_matrix(g, labels):
    dim = 2**g.n
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    for x in labels:
        v = old_graph_basis_state(g, x)
        p = np.outer(v, v.conj())
        m += np.kron(p, p) / len(labels)
    return m


def old_detect_multi_exact(rho, net, w, target, eta=0.5, provenance=None):
    dim = int(np.sqrt(net.data.shape[0]))
    if rho.data.shape[0] != dim:
        raise ValueError("state dimension does not match network layer")
    k = protocol.teleport_contraction(rho.data, net.data, dim, dim)
    trk = float(np.real(np.trace(k)))
    success = trk / dim
    if success <= protocol.MIN_SUCCESS_PROB:
        raise ValueError("post-selection probability vanishes")
    t = np.asarray(target, dtype=complex)
    raw = float(np.real(t.conj() @ k @ t))
    fraction = raw / trk
    wexp = float(np.real(np.trace(w.mat.data @ rho.data)))
    verdict = "detected" if fraction > eta else "not_detected"
    if abs(fraction - eta) > protocol.VERDICT_BAND and (fraction > eta) != (wexp < 0):
        raise protocol.ConsistencyError("verdict disagrees with tr[rho W]")
    return protocol.DetectionReport(
        success_prob=success,
        singlet_fraction=fraction,
        eta=eta,
        verdict=verdict,
        witness_expectation=wexp,
        raw_overlap=raw,
        raw_threshold=eta * trk,
        provenance=provenance or {},
    )


class TestAgainstOldCode:
    @pytest.mark.parametrize("g", [GraphSpec(1, ()), PATH2, GraphSpec(3, ((1, 2), (1, 3))),
                                   CYCLE5,
                                   GraphSpec(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 5)))],
                             ids=["n1", "n2", "n3", "n5", "n6"])
    def test_kets_bit_identical(self, g):
        # odd n exercises the rounded 2^{-n/2}
        for bits in itertools.product((0, 1), repeat=g.n):
            assert graph_basis_state(g, bits).tobytes() == old_graph_basis_state(g, bits).tobytes()

    # an even n, where the old per-label sums were exact; odd n is held to the
    # exact values by TestExactTable
    @pytest.mark.parametrize("g, labels", [(cl4_graph(), CL4_LABELS)], ids=["cl4"])
    def test_witness_and_network_bit_identical(self, g, labels):
        w = graph_witness(g, labels).mat.data
        assert w.tobytes() == old_graph_witness_matrix(g, labels).tobytes()
        assert graph_network(g, labels).data.tobytes() == old_graph_network(g, labels).data.tobytes()

    def test_ghz_from_the_star_graph(self):
        # the old a = 1 kets hold -0.0 where the leaf frame gives +0.0, so the
        # kets agree as values; the target ket and the witness keep their bits
        for label in itertools.product((0, 1), repeat=3):
            assert np.array_equal(ghz_ket(*label), old_ghz_ket(*label))
        v = old_ghz_ket()
        assert ghz_ket().tobytes() == v.tobytes()
        old_w = np.asarray(np.eye(8) / 2 - np.outer(v, v), dtype=complex)
        assert ghz_witness().mat.data.tobytes() == old_w.tobytes()
        with pytest.raises(ValueError, match="bit string"):
            ghz_ket(2, 0, 0)

    def test_networks_bit_identical(self):
        g = cl4_graph()
        pairs = [
            (ghz_network().data, old_ghz_network_matrix()),
            (graph_network(g, CL4_LABELS).data, old_graph_network_matrix(g, CL4_LABELS)),
        ]
        for got, expect in pairs:
            expect = np.asarray(expect, dtype=complex)
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()
            assert np.linalg.eigvalsh(expect)[0] >= -1e-10
            assert abs(np.trace(expect) - 1.0) <= 1e-10

    @pytest.mark.parametrize("family", ["ghz", "cl4"])
    def test_detect_reports_equal(self, family):
        g = cl4_graph()
        if family == "ghz":
            net, w, target, n = ghz_network(), ghz_witness(), ghz_ket(), 3
        else:
            net, w = graph_network(g, CL4_LABELS), graph_witness(g, CL4_LABELS)
            target, n = graph_basis_state(g, "0000"), 4
        for seed in range(10):
            rho = random_state((2,) * n, rng_seed=seed)
            prov = {"seed": seed}
            old = old_detect_multi_exact(rho, net, w, target, provenance=prov).to_dict()
            got = graphs.detect_multi_exact(rho, net, w, target, provenance=prov)
            assert got.to_dict() == old
            run = graphs.ghz_detect_exact if family == "ghz" else graphs.cl4_detect_exact
            assert run(rho, provenance=prov).to_dict() == old


class TestDetectMultiInputs:
    def test_threshold_read_from_witness(self):
        w = Witness(ghz_witness().mat, "ghz", 0.4)
        rep = graphs.detect_multi_exact(dm(ghz_ket(), (2, 2, 2)), ghz_network(), w, ghz_ket())
        assert rep.eta == w.eta
        assert np.isclose(rep.raw_threshold, 0.4 * 8 * rep.success_prob, rtol=1e-12)

    def test_detect_rejects_state_off_the_layer_dims(self):
        rho = density(np.eye(8) / 8, (2, 4))
        with pytest.raises(ValueError, match="do not match network"):
            graphs.detect_multi_exact(rho, ghz_network(), ghz_witness(), ghz_ket())

    def test_overlap_rejects_state_of_wrong_size(self):
        rho = density(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="do not match network"):
            multi_overlap_raw(rho, ghz_network(), ghz_ket())


PATH5 = GraphSpec(5, ((1, 2), (2, 3), (3, 4), (4, 5)))
ALL5 = tuple(itertools.product((0, 1), repeat=5))


class TestGraphProtocol:
    """The graph protocols as NetworkStates, run by the protocol routines."""

    PROTOCOLS = [graphs.ghz_protocol, graphs.cl4_protocol, lambda: graph_protocol(PATH5, ALL5)]
    IDS = ["ghz", "cl4", "path5-all"]

    def test_fields(self):
        n = graph_protocol(PATH5, iter(ALL5))  # labels read once
        assert (n.eta, n.recon_constant, n.family, n.layer) == (0.5, 1 / 32, "graph", (2,) * 5)
        assert n.target.tobytes() == graph_basis_state(PATH5, "00000").tobytes()
        assert n.witness.data.tobytes() == graph_witness(PATH5, ALL5).mat.data.tobytes()
        assert n.state.data.tobytes() == graph_network(PATH5, ALL5).data.tobytes()

    @pytest.mark.parametrize("build", PROTOCOLS, ids=IDS)
    def test_reconstruction(self, build):
        n = build()
        rec = reconstruct_witness(n)
        assert rec.dims == n.layer
        assert np.max(np.abs(rec.data - n.recon_constant * n.witness.data.T)) <= cli.RECON_TOL

    @pytest.mark.parametrize("build", PROTOCOLS, ids=IDS)
    def test_filtering_channel_agrees_with_detect_exact(self, build):
        n = build()
        for seed in range(5):
            rho = random_state(n.layer, rng_seed=seed)
            success, sigma = protocol.filtering_channel(rho, n)
            rep = protocol.detect_exact(rho, n)
            assert sigma.dims == n.layer
            assert success == rep.success_prob
            fraction = np.real(n.target.conj() @ sigma.data @ n.target)
            assert abs(fraction - rep.singlet_fraction) <= 1e-15

    def test_bell_overlap_is_the_raw_overlap(self):
        n = graphs.cl4_protocol()
        rho = random_state(n.layer, rng_seed=2)
        assert protocol.bell_overlap_raw(rho, n) == protocol.detect_exact(rho, n).raw_overlap

    @pytest.mark.parametrize("build", PROTOCOLS, ids=IDS)
    def test_shots_need_two_site_layers(self, build):
        n = build()
        rho = random_state(n.layer, rng_seed=0)
        message = rf"need a layer of two equal sites, not \({', '.join(['2'] * len(n.layer))}\)"
        with pytest.raises(ValueError, match=message):
            protocol.detect_shots(rho, n, shots=100)
        with pytest.raises(ValueError, match=message):
            protocol.bell_outcome_distribution(rho, n)

    def test_shots_refuse_a_target_other_than_phi_00(self):
        # a two-vertex layer is (2, 2), but the readout circuit reads |phi_00>, not |G_00>
        n = graph_protocol(PATH2, ["00", "01", "10", "11"])
        rho = dm(n.target, n.layer)
        assert protocol.detect_exact(rho, n).verdict == "detected"
        with pytest.raises(ValueError, match=r"reads \|phi_00>, not this network's target"):
            protocol.detect_shots(rho, n, shots=200000, rng_seed=1)

    def test_ppt_report_needs_two_site_layers(self):
        # its seven cuts are those of the four sites A2B2A3B3
        with pytest.raises(ValueError, match=r"layers of two sites, not \(2, 2, 2\)"):
            ppt_report(graphs.ghz_protocol())


# --- exact oracles: the graph witness and network in rational arithmetic, from
# the signs of the independent circuit builder old_graph_basis_state ---


def exact_signs(g, labels) -> list:
    return [[int(v) for v in np.sign(old_graph_basis_state(g, x))] for x in labels]


def exact_witness(g, labels) -> list:
    """2^-n ((1/2) sum_x s_x s_x^T - s_0 s_0^T) entry by entry, as Fractions."""
    signs, (s0,) = exact_signs(g, labels), exact_signs(g, [(0,) * g.n])
    scale = Fraction(1, 2**g.n)
    return [[scale * (Fraction(sum(s[i] * s[j] for s in signs), 2) - s0[i] * s0[j])
             for j in range(2**g.n)] for i in range(2**g.n)]


def as_fractions(m) -> list:
    assert not np.asarray(m).imag.any()
    return [[Fraction(v) for v in row] for row in np.asarray(m).real.tolist()]


PATH4 = GraphSpec(4, ((1, 3), (2, 3), (2, 4)))  # the path 1-3-2-4
ALL4 = tuple(itertools.product((0, 1), repeat=4))


class TestExactTable:
    @pytest.mark.parametrize("g, labels", [
        (GraphSpec(3, ((1, 2), (1, 3))), tuple(itertools.product((0, 1), repeat=3))),
        (GraphSpec(3, ((1, 2), (2, 3))), ("000", "011", "101", "110")),
        (cl4_graph(), CL4_LABELS),
        (CYCLE5, CYCLE5_LABELS),
    ], ids=["star3-all", "path3", "cl4", "cycle5"])
    def test_witness_equals_fraction_oracle(self, g, labels):
        assert as_fractions(graph_witness(g, labels).mat.data) == exact_witness(g, labels)

    def test_network_equals_fraction_oracle(self):
        # weight 4^-5 / 8 is a power of two, so every entry is an exact dyadic
        signs = np.array(exact_signs(CYCLE5, CYCLE5_LABELS), dtype=np.int64)
        num = sum(np.kron(np.outer(s, s), np.outer(s, s)) for s in signs)  # integers
        net = graph_network(CYCLE5, CYCLE5_LABELS).data
        assert not net.imag.any()
        denom = 4**CYCLE5.n * len(signs)
        for k in np.unique(num):
            got = {Fraction(v) for v in np.unique(net.real[num == k]).tolist()}
            assert got == {Fraction(int(k), denom)}

    def test_all_labels_give_the_fidelity_witness_in_small_memory(self):
        # (1/2) 1 - |G_0><G_0| on the 8-vertex path, with no (|S|, 2^n, 2^n) temporary
        g = GraphSpec(8, tuple((i, i + 1) for i in range(1, 8)))
        labels = list(itertools.product((0, 1), repeat=8))
        tracemalloc.start()
        try:
            w = graph_witness(g, labels).mat.data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        v0 = graph_basis_state(g, labels[0])
        assert np.array_equal(w, np.eye(256) / 2 - np.outer(v0, v0))

    @pytest.mark.parametrize("g, labels", [(cl4_graph(), CL4_LABELS), (PATH4, ALL4),
                                           (CYCLE5, CYCLE5_LABELS)],
                             ids=["cl4", "path4", "cycle5"])
    def test_contraction_matches_closed_form(self, g, labels):
        # K = |S|^-1 sum_x <G_x|rho|G_x> |G_x><G_x| and the fraction
        # <G_0|rho|G_0> / sum_x <G_x|rho|G_x> of the graphs module docstring
        net, w = graph_network(g, labels), graph_witness(g, labels)
        kets = np.array([graph_basis_state(g, x) for x in labels])  # row 0 is |G_0>
        dim = 2**g.n
        for seed in range(5):
            rho = random_state((2,) * g.n, rng_seed=seed)
            p = np.einsum("xi,ij,xj->x", kets, rho.data, kets).real
            k = protocol.teleport_contraction(rho.data, net.data, dim, dim)
            assert np.max(np.abs(k - (kets.T * p) @ kets / len(labels))) <= 1e-15
            rep = graphs.detect_multi_exact(rho, net, w, kets[0])
            assert abs(rep.singlet_fraction - p[0] / p.sum()) <= 1e-15

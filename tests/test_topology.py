import re
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinnet.topology
from conftest import TMP_FILE_SETTINGS, random_connected_graph
from pinnet.errors import ContractViolationError, InvalidSizeError, PinnetError
from pinnet.spectral import eig_symmetric
from pinnet.topology import (
    Graph,
    barabasi_albert,
    cluster_stars,
    coupling_matrix,
    degrees,
    format_edge_list,
    read_edge_list,
    star,
    write_edge_list,
)
from topology_oracle import barabasi_albert_oracle


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability of every node from node 0."""
    nbrs = [[] for _ in range(g.n_nodes)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = [False] * g.n_nodes
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == g.n_nodes


# Frozen after the first run of barabasi_albert(20, 3, 2, seed=42).
BA_20_3_2_SEED42_DEGREES = [10, 4, 7, 4, 7, 5, 8, 4, 2, 2, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2]


@st.composite
def simple_graphs(draw):
    """A Graph on 1-12 nodes with any set of edges, the empty set included."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(edges))


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidSizeError):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InvalidSizeError):
            Graph(3, frozenset({(0, 3)}))

    def test_rejects_reversed_edge_naming_the_order(self):
        with pytest.raises(ContractViolationError,
                           match=re.escape("edge (2,1) is reversed: store it as (1,2)")):
            Graph(3, frozenset({(2, 1)}))

    def test_from_edges_canonicalises_and_dedupes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})

    @settings(max_examples=200, deadline=None)
    @given(graph=simple_graphs())
    @example(graph=Graph(1, frozenset()))
    @example(graph=Graph(6, frozenset()))
    def test_adjacency_equals_per_edge_loop(self, graph):
        n = graph.n_nodes
        expected = np.zeros((n, n))
        for i, j in graph.edges:
            expected[i, j] = 1.0
            expected[j, i] = 1.0
        a = graph.adjacency()
        assert a.dtype == expected.dtype and a.flags.c_contiguous
        assert np.array_equal(a, expected)

    def test_adjacency_symmetric(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 3)])
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert a[0, 1] == 1.0 and a[0, 2] == 0.0


class TestStar:
    def test_star_9(self):
        g = star(9)
        assert len(g.edges) == 8
        assert degrees(g) == [8] + [1] * 8

    def test_star_2_single_edge(self):
        assert star(2).edges == frozenset({(0, 1)})

    def test_star_5_adjacency(self):
        a = star(5).adjacency()
        assert np.array_equal(a[0], [0, 1, 1, 1, 1])
        for i in range(1, 5):
            row = np.zeros(5)
            row[0] = 1
            assert np.array_equal(a[i], row)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            star(1)


class TestClusterStars:
    def test_spec_2_3_4(self):
        g = cluster_stars((2, 3, 4))
        assert g.n_nodes == 12
        deg = degrees(g)
        assert deg[:3] == [4, 5, 6]
        assert deg[3:] == [1] * 9

    def test_single_branch_is_two_node_star(self):
        g = cluster_stars((1,))
        assert g.n_nodes == 2
        assert g.edges == star(2).edges

    def test_equal_branches(self):
        g = cluster_stars((3, 3, 3))
        assert g.n_nodes == 12
        assert degrees(g)[:3] == [5, 5, 5]

    def test_no_leaf_leaf_or_foreign_edges(self):
        g = cluster_stars((2, 3, 4))
        leaf_owner = {}
        leaf = 3
        for center, size in enumerate((2, 3, 4)):
            for _ in range(size):
                leaf_owner[leaf] = center
                leaf += 1
        for i, j in g.edges:
            if i >= 3 or j >= 3:
                leaf_node, other = (i, j) if i >= 3 else (j, i)
                assert other == leaf_owner[leaf_node]

    def test_invalid_specs(self):
        with pytest.raises(InvalidSizeError, match="needs at least one branch"):
            cluster_stars(())
        with pytest.raises(InvalidSizeError, match=re.escape("ascending, got (3, 2)")):
            cluster_stars((3, 2))
        with pytest.raises(InvalidSizeError, match=re.escape(">= 1, got (0, 1)")):
            cluster_stars((0, 1))


class TestBarabasiAlbert:
    def test_edge_count_and_connectivity(self):
        g = barabasi_albert(20, 3, 2, 42)
        assert len(g.edges) == 3 + 2 * 17
        assert is_connected(g)

    def test_golden_degree_sequence(self):
        assert degrees(barabasi_albert(20, 3, 2, 42)) == BA_20_3_2_SEED42_DEGREES

    def test_forced_attachment(self):
        g = barabasi_albert(4, 3, 3, seed=0)
        # the single new node must connect to every seed node
        assert {(0, 3), (1, 3), (2, 3)} <= g.edges

    def test_determinism(self):
        a = barabasi_albert(30, 4, 2, 12345)
        b = barabasi_albert(30, 4, 2, 12345)
        assert a.edges == b.edges
        assert barabasi_albert(30, 4, 2, 12346).edges != a.edges

    def test_connected_for_many_seeds(self):
        for seed in range(25):
            assert is_connected(barabasi_albert(20, 3, 2, seed))

    @pytest.mark.parametrize("bad", [(20, 3, 0, 1), (20, 3, 4, 1), (3, 3, 2, 1), (20, 0, 0, 1)])
    def test_invalid_parameters(self, bad):
        with pytest.raises(InvalidSizeError):
            barabasi_albert(*bad)


class _Drew(Exception):
    pass


def _no_draws(seed):
    raise _Drew


@st.composite
def ba_parameters(draw):
    """(n_nodes, m0, m, seed) with 1 <= m <= m0 < n_nodes."""
    m0 = draw(st.integers(1, 7))
    m = draw(st.integers(1, m0))
    return draw(st.integers(m0 + 1, 120)), m0, m, draw(st.integers(0, 2**64 - 1))


class TestBarabasiAlbertDraws:
    @settings(max_examples=200, deadline=None)
    @given(params=ba_parameters())
    @example(params=(2, 1, 1, 0))
    @example(params=(40, 1, 1, 7))
    @example(params=(30, 4, 4, 2**64 - 1))
    @example(params=(20, 3, 3, 1520))  # the shipped scale-free instance
    def test_edges_match_generator_oracle(self, params):
        assert barabasi_albert(*params).edges == barabasi_albert_oracle(*params).edges

    def test_lone_seed_node_leaves_the_pool(self):
        # m0 = m = 1: node 1 takes node 0 without a draw, after which nodes 0
        # and 1 have degree 1 each, so node 2 picks one of them with the
        # first value of integers(0, 2).
        for seed in range(500):
            first = int(np.random.Generator(np.random.PCG64(seed)).integers(0, 2))
            assert barabasi_albert(3, 1, 1, seed).edges == {(0, 1), (first, 2)}

    @pytest.mark.parametrize(
        "k", [1, 2, 3, 7, 1000, 2**31 - 1, 2**31, 2**31 + 12345, 2**32 - 2, 2**32 - 1]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    def test_index_draws_match_generator_integers(self, k, seed):
        # For k > 1, 300 draws take words from at least three blocks; just
        # above 2**31 about half the words are rejected.
        pick = pinnet.topology._index_draws(seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        assert [pick(range(k), 1).pop() for _ in range(300)] == [
            int(rng.integers(0, k)) for _ in range(300)
        ]

    def test_stream_continues_across_ranges(self):
        ks = [1, 5, 2**31 + 1, 1, 3, 2**32 - 1, 9] * 40
        pick = pinnet.topology._index_draws(42)
        rng = np.random.Generator(np.random.PCG64(42))
        assert [pick(range(k), 1).pop() for k in ks] == [int(rng.integers(0, k)) for k in ks]

    def test_pick_redraws_a_chosen_entry(self):
        # Entries repeat in the pool, so some draws land on a chosen entry and
        # are drawn again; the picks go on along one stream.
        pool, m = [0, 0, 0, 1, 2, 2, 3], 3
        for seed in range(50):
            pick = pinnet.topology._index_draws(seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            for _ in range(4):
                expected: set = set()
                while len(expected) < m:
                    expected.add(pool[int(rng.integers(0, len(pool)))])
                assert pick(pool, m) == expected

    @pytest.mark.parametrize("n,m0,m", [
        (2**31, 3, 3),  # pool 6 * 2**31 - 12
        (2**31 + 1, 1, 1),  # pool 2**32
    ])
    def test_pool_reaching_2_32_refused_before_drawing(self, monkeypatch, n, m0, m):
        monkeypatch.setattr(pinnet.topology, "_index_draws", _no_draws)
        with pytest.raises(InvalidSizeError, match=r"reaches 2\*\*32"):
            barabasi_albert(n, m0, m, 0)

    def test_pool_below_2_32_goes_on_to_draw(self, monkeypatch):
        monkeypatch.setattr(pinnet.topology, "_index_draws", _no_draws)
        with pytest.raises(_Drew):
            barabasi_albert(2**31, 1, 1, 0)  # pool 2**32 - 2


class TestCouplingMatrix:
    def test_star_9_diagonal(self):
        A = coupling_matrix(star(9))
        assert A[0, 0] == -8.0
        assert all(A[i, i] == -1.0 for i in range(1, 9))

    def test_single_edge(self):
        A = coupling_matrix(star(2))
        assert np.array_equal(A, [[-1.0, 1.0], [1.0, -1.0]])

    def test_cluster_block_form(self):
        A = coupling_matrix(cluster_stars((2, 3, 4)))
        # center block: complete among centers, diagonal -k+1-n_i
        assert np.array_equal(
            A[:3, :3], [[-4.0, 1, 1], [1, -5.0, 1], [1, 1, -6.0]]
        )
        # leaf block is -I, and each leaf column hits exactly its own center
        assert np.array_equal(A[3:, 3:], -np.eye(9))
        owners = [0, 0, 1, 1, 1, 2, 2, 2, 2]
        for leaf, owner in enumerate(owners):
            col = np.zeros(3)
            col[owner] = 1.0
            assert np.array_equal(A[:3, 3 + leaf], col)

    def test_row_sums_and_symmetry_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 15))
            g = random_connected_graph(rng, n)
            A = coupling_matrix(g)
            assert np.array_equal(A, A.T)
            assert np.all(A.sum(axis=1) == 0.0)
            off = A[~np.eye(n, dtype=bool)]
            assert set(np.unique(off)) <= {0.0, 1.0}

    def test_connected_spectrum_one_zero_eigenvalue(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 13))
            g = random_connected_graph(rng, n)
            lam = eig_symmetric(coupling_matrix(g)).eigenvalues
            assert np.sum(np.abs(lam) < 1e-9) == 1
            assert np.all(lam[1:] < -1e-9)

    @pytest.mark.parametrize("n", [3, 9, 20])
    def test_star_spectrum_closed_form(self, n):
        lam = eig_symmetric(coupling_matrix(star(n))).eigenvalues
        expected = np.concatenate([[0.0], -np.ones(n - 2), [-float(n)]])
        assert np.max(np.abs(lam - expected)) < 1e-8


class TestConnectivityAndDegrees:
    def test_star_connected(self):
        assert is_connected(star(9))

    def test_two_components(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_single_node(self):
        g = Graph(1, frozenset())
        assert is_connected(g)
        assert degrees(g) == [0]

    def test_degree_sum_is_twice_edges(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 20)))
            assert sum(degrees(g)) == 2 * len(g.edges)

    def test_cluster_degrees(self):
        deg = degrees(cluster_stars((2, 3, 4)))
        assert deg == [4, 5, 6] + [1] * 9


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph.from_edges(n, draw(st.sets(pairs, max_size=30)))


# Lines of near-valid edge-list text: headers and edges of every arity and
# token type, so the reader meets each malformation.
edge_list_texts = st.one_of(
    st.lists(
        st.lists(st.sampled_from(["N", "0", "1", "2", "3", "-1", "x", "1.5"]), max_size=4)
        .map(" ".join),
        max_size=5,
    ).map("\n".join),
    st.text(max_size=30),
)


class TestEdgeListIO:
    @TMP_FILE_SETTINGS
    @given(g=graphs())
    def test_round_trip(self, tmp_path, g):
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    @TMP_FILE_SETTINGS
    @given(text=edge_list_texts)
    def test_malformed_text_raises_pinnet_error(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        try:
            read_edge_list(path)
        except PinnetError as exc:
            assert str(path) in str(exc)

    def test_header_format(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(star(3), path)
        assert path.read_text() == format_edge_list(star(3)) == "N 3\n0 1\n0 2\n"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        with pytest.raises(InvalidSizeError):
            read_edge_list(path)

"""Network graphs and their diffusive coupling matrices.

Graphs are undirected and simple (no self-loops, no duplicate edges).
The coupling matrix of a graph is the negated graph Laplacian: off-diagonal
entries are 1 for connected pairs and 0 otherwise, and each diagonal entry
is minus the node degree, so every row sums to zero and identical node
states produce zero interaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractViolationError, InvalidSizeError, read_text

__all__ = [
    "RNG_ALGORITHM",
    "Graph",
    "star",
    "cluster_stars",
    "barabasi_albert",
    "coupling_matrix",
    "degrees",
    "format_edge_list",
    "write_edge_list",
    "read_edge_list",
]

# Algorithm identifier recorded in run metadata so that seeded graph
# generation is reproducible across platforms.
RNG_ALGORITHM = "PCG64"


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n_nodes-1.

    Edges are stored canonically as (i, j) with i < j.
    """

    n_nodes: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidSizeError(f"graph needs at least one node, got {self.n_nodes}")
        for i, j in self.edges:
            if i == j:
                raise InvalidSizeError(f"self-loop at node {i}")
            if not (0 <= i < j < self.n_nodes):
                if 0 <= j < i < self.n_nodes:
                    raise ContractViolationError(
                        f"edge ({i},{j}) is reversed: store it as ({j},{i})")
                raise InvalidSizeError(f"edge ({i},{j}) outside 0..{self.n_nodes - 1}")

    @staticmethod
    def from_edges(n_nodes: int, edges) -> "Graph":
        """Build a graph from any iterable of (i, j) pairs, canonicalising order."""
        canon = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return Graph(n_nodes, canon)

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix."""
        n = self.n_nodes
        a = np.zeros((n, n))
        # Both entries of every edge (i, j) in one assignment, at the
        # row-major flat indices i n + j and j n + i.
        ij = np.fromiter(chain.from_iterable(self.edges), np.intp, 2 * len(self.edges))
        np.put(a, ij.reshape(-1, 2) @ np.array([[n, 1], [1, n]]), 1.0)
        return a


def star(n_nodes: int) -> Graph:
    """Star graph: node 0 is the center, nodes 1..n_nodes-1 are leaves."""
    if n_nodes < 2:
        raise InvalidSizeError(f"star needs at least 2 nodes, got {n_nodes}")
    return Graph(n_nodes, frozenset((0, i) for i in range(1, n_nodes)))


def cluster_stars(branch_sizes: tuple[int, ...]) -> Graph:
    """Cluster of stars: k = len(branch_sizes) mutually connected centers
    0..k-1, center i carrying branch_sizes[i] private leaves after them.

    Branch sizes are ascending and at least 1. Leaves of center i are a
    contiguous index block; leaves never connect to each other or to a
    foreign center. Total nodes: k + sum(branch_sizes).
    """
    if len(branch_sizes) < 1:
        raise InvalidSizeError("cluster spec needs at least one branch")
    if any(n < 1 for n in branch_sizes):
        raise InvalidSizeError(f"branch sizes must be >= 1, got {branch_sizes}")
    if list(branch_sizes) != sorted(branch_sizes):
        raise InvalidSizeError(f"branch sizes must be ascending, got {branch_sizes}")
    k = len(branch_sizes)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    leaf = k
    for center, size in enumerate(branch_sizes):
        for _ in range(size):
            edges.append((center, leaf))
            leaf += 1
    return Graph(leaf, frozenset(edges))


# 64-bit PCG64 outputs read per block, each split into two 32-bit words.
_RAW_BLOCK = 64


def _index_draws(seed: int):
    """pick(pool, m): m distinct entries of pool, drawn from Generator(PCG64(seed)).

    Each draw is the value integers(0, k) would give for k = len(pool),
    1 <= k < 2**32, and indexes pool; an entry already chosen is drawn again.
    numpy draws such a value from the stream's 32-bit words: the low half of
    each 64-bit output, then its high half. A word w maps to (w * k) >> 32
    unless the low 32 bits of w * k fall below (2**32 - k) % k, in which case
    it is rejected and the next word taken (Lemire, arXiv 1805.10941); k = 1
    takes no word. Here the words are read in blocks instead of one
    Generator call per value, one threshold serves all of a pick's draws, and
    successive picks go on along one stream, so the values are the same.
    """
    bits = np.random.PCG64(seed)
    words = chain.from_iterable(iter(
        lambda: bits.random_raw(_RAW_BLOCK).astype("<u8", copy=False).view("<u4").tolist(), None
    ))

    def pick(pool, m: int) -> set:
        k = len(pool)
        if k == 1:
            return {pool[0]}
        threshold = (0x100000000 - k) % k
        chosen = set()
        while len(chosen) < m:
            product = next(words) * k
            if product & 0xFFFFFFFF >= threshold:
                chosen.add(pool[product >> 32])
        return chosen

    return pick


def barabasi_albert(n_nodes: int, m0: int, m: int, seed: int) -> Graph:
    """Seeded preferential-attachment graph.

    Starts from a complete graph on m0 nodes (keeps the graph connected and
    the initial degrees well defined), then attaches each new node with m
    edges to distinct existing nodes chosen with probability proportional to
    current degree (with m0 = 1, the lone seed node has no degree, and the
    first new node attaches to it). Duplicate draws are resampled so the
    graph stays simple. Each draw is the value
    ``Generator(PCG64(seed)).integers(0, pool size)`` would give, so a graph
    whose degree pool would reach 2**32 entries, past numpy's 32-bit draws,
    is refused before anything is built.

    Parameters
    ----------
    n_nodes, m0, m : int
        Final size, seed-graph size, and edges per new node; 1 <= m <= m0 < n_nodes.
    seed : int
        64-bit seed for the PCG64 generator; equal seeds give identical graphs.
    """
    if not (1 <= m <= m0 < n_nodes):
        raise InvalidSizeError(
            f"need 1 <= m <= m0 < n_nodes, got m={m}, m0={m0}, n_nodes={n_nodes}"
        )
    if seed < 0:
        raise ContractViolationError(f"seed must be a non-negative integer, got {seed}")
    pool_size = m0 * (m0 - 1) + 2 * m * (n_nodes - m0)
    if pool_size >= 2**32:
        raise InvalidSizeError(
            f"degree pool of {pool_size} entries reaches 2**32: n_nodes={n_nodes}, m0={m0}, "
            f"m={m} is too large"
        )
    pick = _index_draws(seed)
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    # One entry per unit of degree; uniform draws from this list realise
    # degree-proportional attachment.
    degree_pool = [i for i in range(m0) for _ in range(m0 - 1)]
    for new in range(m0, n_nodes):
        # A lone seed node has no degree yet: the first new node takes it.
        targets = pick(degree_pool or [0], m)
        for t in sorted(targets):
            edges.append((t, new))
            degree_pool.append(t)
        degree_pool.extend([new] * m)
    return Graph(n_nodes, frozenset(edges))


def coupling_matrix(g: Graph) -> np.ndarray:
    """Diffusive coupling matrix: adjacency off the diagonal, -degree on it."""
    a = g.adjacency()
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def degrees(g: Graph) -> list[int]:
    """Degree of each node."""
    deg = [0] * g.n_nodes
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def format_edge_list(g: Graph) -> str:
    """The text edge-list format: header ``N <n>``, then one ``i j`` per line."""
    lines = [f"N {g.n_nodes}"]
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph, path) -> None:
    """Write :func:`format_edge_list` of `g` to `path`."""
    with open(path, "w") as fh:
        fh.write(format_edge_list(g))


def read_edge_list(path) -> Graph:
    """Read the edge-list format written by :func:`write_edge_list`.

    A malformed file raises a PinnetError naming the file and the line; an
    edge listed twice, in either orientation, names both lines.
    """
    text = read_text(path)
    lines = [(k, ln.split()) for k, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines or lines[0][1][0] != "N":
        raise InvalidSizeError(f"{path}: expected header line 'N <n>'")
    k, header = lines[0]
    try:
        _, n = header
        n = int(n)
    except ValueError:
        raise InvalidSizeError(f"{path}:{k}: expected header 'N <n>', got {header}") from None
    if n < 1:
        raise InvalidSizeError(f"{path}:{k}: graph needs at least one node, got {n}")
    line_of: dict[tuple[int, int], int] = {}  # each edge, canonical, and its line
    for k, fields in lines[1:]:
        try:
            i, j = fields
            i, j = int(i), int(j)
        except ValueError:
            raise ContractViolationError(f"{path}:{k}: expected an edge 'i j', got {fields}") from None
        if i == j:
            raise InvalidSizeError(f"{path}:{k}: self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidSizeError(f"{path}:{k}: edge ({i},{j}) outside 0..{n - 1}")
        edge = (min(i, j), max(i, j))
        if edge in line_of:
            raise ContractViolationError(
                f"{path}:{k}: edge {i} {j} repeats the edge on line {line_of[edge]}"
            )
        line_of[edge] = k
    return Graph.from_edges(n, line_of)

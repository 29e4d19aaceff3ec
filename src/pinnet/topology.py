"""Network graphs and their diffusive coupling matrices.

Graphs are undirected and simple (no self-loops, no duplicate edges).
The coupling matrix of a graph is the negated graph Laplacian: off-diagonal
entries are 1 for connected pairs and 0 otherwise, and each diagonal entry
is minus the node degree, so every row sums to zero and identical node
states produce zero interaction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidSizeError, PinnetError, read_text

__all__ = [
    "RNG_ALGORITHM",
    "Graph",
    "ClusterSpec",
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
                raise InvalidSizeError(f"edge ({i},{j}) outside 0..{self.n_nodes - 1}")

    @staticmethod
    def from_edges(n_nodes: int, edges) -> "Graph":
        """Build a graph from any iterable of (i, j) pairs, canonicalising order."""
        canon = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return Graph(n_nodes, canon)

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix."""
        a = np.zeros((self.n_nodes, self.n_nodes))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a


@dataclass(frozen=True)
class ClusterSpec:
    """Branch sizes of a cluster-of-stars network, ascending.

    k centers form a complete graph; center i carries branch_sizes[i] leaves.
    Total nodes: k + sum(branch_sizes).
    """

    branch_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.branch_sizes) < 1:
            raise InvalidSizeError("cluster spec needs at least one branch")
        if any(n < 1 for n in self.branch_sizes):
            raise InvalidSizeError(f"branch sizes must be >= 1, got {self.branch_sizes}")
        if list(self.branch_sizes) != sorted(self.branch_sizes):
            raise InvalidSizeError(f"branch sizes must be ascending, got {self.branch_sizes}")

    @property
    def k(self) -> int:
        return len(self.branch_sizes)

    @property
    def n_nodes(self) -> int:
        return self.k + sum(self.branch_sizes)


def star(n_nodes: int) -> Graph:
    """Star graph: node 0 is the center, nodes 1..n_nodes-1 are leaves."""
    if n_nodes < 2:
        raise InvalidSizeError(f"star needs at least 2 nodes, got {n_nodes}")
    return Graph(n_nodes, frozenset((0, i) for i in range(1, n_nodes)))


def cluster_stars(spec: ClusterSpec) -> Graph:
    """Cluster of stars: mutually connected centers 0..k-1, private leaves after.

    Leaves of center i are a contiguous index block; leaves never connect to
    each other or to a foreign center.
    """
    k = spec.k
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    leaf = k
    for center, size in enumerate(spec.branch_sizes):
        for _ in range(size):
            edges.append((center, leaf))
            leaf += 1
    return Graph(spec.n_nodes, frozenset(edges))


def barabasi_albert(n_nodes: int, m0: int, m: int, seed: int) -> Graph:
    """Seeded preferential-attachment graph.

    Starts from a complete graph on m0 nodes (keeps the graph connected and
    the initial degrees well defined), then attaches each new node with m
    edges to distinct existing nodes chosen with probability proportional to
    current degree. Duplicate draws are resampled so the graph stays simple.

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
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    # One entry per unit of degree; uniform draws from this list realise
    # degree-proportional attachment.
    degree_pool = [i for i in range(m0) for _ in range(m0 - 1)]
    if m0 == 1:
        degree_pool = [0]  # lone seed node would otherwise be unreachable
    for new in range(m0, n_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(degree_pool[rng.integers(0, len(degree_pool))])
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

    A malformed file raises a PinnetError naming the file and the line.
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
    edges = []
    for k, fields in lines[1:]:
        try:
            i, j = fields
            edges.append((int(i), int(j)))
        except ValueError:
            raise ContractViolationError(f"{path}:{k}: expected an edge 'i j', got {fields}") from None
    try:
        return Graph.from_edges(n, edges)
    except PinnetError as exc:
        raise type(exc)(f"{path}: {exc}") from exc

"""Test-side reference for preferential-attachment graphs.

``barabasi_albert_oracle`` is the attachment loop with one
``Generator.integers`` call per draw. ``pinnet.topology.barabasi_albert``
reads the same PCG64 words in blocks and maps them to indices itself; the
tests require both to give the same edges.
"""

from __future__ import annotations

import numpy as np

from pinnet.topology import Graph


def barabasi_albert_oracle(n_nodes: int, m0: int, m: int, seed: int) -> Graph:
    """barabasi_albert(n_nodes, m0, m, seed), drawing through Generator.integers."""
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    degree_pool = [i for i in range(m0) for _ in range(m0 - 1)]
    for new in range(m0, n_nodes):
        pool = degree_pool or [0]
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(pool[rng.integers(0, len(pool))])
        for t in sorted(targets):
            edges.append((t, new))
            degree_pool.append(t)
        degree_pool.extend([new] * m)
    return Graph(n_nodes, frozenset(edges))

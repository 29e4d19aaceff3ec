import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from pinnet.harness import run_scenarios
from pinnet.scenarios import SCENARIOS
from pinnet.topology import Graph


def random_connected_graph(rng: np.random.Generator, n_nodes: int, extra_p: float = 0.3) -> Graph:
    """Random connected graph: a random attachment tree plus extra edges."""
    edges = set()
    for v in range(1, n_nodes):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if (i, j) not in edges and rng.uniform() < extra_p:
                edges.add((i, j))
    return Graph.from_edges(n_nodes, edges)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))


@pytest.fixture(scope="session")
def shipped_rows():
    """The report row of every shipped scenario by name, from one run_scenarios call."""
    return {row.name: row for row in run_scenarios(list(SCENARIOS.values()))}


# For property tests that write a file: each example overwrites the same one
# in the test's tmp_path.
TMP_FILE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Any JSON value, small: what a malformed input file may hold in one field.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with one field, list item or the whole document deleted or replaced."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return doc

"""Pinning control of diffusively coupled dynamical networks.

Build star, cluster-of-stars, and preferential-attachment topologies,
analyze the spectrum of the controlled coupling matrix, evaluate analytic
gain bounds and control cost, and simulate synchronization of chaotic
node dynamics under pinning feedback.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryCaseError,
    BoundUndefinedError,
    ComparisonDefinitionError,
    ContractViolationError,
    DivergenceError,
    InvalidSizeError,
    NumericalFailureError,
    PinnetError,
    RegionShapeError,
    ScenarioDefinitionError,
)
from .topology import (
    ClusterSpec,
    Graph,
    barabasi_albert,
    cluster_stars,
    coupling_matrix,
    degrees,
    star,
)
from .pinning import (
    PinningPlan,
    controlled_coupling,
    cost,
    plan_by_degree,
    plan_explicit,
)
from .spectral import (
    EigenDecomposition,
    cluster_leaf_gain_bound,
    controlled_spectrum,
    eig_symmetric,
    min_uniform_gain,
    schur_feasible,
    star_leaf_gain_bound,
)
from .dynamics import (
    ChenParameters,
    NetworkSystem,
    NodeDynamics,
    SimulationResult,
    chen_field,
    mode_threshold,
    sync_time,
)

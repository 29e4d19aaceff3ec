"""Pinning control of diffusively coupled dynamical networks.

Build star, cluster-of-stars, and preferential-attachment topologies,
analyze the spectrum of the controlled coupling matrix, evaluate analytic
gain bounds and control cost, and simulate synchronization of chaotic
node dynamics under pinning feedback.
"""

__version__ = "0.1.0"

from .topology import coupling_matrix, star
from .pinning import cost, plan_by_degree
from .spectral import controlled_spectrum, star_leaf_gain_bound

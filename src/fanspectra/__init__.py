"""Spectral toolkit for generalized fan graphs and hub-matched fan pairs.

Builds the graph families and their matrix family (adjacency, Laplacian,
distance, transmission, distance Laplacian, distance signless Laplacian,
generalized distance), evaluates the closed-form Laplacian and distance
Laplacian spectra, and verifies every closed form against an in-house
dense symmetric eigensolver.
"""

from .closed_forms import (
    fan_distance_laplacian_spectrum,
    fan_laplacian_spectrum,
    join_distance_laplacian_spectrum,
    join_laplacian_spectrum,
    nc_distance_laplacian_spectrum,
    nc_laplacian_spectrum,
)
from .eigen import (
    JacobiConvergenceError,
    Spectrum,
    group_multiplicities,
    symmetric_eigenvalues,
)
from .graphs import (
    DisconnectedGraphError,
    Graph,
    UNREACHABLE,
    generalized_fan,
    join,
    make_graph,
    nc_graph,
    path_graph,
    to_dot,
    to_edge_list,
)
from .matrices import (
    MatrixKind,
    adjacency_matrix,
    build_matrix,
    distance_laplacian,
    distance_matrix,
    distance_signless_laplacian,
    generalized_distance,
    laplacian_matrix,
    transmission_matrix,
)
from .quotient import (
    NotEquitableError,
    Partition,
    fan_partition,
    is_equitable,
    nc_partition,
    quotient_eigenvalues,
    quotient_matrix,
)
from .verify import (
    CASE_KINDS,
    SpectrumSizeMismatch,
    VerificationReport,
    compare_spectra,
    sweep,
    verify_case,
    verify_random_joins,
)

__version__ = "0.1.0"

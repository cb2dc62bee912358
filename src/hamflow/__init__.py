"""hamflow: integer invariants of paths of linear Hamiltonian systems.

The library computes three independently defined integers — the spectral
flow of a path of symmetric operators, the Maslov index of a path of
Lagrangian subspaces (or pairs), and the winding number of a determinant
along a contour (a first Chern number) — and provides discretized
boundary-value operators for asymptotically hyperbolic Hamiltonian systems
so that the equalities between those integers can be verified numerically.
"""

from .symplectic import (
    SymplecticSpace,
    LagrangianFrame,
    SymplecticError,
    standard_space,
    lagrangian_from_matrix,
    gap_distance,
    souriau_map,
    intersection_dimension_rank,
)
from .maslov import (
    UnitaryPath,
    LagrangianPath,
    CrossingRecord,
    winding_number,
    maslov_index,
    maslov_index_pair,
    partial_maslov_index,
    crossing_form_index,
    find_crossings,
)
from .spectral import (
    SymmetricMatrixPath,
    FlowCertificate,
    spectral_flow,
    normalization_path,
    chern_winding,
)
from .hamiltonian import (
    HamiltonianFamily,
    BoundaryValueOperator,
    IndexReport,
    stable_unstable_splitting,
    propagate_subspace,
    unstable_space,
    stable_space,
    kernel_crossings,
    assemble_Q_operator,
    assemble_A0_operator,
    theorem_B_report,
    theorem_A_report,
    corollary_A_report,
)
from .families import make_family, family_catalog

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

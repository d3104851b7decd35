"""Graph energies, Laplacians and the Dirichlet spectrum of the
Sierpinski tetrahedron, cross-validated by spectral decimation against
a dense eigensolver."""

from .fractal_graph import (
    Address,
    CELL_MIDPOINT_PAIRS,
    CHILD_CORNERS,
    CORNER_COORDS,
    LevelCapError,
    LevelGraph,
    address_strings,
    build_level,
    canonicalize,
    level_graph,
    vertex_coords,
)
from .energy import (
    EnergyReport,
    ForbiddenEigenvalueError,
    VertexFunction,
    cell_restriction,
    eigenfunction_extend,
    energy,
    energy_bilinear,
    extension_cell,
    harmonic_family,
    harmonize,
)
from .laplacian import (
    VertexEstimate,
    gauss_green_residual,
    interior_laplacian,
    normal_derivative,
    renormalized_laplacian,
)
from .decimation import (
    DIMENSION_CONSTANTS,
    DimensionConstants,
    EigenvalueRecord,
    LimitEigenvalue,
    LimitTable,
    Lineage,
    SpectrumTable,
    WeylFitDiagnostics,
    born_eigenbasis,
    born_multiplicities,
    counting_function,
    eigenfunction_family,
    enumerate_spectrum,
    limit_spectrum,
    spectrum_from_json,
    spectrum_json,
    weyl_fit,
)
from .oracle import (
    DirichletMatrix,
    EigenDecomposition,
    JacobiConvergenceError,
    assemble,
    jacobi_eigen,
)

__version__ = "0.1.0"

"""Graph energies, Laplacians and the Dirichlet spectrum of the
Sierpinski tetrahedron, cross-validated by spectral decimation against
a dense eigensolver."""

from .fractal_graph import (
    Address,
    CELL_MIDPOINT_PAIRS,
    CORNER_COORDS,
    LevelCapError,
    LevelGraph,
    build_level,
    canonicalize,
    embed_address,
    expected_vertex_count,
    graph_json,
    level_graph,
    vertex_coords,
)
from .energy import (
    EnergyReport,
    VertexFunction,
    cell_restriction,
    energy,
    energy_bilinear,
    harmonic_extend,
    harmonic_extension_cell,
    harmonic_family,
    harmonize,
)
from .laplacian import (
    VertexEstimate,
    gauss_green_residual,
    graph_laplacian,
    interior_laplacian,
    normal_derivative,
    pointwise_laplacian,
    spline_integral,
)
from .decimation import (
    DIMENSION_CONSTANTS,
    DimensionConstants,
    EigenvalueRecord,
    ForbiddenEigenvalueError,
    LimitEigenvalue,
    LimitTable,
    Lineage,
    SpectrumTable,
    WeylFitDiagnostics,
    born_eigenbasis,
    born_multiplicities,
    counting_json,
    counting_function,
    decimate_down,
    decimate_up,
    eigenfunction_extend,
    eigenfunction_family,
    enumerate_spectrum,
    limit_eigenvalue,
    limit_spectrum,
    limit_spectrum_json,
    lineage_value,
    spectrum_from_json,
    spectrum_json,
    weyl_fit,
)
from .oracle import (
    DirichletMatrix,
    EigenDecomposition,
    JacobiConvergenceError,
    assemble,
    eigenvalue_multiset,
    jacobi_eigen,
    kernel_dimension,
)

__version__ = "0.1.0"

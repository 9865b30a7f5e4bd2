"""Bulk, edge, and interface topological invariants of two-dimensional
translation-invariant continuum Hamiltonians.

The package computes Chern pairings of bulk symbols, tracks edge dispersion
bands of half-plane and interface extensions defined through boundary
triples, counts spectral flow, and evaluates windings of von Neumann
unitaries, so that the corrected correspondence

    spectral flow == bulk pairing + relative winding

can be verified numerically for the built-in models (half-plane Laplacian,
massive Dirac, regularized Dirac, rotating shallow water).
"""

from .edge import (
    BandEndpoint,
    DispersionBand,
    FlowResult,
    dispersion_csv,
    edge_eigenvalues,
    relative_winding,
    spectral_flow,
    track_bands,
    vn_unitary_family,
    winding,
)
from .errors import (
    BecError,
    BoundaryOfRegularityError,
    ContractViolation,
    DegenerateExponentError,
    DomainError,
    GaplessPointError,
    InadmissibleConditionError,
    InsufficientResolutionError,
    LostBandError,
    ModelFileError,
    NoGapError,
    NotComparableError,
    NumericalFailure,
    TripleDegeneracyError,
    UnsupportedConversionError,
)
from .extension import (
    AffiliationVerdict,
    BoundaryCondition,
    BoundaryTriple,
    DeficiencyBasis,
    affiliation_check,
    deficiency_basis,
    formal_symmetry_defect,
    from_ab,
    from_klm,
    green_boundary_matrix,
    green_identity_residual,
    krein_Q,
    triple_defect,
    vn_unitary,
)
from .models import (
    BUILTIN_MODELS,
    ModelDescriptor,
    build_model,
    dirac,
    laplacian,
    regularized_dirac,
    shallow_water,
)
from .symbol import (
    FiberStack,
    GapWindow,
    Symbol,
    bulk_bands,
    chern,
    fiberize,
    find_gap,
    relative_chern,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Desk-scale relativistic wave equations on 1D grids.

The library reduces relativistic wave equations to first-order-in-time
systems on small one-dimensional grids, evolves them, transports their
states along sampled paths as sections of a fibre bundle, and cross-checks
the evolution against retarded kernels.
"""

from .grid import (
    BOUNDARIES,
    FibreProduct,
    GridError,
    GridFunction,
    SpatialGrid1D,
    derivative_matrix,
    derivative_values,
    discrete_delta,
    inner,
    stacked_inner,
)
from .algebra import (
    AlgebraError,
    ComposeOp,
    DerivativeOp,
    Frame,
    GammaSet,
    IdentityOp,
    LinearGridOperator,
    MatrixOperator,
    METRIC_SIGNATURE,
    ScaleOp,
    SumOp,
    ZeroOp,
    alpha_matrices,
    anticommutator_defect,
    beta_matrix,
    dirac_gammas,
    frame_connection,
    kg_gammas,
    kron_component_matrix,
    matrix_in_frame,
    op_compose,
    op_scale,
    op_sum,
    pauli_matrices,
    promote,
    slashed_contract,
)
from .reduction import (
    HamiltonianFactory,
    Potentials,
    ReductionError,
    block_diag_hamiltonian,
    companion_hamiltonian,
    covariant_scalar_residual,
    dirac_hamiltonian,
    gauge_transform,
    kg_5d_hamiltonian,
    kg_canonical_hamiltonian,
    kg_nonrel_frame,
    kg_nonrel_hamiltonian,
    kinetic_momentum_operator,
    maxwell_hamiltonian,
    schrodinger_hamiltonian,
)
from .evolution import (
    EvolutionError,
    EvolutionOperator,
    evolve,
    expectation,
    kg_charge,
    kg_charges,
    march,
    step_matrix,
)
from .bundle import (
    BundleError,
    Lifting,
    PathSampling,
    TransportAlongMap,
    derivation_along_path,
    evolution_transport,
    flat_transport,
    generator_from_transport,
    induced_fibre_product,
    transport_coefficients,
    transported_lifting,
)
from .green import (
    EigenBasis,
    GreenError,
    ScalarFieldKernel,
    born_kernel,
    chain_kernels,
    green_morphism,
    propagate_retarded,
    retarded_kernel,
    retarded_kernel_dirac,
)
from .config import (
    ConfigError,
    RunConfig,
    build_factory,
    build_grid,
    build_initial_state,
    build_potentials,
    emit_config,
    load_config,
    parse_config,
)

__version__ = "0.1.0"

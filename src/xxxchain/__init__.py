"""Spin-s XXX chain: explicit Hamiltonian entries, coordinate Bethe ansatz
states, a Newton solver for the Bethe equations, and exact-diagonalization
cross-checks at desk scale."""

from .bethe import (
    BetheState,
    amplitude_AP,
    amplitude_a,
    build_bethe_state,
    energy_k,
    energy_lambda,
    k_to_lambda,
    lambda_to_k,
    sigma_lambda,
    sigma_u,
)
from .errors import (
    ChainError,
    DegenerateRootsError,
    InputRangeError,
    NewtonFailureError,
    PoleError,
    ResourceCapError,
    SingularScatteringError,
    WindowError,
)
from .hamiltonian import (
    BetaTable,
    ChainHamiltonian,
    beta,
    build_beta_table,
    check_beta_recursions,
    local_h,
)
from .hilbert import (
    SectorBasis,
    coords_to_vector,
    sector_basis,
    sector_s_minus,
    sector_s_plus,
)
from .solver import (
    BetheSystem,
    DeflationRegistry,
    RootCertificate,
    SolverOptions,
    bethe_residual,
    newton_solve,
    seed_catalog,
    singular_pair_state,
    solve_newton,
    solve_sector,
)
from .su2 import Spin, e_minus, g_matrix, global_generator, s_minus, s_plus, s_z
from .verify import (
    SpectrumReport,
    aba_phi1,
    eigen_residual,
    exact_diagonalize,
    highest_weight_residual,
    reconcile_spectrum,
    sector_eigh,
)

__version__ = "0.1.0"

"""Spin-s XXX chain: explicit Hamiltonian entries, coordinate Bethe ansatz
states, a Newton solver for the Bethe equations, and exact-diagonalization
cross-checks at desk scale."""

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
from .hamiltonian import ChainHamiltonian
from .solver import SolverOptions, solve_sector
from .su2 import Spin
from .verify import reconcile_spectrum, sector_eigh

__version__ = "0.1.0"

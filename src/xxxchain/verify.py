"""Brute-force oracles: sector-blocked exact diagonalization, residuals of
claimed eigenvector/highest-weight properties, spectrum reconciliation
against certified Bethe multiplets, and the one-magnon monodromy cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import hilbert, su2
from .bethe import POLE_TOL, BetheState
from .errors import PoleError, ResourceCapError
from .hamiltonian import ChainHamiltonian
from .su2 import Spin, s_minus, s_z


def sector_eigh(spin: Spin, length: int, m: int, hamiltonian: ChainHamiltonian = None):
    """Dense Hermitian eigenvalues of one fixed-m block, ascending; a block
    above su2.DENSE_THRESHOLD states raises ResourceCapError."""
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(spin, length)
    basis = hilbert.sector_basis(spin, length, m)
    if len(basis) > su2.DENSE_THRESHOLD:
        raise ResourceCapError(
            f"sector dimension {len(basis)} exceeds dense threshold {su2.DENSE_THRESHOLD}"
        )
    return np.linalg.eigvalsh(hamiltonian.sector_matrix(m).toarray())


@dataclass
class BetheMultiplet:
    m: int
    lam: tuple
    energy: complex
    multiplicity: int
    singular: bool = False

    def to_json(self):
        return {
            "m": self.m,
            "energy": [self.energy.real, self.energy.imag],
            "multiplicity": self.multiplicity,
            "lambda": [[z.real, z.imag] for z in self.lam],
            "singular": self.singular,
        }


@dataclass
class SpectrumReport:
    """ED eigenvalues by sector, certified Bethe multiplets, and their match."""

    spin: Spin
    length: int
    ed: dict
    bethe: list = field(default_factory=list)
    matches: list = field(default_factory=list)
    unmatched: list = field(default_factory=list)

    @property
    def total_levels(self) -> int:
        return sum(len(v) for v in self.ed.values())

    @property
    def matched_levels(self) -> int:
        return sum(item["multiplicity"] - len(item["missing"]) for item in self.matches)

    @property
    def matched_fraction(self) -> float:
        total = self.total_levels
        return self.matched_levels / total if total else 1.0

    def to_json(self):
        return {
            "two_s": self.spin.two_s,
            "L": self.length,
            "ed": [{"m": m, "eigenvalues": list(map(float, v))} for m, v in sorted(self.ed.items())],
            "bethe": [rec.to_json() for rec in self.bethe],
            "matches": self.matches,
            "unmatched": self.unmatched,
            "matched_fraction": self.matched_fraction,
        }


def exact_diagonalize(spin: Spin, length: int, m: Optional[int] = None,
                      hamiltonian: ChainHamiltonian = None) -> SpectrumReport:
    """ED side of the reconciliation: per-sector spectra, never the full matrix."""
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(spin, length)
    sectors = [m] if m is not None else range(spin.two_s * length + 1)
    ed = {sec: sector_eigh(spin, length, sec, hamiltonian=hamiltonian) for sec in sectors}
    return SpectrumReport(spin, length, ed)


def eigen_residual(state: BetheState, hamiltonian: ChainHamiltonian = None) -> float:
    """||H psi - E psi|| / ||psi|| inside the state's sector."""
    if hamiltonian is None:
        hamiltonian = ChainHamiltonian(state.spin, state.length)
    hv = hamiltonian.sector_matrix(state.m) @ state.vector
    return float(np.linalg.norm(hv - state.energy * state.vector) / state.norm)


def highest_weight_residual(state: BetheState) -> float:
    """||S+ psi|| / ||psi||; zero marks an su(2) highest-weight vector."""
    if state.m == 0:
        return 0.0
    up = hilbert.sector_s_plus(state.spin, state.length, state.m)
    return float(np.linalg.norm(up @ state.vector) / state.norm)


def reconcile_spectrum(spin: Spin, length: int, m_max: int, opts=None) -> SpectrumReport:
    """Match certified Bethe multiplets (each of dimension 2(Ls-m)+1, spanned by
    repeated S^-) to the first closest free ED level of each sector they span;
    leftover ED levels are itemized with their sector and energy."""
    from .solver import SolverOptions, order_key, solve_sector

    if opts is None:
        opts = SolverOptions()
    hamiltonian = ChainHamiltonian(spin, length)
    report = exact_diagonalize(spin, length, hamiltonian=hamiltonian)
    free = {m: np.ones(len(vals), dtype=bool) for m, vals in report.ed.items()}
    report.bethe = sorted(
        (BetheMultiplet(m, cert.lam, cert.energy, spin.two_s * length - 2 * m + 1, cert.singular)
         for m in range(m_max + 1) for cert in solve_sector(spin, length, m, opts, hamiltonian)),
        key=lambda rec: order_key(rec.energy, rec.lam))
    for rec in report.bethe:
        missing = []
        gaps = []
        for sector in range(rec.m, rec.m + rec.multiplicity):
            gap = np.where(free[sector], np.abs(report.ed[sector] - rec.energy.real), np.inf)
            idx = np.argmin(gap)
            if gap[idx] <= opts.tol_match:
                free[sector][idx] = False
                gaps.append(float(gap[idx]))
            else:
                missing.append({"m": sector, "energy": rec.energy.real})
        report.matches.append({
            "m": rec.m,
            "energy": rec.energy.real,
            "multiplicity": rec.multiplicity,
            "max_gap": max(gaps, default=0.0),
            "missing": missing,
        })
    report.unmatched = [{"m": m, "energy": float(v)}
                        for m, vals in sorted(report.ed.items()) for v in vals[free[m]]]
    return report


def aba_phi1(spin: Spin, length: int, lam: complex) -> np.ndarray:
    """One-magnon state from the site-wise monodromy matrix

        T(lambda) = (1/(lambda - is)) [[lambda + i s^z, i s^-], [i s^+, lambda - i s^z]],

    assembled as sum_x T^(1)_11 ... T^(x-1)_11 T^(x)_12 T^(x+1)_22 ... |vac>,
    returned on the m = 1 sector basis.
    """
    lam = complex(lam)
    if abs(lam - 1j * spin.s) < POLE_TOL:
        raise PoleError("monodromy matrix has a pole at lambda = i s")
    top = np.zeros(spin.dim, dtype=complex)
    top[0] = 1.0
    denom = lam - 1j * spin.s
    t11 = (lam * np.eye(spin.dim) + 1j * s_z(spin)) / denom
    t12 = 1j * s_minus(spin) / denom
    t22 = (lam * np.eye(spin.dim) - 1j * s_z(spin)) / denom
    # on the local vacuum each entry acts by a scalar (t12: onto |s-1>)
    a11 = (t11 @ top)[0]
    a12 = (t12 @ top)[1]
    a22 = (t22 @ top)[0]
    # the site x = 1..L of each basis state's one lowering
    x = hilbert.sector_basis(spin, length, 1).occupations @ np.arange(1, length + 1)
    return a11 ** (x - 1) * a12 * a22 ** (length - x)


def overlap(u: np.ndarray, v: np.ndarray) -> float:
    """|<u, v>| / (||u|| ||v||)."""
    return float(abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v)))

"""Quantum Fisher information toolkit for loss estimation in bosonic channels.

The package computes the QFI attainable with arbitrary single-mode probes of
a lossy bosonic channel, optimizes probe states at fixed energy, maps the
attainable region of truncated photon-subtracted states, and verifies by
Monte Carlo that photon counting saturates the Cramer-Rao bound for Fock
probes.
"""

from .channel import LossParameter, drho_dphi, evolve
from .degauss import (CoverageReport, RegionMap, coverage_check,
                      default_region_grids, photon_subtract, region_map,
                      truncate_levels)
from .errors import CutoffOverflowError, DegenerateStateError, DomainError
from .estimation import (EstimationReport, SLDOperator, classical_fisher,
                         closed_form_qfi, optimal_measurement, qfi,
                         qfi_of_state, sld)
from .fock import (DensityOperator, FockVector, Spectrum,
                   coherent_state, displaced_squeezed_vacuum, fidelity,
                   fock_state, hermitian_eig, mean_photon)
from .montecarlo import ExperimentReport, simulate_fock_estimation
from .optimize import (OptimizationResult, best_cat, optimize_gaussian,
                       optimize_qutrit, optimize_superposition)
from .probes import (Cat, Coherent, Fock, Gaussian, PhotonSubtracted,
                     ProbeSpec, Qubit, Qutrit, Superposition,
                     TruncatedSubtracted, build_probe, parse_probe,
                     probe_label, qutrit_coords)

__version__ = "0.1.0"

__all__ = [
    "LossParameter", "drho_dphi", "evolve",
    "CoverageReport", "RegionMap", "coverage_check", "default_region_grids",
    "photon_subtract", "region_map", "truncate_levels",
    "CutoffOverflowError", "DegenerateStateError", "DomainError",
    "EstimationReport", "SLDOperator", "classical_fisher", "closed_form_qfi",
    "optimal_measurement", "qfi", "qfi_of_state", "sld",
    "DensityOperator", "FockVector", "Spectrum",
    "coherent_state", "displaced_squeezed_vacuum", "fidelity", "fock_state",
    "hermitian_eig", "mean_photon",
    "ExperimentReport", "simulate_fock_estimation",
    "OptimizationResult", "best_cat", "optimize_gaussian",
    "optimize_qutrit", "optimize_superposition",
    "Cat", "Coherent", "Fock", "Gaussian", "PhotonSubtracted", "ProbeSpec",
    "Qubit", "Qutrit", "Superposition", "TruncatedSubtracted", "build_probe",
    "parse_probe", "probe_label", "qutrit_coords",
    "__version__",
]

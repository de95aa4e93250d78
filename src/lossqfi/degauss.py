"""De-Gaussification toolchain: photon subtraction, level truncation,
fidelity audits, and the attainable-region map of truncated photon-subtracted
states in (nbar, beta) coordinates.

The map (eta, r) -> (nbar, beta) is singular at the origin: every weight
angle accumulates there, so the default sampling lattice combines a uniform
grid with a geometric refinement toward small |eta| and |r|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError, DomainError
from .fock import (CutoffPolicy, FockVector, _gaussian_amplitudes, _smallest_cutoff,
                   amplitudes_of)

__all__ = [
    "RegionMap", "CoveragePoint", "CoverageReport",
    "photon_subtract", "truncate_levels", "default_region_grids",
    "region_map", "coverage_check",
]

# coverage tolerances are tied to the default lattice density
COVER_DELTA_NBAR = 0.02
COVER_DELTA_BETA = 0.03

# corner where near-degenerate performance excuses a coverage miss
EXCEPTION_PHI = 1.4
EXCEPTION_NBAR = 0.2


def photon_subtract(psi) -> FockVector:
    """Apply the annihilator and renormalize; errors on (near-)vacuum input."""
    amps = amplitudes_of(psi)
    levels = np.arange(1, amps.size)
    lowered = np.concatenate([np.sqrt(levels) * amps[1:], [0.0]])
    norm = np.linalg.norm(lowered)
    if norm < 1e-12:
        raise DegenerateStateError("photon subtraction annihilates the vacuum")
    return FockVector(lowered / norm)


def truncate_levels(psi, levels: int) -> FockVector:
    """Keep the lowest ``levels`` amplitudes and renormalize."""
    if levels < 1:
        raise DomainError("must keep at least one level")
    amps = amplitudes_of(psi)
    kept = amps[:levels]
    if np.linalg.norm(kept) ** 2 <= 1e-12:
        raise DegenerateStateError("all kept amplitudes are negligible")
    return FockVector(kept)


@dataclass(frozen=True)
class RegionMap:
    """Sampled attainable (nbar, beta) pairs of 3-level truncated subtracted states.

    ``points`` is a structured array with fields eta, r, nbar, beta holding
    one record per non-degenerate lattice point with nbar <= 1; the sampling
    lattices are kept alongside so the map is reproducible.
    """

    points: np.ndarray
    eta_grid: np.ndarray
    r_grid: np.ndarray
    skipped: int = 0


@dataclass(frozen=True)
class CoveragePoint:
    phi: float
    nbar: float
    beta_opt: float
    qfi_opt: float
    covered: bool
    exception: bool


@dataclass(frozen=True)
class CoverageReport:
    points: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.covered or p.exception for p in self.points)

    @property
    def failures(self) -> list:
        return [p for p in self.points if not (p.covered or p.exception)]


def _sorted_distinct(*parts) -> np.ndarray:
    """The distinct values of the given arrays in ascending order (what
    np.unique returns, without the numpy.ma import it makes)."""
    merged = np.sort(np.concatenate(parts))
    return merged[np.concatenate([[True], merged[1:] != merged[:-1]])]


def default_region_grids():
    """Default (eta, r) lattices: uniform coverage plus near-origin refinement."""
    etas = _sorted_distinct(np.linspace(0.0, 2.0, 161), np.geomspace(1e-3, 0.5, 60))
    half = np.geomspace(1e-3, 0.5, 50)
    rs = _sorted_distinct(np.linspace(-1.0, 1.0, 161), half, -half)
    return etas, rs


def region_map(eta_grid=None, r_grid=None,
               policy: CutoffPolicy | None = None) -> RegionMap:
    """Sample the attainable (nbar, beta) region of 3-level truncations.

    For every lattice point: build D(eta) S(r) |0>, subtract one photon,
    keep three levels, and read off the qutrit coordinates. Each eta row is
    one array pass over the r grid that reads only levels 1-3 of the cut
    states. Points with nbar > 1 are dropped; degenerate points (the vacuum
    at eta = r = 0) and points that need more levels than the cap are
    skipped and counted, never fatal.
    """
    if eta_grid is None and r_grid is None:
        eta_grid, r_grid = default_region_grids()
    eta_grid = np.atleast_1d(np.asarray(eta_grid, dtype=float))
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if eta_grid.size == 0 or r_grid.size == 0:
        raise DomainError("region grids must be non-empty")
    if np.any(eta_grid < 0):
        raise DomainError("displacement lattice must be non-negative")
    policy = policy or CutoffPolicy()
    levels = np.arange(policy.cap)
    top = levels[1:4]
    fields = [("eta", float), ("r", float), ("nbar", float), ("beta", float)]
    chunks = []
    skipped = 0
    for eta in eta_grid:
        # one recurrence over the whole r grid, then a cutoff per state
        amps = _gaussian_amplitudes(eta, r_grid, 0.0, policy.cap)
        cut = _smallest_cutoff(amps, policy)[:, None]
        # a|psi> keeps sqrt(n) c_n at level n - 1 for every kept level n < cut
        norm = np.sqrt(np.sum(np.where(levels < cut, levels * np.abs(amps) ** 2, 0.0), axis=1))
        low = np.zeros((r_grid.size, 3))
        low[:, :top.size] = np.where(top < cut, np.sqrt(top) * np.abs(amps[:, top]), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # the three kept levels of the normalized subtracted state
            low /= norm[:, None]
            kept = np.sum(low ** 2, axis=1)
            c1, c2 = (low[:, 1:] / np.sqrt(kept)[:, None]).T
        # the same degeneracies photon_subtract, truncate_levels and
        # qutrit_coords reject: the vacuum, negligible kept levels, beta undefined
        ok = (cut[:, 0] > 0) & (norm >= 1e-12) & (kept > 1e-12)
        ok[ok] = c1[ok] + c2[ok] >= 1e-15
        skipped += int(np.count_nonzero(~ok))
        nbar = c1 ** 2 + 2.0 * c2 ** 2
        keep = ok & (nbar <= 1.0)
        chunk = np.empty(int(np.count_nonzero(keep)), dtype=fields)
        chunk["eta"], chunk["r"] = eta, r_grid[keep]
        chunk["nbar"], chunk["beta"] = nbar[keep], np.arctan2(c1[keep], c2[keep])
        chunks.append(chunk)
    points = np.concatenate(chunks)
    return RegionMap(points=points, eta_grid=eta_grid, r_grid=r_grid, skipped=skipped)


def coverage_check(phi_list, nbar_grid, region: RegionMap) -> CoverageReport:
    """Check that optimal qutrit weights are attainable by truncated states.

    For each (phi, nbar) the optimal beta is computed and the region is
    searched for a sample within (COVER_DELTA_NBAR, COVER_DELTA_BETA).
    Misses inside the extreme-loss / low-energy corner are flagged as the
    permitted exception (there, practically all probes perform at the same
    near-ultimate level).
    """
    from .optimize import optimize_qutrit

    if region.points.size == 0:
        raise DomainError("region map is empty")
    pts_n = region.points["nbar"]
    pts_b = region.points["beta"]
    out = []
    for phi in phi_list:
        phi_val = float(phi.phi) if hasattr(phi, "phi") else float(phi)
        for nbar in nbar_grid:
            result = optimize_qutrit(float(nbar), phi_val)
            beta = result.best_params["beta"]
            hit = bool(np.any((np.abs(pts_n - nbar) <= COVER_DELTA_NBAR)
                              & (np.abs(pts_b - beta) <= COVER_DELTA_BETA)))
            exc = (phi_val >= EXCEPTION_PHI) and (nbar <= EXCEPTION_NBAR)
            out.append(CoveragePoint(phi=phi_val, nbar=float(nbar),
                                     beta_opt=float(beta),
                                     qfi_opt=float(result.best_qfi),
                                     covered=hit, exception=exc))
    return CoverageReport(points=out)

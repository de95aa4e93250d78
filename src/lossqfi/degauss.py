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

from .channel import _as_loss
from .errors import DegenerateStateError, DomainError
from .estimation import STACK_BUDGET
from .fock import FockVector, amplitudes_of
from .optimize import _qutrit_optima

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
    one record per lattice point with nbar <= 1 other than the vacuum, in
    lattice order (eta outer, r inner); ``skipped`` counts the vacuum
    points. The sampling lattices are kept alongside so the map is
    reproducible.
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


def _subtracted_levels(eta, r):
    """Unnormalized levels 0-2 of the truncated a D(eta) S(r) |0>, stacked on
    the first axis: k0 = eta (1 + t), k1 = k0^2 - t, k2 = k0 (k0^2 - 3t)/sqrt(2)
    with t = tanh r. ``eta`` and ``r`` are real and broadcast together."""
    t = np.tanh(r)
    k0 = eta * (1.0 + t)
    return np.stack([k0, k0 * k0 - t, k0 * (k0 * k0 - 3.0 * t) / np.sqrt(2.0)])


def region_map(eta_grid=None, r_grid=None) -> RegionMap:
    """Sample the attainable (nbar, beta) region of 3-level truncations.

    Every lattice point takes the closed form of the three kept levels of
    a D(eta) S(r) |0> (:func:`_subtracted_levels`), in blocks of eta rows:
    nbar = (k1^2 + 2 k2^2)/|k|^2 and beta = arctan2(|k1|, |k2|). Points
    with nbar > 1 are dropped; the vacuum (eta = r = 0), where all three
    levels vanish, is skipped and counted, never fatal.
    """
    if eta_grid is None and r_grid is None:
        eta_grid, r_grid = default_region_grids()
    eta_grid = np.atleast_1d(np.asarray(eta_grid, dtype=float))
    r_grid = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if eta_grid.size == 0 or r_grid.size == 0:
        raise DomainError("region grids must be non-empty")
    if np.any(eta_grid < 0):
        raise DomainError("displacement lattice must be non-negative")
    fields = [("eta", float), ("r", float), ("nbar", float), ("beta", float)]
    chunks = []
    skipped = 0
    block = max(1, STACK_BUDGET // r_grid.size)
    for start in range(0, eta_grid.size, block):
        k0, k1, k2 = _subtracted_levels(eta_grid[start:start + block, None], r_grid)
        norm2 = k0 ** 2 + k1 ** 2 + k2 ** 2
        ok = norm2 > 0.0
        skipped += int(np.count_nonzero(~ok))
        with np.errstate(divide="ignore", invalid="ignore"):
            nbar = (k1 ** 2 + 2.0 * k2 ** 2) / norm2
        keep = ok & (nbar <= 1.0)
        row, col = np.nonzero(keep)
        chunk = np.empty(row.size, dtype=fields)
        chunk["eta"], chunk["r"] = eta_grid[start + row], r_grid[col]
        chunk["nbar"], chunk["beta"] = nbar[keep], np.arctan2(np.abs(k1[keep]), np.abs(k2[keep]))
        chunks.append(chunk)
    points = np.concatenate(chunks)
    return RegionMap(points=points, eta_grid=eta_grid, r_grid=r_grid, skipped=skipped)


def coverage_check(phi_list, nbar_grid, region: RegionMap) -> CoverageReport:
    """Check that optimal qutrit weights are attainable by truncated states.

    One lockstep search (:func:`optimize._qutrit_optima`) gives the optimal beta at every (phi,
    nbar), and the region is searched for a sample within (COVER_DELTA_NBAR, COVER_DELTA_BETA)
    of each, among the nbar-sorted samples within twice COVER_DELTA_NBAR (a margin for
    rounding). Misses inside the extreme-loss / low-energy corner are flagged as the permitted
    exception (there, practically all probes perform at the same near-ultimate level).
    """
    if region.points.size == 0:
        raise DomainError("region map is empty")
    order = np.argsort(region.points["nbar"])
    pts_n, pts_b = region.points["nbar"][order], region.points["beta"][order]
    angles = [_as_loss(phi).phi for phi in phi_list]
    phis, nbars = (a.ravel() for a in np.meshgrid(
        angles, np.asarray(nbar_grid, dtype=float), indexing="ij"))
    betas, qfis = _qutrit_optima(nbars, phis)
    out = []
    for phi, nbar, beta, qfi in zip(phis.tolist(), nbars.tolist(), betas.tolist(), qfis.tolist()):
        lo, hi = np.searchsorted(pts_n, nbar + np.array([-2.0, 2.0]) * COVER_DELTA_NBAR)
        hit = bool(np.any((np.abs(pts_n[lo:hi] - nbar) <= COVER_DELTA_NBAR)
                          & (np.abs(pts_b[lo:hi] - beta) <= COVER_DELTA_BETA)))
        exc = (phi >= EXCEPTION_PHI) and (nbar <= EXCEPTION_NBAR)
        out.append(CoveragePoint(phi=phi, nbar=nbar, beta_opt=beta, qfi_opt=qfi,
                                 covered=hit, exception=exc))
    return CoverageReport(points=out)

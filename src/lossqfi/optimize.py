"""Fixed-energy QFI maximization over probe families.

The loss channel commutes with e^{i theta N} and its Kraus operators are
real in the Fock basis, so H(psi*) = H(psi): real coefficients are
stationary in every phase direction, and the searches run on the real
slice. The qutrit weight angle and the Gaussian squeeze fraction (at
theta_rel = 0) share one dense-grid plus golden-section search; general
superpositions of the lowest Fock levels run multi-start Nelder-Mead over an
exact chart of the real energy slice. Every candidate satisfies the
normalization and energy constraints exactly, so no penalty terms are
involved. Two checks on the hot path keep the narrowed search honest: the
superposition optimum must be a maximum in the phases, and no relative
phase may beat theta_rel = 0 at the Gaussian optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channel import LossParameter, _as_loss
from .errors import DomainError
from .estimation import QFI_ROUNDOFF, _qfi_stack, qfi_of_state
from .fock import (CutoffPolicy, FockVector, displaced_squeezed_vacuum,
                   mean_photon)
from .montecarlo import _rep_rng
from .probes import (Cat, Gaussian, ProbeSpec, Qutrit, Superposition,
                     _qutrit_amplitudes, build_probe, cat_alpha_for_energy)

__all__ = [
    "OptimizationResult", "optimize_qutrit", "optimize_superposition",
    "optimize_gaussian", "best_cat", "evaluate_result",
]

QUTRIT_GRID_POINTS = 721
QUTRIT_BETA_TOL = 1e-6
SIMPLEX_STARTS = 32
SIMPLEX_MAX_ITER = 500
SIMPLEX_FTOL = 1e-9
TIE_TOL = 1e-9
PHASE_STEP = 1e-3
PHASE_HESS_TOL = 1e-3
GAUSS_GRID_POINTS = 41
GAUSS_X_TOL = 1e-6
GAUSS_THETA_SCAN = 16
GAUSS_THETA_TOL = 1e-9


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a fixed-energy search over one probe family."""

    family: str
    best_params: dict
    best_qfi: float
    nbar: float
    phi: LossParameter
    starts: int
    converged: bool
    seed: int
    probe: ProbeSpec

    def __post_init__(self):
        if self.best_qfi > 4.0 * self.nbar * (1.0 + 1e-6):
            raise DomainError("optimized QFI exceeds the energy bound")


def evaluate_result(result: OptimizationResult,
                    policy: CutoffPolicy | None = None) -> float:
    """Re-run the numeric pipeline on the reported optimum."""
    return qfi_of_state(build_probe(result.probe, policy), result.phi)


def _grid_then_polish(f, grid, values, tol):
    """Maximize f given its values on a grid: polish the cells next to the
    best grid point by golden-section search, and keep that grid point when
    the polish does worse. Returns (argument, value)."""
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - ratio * (hi - lo)
    d = lo + ratio * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    best = f(mid)
    if values[i] > best:
        return float(grid[i]), float(values[i])
    return float(mid), float(best)


def optimize_qutrit(nbar: float, phi, policy: CutoffPolicy | None = None) -> OptimizationResult:
    """Best qutrit weight beta at fixed energy, phases at their optimum pi.

    Scans a dense beta grid over [0, pi/2] in one stacked QFI evaluation and
    polishes the best cell with golden-section search; deterministic, no
    randomness involved.
    """
    if not (0.0 < nbar <= 1.0):
        raise DomainError("qutrit optimization is asserted for nbar in (0, 1]")
    loss = _as_loss(phi)

    def value(beta):
        return qfi_of_state(build_probe(Qutrit(nbar, beta), policy), loss)

    grid = np.linspace(0.0, np.pi / 2, QUTRIT_GRID_POINTS)
    amps = _qutrit_amplitudes(nbar, grid)
    vals = _qfi_stack(amps / np.linalg.norm(amps, axis=-1, keepdims=True), loss)
    beta, best = _grid_then_polish(value, grid, vals, QUTRIT_BETA_TOL)
    return OptimizationResult(
        family="qutrit", best_params={"beta": beta, "mu": math.pi, "nu": math.pi},
        best_qfi=best, nbar=nbar, phi=loss, starts=1, converged=True,
        seed=0, probe=Qutrit(nbar, beta))


# ---------------------------------------------------------------------------
# superpositions of the lowest Fock levels


def _slice_point(u: np.ndarray, nbar: float) -> np.ndarray | None:
    """Real coefficients with sum c_n^2 = 1 and sum n c_n^2 = nbar, for any u.

    Levels below nbar become u_n / (|u_lo| sqrt(nbar - n)), levels above it
    u_n / (|u_hi| sqrt(n - nbar)), so sum (n - nbar) c_n^2 = 0; a level
    n = nbar keeps u_n. If either side vanishes only that level is left
    (None if it is absent). The first nonzero coefficient is positive.
    """
    gap = np.arange(u.size) - nbar
    lo, hi = gap < 0, gap > 0
    # math.hypot scales its arguments, so tiny u cannot underflow the norms
    norm_lo, norm_hi = math.hypot(*u[lo]), math.hypot(*u[hi])
    c = np.array(u, dtype=float)
    if norm_lo > 0 and norm_hi > 0:
        c[lo] = c[lo] / norm_lo / np.sqrt(-gap[lo])
        c[hi] = c[hi] / norm_hi / np.sqrt(gap[hi])
    else:
        c[lo | hi] = 0.0
    norm = math.hypot(*c)
    if norm == 0.0:
        return None
    return c / (norm if c[np.flatnonzero(c)[0]] > 0 else -norm)


def _slice_coords(c: np.ndarray, nbar: float) -> np.ndarray:
    """Inverse of :func:`_slice_point`: u_n = c_n sqrt|n - nbar|, and
    c_n / |u_lo| on a level n = nbar, which keeps its share of the weight."""
    gap = np.arange(c.size) - nbar
    u = c * np.sqrt(np.abs(gap))
    norm_lo = math.hypot(*u[gap < 0])
    u[gap == 0] = c[gap == 0] / (norm_lo if norm_lo > 0 else 1.0)
    return u


def _canonical_params(spec: Superposition) -> tuple:
    return tuple(round(v, 12) for c in spec.coefficients for v in (c.real, c.imag))


def _warm_starts(kmax: int, nbar: float, loss, policy) -> list[np.ndarray]:
    """Deterministic restart points: the two-level interpolation between
    neighboring Fock states and the embedded qutrit optimum (energies up
    to 1). Both are feasible for every kmax, so the search always dominates
    the lower-order families it contains.
    """
    low = min(int(math.floor(nbar)), kmax - 1)
    coeffs = np.zeros((2, kmax + 1))
    coeffs[0, low] = math.sqrt(1.0 - (nbar - low))
    coeffs[0, low + 1] = -math.sqrt(nbar - low)
    if kmax < 2 or nbar > 1.0:
        return [_slice_coords(coeffs[0], nbar)]
    beta = optimize_qutrit(nbar, loss, policy=policy).best_params["beta"]
    coeffs[1, :3] = _qutrit_amplitudes(nbar, beta).real
    return [_slice_coords(c, nbar) for c in coeffs]


def _check_phase_maximum(coeffs: np.ndarray, h: float, loss: LossParameter):
    """Raise unless real coefficients are a maximum of H in the phases of
    levels 1..k.

    H(psi*) = H(psi) makes H even in the phases, so from one stacked call on
    c e^{i delta (e_j +- e_l)}, 1 <= j <= l <= k, the phase Hessian is
    Hess_jl = [H(delta e_j + delta e_l) - H(delta e_j - delta e_l)] / (2 delta^2).
    Its roundoff is that of H over delta^2 (measured 1.3e-10/sin(phi)^2
    relative at delta = 1e-3); toward small loss the bound follows it.
    """
    k = coeffs.size - 1
    j, l = np.triu_indices(k)
    rows = np.arange(j.size)
    shifts = np.zeros((j.size, 2, k + 1))
    shifts[rows, :, j + 1] = PHASE_STEP
    shifts[rows, 0, l + 1] += PHASE_STEP
    shifts[rows, 1, l + 1] -= PHASE_STEP
    vals = _qfi_stack((coeffs * np.exp(1j * shifts)).reshape(-1, k + 1), loss)
    vals = vals.reshape(j.size, 2)
    hess = np.zeros((k, k))
    hess[j, l] = hess[l, j] = (vals[:, 0] - vals[:, 1]) / (2.0 * PHASE_STEP ** 2)
    top = np.linalg.eigvalsh(hess)[-1]
    roundoff = QFI_ROUNDOFF / (PHASE_STEP * math.sin(loss.phi)) ** 2
    if top > max(PHASE_HESS_TOL, roundoff) * max(1.0, h):
        raise ArithmeticError(f"the real optimum H = {h} is not a phase maximum: "
                              f"phase Hessian eigenvalue {top}")


def optimize_superposition(kmax: int, nbar: float, phi, seed: int = 0,
                           starts: int = SIMPLEX_STARTS,
                           policy: CutoffPolicy | None = None) -> OptimizationResult:
    """Best superposition of levels 0..kmax at fixed energy.

    Runs Nelder-Mead on real coefficients through the exact chart of the
    energy slice (:func:`_slice_point`), first from deterministic warm
    points containing the lower-order optima, then from seeded random
    points. Ties within 1e-9 in QFI break toward the smallest serialized
    coefficient vector. The optimum must also be a phase maximum
    (:func:`_check_phase_maximum`).
    """
    if kmax < 1 or kmax > 8:
        raise DomainError("superposition order must lie in 1..8")
    if not (0.0 < nbar <= kmax):
        raise DomainError(f"energy {nbar} infeasible for levels up to {kmax}")
    loss = _as_loss(phi)

    def objective(u):
        coeffs = _slice_point(u, nbar)
        return 0.0 if coeffs is None else -qfi_of_state(FockVector(coeffs), loss)

    initial = _warm_starts(kmax, nbar, loss, policy)
    for restart in range(max(starts - len(initial), 0)):
        initial.append(_rep_rng(seed, restart).normal(size=kmax + 1))
    best = None
    any_converged = False
    for x0 in initial:
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": SIMPLEX_MAX_ITER, "fatol": SIMPLEX_FTOL,
                                "xatol": 1e-8})
        coeffs = _slice_point(res.x, nbar)
        if coeffs is None:
            continue
        any_converged = any_converged or bool(res.success)
        h = -res.fun
        spec = Superposition(coeffs)
        key = _canonical_params(spec)
        if best is None or h > best[0] + TIE_TOL or (
                abs(h - best[0]) <= TIE_TOL and key < best[2]):
            best = (h, spec, key)
    if best is None:
        raise DomainError("no feasible superposition found")
    h, spec, _ = best
    _check_phase_maximum(np.real(spec.coefficients), h, loss)
    return OptimizationResult(
        family="superposition",
        best_params={"coefficients": spec.coefficients, "kmax": kmax},
        best_qfi=float(h), nbar=nbar, phi=loss, starts=starts,
        converged=any_converged, seed=seed, probe=spec)


# ---------------------------------------------------------------------------
# displaced squeezed vacuum


def _gauss_state(nbar: float, x: float, theta: float, policy: CutoffPolicy):
    x = min(max(x, 0.0), 1.0)
    r = math.asinh(math.sqrt(x * nbar))
    eta = math.sqrt(max((1.0 - x) * nbar, 0.0))
    return displaced_squeezed_vacuum(eta, r, theta, policy=policy)


def optimize_gaussian(nbar: float, phi,
                      policy: CutoffPolicy | None = None) -> OptimizationResult:
    """Best displaced squeezed vacuum at fixed energy.

    Splits the energy as sinh(r)^2 = x nbar, |eta|^2 = (1-x) nbar and
    searches the squeeze fraction x at theta_rel = 0 like the qutrit angle:
    a grid, then golden-section polish. theta_rel -> -theta_rel is complex
    conjugation, so theta_rel = 0 is stationary; a scan of theta_rel at the
    optimum raises ArithmeticError if some phase beats it by more than
    GAUSS_THETA_TOL max(1, H), or than the roundoff of H at small loss.
    """
    if nbar <= 0:
        raise DomainError("energy must be positive")
    loss = _as_loss(phi)
    policy = policy or CutoffPolicy()

    def value(x):
        return qfi_of_state(_gauss_state(nbar, x, 0.0, policy), loss)

    grid = np.linspace(0.0, 1.0, GAUSS_GRID_POINTS)
    x, h = _grid_then_polish(value, grid, [value(x) for x in grid], GAUSS_X_TOL)
    thetas = np.linspace(0.0, 2.0 * math.pi, GAUSS_THETA_SCAN, endpoint=False)
    scan = [qfi_of_state(_gauss_state(nbar, x, th, policy), loss) for th in thetas]
    i = int(np.argmax(scan))
    roundoff = QFI_ROUNDOFF / math.sin(loss.phi) ** 2
    if scan[i] > h + max(GAUSS_THETA_TOL, roundoff) * max(1.0, h):
        raise ArithmeticError(f"theta_rel = {thetas[i]:.6g} beats theta_rel = 0 at "
                              f"squeeze fraction {x:.6g}: H = {scan[i]} against {h}")
    r = math.asinh(math.sqrt(x * nbar))
    eta = math.sqrt(max((1.0 - x) * nbar, 0.0))
    return OptimizationResult(
        family="gaussian",
        best_params={"squeeze_fraction": x, "theta_rel": 0.0, "eta": eta, "r": r},
        best_qfi=h, nbar=nbar, phi=loss, starts=1, converged=True, seed=0,
        probe=Gaussian(eta, r, 0.0))


def best_cat(nbar: float, phi, policy: CutoffPolicy | None = None) -> OptimizationResult:
    """QFI of the better cat parity at fixed energy.

    Solves the amplitude for each feasible parity (odd cats only exist above
    nbar = 1) and reports the larger QFI.
    """
    loss = _as_loss(phi)
    candidates = []
    for sign in (+1, -1):
        try:
            alpha = cat_alpha_for_energy(nbar, sign)
        except DomainError:
            continue
        spec = Cat(alpha, sign)
        state = build_probe(spec, policy)
        candidates.append((qfi_of_state(state, loss), alpha, sign, spec,
                           mean_photon(state)))
    if not candidates:
        raise DomainError(f"no cat state exists at nbar={nbar}")
    h, alpha, sign, spec, nb = max(candidates, key=lambda c: c[0])
    return OptimizationResult(
        family="cat", best_params={"alpha": alpha, "sign": sign},
        best_qfi=float(h), nbar=float(nb), phi=loss, starts=len(candidates),
        converged=True, seed=0, probe=spec)

"""Fixed-energy QFI maximization over probe families.

Three searches: the qutrit weight angle (dense grid plus golden-section
polish), general superpositions of the lowest Fock levels (multi-start
Nelder-Mead over a feasible-by-construction chart), and displaced squeezed
vacuum (squeezing-fraction / relative-phase grid with simplex refinement).
Every candidate satisfies the normalization and energy constraints exactly,
so no penalty terms are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from .channel import LossParameter, _as_loss
from .errors import DomainError
from .estimation import _qfi_stack, qfi_of_state
from .fock import CutoffPolicy, displaced_squeezed_vacuum, mean_photon
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
GAUSS_GRID = (41, 17)
TIE_TOL = 1e-9


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


def _golden_max(f, lo, hi, tol):
    """Golden-section maximization on [lo, hi]."""
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
    return mid, f(mid)


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
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, QUTRIT_GRID_POINTS - 1)]
    beta, best = _golden_max(value, lo, hi, QUTRIT_BETA_TOL)
    if vals[i] > best:
        beta, best = float(grid[i]), float(vals[i])
    spec = Qutrit(nbar, float(beta))
    return OptimizationResult(
        family="qutrit", best_params={"beta": float(beta), "mu": math.pi, "nu": math.pi},
        best_qfi=float(best), nbar=nbar, phi=loss, starts=1, converged=True,
        seed=0, probe=spec)


# ---------------------------------------------------------------------------
# superpositions of the lowest Fock levels


def _magnitudes_from_angles(angles) -> np.ndarray:
    """Hyperspherical map from len(angles) free angles to len+1 weights."""
    weights = []
    rest = 1.0
    for th in angles:
        c2 = math.cos(th) ** 2
        weights.append(rest * c2)
        rest *= 1.0 - c2
    weights.append(rest)
    return np.asarray(weights)


def _energy_tilt(weights: np.ndarray, nbar: float) -> np.ndarray | None:
    """Exponentially tilt simplex weights so the mean level equals nbar.

    Returns the tilted weight vector, or None when the requested energy is
    numerically unreachable from the given support.
    """
    q = np.maximum(weights, 1e-300)
    levels = np.arange(q.size, dtype=float)
    logq = np.log(q)

    def energy(y):
        ex = logq + levels * y
        ex -= ex.max()
        w = np.exp(ex)
        return float(np.dot(levels, w) / w.sum())

    lo, hi = -1.0, 1.0
    for _ in range(80):
        if energy(lo) <= nbar:
            break
        lo *= 2.0
    for _ in range(80):
        if energy(hi) >= nbar:
            break
        hi *= 2.0
    e_lo, e_hi = energy(lo), energy(hi)
    if not (e_lo <= nbar <= e_hi):
        return None
    if e_lo == nbar:
        y = lo
    elif e_hi == nbar:
        y = hi
    else:
        y = brentq(lambda t: energy(t) - nbar, lo, hi, xtol=1e-14)
    ex = logq + levels * y
    ex -= ex.max()
    w = np.exp(ex)
    return w / w.sum()


def _superposition_state(params: np.ndarray, kmax: int, nbar: float) -> Superposition | None:
    angles = params[: kmax]
    phases = params[kmax:]
    weights = _energy_tilt(_magnitudes_from_angles(angles), nbar)
    if weights is None:
        return None
    coeffs = np.sqrt(weights).astype(complex)
    coeffs[1:] *= np.exp(1j * phases)
    return Superposition(coeffs)


def _canonical_params(spec: Superposition) -> tuple:
    return tuple(round(v, 12) for c in spec.coefficients for v in (c.real, c.imag))


def _angles_from_magnitudes(weights) -> np.ndarray:
    """Invert the hyperspherical map (:func:`_magnitudes_from_angles`)."""
    angles = []
    rest = 1.0
    for w in weights[:-1]:
        frac = min(max(w / rest, 0.0), 1.0) if rest > 1e-15 else 0.0
        angles.append(math.acos(math.sqrt(frac)))
        rest = max(rest - w, 0.0)
    return np.asarray(angles)


def _warm_starts(kmax: int, nbar: float, loss, policy) -> list[np.ndarray]:
    """Deterministic restart points: the embedded qutrit optimum (energies
    up to 1) and the two-level interpolation between neighboring Fock states.

    Either point is feasible for every kmax, so the multi-start search always
    dominates the lower-order families it contains.
    """
    phases = np.full(kmax, math.pi)
    points = []
    low = min(int(math.floor(nbar)), kmax - 1)
    weights = np.zeros(kmax + 1)
    weights[low] = 1.0 - (nbar - low)
    weights[low + 1] = nbar - low
    points.append(np.concatenate([_angles_from_magnitudes(weights), phases]))
    if kmax >= 2 and nbar <= 1.0:
        beta = optimize_qutrit(nbar, loss, policy=policy).best_params["beta"]
        amps = np.abs(build_probe(Qutrit(nbar, beta)).amplitudes) ** 2
        weights = np.zeros(kmax + 1)
        weights[:3] = amps
        points.append(np.concatenate([_angles_from_magnitudes(weights), phases]))
    return points


def optimize_superposition(kmax: int, nbar: float, phi, seed: int = 0,
                           starts: int = SIMPLEX_STARTS,
                           policy: CutoffPolicy | None = None) -> OptimizationResult:
    """Best superposition of levels 0..kmax at fixed energy.

    Magnitudes ride a hyperspherical chart restricted to the energy slice by
    an exponential tilt, phases are free angles, and the global phase is fixed
    by keeping c_0 real and non-negative. The first restarts are deterministic
    warm points containing the lower-order optima; the rest run Nelder-Mead
    from seeded random points. Ties within 1e-9 in QFI break toward the
    smallest serialized coefficient vector.
    """
    if kmax < 1 or kmax > 8:
        raise DomainError("superposition order must lie in 1..8")
    if not (0.0 < nbar <= kmax):
        raise DomainError(f"energy {nbar} infeasible for levels up to {kmax}")
    loss = _as_loss(phi)

    def objective(params):
        spec = _superposition_state(params, kmax, nbar)
        if spec is None:
            return 0.0
        return -qfi_of_state(build_probe(spec, policy), loss)

    initial = _warm_starts(kmax, nbar, loss, policy)
    for restart in range(max(starts - len(initial), 0)):
        rng = _rep_rng(seed, restart)
        initial.append(np.concatenate([
            rng.uniform(0.15, math.pi / 2 - 0.15, size=kmax),
            rng.uniform(0.0, 2.0 * math.pi, size=kmax),
        ]))
    best = None
    any_converged = False
    for x0 in initial:
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": SIMPLEX_MAX_ITER, "fatol": SIMPLEX_FTOL,
                                "xatol": 1e-8})
        h = -res.fun
        spec = _superposition_state(res.x, kmax, nbar)
        if spec is None:
            continue
        any_converged = any_converged or bool(res.success)
        key = _canonical_params(spec)
        if best is None or h > best[0] + TIE_TOL or (
                abs(h - best[0]) <= TIE_TOL and key < best[2]):
            best = (h, spec, key)
    if best is None:
        raise DomainError("no feasible superposition found")
    h, spec, _ = best
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

    Splits the energy as sinh(r)^2 = x nbar, |eta|^2 = (1-x) nbar and scans
    (x, theta_rel) on a 41 x 17 grid before refining with Nelder-Mead inside
    the box.
    """
    if nbar <= 0:
        raise DomainError("energy must be positive")
    loss = _as_loss(phi)
    policy = policy or CutoffPolicy()

    def value(x, theta):
        return qfi_of_state(_gauss_state(nbar, x, theta, policy), loss)

    nx, nth = GAUSS_GRID
    xs = np.linspace(0.0, 1.0, nx)
    thetas = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
    best = (-1.0, 0.0, 0.0)
    for x in xs:
        for th in thetas:
            h = value(x, th)
            if h > best[0]:
                best = (h, float(x), float(th))
    res = minimize(lambda p: -value(p[0], p[1]), np.array(best[1:]),
                   method="Nelder-Mead",
                   bounds=[(0.0, 1.0), (0.0, 2.0 * math.pi)],
                   options={"maxiter": SIMPLEX_MAX_ITER, "fatol": SIMPLEX_FTOL,
                            "xatol": 1e-8})
    h_refined = -res.fun
    if h_refined >= best[0]:
        x_star, th_star, h_star = float(res.x[0]), float(res.x[1]), float(h_refined)
    else:
        h_star, x_star, th_star = best
    r = math.asinh(math.sqrt(x_star * nbar))
    eta = math.sqrt(max((1.0 - x_star) * nbar, 0.0))
    spec = Gaussian(eta, r, th_star)
    return OptimizationResult(
        family="gaussian",
        best_params={"squeeze_fraction": x_star, "theta_rel": th_star,
                     "eta": eta, "r": r},
        best_qfi=h_star, nbar=nbar, phi=loss, starts=1,
        converged=bool(res.success) or h_star == best[0], seed=0, probe=spec)


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

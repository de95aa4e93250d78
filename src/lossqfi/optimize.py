"""Fixed-energy QFI maximization over probe families.

The loss channel commutes with e^{i theta N} and its Kraus operators are real in
the Fock basis, so H(psi*) = H(psi): real coefficients are stationary in every phase
direction, and the searches run on the real slice. The qutrit weight angle and the
Gaussian squeeze fraction (at theta_rel = 0) share one dense-grid plus golden-section
search that runs any number of points in lockstep; superpositions of the lowest Fock
levels run a quasi-Newton search with the exact gradient of the QFI over an exact chart
of the real energy slice from all starts at once. Both make one stacked evaluation per
pass. Exact forms rank both grids: the purification form of a real qutrit through loss,
a 3 x 3 solve, on which the qutrit search also polishes, and the phase-space form of a
Gaussian probe, which shows that no relative squeeze phase beats theta_rel = 0; the
Gaussian polish runs on the core. Every reported H is the core's. Every candidate
satisfies the normalization and energy constraints exactly, so no penalty terms are
involved. Checks on the hot path keep the narrowed search honest: the superposition
optimum must be a stationary point of the slice and a maximum in the phases, and the
core must agree with the qutrit form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LossParameter, _as_loss
from .errors import CutoffOverflowError, DomainError
from .estimation import (QFI_ROUNDOFF, RANK_EPS, STACK_BUDGET, _qfi_grad_stack,
                         _qfi_stack, qfi_of_state)
from .fock import _cut, _gaussian_amplitudes, mean_photon
from .montecarlo import _rep_rng
from .probes import (Cat, Gaussian, ProbeSpec, Qutrit, Superposition,
                     _qutrit_amplitudes, build_probe, cat_alpha_for_energy)

__all__ = [
    "OptimizationResult", "optimize_qutrit", "optimize_superposition",
    "optimize_gaussian", "best_cat",
]

QUTRIT_GRID_POINTS = 721
QUTRIT_BETA_TOL = 1e-6
# the core's mask drops pairs with s = lam_p + lam_q <= RANK_EPS, 4 RANK_EPS in all on three
# levels, each term 2 drho_qp^2 / s <= 8 s / (sin(phi) cos(phi))^2; the widest gap seen is 1/4 of it
QUTRIT_AGREEMENT = 32.0 * RANK_EPS
SUPERPOSITION_STARTS = 32
SEARCH_MAX_ITER = 300
# a start stops once the increase its next step promises is below
# (SEARCH_STOP * roundoff of H)^2 max(1, H): near a maximum that increase is
# quadratic in the gradient, whose error follows the roundoff of H
SEARCH_STOP = 100.0
# largest angle one step may turn either side of the chart by
SEARCH_MAX_TURN = 0.25
ARMIJO = 1e-4
# the stationarity residual may reach this times max(1, H) / sin(phi)^2,
# which grows like the roundoff of H toward small loss
STATIONARY_TOL = 1e-7
TIE_TOL = 1e-9
PHASE_STEP = 1e-3
PHASE_HESS_TOL = 1e-3
GAUSS_GRID_POINTS = 41
GAUSS_X_TOL = 1e-6
# the closed form and the core agree to about 1e-7 relative
GAUSS_TIE_TOL = 1e-6


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
        if not math.isfinite(self.best_qfi):
            raise DomainError(f"optimized QFI {self.best_qfi} is not finite")
        if self.best_qfi > 4.0 * self.nbar * (1.0 + 1e-6):
            raise DomainError("optimized QFI exceeds the energy bound")


def _grid_then_polish(f, grid, values, tol):
    """Maximize every row of a (P, G) stack of values on one grid in lockstep: polish
    the cells next to each row's best grid point by golden-section search, and keep
    that grid point where the polish does worse. f(rows, x) gives the values of the
    given rows at x. Each row runs the scalar recurrence on floats; the first call
    takes both inner points of every row, then each pass makes one call for the rows
    whose bracket is still wider than tol."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    i = np.argmax(values, axis=1)
    rows = np.arange(i.size)
    lo = grid[np.maximum(i - 1, 0)].tolist()
    hi = grid[np.minimum(i + 1, grid.size - 1)].tolist()
    c = [b - ratio * (b - a) for a, b in zip(lo, hi)]
    d = [a + ratio * (b - a) for a, b in zip(lo, hi)]
    fc, fd = (v.tolist() for v in np.split(f(np.tile(rows, 2), np.array(c + d)), 2))
    run = [k for k in range(i.size) if hi[k] - lo[k] > tol]
    while run:
        left = [fc[k] > fd[k] for k in run]
        for k, is_left in zip(run, left):
            if is_left:
                hi[k], d[k], fd[k] = d[k], c[k], fc[k]
                c[k] = hi[k] - ratio * (hi[k] - lo[k])
            else:
                lo[k], c[k], fc[k] = c[k], d[k], fd[k]
                d[k] = lo[k] + ratio * (hi[k] - lo[k])
        x = [c[k] if is_left else d[k] for k, is_left in zip(run, left)]
        for k, is_left, v in zip(run, left, f(np.array(run), np.array(x)).tolist()):
            (fc if is_left else fd)[k] = v
        run = [k for k in run if hi[k] - lo[k] > tol]
    mid = 0.5 * (np.array(lo) + np.array(hi))
    best, top = f(rows, mid), values[rows, i]
    return np.where(top > best, grid[i], mid), np.where(top > best, top, best)


def _qutrit_closed_form(nbar, beta, phi) -> np.ndarray:
    """H of the real qutrit :func:`_qutrit_amplitudes` (nbar, beta) = (a, b, c)
    through loss at phi, elementwise over the three broadcast together, with no
    eigenproblem.

    The Kraus images C (row m, Kraus index n, <m|K_n|psi>) purify the output,
    and so does C U for every unitary U on the Kraus index. The QFI is the least
    4 (||R||^2 - |Tr C+ R|^2), R = d(C U)/dphi, over them (Fujiwara and Imai,
    J. Phys. A 41, 255304 (2008); Escher, de Matos Filho and Davidovich, Nat.
    Phys. 7, 406 (2011)). For real C a real symmetric part S of the generator of
    U only adds ||C S||^2 - (Tr C^T C S)^2 >= 0, so H = 4 min ||C' + C A||^2 over
    real antisymmetric A, with C' = cot(phi) C N - tan(phi) N C, whose squared
    norm is a sum of binomial variances, nbar. For three levels A = [w]x turns
    this into the quadratic nbar + 2 u.w + w.G w, so H = 4 (nbar - u.G^-1 u),
    with M = C^T C, G = Tr(M) I - M and u the axial vector of N - N^T,
    N = C^T C'. With k = cos(phi) and s = sin(phi), C has six nonzero entries,
    C_00 = a, C_01 = s b, C_02 = s^2 c, C_10 = k b, C_11 = sqrt(2) k s c and
    C_20 = k^2 c, which give M and u below. G's eigenvalues are the pair sums of
    the output's eigenvalues, so it is singular only for a pure output. Near one (small
    nbar) det G and the diagonal of adj(G), u.G^-1 u = u.adj(G) u / det G, would cancel;
    they come from the Gram determinants p_ij = m_ii m_jj - m_ij^2 of C's columns (sums
    of squared minors), and det G = Tr(M) sum p_ij - det(C)^2 >= 8/9 Tr(M) sum p_ij.
    """
    a, b, c = np.moveaxis(_qutrit_amplitudes(nbar, beta), -1, 0)
    k, s = np.cos(phi), np.sin(phi)
    lead = a + math.sqrt(2.0) * k * k * c
    m00 = a * a + (k * b) ** 2 + (k * k * c) ** 2
    m11 = (s * b) ** 2 + 2.0 * (k * s * c) ** 2
    m22 = (s * s * c) ** 2
    m01, m02, m12 = s * b * lead, s * s * a * c, s ** 3 * b * c
    u0, u1, u2 = s * s * k * b * c, -2.0 * s * k * a * c, k * b * lead
    tr, g11, g22, kc2 = m00 + m11 + m22, m00 + m22, m00 + m11, (k * c) ** 2
    p12, p02 = 2.0 * m22 * (k * s * c) ** 2, (s * s) ** 2 * kc2 * (b * b + kc2)
    p01 = (k * s) ** 2 * ((math.sqrt(2) * a * c - b * b) ** 2 + kc2 * (b * b + 2.0 * kc2))
    # the adjugate of G, whose off-diagonal entries are -m01, -m02 and -m12
    a00, a11, a22 = m00 * tr + p12, m11 * tr + p02, m22 * tr + p01
    a01, a02, a12 = m01 * g22 + m02 * m12, m01 * m12 + m02 * g11, m01 * m02 + (m11 + m22) * m12
    det = tr * (p01 + p02 + p12) - p12 * k * k * kc2
    quad = (a00 * u0 * u0 + a11 * u1 * u1 + a22 * u2 * u2
            + 2.0 * (a01 * u0 * u1 + a02 * u0 * u2 + a12 * u1 * u2))
    return 4.0 * (b * b + 2.0 * c * c - quad / det)


def _qutrit_optima(nbars, phis):
    """Optimal beta and H of :func:`optimize_qutrit` at every (nbars[k], phis[k]): the beta
    grid of :func:`_qutrit_closed_form` in blocks within STACK_BUDGET, polished on it in lockstep.
    H, from one stacked core call, must match it to QUTRIT_AGREEMENT / (sin(phi) cos(phi))^2."""
    nbars = np.asarray(nbars, dtype=float)
    angles = np.array([_as_loss(phi).phi for phi in phis])
    for nbar, phi in zip(nbars, angles):
        if not (0.0 < nbar <= 1.0):
            raise DomainError(f"qutrit optima need nbar in (0, 1], "
                              f"not {nbar:.12g} (phi = {phi:.12g})")
    grid = np.linspace(0.0, np.pi / 2, QUTRIT_GRID_POINTS)
    block = max(1, STACK_BUDGET // grid.size)
    parts = [slice(at, at + block) for at in range(0, nbars.size, block)]
    vals = np.concatenate([_qutrit_closed_form(nbars[r, None], grid, angles[r, None])
                           for r in parts])
    betas, exact = _grid_then_polish(lambda rows, beta: _qutrit_closed_form(
        nbars[rows], beta, angles[rows]), grid, vals, QUTRIT_BETA_TOL)
    core = _qfi_stack(_qutrit_amplitudes(nbars, betas), angles)
    tol = QUTRIT_AGREEMENT / (np.sin(angles) * np.cos(angles)) ** 2
    for k in np.flatnonzero(~(np.abs(core - exact) <= tol))[:1]:
        raise ArithmeticError(
            f"the core's H {core[k]:.15g} and the closed form's {exact[k]:.15g} disagree beyond "
            f"{tol[k]:.3g} at nbar {nbars[k]:.12g}, beta {betas[k]:.12g}, phi {angles[k]:.12g}")
    return betas, core


def optimize_qutrit(nbar: float, phi) -> OptimizationResult:
    """Best qutrit weight beta at fixed energy, phases at their optimum pi (which
    make the amplitudes real): the one-point case of :func:`_qutrit_optima`, a
    dense beta grid over [0, pi/2], then golden-section polish of its best cell."""
    loss = _as_loss(phi)
    beta, best = (float(v[0]) for v in _qutrit_optima([nbar], [loss]))
    return OptimizationResult(
        family="qutrit", best_params={"beta": beta, "mu": math.pi, "nu": math.pi},
        best_qfi=best, nbar=nbar, phi=loss, starts=1, converged=True,
        seed=0, probe=Qutrit(nbar, beta))


# ---------------------------------------------------------------------------
# superpositions of the lowest Fock levels


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, scaled so tiny entries cannot underflow."""
    top = np.max(np.abs(x), axis=-1)
    safe = np.where(top > 0, top, 1.0)[..., None]
    return top * np.sqrt(np.sum((x / safe) ** 2, axis=-1))


def _chart_parts(u: np.ndarray, nbar: float):
    """The chart's unnormalized point v = u / side / root per row of u, with
    side = |u_side| on both sides of the slice (infinite where a side is
    empty, which drops it) and root = sqrt|n - nbar|, both 1 on a level
    n = nbar."""
    gap = np.arange(u.shape[-1]) - nbar
    lo, hi = gap < 0, gap > 0
    norm_lo = _row_norm(np.where(lo, u, 0.0))[..., None]
    norm_hi = _row_norm(np.where(hi, u, 0.0))[..., None]
    regular = (norm_lo > 0) & (norm_hi > 0)
    side = np.where(lo, norm_lo, np.where(hi, norm_hi, 1.0))
    side = np.where(regular | (gap == 0), side, np.inf)
    root = np.where(gap == 0, 1.0, np.sqrt(np.abs(gap)))
    return u / side / root, side, root


def _slice_point(u: np.ndarray, nbar: float) -> np.ndarray:
    """Real coefficients with sum c_n^2 = 1 and sum n c_n^2 = nbar, for every
    row of a (..., k+1) stack u.

    Levels below nbar become u_n / (|u_lo| sqrt(nbar - n)), levels above it
    u_n / (|u_hi| sqrt(n - nbar)), so sum (n - nbar) c_n^2 = 0; a level
    n = nbar keeps u_n. If either side vanishes only that level is left (a
    zero row if it is absent). The first nonzero coefficient is positive.
    """
    v = _chart_parts(u, nbar)[0]
    norm = _row_norm(v)[..., None]
    lead = np.take_along_axis(v, np.argmax(v != 0, axis=-1)[..., None], axis=-1)
    return v * np.sign(lead) / np.where(norm > 0, norm, 1.0)


def _slice_coords(c: np.ndarray, nbar: float) -> np.ndarray:
    """Inverse of :func:`_slice_point`: u_n = c_n sqrt|n - nbar|, and
    c_n / |u_lo| on a level n = nbar, which keeps its share of the weight."""
    gap = np.arange(c.shape[-1]) - nbar
    u = c * np.sqrt(np.abs(gap))
    norm_lo = _row_norm(np.where(gap < 0, u, 0.0))[..., None]
    return np.where(gap == 0, c / np.where(norm_lo > 0, norm_lo, 1.0), u)


def _tangent(u: np.ndarray, x: np.ndarray, nbar: float):
    """x without its component along u on each side of the slice, where the
    chart is constant, and the largest ratio |x_side| / |u_side| of the
    result: the angle a unit step along it turns u by."""
    gap = np.arange(u.shape[-1]) - nbar
    turn = np.zeros(u.shape[:-1])
    for side in (gap < 0, gap > 0):
        part = np.where(side, u, 0.0)
        weight = np.sum(part * part, axis=-1, keepdims=True)
        weight = np.where(weight > 0, weight, 1.0)
        x = x - part * np.sum(part * x, axis=-1, keepdims=True) / weight
        turn = np.maximum(turn, np.sqrt(np.sum(np.where(side, x, 0.0) ** 2, axis=-1)
                                        / weight[..., 0]))
    return x, turn


def _slice_pullback(u: np.ndarray, nbar: float, coeffs: np.ndarray,
                    grad: np.ndarray) -> np.ndarray:
    """dH/du from dH/dc through the chart, at rows u with points ``coeffs``.

    With c = sign v / |v| and v = u / side / root (:func:`_chart_parts`),
    the gradient in v is (g - c (c.g)) / (sign |v|) = (g - c (c.g)) / (v.c),
    and the gradient in u is that over side * root, less its component
    along u on each side, since side = |u_side|. Where a side is empty the
    chart is singular: those rows get a zero gradient.
    """
    v, side, root = _chart_parts(u, nbar)
    signed_norm = np.sum(v * coeffs, axis=-1, keepdims=True)
    g_v = (grad - coeffs * np.sum(coeffs * grad, axis=-1, keepdims=True)) \
        / np.where(signed_norm != 0, signed_norm, 1.0)
    return _tangent(u, g_v / side / root, nbar)[0]


def _canonical_params(spec: Superposition) -> tuple:
    return tuple(round(v, 12) for c in spec.coefficients for v in (c.real, c.imag))


def _warm_starts(kmax: int, nbar: float, loss) -> np.ndarray:
    """Deterministic starting coefficients: the two-level interpolation
    between neighboring Fock states, the embedded qutrit optimum (energies
    up to 1), and the sparse states sqrt(1 - nbar/j)|0> - sqrt(nbar/j)|j>
    for every level j >= nbar, which hold the optima at small loss. The
    sparse state at j = 1 or j = nbar is the two-level one. All are feasible
    for every kmax, so the search always dominates the lower-order families
    it contains.
    """
    low = min(int(math.floor(nbar)), kmax - 1)
    two_level = np.zeros(kmax + 1)
    two_level[low] = math.sqrt(1.0 - (nbar - low))
    two_level[low + 1] = -math.sqrt(nbar - low)
    rows = [two_level]
    if kmax >= 2 and nbar <= 1.0:
        beta = optimize_qutrit(nbar, loss).best_params["beta"]
        rows.append(np.zeros(kmax + 1))
        rows[-1][:3] = _qutrit_amplitudes(nbar, beta)
    levels = np.arange(max(2, math.floor(nbar) + 1), kmax + 1)
    sparse = np.zeros((levels.size, kmax + 1))
    sparse[:, 0] = np.sqrt(1.0 - nbar / levels)
    sparse[np.arange(levels.size), levels] = -np.sqrt(nbar / levels)
    return np.vstack(rows + [sparse])


def _slice_value(u: np.ndarray, nbar: float, loss: LossParameter):
    """At every row of u: its canonical coordinates (:func:`_slice_coords`
    of its point), the point, H, dH/dc and dH/du there, from one stacked
    core call."""
    coeffs = _slice_point(u, nbar)
    h, grad = _qfi_grad_stack(coeffs, loss)
    u = _slice_coords(coeffs, nbar)
    return u, coeffs, h, grad, _slice_pullback(u, nbar, coeffs, grad)


def _ascend(u: np.ndarray, nbar: float, loss: LossParameter):
    """Maximize H over the chart from every row of u at once (BFGS).

    Each pass makes one stacked core call holding one trial point per
    running start, so the starts share the call overhead but never each
    other's numbers. Points are kept in canonical coordinates and steps
    tangent to them, so the two directions along which the chart is
    constant never stretch the search, and no step turns either side of
    the chart by more than SEARCH_MAX_TURN. A trial is taken on sufficient
    increase (Armijo) or, where H cannot rank the two points, when the
    slope along the step has not turned (see below); otherwise its step
    shrinks by a safeguarded quadratic fit. A start stops once the increase
    its next step promises is below (SEARCH_STOP * roundoff of H)^2
    max(1, H), or after SEARCH_MAX_ITER passes. Starts where the chart is
    singular (a Fock state |nbar>) have a zero gradient and never move.
    Returns the final coefficients, H, dH/dc, and whether each start
    stopped before SEARCH_MAX_ITER passes.
    """
    n = u.shape[-1]
    u, coeffs, h, grad, slope = _slice_value(u, nbar, loss)
    inverse = np.broadcast_to(np.eye(n), (h.size, n, n)).copy()
    fresh = np.ones(h.size, dtype=bool)
    direction, step = np.zeros_like(u), np.zeros(h.size)
    roundoff = QFI_ROUNDOFF / math.sin(loss.phi) ** 2

    def aim(rows):
        direction[rows], turn = _tangent(
            u[rows], np.einsum("bij,bj->bi", inverse[rows], slope[rows]), nbar)
        step[rows] = SEARCH_MAX_TURN / np.maximum(turn, SEARCH_MAX_TURN)

    def promising(rows):
        return (step[rows] * np.sum(slope[rows] * direction[rows], axis=-1)
                > (SEARCH_STOP * roundoff) ** 2 * np.maximum(1.0, h[rows]))

    aim(np.arange(h.size))
    running = promising(np.arange(h.size))
    for _ in range(SEARCH_MAX_ITER):
        idx = np.flatnonzero(running)
        if idx.size == 0:
            break
        rate = np.sum(slope[idx] * direction[idx], axis=-1)
        gain = step[idx] * rate
        u_t, c_t, h_t, grad_t, slope_t = _slice_value(
            u[idx] + step[idx, None] * direction[idx], nbar, loss)
        # where H cannot rank the two points, the slopes can: a slope along
        # the step above -rate/2 at the trial means, in a quadratic model, an
        # increase of at least gain/4
        still = np.sum(slope_t * direction[idx], axis=-1) >= -0.5 * rate
        ok = (h_t >= h[idx] + ARMIJO * gain) | (
            (h_t >= h[idx] - roundoff * np.maximum(1.0, h[idx])) & still)
        # rejected: shrink toward the maximum of the quadratic through the
        # two values and the slope, kept within [1/10, 1/2] of the step
        rej = idx[~ok]
        curve = h_t[~ok] - h[rej] - gain[~ok]
        step[rej] *= np.clip(-0.5 * gain[~ok] / np.where(curve < 0, curve, -np.inf), 0.1, 0.5)
        # taken: BFGS update of the inverse Hessian of -H, scaled at the
        # first update and skipped unless the step saw positive curvature
        acc = idx[ok]
        s_k = u_t[ok] - u[acc]
        y_k = slope[acc] - slope_t[ok]
        ys = np.sum(y_k * s_k, axis=-1)
        upd = ys > 1e-12 * np.linalg.norm(y_k, axis=-1) * np.linalg.norm(s_k, axis=-1)
        first = upd & fresh[acc]
        inverse[acc[first]] *= (ys[first] / np.sum(y_k[first] ** 2, axis=-1))[:, None, None]
        fresh[acc[first]] = False
        s_k, y_k, rho = s_k[upd, :, None], y_k[upd, None, :], 1.0 / ys[upd, None, None]
        left = np.eye(n) - rho * s_k * y_k
        inverse[acc[upd]] = (left @ inverse[acc[upd]] @ np.swapaxes(left, 1, 2)
                             + rho * s_k * np.swapaxes(s_k, 1, 2))
        u[acc], coeffs[acc], h[acc], grad[acc], slope[acc] = \
            u_t[ok], c_t[ok], h_t[ok], grad_t[ok], slope_t[ok]
        aim(acc)
        running[idx] = promising(idx)
    return coeffs, h, grad, ~running


def _stationary_residual(coeffs: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """How far each row of real coefficients is from a stationary point of H
    on the energy slice.

    At a constrained critical point the gradient lies in the normal space
    span{c, N c} of the two constraints; the residual is |g - lam c - mu N c|
    with lam, mu fitted by least squares, one fit per row. A Fock state
    |nbar>, where the slice is singular, attains the bound 4 nbar and has
    residual 0. The certificate is local: it does not show that no other
    point of the slice is higher.
    """
    normal = np.stack([coeffs, np.arange(coeffs.shape[-1]) * coeffs], axis=-1)
    fit = np.linalg.pinv(normal) @ grad[..., None]
    residual = np.linalg.norm(grad - (normal @ fit)[..., 0], axis=-1)
    return np.where(np.count_nonzero(coeffs, axis=-1) == 1, 0.0, residual)


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
                           starts: int = SUPERPOSITION_STARTS) -> OptimizationResult:
    """Best superposition of levels 0..kmax at fixed energy.

    Runs a quasi-Newton ascent with the exact gradient on real coefficients
    through the exact chart of the energy slice (:func:`_slice_point`), from
    all starts at once: the deterministic warm points containing the
    lower-order optima (:func:`_warm_starts`), then seeded random points up
    to ``starts`` in total. Among the starts within 1e-9 in QFI of the
    highest, those that end at a stationary point of the slice
    (:func:`_stationary_residual`) compete, ties breaking toward the
    smallest serialized coefficient vector; when none does, the search
    raises. The optimum must also be a phase maximum
    (:func:`_check_phase_maximum`); both certificates are local.
    """
    if kmax < 1 or kmax > 8:
        raise DomainError("superposition order must lie in 1..8")
    if not (0.0 < nbar <= kmax):
        raise DomainError(f"energy {nbar} infeasible for levels up to {kmax}")
    loss = _as_loss(phi)
    initial = [_slice_coords(_warm_starts(kmax, nbar, loss), nbar)]
    initial += [_rep_rng(seed, restart).normal(size=(1, kmax + 1))
                for restart in range(max(starts - len(initial[0]), 0))]
    coeffs, h, grad, converged = _ascend(np.vstack(initial), nbar, loss)
    residual = _stationary_residual(coeffs, grad)
    stationary = residual <= STATIONARY_TOL / math.sin(loss.phi) ** 2 * np.maximum(1.0, h)
    # the starts tied with the highest one are ranked by the certificate
    certified = np.flatnonzero(stationary & (h >= h.max() - TIE_TOL))
    best = None
    for i in certified if certified.size else range(h.size):
        spec = Superposition(coeffs[i])
        key = _canonical_params(spec)
        if best is None or h[i] > h[best[0]] + TIE_TOL or (
                abs(h[i] - h[best[0]]) <= TIE_TOL and key < best[2]):
            best = (i, spec, key)
    i, spec, _ = best
    _check_phase_maximum(coeffs[i], h[i], loss)
    if not stationary[i]:
        raise ArithmeticError(f"the real optimum H = {h[i]} is not stationary on the "
                              f"energy slice: gradient residual {residual[i]}")
    return OptimizationResult(
        family="superposition",
        best_params={"coefficients": spec.coefficients, "kmax": kmax},
        best_qfi=float(h[i]), nbar=nbar, phi=loss, starts=starts,
        converged=bool(converged[i]), seed=seed, probe=spec)


# ---------------------------------------------------------------------------
# displaced squeezed vacuum


def _gauss_states(nbar: float, xs) -> list:
    """The displaced squeezed vacua with squeeze fractions ``xs`` at energy nbar
    and theta_rel = 0, from one recurrence over all of them, each cut exactly as
    :func:`displaced_squeezed_vacuum` cuts it; None for a state that needs more
    than MAX_LEVELS levels."""
    xs = np.clip(xs, 0.0, 1.0)
    r = np.arcsinh(np.sqrt(xs * nbar))
    eta = np.sqrt(np.maximum((1.0 - xs) * nbar, 0.0))
    # one scalar x keeps the recurrence in scalar arithmetic, much faster than
    # an array of one
    amps = _gaussian_amplitudes(eta, r, 0.0)
    states = []
    for row in amps.reshape(-1, amps.shape[-1]):
        try:
            states.append(_cut(row))
        except CutoffOverflowError:
            states.append(None)
    return states


def _gauss_value(nbar: float, x: float, loss: LossParameter) -> float:
    """H of squeeze fraction x at energy nbar from the core; -inf past the level guard."""
    state = _gauss_states(nbar, x)[0]
    return -math.inf if state is None else qfi_of_state(state, loss)


def _gauss_closed_form(nbar: float, xs, phi: float) -> np.ndarray:
    """H of D(eta) S(r)|0> with sinh(r)^2 = x nbar and eta^2 = (1 - x) nbar,
    with no truncation, for every squeeze fraction of ``xs`` (Monras and
    Illuminati, PRA 83, 012315 (2011); Pinel et al., PRA 88, 040102(R)
    (2013)). With vacuum covariance I, loss maps sigma0 = diag(e^{-2r}, e^{2r})
    and d0 = (2 eta, 0) to sigma = cos^2(phi) sigma0 + sin^2(phi) I and
    d = cos(phi) d0, and
    H = Tr[(sigma^-1 sigma')^2] / (2 (1 + mu^2)) + 2 mu'^2 / (1 - mu^4)
    + d'^T sigma^-1 d' with mu = det(sigma)^(-1/2). sigma' = sin(2 phi) (I - sigma0)
    commutes with sigma, so the first term sums over the eigenvalues e^{-+2r} of
    sigma0; with det = det sigma = 1 + cos^2 sin^2 4 x nbar the second is
    2 cos(2 phi)^2 4 x nbar / (det (det + 1)), 0 at x = 0. A relative squeeze
    phase theta_rel would rotate sigma0 by theta_rel / 2 and change only the
    third term's sigma0_pp to cosh 2r + cos(theta_rel) sinh 2r; its coefficient
    4 (1 - x) nbar sin^2 cos^2 / det is >= 0, so theta_rel = 0 is the maximum.
    """
    c2, s2 = math.cos(phi) ** 2, math.sin(phi) ** 2
    r = np.arcsinh(np.sqrt(xs * nbar))
    spread = 4.0 * xs * nbar
    det = 1.0 + c2 * s2 * spread
    ratios = sum((np.expm1(e) / (c2 * np.exp(e) + s2)) ** 2 for e in (-2.0 * r, 2.0 * r))
    covariance = 2.0 * c2 * s2 * det * ratios / (det + 1.0) \
        + 2.0 * math.cos(2.0 * phi) ** 2 * spread / (det * (det + 1.0))
    # sigma0_pp, the variance across the displacement
    var_p = np.cosh(2.0 * r) + np.sinh(2.0 * r)
    return covariance + 4.0 * (1.0 - xs) * nbar * s2 * (c2 * var_p + s2) / det


def optimize_gaussian(nbar: float, phi) -> OptimizationResult:
    """Best displaced squeezed vacuum at fixed energy.

    Splits the energy as sinh(r)^2 = x nbar, |eta|^2 = (1-x) nbar and searches
    the squeeze fraction x at theta_rel = 0 like the qutrit angle: a grid
    ranked by the exact phase-space form (:func:`_gauss_closed_form`), with
    ties within GAUSS_TIE_TOL ranked by the core, then golden-section polish on
    the core; the best grid point, kept where the polish does worse, has its
    core H too. No relative squeeze phase beats theta_rel = 0
    (:func:`_gauss_closed_form`). States past the level guard drop out of the
    grid (one recurrence over it) and the polish, so it raises
    CutoffOverflowError only when no grid state fits in MAX_LEVELS levels.
    """
    if not nbar > 0:
        raise DomainError("energy must be positive")
    loss = _as_loss(phi)
    grid = np.linspace(0.0, 1.0, GAUSS_GRID_POINTS)
    states = _gauss_states(nbar, grid)
    fits = np.array([state is not None for state in states])
    if not fits.any():
        raise CutoffOverflowError(f"no displaced squeezed vacuum at nbar = {nbar:.6g} fits "
                                  f"under the level guard fock.MAX_LEVELS; lower the energy")
    rank = np.where(fits, _gauss_closed_form(nbar, grid, loss.phi), -np.inf)
    # the core ranks the grid points that tie with the best within its own error,
    # and gives the best one the value that the polish must beat
    near = np.flatnonzero(rank >= (1.0 - GAUSS_TIE_TOL) * rank.max())
    values = np.full((1, grid.size), -np.inf)
    values[0, near] = [qfi_of_state(states[k], loss) for k in near]
    # one core call per x, as the scalar search made, keeps every printed digit
    x, h = (float(v[0]) for v in _grid_then_polish(
        lambda rows, xs: np.array([_gauss_value(nbar, v, loss) for v in xs]),
        grid, values, GAUSS_X_TOL))
    r = math.asinh(math.sqrt(x * nbar))
    eta = math.sqrt(max((1.0 - x) * nbar, 0.0))
    return OptimizationResult(
        family="gaussian",
        best_params={"squeeze_fraction": x, "theta_rel": 0.0, "eta": eta, "r": r},
        best_qfi=h, nbar=nbar, phi=loss, starts=1, converged=True, seed=0,
        probe=Gaussian(eta, r, 0.0))


def best_cat(nbar: float, phi) -> OptimizationResult:
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
        state = build_probe(spec)
        candidates.append((qfi_of_state(state, loss), alpha, sign, spec,
                           mean_photon(state)))
    if not candidates:
        raise DomainError(f"no cat state exists at nbar={nbar}")
    h, alpha, sign, spec, nb = max(candidates, key=lambda c: c[0])
    return OptimizationResult(
        family="cat", best_params={"alpha": alpha, "sign": sign},
        best_qfi=float(h), nbar=float(nb), phi=loss, starts=len(candidates),
        converged=True, seed=0, probe=spec)

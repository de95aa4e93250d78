"""Fixed-energy QFI maximization over probe families.

The loss channel commutes with e^{i theta N} and its Kraus operators are real in
the Fock basis, so H(psi*) = H(psi): real coefficients are stationary in every phase
direction, and the searches run on the real slice. The qutrit weight angle and the
Gaussian squeeze fraction (at theta_rel = 0) share one dense-grid plus golden-section
search that runs any number of points in lockstep; superpositions of the lowest Fock
levels run damped Newton steps in a trust region on their coefficients from all starts
at once, with one map that puts every start and every step on the real energy slice.
Both make one stacked evaluation per pass. Both run on the purification form of H, 4 min
||C' + C A||^2 over real antisymmetric A, with no eigenproblem of rho:
for a qutrit a 3 x 3 solve, which ranks the beta grid and polishes on it, and for k + 1
levels a least-squares problem with an exact gradient and Hessian. The phase-space form
of a Gaussian probe ranks its grid and shows that no relative squeeze phase beats
theta_rel = 0; the Gaussian polish runs on the core. Every reported H is the core's.
Every candidate satisfies the normalization and energy constraints exactly, so no
penalty terms are involved. Checks on the hot path keep the narrowed search honest: the
superposition optimum must be a stationary point of the slice on the form's gradient
and a maximum in the phases, and the core must agree with the qutrit form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LossParameter, _as_loss, _kraus_images
from .errors import CutoffOverflowError, DomainError
from .estimation import QFI_ROUNDOFF, RANK_EPS, STACK_BUDGET, _qfi_stack, qfi_of_state
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
SEARCH_MAX_ITER = 100
# a start stops once the increase its next step promises is below
# (SEARCH_STOP * roundoff of H)^2 max(1, H): near a maximum that increase is
# quadratic in the gradient, whose error follows the roundoff of H
SEARCH_STOP = 100.0
# iterations of the shift that puts a Newton step on the trust region's edge
TRUST_ITER = 6
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


def _to_slice(x: np.ndarray, nbar: float) -> np.ndarray:
    """The point of the energy slice sum c_n^2 = 1, sum n c_n^2 = nbar that each row
    of a real (..., k+1) stack x maps to.

    The levels at or below nbar are scaled by the norm of x_n sqrt(n - nbar) over the
    levels above it, and those by the same norm over the levels below, so
    sum (n - nbar) c_n^2 = 0 and a slice point stays where it is. Each side is first
    divided by its largest entry, and its entries below sqrt(tiny) / eps of that, whose
    squares vanish beside its own, become 0: every square below is then a normal float,
    and a second pass keeps every entry. Where either side holds only zeros, only a
    level n = nbar is left (a zero row if absent). The first nonzero coefficient is positive.
    """
    gap = np.arange(x.shape[-1]) - nbar
    above = gap > 0
    top = np.where(above, np.max(np.abs(np.where(above, x, 0.0)), axis=-1, keepdims=True),
                   np.max(np.abs(np.where(above, 0.0, x)), axis=-1, keepdims=True))
    x = x / np.where(top > 0, top, 1.0)
    x = np.where(np.abs(x) >= math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps, x, 0.0)
    weight = x * x * np.abs(gap)
    norm_lo = np.sqrt(np.sum(np.where(gap < 0, weight, 0.0), axis=-1, keepdims=True))
    norm_hi = np.sqrt(np.sum(np.where(above, weight, 0.0), axis=-1, keepdims=True))
    y = x * np.where(above, norm_lo, np.where((gap < 0) | (norm_hi > 0), norm_hi, 1.0))
    norm = np.sqrt(np.sum(y * y, axis=-1, keepdims=True))
    c = y / np.where(norm > 0, norm, 1.0)
    return c * np.sign(np.take_along_axis(c, np.argmax(c != 0, axis=-1)[..., None], axis=-1))


def _warm_starts(kmax: int, nbar: float, loss) -> np.ndarray:
    """Deterministic start directions, which :func:`_to_slice` puts on the slice: the
    two-level interpolation |low> - |low+1> between neighboring Fock states, the
    embedded qutrit optimum (energies up to 1), and |0> - |j> for every level
    j > nbar from 2 up, on the slice sqrt(1 - nbar/j)|0> - sqrt(nbar/j)|j>, which
    hold the optima at small loss (at j = 1 it is the two-level start). All are
    feasible for every kmax, so the search always dominates the lower-order families
    it contains.
    """
    eye = np.eye(kmax + 1)
    low = min(int(math.floor(nbar)), kmax - 1)
    rows = [eye[low] - eye[low + 1]]
    if kmax >= 2 and nbar <= 1.0:
        beta = optimize_qutrit(nbar, loss).best_params["beta"]
        rows.append(np.pad(_qutrit_amplitudes(nbar, beta), (0, kmax - 2)))
    return np.vstack(rows + [eye[0] - eye[max(2, math.floor(nbar) + 1):]])


def _form_maps(dim: int, phi: float):
    """The linear maps of the purification form (:func:`_qutrit_closed_form`) on levels
    0..dim-1 at phi: P with P c = vec C'(c), (dim^2, dim), and the stack Q with
    Q[alpha] c = vec(C(c) E_alpha), (A, dim^2, dim), for the A = dim (dim - 1) / 2
    antisymmetric generators E_alpha = e_i e_j^T - e_j e_i^T, i < j."""
    levels = np.arange(dim)
    # images[p] = C(e_p); a Kraus image weight cos^m sin^n has d/dphi log = n cot - m tan
    images = _kraus_images(np.eye(dim), phi)
    rate = levels / math.tan(phi) - levels[:, None] * math.tan(phi)
    i, j = np.triu_indices(dim, 1)
    gens = np.zeros((i.size, dim, dim))
    gens[np.arange(i.size), i, j], gens[np.arange(i.size), j, i] = 1.0, -1.0
    rotated = (images[None] @ gens[:, None]).reshape(i.size, dim, dim * dim)
    return (rate * images).reshape(dim, -1).T, np.swapaxes(rotated, 1, 2)


def _purification_form(coeffs: np.ndarray, p: np.ndarray, q: np.ndarray):
    """H, dH/dc and the Hessian of every real probe of a (B, D) stack from a least-squares
    solve, not the output's eigenproblem: H = 4 min_a ||P c + W a||^2, W = [Q_alpha c]
    (maps of :func:`_form_maps`).

    With a = -(W^T W)^+ W^T P c from the SVD of W (directions below eps D^2 of its
    largest singular value dropped, as least squares does), the residual r and
    M = P + sum a_alpha Q_alpha, the envelope theorem gives dH/dc = 8 M^T r, and
    eliminating a gives the Hessian 8 M^T M - 8 X (W^T W)^+ X^T, with the columns
    X_alpha = Q_alpha^T r + M^T W_alpha.
    """
    (count, dim), gens, size = coeffs.shape, q.shape[0], p.size
    pc = (coeffs[:, None, :] @ p.T)[:, 0]
    w = np.swapaxes((coeffs[:, None, :] @ q.reshape(gens * dim * dim, dim).T)[:, 0].reshape(
        count, gens, dim * dim), 1, 2)
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError:  # LAPACK's divide and conquer can fail on a cluster of
        # tiny singular values (seen near a Fock state); W^T then goes instead
        right, s, left = np.linalg.svd(np.swapaxes(w, 1, 2), full_matrices=False)
        u, vt = np.swapaxes(left, 1, 2), np.swapaxes(right, 1, 2)
    keep = s > np.finfo(float).eps * dim * dim * s[:, :1]
    inverse = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    proj = np.where(keep, (pc[:, None, :] @ u)[:, 0], 0.0)
    r = pc - (u @ proj[..., None])[..., 0]
    a = -(np.swapaxes(vt, 1, 2) @ (inverse * proj)[..., None])[..., 0]
    m = p + (a[:, None, :] @ q.reshape(gens, size))[:, 0].reshape(count, dim * dim, dim)
    mt = np.swapaxes(m, 1, 2)
    x = (r[:, None, :] @ q.transpose(1, 2, 0).reshape(dim * dim, dim * gens))[:, 0].reshape(
        count, dim, gens)
    y = (x + mt @ w) @ np.swapaxes(vt, 1, 2) * inverse[:, None, :]
    return (4.0 * np.sum(r * r, axis=-1), 8.0 * (mt @ r[..., None])[..., 0],
            8.0 * (mt @ m - y @ np.swapaxes(y, 1, 2)))


def _newton_step(coeffs, grad, hess, radius, nbar: float):
    """A damped Newton step from every row of real coefficients on the energy slice.

    On the tangent space of span{c, N c} the model is the gradient and the Hessian of
    the Lagrangian, Hess - lam0 I - lam1 N, with g = lam0 c + lam1 N c fitted by least
    squares. Where the reduced Hessian is negative definite and its Newton step lies
    within ``radius``, that step is taken; otherwise the spectrum is shifted by the
    mu >= max(top, 0) that puts the step on the radius, from Newton's method on
    1 / |step(mu)|, which rises from the left (More and Sorensen). The step is
    corrected along span{c, N c} so that both constraints hold to second order, and
    :func:`_to_slice` puts it on the slice. Returns the points, the gains the model
    promises, whether the reduced Hessian is negative definite, and the step lengths.
    """
    levels = np.arange(coeffs.shape[-1])
    normal = np.stack([coeffs, levels * coeffs], axis=-1)
    (g00, g01), (_, g11) = np.moveaxis(np.swapaxes(normal, 1, 2) @ normal, 0, -1)
    # the pseudo-inverse of [c, N c] from the adjugate of its Gram matrix, whose
    # determinant is |c|^2 times the spread of N, summed free of cancellation, and the
    # tangent space as the unit eigenspace of the projector off [c, N c]; eigh alone
    # leaves the code pages of further LAPACK routines out of the resident memory
    det = g00 * np.sum((levels - (g01 / g00)[:, None]) ** 2 * coeffs ** 2, axis=-1)
    adjugate = np.moveaxis(np.array([[g11, -g01], [-g01, g00]]) / det, -1, 0)
    fit = adjugate @ np.swapaxes(normal, 1, 2)
    tangent = np.linalg.eigh(np.eye(levels.size) - normal @ fit)[1][..., 2:]
    lam = (fit @ grad[..., None])[..., 0]
    lagrangian = hess - lam[:, :1, None] * np.eye(levels.size) - lam[:, 1:, None] * np.diag(levels)
    theta, vecs = np.linalg.eigh(np.swapaxes(tangent, 1, 2) @ lagrangian @ tangent)
    slope = (grad[:, None, :] @ tangent @ vecs)[:, 0]
    negdef = theta[:, -1] < 0
    # from mu = 0, or from where the top direction alone reaches the radius
    shift = np.where(negdef, 0.0, theta[:, -1] + np.abs(slope[:, -1]) / radius)
    for _ in range(TRUST_ITER + 1):
        gap = shift[:, None] - theta
        coef = slope / np.where(gap > 0, gap, np.inf)
        length = np.linalg.norm(coef, axis=-1)
        curve = np.sum(coef * coef / np.where(gap > 0, gap, np.inf), axis=-1)
        outside = length > radius
        shift[outside] += ((length / radius - 1.0) * length ** 2)[outside] / curve[outside]
    coef *= np.minimum(1.0, radius / np.where(outside, length, radius))[:, None]
    gain = np.sum(coef * (slope + 0.5 * theta * coef), axis=-1)
    move = (tangent @ vecs @ coef[..., None])[..., 0]
    bend = np.stack([np.sum(move * move, axis=-1), np.sum(levels * move * move, axis=-1)], -1)
    move -= 0.5 * (np.swapaxes(fit, 1, 2) @ bend[..., None])[..., 0]
    trial = _to_slice(coeffs + move, nbar)
    return trial, gain, negdef, np.linalg.norm(coef, axis=-1)


def _newton_ascent(starts: np.ndarray, nbar: float, loss: LossParameter):
    """Maximize H over the real energy slice from every row of ``starts`` at once,
    each put on the slice by :func:`_to_slice`, on the purification form
    (:func:`_purification_form`) by damped Newton steps (:func:`_newton_step`) in a
    trust region.

    Each pass makes one stacked call of the form holding one trial point per running
    start, so the starts share the call overhead but never each other's numbers. A
    trial is taken where H rises: then the region doubles if the model predicted the
    rise well and the step reached the region's edge. Otherwise the region shrinks
    to a quarter of the step. A start stops once the gain its next step promises is
    below (SEARCH_STOP * roundoff of H)^2 max(1, H), or after SEARCH_MAX_ITER passes.
    Where the reduced Hessian is negative definite, a Newton step that promises
    less than H can resolve is taken unranked, as long as each such promise is at
    most half the last: once it stops falling, it is the gradient's roundoff, and
    the start stops. A Fock state |nbar> (to roundoff), where the slice is
    singular, and a slice of two levels, which is a point, never move. Returns the
    final coefficients, dH/dc and whether each start stopped before SEARCH_MAX_ITER
    passes.
    """
    coeffs = _to_slice(starts, nbar)
    maps = _form_maps(coeffs.shape[-1], loss.phi)
    h, grad, hess = _purification_form(coeffs, *maps)
    radius = np.full(h.size, 0.5)
    roundoff = QFI_ROUNDOFF / math.sin(loss.phi) ** 2
    levels = np.arange(coeffs.shape[-1])
    spread = np.sum((levels - np.sum(levels * coeffs ** 2, axis=-1)[:, None]) ** 2 * coeffs ** 2,
                    axis=-1)
    running = (spread > np.finfo(float).eps ** 2) & (levels.size > 2)
    # the gain promised by each start's last step if it was taken unranked, else inf
    unranked = np.full(h.size, np.inf)
    for _ in range(SEARCH_MAX_ITER):
        idx = np.flatnonzero(running)
        if idx.size == 0:
            break
        trial, gain, negdef, length = _newton_step(
            coeffs[idx], grad[idx], hess[idx], radius[idx], nbar)
        resolution = roundoff * np.maximum(1.0, h[idx])
        blind = negdef & (gain <= resolution)
        go = (gain > SEARCH_STOP ** 2 * roundoff * resolution) & ~(
            blind & (gain > 0.5 * unranked[idx]))
        running[idx[~go]] = False
        idx, trial, gain, blind, length = idx[go], trial[go], gain[go], blind[go], length[go]
        if idx.size == 0:
            break
        h_t, grad_t, hess_t = _purification_form(trial, *maps)
        ok = (h_t > h[idx]) | blind
        unranked[idx] = np.where(blind, gain, np.inf)
        grow = ok & ((h_t - h[idx]) > 0.75 * gain) & (length > 0.9 * radius[idx])
        radius[idx] = np.where(grow, np.minimum(2.0 * radius[idx], 1.0),
                               np.where(ok, radius[idx], 0.25 * length))
        acc = idx[ok]
        coeffs[acc], h[acc], grad[acc], hess[acc] = trial[ok], h_t[ok], grad_t[ok], hess_t[ok]
    return coeffs, grad, ~running


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

    Runs a trust-region Newton ascent on the purification form of H over real
    coefficients of the energy slice (:func:`_newton_ascent`), from all starts
    at once: the deterministic warm directions containing the lower-order optima
    (:func:`_warm_starts`), then seeded random directions up to ``starts`` in
    total, u_n / sqrt|n - nbar| for standard normal u (u_n itself on a level
    n = nbar), so that c_n sqrt|n - nbar| points in a uniform direction on each
    side of nbar. One stacked core call gives H at every final start. Among the
    starts within TIE_TOL in QFI of the highest, those that end at a stationary
    point of the slice on the form's exact gradient (:func:`_stationary_residual`)
    compete, and the smallest serialized coefficient vector wins; when none does,
    the highest start is checked, and the search raises. The optimum must also be
    a phase maximum (:func:`_check_phase_maximum`); both certificates are local.
    """
    if kmax < 1 or kmax > 8:
        raise DomainError("superposition order must lie in 1..8")
    if not (0.0 < nbar <= kmax):
        raise DomainError(f"energy {nbar} infeasible for levels up to {kmax}")
    loss = _as_loss(phi)
    warm = _warm_starts(kmax, nbar, loss)
    gap = np.abs(np.arange(kmax + 1) - nbar)
    root = np.where(gap > 0, np.sqrt(gap), 1.0)
    seeded = [_rep_rng(seed, restart).normal(size=(1, kmax + 1)) / root
              for restart in range(max(starts - len(warm), 0))]
    coeffs, grad, converged = _newton_ascent(np.vstack([warm] + seeded), nbar, loss)
    h = _qfi_stack(coeffs, loss.phi)
    residual = _stationary_residual(coeffs, grad)
    stationary = residual <= STATIONARY_TOL / math.sin(loss.phi) ** 2 * np.maximum(1.0, h)
    # the certified starts within TIE_TOL of the highest all tie with each other, and
    # the smallest serialized coefficients win
    tied = np.flatnonzero(stationary & (h >= h.max() - TIE_TOL))
    i = min(tied, key=lambda i: [round(v, 12) for c in Superposition(coeffs[i]).coefficients
                                 for v in (c.real, c.imag)]) if tied.size else int(np.argmax(h))
    spec = Superposition(coeffs[i])
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

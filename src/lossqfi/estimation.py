"""Symmetric logarithmic derivative and quantum Fisher information for
loss estimation, with closed-form oracles, the optimal projective
measurement, classical Fisher information of arbitrary measurements, and
the QFI report with its Cramer-Rao variance floor 1/(runs H).

The production pipeline is fully numeric: build the probe, propagate it,
differentiate analytically, and assemble the SLD in the eigenbasis of the
output state. Every QFI, SLD and Fisher number comes from one checked core,
:func:`_checked_frame`. Closed forms are kept as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (PHI_MIN, LossParameter, _as_loss, _dagger, _density,
                      _kraus_images, _loss_generator)
from .errors import DomainError
from .fock import TRACE_TOL, Spectrum, amplitudes_of, hermitian_eig, mean_photon
from .probes import ProbeSpec, build_probe

__all__ = [
    "SLDOperator", "EstimationReport", "sld", "qfi", "qfi_of_state",
    "closed_form_qfi", "optimal_measurement", "classical_fisher",
]

# eigenvalue pairs with rho_p + rho_q below this fraction of the trace are
# outside the support and excluded from the SLD
RANK_EPS = 1e-12

ROUTE_AGREEMENT = 1e-9
BOUND_SLACK = 1e-6
# relative roundoff of H: the eigenvalues of the evolved state fall as
# sin(phi)^(2n), and the roundoff measured about 1.3e-16/sin(phi)^2; this is
# 100 times that
QFI_ROUNDOFF = 1e-14
# largest number of elements of one (B, D, D) array the stacked core builds
# for B > 1; a single probe of any D runs alone
STACK_BUDGET = 8192


@dataclass(frozen=True)
class SLDOperator:
    """The SLD matrix in the Fock basis together with its spectral data."""

    matrix: np.ndarray
    spectrum: Spectrum
    phi: LossParameter


@dataclass(frozen=True)
class EstimationReport:
    """Per-run QFI with the energy bound and the Cramer-Rao variance."""

    qfi: float
    ultimate_bound: float
    crlb_variance: float
    probe: ProbeSpec | None
    phi: LossParameter
    method: str
    runs: int = 1
    nbar: float = 0.0

    def __post_init__(self):
        if self.qfi < 0 or self.qfi > self.ultimate_bound * (1.0 + BOUND_SLACK):
            raise DomainError(
                f"QFI {self.qfi} violates the energy bound {self.ultimate_bound}")


def _sld_frame(rho, drho, trace):
    """Both QFI routes and the SLD in the eigenframe of rho, over a stack.

    ``rho`` and ``drho`` are (..., D, D) and ``trace`` holds the positive
    trace of each rho. The SLD solves drho = (rho L + L rho)/2 on the
    eigenvalue pairs inside the support, lam_p + lam_q above RANK_EPS times
    the trace: L_qp = 2 drho_qp / (lam_p + lam_q). Dividing by
    near-threshold sums amplifies the roundoff asymmetry of the rotated
    derivative, so L is symmetrized; the exact solution is Hermitian by
    construction. Returns the pairwise sum of 2 |drho_qp|^2 / (lam_p +
    lam_q), the trace Tr[rho L^2], the eigenvectors and L in their frame.
    """
    lam, vecs = np.linalg.eigh(rho)
    d_eig = _dagger(vecs) @ drho @ vecs
    pair = lam[..., :, None] + lam[..., None, :]
    mask = pair > RANK_EPS * np.asarray(trace)[..., None, None]
    pair = np.where(mask, pair, 1.0)
    h_pairs = np.sum(np.where(mask, 2.0 * np.abs(d_eig) ** 2 / pair, 0.0), axis=(-2, -1))
    sld_eig = np.where(mask, 2.0 * d_eig / pair, 0.0)
    sld_eig = 0.5 * (sld_eig + _dagger(sld_eig))
    h_trace = np.sum(lam * np.einsum("...qp,...pq->...q", sld_eig, sld_eig), axis=-1).real
    return h_pairs, h_trace, vecs, sld_eig


def _angles(phi, count: int):
    """The loss angle of ``count`` probes: one float for one angle, else one
    per probe in a (count,) array, checked in one vectorized test; the first
    angle outside the domain raises :func:`_as_loss`'s DomainError."""
    if not isinstance(phi, (list, tuple, np.ndarray)):
        return _as_loss(phi).phi
    angles = np.asarray(phi, dtype=float)
    outside = ~((PHI_MIN <= angles) & (angles <= np.pi / 2 - PHI_MIN))
    if outside.any():
        _as_loss(angles[outside][0])
    if angles.size != count:
        raise DomainError(f"{angles.size} loss angles given for {count} probes")
    return angles


def _checked_frame(amps, phi):
    """The QFI core over a (B, D) amplitude stack at one loss angle, or at
    one per probe (a (B,) array of phi).

    Propagates each probe through the channel (rho = C C+ over its Kraus
    images C), checks its trace, and computes both the pairwise sum over
    eigenpairs and Tr[rho L^2]. Every element must pass the route agreement
    and the energy bound H <= 4 nbar; every check is written so that a NaN
    fails it. A stack whose imaginary part is exactly zero runs in real
    arithmetic throughout. Returns the pairwise sums, which never divide by
    a lone vanishing eigenvalue, with the Kraus images, the eigenvectors of
    rho and the SLD in their frame.
    """
    amps = np.asarray(amps)
    if not np.isfinite(amps).all():
        raise DomainError("probe amplitudes must be finite")
    if np.iscomplexobj(amps) and not amps.imag.any():
        amps = amps.real
    cols = _kraus_images(amps, phi)
    rho = _density(cols)
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    off = ~(np.abs(trace - 1.0) <= TRACE_TOL)
    if off.any():
        raise DomainError(f"trace {trace[off][0]!r} deviates from 1 beyond {TRACE_TOL}")
    h_pairs, h_trace, vecs, sld_eig = _sld_frame(rho, _loss_generator(rho, phi), trace)
    scale = np.maximum(np.maximum(np.abs(h_pairs), np.abs(h_trace)), 1e-9)
    split = ~(np.abs(h_pairs - h_trace) <= ROUTE_AGREEMENT * scale)
    if split.any():
        i = int(np.argmax(split))
        raise ArithmeticError(f"QFI routes disagree: {h_pairs[i]} vs {h_trace[i]}")
    bound = 4.0 * (np.abs(amps) ** 2 @ np.arange(amps.shape[-1]))
    over = ~(h_pairs <= bound * (1.0 + BOUND_SLACK))
    if over.any():
        i = int(np.argmax(over))
        raise DomainError(f"QFI {h_pairs[i]} violates the energy bound {bound[i]}")
    return h_pairs, cols, vecs, sld_eig


def _stacks(count: int, dim: int) -> list:
    """Row slices that split a (count, dim) stack into stacks of
    max(1, STACK_BUDGET // dim^2) probes, so that a stack of B > 1 probes
    keeps B D^2 within STACK_BUDGET."""
    step = max(1, STACK_BUDGET // dim ** 2)
    return [slice(start, start + step) for start in range(0, count, step)]


def _qfi_stack(amps, phi) -> np.ndarray:
    """QFI of every pure probe of a (B, D) amplitude stack, checked by
    :func:`_checked_frame`, at one loss angle or at one per probe (a (B,)
    array of phi), in the stacks of :func:`_stacks`."""
    angles = _angles(phi, amps.shape[0])
    out = np.empty(amps.shape[0])
    for rows in _stacks(*amps.shape):
        out[rows] = _checked_frame(
            amps[rows], angles if isinstance(angles, float) else angles[rows])[0]
    return out


def qfi_of_state(state, phi) -> float:
    """Numeric QFI of an already-built pure probe state at loss phi.

    The one-probe case of :func:`_qfi_stack`: both QFI routes must agree
    and the value must respect the energy bound.
    """
    return float(_qfi_stack(amplitudes_of(state)[None], phi)[0])


def sld(state, phi) -> SLDOperator:
    """Symmetric logarithmic derivative of a pure probe after the channel.

    Takes L from the QFI core (:func:`_checked_frame`), so its QFI has
    passed both routes and the energy bound, and a real probe runs in real
    arithmetic. L solves drho = (rho L + L rho)/2 on the eigenvalue pairs
    inside the support and vanishes outside it; it is returned in the Fock
    basis with its spectrum in a deterministic frame.
    """
    loss = _as_loss(phi)
    _, _, vecs, sld_eig = _checked_frame(amplitudes_of(state)[None], loss.phi)
    matrix = (vecs @ sld_eig @ _dagger(vecs))[0]
    return SLDOperator(matrix=matrix, spectrum=hermitian_eig(matrix), phi=loss)


def qfi(probe: ProbeSpec, phi, runs: int = 1) -> EstimationReport:
    """QFI of a probe family member, as an EstimationReport.

    The report carries the per-run QFI, the energy bound 4 nbar, and the
    Cramer-Rao variance floor 1/(runs * QFI) for the requested run count.
    """
    if runs < 1:
        raise DomainError("run count must be at least 1")
    loss = _as_loss(phi)
    state = build_probe(probe)
    nbar = mean_photon(state)
    h = qfi_of_state(state, loss)
    crlb = (1.0 / (runs * h)) if h > 0 else math.inf
    return EstimationReport(qfi=h, ultimate_bound=4.0 * nbar, crlb_variance=crlb,
                            probe=probe, phi=loss, method="numeric",
                            runs=runs, nbar=nbar)


def closed_form_qfi(family: str, params: dict, phi) -> float:
    """Closed-form QFI oracles for the analytically solvable families.

    family is one of fock, qubit, qutrit02, gaussian_small_n, coherent.
    qutrit02 and gaussian_small_n are small-energy forms asserted for
    nbar <= 1; coherent follows from the pure coherent output |alpha cos phi>.
    """
    loss = _as_loss(phi)
    z = math.tan(loss.phi) ** 2
    if family == "fock":
        n = params["n"]
        if n < 0 or n != int(n):
            raise DomainError("fock oracle needs a non-negative integer n")
        return 4.0 * float(n)
    if family == "qubit":
        nbar = params["nbar"]
        if not (0.0 <= nbar <= 1.0):
            raise DomainError("qubit oracle needs nbar in [0, 1]")
        return 4.0 * nbar * (1.0 - (1.0 - nbar) * math.cos(loss.phi) ** 2)
    if family == "qutrit02":
        nbar = params["nbar"]
        if not (0.0 < nbar <= 1.0):
            raise DomainError("qutrit02 oracle asserted for nbar in (0, 1]")
        return 4.0 * nbar * (1.0 + z * z) / (1.0 + (2.0 - nbar) * z + z * z)
    if family == "gaussian_small_n":
        nbar = params["nbar"]
        if not (0.0 < nbar <= 1.0):
            raise DomainError("gaussian_small_n oracle asserted for nbar in (0, 1]")
        return 4.0 * nbar * (1.0 + z * z) / (1.0 + 2.0 * z * (1.0 + nbar) + z * z)
    if family == "coherent":
        nbar = params["nbar"]
        if nbar < 0:
            raise DomainError("coherent oracle needs nbar >= 0")
        return 4.0 * nbar * math.sin(loss.phi) ** 2
    raise DomainError(f"unknown closed-form family {family!r}")


def optimal_measurement(sld_op: SLDOperator):
    """Rank-one projectors onto the SLD eigenvectors, with their eigenvalues.

    Returns a list of (eigenvalue, projector) pairs forming a complete
    orthonormal projective measurement; for Fock probes every projector is a
    number-basis projector.
    """
    vals = sld_op.spectrum.eigenvalues
    vecs = sld_op.spectrum.eigenvectors
    return [(float(vals[k]), np.outer(vecs[:, k], vecs[:, k].conj()))
            for k in range(vals.size)]


def classical_fisher(projectors, probe: ProbeSpec, phi) -> float:
    """Fisher information of a projective measurement on the evolved probe.

    F = sum_x (dp_x)^2 / p_x over outcomes. p_x = Tr[P_x rho] of a projector
    and a unit-trace rho on D levels is resolved to about D * eps (machine
    epsilon); an outcome with p_x at or below that is zero to working
    precision, its (dp_x)^2 / p_x is not resolved, and it is skipped. Every
    projector must act on the evolved state's space; a DomainError names
    both dimensions otherwise. The evolved state comes from the QFI core
    (:func:`_checked_frame`), so the probe has passed its checks.
    """
    phi = _as_loss(phi).phi
    cols = _checked_frame(amplitudes_of(build_probe(probe))[None], phi)[1]
    rho = _density(cols)[0]
    drho = _loss_generator(rho, phi)
    dim = rho.shape[0]
    resolution = dim * np.finfo(float).eps
    total = 0.0
    for item in projectors:
        proj = np.asarray(item[1] if isinstance(item, tuple) else item)
        if proj.shape != (dim, dim):
            raise DomainError(
                f"projector dimension {proj.shape[0]} differs from the evolved "
                f"state's dimension {dim}")
        p = float(np.trace(proj @ rho).real)
        dp = float(np.trace(proj @ drho).real)
        if p > resolution:
            total += dp * dp / p
    return total


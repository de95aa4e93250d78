"""Lossy bosonic channel: Kraus evolution and the analytic derivative of the
output state with respect to the loss angle.

The channel is parametrized by an angle phi in (0, pi/2) tied to the decay
exponent through tan(phi)^2 = exp(gamma t) - 1, so the transmissivity is
cos(phi)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import DensityOperator, FockVector, _log_factorials, amplitudes_of, matrix_of

__all__ = ["LossParameter", "evolve", "drho_dphi"]

# the loss domain is [PHI_MIN, pi/2 - PHI_MIN]. The margin keeps tan(phi) and
# the Kraus factors finite, and it keeps the QFI's roundoff inside the energy
# bound's slack: estimation.QFI_ROUNDOFF / sin(phi)^2 is 1.0e-8 at PHI_MIN,
# 100 times below estimation.BOUND_SLACK, so no admissible phi can fail the
# bound by roundoff
PHI_MIN = 1e-3

# weights below this 1-norm no longer contribute to a Kraus sum
_KRAUS_TERM_FLOOR = 1e-16


@dataclass(frozen=True)
class LossParameter:
    """Loss angle phi on the closed interval [PHI_MIN, pi/2 - PHI_MIN]."""

    phi: float

    def __post_init__(self):
        if not (PHI_MIN <= self.phi <= np.pi / 2 - PHI_MIN):
            raise DomainError(f"phi={self.phi} outside [{PHI_MIN}, pi/2 - {PHI_MIN}]")

    @classmethod
    def from_gamma_t(cls, gamma_t: float):
        """The angle with tan(phi)^2 = exp(gamma t) - 1, for gamma t > 0."""
        if not gamma_t > 0.0:
            raise DomainError("gamma_t must be positive")
        # e^g - 1 = 2 e^{g/2} sinh(g/2), free of cancellation at small g
        return cls(math.atan(math.sqrt(2.0 * math.exp(0.5 * gamma_t) * math.sinh(0.5 * gamma_t))))


def _as_loss(phi) -> LossParameter:
    return phi if isinstance(phi, LossParameter) else LossParameter(float(phi))


def _kraus_images(amps: np.ndarray, phi) -> np.ndarray:
    """Kraus images of a (..., D) stack of pure states, one per column.

    Column n holds K_n psi, for the Kraus operators K_n = sin(phi)^n /
    sqrt(n!) cos(phi)^N a^n, in closed form, <m|K_n|psi> =
    cos(phi)^m sin(phi)^n sqrt(C(m+n, n)) psi_{m+n}, gathered in one pass
    with the weights taken in log space so that no factor overflows.
    ``phi`` is one loss angle, or one per stack element. A probe's terms
    stop once its input population at or above level n drops below the
    floor: that mass bounds everything the remaining terms could contribute
    (individual term norms are not monotone in n, so testing only the
    current term would be unsound). Real probes keep real images. The
    result is C-contiguous whatever the stack, so a stacked probe takes the
    same matrix products, bit for bit, as the probe alone.
    """
    d = amps.shape[-1]
    m = np.arange(d)
    total = m[:, None] + m
    level = np.minimum(total, d - 1)
    half = 0.5 * _log_factorials(d)
    # log weights: row m, column n and the shared sqrt((m+n)!); a weight of
    # -inf drops the levels m + n >= d
    top = np.where(total < d, half[level], -np.inf)
    phi = np.asarray(phi, dtype=float)[..., None]
    keep = np.cumsum(np.abs(amps[..., ::-1]) ** 2, axis=-1)[..., ::-1] >= _KRAUS_TERM_FLOOR
    keep[..., 0] = True
    row = m * np.log(np.cos(phi)) - half
    col = m * np.log(np.sin(phi)) - half
    weight = np.exp(row[..., :, None] + col[..., None, :] + top)
    if not keep.all():
        weight = np.where(keep[..., None, :], weight, 0.0)
    # np.take keeps the gather in C order, where amps[..., level] would not
    return weight * np.take(amps, level, axis=-1)


def _dagger(m: np.ndarray) -> np.ndarray:
    t = np.swapaxes(m, -1, -2)
    return t.conj() if np.iscomplexobj(t) else t


def _density(cols):
    """rho = C C+ over the Kraus images C of each probe, made exactly Hermitian."""
    rho = cols @ _dagger(cols)
    return 0.5 * (rho + _dagger(rho))


def evolve(state, phi) -> DensityOperator:
    """Propagate a state (pure vector or density operator) through the channel.

    A pure probe gives the QFI core's rho, C C+ over its Kraus images C
    (:func:`_kraus_images`). For a density operator the Kraus sum collapses
    to shifted diagonals, out[j,k] = sum_n w[j,n] w[k,n] rho[j+n,k+n], with
    w[m,n] = <m|K_n|m+n> the Kraus images of a flat vector.
    """
    p = _as_loss(phi).phi
    if isinstance(state, FockVector) or np.ndim(state) == 1:
        return DensityOperator(_density(_kraus_images(amplitudes_of(state), p)))
    rho = matrix_of(state)
    d = rho.shape[0]
    w = _kraus_images(np.ones(d), p)
    out = np.zeros((d, d), dtype=complex)
    for n in range(d):
        out[: d - n, : d - n] += np.outer(w[: d - n, n], w[: d - n, n]) * rho[n:, n:]
    return DensityOperator(out)


def _loss_generator(m: np.ndarray, phi, adjoint: bool = False) -> np.ndarray:
    """tan(phi) (2 a m a+ - N m - m N) on a (..., D, D) stack, in the dtype of
    m, at one loss angle or one per stack element; with ``adjoint`` its
    adjoint under Tr[X+ Y], tan(phi) (2 a+ m a - N m - m N)."""
    d = m.shape[-1]
    levels = np.arange(d)
    shifted = np.zeros_like(m)
    if d > 1:
        root = np.sqrt(np.outer(levels[1:], levels[1:]))
        if adjoint:
            shifted[..., 1:, 1:] = m[..., :-1, :-1] * root
        else:
            shifted[..., :-1, :-1] = m[..., 1:, 1:] * root
    tan = np.tan(phi)
    return (tan[..., None, None] if tan.ndim else tan) \
        * (2.0 * shifted - levels[:, None] * m - m * levels[None, :])


def drho_dphi(rho_phi, phi) -> np.ndarray:
    """Analytic derivative of the evolved state with respect to phi.

    Evaluates tan(phi) (2 a rho a+ - a+a rho - rho a+a) on the state already
    propagated to phi, or on a (..., D, D) stack of such states; the result
    is traceless and Hermitian.
    """
    return _loss_generator(matrix_of(rho_phi), _as_loss(phi).phi)

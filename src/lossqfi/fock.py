"""Truncated single-mode Fock space: state constructors, Hermitian
eigendecompositions, and the overlap and mean photon number of pure states.

All states live in the number basis |0>, ..., |D-1>. Coherent and displaced
squeezed states are built by Yuen's exact recurrence for the amplitudes of
D(eta) S(xi)|0>, a coherent state being its xi = 0 member. Their cutoff is
measured: it is the smallest one whose neglected population, measured
against the exact unit norm, stays below TAIL_TOL, and a state that needs
more than MAX_LEVELS levels is refused.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffOverflowError, DegenerateStateError, DomainError

__all__ = [
    "FockVector", "DensityOperator", "Spectrum",
    "hermitian_eig", "fock_state", "coherent_state",
    "displaced_squeezed_vacuum", "fidelity", "mean_photon",
    "amplitudes_of", "matrix_of",
]

HERMITICITY_TOL = 1e-8
TRACE_TOL = 1e-10
# a measured cutoff leaves less than this population above it
TAIL_TOL = 1e-10
# the most levels a measured cutoff may take: one eigh of a 1024 x 1024 real
# matrix takes 0.2-0.3 s on one thread
MAX_LEVELS = 1024
# levels of the Gaussian recurrence between two tests of its neglected population
_TAIL_BLOCK = 16


def _freeze(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FockVector:
    """Normalized pure state: complex amplitudes over photon numbers 0..D-1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise DomainError("state needs a one-dimensional, non-empty amplitude vector")
        if not np.isfinite(amps).all():
            raise DomainError("state amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if norm < 1e-15:
            raise DegenerateStateError("cannot normalize the zero vector")
        object.__setattr__(self, "amplitudes", _freeze(amps / norm))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive, unit-trace matrix on the truncated Fock space.

    The matrix is symmetrized on construction, which absorbs floating-point
    asymmetry accumulated e.g. in Kraus sums.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("density operator must be a square matrix")
        m = 0.5 * (m + m.conj().T)
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _freeze(np.asarray(self.eigenvectors, dtype=complex)))


def amplitudes_of(state) -> np.ndarray:
    """Amplitude vector of a FockVector or a bare one-dimensional array-like.

    A DensityOperator or a matrix raises DomainError: every caller takes
    pure states only.
    """
    if isinstance(state, FockVector):
        return state.amplitudes
    if not isinstance(state, DensityOperator):
        arr = np.asarray(state, dtype=complex)
        if arr.ndim == 1:
            return arr
    raise DomainError("takes pure states only: pass a FockVector or a one-dimensional "
                      "amplitude vector, not a density operator or a matrix")


def matrix_of(state) -> np.ndarray:
    """Matrix of a DensityOperator or of a bare square array-like."""
    if isinstance(state, DensityOperator):
        return state.matrix
    return np.asarray(state, dtype=complex)


def hermitian_eig(matrix) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Eigenvalues are sorted in descending order and each eigenvector's
    largest-magnitude component is rotated to be real and non-negative,
    so repeated runs agree bit for bit.
    """
    m = np.asarray(matrix, dtype=complex)
    scale = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.conj().T) > HERMITICITY_TOL * scale:
        raise DomainError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=0)[None], axis=0)[0]
    # hypot is what abs() of one complex scalar computes; np.abs of an array
    # can differ from it in the last bit
    size = np.hypot(pivot.real, pivot.imag)
    vecs = vecs * np.where(size > 0, np.conj(pivot) / np.where(size > 0, size, 1.0), 1.0)
    return Spectrum(vals, vecs)


def fock_state(n: int) -> FockVector:
    """|n> on the n+1 levels 0..n."""
    if n < 0:
        raise DomainError("photon number must be non-negative")
    amps = np.zeros(n + 1, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps)


@functools.lru_cache(maxsize=64)
def _log_factorials(count: int) -> np.ndarray:
    """Read-only table of log(m!) for m = 0, ..., count-1.

    Each entry is the logarithm of the exact integer m!, so the table is
    correctly rounded wherever math.log is and carries no error accumulated
    along m, as a running sum of log(m) would. The QFI core asks for the
    table of every probe's cutoff, so recent tables are kept.
    """
    table = np.empty(count)
    factorial = 1
    for m in range(count):
        factorial *= max(m, 1)
        table[m] = math.log(factorial)
    return _freeze(table)


def _cut(amps: np.ndarray) -> FockVector:
    """The state truncated at the smallest D <= MAX_LEVELS whose neglected
    population is below TAIL_TOL; raises CutoffOverflowError past MAX_LEVELS.

    The amplitudes are exact and of unit norm, so the tail beyond D is
    1 - sum_{n<D} |c_n|^2 and needs no levels above D.
    """
    pop = np.abs(amps[:MAX_LEVELS]) ** 2
    tail = 1.0 - np.cumsum(pop)
    ok = np.flatnonzero(tail < TAIL_TOL)
    if ok.size == 0:
        # every neglected photon sits at level pop.size or above
        nbar = pop @ np.arange(pop.size) + pop.size * max(tail[-1], 0.0)
        raise CutoffOverflowError(
            f"the state's mean photon number is at least {nbar:.4g}: it needs more than "
            f"{MAX_LEVELS} levels to keep its neglected population below {TAIL_TOL:g}; "
            f"lower its energy or its squeezing")
    return FockVector(amps[:ok[0] + 1])


def _gaussian_amplitudes(eta, r, theta_rel, levels: int | None = None) -> np.ndarray:
    """Amplitudes <n|D(eta) S(r e^{i theta_rel})|0> for n < levels.

    Yuen's exact three-term recurrence (Yuen, PRA 13, 2226 (1976)) with
    t = e^{i theta_rel} tanh r and gamma = eta + eta* t:
    c_0 = exp(-|eta|^2/2 - eta*^2 t/2) / sqrt(cosh r),
    c_{n+1} = (gamma c_n - t sqrt(n) c_{n-1}) / sqrt(n+1).
    ``eta``, ``r`` and ``theta_rel`` may be arrays, broadcast together; the
    level index is then the last axis. Without ``levels`` the recurrence
    runs to at most MAX_LEVELS and stops early: every _TAIL_BLOCK levels it
    adds them to the running mass in the order :func:`_cut` sums them, and
    it stops once every state's neglected population 1 - sum |c_n|^2 is
    below TAIL_TOL, so no measured cutoff moves.
    """
    stop_early = levels is None
    levels = MAX_LEVELS if stop_early else levels
    t = np.exp(1j * theta_rel) * np.tanh(r)
    gamma = eta + np.conj(eta) * t
    size = np.hypot(np.real(eta), np.imag(eta))
    c = [np.exp(-0.5 * size ** 2 - 0.5 * np.conj(eta) ** 2 * t) / np.sqrt(np.cosh(r))]
    c.append(gamma * c[0])
    mass = 0.0
    for n in range(1, levels - 1):
        if stop_early and n % _TAIL_BLOCK == 0:
            block = np.abs(np.array(c[n - _TAIL_BLOCK:n])) ** 2
            block[0] += mass
            mass = np.cumsum(block, axis=0)[-1]
            if np.all(1.0 - mass < TAIL_TOL):
                break
        c.append((gamma * c[n] - t * math.sqrt(n) * c[n - 1]) / math.sqrt(n + 1))
    return np.moveaxis(np.array(c[:levels], dtype=complex), 0, -1)


def _subtracted_amplitudes(eta: float, r: float, levels: int = MAX_LEVELS) -> np.ndarray:
    """The lowest ``levels`` levels of a D(eta) S(r)|0>, unnormalized: level n
    is sqrt(n+1) c_{n+1}, with c_n the amplitudes of D(eta) S(r)|0>."""
    return np.sqrt(np.arange(1, levels + 1)) * _gaussian_amplitudes(eta, r, 0.0, levels + 1)[1:]


def displaced_squeezed_vacuum(eta: complex, r: float, theta_rel: float = 0.0) -> FockVector:
    """Displaced squeezed vacuum D(eta) S(r e^{i theta_rel}) |0>.

    The mean photon number is |eta|^2 + sinh(r)^2. The cutoff is measured
    (:func:`_cut`), and a state that needs more than MAX_LEVELS levels
    raises CutoffOverflowError.
    """
    return _cut(_gaussian_amplitudes(eta, r, theta_rel))


def coherent_state(alpha: complex) -> FockVector:
    """Coherent state |alpha> = D(alpha)|0>, the unsqueezed member of
    :func:`displaced_squeezed_vacuum`'s family, with its cutoff measured."""
    return _cut(_gaussian_amplitudes(alpha, 0.0, 0.0))


def fidelity(x, y) -> float:
    """|<x|y>|^2 of two pure states; states with different cutoffs are
    zero-padded to a common dimension."""
    xv, yv = amplitudes_of(x), amplitudes_of(y)
    d = max(xv.size, yv.size)
    return float(min(np.abs(np.vdot(np.pad(xv, (0, d - xv.size)),
                                    np.pad(yv, (0, d - yv.size)))) ** 2, 1.0))


def mean_photon(state) -> float:
    """Expectation of the number operator a+ a in a pure state."""
    amps = amplitudes_of(state)
    return float(np.sum(np.arange(amps.size) * np.abs(amps) ** 2))

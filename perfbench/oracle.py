"""Reference computations the benchmark checks lossqfi's outputs against.

Nothing here imports lossqfi. States come from closed forms or recurrences,
the loss channel from its Kraus images, and the QFI from a derivative taken
by central differences, so no code path is shared with the program under
test (which builds Gaussians by exponentiating generators and differentiates
the channel output analytically).

Conventions follow the program's documented ones: the loss angle phi has
transmissivity cos(phi)^2, z = tan(phi)^2, and D(eta) S(r e^{i theta})|0>
with S(xi) = exp[(xi* a^2 - xi a+^2) / 2].
"""

from __future__ import annotations

import math

import numpy as np

# eigenvalue pairs summing below this share of the trace lie outside the
# support of the channel output and carry no Fisher information
SUPPORT_EPS = 1e-12
# step of the five-point central difference in phi
FD_STEP = 1e-4
# tail population left out of the recurrence-built Gaussian states
TAIL = 1e-15
MAX_LEVELS = 600


def gaussian_amplitudes(eta: complex, r: float, theta: float = 0.0) -> np.ndarray:
    """<n| D(eta) S(r e^{i theta}) |0> from the Yuen three-term recurrence.

    The state is annihilated by (a - eta) cosh r + (a+ - eta*) e^{i theta} sinh r,
    which gives c_{n+1} = (g c_n - e^{i theta} tanh(r) sqrt(n) c_{n-1}) / sqrt(n+1)
    with g = eta + eta* e^{i theta} tanh r. Levels are added until the
    population left out is below TAIL.
    """
    eta = complex(eta)
    et = np.exp(1j * theta) * math.tanh(r)
    g = eta + eta.conjugate() * et
    c = [np.exp(-abs(eta) ** 2 / 2 - eta.conjugate() ** 2 * et / 2) / math.sqrt(math.cosh(r))]
    c.append(g * c[0])
    mass = abs(c[0]) ** 2 + abs(c[1]) ** 2
    n = 1
    while 1.0 - mass > TAIL or n < 8:
        if n >= MAX_LEVELS:
            raise ArithmeticError(f"recurrence did not converge for eta={eta}, r={r}")
        c.append((g * c[n] - et * math.sqrt(n) * c[n - 1]) / math.sqrt(n + 1))
        mass += abs(c[-1]) ** 2
        n += 1
    return np.array(c, dtype=complex)


def subtracted_amplitudes(eta: float, r: float) -> np.ndarray:
    """a D(eta) S(r)|0>, renormalized: (a psi)_n = sqrt(n+1) psi_{n+1}."""
    psi = gaussian_amplitudes(eta, r)
    out = np.sqrt(np.arange(1, psi.size)) * psi[1:]
    return out / np.linalg.norm(out)


def scaled_hermite(eta, r, levels: int) -> np.ndarray:
    """h_0..h_{levels-1} with <n|D(eta)S(r)|0> = e^{-eta^2(1+t)/2} h_n / sqrt(n! cosh r).

    h_0 = 1, h_1 = eta (1 + t), h_{n+1} = h_1 h_n - n t h_{n-1}, t = tanh r;
    eta and r are real arrays of one shape, evaluated elementwise.
    """
    eta = np.asarray(eta, dtype=float)
    t = np.tanh(np.asarray(r, dtype=float))
    h = [np.ones_like(eta), eta * (1.0 + t)]
    for n in range(1, levels - 1):
        h.append(h[1] * h[n] - n * t * h[n - 1])
    return np.stack(h[:levels])


def truncated_subtracted_coords(eta, r, drop_level3=False):
    """(nbar, beta) of a D(eta) S(r)|0> kept on levels 0..2, elementwise.

    Levels 0..2 of the subtracted state are proportional to
    (h_1, h_2, h_3 / sqrt 2); nbar = |c1|^2 + 2|c2|^2 and beta = atan2(|c1|, |c2|)
    after normalization. Returns (nbar, beta, norm2) where norm2 is the squared
    norm of the unnormalized triple (0 marks the vacuum, where beta is undefined).
    ``drop_level3`` gives the coordinates when level 3 of D(eta) S(r)|0> is
    cut before the subtraction, so the triple has no level-2 part.
    """
    h = scaled_hermite(eta, r, 4)
    q0, q1, q2 = h[1], h[2], (0.0 if drop_level3 else 1.0) * h[3] / math.sqrt(2.0)
    norm2 = q0 ** 2 + q1 ** 2 + q2 ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        nbar = (q1 ** 2 + 2.0 * q2 ** 2) / norm2
    beta = np.arctan2(np.abs(q1), np.abs(q2))
    return nbar, beta, norm2


def qutrit_amplitudes(nbar: float, beta: float) -> np.ndarray:
    """cos a|0> - sin a sin(beta)|1> - sin a cos(beta)|2>, sin^2 a = 2 nbar / (cos 2 beta + 3)."""
    s2 = min(2.0 * nbar / (math.cos(2.0 * beta) + 3.0), 1.0)
    sa, ca = math.sqrt(s2), math.sqrt(1.0 - s2)
    return np.array([ca, -sa * math.sin(beta), -sa * math.cos(beta)], dtype=complex)


def mean_photon(amps) -> float:
    amps = np.asarray(amps, dtype=complex)
    return float(np.sum(np.arange(amps.size) * np.abs(amps) ** 2) / np.sum(np.abs(amps) ** 2))


def _log_binomial(dim: int) -> np.ndarray:
    m = np.arange(dim)
    lg = np.array([math.lgamma(k + 1.0) for k in range(2 * dim)])
    return lg[m[:, None] + m[None, :]] - lg[m][:, None] - lg[m][None, :]


def channel_output(amps, phi: float, log_binomial=None) -> np.ndarray:
    """rho(phi) = sum_k v_k v_k+ with Kraus images v_k[m] = c_{m+k} sqrt(C(m+k, k)) cos^m sin^k."""
    c = np.asarray(amps, dtype=complex)
    d = c.size
    logc = _log_binomial(d) if log_binomial is None else log_binomial
    m = np.arange(d)[:, None]
    k = np.arange(d)[None, :]
    idx = m + k
    inside = idx < d
    weight = np.exp(0.5 * logc + m * math.log(math.cos(phi)) + k * math.log(math.sin(phi)))
    v = np.where(inside, c[np.minimum(idx, d - 1)] * weight, 0.0)
    return v @ v.conj().T


def qfi(amps, phi: float) -> float:
    """QFI in phi of a pure probe sent through the loss channel.

    drho/dphi is the five-point central difference of channel_output; the QFI
    is 2 sum |<p|drho|q>|^2 / (l_p + l_q) over eigenpairs of rho(phi) inside
    the support.
    """
    c = np.asarray(amps, dtype=complex)
    c = c / np.linalg.norm(c)
    logc = _log_binomial(c.size)
    h = FD_STEP
    rho = channel_output(c, phi, logc)
    drho = (-channel_output(c, phi + 2 * h, logc) + 8.0 * channel_output(c, phi + h, logc)
            - 8.0 * channel_output(c, phi - h, logc) + channel_output(c, phi - 2 * h, logc)) / (12.0 * h)
    lam, vec = np.linalg.eigh(rho)
    d_eig = vec.conj().T @ drho @ vec
    pair = lam[:, None] + lam[None, :]
    keep = pair > SUPPORT_EPS * float(np.trace(rho).real)
    return float(np.sum(2.0 * np.abs(d_eig[keep]) ** 2 / pair[keep]))


def qubit_qfi(nbar: float, phi: float) -> float:
    return 4.0 * nbar * (1.0 - (1.0 - nbar) * math.cos(phi) ** 2)


def qutrit02_qfi(nbar: float, phi: float) -> float:
    z = math.tan(phi) ** 2
    return 4.0 * nbar * (1.0 + z * z) / (1.0 + (2.0 - nbar) * z + z * z)


def coherent_qfi(nbar: float, phi: float) -> float:
    return 4.0 * nbar * math.sin(phi) ** 2

import dataclasses
import math

import numpy as np
import pytest

from lossqfi import (DensityOperator, DomainError, FockVector, LossParameter, drho_dphi,
                     evolve, fock_state)
from lossqfi.channel import PHI_MIN
from lossqfi.estimation import BOUND_SLACK, QFI_ROUNDOFF
from lossqfi.fock import _gaussian_amplitudes

# the views of the loss angle as maps to and from phi, each on its open domain;
# a reference written apart from the package, which works in phi only
_TO_PHI = {"phi": lambda p: p, "gamma_t": lambda g: math.atan(math.sqrt(math.expm1(g))),
           "z": lambda z: math.atan(math.sqrt(z)),
           "transmissivity": lambda t: math.acos(math.sqrt(t))}
_FROM_PHI = {"phi": lambda p: p, "gamma_t": lambda p: math.log1p(math.tan(p) ** 2),
             "z": lambda p: math.tan(p) ** 2, "transmissivity": lambda p: math.cos(p) ** 2}
_OPEN = {"phi": (0.0, math.pi / 2), "gamma_t": (0.0, math.inf), "z": (0.0, math.inf),
         "transmissivity": (0.0, 1.0)}


def loss_reparametrize(value: float, source: str, target: str) -> float:
    """Convert between the views {phi, gamma_t, z, transmissivity} through phi;
    open-interval endpoints are rejected."""
    if source not in _OPEN or target not in _OPEN:
        raise DomainError(f"unknown parametrization; expected one of {tuple(_OPEN)}")
    lo, hi = _OPEN[source]
    if not lo < value < hi:
        raise DomainError(f"{source} must lie strictly inside ({lo}, {hi})")
    return _FROM_PHI[target](_TO_PHI[source](value))


def kraus_operators(phi: float, dim: int) -> list:
    """The dim Kraus operators K_n = sin(phi)^n / sqrt(n!) cos(phi)^N a^n on a
    dim-level space, as dense matrix products; a^n vanishes for n >= dim, so
    this finite family is exactly trace preserving."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    damping = np.diag(math.cos(phi) ** np.arange(dim))
    return [math.sin(phi) ** n / math.sqrt(math.factorial(n)) * damping
            @ np.linalg.matrix_power(a, n) for n in range(dim)]


def coherent(alpha, levels: int) -> FockVector:
    """|alpha> on its lowest ``levels`` levels, more than its own cutoff keeps."""
    return FockVector(_gaussian_amplitudes(alpha, 0.0, 0.0, levels))


def density(state: FockVector) -> DensityOperator:
    return DensityOperator(np.outer(state.amplitudes, state.amplitudes.conj()))


def random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return DensityOperator(rho / np.trace(rho))


class TestLossParameter:
    def test_domain_guard(self):
        with pytest.raises(DomainError):
            LossParameter(0.0)
        with pytest.raises(DomainError):
            LossParameter(math.pi / 2)
        LossParameter(1e-3)  # boundary is included
        LossParameter(math.pi / 2 - 1e-3)
        # the angle is the only field and the edge is the constant PHI_MIN,
        # where the QFI's roundoff QFI_ROUNDOFF / sin(phi)^2 (1.0e-8) stays
        # about 100 times inside the energy bound's slack
        assert [f.name for f in dataclasses.fields(LossParameter)] == ["phi"]
        assert PHI_MIN == 1e-3
        assert QFI_ROUNDOFF / math.sin(PHI_MIN) ** 2 <= BOUND_SLACK / 99
        for phi in (0.5 * PHI_MIN, math.pi / 2 - 0.5 * PHI_MIN):
            with pytest.raises(DomainError, match=r"outside \[0\.001, pi/2 - 0\.001\]"):
                LossParameter(phi)

    def test_constructors_roundtrip(self):
        for phi in (2e-3, 0.3, 0.83, 1.5):
            gamma_t = math.log1p(math.tan(phi) ** 2)
            assert LossParameter.from_gamma_t(gamma_t).phi == pytest.approx(phi, rel=1e-12)
            assert LossParameter.from_gamma_t(gamma_t).phi == pytest.approx(
                loss_reparametrize(gamma_t, "gamma_t", "phi"), rel=1e-12)
        for gamma_t in (0.0, -0.5, math.nan):
            with pytest.raises(DomainError, match="gamma_t must be positive"):
                LossParameter.from_gamma_t(gamma_t)


class TestReparametrize:
    def test_balanced_point(self):
        assert loss_reparametrize(math.pi / 4, "phi", "z") == pytest.approx(1.0, abs=1e-12)
        assert loss_reparametrize(math.pi / 4, "phi", "gamma_t") == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_boundary_rejection(self):
        with pytest.raises(DomainError):
            loss_reparametrize(1.0, "transmissivity", "phi")
        with pytest.raises(DomainError):
            loss_reparametrize(0.0, "z", "phi")

    @pytest.mark.parametrize("source", ["phi", "gamma_t", "z", "transmissivity"])
    @pytest.mark.parametrize("target", ["phi", "gamma_t", "z", "transmissivity"])
    def test_bijection(self, source, target):
        phi = 0.61
        value = loss_reparametrize(phi, "phi", source)
        there = loss_reparametrize(value, source, target)
        back = loss_reparametrize(there, target, source)
        assert back == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            loss_reparametrize(0.5, "phi", "decibels")


class TestKrausOperators:
    def test_single_level(self):
        ops = kraus_operators(0.4, 1)
        assert len(ops) == 1
        assert ops[0][0, 0] == pytest.approx(1.0)

    def test_two_level_balanced(self):
        k0, k1 = kraus_operators(math.pi / 4, 2)
        assert np.allclose(np.diag(k0), [1.0, 1.0 / math.sqrt(2)], atol=1e-14)
        assert k1[0, 1] == pytest.approx(1.0 / math.sqrt(2), abs=1e-14)
        assert k1[1, 0] == 0.0

    def test_completeness(self):
        ops = kraus_operators(0.3, 16)
        total = sum(k.conj().T @ k for k in ops)
        assert np.linalg.norm(total - np.eye(16)) <= 1e-12


class TestEvolve:
    def test_vacuum_fixed_point(self):
        for phi in (1e-3, 0.5, 1.2):
            rho = evolve(fock_state(0), LossParameter(phi))
            assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_one_photon_binomial_mixture(self):
        phi = 0.9
        rho = evolve(fock_state(1), LossParameter(phi))
        expected = np.diag([math.sin(phi) ** 2, math.cos(phi) ** 2])
        assert np.allclose(rho.matrix, expected, atol=1e-14)

    def test_fock_binomial_mixture(self):
        n, phi = 5, 0.7
        rho = evolve(fock_state(n), LossParameter(phi))
        s2, c2 = math.sin(phi) ** 2, math.cos(phi) ** 2
        expected = [math.comb(n, k) * s2 ** k * c2 ** (n - k) for k in range(n + 1)]
        assert np.allclose(np.diag(rho.matrix).real, expected[::-1], atol=1e-13)
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.max(np.abs(off)) < 1e-14

    def test_coherent_stays_coherent(self):
        phi = 0.8
        alpha = 1.3
        rho = evolve(coherent(alpha, 40), LossParameter(phi))
        target = coherent(alpha * math.cos(phi), 40).amplitudes
        overlap = np.vdot(target, rho.matrix @ target).real
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_pure_and_mixed_routes_agree(self):
        psi = coherent(0.9, 25)
        loss = LossParameter(0.6)
        assert np.allclose(evolve(psi, loss).matrix,
                           evolve(density(psi), loss).matrix, atol=1e-13)

    def test_trace_preservation_and_positivity_random(self):
        rng = np.random.default_rng(7)
        for dim in (16, 64):
            rho = random_density(rng, dim)
            for phi in np.linspace(1e-3, math.pi / 2 - 1e-3, 20):
                out = evolve(rho, LossParameter(phi))
                assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
                assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10

    def test_semigroup_in_gamma_t(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, 12)
        g1, g2 = 0.3, 0.5
        first = evolve(rho, LossParameter.from_gamma_t(g1))
        second = evolve(first, LossParameter.from_gamma_t(g2))
        direct = evolve(rho, LossParameter.from_gamma_t(g1 + g2))
        assert np.linalg.norm(second.matrix - direct.matrix) <= 1e-9

    def test_support_containment(self):
        # loss never raises photon number
        psi = FockVector(np.eye(8)[3])
        out = evolve(psi, LossParameter(0.7))
        assert np.max(np.abs(out.matrix[4:, :])) < 1e-15
        assert np.max(np.abs(out.matrix[:, 4:])) < 1e-15

    def test_high_fock_at_extreme_loss(self):
        # early Kraus terms are negligible here while late ones dominate;
        # the term cutoff must not stop before reaching them
        n, phi = 10, math.pi / 2 - 2e-3
        s2, c2 = math.sin(phi) ** 2, math.cos(phi) ** 2
        expected = np.array([math.comb(n, k) * s2 ** k * c2 ** (n - k)
                             for k in range(n + 1)])[::-1]
        for state in (fock_state(n), density(fock_state(n))):
            out = evolve(state, LossParameter(phi))
            assert np.allclose(np.diag(out.matrix).real, expected, atol=1e-13)


class TestDerivative:
    def test_vacuum_zero(self):
        rho = evolve(fock_state(0), LossParameter(0.5))
        assert np.allclose(drho_dphi(rho, LossParameter(0.5)), 0.0)

    def test_one_photon_balanced(self):
        loss = LossParameter(math.pi / 4)
        rho = evolve(fock_state(1), loss)
        expected = np.diag([1.0, -1.0]).astype(complex)  # sin(2 phi) = 1
        assert np.allclose(drho_dphi(rho, loss), expected, atol=1e-13)

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(23)
        rho0 = random_density(rng, 10)
        loss = LossParameter(0.8)
        d = drho_dphi(evolve(rho0, loss), loss)
        assert abs(np.trace(d).real) <= 1e-10
        assert np.linalg.norm(d - d.conj().T) <= 1e-12

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_finite_difference_agreement(self, dim):
        rng = np.random.default_rng(dim)
        rho0 = random_density(rng, dim)
        phi, step = 0.6, 1e-5
        analytic = drho_dphi(evolve(rho0, LossParameter(phi)), LossParameter(phi))
        upper = evolve(rho0, LossParameter(phi + step)).matrix
        lower = evolve(rho0, LossParameter(phi - step)).matrix
        numeric = (upper - lower) / (2.0 * step)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6

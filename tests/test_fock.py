import math

import numpy as np
import pytest
from scipy.linalg import expm

from lossqfi import (CutoffOverflowError, DensityOperator, DomainError, FockVector,
                     Gaussian, build_probe, coherent_state, displaced_squeezed_vacuum,
                     fidelity, fock, fock_state, hermitian_eig, mean_photon)
from lossqfi.errors import DegenerateStateError
from lossqfi.fock import _gaussian_amplitudes


def ladder_operators(dim: int):
    """Annihilation, creation and number operators on a dim-level space: a has
    sqrt(m) at (m-1, m), and the truncation breaks [a, a+] = 1 at the top level."""
    if dim < 1:
        raise DomainError("dimension must be a positive integer")
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return a, a.conj().T, np.diag(np.arange(dim, dtype=complex))


def basis(n: int, dim: int) -> FockVector:
    """|n> on the dim levels 0..dim-1."""
    return FockVector(np.eye(dim)[n])


def density(state: FockVector) -> DensityOperator:
    return DensityOperator(np.outer(state.amplitudes, state.amplitudes.conj()))


class TestLadderOperators:
    def test_annihilation_on_fock(self):
        a, _, _ = ladder_operators(3)
        out = a @ fock_state(2).amplitudes
        expected = np.zeros(3, dtype=complex)
        expected[1] = math.sqrt(2)
        assert np.allclose(out, expected, atol=1e-15)

    def test_vacuum_annihilates(self):
        a, _, _ = ladder_operators(3)
        assert np.allclose(a @ basis(0, 3).amplitudes, 0.0)

    def test_commutator_below_top_level(self):
        # [a, a+] = 1 except on the top truncated level
        a, ad, _ = ladder_operators(4)
        comm = a @ ad - ad @ a
        assert np.allclose(comm[:3, :3], np.eye(3), atol=1e-14)

    def test_number_action(self):
        a, ad, num = ladder_operators(8)
        assert np.allclose(num, ad @ a, atol=1e-13)
        for m in range(7):
            state = basis(m, 8).amplitudes
            assert np.allclose(num @ state, m * state, atol=1e-13)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            ladder_operators(0)


class TestHermitianEig:
    def test_diagonal(self):
        spec = hermitian_eig(np.diag([0.75, 0.25]).astype(complex))
        assert np.allclose(spec.eigenvalues, [0.75, 0.25])
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))

    def test_zero_matrix(self):
        spec = hermitian_eig(np.zeros((4, 4), dtype=complex))
        assert np.allclose(spec.eigenvalues, 0.0)

    def test_evolved_one_photon_at_balanced_loss(self):
        # binomial mixture of |1>: sin^2 = cos^2 = 1/2 at phi = pi/4
        from lossqfi import LossParameter, evolve
        rho = evolve(fock_state(1), LossParameter(math.pi / 4))
        spec = hermitian_eig(rho.matrix)
        assert np.allclose(spec.eigenvalues, [0.5, 0.5], atol=1e-14)

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(DomainError):
            hermitian_eig(bad)

    def test_roundtrip_residual_random(self):
        rng = np.random.default_rng(11)
        for dim in (8, 32, 64):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = 0.5 * (raw + raw.conj().T)
            spec = hermitian_eig(m)
            recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10

    def test_deterministic_phase_convention(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = 0.5 * (raw + raw.conj().T)
        first = hermitian_eig(m)
        second = hermitian_eig(m.copy())
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        for k in range(6):
            i = int(np.argmax(np.abs(first.eigenvectors[:, k])))
            pivot = first.eigenvectors[i, k]
            assert pivot.imag == pytest.approx(0.0, abs=1e-15)
            assert pivot.real >= 0.0

    def test_one_pivot_gather_equals_the_column_loop(self):
        # the phase convention written as the per-column loop it replaced:
        # the spectrum must be the same bit for bit
        def column_loop(m):
            vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
            vals, vecs = vals[::-1], vecs[:, ::-1]
            for k in range(vecs.shape[1]):
                i = int(np.argmax(np.abs(vecs[:, k])))
                pivot = vecs[i, k]
                if abs(pivot) > 0:
                    vecs[:, k] *= np.conj(pivot) / abs(pivot)
            return vals, vecs

        rng = np.random.default_rng(17)
        for trial in range(60):
            dim = 1 + trial % 30
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) * (trial % 3 > 0)
            m = (0.5 * (raw + raw.conj().T)).astype(complex)
            spec = hermitian_eig(m)
            vals, vecs = column_loop(m)
            assert np.array_equal(spec.eigenvalues, vals)
            assert np.array_equal(spec.eigenvectors, vecs)


class TestDisplacedSqueezedVacuum:
    def test_identity_operations_give_vacuum(self):
        state = displaced_squeezed_vacuum(0.0, 0.0)
        assert state.dim == 1
        assert state.amplitudes[0] == pytest.approx(1.0)

    def test_pure_displacement_matches_coherent_expansion(self):
        # D(alpha)|0> = exp(-|alpha|^2/2) sum_m alpha^m / sqrt(m!) |m>, the
        # closed form written here; the state renormalizes it on its cutoff
        for alpha in (1.0, 0.6 + 0.8j, -2.5):
            built = displaced_squeezed_vacuum(alpha, 0.0)
            closed = np.array([math.exp(-0.5 * abs(alpha) ** 2) * alpha ** m
                               / math.sqrt(math.factorial(m)) for m in range(built.dim)])
            assert np.max(np.abs(built.amplitudes - closed / np.linalg.norm(closed))) < 1e-14
            assert np.array_equal(coherent_state(alpha).amplitudes, built.amplitudes)

    def test_squeezed_vacuum_parity_and_energy(self):
        state = displaced_squeezed_vacuum(0.0, 0.5)
        assert np.max(np.abs(state.amplitudes[1::2])) < 1e-10
        assert mean_photon(state) == pytest.approx(math.sinh(0.5) ** 2, abs=1e-6)

    def test_displaced_squeezed_energy(self):
        state = displaced_squeezed_vacuum(1.2, 0.7, 0.4)
        assert mean_photon(state) == pytest.approx(1.2 ** 2 + math.sinh(0.7) ** 2, abs=1e-6)

    def test_tail_below_tolerance(self):
        state = displaced_squeezed_vacuum(1.0, 0.5)
        # rebuild on a larger space: the mass beyond the chosen cutoff is the tail
        big = _gaussian_amplitudes(1.0, 0.5, 0.0, state.dim + 40)
        tail = float(np.sum(np.abs(big[state.dim:]) ** 2))
        assert tail < fock.TAIL_TOL

    @pytest.mark.parametrize("eta, r, theta", [
        (0.7 - 0.4j, -0.8, 1.9),
        (-0.9 + 0.9j, 1.0, -2.5),
        (1.3, -1.0, 0.6),
        (0.2j, 0.3, 3.0),
    ])
    def test_matches_exponentiated_generators(self, eta, r, theta):
        # independent witness: dense exponentials of the truncated generators,
        # S(xi) = exp[(xi* a^2 - xi a+^2)/2] then D(eta) = exp[eta a+ - eta* a],
        # on 40 levels more than the chosen cutoff
        state = displaced_squeezed_vacuum(eta, r, theta)
        a, ad, _ = ladder_operators(state.dim + 40)
        xi = r * np.exp(1j * theta)
        squeeze = expm(0.5 * (np.conj(xi) * a @ a - xi * ad @ ad))
        displace = expm(eta * ad - np.conj(eta) * a)
        witness = (displace @ squeeze)[: state.dim, 0]
        assert np.max(np.abs(state.amplitudes - witness)) < 1e-9

    @pytest.mark.parametrize("eta, r, expected", [(2.0, 1.4, 177), (1.0, 1.0, 78)])
    def test_cutoff_is_smallest_with_tail_below_tolerance(self, eta, r, expected):
        tol = fock.TAIL_TOL
        state = displaced_squeezed_vacuum(eta, r)
        assert state.dim == expected
        pop = np.abs(_gaussian_amplitudes(eta, r, 0.0, state.dim + 60)) ** 2
        assert pop[state.dim:].sum() < tol <= pop[state.dim - 1:].sum()

    def test_cutoff_overflow(self):
        # squeezed vacuum at r = 3 holds sinh(3)^2 = 100.4 photons and needs
        # more than MAX_LEVELS levels; the error gives a lower bound on the
        # energy and what to change, and names no option, since none lifts
        # the guard
        for build in (lambda: displaced_squeezed_vacuum(0.0, 3.0), lambda: coherent_state(40.0)):
            with pytest.raises(CutoffOverflowError,
                               match=r"at least \d.*more than 1024 levels.*lower its energy or "
                                     r"its squeezing") as err:
                build()
            assert "--" not in str(err.value)

    def test_the_level_guard_needs_no_option(self):
        # Gaussian(1, 1.5) needs 211 levels and squeezed vacuum at r = 2 needs
        # 571: both are measured under the guard
        assert fock.MAX_LEVELS == 1024
        assert build_probe(Gaussian(1.0, 1.5)).dim == 211
        assert displaced_squeezed_vacuum(0.0, 2.0).dim == 571


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(fock_state(0), fock_state(0)) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity(basis(0, 2), basis(1, 2)) == pytest.approx(0.0, abs=1e-15)

    def test_coherent_vs_three_level_truncation(self):
        # kept mass of |alpha=1> on levels 0..2 is e^{-1} (1 + 1 + 1/2); the
        # squared overlap with the renormalized truncation equals that mass
        full = coherent_state(1.0)
        trunc = FockVector(full.amplitudes[:3])
        expected = 2.5 * math.exp(-1.0)
        assert fidelity(full, trunc) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = FockVector(rng.normal(size=6) + 1j * rng.normal(size=6))
            y = FockVector(rng.normal(size=6) + 1j * rng.normal(size=6))
            assert fidelity(x, y) == pytest.approx(fidelity(y, x), abs=1e-12)

    def test_global_phase_invariance(self):
        x = FockVector(np.array([0.6, 0.8j]))
        y = FockVector(np.exp(1j * 0.77) * x.amplitudes)
        assert fidelity(x, y) == pytest.approx(1.0)

    def test_padding_mismatched_cutoffs(self):
        assert fidelity(basis(0, 1), basis(0, 5)) == pytest.approx(1.0)
        assert fidelity(basis(0, 1), basis(3, 5)) == pytest.approx(0.0, abs=1e-15)

    def test_density_operator_route_matches_pure(self):
        # the trace overlap Tr[rho_x rho_y] of two pure states is |<x|y>|^2
        x = FockVector(_gaussian_amplitudes(0.7, 0.0, 0.0, 12))
        y = FockVector(_gaussian_amplitudes(-0.4, 0.0, 0.0, 12))
        overlap = np.trace(density(x).matrix @ density(y).matrix).real
        assert fidelity(x, y) == pytest.approx(overlap, abs=1e-12)

    def test_density_input(self):
        x = coherent_state(0.7)
        for mixed in (density(x), density(x).matrix):
            for args in ((mixed, x), (x, mixed)):
                with pytest.raises(DomainError, match="takes pure states only"):
                    fidelity(*args)


class TestMeanPhoton:
    def test_fock(self):
        assert mean_photon(fock_state(3)) == pytest.approx(3.0)

    def test_qubit_weight(self):
        theta = 0.7
        state = FockVector(np.array([math.cos(theta), math.sin(theta)]))
        assert mean_photon(state) == pytest.approx(math.sin(theta) ** 2, abs=1e-12)

    def test_balanced_zero_two_superposition(self):
        state = FockVector(np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
        assert mean_photon(state) == pytest.approx(1.0, abs=1e-12)

    def test_density_input(self):
        state = fock_state(2)
        for mixed in (density(state), density(state).matrix):
            with pytest.raises(DomainError, match="takes pure states only"):
                mean_photon(mixed)


class TestStateTypes:
    def test_fock_vector_normalizes(self):
        v = FockVector(np.array([3.0, 4.0]))
        assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateStateError):
            FockVector(np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_amplitudes_rejected(self, bad):
        # a NaN norm passes "norm < 1e-15", so this needs its own check
        with pytest.raises(DomainError, match="must be finite"):
            FockVector(np.array([bad, 1.0]))

    def test_amplitudes_immutable(self):
        v = fock_state(1)
        with pytest.raises(ValueError):
            v.amplitudes[0] = 1.0

    def test_density_trace_validation(self):
        from lossqfi import DensityOperator
        with pytest.raises(DomainError):
            DensityOperator(np.eye(2, dtype=complex))

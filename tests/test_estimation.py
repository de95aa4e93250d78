import math

import numpy as np
import pytest

from lossqfi import (DomainError, Fock, FockVector, LossParameter, Qubit, Qutrit,
                     classical_fisher, closed_form_qfi, drho_dphi, evolve,
                     fock_state, optimal_measurement, qfi, qfi_of_state, sld)

from lossqfi import estimation
from lossqfi.cli import main
from lossqfi.fock import _gaussian_amplitudes

PHI_GRID = np.linspace(1e-3, math.pi / 2 - 1e-3, 25)


def cramer_rao(h: float, runs: int, nbar: float):
    """Cramer-Rao variance floor 1/(N H) and the energy floor 1/(4 nbar N)."""
    return (1.0 / (runs * h) if h > 0 else math.inf), 1.0 / (4.0 * nbar * runs)


def fock_sld_reference(n, phi):
    """Printed closed form: diagonal entries tan(phi) g_k / f_{n-k}."""
    s2, c2 = math.sin(phi) ** 2, math.cos(phi) ** 2

    def f(k):
        return math.comb(n, k) * s2 ** k * c2 ** (n - k)

    diag = []
    for k in range(n + 1):
        g_k = 2.0 * ((f(n - k - 1) * (k + 1) if k != n else 0.0) - f(n - k) * k)
        diag.append(math.tan(phi) * g_k / f(n - k))
    return np.array(diag)


class TestSLD:
    def test_vacuum_probe_zero(self):
        loss = LossParameter(0.6)
        op = sld(fock_state(0), loss)
        assert np.allclose(op.matrix, 0.0, atol=1e-14)

    def test_one_photon_balanced(self):
        loss = LossParameter(math.pi / 4)
        op = sld(fock_state(1), loss)
        assert np.allclose(op.matrix, np.diag([2.0, -2.0]), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("phi", [0.3, math.pi / 4, 1.1])
    def test_fock_probe_matches_printed_form(self, n, phi):
        loss = LossParameter(phi)
        op = sld(fock_state(n), loss)
        off_diag = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off_diag)) < 1e-10
        assert np.allclose(np.diag(op.matrix).real, fock_sld_reference(n, phi),
                           atol=1e-9)

    def test_defining_equation_residual_on_support(self):
        loss = LossParameter(0.8)
        state = FockVector(np.array([0.5, 0.5j, -0.5, 0.5]))
        rho = evolve(state, loss)
        d = drho_dphi(rho, loss)
        op = sld(state, loss)
        sym = 0.5 * (rho.matrix @ op.matrix + op.matrix @ rho.matrix)
        vals, vecs = np.linalg.eigh(rho.matrix)
        support = vecs[:, vals > 1e-12]
        proj = support @ support.conj().T
        assert np.linalg.norm(proj @ (d - sym) @ proj) <= 1e-8

    def test_zero_mean_on_state(self):
        loss = LossParameter(0.5)
        rho = evolve(fock_state(3), loss)
        op = sld(fock_state(3), loss)
        assert abs(np.trace(rho.matrix @ op.matrix).real) <= 1e-9

    def test_sld_and_fisher_pass_the_route_check(self, monkeypatch, tmp_path, capsys):
        # a planted disagreement of the two QFI routes stops sld(),
        # classical_fisher and sld-dump, as it stops the QFI
        frame = estimation._sld_frame

        def split(rho, drho, trace):
            h_pairs, h_trace, vecs, sld_eig = frame(rho, drho, trace)
            return h_pairs, 2.0 * h_trace, vecs, sld_eig

        monkeypatch.setattr(estimation, "_sld_frame", split)
        with pytest.raises(ArithmeticError, match="QFI routes disagree: 4"):
            sld(fock_state(1), 0.7)
        with pytest.raises(ArithmeticError, match="QFI routes disagree: 4"):
            classical_fisher([np.eye(2)], Fock(1), 0.7)
        out = tmp_path / "sld.csv"
        assert main(["sld-dump", "fock:n=1", "--phi", "0.7", "--out", str(out)]) == 1
        assert not out.exists()
        assert "error: QFI routes disagree: 4" in capsys.readouterr().err


class TestQFI:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_fock_flatness(self, n):
        for phi in PHI_GRID:
            report = qfi(Fock(n), phi)
            assert abs(report.qfi - 4.0 * n) < 1e-8

    def test_vacuum_probe(self):
        report = qfi(Fock(0), 0.7)
        assert report.qfi == pytest.approx(0.0, abs=1e-14)
        assert report.crlb_variance == math.inf

    def test_qubit_example(self):
        report = qfi(Qubit.from_nbar(0.5), math.pi / 3)
        assert report.qfi == pytest.approx(1.75, abs=1e-10)

    def test_qubit_closed_form_grid(self):
        for nbar in np.linspace(0.1, 1.0, 10):
            for phi in np.linspace(1e-3, math.pi / 2 - 1e-3, 10):
                numeric = qfi(Qubit.from_nbar(nbar), phi).qfi
                closed = closed_form_qfi("qubit", {"nbar": nbar}, phi)
                assert abs(numeric - closed) < 1e-8

    def test_phase_independence(self):
        values = [qfi(Qubit(0.7, varphi), 0.9).qfi
                  for varphi in np.linspace(0.0, 2.0 * math.pi, 7)]
        assert max(values) - min(values) < 1e-9

    def test_two_routes_agree(self):
        # Tr[rho L^2] recomputed from the returned SLD must match the report
        loss = LossParameter(0.7)
        state = FockVector(np.array([0.3, 0.4, 0.5, 0.6, 0.2]))
        h = qfi_of_state(state, loss)
        rho = evolve(state, loss)
        op = sld(state, loss)
        h_trace = np.trace(rho.matrix @ op.matrix @ op.matrix).real
        assert h == pytest.approx(h_trace, rel=1e-9)

    def test_ultimate_bound_random_probes(self):
        rng = np.random.default_rng(42)
        phis = np.linspace(0.05, math.pi / 2 - 0.05, 10)
        for _ in range(200):
            dim = int(rng.integers(2, 13))
            state = FockVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            nbar = sum(m * abs(c) ** 2 for m, c in enumerate(state.amplitudes))
            phi = float(rng.choice(phis))
            h = qfi_of_state(state, phi)
            assert h <= 4.0 * nbar * (1.0 + 1e-6)

    def test_planted_bound_violation_keeps_the_plain_message(self, monkeypatch):
        # doubling both routes leaves them in agreement but puts H = 8 over
        # the bound 4 nbar = 4 of |1>; at phi = 0.7 roundoff is no excuse
        frame = estimation._sld_frame

        def doubled(rho, drho, trace):
            h_pairs, h_trace, vecs, sld_eig = frame(rho, drho, trace)
            return 2.0 * h_pairs, 2.0 * h_trace, vecs, sld_eig

        monkeypatch.setattr(estimation, "_sld_frame", doubled)
        with pytest.raises(DomainError, match=r"^QFI 8\S* violates the energy bound 4\S*$"):
            qfi_of_state(fock_state(1), 0.7)

    def test_core_rejects_non_finite_amplitudes(self):
        # the FockVector check does not cover bare stacks
        amps = np.array([[1.0, 0.0], [math.nan, 1.0]])
        with pytest.raises(DomainError, match="must be finite"):
            estimation._qfi_stack(amps, LossParameter(0.7))
        with pytest.raises(DomainError, match="must be finite"):
            estimation._qfi_grad_stack(amps, LossParameter(0.7))

    def test_core_checks_the_angles_of_a_stack(self):
        # one angle per probe: the count must match, and the first angle
        # outside the domain is named as a lone angle would be
        amps = np.eye(2)
        with pytest.raises(DomainError, match="^3 loss angles given for 2 probes$"):
            estimation._qfi_stack(amps, [0.5, 0.6, 0.7])
        with pytest.raises(DomainError, match=r"^phi=1\.6 outside"):
            estimation._qfi_stack(amps, np.array([0.5, 1.6]))
        with pytest.raises(DomainError, match="^phi=nan outside"):
            estimation._qfi_stack(amps, [math.nan, 0.5])

    @pytest.mark.parametrize("planted", [(math.nan, math.nan), (math.nan, 4.0)])
    def test_core_checks_fail_on_nan(self, monkeypatch, planted):
        # planted NaN QFI routes: a check written as "x > tol" would let them
        # through to the caller
        frame = estimation._sld_frame

        def poisoned(rho, drho, trace):
            h_pairs, h_trace, vecs, sld_eig = frame(rho, drho, trace)
            return (np.full_like(h_pairs, planted[0]), np.full_like(h_trace, planted[1]),
                    vecs, sld_eig)

        monkeypatch.setattr(estimation, "_sld_frame", poisoned)
        with pytest.raises(ArithmeticError, match="QFI routes disagree: nan"):
            qfi_of_state(fock_state(1), 0.7)

    def test_report_fields(self):
        report = qfi(Fock(2), 0.6, runs=100)
        assert report.ultimate_bound == pytest.approx(8.0)
        crlb, ultimate = cramer_rao(report.qfi, report.runs, report.nbar)
        assert report.crlb_variance == pytest.approx(crlb, rel=1e-15)
        assert report.crlb_variance == pytest.approx(ultimate, rel=1e-9)
        assert report.method == "numeric"

    def test_invalid_runs(self):
        with pytest.raises(DomainError):
            qfi(Fock(1), 0.5, runs=0)


class TestClosedForms:
    def test_fock(self):
        assert closed_form_qfi("fock", {"n": 5}, 0.7) == 20.0

    def test_gaussian_small_n_printed_value(self):
        # 4 * 0.1 * 2 / (1 + 2 * 1.1 + 1) at z = 1
        value = closed_form_qfi("gaussian_small_n", {"nbar": 0.1}, math.pi / 4)
        assert value == pytest.approx(0.190476190476, abs=1e-9)

    def test_qutrit02_printed_value(self):
        # repaired denominator 1 + (2 - nbar) z + z^2 at z = 1
        value = closed_form_qfi("qutrit02", {"nbar": 0.5}, math.pi / 4)
        assert value == pytest.approx(8.0 / 7.0, abs=1e-12)

    def test_qutrit02_matches_pipeline(self):
        for nbar in np.linspace(0.1, 1.0, 10):
            for phi in np.linspace(0.05, math.pi / 2 - 0.05, 9):
                closed = closed_form_qfi("qutrit02", {"nbar": nbar}, phi)
                numeric = qfi(Qutrit(nbar, 0.0), phi).qfi
                assert abs(closed - numeric) < 1e-8

    def test_qutrit02_dominates_gaussian_form(self):
        for nbar in np.linspace(0.05, 1.0, 20):
            for phi in np.linspace(1e-3, math.pi / 2 - 1e-3, 20):
                h2 = closed_form_qfi("qutrit02", {"nbar": nbar}, phi)
                hg = closed_form_qfi("gaussian_small_n", {"nbar": nbar}, phi)
                assert h2 >= hg - 1e-12

    def test_gaussian_small_n_matches_squeezed_vacuum_slice(self):
        # the small-energy form tracks the pure squeezed-vacuum pipeline at
        # every loss value, not just where that state is the Gaussian optimum
        from lossqfi import Gaussian, build_probe, qfi_of_state
        r = math.asinh(math.sqrt(0.01))
        state = build_probe(Gaussian(0.0, r, 0.0))
        for phi in np.linspace(1e-3, math.pi / 2 - 1e-3, 12):
            closed = closed_form_qfi("gaussian_small_n", {"nbar": 0.01}, float(phi))
            assert qfi_of_state(state, float(phi)) == pytest.approx(closed, rel=1e-2)

    def test_coherent_matches_pipeline(self):
        for alpha in (0.5, 1.0):
            # 30 levels leave a tail far below the comparison's 1e-8
            state = FockVector(_gaussian_amplitudes(alpha, 0.0, 0.0, 30))
            for phi in (0.2, math.pi / 4, 1.3):
                closed = closed_form_qfi("coherent", {"nbar": alpha ** 2}, phi)
                numeric = qfi_of_state(state, phi)
                assert abs(closed - numeric) < 1e-8

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            closed_form_qfi("thermal", {"nbar": 1.0}, 0.5)


class TestOptimalMeasurement:
    def test_fock_probe_photon_counting(self):
        loss = LossParameter(0.8)
        op = sld(fock_state(2), loss)
        projectors = optimal_measurement(op)
        assert len(projectors) == 3
        for _, proj in projectors:
            # each projector is a Fock-basis projector
            diag = np.diag(proj).real
            assert np.max(diag) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(proj - np.diag(diag)) < 1e-12
        total = sum(p for _, p in projectors)
        assert np.allclose(total, np.eye(3), atol=1e-12)

    def test_vacuum_probe(self):
        loss = LossParameter(0.5)
        op = sld(fock_state(0), loss)
        projectors = optimal_measurement(op)
        assert len(projectors) == 1
        assert projectors[0][0] == pytest.approx(0.0, abs=1e-14)

    def test_qubit_probe_two_projectors(self):
        loss = LossParameter(math.pi / 4)
        from lossqfi import build_probe
        op = sld(build_probe(Qubit.from_nbar(0.5)), loss)
        projectors = optimal_measurement(op)
        assert len(projectors) == 2
        total = sum(p for _, p in projectors)
        assert np.allclose(total, np.eye(2), atol=1e-12)


class TestClassicalFisher:
    def test_photon_counting_on_one_photon_probe(self):
        # binomial outcome model has Fisher information 4n at every loss
        for phi in (0.3, math.pi / 4, 1.2):
            projectors = [np.diag([1.0, 0.0]).astype(complex),
                          np.diag([0.0, 1.0]).astype(complex)]
            value = classical_fisher(projectors, Fock(1), phi)
            assert value == pytest.approx(4.0, rel=1e-9)

    def test_sld_eigenprojectors_attain_qfi(self):
        loss = LossParameter(math.pi / 3)
        from lossqfi import build_probe
        op = sld(build_probe(Qubit.from_nbar(0.5)), loss)
        value = classical_fisher(optimal_measurement(op), Qubit.from_nbar(0.5), loss)
        assert value == pytest.approx(1.75, rel=1e-6)

    def test_identity_measurement_is_uninformative(self):
        projectors = [np.eye(3, dtype=complex)]
        assert classical_fisher(projectors, Fock(2), 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            basis, _ = np.linalg.qr(raw)
            projectors = [np.outer(basis[:, k], basis[:, k].conj()) for k in range(4)]
            h = qfi(Fock(3), 0.9).qfi
            f = classical_fisher(projectors, Fock(3), 0.9)
            assert f <= h * (1.0 + 1e-6)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_projector_dimension_mismatch_is_rejected(self, dim):
        # Fock(2) evolves on 3 levels; a cropped or padded measurement is an error
        projectors = [np.eye(dim, dtype=complex)]
        with pytest.raises(DomainError, match=rf"\b{dim}\b.*\b3\b"):
            classical_fisher(projectors, Fock(2), 0.7)


class TestCramerRao:
    def test_fock_saturation_numbers(self):
        crlb, ultimate = cramer_rao(8.0, 100, 2.0)
        assert crlb == pytest.approx(0.00125)
        assert ultimate == pytest.approx(0.00125)

    def test_generic_numbers(self):
        crlb, ultimate = cramer_rao(2.0, 1, 1.0)
        assert crlb == pytest.approx(0.5)
        assert ultimate == pytest.approx(0.25)
        assert crlb >= ultimate * (1.0 - 1e-6)

    def test_zero_information_sentinel(self):
        crlb, ultimate = cramer_rao(0.0, 10, 1.0)
        assert crlb == math.inf
        assert ultimate == pytest.approx(0.025)

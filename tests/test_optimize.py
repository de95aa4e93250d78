import math

import numpy as np
import pytest

from lossqfi import (CutoffOverflowError, DomainError, Gaussian, LossParameter, best_cat,
                     closed_form_qfi, mean_photon,
                     optimize_gaussian, optimize_qutrit,
                     optimize_superposition, build_probe, qfi_of_state)
from lossqfi import fock, optimize
from lossqfi.channel import PHI_MIN
from lossqfi.probes import _qutrit_amplitudes


class TestOptimizeQutrit:
    def test_high_energy_approaches_fock(self):
        # the family tends to the one-photon state, whose QFI is flat at 4 nbar
        for phi in (0.3, math.pi / 4):
            res = optimize_qutrit(0.999, phi)
            assert res.best_params["beta"] > 1.45
            assert abs(res.best_qfi - 4 * 0.999) / (4 * 0.999) < 1e-3

    def test_low_energy_zero_two_superposition(self):
        # below the z = 1 crossover the optimum collapses onto beta = 0
        res = optimize_qutrit(0.01, 0.6)
        assert res.best_params["beta"] < 0.1
        closed = closed_form_qfi("qutrit02", {"nbar": 0.01}, 0.6)
        assert res.best_qfi == pytest.approx(closed, rel=1e-3)

    def test_contains_qubit(self):
        # the qutrit family includes the qubit at beta = pi/2
        res = optimize_qutrit(0.5, math.pi / 4)
        qubit = closed_form_qfi("qubit", {"nbar": 0.5}, math.pi / 4)
        assert qubit == pytest.approx(1.5)
        assert res.best_qfi >= 1.5

    def test_reevaluation_reproduces_optimum(self):
        res = optimize_qutrit(0.4, 0.8)
        assert qfi_of_state(build_probe(res.probe), res.phi) == pytest.approx(
            res.best_qfi, abs=1e-9)

    def test_low_energies_at_heavy_loss_return_an_optimum(self):
        # the optimum is the qubit edge. At nbar 1e-4 the core's RANK_EPS mask drops the
        # output's smallest eigenvalue and costs 1e-4 relative, within the agreement check's
        # allowance; at nbar 2.4e-12 the closed form ranked a spike of 0.43 to the top before
        # its determinant was built from the minors of C
        for nbar, phi, rel in [(1e-4, 1.5697, 2e-4), (10 ** -11.625, math.pi / 2 - 1e-3, 1e-9)]:
            res = optimize_qutrit(nbar, phi)
            assert res.best_params["beta"] > 1.57
            assert res.best_qfi == pytest.approx(
                4 * nbar * (math.sin(phi) ** 2 + nbar * math.cos(phi) ** 2), rel=rel)

    def test_domain(self):
        with pytest.raises(DomainError):
            optimize_qutrit(0.0, 0.5)
        with pytest.raises(DomainError):
            optimize_qutrit(1.5, 0.5)
        # a batch names the point that is out of range
        with pytest.raises(DomainError, match=r"not 1\.5 \(phi = 0\.6\)"):
            optimize._qutrit_optima([0.5, 1.5], [0.4, 0.6])


REGION_POINTS = [(nbar, phi) for phi in (math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8,
                                         math.pi / 2 - 1e-3)
                 for nbar in np.linspace(0.05, 0.95, 19)]
ORDERING_POINTS = [(nbar, float(phi)) for nbar in (0.1, 0.3, 0.5, 0.8, 1.0)
                   for phi in np.linspace(0.05, math.pi / 2 - 0.05, 15)]
# near the ends of the loss domain the core errs by up to 1.4e-6 relative
DOMAIN_END_POINTS = [(nbar, phi) for phi in (PHI_MIN, math.pi / 2 - PHI_MIN)
                     for nbar in (0.01, 0.666, 1.0)]


def golden_reference(f, grid, values, tol):
    """The scalar search: the best grid point, then golden-section polish of
    the cells next to it, one value at a time. Returns (argument, value,
    number of values asked for)."""
    calls = []

    def value(x):
        calls.append(x)
        return f(x)

    i = int(np.argmax(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = value(c), value(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = value(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = value(d)
    mid = 0.5 * (lo + hi)
    best = value(mid)
    return (grid[i], values[i], len(calls)) if values[i] > best else (mid, best, len(calls))


def kraus_qfi(amps, phi):
    """4 min ||C' + C A||^2 over real antisymmetric A for every row of a (..., d)
    stack of real amplitudes, with C = [K_n psi] and C' = [dK_n/dphi psi] from the
    Kraus weights <m|K_n|m+n> = cos^m sin^n sqrt(binom(m+n, n)), and ``phi``
    broadcast against the rows: the residual of C' after projecting it on the span
    of the C (E_ij - E_ji), from an SVD that drops directions below roundoff as
    least squares does."""
    amps = np.asarray(amps, dtype=float)
    d = amps.shape[-1]
    k, s = np.cos(phi)[..., None], np.sin(phi)[..., None]
    c = np.zeros(amps.shape + (d,))
    dc = np.zeros_like(c)
    for n in range(d):
        m = np.arange(d - n)
        weight = k ** m * s ** n * np.sqrt([math.comb(j + n, n) for j in m])
        c[..., m, n] = weight * amps[..., m + n]
        dc[..., m, n] = (n * k / s - m * s / k) * c[..., m, n]
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            gen = np.zeros((d, d))
            gen[i, j], gen[j, i] = 1.0, -1.0
            gens.append((c @ gen).reshape(amps.shape[:-1] + (d * d,)))
    u, sv, _ = np.linalg.svd(np.stack(gens, axis=-1), full_matrices=False)
    u = u * (sv > np.finfo(float).eps * d * d * sv[..., :1])[..., None, :]
    flat = dc.reshape(amps.shape[:-1] + (d * d,))
    resid = flat - np.einsum("...ig,...g->...i", u, np.einsum("...ig,...i->...g", u, flat))
    return 4.0 * np.sum(resid ** 2, axis=-1)


def qutrit_reference(nbars, phis):
    """The optimal qutrit beta and H at every (nbars[k], phis[k]) on kraus_qfi: the
    best point of a 721-point beta grid, then golden-section search of the cells
    next to it, all rows in lockstep, to 1e-10 in beta."""
    nbars, phis = np.asarray(nbars, dtype=float), np.asarray(phis, dtype=float)
    grid = np.linspace(0.0, math.pi / 2, 721)
    values = kraus_qfi(_qutrit_amplitudes(nbars[:, None], grid), phis[:, None])
    i = np.argmax(values, axis=1)
    lo, hi = grid[np.maximum(i - 1, 0)], grid[np.minimum(i + 1, grid.size - 1)]

    def value(beta):
        return kraus_qfi(_qutrit_amplitudes(nbars, beta), phis)

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = value(c), value(d)
    while np.max(hi - lo) > 1e-10:
        left = fc > fd
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
        c, d = np.where(left, hi - ratio * (hi - lo), d), np.where(left, c, lo + ratio * (hi - lo))
        fresh = value(np.where(left, c, d))
        fc, fd = np.where(left, fresh, fd), np.where(left, fc, fresh)
    mid = 0.5 * (lo + hi)
    best, top = value(mid), values[np.arange(i.size), i]
    return np.where(top > best, grid[i], mid), np.maximum(top, best)


class TestQutritClosedForm:
    def test_matches_the_oracles_at_the_ends_of_beta(self):
        # beta = 0 is the 0-2 superposition, beta = pi/2 the qubit
        for phi in (PHI_MIN, 0.3, 0.9, 1.5, math.pi / 2 - PHI_MIN):
            for nbar in (0.01, 0.3, 0.666, 1.0):
                params = {"nbar": nbar}
                assert optimize._qutrit_closed_form(nbar, 0.0, phi) == pytest.approx(
                    closed_form_qfi("qutrit02", params, phi), rel=1e-13, abs=0)
                assert optimize._qutrit_closed_form(nbar, math.pi / 2, phi) == pytest.approx(
                    closed_form_qfi("qubit", params, phi), rel=1e-13, abs=0)

    def test_stays_exact_near_a_pure_output(self):
        # at small nbar the output is nearly pure and G nearly singular; the qubit's
        # 4 nbar (sin^2 phi + nbar cos^2 phi) has no cancellation. Before det G and the
        # adjugate's diagonal came from the minors of C, this erred by up to 190 times H
        for phi in (PHI_MIN, 0.3, 1.5, math.pi / 2 - PHI_MIN):
            for nbar in (1e-12, 1e-8, 1e-4):
                exact = 4 * nbar * (math.sin(phi) ** 2 + nbar * math.cos(phi) ** 2)
                assert optimize._qutrit_closed_form(nbar, math.pi / 2, phi) == pytest.approx(
                    exact, rel=1e-9, abs=0)

    def test_matches_a_kraus_least_squares_reference(self):
        rng = np.random.default_rng(43)
        nbar, beta = rng.uniform(0.01, 1.0, 60), rng.uniform(0.0, math.pi / 2, 60)
        phi = rng.uniform(0.01, math.pi / 2 - 0.01, 60)
        np.testing.assert_allclose(optimize._qutrit_closed_form(nbar, beta, phi),
                                   kraus_qfi(_qutrit_amplitudes(nbar, beta), phi),
                                   rtol=1e-12, atol=0)

    def test_matches_the_core_inside_the_loss_domain(self):
        # near beta = pi/2 the output's smallest eigenvalue pair falls below
        # the core's support threshold RANK_EPS and the core drops it, which
        # costs 1e-7 relative at (nbar, beta, phi) = (0.005, 1.4944, 0.2); the
        # closed form matches 50-digit arithmetic there
        rng = np.random.default_rng(44)
        nbar, beta = rng.uniform(0.1, 1.0, 300), rng.uniform(0.0, 1.5, 300)
        phi = rng.uniform(0.2, 1.3, 300)
        core = optimize._qfi_stack(_qutrit_amplitudes(nbar, beta), phi)
        np.testing.assert_allclose(optimize._qutrit_closed_form(nbar, beta, phi), core,
                                   rtol=1e-11, atol=0)

    def test_is_elementwise(self):
        grid = np.linspace(0.0, math.pi / 2, 7)
        nbars = np.array([0.2, 0.9])[:, None]
        table = optimize._qutrit_closed_form(nbars, grid, 0.7)
        assert table.shape == (2, 7)
        assert table[1, 3] == pytest.approx(optimize._qutrit_closed_form(0.9, grid[3], 0.7),
                                            rel=1e-15)


class TestLockstepSearch:
    @pytest.mark.parametrize("points", [REGION_POINTS, ORDERING_POINTS, DOMAIN_END_POINTS],
                             ids=["region-defaults", "criteria-6-7-grid", "domain-ends"])
    def test_batch_matches_the_scalar_search(self, points):
        # the reference searches kraus_qfi to 1e-10 in beta. On phi = pi/2 - 1e-3,
        # H is flat in beta to roundoff, so beta is not held there
        nbars, phis = np.array(points).T
        betas, qfis = optimize._qutrit_optima(nbars, phis)
        ref_betas, ref_qfis = qutrit_reference(nbars, phis)
        exact = optimize._qutrit_closed_form(nbars, betas, phis)
        np.testing.assert_allclose(exact, ref_qfis, rtol=1e-12, atol=0)
        allowed = optimize.QUTRIT_AGREEMENT / (np.sin(phis) * np.cos(phis)) ** 2
        assert np.all(np.abs(qfis - exact) <= allowed)
        held = phis < math.pi / 2 - 0.01
        np.testing.assert_allclose(betas[held], ref_betas[held], rtol=0,
                                   atol=optimize.QUTRIT_BETA_TOL)

    def test_the_core_must_agree_with_the_closed_form_at_each_optimum(self, monkeypatch):
        # a closed form off by a constant factor ranks the grid as the exact one does; the
        # allowed gap is QUTRIT_AGREEMENT / (sin(phi) cos(phi))^2, here 9e-11 of H
        exact = optimize._qutrit_closed_form

        def planted(scale):
            return lambda nbar, beta, phi: scale * exact(nbar, beta, phi)

        beta, h = optimize._qutrit_optima([0.5], [1.0])
        tol = optimize.QUTRIT_AGREEMENT / (math.sin(1.0) * math.cos(1.0)) ** 2 / exact(
            0.5, beta[0], 1.0)
        for scale in (1.0 + 0.99 * tol, 1.0 - 0.99 * tol):
            monkeypatch.setattr(optimize, "_qutrit_closed_form", planted(scale))
            assert optimize._qutrit_optima([0.5], [1.0])[1] == pytest.approx(h, rel=1e-12)
        for scale in (1.0 + 1.01 * tol, 1.0 - 1.01 * tol):
            monkeypatch.setattr(optimize, "_qutrit_closed_form", planted(scale))
            with pytest.raises(ArithmeticError, match="disagree beyond"):
                optimize._qutrit_optima([0.5], [1.0])

    def test_rows_stop_at_different_passes(self):
        # a peak on the grid's edge leaves a one-cell bracket, an inner peak a
        # two-cell one: the edge rows need fewer passes and drop out first
        grid = np.linspace(0.0, 1.0, 11)
        peaks = np.array([0.0, 0.37, 0.52, 1.0, 0.73])
        values = -(grid - peaks[:, None]) ** 2
        seen = []

        def f(rows, x):
            seen.append(rows.copy())
            return -(x - peaks[rows]) ** 2

        args, vals = optimize._grid_then_polish(f, grid, values, 1e-6)
        counts = np.bincount(np.concatenate(seen), minlength=peaks.size)
        for k, peak in enumerate(peaks):
            ref = golden_reference(lambda x: -(x - peak) ** 2, grid, values[k], 1e-6)
            assert (args[k], vals[k], counts[k]) == ref
        assert counts[0] == counts[3] < counts[1] == counts[2] == counts[4]
        # the first pass asks for both inner points of every row
        assert len(seen) == counts[1] - 1
        # every pass but the final one asks only rows still searching
        assert all(set(later) <= set(earlier) for earlier, later in zip(seen[1:-2], seen[2:-1]))

    def test_a_grid_point_that_beats_its_polish_is_kept(self):
        # row 1's grid holds a spike no polish point reaches
        grid = np.linspace(0.0, 1.0, 21)
        values = np.vstack([-(grid - 0.4) ** 2, -(grid - 0.6) ** 2])
        values[1, 12] = 10.0
        args, vals = optimize._grid_then_polish(
            lambda rows, x: -(x - np.array([0.4, 0.6])[rows]) ** 2, grid, values, 1e-6)
        assert (args[1], vals[1]) == (grid[12], 10.0)
        assert abs(args[0] - 0.4) < 1e-6 and vals[0] > -1e-12


class TestOptimizeSuperposition:
    @pytest.mark.parametrize("kmax,nbar,phi,uncertified", [
        (4, 0.1, 1.2056256853388474, 0.3541879425146024),
        (5, 0.1, 1.2056256853388474, 0.3541879425122731),
        (4, 0.05, 1.1191, 0.1639035637770845),
        (5, 0.05, 1.1191, 0.1639035637845178),
    ])
    def test_optimum_is_chosen_among_stationary_starts(self, kmax, nbar, phi, uncertified):
        # the start with the highest H (or the tie-break among near-equal
        # ones) is not stationary at these points; a stationary start holds
        # the same H within the 1e-9 tie
        res = optimize_superposition(kmax, nbar, phi, seed=0)
        assert abs(res.best_qfi - uncertified) <= optimize.TIE_TOL
        coeffs = np.array(res.best_params["coefficients"]).real
        grad = optimize._qfi_grad_stack(coeffs[None], LossParameter(phi))[1]
        residual = optimize._stationary_residual(coeffs[None], grad)[0]
        assert residual <= optimize.STATIONARY_TOL / math.sin(phi) ** 2

    def test_single_level_is_qubit(self):
        # kmax = 1 leaves no magnitude freedom at fixed energy
        res = optimize_superposition(1, 0.5, math.pi / 3, seed=0, starts=4)
        assert res.best_qfi == pytest.approx(1.75, abs=1e-9)

    def test_two_levels_match_qutrit_route(self):
        res = optimize_superposition(2, 0.5, math.pi / 4, seed=0, starts=8)
        ref = optimize_qutrit(0.5, math.pi / 4)
        assert res.best_qfi == pytest.approx(ref.best_qfi, abs=1e-6)

    def test_order_dominance(self):
        h2 = optimize_superposition(2, 0.5, math.pi / 4, seed=0, starts=8).best_qfi
        h3 = optimize_superposition(3, 0.5, math.pi / 4, seed=0, starts=8).best_qfi
        assert h3 >= h2 - 1e-6

    def test_feasibility_of_optimum(self):
        res = optimize_superposition(3, 0.7, 0.9, seed=1, starts=8)
        coeffs = np.array(res.best_params["coefficients"])
        assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= 1e-12
        energy = np.sum(np.arange(coeffs.size) * np.abs(coeffs) ** 2)
        assert abs(energy - 0.7) <= 1e-12

    def test_determinism(self):
        first = optimize_superposition(3, 0.5, math.pi / 4, seed=0, starts=8)
        second = optimize_superposition(3, 0.5, math.pi / 4, seed=0, starts=8)
        assert f"{first.best_qfi:.12g}" == f"{second.best_qfi:.12g}"
        for c, d in zip(first.best_params["coefficients"],
                        second.best_params["coefficients"]):
            assert f"{c.real:.12g}{c.imag:+.12g}" == f"{d.real:.12g}{d.imag:+.12g}"

    def test_energy_above_order_rejected(self):
        with pytest.raises(DomainError):
            optimize_superposition(2, 2.5, 0.5)

    def test_reevaluation_reproduces_optimum(self):
        res = optimize_superposition(2, 0.8, 0.7, seed=0, starts=6)
        assert qfi_of_state(build_probe(res.probe), res.phi) == pytest.approx(
            res.best_qfi, abs=1e-9)

    def test_energies_above_one(self):
        res = optimize_superposition(3, 1.7, 0.6, seed=0, starts=6)
        assert res.best_qfi <= 4 * 1.7 * (1 + 1e-6)
        assert res.best_qfi > closed_form_qfi("coherent", {"nbar": 1.7}, 0.6)

    def test_phase_check_catches_a_non_maximum(self, monkeypatch):
        # planted violation: a chart that returns the qutrit with all
        # coefficients positive for every start, where the phases sit at a
        # minimum
        point = np.abs(_qutrit_amplitudes(0.5, 0.6))
        monkeypatch.setattr(optimize, "_slice_point", lambda u, nbar: np.zeros_like(u) + point)
        with pytest.raises(ArithmeticError, match="not a phase maximum"):
            optimize_superposition(2, 0.5, 0.7, seed=0, starts=3)

    def test_stationarity_check_catches_a_cut_off_search(self, monkeypatch):
        # planted violation: the search stops after one step, short of the
        # k = 3 optimum, which no warm start holds at this point
        monkeypatch.setattr(optimize, "SEARCH_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="not stationary"):
            optimize_superposition(3, 0.5, 0.7, seed=0, starts=8)

    def test_boundary_energy_is_top_fock_state(self):
        # nbar = kmax leaves only |kmax> itself
        res = optimize_superposition(2, 2.0, 0.7, seed=0, starts=4)
        assert res.best_qfi == pytest.approx(8.0, abs=1e-9)


class TestOptimizationResult:
    def test_non_finite_qfi_rejected(self):
        # NaN compares false against the energy bound, so it needs its own check
        with pytest.raises(DomainError, match="not finite"):
            optimize.OptimizationResult(
                family="qutrit", best_params={}, best_qfi=math.nan, nbar=0.5,
                phi=LossParameter(0.7), starts=1, converged=True, seed=0,
                probe=None)


def _gaussian_draws():
    """Seeded (nbar, x, phi) over nbar 0.05-30 and phi 0.05-1.52, with the
    coherent point x = 0 and squeezed vacuum x = 1; the squeeze stays at
    sinh(r)^2 <= 12 so every state fits under the level guard."""
    rng = np.random.default_rng(2027)
    nbars = np.exp(rng.uniform(math.log(0.05), math.log(30.0), 24))
    xs = rng.uniform(0.0, 1.0, 24) * np.minimum(1.0, 12.0 / nbars)
    nbars = np.concatenate([nbars, [0.2, 3.0, 30.0, 0.1, 1.3, 12.0]])
    xs = np.concatenate([xs, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
    return list(zip(nbars, xs, rng.uniform(0.05, 1.52, nbars.size)))


def _gaussian_core(nbar, x, phi, theta=0.0):
    """H of the displaced squeezed vacuum at squeeze fraction x, from the core."""
    r, eta = math.asinh(math.sqrt(x * nbar)), math.sqrt((1.0 - x) * nbar)
    return qfi_of_state(fock.displaced_squeezed_vacuum(eta, r, theta), phi)


class TestOptimizeGaussian:
    def test_small_energy_is_squeezed_vacuum(self):
        res = optimize_gaussian(0.01, 0.5)
        closed = closed_form_qfi("gaussian_small_n", {"nbar": 0.01}, 0.5)
        assert res.best_qfi == pytest.approx(closed, rel=1e-2)
        assert res.best_params["squeeze_fraction"] > 0.95

    def test_small_loss_approaches_bound(self):
        res = optimize_gaussian(1.0, 1e-3)
        assert res.best_qfi >= 0.95 * 4.0

    def test_probe_energy_constraint(self):
        res = optimize_gaussian(0.5, 0.9)
        assert mean_photon(build_probe(res.probe)) == pytest.approx(0.5, abs=1e-6)

    def test_zero_relative_phase_is_optimal(self):
        # the optimizer searches theta_rel = 0 only; on the core, no relative
        # phase does better, at seeded probes and at the optimum itself
        thetas = np.random.default_rng(31).uniform(0.3, 2.0 * math.pi - 0.3, 30)
        for (nbar, x, phi), theta in zip(_gaussian_draws(), thetas):
            assert _gaussian_core(nbar, x, phi, theta) <= _gaussian_core(nbar, x, phi) * (
                1.0 + 1e-7), (nbar, x, phi, theta)
        for nbar, phi in [(0.5, 0.6), (1.0, 0.9)]:
            res = optimize_gaussian(nbar, phi)
            assert res.best_params["theta_rel"] == 0.0
            eta, r = res.best_params["eta"], res.best_params["r"]
            scan = [qfi_of_state(build_probe(Gaussian(eta, r, theta)), phi)
                    for theta in np.linspace(0.0, 2.0 * math.pi, 25)[1:-1]]
            assert max(scan) <= res.best_qfi + 1e-9

    def test_closed_form_matches_the_core(self):
        for nbar, x, phi in _gaussian_draws():
            assert optimize._gauss_closed_form(nbar, x, phi) == pytest.approx(
                _gaussian_core(nbar, x, phi), rel=1e-6), (nbar, x, phi)

    def test_reported_optimum_matches_the_closed_form(self):
        for nbar, phi in [(0.1, 0.3), (0.5, 0.6), (1.0, 0.9), (1.5, 1.2), (5.0, 0.6),
                          (30.0, 0.6)]:
            res = optimize_gaussian(nbar, phi)
            closed = optimize._gauss_closed_form(nbar, res.best_params["squeeze_fraction"], phi)
            assert res.best_qfi == pytest.approx(closed, rel=1e-7), (nbar, phi)

    def test_the_core_ranks_grid_points_the_closed_form_cannot_tell_apart(self):
        # at phi = pi/2 - 1e-3, H is flat in x to below the core's own error,
        # so the closed form's best grid point (x = 0.025 at nbar 20) is not
        # the core's (x = 0.05); the reported H is at least the core's best
        phi = LossParameter(math.pi / 2 - 1e-3)
        res = optimize_gaussian(20.0, phi)
        grid = np.linspace(0.0, 1.0, optimize.GAUSS_GRID_POINTS)[:6]
        assert res.best_qfi >= max(optimize._gauss_value(20.0, x, phi) for x in grid)

    def test_the_search_skips_states_past_the_level_guard(self, monkeypatch):
        # under a 200-level guard the grid's most squeezed states at nbar = 5
        # no longer fit; the optimum, at small squeeze fraction, does, and
        # comes out bit for bit as under the 1024-level guard
        monkeypatch.setattr(fock, "MAX_LEVELS", 200)
        assert optimize_gaussian(5, 0.6).best_qfi == 13.30507694987622
        monkeypatch.setattr(fock, "MAX_LEVELS", 20)
        with pytest.raises(CutoffOverflowError, match="no displaced squeezed vacuum"):
            optimize_gaussian(50, 0.6)

    def test_reevaluation_reproduces_optimum(self):
        res = optimize_gaussian(0.3, 1.1)
        assert qfi_of_state(build_probe(res.probe), res.phi) == pytest.approx(
            res.best_qfi, abs=1e-9)


class TestBestCat:
    def test_even_parity_below_unit_energy(self):
        res = best_cat(0.76, math.pi / 8)
        assert res.best_params["sign"] == +1
        assert res.nbar == pytest.approx(0.76, abs=1e-6)

    def test_both_parities_above_unit_energy(self):
        res = best_cat(1.5, 0.5)
        assert res.starts == 2

    def test_corner_win_and_loss_against_gaussian(self):
        win = best_cat(0.76, math.pi / 8)
        ref = optimize_gaussian(0.76, math.pi / 8)
        assert win.best_qfi > ref.best_qfi
        lose = best_cat(0.76, math.pi / 3)
        ref2 = optimize_gaussian(0.76, math.pi / 3)
        assert lose.best_qfi < ref2.best_qfi


class TestFamilyOrdering:
    def test_qutrit_dominates_gaussian_spot(self):
        for nbar, phi in [(0.3, 0.5), (0.8, 1.1)]:
            q = optimize_qutrit(nbar, phi)
            g = optimize_gaussian(nbar, phi)
            assert q.best_qfi >= g.best_qfi - 1e-4

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 9 checks the
truncation fidelities of photon-subtracted states against a closed form
written in this module, and pins the measured floors 0.8476 (3 levels) and
0.9612 (5 levels). The universal floors often quoted for these truncations,
> 0.92 and > 0.99 wherever the subtracted state holds at most one photon,
do not hold: the closed form gives 3-level fidelity 0.8476 at
(eta, r) = (0.737, 0.474), and one floor or the other fails at 10 of the 56
kept grid points, for r between -0.16 and 0.47. The printed k_j table of the
three kept levels (``degauss._subtracted_levels``) is no second check of
these floors: it fixes only the direction of the 3-level vector, not the
weight the truncation discards.
"""

import math

import numpy as np
import pytest

from lossqfi import (Cat, Coherent, Fock, FockVector, Gaussian,
                     LossParameter, PhotonSubtracted, Qubit, Qutrit,
                     Superposition, TruncatedSubtracted, best_cat, build_probe,
                     classical_fisher, closed_form_qfi, coverage_check,
                     displaced_squeezed_vacuum, drho_dphi, evolve, fidelity,
                     mean_photon, optimal_measurement, optimize_gaussian,
                     optimize_superposition, photon_subtract,
                     qfi, qfi_of_state, simulate_fock_estimation, sld,
                     truncate_levels)
from lossqfi.optimize import _qutrit_optima

PHI_MIN = 1e-3


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


ORDERING_NBARS = (0.1, 0.3, 0.5, 0.8, 1.0)
ORDERING_PHIS = np.linspace(0.05, math.pi / 2 - 0.05, 15)


@pytest.fixture(scope="module")
def qutrit_table():
    """Optimal qutrit QFI on the shared (nbar, phi) grid of criteria 6 and 7,
    from one lockstep search over all of it."""
    points = [(nbar, float(phi)) for nbar in ORDERING_NBARS for phi in ORDERING_PHIS]
    return dict(zip(points, _qutrit_optima(*zip(*points))[1].tolist()))


def test_criterion_01_fock_optimality():
    worst = 0.0
    for n in (1, 2, 5, 10):
        for phi in np.linspace(PHI_MIN, math.pi / 2 - PHI_MIN, 25):
            worst = max(worst, abs(qfi(Fock(n), float(phi)).qfi - 4.0 * n))
    report(1, "Fock optimality H=4n", worst < 1e-6, f"worst |H-4n| = {worst:.3e}")


def test_criterion_02_qubit_closed_form():
    worst = 0.0
    for nbar in np.linspace(0.1, 1.0, 10):
        for phi in np.linspace(PHI_MIN, math.pi / 2 - PHI_MIN, 10):
            numeric = qfi(Qubit.from_nbar(float(nbar)), float(phi)).qfi
            closed = closed_form_qfi("qubit", {"nbar": float(nbar)}, float(phi))
            worst = max(worst, abs(numeric - closed))
    spread = np.ptp([qfi(Qubit(0.6, v), 0.8).qfi
                     for v in np.linspace(0, 2 * math.pi, 9)])
    report(2, "qubit closed form", worst < 1e-8 and spread < 1e-9,
           f"worst |diff| = {worst:.3e}, phase spread = {spread:.3e}")


def test_criterion_03_qutrit02_closed_form():
    # grid starts at 0.01: below phi ~ 1.5e-3 the doubly-damped component of
    # the 0-2 superposition sinks under the support threshold and the
    # pipeline deliberately forfeits its ~1e-6 information content
    worst = 0.0
    for nbar in np.linspace(0.1, 1.0, 10):
        for phi in np.linspace(0.01, math.pi / 2 - 0.01, 10):
            numeric = qfi(Qutrit(float(nbar), 0.0), float(phi)).qfi
            closed = closed_form_qfi("qutrit02", {"nbar": float(nbar)}, float(phi))
            worst = max(worst, abs(numeric - closed))
    dominated = all(
        closed_form_qfi("qutrit02", {"nbar": float(nb)}, float(ph))
        >= closed_form_qfi("gaussian_small_n", {"nbar": float(nb)}, float(ph)) - 1e-12
        for nb in np.linspace(0.05, 1.0, 20)
        for ph in np.linspace(PHI_MIN, math.pi / 2 - PHI_MIN, 20))
    report(3, "qutrit 0-2 closed form (repaired)", worst < 1e-8 and dominated,
           f"worst |diff| = {worst:.3e}, dominates small-n Gaussian form: {dominated}")


def test_criterion_04_gaussian_small_energy():
    # the small-energy form describes the squeezed-vacuum optimum, which is
    # the true Gaussian optimum in the squeezing-dominated regime phi < pi/4
    worst_rel = 0.0
    min_x = 1.0
    for phi in np.linspace(PHI_MIN, 0.70, 15):
        res = optimize_gaussian(0.01, float(phi))
        closed = closed_form_qfi("gaussian_small_n", {"nbar": 0.01}, float(phi))
        worst_rel = max(worst_rel, abs(res.best_qfi - closed) / closed)
        min_x = min(min_x, res.best_params["squeeze_fraction"])
    report(4, "Gaussian small-energy form", worst_rel < 1e-2 and min_x > 0.95,
           f"worst rel = {worst_rel:.3e}, min squeeze fraction = {min_x:.3f}")


def test_criterion_05_gaussian_dip():
    lows = {}
    for nbar, phis in ((1.0, np.linspace(0.1, math.pi / 2 - 0.1, 15)),
                       (5.0, np.linspace(0.2, 1.2, 7))):
        lows[nbar] = min(optimize_gaussian(nbar, float(phi)).best_qfi for phi in phis)
    ok = all(1.5 * nb <= lows[nb] <= 2.5 * nb for nb in lows)
    report(5, "Gaussian suboptimality dip", ok,
           ", ".join(f"min H({nb}) = {lows[nb]:.4f} in [{1.5*nb}, {2.5*nb}]"
                     for nb in lows))


def test_criterion_06_qutrit_dominance(qutrit_table):
    worst_gap = math.inf
    for nbar in ORDERING_NBARS:
        for phi in ORDERING_PHIS:
            h_gauss = optimize_gaussian(nbar, float(phi)).best_qfi
            worst_gap = min(worst_gap, qutrit_table[(nbar, float(phi))] - h_gauss)
    report(6, "qutrit dominates Gaussian", worst_gap >= -1e-4,
           f"worst (qutrit - Gaussian) = {worst_gap:.3e}")


def test_criterion_07_family_ordering(qutrit_table):
    worst32 = math.inf
    worst21 = math.inf
    for nbar in ORDERING_NBARS:
        for phi in ORDERING_PHIS:
            h1 = closed_form_qfi("qubit", {"nbar": nbar}, float(phi))
            h2 = qutrit_table[(nbar, float(phi))]
            h3 = optimize_superposition(3, nbar, float(phi), seed=0,
                                        starts=8).best_qfi
            worst32 = min(worst32, h3 - h2)
            worst21 = min(worst21, h2 - h1)
    ok = worst32 >= -1e-6 and worst21 >= -1e-6
    report(7, "family ordering H3 >= H2 >= H1", ok,
           f"min(H3-H2) = {worst32:.3e}, min(H2-H1) = {worst21:.3e}")


def test_criterion_08_ultimate_bound():
    rng = np.random.default_rng(2024)
    phis = np.linspace(0.05, math.pi / 2 - 0.05, 10)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 13))
        state = FockVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        nbar = mean_photon(state)
        phi = float(rng.choice(phis))
        worst = max(worst, qfi_of_state(state, phi) - 4.0 * nbar * (1 + 1e-6))
    report(8, "ultimate bound H <= 4 nbar", worst <= 0.0,
           f"worst excess = {worst:.3e}")


def _subtracted_truncation_fidelity(eta, r, levels):
    """Fidelity of a D(eta) S(r)|0> with its renormalized lowest ``levels`` levels.

    With t = tanh r, <n|D(eta) S(r)|0> = exp(-eta^2 (1+t)/2) h_n / sqrt(n! cosh r),
    where h_0 = 1, h_1 = eta (1+t) and h_{n+1} = h_1 h_n - n t h_{n-1} (scaled
    Hermite polynomials; r = 0 gives the coherent state). a D S|0> has norm^2
    eta^2 + sinh^2 r and amplitudes sqrt(n) <n|D S|0> on level n-1, so the
    fidelity is sum_{n=1..levels} n |<n|D S|0>|^2 / (eta^2 + sinh^2 r).
    """
    t = math.tanh(r)
    h1 = eta * (1.0 + t)
    vacuum_weight = math.exp(-eta * eta * (1.0 + t)) / math.cosh(r)
    h_prev, h, kept = 1.0, h1, 0.0
    for n in range(1, levels + 1):
        kept += n * vacuum_weight * h * h / math.factorial(n)
        h_prev, h = h, h1 * h - n * t * h_prev
    return kept / (eta * eta + math.sinh(r) ** 2)


def _subtracted_mean_photon(eta, r):
    """<a+ a> of a D(eta) S(r)|0> for real eta, r: <a+^2 a^2> / <a+ a>.

    With a = eta + b, b the squeezed-vacuum mode (<b+ b> = sinh^2 r,
    <b^2> = -sinh r cosh r), Gaussian moments give
    <a+^2 a^2> = eta^4 + 2 eta^2 <b^2> + 4 eta^2 <b+ b> + <b^2>^2 + 2 <b+ b>^2.
    """
    n_sq = math.sinh(r) ** 2
    m = -math.sinh(r) * math.cosh(r)
    eta2 = eta * eta
    return (eta2 * eta2 + 2 * eta2 * m + 4 * eta2 * n_sq + m * m
            + 2 * n_sq * n_sq) / (eta2 + n_sq)


def test_criterion_09_degaussified_fidelity():
    # Over the resource box, restricted to subtracted states with nbar <= 1,
    # the program's truncation fidelities must match the closed form above at
    # every kept grid point, and the grid minima are pinned to 4 digits. The
    # nbar filter uses the closed-form mean photon number; the program's must
    # agree with it (to the 1e-10 cutoff tail) at every grid point. The quoted
    # floors 0.92 / 0.99 are printed next to the measured ones but not
    # asserted: the closed form itself puts the 3-level fidelity at 0.8476 at
    # (eta, r) = (0.737, 0.474), and a 201x201 grid lowers the minima further
    # to 0.808 / 0.947.
    min3, min5, worst, worst_nbar, kept = 1.0, 1.0, 0.0, 0.0, 0
    where3 = None
    for eta in np.linspace(0.0, 2.0, 20):
        for r in np.linspace(-1.0, 1.0, 20):
            eta, r = float(eta), float(r)
            if eta == 0.0 and r == 0.0:
                continue
            state = photon_subtract(displaced_squeezed_vacuum(eta, r))
            nbar = _subtracted_mean_photon(eta, r)
            worst_nbar = max(worst_nbar, abs(mean_photon(state) - nbar))
            if nbar > 1.0:
                continue
            kept += 1
            f3 = fidelity(state, truncate_levels(state, 3))
            f5 = fidelity(state, truncate_levels(state, 5))
            worst = max(worst,
                        abs(f3 - _subtracted_truncation_fidelity(eta, r, 3)),
                        abs(f5 - _subtracted_truncation_fidelity(eta, r, 5)))
            if f3 < min3:
                min3, where3 = f3, (eta, r)
            min5 = min(min5, f5)
    ok = (worst < 1e-6 and worst_nbar < 1e-6 and abs(min3 - 0.8476) < 1e-4
          and abs(min5 - 0.9612) < 1e-4)
    report(9, "de-Gaussified truncation fidelity", ok,
           f"measured floors: 3-level {min3:.4f} at (eta, r) = "
           f"({where3[0]:.3f}, {where3[1]:.3f}) (quoted > 0.92), "
           f"5-level {min5:.4f} (quoted > 0.99); worst |program - closed form| "
           f"= {worst:.1e} over {kept} points, nbar {worst_nbar:.1e}")


def test_criterion_10_region_coverage(default_region):
    phis = [math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8]
    nbars = np.linspace(0.05, 0.95, 19)
    rep = coverage_check(phis, nbars, default_region)
    misses = [(p.phi, p.nbar) for p in rep.points if not (p.covered or p.exception)]
    report(10, "attainable-region coverage", not misses,
           f"{sum(p.covered for p in rep.points)}/{len(rep.points)} covered, "
           f"unexcused misses: {misses}")


def test_criterion_11_measurement_attainment():
    families = [
        Fock(2), Qubit.from_nbar(0.5), Qutrit(0.7, 0.8),
        Superposition([0.5, 0.5, 0.5, 0.5]), Coherent(1.0), Cat(0.9, +1),
        Cat(1.2, -1), Gaussian(0.8, -0.4, 0.3), PhotonSubtracted(1.0, 0.4),
        TruncatedSubtracted(1.0, 0.4, 3),
    ]
    worst = 0.0
    for spec in families:
        for phi in np.linspace(0.15, math.pi / 2 - 0.15, 5):
            loss = LossParameter(float(phi))
            h = qfi(spec, loss).qfi
            operator = sld(build_probe(spec), loss)
            fisher = classical_fisher(optimal_measurement(operator), spec, loss)
            worst = max(worst, abs(fisher - h) / h)
    report(11, "SLD measurement attains QFI", worst < 1e-6,
           f"worst relative gap = {worst:.3e} over {len(families)} families")


def test_criterion_12_monte_carlo_saturation():
    values = {}
    for n in (1, 2):
        rep = simulate_fock_estimation(n, math.pi / 4, 10 ** 4, 200, seed=7)
        values[n] = rep.normalized_variance
    ok = all(0.85 <= v <= 1.15 for v in values.values())
    report(12, "Monte Carlo saturation", ok,
           ", ".join(f"n={n}: {v:.4f}" for n, v in values.items()))


def test_criterion_13_channel_contract():
    rng = np.random.default_rng(77)
    raw = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    rho = raw @ raw.conj().T
    from lossqfi import DensityOperator
    rho = DensityOperator(rho / np.trace(rho))
    worst_trace, worst_pos, worst_fd = 0.0, 0.0, 0.0
    for phi in np.linspace(0.05, math.pi / 2 - 0.05, 8):
        loss = LossParameter(float(phi))
        out = evolve(rho, loss)
        worst_trace = max(worst_trace, abs(np.trace(out.matrix).real - 1.0))
        worst_pos = max(worst_pos, -float(np.linalg.eigvalsh(out.matrix).min()))
        step = 1e-5
        numeric = (evolve(rho, LossParameter(float(phi) + step)).matrix
                   - evolve(rho, LossParameter(float(phi) - step)).matrix) / (2 * step)
        worst_fd = max(worst_fd, float(np.max(np.abs(
            drho_dphi(out, loss) - numeric))))
    first = evolve(rho, LossParameter.from_gamma_t(0.4))
    second = evolve(first, LossParameter.from_gamma_t(0.7))
    direct = evolve(rho, LossParameter.from_gamma_t(1.1))
    semigroup = float(np.linalg.norm(second.matrix - direct.matrix))
    ok = (worst_trace <= 1e-10 and worst_pos <= 1e-10 and semigroup <= 1e-9
          and worst_fd <= 1e-6)
    report(13, "channel contract", ok,
           f"trace {worst_trace:.2e}, positivity {worst_pos:.2e}, "
           f"semigroup {semigroup:.2e}, derivative {worst_fd:.2e}")


def test_criterion_14_cat_state_claim():
    win_cat = best_cat(0.76, math.pi / 8).best_qfi
    win_gauss = optimize_gaussian(0.76, math.pi / 8).best_qfi
    lose_cat = best_cat(0.76, math.pi / 3).best_qfi
    lose_gauss = optimize_gaussian(0.76, math.pi / 3).best_qfi
    ok = win_cat > win_gauss and lose_cat < lose_gauss
    report(14, "cat-state corner claim", ok,
           f"phi=pi/8: cat {win_cat:.4f} vs Gaussian {win_gauss:.4f}; "
           f"phi=pi/3: cat {lose_cat:.4f} vs Gaussian {lose_gauss:.4f}")

import math

import numpy as np
import pytest

from lossqfi import (Cat, Coherent, DomainError, Fock, FockVector, Gaussian,
                     PhotonSubtracted, Qubit, Qutrit, Superposition,
                     TruncatedSubtracted, build_probe, mean_photon, parse_probe,
                     probe_label, qfi, qfi_of_state, qutrit_coords)
from lossqfi.degauss import _subtracted_levels
from lossqfi.errors import DegenerateStateError
from lossqfi.probes import _FAMILIES, cat_mean_photon

# the declared mean photon number of each family with a closed form
_NOMINAL_NBAR = {
    Fock: lambda s: float(s.n),
    Qubit: lambda s: math.sin(s.theta) ** 2,
    Qutrit: lambda s: s.nbar,
    Superposition: lambda s: sum(m * abs(c) ** 2 for m, c in enumerate(s.coefficients)),
    Coherent: lambda s: abs(s.alpha) ** 2,
    Cat: lambda s: cat_mean_photon(s.alpha, s.sign),
    Gaussian: lambda s: abs(s.eta) ** 2 + math.sinh(s.r) ** 2,
}


def truncated_subtracted_coeffs(eta: float, r: float) -> np.ndarray:
    """The printed three-level table of the truncated a D(eta) S(r)|0>,
    normalized: k0 = eta (tanh r + 1), k1 = k0^2 - tanh r and
    k2 = k0 (k0^2 - 3 tanh r) / sqrt(2)."""
    t = math.tanh(r)
    k0 = eta * (t + 1.0)
    k = np.array([k0, k0 ** 2 - t, k0 * (k0 ** 2 - 3.0 * t) / math.sqrt(2.0)])
    return k / np.linalg.norm(k)


def _subtracted_nbar(eta, r, levels=None):
    """Closed-form <a+ a> of the normalized a D(eta) S(r)|0>, eta and r real.

    All levels: <a+2 a2> / <a+ a> from the Gaussian moments of a = eta + b,
    with <b+ b> = sinh^2 r and <b^2> = -sinh r cosh r. Kept on its lowest
    ``levels`` levels: level n has weight (n+1) |<n+1|D S|0>|^2, where
    <n|D S|0> is proportional to h_n / sqrt(n!) with the scaled Hermite terms
    h_0 = 1, h_1 = eta (1 + tanh r), h_{n+1} = h_1 h_n - n tanh(r) h_{n-1}.
    """
    if levels is None:
        n_sq, m = math.sinh(r) ** 2, -math.sinh(r) * math.cosh(r)
        e2 = eta * eta
        return (e2 * e2 + 2 * e2 * m + 4 * e2 * n_sq + m * m + 2 * n_sq * n_sq) / (e2 + n_sq)
    t = math.tanh(r)
    h = [1.0, eta * (1.0 + t)]
    for n in range(1, levels):
        h.append(h[1] * h[n] - n * t * h[n - 1])
    weight = [(n + 1) * h[n + 1] ** 2 / math.factorial(n + 1) for n in range(levels)]
    return sum(n * w for n, w in enumerate(weight)) / sum(weight)


class TestBuildProbe:
    def test_fock(self):
        state = build_probe(Fock(2))
        assert np.allclose(state.amplitudes, [0, 0, 1])

    def test_qutrit_qubit_limit(self):
        # nbar=1 at beta=pi/2 collapses onto |1> (up to the phase e^{i pi})
        state = build_probe(Qutrit(1.0, math.pi / 2))
        assert abs(state.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(state.amplitudes[0]) < 1e-12
        assert abs(state.amplitudes[2]) < 1e-12

    def test_qutrit_zero_two_superposition(self):
        state = build_probe(Qutrit(0.5, 0.0))
        assert abs(state.amplitudes[1]) < 1e-15
        assert abs(state.amplitudes[2]) ** 2 == pytest.approx(0.25, abs=1e-12)
        assert state.amplitudes[2].real < 0  # nu = pi

    def test_qutrit_domain(self):
        with pytest.raises(DomainError):
            Qutrit(2.0, math.pi / 2)  # alpha would need sin > 1
        Qutrit(2.0, 0.0)  # attainable: pure |2>

    def test_qubit_from_nbar(self):
        spec = Qubit.from_nbar(0.36)
        assert math.sin(spec.theta) ** 2 == pytest.approx(0.36, abs=1e-12)

    def test_cat_parities(self):
        even = build_probe(Cat(1.1, +1))
        odd = build_probe(Cat(1.1, -1))
        assert np.max(np.abs(even.amplitudes[1::2])) < 1e-14
        assert np.max(np.abs(odd.amplitudes[0::2])) < 1e-14

    def test_cat_degenerate(self):
        with pytest.raises(DegenerateStateError):
            Cat(0.0, +1)

    def test_gaussian_energy(self):
        spec = Gaussian(0.9, 0.6, 0.0)
        state = build_probe(spec)
        assert mean_photon(state) == pytest.approx(0.9 ** 2 + math.sinh(0.6) ** 2, abs=1e-6)

    def test_superposition_normalized(self):
        spec = Superposition([1.0, 1.0j, 1.0])
        assert sum(abs(c) ** 2 for c in spec.coefficients) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec,tol", [
        (Fock(3), 1e-9),
        (Qubit.from_nbar(0.4), 1e-9),
        (Qutrit(0.7, 0.8), 1e-9),
        (Superposition([0.5, 0.5, 0.5, 0.5]), 1e-9),
        (Coherent(1.2), 1e-6),
        (Cat(0.9, +1), 1e-6),
        (Cat(0.9, -1), 1e-6),
        (Gaussian(0.8, -0.4, 0.3), 1e-6),
        (PhotonSubtracted(0.421, -1.0), 2e-8),
        (PhotonSubtracted(1.2, 0.5), 2e-8),
        (TruncatedSubtracted(0.421, -1.0, 3), 1e-12),
        (TruncatedSubtracted(1.0, 0.4, 4), 1e-12),
    ])
    def test_energy_consistency(self, spec, tol):
        if type(spec) in _NOMINAL_NBAR:
            expected = _NOMINAL_NBAR[type(spec)](spec)
        else:
            expected = _subtracted_nbar(spec.eta, spec.r, getattr(spec, "levels", None))
        assert mean_photon(build_probe(spec)) == pytest.approx(expected, abs=tol)

    def test_subtraction_keeps_the_level_above_a_short_cutoff(self):
        # a D(eta)|0> = eta |eta>: two levels carry the whole state here
        report = qfi(PhotonSubtracted(0.001, 0.0), math.pi / 4)
        assert report.nbar == pytest.approx(1e-6, abs=1e-11)
        assert report.qfi == pytest.approx(2e-6, abs=1e-11)

    def test_subtraction_from_the_vacuum_is_degenerate(self):
        with pytest.raises(DegenerateStateError):
            build_probe(PhotonSubtracted(0.0, 0.0))


class TestTruncatedSubtractedCoeffs:
    # the table is written above; the region map's closed form
    # (degauss._subtracted_levels) and the built truncsub state must match it

    def test_printed_formula_hand_evaluation(self):
        # k = (1, 1, 1/sqrt(2)) at eta=1, r=0
        coeffs = truncated_subtracted_coeffs(1.0, 0.0)
        hand = [0.632455532034, 0.632455532034, 0.447213595500]
        assert np.allclose(coeffs, hand, atol=1e-12)
        levels = _subtracted_levels(1.0, 0.0)
        assert np.allclose(levels / np.linalg.norm(levels), hand, atol=1e-12)

    def test_squeezed_only_truncates_to_one_photon(self):
        coeffs = truncated_subtracted_coeffs(0.0, 0.5)
        assert np.allclose(np.abs(coeffs), [0.0, 1.0, 0.0], atol=1e-15)
        state = build_probe(TruncatedSubtracted(0.0, 0.5))
        assert np.allclose(np.abs(state.amplitudes), [0.0, 1.0, 0.0], atol=1e-15)

    def test_coherent_point_matches_fock_expansion(self):
        # photon subtraction leaves a coherent state untouched: at r = 0 the
        # three kept levels are those of |eta>, e^{-1/2} (1, 1, 1/sqrt(2)) at
        # eta = 1, renormalized
        reference = np.array([1.0, 1.0, 1.0 / math.sqrt(2.0)])
        reference /= np.linalg.norm(reference)
        for coeffs in (truncated_subtracted_coeffs(1.0, 0.0),
                       build_probe(TruncatedSubtracted(1.0, 0.0)).amplitudes):
            assert abs(np.vdot(coeffs, reference)) ** 2 > 1.0 - 1e-10

    def test_degenerate_pair(self):
        # all three kept levels vanish at the vacuum
        assert not np.any(_subtracted_levels(0.0, 0.0))
        with pytest.raises(DegenerateStateError):
            build_probe(TruncatedSubtracted(0.0, 0.0))

    def test_matches_numeric_route(self):
        for eta, r in [(1.0, 0.5), (0.5, -0.3), (1.5, 0.8), (0.3, 0.2)]:
            numeric = build_probe(TruncatedSubtracted(eta, r, 3)).amplitudes
            printed = truncated_subtracted_coeffs(eta, r)
            levels = _subtracted_levels(eta, r)
            assert abs(np.vdot(numeric, printed)) > 1.0 - 1e-9
            assert np.allclose(levels / np.linalg.norm(levels), printed, atol=1e-14)

    @pytest.mark.parametrize("eta", [0.002, 0.003])
    def test_built_state_keeps_its_levels_near_the_origin(self, eta):
        # a D(eta)|0> = eta |eta>: above level 0 the state holds only about
        # eta^2 of its weight, and every kept level must stay, as in the
        # closed form
        for levels in (3, 5):
            assert build_probe(TruncatedSubtracted(eta, 0.0, levels)).dim == levels
        closed = truncated_subtracted_coeffs(eta, 0.0)
        beta = qutrit_coords(build_probe(TruncatedSubtracted(eta, 0.0)))[1]
        assert beta == pytest.approx(qutrit_coords(closed)[1], rel=1e-12)
        assert beta < math.pi / 2 - 1e-3
        assert qfi(TruncatedSubtracted(eta, 0.0), 0.8).qfi == pytest.approx(
            qfi_of_state(FockVector(closed), 0.8), rel=1e-12)


class TestQutritCoords:
    def test_pure_one_photon(self):
        assert qutrit_coords(np.array([0, 1, 0], dtype=complex)) == pytest.approx(
            (1.0, math.pi / 2))

    def test_pure_two_photon(self):
        assert qutrit_coords(np.array([0, 0, 1], dtype=complex)) == pytest.approx((2.0, 0.0))

    def test_printed_example(self):
        nbar, beta = qutrit_coords(np.array([0.632455532034, 0.632455532034,
                                             0.447213595500]))
        assert nbar == pytest.approx(0.8, abs=1e-9)
        assert beta == pytest.approx(math.atan(math.sqrt(2.0)), abs=1e-9)

    def test_support_above_level_two(self):
        with pytest.raises(DomainError):
            qutrit_coords(np.array([0.5, 0.5, 0.5, 0.5]))

    def test_vacuum_undefined(self):
        with pytest.raises(DegenerateStateError):
            qutrit_coords(np.array([1.0, 0.0, 0.0]))

    def test_roundtrip_with_build_probe(self):
        for nbar in np.arange(0.1, 2.0, 0.2):
            for beta in np.linspace(0.0, math.pi / 2, 9):
                try:
                    spec = Qutrit(float(nbar), float(beta))
                except DomainError:
                    continue  # (nbar, beta) outside the real-angle domain
                got_n, got_b = qutrit_coords(build_probe(spec))
                assert got_n == pytest.approx(nbar, abs=1e-9)
                # beta is undefined when both c1 and c2 vanish is excluded by domain
                assert got_b == pytest.approx(beta, abs=1e-9)


class TestTextForms:
    @pytest.mark.parametrize("text,expected", [
        ("fock:n=2", Fock(2)),
        ("qubit:nbar=0.5", Qubit.from_nbar(0.5)),
        ("qutrit:nbar=0.5,beta=0.3", Qutrit(0.5, 0.3)),
        ("subtracted:eta=1.0,r=0.4", PhotonSubtracted(1.0, 0.4)),
        ("cat:alpha=1.2,sign=+", Cat(1.2, +1)),
        ("cat:alpha=1.2,sign=-", Cat(1.2, -1)),
        ("coherent:alpha=1", Coherent(1.0 + 0j)),
        ("gaussian:eta=0.5,r=-0.2,theta=0.1", Gaussian(0.5 + 0j, -0.2, 0.1)),
        ("truncsub:eta=1.0,r=0.4,levels=5", TruncatedSubtracted(1.0, 0.4, 5)),
    ])
    def test_parse(self, text, expected):
        assert parse_probe(text) == expected

    def test_parse_pi_forms(self):
        spec = parse_probe("qutrit:nbar=0.5,beta=pi/4")
        assert spec.beta == pytest.approx(math.pi / 4)

    def test_parse_superposition(self):
        spec = parse_probe("superposition:c=0.6/0/0.8j")
        assert len(spec.coefficients) == 3
        assert abs(spec.coefficients[2] - 0.8j / math.sqrt(0.36 + 0.64)) < 1e-12

    def test_label_roundtrip(self):
        examples = ["fock:n=3", "qubit:theta=0.4,varphi=0.3", "qutrit:nbar=0.5,beta=0.3",
                    "superposition:c=0.6/0.3j/0.7-0.2j", "coherent:alpha=0.5+0.6j",
                    "cat:alpha=1.2,sign=-", "gaussian:eta=0.5-0.2j,r=-0.2,theta=0.1",
                    "subtracted:eta=1,r=0.4", "truncsub:eta=1,r=0.4,levels=4"]
        assert sorted(text.split(":")[0] for text in examples) == sorted(_FAMILIES)
        for text in examples:
            spec = parse_probe(text)
            again = parse_probe(probe_label(spec))
            assert build_probe(spec).amplitudes == pytest.approx(
                build_probe(again).amplitudes, abs=1e-12)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            parse_probe("thermal:nbar=1")

    def test_bad_value(self):
        with pytest.raises(DomainError):
            parse_probe("fock:n=two")

    @pytest.mark.parametrize("text,message", [
        ("gaussian:eta=1,r=1,thta=0.3", "does not take thta; it takes eta, r, theta"),
        ("fock:n=1,m=2", "does not take m; it takes n"),
        ("qubit:nbar=0.5,theta=0.2", "qubit takes theta or nbar, not both"),
    ])
    def test_keys_the_family_does_not_take(self, text, message):
        with pytest.raises(DomainError, match=message):
            parse_probe(text)

"""Property tests of the stacked QFI core, the purification form with its
gradient and Hessian, the map onto the real energy slice and the search that
runs on them, and of the constructions that use the log-factorial table: the
closed-form Kraus images (and their
phi derivative, whose squared norm is the energy) and the mixed-state
channel, with the coherent amplitudes and their measured cutoff.

The stacked entry takes a (B, D) stack at one loss angle or one per probe,
and runs real probes in real arithmetic; zero-padding, per-element angles,
the real route and its element budget are each checked here.

The core is checked against a dense reference, and for the two symmetries
the fixed-energy optimizers rely on: the loss channel commutes with
e^{i theta N} and its Kraus operators are real in the Fock basis, so
H(e^{i theta N} psi) = H(psi) and H(psi*) = H(psi). Extra loss, which
composes with the channel, must not add information about the transmissivity.

The reference is written here from first principles: the dense Kraus
operators K_n = sin(phi)^n / sqrt(n!) cos(phi)^N a^n, their analytic phi
derivatives, rho and drho as dense Kraus sums, one ``eigh`` per state, and
the pair formula on the same support mask as the package.

Loss angles start at 0.2. Below that the eigenvalues of rho fall as
sin(phi)^(2n), and any two double-precision evaluations, this reference
and the package alike, differ by up to about 1e-11 relative (a 40-digit
evaluation sits between them), so a 1e-12 comparison there would test the
conditioning, not the stacking.
"""

import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from lossqfi import (Cat, Coherent, Fock, Gaussian, LossParameter,  # noqa: E402
                     PhotonSubtracted, Qubit, Qutrit, Superposition,
                     TruncatedSubtracted, build_probe, classical_fisher,
                     optimal_measurement, parse_probe, qfi_of_state, sld)
from lossqfi import estimation, optimize, probes  # noqa: E402
from lossqfi.channel import _kraus_images, evolve  # noqa: E402
from lossqfi.estimation import RANK_EPS, STACK_BUDGET, _qfi_stack  # noqa: E402
from lossqfi.fock import (MAX_LEVELS, TAIL_TOL, DensityOperator, FockVector,  # noqa: E402
                          coherent_state)
from lossqfi.optimize import _to_slice  # noqa: E402


def reference_state(psi: np.ndarray, phi: float):
    """rho and drho/dphi of the evolved pure probe, as dense Kraus sums."""
    d = psi.size
    s, c = math.sin(phi), math.cos(phi)
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    number = np.diag(np.arange(d, dtype=float))
    c_n = np.diag(c ** np.arange(d))
    rho = np.zeros((d, d), dtype=complex)
    drho = np.zeros((d, d), dtype=complex)
    a_n = np.eye(d)
    for n in range(d):
        k = s ** n / math.sqrt(math.factorial(n)) * c_n @ a_n
        # d/dphi of s^n c^N: (n cot(phi) - tan(phi) N) acting on the left
        dk = (n * c / s * np.eye(d) - s / c * number) @ k
        out = k @ psi
        dout = dk @ psi
        rho += np.outer(out, out.conj())
        drho += np.outer(dout, out.conj()) + np.outer(out, dout.conj())
        a_n = a @ a_n
    return rho, drho


def reference_kraus(phi: float, dim: int) -> list:
    """The dim Kraus operators K_n = sin(phi)^n / sqrt(n!) cos(phi)^N a^n, from
    <m|K_n|m+n> = sin(phi)^n cos(phi)^m sqrt((m+n)! / (m! n!)) with the
    factorials taken by math.lgamma in log space, so none overflows."""
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(dim)])
    ops = []
    for n in range(dim):
        m = np.arange(dim - n)
        k = np.zeros((dim, dim))
        k[m, m + n] = np.exp(n * math.log(math.sin(phi)) + m * math.log(math.cos(phi))
                             + 0.5 * (log_fact[m + n] - log_fact[m] - log_fact[n]))
        ops.append(k)
    return ops


def coherent_reference(alpha: complex, levels: int) -> np.ndarray:
    """exp(-|alpha|^2/2) alpha^m / sqrt(m!) for m < levels, the power and the
    factorial taken in log space (math.lgamma) so that neither overflows."""
    m = np.arange(levels)
    if alpha == 0:
        return (m == 0).astype(complex)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(levels)])
    return np.exp(m * math.log(abs(alpha)) - 0.5 * log_fact - 0.5 * abs(alpha) ** 2
                  + 1j * cmath.phase(alpha) * m)


def reference_qfi(psi: np.ndarray, phi: float) -> float:
    rho, drho = reference_state(psi, phi)
    lam, vecs = np.linalg.eigh(rho)
    d_eig = vecs.conj().T @ drho @ vecs
    pair = lam[:, None] + lam[None, :]
    mask = pair > RANK_EPS * np.trace(rho).real
    return float(np.sum(2.0 * np.abs(d_eig[mask]) ** 2 / pair[mask]))


@st.composite
def probe_stacks(draw):
    batch = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 8))
    parts = hnp.arrays(float, (batch, dim),
                       elements=st.floats(-1.0, 1.0, allow_nan=False))
    amps = draw(parts) + 1j * draw(parts)
    # each probe has its own support, so the Kraus-floor masks differ
    # between the elements of one stack
    support = draw(hnp.arrays(int, batch, elements=st.integers(1, dim)))
    amps[np.arange(dim) >= support[:, None]] = 0.0
    norms = np.linalg.norm(amps, axis=1)
    hypothesis.assume(np.all(norms > 1e-3))
    phi = draw(st.floats(0.2, math.pi / 2 - 1e-3))
    return amps / norms[:, None], phi


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(probe_stacks())
def test_stacked_core_matches_dense_reference(stack):
    amps, phi = stack
    got = _qfi_stack(amps, LossParameter(phi))
    assert got.shape == (amps.shape[0],)
    for h, psi in zip(got, amps):
        ref = reference_qfi(psi, phi)
        assert abs(h - ref) <= 1e-12 * max(abs(ref), 1e-3)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(probe_stacks(), st.floats(0.0, 2.0 * math.pi))
def test_phase_rotation_and_conjugation_keep_the_qfi(stack, theta):
    amps, phi = stack
    loss = LossParameter(phi)
    h = _qfi_stack(amps, loss)
    rotated = amps * np.exp(1j * theta * np.arange(amps.shape[1]))
    for other in (rotated, amps.conj()):
        assert np.all(np.abs(_qfi_stack(other, loss) - h)
                      <= 1e-12 * np.maximum(np.abs(h), 1e-3))


@st.composite
def slice_map_inputs(draw):
    kmax = draw(st.integers(1, 8))
    u = draw(hnp.arrays(float, kmax + 1,
                        elements=st.floats(-1.0, 1.0, allow_nan=False)))
    # integer energies put a level on the slice's pivot n = nbar
    nbar = draw(st.floats(0.01, kmax) | st.integers(1, kmax).map(float))
    return u, nbar


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(slice_map_inputs())
def test_slice_map_lands_on_the_slice_and_keeps_its_points(point):
    x, nbar = point
    c = _to_slice(x, nbar)
    hypothesis.assume(np.any(c))
    assert abs(np.sum(c ** 2) - 1.0) <= 1e-12
    assert abs(np.sum(np.arange(c.size) * c ** 2) - nbar) <= 1e-12
    assert c[np.flatnonzero(c)[0]] > 0
    assert np.max(np.abs(_to_slice(c, nbar) - c)) <= 1e-12


@st.composite
def real_stacks(draw):
    batch = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 8))
    amps = draw(hnp.arrays(float, (batch, dim),
                           elements=st.floats(-1.0, 1.0, allow_nan=False)))
    norms = np.linalg.norm(amps, axis=1)
    hypothesis.assume(np.all(norms > 1e-3))
    phi = draw(st.floats(0.2, math.pi / 2 - 1e-3))
    return amps / norms[:, None], phi


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(real_stacks())
def test_gradient_route_matches_central_differences(stack):
    # the search's purification form gives H, its gradient and its Hessian on
    # every real vector. H is the core's on normalized probes, up to the error
    # of the core's support mask at heavy loss (1.8e-10 seen here); the
    # gradient's radial part is fixed by H(lam c) = lam^2 H(c): c.g = 2H; and
    # central differences along each level check the gradient everywhere and
    # the Hessian where every level is populated: where W loses rank (empty
    # levels) H is smooth only to first order
    amps, phi = stack
    maps = optimize._form_maps(amps.shape[1], phi)
    h, grad, hess = optimize._purification_form(amps, *maps)
    assert np.all(np.abs(h - _qfi_stack(amps, LossParameter(phi))) <= 1e-9 * np.maximum(h, 1.0))
    assert np.all(np.abs(np.sum(amps * grad, axis=1) - 2.0 * h)
                  <= 1e-12 * np.maximum(h, 1.0))
    full = np.min(np.abs(amps), axis=1) > 1e-2
    step = 1e-4
    for j in range(amps.shape[1]):
        def along(t):
            return optimize._purification_form(amps + t * np.eye(amps.shape[1])[j], *maps)

        # Richardson-extrapolated central differences, error O(step^4)
        diff = [[(a - b) / (2.0 * t) for a, b in zip(along(t)[:2], along(-t)[:2])]
                for t in (step, step / 2)]
        numeric_h, numeric_g = ((4.0 * d1 - d0) / 3.0 for d0, d1 in zip(*diff))
        exact = grad[:, j]
        assert np.all(np.abs(numeric_h - exact) <= 1e-7 * np.maximum(np.abs(exact), 1.0))
        exact = hess[full, :, j]
        assert np.all(np.abs(numeric_g[full] - exact) <= 1e-7 * np.maximum(np.abs(exact), 1.0))


def test_a_start_ends_where_it_would_alone():
    # the search advances all starts in one stack, but each start's path
    # depends only on its own values: alone or among seven others, it ends
    # on the same coefficients, bit for bit
    nbar, loss = 0.6, LossParameter(0.5)
    rng = np.random.default_rng(7)
    u = rng.normal(size=(8, 4))
    together = optimize._newton_ascent(u, nbar, loss)[0]
    for i in (0, 5):
        alone = optimize._newton_ascent(u[i:i + 1], nbar, loss)[0]
        assert np.array_equal(alone[0], together[i])
    # the stacked map onto the slice is the row-by-row map
    rows = np.array([_to_slice(row, nbar) for row in u])
    assert np.array_equal(rows, _to_slice(u, nbar))


def _relative(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1),
       st.floats(0.01, math.pi / 2 - 0.01), st.complex_numbers(max_magnitude=25.0))
def test_log_factorial_sites_match_their_references(dim, seed, phi, alpha):
    # the channel on pure and on mixed states reads log(m!) from one table;
    # it is checked against Kraus operators whose factorials come from
    # math.lgamma
    rng = np.random.default_rng(seed)
    psi = FockVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    loss = LossParameter(phi)
    ops = reference_kraus(phi, dim)
    pure = evolve(psi, loss).matrix
    images = [k @ psi.amplitudes for k in ops]
    kraus_sum = sum(np.outer(v, v.conj()) for v in images)
    mixed = evolve(DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj())),
                   loss).matrix
    assert _relative(mixed, pure) <= 1e-12
    assert _relative(pure, kraus_sum) <= 1e-12
    assert _relative(mixed, kraus_sum) <= 1e-12
    # a random mixed input of full rank
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    kraus_sum = sum(k @ rho @ k.conj().T for k in ops)
    assert _relative(evolve(rho, loss).matrix, kraus_sum) <= 1e-12

    # the coherent state, complex and real, is the closed form on its kept
    # levels, renormalized there, each level to 2e-12 relative (the closed
    # form's own phase m arg(alpha) carries 2.4e-13 at m = 700); its cutoff D
    # is the smallest whose neglected population, summed here from the top,
    # is below TAIL_TOL, up to the roundoff of the state's running sum
    for a in (alpha, alpha.real):
        state = coherent_state(a).amplitudes
        closed = coherent_reference(a, MAX_LEVELS)
        kept = closed[:state.size] / np.linalg.norm(closed[:state.size])
        assert np.all(np.abs(state - kept) <= 2e-12 * np.abs(kept))
        tail = np.cumsum(np.abs(closed[::-1]) ** 2)[::-1]
        assert tail[state.size] < TAIL_TOL + 1e-13
        assert state.size == 1 or tail[state.size - 1] >= TAIL_TOL - 1e-13


@st.composite
def ragged_probes(draw):
    """Real or complex probes of different lengths, each with its own loss angle."""
    count = draw(st.integers(1, 6))
    probes, phis = [], []
    for _ in range(count):
        dim = draw(st.integers(1, 8))
        parts = hnp.arrays(float, dim, elements=st.floats(-1.0, 1.0, allow_nan=False))
        amps = draw(parts) + (1j * draw(parts) if draw(st.booleans()) else 0.0)
        norm = np.linalg.norm(amps)
        hypothesis.assume(norm > 1e-3)
        probes.append(amps / norm)
        phis.append(draw(st.floats(0.2, math.pi / 2 - 1e-3)))
    return probes, phis


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(ragged_probes(), st.integers(1, 12))
def test_zero_padding_leaves_the_qfi_unchanged(stack, pad):
    probes, phis = stack
    for psi, phi in zip(probes, phis):
        h = _qfi_stack(psi[None], phi)[0]
        padded = _qfi_stack(np.pad(psi, (0, pad))[None], phi)[0]
        assert abs(padded - h) <= 1e-12 * max(h, 1e-3)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(ragged_probes())
def test_a_stack_with_one_angle_per_probe_equals_the_single_calls(stack):
    # the probes, padded to one length, form one stack; each value comes back
    # in its own place, as its row alone gives it, and obeys the energy bound
    # H <= 4 nbar. A row that takes the stack's route alone (real or complex
    # arithmetic) gives the same bits; a real row in a complex stack agrees
    # to roundoff
    probes, phis = stack
    dim = max(psi.size for psi in probes)
    amps = np.array([np.pad(psi, (0, dim - psi.size)) for psi in probes])
    together = _qfi_stack(amps, phis)
    alone = np.array([_qfi_stack(row[None], phi)[0] for row, phi in zip(amps, phis)])
    assert together.shape == (len(probes),)
    same_route = amps.imag.any(axis=1) == amps.imag.any()
    assert np.array_equal(together[same_route], alone[same_route])
    assert np.all(np.abs(together - alone) <= 1e-12 * np.maximum(alone, 1e-3))
    nbar = np.abs(amps) ** 2 @ np.arange(dim)
    assert np.all((together >= 0.0) & (together <= 4.0 * nbar * (1.0 + 1e-12) + 1e-15))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.floats(0.2, math.pi / 2 - 1e-3))
def test_a_stack_at_one_shared_angle_equals_the_single_calls(batch, dim, seed, phi):
    # at one shared angle the stack's Kraus images have the layout each row's
    # have alone, so every row takes the same matrix products, bit for bit;
    # cutoffs from about 12 up are where a different layout moves the bits
    amps = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(batch, dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    together = _qfi_stack(amps, phi)
    alone = np.array([_qfi_stack(row[None], phi)[0] for row in amps])
    assert np.array_equal(together, alone)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(real_stacks())
def test_the_real_route_equals_the_complex_route(stack):
    # a complex array whose imaginary part is exactly zero (what FockVector
    # holds) takes the real route; i psi has the same rho, formed exactly in
    # complex arithmetic, so the two stacks differ only in the route taken
    amps, phi = stack
    seen = []
    frame = estimation._checked_frame

    def spy(stack_amps, angles):
        out = frame(stack_amps, angles)
        seen.append(out[1].dtype)
        return out

    try:
        estimation._checked_frame = spy
        real = _qfi_stack(amps.astype(complex), phi)
        complex_route = _qfi_stack(1j * amps, phi)
    finally:
        estimation._checked_frame = frame
    assert seen == [np.dtype(float), np.dtype(complex)]
    assert np.all(np.abs(real - complex_route) <= 1e-12 * np.maximum(real, 1e-3))


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1),
       st.floats(0.01, math.pi / 2 - 0.01))
def test_closed_form_kraus_images_match_the_kraus_operators(dim, seed, phi):
    # column n of the closed form is K_n psi; their Kraus sum is
    # sum_n K_n rho K_n+ for rho = psi psi+
    rng = np.random.default_rng(seed)
    psi = FockVector(rng.normal(size=dim) + 1j * rng.normal(size=dim)).amplitudes
    cols = _kraus_images(psi, phi)
    rho = np.outer(psi, psi.conj())
    kraus_sum = np.zeros((dim, dim), dtype=complex)
    for n, k in enumerate(reference_kraus(phi, dim)):
        assert np.max(np.abs(cols[:, n] - k @ psi)) <= 1e-12
        kraus_sum += k @ rho @ k.conj().T
    assert _relative(cols @ cols.conj().T, kraus_sum) <= 1e-12


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(probe_stacks(), st.booleans())
def test_the_phi_derivative_of_the_kraus_images_carries_the_energy(stack, real):
    # <m|K_n|psi> carries cos(phi)^m sin(phi)^n, so dC/dphi = cot(phi) C N -
    # tan(phi) N C; the binomial variance of n at each level k = m + n sums
    # its squared norm to ||dC/dphi||_F^2 = sum_k k |psi_k|^2 = nbar
    amps, phi = stack
    if real:
        norms = np.linalg.norm(amps.real, axis=1)
        hypothesis.assume(np.all(norms > 1e-3))
        amps = amps.real / norms[:, None]
    levels = np.arange(amps.shape[1])
    cols = _kraus_images(amps, phi)
    slope = cols * levels / math.tan(phi) - levels[:, None] * cols * math.tan(phi)
    nbar = np.abs(amps) ** 2 @ levels
    assert np.all(np.abs(np.sum(np.abs(slope) ** 2, axis=(1, 2)) - nbar)
                  <= 1e-12 * np.maximum(nbar, 1.0))
    step = 1e-6
    central = (_kraus_images(amps, phi + step) - _kraus_images(amps, phi - step)) / (2 * step)
    assert np.max(np.abs(central - slope)) <= 1e-6 * max(1.0, np.max(np.abs(slope)))


def test_no_stacked_core_call_exceeds_the_element_budget(monkeypatch):
    # every caller of the core: the Gaussian grid, polish and scan, one probe
    # at many angles (the sweep-phi shape), the qutrit grid and the
    # superposition search with its checks
    shapes = []
    frame = estimation._checked_frame

    def spy(amps, angles):
        shapes.append(np.shape(amps))
        return frame(amps, angles)

    monkeypatch.setattr(estimation, "_checked_frame", spy)
    optimize.optimize_gaussian(0.4, 0.7)
    rng = np.random.default_rng(11)
    for d in (3, 12, 40, 90):
        psi = FockVector(rng.normal(size=d)).amplitudes
        _qfi_stack(np.tile(psi, (30, 1)), np.linspace(0.2, 1.4, 30))
    optimize.optimize_qutrit(0.5, 0.6)
    optimize.optimize_superposition(3, 0.6, 0.5, starts=40)
    stacked = [(b, d) for b, d in shapes if b > 1]
    assert stacked and max(d for _, d in stacked) > 8
    assert all(b * d * d <= STACK_BUDGET for b, d in stacked)


@st.composite
def superpositions(draw):
    """A real or complex Superposition of up to 8 levels and a loss angle."""
    dim = draw(st.integers(1, 8))
    parts = hnp.arrays(float, dim, elements=st.floats(-1.0, 1.0, allow_nan=False))
    coeffs = draw(parts) + (1j * draw(parts) if draw(st.booleans()) else 0.0)
    hypothesis.assume(np.linalg.norm(coeffs) > 1e-3)
    return Superposition(coeffs), draw(st.floats(0.2, math.pi / 2 - 1e-3))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(superpositions())
def test_the_sld_measurement_attains_the_qfi(probe):
    # projective measurement onto the SLD eigenvectors has Fisher information
    # Tr[rho L^2] = H, and L solves drho = (rho L + L rho)/2 on the support
    # of the reference rho
    spec, phi = probe
    psi = build_probe(spec)
    h = qfi_of_state(psi, phi)
    operator = sld(psi, phi)
    fisher = classical_fisher(optimal_measurement(operator), spec, phi)
    assert abs(fisher - h) <= 1e-6 * max(h, 1e-3)
    rho, drho = reference_state(psi.amplitudes, phi)
    lam, vecs = np.linalg.eigh(rho)
    support = vecs[:, lam > RANK_EPS * np.trace(rho).real]
    proj = support @ support.conj().T
    sym = 0.5 * (rho @ operator.matrix + operator.matrix @ rho)
    assert np.linalg.norm(proj @ (drho - sym) @ proj) <= 1e-10 * max(np.linalg.norm(drho), 1e-3)


def test_the_sld_measurement_resolves_a_small_outcome():
    # one SLD outcome has p ~ 7e-15, above the resolution 8 eps on 8 levels,
    # and contributes about 1e-10: F stays finite and equal to H
    spec = parse_probe("superposition:c=0/0/0/0/0/0/0.0519/-0.882")
    psi = build_probe(spec)
    h = qfi_of_state(psi, 1.4728)
    fisher = classical_fisher(optimal_measurement(sld(psi, 1.4728)), spec, 1.4728)
    assert abs(fisher - h) <= 1e-6 * h


_unit = st.floats(0.0, 1.0)
_angle = st.floats(0.0, 2.0 * math.pi)
# one strategy per probe family, with parameters where each builds in well
# under 200 levels
FAMILY_SPECS = {
    "fock": st.builds(Fock, st.integers(0, 8)),
    "qubit": st.builds(Qubit, st.floats(0.0, math.pi / 2), _angle),
    "qutrit": st.builds(Qutrit, st.floats(0.01, 1.0), st.floats(0.0, math.pi / 2),
                        _angle, _angle),
    "superposition": st.builds(
        lambda re, im: Superposition(np.append(re + 1j * im, 1.0)),
        hnp.arrays(float, 4, elements=_unit), hnp.arrays(float, 4, elements=_unit)),
    "coherent": st.builds(lambda a, t: Coherent(a * np.exp(1j * t)), st.floats(0.0, 2.0),
                          _angle),
    "cat": st.builds(Cat, st.floats(0.1, 2.0), st.sampled_from([1, -1])),
    "gaussian": st.builds(lambda a, t, r, th: Gaussian(a * np.exp(1j * t), r, th),
                          st.floats(0.0, 1.5), _angle, st.floats(-1.0, 1.0), _angle),
    "subtracted": st.builds(PhotonSubtracted, st.floats(0.05, 1.5), st.floats(-1.0, 1.0)),
    "truncsub": st.builds(TruncatedSubtracted, st.floats(0.05, 1.5), st.floats(-1.0, 1.0),
                          st.integers(2, 6)),
}


def test_every_family_has_a_strategy():
    assert set(FAMILY_SPECS) == set(probes._FAMILIES)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.one_of(*FAMILY_SPECS.values()), _angle, st.floats(0.2, math.pi / 2 - 1e-3))
def test_every_family_is_phase_covariant(spec, theta, phi):
    # the loss channel commutes with e^{i theta N}, so rotating any probe
    # leaves its QFI alone
    amps = build_probe(spec).amplitudes
    h = qfi_of_state(amps, phi)
    rotated = qfi_of_state(amps * np.exp(1j * theta * np.arange(amps.size)), phi)
    assert abs(rotated - h) <= 1e-9 * max(h, 1e-3)


def test_extra_loss_cannot_add_information():
    # losses compose as cos(phi) = cos(phi_1) cos(phi_2), so the transmissivity
    # eta = cos(phi)^2 multiplies; data processing then bounds the Fisher
    # information of eta, F = H / (4 eta (1 - eta)), by
    # eta_2^2 F(psi; eta_1 eta_2) <= F(psi; eta_1)
    rng = np.random.default_rng(41)
    for _ in range(200):
        dim = int(rng.integers(2, 8))
        psi = FockVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        eta_1, eta_2 = np.cos(rng.uniform(0.05, 1.5, 2)) ** 2

        def info(eta):
            return qfi_of_state(psi, math.acos(math.sqrt(eta))) / (4.0 * eta * (1.0 - eta))

        assert eta_2 ** 2 * info(eta_1 * eta_2) <= info(eta_1) * (1.0 + 1e-9), (
            psi.amplitudes, eta_1, eta_2)

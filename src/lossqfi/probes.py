"""Probe-state factory: every input family the toolkit optimizes over,
plus the inverse coordinates used for the attainable-region analysis.

Each family has a small frozen spec type and one entry in ``_FAMILIES``,
keyed by the tag of its canonical text form (``fock:n=2``,
``qutrit:nbar=0.5,beta=0.3``, ``subtracted:eta=1.0,r=0.4``,
``cat:alpha=1.2,sign=+``). The entry holds everything else the family is:
the keys its text form takes, the parse from ``k=v`` text, the build of the
state, the label and, for the families ``sweep-energy`` takes, the energy
constructor.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .errors import DegenerateStateError, DomainError
from .fock import (FockVector, _cut, _subtracted_amplitudes, amplitudes_of, coherent_state,
                   displaced_squeezed_vacuum, fock_state)

__all__ = [
    "Fock", "Qubit", "Qutrit", "Superposition", "Coherent", "Cat",
    "Gaussian", "PhotonSubtracted", "TruncatedSubtracted", "ProbeSpec",
    "build_probe", "qutrit_coords", "parse_probe", "probe_label",
    "cat_mean_photon", "cat_alpha_for_energy",
]


@dataclass(frozen=True)
class Fock:
    n: int

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise DomainError("Fock index must be a non-negative integer")

    @classmethod
    def from_nbar(cls, nbar: float) -> "Fock":
        n = int(round(nbar))
        if abs(nbar - n) > 1e-9 or n < 1:
            raise DomainError(f"fock family needs integer energies, got {nbar}")
        return cls(n)


@dataclass(frozen=True)
class Qubit:
    """cos(theta)|0> + e^{i varphi} sin(theta)|1>, mean photon sin(theta)^2."""

    theta: float
    varphi: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi / 2):
            raise DomainError("qubit weight theta must lie in [0, pi/2]")

    @classmethod
    def from_nbar(cls, nbar: float, varphi: float = 0.0) -> "Qubit":
        if not (0.0 <= nbar <= 1.0):
            raise DomainError("qubit energy must lie in [0, 1]")
        return cls(math.asin(math.sqrt(nbar)), varphi)


@dataclass(frozen=True)
class Qutrit:
    """Three-level superposition at fixed energy nbar.

    cos(a)|0> + e^{i mu} sin(a) sin(beta)|1> + e^{i nu} sin(a) cos(beta)|2>
    with sin(a)^2 = 2 nbar / (cos(2 beta) + 3); phases default to the
    QFI-maximizing choice mu = nu = pi.
    """

    nbar: float
    beta: float
    mu: float = np.pi
    nu: float = np.pi

    def __post_init__(self):
        if not (0.0 < self.nbar <= 2.0):
            raise DomainError("qutrit energy must lie in (0, 2]")
        if not (0.0 <= self.beta <= np.pi / 2):
            raise DomainError("qutrit weight beta must lie in [0, pi/2]")
        if 2.0 * self.nbar / (math.cos(2.0 * self.beta) + 3.0) > 1.0 + 1e-12:
            raise DomainError(f"(nbar={self.nbar}, beta={self.beta}) leaves no real mixing angle")


@dataclass(frozen=True, init=False)
class Superposition:
    """Arbitrary finite superposition of the lowest Fock levels."""

    coefficients: tuple

    def __init__(self, coefficients):
        coeffs = tuple(complex(c) for c in coefficients)
        if len(coeffs) < 1 or not any(abs(c) > 0 for c in coeffs):
            raise DegenerateStateError("superposition needs at least one nonzero coefficient")
        norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
        object.__setattr__(self, "coefficients", tuple(c / norm for c in coeffs))


@dataclass(frozen=True)
class Coherent:
    alpha: complex = 0.0


@dataclass(frozen=True)
class Cat:
    """Normalized |alpha> + sign |-alpha> with sign = +1 or -1."""

    alpha: float
    sign: int = +1

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise DomainError("cat sign must be +1 or -1")
        if self.alpha == 0:
            raise DegenerateStateError("cat state is degenerate at alpha = 0")


@dataclass(frozen=True)
class Gaussian:
    """Displaced squeezed vacuum D(eta) S(r e^{i theta_rel}) |0>."""

    eta: complex = 0.0
    r: float = 0.0
    theta_rel: float = 0.0


@dataclass(frozen=True)
class PhotonSubtracted:
    """a D(eta) S(r) |0>, renormalized."""

    eta: float
    r: float


@dataclass(frozen=True)
class TruncatedSubtracted:
    """Photon-subtracted displaced squeezed state kept on its lowest levels."""

    eta: float
    r: float
    levels: int = 3

    def __post_init__(self):
        if self.levels < 1:
            raise DomainError("truncation must keep at least one level")


ProbeSpec = Union[Fock, Qubit, Qutrit, Superposition, Coherent, Cat,
                  Gaussian, PhotonSubtracted, TruncatedSubtracted]


def qutrit_coords(state) -> tuple[float, float]:
    """Energy and weight angle (nbar, beta) of a state living on levels 0..2.

    nbar = |c1|^2 + 2 |c2|^2 and beta = arctan(|c1| / |c2|); inverts the
    Qutrit parametrization up to phases.
    """
    amps = amplitudes_of(state)
    if amps.size > 3 and np.max(np.abs(amps[3:])) >= 1e-9:
        raise DomainError("state has support above level 2")
    amps = amps[:3] if amps.size >= 3 else np.pad(amps, (0, 3 - amps.size))
    amps = amps / np.linalg.norm(amps)
    c1, c2 = abs(amps[1]), abs(amps[2])
    if c1 + c2 < 1e-15:
        raise DegenerateStateError("beta is undefined for the vacuum")
    nbar = float(c1 ** 2 + 2.0 * c2 ** 2)
    beta = float(np.arctan2(c1, c2))
    return nbar, beta


def cat_mean_photon(alpha: float, sign: int) -> float:
    """Mean photon number of the normalized |alpha> + sign |-alpha>."""
    x = alpha * alpha
    if sign > 0:
        return x * math.tanh(x)
    return x / math.tanh(x) if x > 0 else 1.0


def cat_alpha_for_energy(nbar: float, sign: int) -> float:
    """Amplitude alpha > 0 such that the cat of given parity has energy nbar.

    Even cats reach any nbar > 0; odd cats only nbar > 1 (they tend to |1>
    as alpha -> 0), so a DomainError is raised for infeasible requests.
    The mean photon number rises monotonically with alpha, so the root is
    bisected to within 1e-14 on a doubling bracket.
    """
    if sign > 0:
        if not nbar > 0:
            raise DomainError("even cat needs nbar > 0")
    elif not nbar > 1.0:
        raise DomainError("odd cat energy is always above 1")
    lo, hi = 1e-6, 1.0
    while cat_mean_photon(hi, sign) < nbar:
        hi *= 2.0
        if hi > 64:
            raise DomainError("cat energy out of reach")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if cat_mean_photon(mid, sign) < nbar:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _qutrit_amplitudes(nbar, beta) -> np.ndarray:
    """Closed-form qutrit amplitudes at the optimal phases mu = nu = pi,
    where they are real; ``nbar`` and ``beta`` may be arrays, broadcast
    together, and the level index is then the last axis."""
    beta = np.asarray(beta, dtype=float)
    alpha = np.arcsin(np.sqrt(np.minimum(2.0 * nbar / (np.cos(2.0 * beta) + 3.0), 1.0)))
    return np.stack([
        np.cos(alpha),
        -np.sin(alpha) * np.sin(beta),
        -np.sin(alpha) * np.cos(beta),
    ], axis=-1)


def _cat_state(alpha: float, sign: int) -> FockVector:
    base = coherent_state(alpha).amplitudes
    return FockVector(base * (1.0 + sign * (-1.0) ** np.arange(base.size)))


def _subtracted_state(eta: float, r: float) -> FockVector:
    """a D(eta) S(r)|0>, normalized and cut on its own tail.

    The exact norm is sqrt(<a+ a>) = sqrt(|eta|^2 + sinh(r)^2), so the tail
    beyond a cutoff needs no levels above it.
    """
    norm = math.hypot(abs(eta), math.sinh(r))
    if norm == 0.0:
        raise DegenerateStateError("photon subtraction annihilates the vacuum")
    return _cut(_subtracted_amplitudes(eta, r) / norm)


# ---------------------------------------------------------------------------
# canonical text forms and the family table

def _parse_kv(family: str, body: str, keys) -> dict:
    """The ``k=v`` pairs of a comma list, rejecting keys outside ``keys``."""
    out = {}
    for item in body.split(",") if body else ():
        if "=" not in item:
            raise DomainError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    unknown = [k for k in out if k not in keys]
    if unknown:
        raise DomainError(f"{family} does not take {', '.join(unknown)}; it takes "
                          f"{', '.join(keys) if keys else 'no parameters'}")
    return out


def _fnum(text: str) -> float:
    """Parse a float, allowing the convenience forms pi, x*pi and pi/x."""
    t = text.strip()
    try:
        return float(t)
    except ValueError:
        pass
    neg = t.startswith("-")
    if neg:
        t = t[1:]
    head, slash, tail = t.partition("/")
    try:
        if head.endswith("*pi"):
            value = float(head[:-3]) * math.pi
        elif head == "pi":
            value = math.pi
        else:
            raise ValueError(t)
        if slash:
            value /= float(tail)
        return -value if neg else value
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse number {text!r}") from exc


def _parse_qubit(kv: dict) -> Qubit:
    varphi = _fnum(kv.get("varphi", "0"))
    if "theta" in kv and "nbar" in kv:
        raise DomainError("qubit takes theta or nbar, not both")
    if "theta" in kv:
        return Qubit(_fnum(kv["theta"]), varphi)
    return Qubit.from_nbar(_fnum(kv["nbar"]), varphi)


def _coherent_from_nbar(nbar: float) -> Coherent:
    if not nbar >= 0.0:
        raise DomainError(f"coherent energy must be non-negative, got {nbar}")
    return Coherent(math.sqrt(nbar))


_CAT_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _real_or_complex(value: complex) -> str:
    return f"{value.real:.12g}" if value.imag == 0 else f"{value:.12g}"


# One probe family: its spec type, the keys its text form takes, its parse
# from those k=v pairs, its build, its canonical label and, for the families
# sweep-energy takes, its constructor at a given nbar. _FAMILIES keys them by
# text tag.
_Family = namedtuple("_Family", "spec keys parse build label from_nbar", defaults=(None,))
_FAMILIES = {
    "fock": _Family(
        Fock, ("n",), parse=lambda kv: Fock(int(kv["n"])),
        build=lambda s: fock_state(s.n),
        label=lambda s: f"fock:n={s.n}", from_nbar=Fock.from_nbar),
    "qubit": _Family(
        Qubit, ("theta", "nbar", "varphi"), parse=_parse_qubit,
        build=lambda s: FockVector(np.array(
            [math.cos(s.theta), np.exp(1j * s.varphi) * math.sin(s.theta)])),
        label=lambda s: f"qubit:theta={s.theta:.12g},varphi={s.varphi:.12g}",
        from_nbar=Qubit.from_nbar),
    "qutrit": _Family(
        Qutrit, ("nbar", "beta", "mu", "nu"),
        parse=lambda kv: Qutrit(_fnum(kv["nbar"]), _fnum(kv["beta"]),
                                _fnum(kv.get("mu", "pi")), _fnum(kv.get("nu", "pi"))),
        # the amplitudes at mu = nu = pi, turned to the spec's phases
        build=lambda s: FockVector(_qutrit_amplitudes(s.nbar, s.beta)
                                   * [1.0, -np.exp(1j * s.mu), -np.exp(1j * s.nu)]),
        label=lambda s: (f"qutrit:nbar={s.nbar:.12g},beta={s.beta:.12g},"
                         f"mu={s.mu:.12g},nu={s.nu:.12g}")),
    "superposition": _Family(
        Superposition, ("c",),
        parse=lambda kv: Superposition([complex(c) for c in kv["c"].split("/")]),
        build=lambda s: FockVector(np.array(s.coefficients, dtype=complex)),
        label=lambda s: "superposition:c=" + "/".join(
            f"{c.real:.12g}{c.imag:+.12g}j" for c in s.coefficients)),
    "coherent": _Family(
        Coherent, ("alpha",), parse=lambda kv: Coherent(complex(kv["alpha"])),
        build=lambda s: coherent_state(s.alpha),
        label=lambda s: f"coherent:alpha={_real_or_complex(s.alpha)}",
        from_nbar=_coherent_from_nbar),
    "cat": _Family(
        Cat, ("alpha", "sign"),
        parse=lambda kv: Cat(_fnum(kv["alpha"]), _CAT_SIGNS[kv.get("sign", "+")]),
        build=lambda s: _cat_state(s.alpha, s.sign),
        label=lambda s: f"cat:alpha={s.alpha:.12g},sign={'+' if s.sign > 0 else '-'}"),
    "gaussian": _Family(
        Gaussian, ("eta", "r", "theta"),
        parse=lambda kv: Gaussian(complex(kv.get("eta", "0")), _fnum(kv.get("r", "0")),
                                  _fnum(kv.get("theta", "0"))),
        build=lambda s: displaced_squeezed_vacuum(s.eta, s.r, s.theta_rel),
        label=lambda s: (f"gaussian:eta={_real_or_complex(s.eta)},r={s.r:.12g},"
                         f"theta={s.theta_rel:.12g}")),
    "subtracted": _Family(
        PhotonSubtracted, ("eta", "r"),
        parse=lambda kv: PhotonSubtracted(_fnum(kv["eta"]), _fnum(kv["r"])),
        build=lambda s: _subtracted_state(s.eta, s.r),
        label=lambda s: f"subtracted:eta={s.eta:.12g},r={s.r:.12g}"),
    "truncsub": _Family(
        TruncatedSubtracted, ("eta", "r", "levels"),
        parse=lambda kv: TruncatedSubtracted(_fnum(kv["eta"]), _fnum(kv["r"]),
                                             int(kv.get("levels", "3"))),
        build=lambda s: FockVector(_subtracted_amplitudes(s.eta, s.r, s.levels)),
        label=lambda s: f"truncsub:eta={s.eta:.12g},r={s.r:.12g},levels={s.levels}"),
}
_FAMILY_OF = {family.spec: family for family in _FAMILIES.values()}


def _family(spec: ProbeSpec) -> _Family:
    if type(spec) not in _FAMILY_OF:
        raise DomainError(f"unknown probe spec {spec!r}")
    return _FAMILY_OF[type(spec)]


def build_probe(spec: ProbeSpec) -> FockVector:
    """Construct the normalized probe state for any spec family.

    A NaN or infinite parameter is rejected by name before any family's
    construction sees it.
    """
    family = _family(spec)
    for field in fields(spec):
        value = getattr(spec, field.name)
        if not all(map(cmath.isfinite, value if isinstance(value, tuple) else (value,))):
            raise DomainError(f"{probe_label(spec)}: parameter {field.name} must be finite")
    return family.build(spec)


def parse_probe(text: str) -> ProbeSpec:
    """Parse the canonical probe text form, e.g. ``qutrit:nbar=0.5,beta=0.3``."""
    family, _, body = text.partition(":")
    family = family.strip().lower()
    if family not in _FAMILIES:
        raise DomainError(f"unknown probe family {family!r}")
    kv = _parse_kv(family, body, _FAMILIES[family].keys)
    try:
        return _FAMILIES[family].parse(kv)
    except (KeyError, ValueError) as exc:
        raise DomainError(f"bad probe spec {text!r}: {exc}") from exc


def probe_label(spec: ProbeSpec) -> str:
    """Canonical text form of a spec (inverse of parse_probe up to formatting)."""
    return _family(spec).label(spec)

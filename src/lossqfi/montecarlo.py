"""Sampled photon-counting estimation experiments for Fock probes.

A Fock probe |n> through the loss channel yields a surviving-photon count
distributed as Binomial(n, cos(phi)^2) per run; the total count over N runs
is a sufficient statistic, so the maximum-likelihood estimate is the closed
form arccos(sqrt(S / (n N))). Repetitions use independent counter-based RNG
streams derived from (seed, repetition index), making reports reproducible
and scheduling-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy imports its random module on first use; loading it with this module
# keeps that import out of the first seeded search or simulation
import numpy.random  # noqa: F401

from .channel import PHI_MIN, _as_loss
from .errors import DomainError

__all__ = ["ExperimentReport", "simulate_fock_estimation"]

MIN_RUNS = 100
MIN_REPETITIONS = 10


@dataclass(frozen=True)
class ExperimentReport:
    """Summary of repeated maximum-likelihood estimation experiments."""

    n: int
    phi_true: float
    runs: int
    repetitions: int
    seed: int
    phi_hat_mean: float
    empirical_variance: float
    crlb: float
    normalized_variance: float
    boundary_clips: int


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))


def simulate_fock_estimation(n: int, phi, runs: int, repetitions: int,
                             seed: int = 0) -> ExperimentReport:
    """Monte Carlo check that photon counting saturates the variance bound.

    Each repetition draws ``runs`` binomial counts, forms the ML estimate
    from the total, and clips it to the loss-parameter domain (clips are
    counted and reported, the repetition is retained). The empirical variance
    across repetitions is compared against the bound 1/(4 n N) through the
    normalized variance, which tends to 1 for an efficient estimator.
    """
    if n < 1 or n != int(n):
        raise DomainError("probe photon number must be a positive integer")
    if runs < MIN_RUNS:
        raise DomainError(f"need at least {MIN_RUNS} runs per experiment")
    if repetitions < MIN_REPETITIONS:
        raise DomainError(f"need at least {MIN_REPETITIONS} repetitions")
    loss = _as_loss(phi)
    margin = 10.0 / math.sqrt(4.0 * n * runs)
    lo, hi = PHI_MIN, math.pi / 2 - PHI_MIN
    if not (lo + margin <= loss.phi <= hi - margin):
        raise DomainError(
            f"phi={loss.phi} too close to the domain edge for unbiased clipping "
            f"(margin {margin:.4g})")
    p_survive = math.cos(loss.phi) ** 2
    total_trials = n * runs
    estimates = np.empty(repetitions)
    clips = 0
    for rep in range(repetitions):
        rng = _rep_rng(seed, rep)
        survivors = int(rng.binomial(n, p_survive, size=runs).sum())
        if survivors <= 0 or survivors >= total_trials:
            clips += 1
            estimate = hi if survivors <= 0 else lo
        else:
            estimate = math.acos(math.sqrt(survivors / total_trials))
            if estimate < lo or estimate > hi:
                clips += 1
                estimate = min(max(estimate, lo), hi)
        estimates[rep] = estimate
    mean = float(estimates.mean())
    variance = float(estimates.var(ddof=1))
    crlb = 1.0 / (4.0 * n * runs)
    return ExperimentReport(
        n=n, phi_true=loss.phi, runs=runs, repetitions=repetitions, seed=seed,
        phi_hat_mean=mean, empirical_variance=variance, crlb=crlb,
        normalized_variance=variance / crlb, boundary_clips=clips)

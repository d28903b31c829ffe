"""Calculators for the quantitative convergence guarantees.

Pure arithmetic on user-supplied constants: none of the inputs (drift and
smoothness bounds, log-Sobolev constant, self-concordance constants c1/c2,
dual diameter) are estimated from data, since no estimation procedure comes
with the guarantees.  Experiments use these to annotate runs with their
theoretical envelopes.

All functions are stateless and reentrant.  A constant so large that a
term overflows a float raises ``ValueError`` naming the term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def _power(base: float, exponent: int, term: str) -> float:
    """base ** exponent, as a ``ValueError`` naming ``term`` where it overflows."""
    try:
        return base ** exponent
    except OverflowError:
        raise ValueError(f"the term {term} = ({base:.3e})^{exponent} overflows") from None


@dataclass(frozen=True)
class StabilityFactor:
    """Bound on the Hessian ratio along one step window.

    ``expectation`` holds under the small-step regime (NaN outside it),
    ``deterministic`` always; ``regime`` records which applied.
    """

    expectation: float
    deterministic: float
    regime: str


def hessian_stability_factor(c1: float, c2: float, diameter: float, t: float,
                             drift_bound: float, dim: int,
                             variant: str = "statement",
                             temperature: float | None = None) -> StabilityFactor:
    """Stability factor M of the step-window Hessian comparison.

    Deterministically ``M = exp(2 c1 diameter / sqrt(c2))``; within the
    small-step regime ``t <= min(1/(2 c1 M1), 1/(16 c1^2 d))`` the sharper
    in-expectation value

        (1 - exp(-1/(16 c1^2 t))) / (1 - c1 (t M1 + 2 sqrt(t d)))^2
        + exp(-1/(16 c1^2 t) + 2 c1 diameter / sqrt(c2))

    applies, which tends to 1 as t -> 0.  ``c1 = 0`` returns the convention
    M = 1.  The guarantee's statement uses sqrt(t d) inside the denominator
    while its derivation uses sqrt(temperature t d); the statement form is
    the default and ``variant="derivation"`` (requires ``temperature``)
    evaluates the other, so the discrepancy is surfaced rather than
    resolved.
    """
    if min(c1, c2, t, drift_bound) < 0 or dim < 1:
        raise ValueError("constants must be nonnegative and dim >= 1")
    if c2 <= 0:
        raise ValueError(f"c2 must be positive (got {c2})")
    if c1 == 0.0:
        return StabilityFactor(expectation=1.0, deterministic=1.0, regime="convention")
    if variant == "statement":
        spread = 2.0 * math.sqrt(t * dim)
    elif variant == "derivation":
        if temperature is None:
            raise ValueError("the derivation variant needs the temperature")
        spread = 2.0 * math.sqrt(temperature * t * dim)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    exponent = 2.0 * c1 * diameter / math.sqrt(c2)
    try:
        deterministic = math.exp(exponent)
    except OverflowError:
        raise ValueError(f"the exponent 2 c1 diameter / sqrt(c2) = {exponent:.3e} "
                         "overflows exp") from None
    threshold = min(1.0 / (2.0 * c1 * drift_bound) if drift_bound > 0 else math.inf,
                    1.0 / (16.0 * c1 * c1 * dim))
    if t > threshold:
        return StabilityFactor(expectation=math.nan, deterministic=deterministic,
                               regime="deterministic-only")
    root = 1.0 - c1 * (t * drift_bound + spread)
    if root <= 0.0:
        raise ValueError(
            f"denominator 1 - c1 (t M1 + spread) = {root:.3e} is not positive "
            "inside the claimed regime; t is outside validity")
    tail = -1.0 / (16.0 * c1 * c1 * t)
    expectation = (1.0 - math.exp(tail)) / root ** 2 + math.exp(tail + exponent)
    return StabilityFactor(expectation=expectation, deterministic=deterministic,
                           regime="expectation")


def step_bias(eta: float, drift_bound: float, smoothness: float,
              temperature: float, dim: int, stability: float) -> float:
    """Per-step bias floor 2 eta M2^4 M (eta M1^2 + 2 lambda d)."""
    if min(eta, drift_bound, smoothness, temperature, stability) < 0 or dim < 1:
        raise ValueError("inputs must be nonnegative and dim >= 1")
    return 2.0 * eta * _power(smoothness, 4, "M2^4") * stability * (
        eta * _power(drift_bound, 2, "M1^2") + 2.0 * temperature * dim)


def objective_gap_bound(initial_gap: float, lsi_constant: float, temperature: float,
                        eta: float, iterations: int, particles: int,
                        loss_smoothness: float, output_radius: float,
                        bias: float) -> float:
    """Objective gap after k iterations of the discretized mirror dynamics:

        exp(-alpha lambda eta k) gap0 + L R^2 / (2N) + bias / (2 alpha lambda).
    """
    if lsi_constant <= 0 or temperature <= 0 or eta <= 0:
        raise ValueError("lsi_constant, temperature and eta must be positive")
    if particles < 1 or iterations < 0:
        raise ValueError("need particles >= 1 and iterations >= 0")
    rate = lsi_constant * temperature
    return (math.exp(-rate * eta * iterations) * initial_gap
            + loss_smoothness * _power(output_radius, 2, "R^2") / (2.0 * particles)
            + bias / (2.0 * rate))


@dataclass(frozen=True)
class Envelopes:
    free_energy_gap: float | None    # continuous-time mean-field envelope
    kl_divergence: float | None      # continuous-time linear-case KL envelope
    particle_gap: float | None       # particle-count floor L R^2 / (2N)


def convergence_envelopes(*, lsi_constant: float, temperature: float,
                          time: float | None = None,
                          initial_gap: float | None = None,
                          initial_kl: float | None = None,
                          loss_smoothness: float | None = None,
                          output_radius: float | None = None,
                          particles: int | None = None) -> Envelopes:
    """The three closed-form envelopes, each computed when its inputs are given.

    Free-energy gap and KL both decay as exp(-2 alpha lambda t); the
    particle floor is L R^2 / (2N), independent of the log-Sobolev constant.
    """
    if lsi_constant <= 0 or temperature <= 0:
        raise ValueError("lsi_constant and temperature must be positive")
    decay = None if time is None else math.exp(-2.0 * lsi_constant * temperature * time)
    gap = None if (decay is None or initial_gap is None) else decay * initial_gap
    kl = None if (decay is None or initial_kl is None) else decay * initial_kl
    if None in (loss_smoothness, output_radius, particles):
        floor = None
    else:
        floor = loss_smoothness * _power(output_radius, 2, "R^2") / (2.0 * particles)
    return Envelopes(free_energy_gap=gap, kl_divergence=kl, particle_gap=floor)

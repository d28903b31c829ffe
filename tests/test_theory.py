"""Bound calculators: exact values, limits, monotonicity."""
import math
import re

import numpy as np
import pytest

from mirrormfld.theory import (
    convergence_envelopes,
    hessian_stability_factor,
    objective_gap_bound,
    step_bias,
)


# -- stability factor ---------------------------------------------------------

def test_convention_when_c1_zero():
    s = hessian_stability_factor(c1=0.0, c2=1.0, diameter=math.inf, t=0.3,
                                 drift_bound=1.0, dim=2)
    assert (s.expectation, s.deterministic, s.regime) == (1.0, 1.0, "convention")


def test_deterministic_value():
    s = hessian_stability_factor(c1=1.0, c2=4.0, diameter=1.0, t=1e-6,
                                 drift_bound=1.0, dim=1)
    assert s.deterministic == pytest.approx(math.e, rel=1e-12)


def test_small_step_limit_is_one():
    # the expectation factor tends to 1 as the window shrinks; its leading
    # correction is 4*c1*sqrt(t*d), so the 1e-4 target needs t <= ~6e-10
    # (at t = 1e-8 the exact value is 1 + 4.0e-4, frozen below)
    s = hessian_stability_factor(c1=1.0, c2=1.0, diameter=1.0, t=1e-12,
                                 drift_bound=1.0, dim=1)
    assert s.regime == "expectation"
    assert s.expectation == pytest.approx(1.0, abs=1e-4)


def test_frozen_value_at_em8():
    s = hessian_stability_factor(c1=1.0, c2=1.0, diameter=1.0, t=1e-8,
                                 drift_bound=1.0, dim=1)
    assert s.expectation == pytest.approx(1.0004001400440132, rel=1e-12)


def test_regime_switch():
    s = hessian_stability_factor(c1=2.0, c2=1.0, diameter=1.0, t=10.0,
                                 drift_bound=1.0, dim=3)
    assert s.regime == "deterministic-only"
    assert math.isnan(s.expectation)


def test_invalid_denominator_raises():
    # exactly at the regime edge both thresholds bind and the root hits zero
    with pytest.raises(ValueError):
        hessian_stability_factor(c1=1.0, c2=1.0, diameter=1.0, t=1 / 16,
                                 drift_bound=8.0, dim=1)


def test_nonpositive_c2_raises():
    # c2 divides the deterministic exponent; c1 = 0 does not excuse it
    for c1 in (0.0, 1.0):
        with pytest.raises(ValueError, match="c2 must be positive"):
            hessian_stability_factor(c1=c1, c2=0.0, diameter=1.0, t=1e-4,
                                     drift_bound=1.0, dim=1)


def test_overflowing_exponent_raises():
    with pytest.raises(ValueError, match=r"2 c1 diameter / sqrt\(c2\) = 2\.000e\+06 overflows"):
        hessian_stability_factor(c1=1000.0, c2=1e-6, diameter=1.0, t=1e-4,
                                 drift_bound=1.0, dim=1)


def test_derivation_variant_needs_temperature():
    with pytest.raises(ValueError):
        hessian_stability_factor(c1=1.0, c2=1.0, diameter=1.0, t=1e-4,
                                 drift_bound=1.0, dim=1, variant="derivation")
    s = hessian_stability_factor(c1=1.0, c2=1.0, diameter=1.0, t=1e-4,
                                 drift_bound=1.0, dim=1, variant="derivation",
                                 temperature=0.25)
    t = hessian_stability_factor(c1=1.0, c2=1.0, diameter=1.0, t=1e-4,
                                 drift_bound=1.0, dim=1)
    # sqrt(lambda t d) < sqrt(t d) for lambda < 1: smaller correction
    assert s.expectation < t.expectation


# -- step bias ------------------------------------------------------------------

def test_bias_zero_step():
    assert step_bias(0.0, 1.0, 1.0, 1.0, 1, 1.0) == 0.0


def test_bias_hand_value():
    assert step_bias(1.0, 0.0, 1.0, 1.0, 1, 1.0) == pytest.approx(4.0)


def test_bias_monotone_in_eta():
    etas = np.linspace(1e-4, 1.0, 64)
    vals = [step_bias(e, 1.3, 0.8, 0.1, 3, 2.0) for e in etas]
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("call, term", [
    (lambda: step_bias(1e-3, 1.0, 1e100, 0.1, 2, 1.0), "M2^4"),
    (lambda: step_bias(1e-3, 1e200, 1.0, 0.1, 2, 1.0), "M1^2"),
    (lambda: objective_gap_bound(1.0, 1.0, 0.1, 1e-3, 10, 100, 1.0, 1e200, 0.0), "R^2"),
    (lambda: convergence_envelopes(lsi_constant=1.0, temperature=0.1, loss_smoothness=1.0,
                                   output_radius=1e200, particles=100), "R^2"),
])
def test_overflowing_power_names_its_term(call, term):
    with pytest.raises(ValueError, match=rf"the term {re.escape(term)} = .* overflows"):
        call()


def test_bias_leading_coefficient():
    eta = 1e-8
    lead = step_bias(eta, 1.0, 1.0, 0.1, 2, 1.5) / eta
    assert lead == pytest.approx(4 * 0.1 * 2 * 1.5, rel=1e-6)


# -- objective gap bound ----------------------------------------------------------

def test_gap_bound_large_k_limit():
    floor = objective_gap_bound(5.0, 1.0, 0.1, 3e-3, 10**9, 50_000, 1.0, 1.0, 0.0)
    assert floor == pytest.approx(1.0 / (2 * 50_000), rel=1e-12)


def test_gap_bound_k_zero_infinite_particles():
    val = objective_gap_bound(2.5, 1.0, 0.1, 3e-3, 0, 10**12, 1.0, 1.0, 0.0)
    assert val == pytest.approx(2.5, abs=1e-9)


def test_gap_bound_three_summands():
    gap0, alpha, lam, eta, k, n = 1.0, 1.0, 0.1, 3e-3, 1000, 50_000
    bias = step_bias(eta, 1.0, 1.0, lam, 2, 1.0)
    total = objective_gap_bound(gap0, alpha, lam, eta, k, n, 1.0, 1.0, bias)
    expect = (math.exp(-alpha * lam * eta * k) * gap0
              + 1.0 / (2 * n) + bias / (2 * alpha * lam))
    assert total == pytest.approx(expect, rel=1e-12)


def test_gap_bound_monotone_in_iterations_and_particles():
    bias = 1e-5
    ks = [0, 10, 100, 1000, 10_000]
    vals = [objective_gap_bound(1.0, 1.0, 0.1, 3e-3, k, 1000, 1.0, 1.0, bias)
            for k in ks]
    assert np.all(np.diff(vals) < 0)
    ns = [100, 1000, 10_000, 100_000]
    vals = [objective_gap_bound(1.0, 1.0, 0.1, 3e-3, 50, n, 1.0, 1.0, bias)
            for n in ns]
    assert np.all(np.diff(vals) < 0)
    biases = [0.0, 1e-6, 1e-4, 1e-2]
    vals = [objective_gap_bound(1.0, 1.0, 0.1, 3e-3, 50, 1000, 1.0, 1.0, b)
            for b in biases]
    assert np.all(np.diff(vals) > 0)


# -- envelopes ----------------------------------------------------------------------

def test_envelopes_at_time_zero():
    env = convergence_envelopes(lsi_constant=1.0, temperature=0.1, time=0.0,
                                initial_gap=5.0, initial_kl=2.0,
                                loss_smoothness=1.0, output_radius=1.0,
                                particles=50_000)
    assert env.free_energy_gap == 5.0
    assert env.kl_divergence == 2.0
    assert env.particle_gap == pytest.approx(1e-5)


def test_envelope_halving_time():
    half_life = math.log(2) / (2 * 1.0 * 0.1)
    env = convergence_envelopes(lsi_constant=1.0, temperature=0.1, time=half_life,
                                initial_gap=4.0)
    assert env.free_energy_gap == pytest.approx(2.0, rel=1e-12)
    assert env.kl_divergence is None and env.particle_gap is None


def test_particle_gap_radius_bound_for_tanh():
    # bounded activations give output radius at most one
    env = convergence_envelopes(lsi_constant=1.0, temperature=0.1,
                                loss_smoothness=1.0, output_radius=1.0,
                                particles=50_000)
    assert env.particle_gap == pytest.approx(1e-5)


def test_positivity_validation():
    with pytest.raises(ValueError):
        convergence_envelopes(lsi_constant=0.0, temperature=0.1)
    with pytest.raises(ValueError):
        objective_gap_bound(1.0, 1.0, 0.0, 1e-3, 1, 1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        step_bias(-1.0, 1.0, 1.0, 1.0, 1, 1.0)

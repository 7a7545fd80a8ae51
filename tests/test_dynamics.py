import collections
import dataclasses
import functools
import itertools
import math
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from attkit import dynamics, so3
from attkit.dynamics import (
    BodyState,
    InertiaSpec,
    IntegratorConfig,
    PotentialModel,
    euler_rhs,
    j_apply,
    j_solve,
    kinetic_energy,
    linear_potential,
    propagate,
    spatial_momentum,
    validate_potential,
    zero_potential,
)
from attkit.errors import (
    NotSymmetricPD,
    PotentialGradientNotSkewCompatible,
    ShapeMismatch,
    StepTooLarge,
)


def _random_spd(rng, lo=0.2, hi=3.0):
    Q = so3.random_rotation(rng)
    return Q @ np.diag(rng.uniform(lo, hi, 3)) @ Q.T


# ---------------------------------------------------------------------------
# momentum operator

def test_j_apply_isotropic_doubles():
    Om = so3.hat([1.0, -2.0, 0.5])
    assert np.abs(j_apply(np.eye(3), Om) - 2.0 * Om).max() == 0.0


def test_j_apply_zero():
    assert np.abs(j_apply(np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)))).max() == 0.0


def test_j_apply_vee_reduction_identity():
    rng = np.random.default_rng(30)
    for _ in range(300):
        lam = _random_spd(rng)
        w = rng.normal(size=3)
        direct = j_apply(lam, so3.hat(w))
        reduced = so3.hat((np.trace(lam) * np.eye(3) - lam) @ w)
        assert np.abs(direct - reduced).max() <= 1e-13


def test_j_apply_accepts_inertia_spec():
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    Om = so3.hat([0.1, 0.2, 0.3])
    assert np.abs(j_apply(spec, Om) - j_apply(spec.second_moment, Om)).max() == 0.0


def test_j_solve_examples():
    sol = j_solve(np.eye(3), 2.0 * so3.hat([1.0, 2.0, 3.0]))
    assert np.abs(sol - so3.hat([1.0, 2.0, 3.0])).max() <= 1e-15
    assert np.abs(j_solve(np.diag([1.0, 2.0, 3.0]), np.zeros((3, 3)))).max() == 0.0


def test_j_solve_inverts_j_apply():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        K = _random_spd(rng)
        Om = so3.hat(rng.normal(size=3))
        back = j_solve(K, j_apply(K, Om))
        assert np.abs(back - Om).max() <= 1e-11


def test_j_solve_against_vectorized_kronecker_oracle():
    rng = np.random.default_rng(32)
    I9 = np.eye(3)
    for _ in range(200):
        K = _random_spd(rng)
        M = j_apply(K, so3.hat(rng.normal(size=3)))
        # K X + X K = M as a 9x9 linear system on row-major vec(X).
        A = np.kron(K, I9) + np.kron(I9, K)
        X = np.linalg.solve(A, M.ravel()).reshape(3, 3)
        assert np.abs(j_solve(K, M) - X).max() <= 1e-11


# ---------------------------------------------------------------------------
# inertia

def test_inertia_spec_caches_classical_matrix():
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    assert np.abs(spec.classical - np.diag([5.0, 4.0, 3.0])).max() == 0.0
    so3.check_spd(spec.classical)


def test_inertia_spec_from_classical_roundtrip():
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    back = InertiaSpec.from_classical(spec.classical)
    assert np.abs(back.second_moment - spec.second_moment).max() <= 1e-14


def test_inertia_spec_rejects_non_spd():
    with pytest.raises(NotSymmetricPD):
        InertiaSpec(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(NotSymmetricPD):
        # Flat body: classical inertia at the triangle-inequality boundary.
        InertiaSpec.from_classical(np.diag([1.0, 1.0, 2.0]))


def test_inertia_spec_rejects_moments_whose_inverse_overflows():
    # Subnormal moments are positive, but 1/k overflows: the Euler
    # coefficients are formed without numpy's overflow warning, and the
    # moments are named.
    message = re.escape("principal moments [5e-310, 4e-310, 3e-310] of the classical inertia "
                        "are out of range: 1/k is not finite")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetricPD, match=f"^{message}$"):
            InertiaSpec(1e-310 * np.diag([1.0, 2.0, 3.0]))
        InertiaSpec(1e-300 * np.diag([1.0, 2.0, 3.0]))  # 1/k is about 3e299


@pytest.mark.parametrize("S", [0.6e308 * np.eye(3), 0.6e308 * np.array(
    [[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])], ids=["diagonal", "off-diagonal"])
def test_inertia_spec_names_second_moments_whose_trace_overflows(S):
    # S is SPD, but trace(S) I - S is not finite: the moments are named before
    # K is formed, with no numpy warning and no LinAlgError from eigh.
    message = re.escape("second moments [6e+307, 6e+307, 6e+307] are out of range: "
                        "trace(S) is not finite")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetricPD, match=f"^{message}$"):
            InertiaSpec(S)
        assert InertiaSpec(0.5e308 * np.eye(3)).moments.tolist() == [1e308] * 3


def test_kinetic_energy_that_overflows_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energy = kinetic_energy(InertiaSpec(np.diag([1.0, 2.0, 3.0])), so3.hat([1e155, 0, 0]))
    assert energy == math.inf


# ---------------------------------------------------------------------------
# dynamics right-hand side

def test_euler_rhs_isotropic_free_body_is_pure_spin():
    state = BodyState(0.0, np.eye(3), so3.hat([0.4, -0.3, 0.9]))
    C_dot, Om_dot = euler_rhs(state, InertiaSpec(2.5 * np.eye(3)), zero_potential())
    assert np.abs(C_dot - state.C @ state.Omega).max() == 0.0
    assert np.abs(Om_dot).max() <= 1e-15


def test_euler_rhs_matches_classical_euler_equations():
    rng = np.random.default_rng(33)
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    K = spec.classical
    pot = zero_potential()
    for _ in range(1000):
        w = rng.normal(size=3)
        state = BodyState(0.0, so3.random_rotation(rng), so3.hat(w))
        _, Om_dot = euler_rhs(state, spec, pot)
        oracle = np.linalg.solve(K, np.cross(K @ w, w))
        assert np.abs(so3.vee(Om_dot) - oracle).max() <= 1e-12


def test_euler_rhs_linear_potential_moment():
    rng = np.random.default_rng(34)
    A = rng.normal(size=(3, 3))
    spec = InertiaSpec(_random_spd(rng))
    state = BodyState(0.0, so3.random_rotation(rng), so3.hat(rng.normal(size=3)))
    _, with_pot = euler_rhs(state, spec, linear_potential(A))
    _, free = euler_rhs(state, spec, zero_potential())
    moment = A.T @ state.C - state.C.T @ A
    assert np.abs((with_pot - free) - j_solve(spec.second_moment, moment)).max() <= 1e-13


def test_euler_rhs_rejects_nan_gradient():
    from attkit.dynamics import PotentialModel

    bad = PotentialModel(value=lambda C: 0.0, gradient=lambda C: np.full((3, 3), np.nan))
    state = BodyState(0.0, np.eye(3), so3.hat([0.1, 0.0, 0.0]))
    with pytest.raises(PotentialGradientNotSkewCompatible):
        euler_rhs(state, InertiaSpec(np.eye(3)), bad)


@pytest.mark.parametrize("shape", [(3,), (3, 1), (9,), (2, 3)])
def test_wrong_shape_gradient_raises_shape_mismatch(shape):
    from attkit.dynamics import PotentialModel

    bad = PotentialModel(value=lambda C: 0.0, gradient=lambda C: np.ones(shape))
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    state = BodyState(0.0, np.eye(3), so3.hat([0.1, -0.2, 0.3]))
    named = re.escape(f"got shape {shape}")
    with pytest.raises(ShapeMismatch, match=named):
        euler_rhs(state, spec, bad)
    with pytest.raises(ShapeMismatch, match=named):
        propagate(state, spec, bad, 0.01)
    # The stacked step: four bodies at once, the gradient taken at each
    # body's attitude.
    w = np.full(4, 0.1)
    with pytest.raises(ShapeMismatch, match=named):
        dynamics._advance(spec, bad, np.stack([np.eye(3)] * 4), (w, w, w), 0.01, 1e-3)


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "undeclared"])
def test_overflowing_potential_moment_names_the_rate(declared):
    # The stage moments turn to NaN, as numpy's sin and cos of inf give, and
    # so does the rate, which is checked before the propagated attitude.
    from attkit.dynamics import PotentialModel

    A = np.full((3, 3), 1e300)
    pot = linear_potential(A) if declared else PotentialModel(lambda C: 0.0, lambda C: A)
    state = BodyState(0.0, np.eye(3), so3.hat([0.8, -0.5, 1.0]))
    with np.errstate(all="ignore"), pytest.raises(
        PotentialGradientNotSkewCompatible, match=r"is not finite after a time span of 0\.01 s"
    ):
        propagate(state, InertiaSpec(np.diag([1.0, 2.0, 3.0])), pot, 0.01)


def test_declared_coeff_must_be_the_gradient():
    from attkit.dynamics import PotentialModel

    A = np.arange(9.0).reshape(3, 3) / 7.0
    declared = PotentialModel(value=lambda C: 0.0, gradient=lambda C: A, coeff=A.tolist())
    assert np.array_equal(declared.coeff, A) and not declared.coeff.flags.writeable
    for gradient, coeff in [
        (lambda C: A, np.zeros((3, 3))),  # a free body declared for a non-zero moment
        (lambda C: A @ C, A),  # equal at the identity only
        (lambda C: A, A + 1e-15),
        (lambda C: A, A.ravel()),
    ]:
        with pytest.raises(ValueError, match="declared coeff"):
            PotentialModel(value=lambda C: 0.0, gradient=gradient, coeff=coeff)
    with pytest.raises(ShapeMismatch):
        PotentialModel(value=lambda C: 0.0, gradient=lambda C: A.ravel(), coeff=A)


# ---------------------------------------------------------------------------
# propagation

def test_propagate_isotropic_spin_analytic():
    state = BodyState(0.0, so3.random_rotation(np.random.default_rng(35)), so3.hat([0.0, 0.0, 1.0]))
    out = propagate(state, InertiaSpec(np.eye(3)), zero_potential(), np.pi / 2)
    expected = state.C @ so3.exp_so3(so3.hat([0.0, 0.0, np.pi / 2]))
    assert np.abs(out.C - expected).max() <= 1e-9
    assert np.abs(out.Omega - state.Omega).max() <= 1e-12


def test_propagate_conserves_energy_and_momentum():
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    state = BodyState(0.0, so3.exp_so3(so3.hat([0.3, -0.2, 0.5])), so3.hat([1.2, -2.1, 1.7]))
    E0 = kinetic_energy(spec, state.Omega)
    P0 = spatial_momentum(state, spec)
    out = propagate(state, spec, zero_potential(), 2.0, IntegratorConfig(step=1e-3))
    assert abs(kinetic_energy(spec, out.Omega) - E0) / E0 <= 1e-9
    P1 = spatial_momentum(out, spec)
    assert np.abs(P1 - P0).max() / np.abs(P0).max() <= 1e-9
    so3.check_rotation(out.C, tol=1e-12)


def test_propagate_time_reversal():
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    state = BodyState(0.0, np.eye(3), so3.hat([0.7, -1.1, 0.9]))
    fwd = propagate(state, spec, zero_potential(), 1.5)
    back_state = BodyState(0.0, fwd.C, -fwd.Omega)
    back = propagate(back_state, spec, zero_potential(), 1.5)
    assert np.abs(back.C - state.C).max() <= 1e-7


def test_propagate_partial_final_step():
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    state = BodyState(0.0, np.eye(3), so3.hat([0.5, 0.3, -0.4]))
    t_end = 0.1234567
    coarse = propagate(state, spec, zero_potential(), t_end, IntegratorConfig(step=1e-2))
    fine = propagate(state, spec, zero_potential(), t_end, IntegratorConfig(step=1e-4))
    assert coarse.t == t_end
    assert np.abs(coarse.C - fine.C).max() <= 1e-9


def test_propagate_conserves_total_energy_with_potential():
    rng = np.random.default_rng(36)
    A = 0.5 * rng.normal(size=(3, 3))
    pot = linear_potential(A)
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    state = BodyState(0.0, so3.random_rotation(rng), so3.hat([0.9, -0.4, 0.6]))
    total0 = kinetic_energy(spec, state.Omega) + pot.value(state.C)
    out = propagate(state, spec, pot, 2.0, IntegratorConfig(step=1e-3))
    total1 = kinetic_energy(spec, out.Omega) + pot.value(out.C)
    assert abs(total1 - total0) <= 1e-8 * max(1.0, abs(total0))
    so3.check_rotation(out.C, tol=1e-12)


def test_propagate_potential_step_converges_to_fine_reference():
    rng = np.random.default_rng(37)
    A = 0.5 * rng.normal(size=(3, 3))
    pot = linear_potential(A)
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    state = BodyState(0.0, so3.random_rotation(rng), so3.hat([0.9, -0.4, 0.6]))
    ref = propagate(state, spec, pot, 1.0, IntegratorConfig(step=1e-4))
    coarse = propagate(state, spec, pot, 1.0, IntegratorConfig(step=2e-3))
    assert np.abs(coarse.C - ref.C).max() <= 1e-9
    assert np.abs(so3.vee(coarse.Omega - ref.Omega)).max() <= 1e-9


@pytest.mark.parametrize("body", ["free", "linear potential"])
def test_propagate_attitude_error_is_4th_order(body):
    # Each halving of h cuts a 4th-order scheme's error by 16. A wrong sign on
    # the first dexpinv commutator leaves it 2nd order (a factor of 4), and
    # the energy drift cannot see that slip: dexpinv never touches the rates.
    rng = np.random.default_rng(38)
    A = 0.5 * rng.normal(size=(3, 3))
    pot = zero_potential() if body == "free" else linear_potential(A)
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    state = BodyState(0.0, so3.random_rotation(rng), so3.hat([0.9, -0.4, 0.6]))
    ref = propagate(state, spec, pot, 1.0, IntegratorConfig(step=1e-4)).C
    errors = [
        so3.principal_angle(propagate(state, spec, pot, 1.0, IntegratorConfig(step=h)).C, ref)
        for h in (2e-2, 1e-2, 5e-3)
    ]
    assert errors[0] >= 12.0 * errors[1] and errors[1] >= 12.0 * errors[2]


def test_free_body_step_makes_one_python_call():
    # One step is written out in one loop: its only Python call is the
    # attitude update so3._rotate, which forms its exponential inline.
    # A call per stage would show as 5 or more per step.
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    start = BodyState(0.0, np.eye(3), so3.hat([0.8, -0.5, 1.0]))
    package = dynamics.__file__.rsplit("dynamics.py", 1)[0]
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        propagate(start, spec, zero_potential(), 1.0, IntegratorConfig(step=1e-3))
    finally:
        sys.setprofile(None)
    assert len(calls) <= 1000 + 30, collections.Counter(calls).most_common(5)


def test_propagate_rate_is_classical_rk4_on_eulers_equations():
    # For a free body the RKMK4 rate update is classical RK4 on
    # K w' = K w x w. _advance writes out its own right-hand sides, so the
    # euler_rhs tests above do not reach them.
    rng = np.random.default_rng(39)
    h = 1e-3
    for _ in range(5):
        spec = InertiaSpec(_random_spd(rng))
        K = spec.classical
        w0 = rng.normal(size=3)

        def f(w):
            return np.linalg.solve(K, np.cross(K @ w, w))

        w = w0
        for _ in range(1000):
            k1 = f(w)
            k2 = f(w + 0.5 * h * k1)
            k3 = f(w + 0.5 * h * k2)
            k4 = f(w + h * k3)
            w = w + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        start = BodyState(0.0, so3.random_rotation(rng), so3.hat(w0))
        end = propagate(start, spec, zero_potential(), 1.0, IntegratorConfig(step=h))
        assert np.abs(so3.vee(end.Omega) - w).max() <= 1e-12


def test_propagate_step_guard():
    state = BodyState(0.0, np.eye(3), so3.hat([10.0, 0.0, 0.0]))
    with pytest.raises(StepTooLarge):
        propagate(state, InertiaSpec(np.eye(3)), zero_potential(), 1.0, IntegratorConfig(step=0.5))


def test_propagate_rejects_backwards_time_and_noop():
    state = BodyState(1.0, np.eye(3), so3.hat([0.1, 0.0, 0.0]))
    spec = InertiaSpec(np.eye(3))
    with pytest.raises(ValueError):
        propagate(state, spec, zero_potential(), 0.5)
    assert propagate(state, spec, zero_potential(), 1.0) is state


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)


@pytest.mark.parametrize("t_end", [np.inf, np.nan], ids=["inf", "nan"])
def test_propagate_rejects_non_finite_t_end(t_end):
    state = BodyState(0.0, np.eye(3), so3.hat([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite time span"):
        propagate(state, InertiaSpec(np.eye(3)), zero_potential(), t_end)


def test_integrator_config_rejects_infinite_step():
    # An infinite step would cover any span in one step that no guard sees.
    with pytest.raises(ValueError, match="finite"):
        IntegratorConfig(step=np.inf)


def test_tiny_step_fails_before_its_first_step():
    # 1e-300 over 0.1 s asks for 1e299 steps, which would never end; the cap
    # on span / h is checked before any step, or any gradient call, is made.
    state = BodyState(0.0, np.eye(3), so3.hat([0.1, 0.2, 0.3]))
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    never = PotentialModel(lambda C: 0.0, lambda C: pytest.fail("a step was taken"))
    message = (r"^integrator step 1e-300 s over a time span of 0\.1 s takes 1e\+299 steps, "
               r"more than the 10,000,000 one call may take$")
    start = time.perf_counter()
    for pot in (zero_potential(), linear_potential(np.ones((3, 3))), never):
        with pytest.raises(ValueError, match=message):
            propagate(state, spec, pot, 0.1, IntegratorConfig(1e-300))
    w = np.full(4, 0.1)
    with pytest.raises(ValueError, match=message):
        dynamics._advance(spec, never, np.stack([np.eye(3)] * 4), (w, w, w), 0.1, 1e-300)
    assert time.perf_counter() - start < 1.0


def test_step_cap_admits_span_over_h_up_to_it(monkeypatch):
    # 0.5 s at h = 2^-10 is exactly 512 steps.
    state = BodyState(0.0, np.eye(3), so3.hat([0.1, 0.2, 0.3]))
    spec, cfg = InertiaSpec(np.diag([1.0, 2.0, 3.0])), IntegratorConfig(2.0**-10)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 512)
    propagate(state, spec, zero_potential(), 0.5, cfg)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 511)
    with pytest.raises(ValueError, match="takes 512 steps, more than the 511 one call may take$"):
        propagate(state, spec, zero_potential(), 0.5, cfg)


def test_free_body_propagation_memory_is_bounded():
    # The attitude is updated on its nine components after every step, so
    # no step's exponential outlives it. Keeping all 5,000 of one body's
    # would take about 2.5 MB, and 256 steps of 50 trials about 4.9 MB.
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    start = BodyState(0.0, np.eye(3), so3.hat([0.8, -0.5, 1.0]))
    rates = tuple(np.random.default_rng(0).normal(size=(3, 50)))
    tracemalloc.start()
    try:
        end = propagate(start, spec, zero_potential(), 5.0, IntegratorConfig(step=1e-3))
        _, one = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        C, _ = dynamics._advance(
            spec, zero_potential(), np.broadcast_to(np.eye(3), (50, 3, 3)), rates, 0.3, 1e-3
        )
        _, stacked = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end.t == 5.0 and C.shape == (50, 3, 3)
    assert one < 1e6 and stacked < 1e6


# ---------------------------------------------------------------------------
# the grouped step loop of B bodies

_P = np.array([[0.6, -0.1, 0.3], [-0.1, 0.8, 0.0], [0.3, 0.0, -1.0]])
_D = np.diag([1.0, 2.0, 3.0])


def _stack(rng, B):
    # B random attitudes and B rates, the rates as three (B,) arrays
    C = np.array([so3.random_rotation(rng) for _ in range(B)])
    return C, tuple(rng.normal(size=(3, B)))


def _one(w, k):
    return [float(x[k]) for x in w]


@pytest.mark.parametrize("potential", [zero_potential(), linear_potential(_P)],
                         ids=["free", "linear"])
def test_grouped_step_guard_names_the_fastest_trial(potential):
    # One trial of 100 over the pi/4 guard stops the stack, with the message
    # that trial's own run gives: the step and its rate.
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    C, w = _stack(np.random.default_rng(41), 100)
    w[0][63], w[1][63], w[2][63] = 60.0, -45.0, 20.0
    with pytest.raises(StepTooLarge) as one:
        dynamics._advance(spec, potential, C[63], _one(w, 63), 0.2, 0.02)
    rate = math.sqrt(60.0**2 + 45.0**2 + 20.0**2)
    assert str(one.value) == f"step 0.02 at rate {rate:.3f} rad/s exceeds the pi/4 guard"
    with pytest.raises(StepTooLarge) as stacked:
        dynamics._advance(spec, potential, C, w, 0.2, 0.02)
    assert str(stacked.value) == str(one.value)


_UNDECLARED = PotentialModel(value=lambda C: 0.0, gradient=lambda C: _P @ C @ _D)


@pytest.mark.parametrize("potential", [zero_potential(), linear_potential(_P), _UNDECLARED],
                         ids=["free", "linear", "undeclared"])
def test_grouped_step_nan_rate_leaves_every_other_trial_alone(potential):
    # A NaN rate passes the guard, as the fastest rate is then NaN, and
    # stays in its own lane: the other 99 trials equal their own runs bit
    # for bit.
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    C, w = _stack(np.random.default_rng(42), 100)
    w[1][17] = np.nan
    C_all, w_all = dynamics._advance(spec, potential, C, w, 0.0525, 5e-3)
    assert np.isnan(C_all[17]).all() and all(np.isnan(x[17]) for x in w_all)
    for k in set(range(100)) - {17}:
        C1, w1 = dynamics._advance(spec, potential, C[k], _one(w, k), 0.0525, 5e-3)
        assert np.array_equal(C_all[k], C1)
        assert _one(w_all, k) == list(w1)


@pytest.mark.parametrize("layout", ["stacked", "shared attitude"])
def test_grouped_step_calls_an_undeclared_gradient_as_the_float_loop_does(layout):
    # Once per stage and trial, one 3x3 attitude at a time, stage by stage
    # and within a stage trial by trial, at the attitudes each trial's own
    # run passes. While every rate shares one attitude, its first stage
    # takes the gradient once.
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    C, w = _stack(np.random.default_rng(43), 100)
    if layout == "shared attitude":
        C = C[0]
    calls = []
    pot = PotentialModel(value=lambda C: 0.0,
                         gradient=lambda C: calls.append(C.copy()) or _P @ C @ _D)
    runs = []
    for k in range(100):
        dynamics._advance(spec, pot, C if C.ndim == 2 else C[k], _one(w, k), 0.0125, 5e-3)
        runs.append(calls[:])
        calls.clear()
    assert {len(run) for run in runs} == {12}  # 2 full steps and a partial one, 4 stages each
    expected = [run[j] for j in range(12) for run in runs]
    if layout == "shared attitude":
        expected = expected[99:]
    dynamics._advance(spec, pot, C, w, 0.0125, 5e-3)
    assert len(calls) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(calls, expected))


_SIGNED = (0.0, -0.0, 1e-300, -1e-300, 0.7, -0.7)
# Every rate whose components are in _SIGNED, then a NaN lane: (3, 217)
_RATES = np.array([*itertools.product(_SIGNED, repeat=3), (0.7, np.nan, -0.0)]).T
_ATTITUDES = np.array([so3.random_rotation(np.random.default_rng(44)) for _ in range(217)])
_NEAR_DIAGONAL = np.diag([1.0, 2.0, 3.0])
_NEAR_DIAGONAL[0, 1] = _NEAR_DIAGONAL[1, 0] = 1e-300
# Two equal second moments in a rotated frame: a degenerate eigenspace,
# whose principal axes eigh picks as it likes within it.
_Q = so3.random_rotation(np.random.default_rng(46))
_AXISYMMETRIC = _Q @ np.diag([1.5, 1.5, 2.5]) @ _Q.T
_INERTIAS = {
    "axisymmetric": 0.5 * (_AXISYMMETRIC + _AXISYMMETRIC.T),
    "diag123": np.diag([1.0, 2.0, 3.0]),
    "diag312": np.diag([3.0, 1.0, 2.0]),
    "full": _random_spd(np.random.default_rng(45)),
    "near_diagonal": _NEAR_DIAGONAL,
}
_POTENTIALS = {"free": zero_potential(), "linear": linear_potential(_P),
               "undeclared": _UNDECLARED}


@functools.cache
def _float_loop(inertia, potential):
    # Each rate of _RATES, from its own attitude, by the one-body float loop.
    spec, pot = InertiaSpec(_INERTIAS[inertia]), _POTENTIALS[potential]
    runs = [dynamics._advance(spec, pot, C, _one(_RATES, k), 0.0125, 5e-3)
            for k, C in enumerate(_ATTITUDES)]
    return np.array([C for C, _ in runs]), np.array([w for _, w in runs]).T


def _same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("B", [2, 7, 100])
@pytest.mark.parametrize("potential", sorted(_POTENTIALS))
@pytest.mark.parametrize("inertia", sorted(_INERTIAS))
def test_grouped_step_equals_the_float_loop_bit_for_bit(inertia, potential, B):
    # A diagonal K is stepped as it is; any other, the 1e-300 entry and the
    # degenerate axisymmetric one included, in its principal frame, which both
    # loops enter and leave with the same float operations. Either way each
    # trial equals its own run, to the sign of a zero, with rates built from
    # +-0, +-1e-300 and +-0.7 and a NaN lane (whose every entry is NaN). B =
    # 100 covers all 217 rates; B = 2 and 7 take draws of them.
    C1, w1 = _float_loop(inertia, potential)
    spec, pot = InertiaSpec(_INERTIAS[inertia]), _POTENTIALS[potential]
    if B == 100:
        batches = np.arange(300).reshape(3, B) % 217
    else:
        batches = np.random.default_rng(B).choice(217, size=(6, B), replace=False)
        batches[0, -1] = 216
    for lanes in batches:
        C, w = dynamics._advance(spec, pot, _ATTITUDES[lanes], tuple(_RATES[:, lanes]),
                                 0.0125, 5e-3)
        assert _same_bits(C, C1[lanes]) and _same_bits(np.array(w), w1[:, lanes])
    assert np.isnan(C1[216]).all() and np.isnan(w1[:, 216]).all()


# ---------------------------------------------------------------------------
# a declared gradient's stage moment in closed form

EPS = np.finfo(float).eps


def _moment_at(g, x):
    # vee(G^T X - X^T G) by matmul, G and X from their components.
    P = np.reshape(g, (3, 3)).T @ np.reshape(x, (3, 3))
    return np.array([P[2, 1] - P[1, 2], P[0, 2] - P[2, 0], P[1, 0] - P[0, 1]])


@pytest.mark.parametrize("angle", [0.0, 1e-8, 5e-7, 0.3, 2.0])
def test_stage_moment_is_the_moment_at_the_stage_attitude(angle):
    # d(s) from M = G^T C equals the moment at X = C exp(hat(s)), with s = 0
    # and |s| under 1e-6 taking the exponential's series branch. Relative to
    # max|G|, 20,000 draws per angle read at most 4.9 eps. A stack of B
    # trials, one G each, equals each trial's (3, 1) stack bit for bit.
    rng = np.random.default_rng(60)
    B = 50
    g = rng.normal(size=(B, 9)) * 10.0 ** rng.uniform(-3, 3, size=(B, 1))
    c = so3._components(np.array([so3.random_rotation(rng) for _ in range(B)]))
    s = rng.normal(size=(3, B))
    s *= angle / np.linalg.norm(s, axis=0)
    stacked = dynamics._stage_moment(dynamics._moment_terms(g.T.reshape(3, 3, 1, B), c), s)
    for k in range(B):
        ck, sk = c[:, k:k + 1], s[:, k:k + 1]
        d = dynamics._stage_moment(dynamics._moment_terms(g[k].reshape(3, 3, 1, 1), ck), sk)
        x = dynamics._rotate(tuple(ck.ravel().tolist()), tuple(sk.ravel().tolist()))
        assert np.abs(d[:, 0] - _moment_at(g[k], x)).max() <= 8 * EPS * np.abs(g[k]).max()
        assert stacked[:, k].tolist() == d[:, 0].tolist()


@pytest.mark.parametrize("s", [(math.inf, 0.0, 0.0), (0.0, -math.inf, 1.0),
                               (math.nan, 0.1, 0.2), (1e200, 1e200, 0.0)],
                         ids=["inf", "-inf", "nan", "overflowing angle"])
def test_stage_moment_of_a_non_finite_increment_is_nan(s):
    # numpy's sin and cos give NaN at inf, and so does the moment. The float
    # loop's own branch for t = inf is held to NaN, not to math's raising, by
    # test_overflowing_potential_moment_names_the_rate.
    g, c = _P.ravel().tolist(), so3._components(so3.random_rotation(np.random.default_rng(61)))
    with np.errstate(all="ignore"):
        stacked = dynamics._stage_moment(
            dynamics._moment_terms(np.reshape(g, (3, 3, 1, 1)), np.reshape(c, (9, 1))),
            np.reshape(s, (3, 1)))
    assert np.isnan(stacked).all()


def test_propagate_names_a_rate_that_is_not_finite():
    # A linear potential whose coeff entries are all 1e308 is finite, but its
    # moment overflows and the rate turns NaN, which passes the pi/4 guard.
    # The rate is checked before the attitude, so the error names it and the
    # span, not the attitude's orthogonality residual.
    state = BodyState(0.0, np.eye(3), so3.hat([0.1, 0.2, 0.3]))
    pot = linear_potential(np.full((3, 3), 1e308))
    message = (r"^rate \[nan, nan, nan\] rad/s is not finite after a time span of 0\.05 s "
               r"\(is the potential's gradient or the inertia out of range\?\)$")
    with pytest.raises(PotentialGradientNotSkewCompatible, match=message):
        propagate(state, InertiaSpec(np.diag([1.0, 2.0, 3.0])), pot, 0.05)


@pytest.mark.parametrize("potential", ["free", "linear", "undeclared"])
@pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "full"])
def test_propagated_state_equals_a_body_state_of_the_same_values(diagonal, potential):
    # propagate makes its state without BodyState's checks; it must equal the
    # BodyState of the same values, field by field, and stay frozen.
    rng = np.random.default_rng(83)
    inertia = InertiaSpec(np.diag([1.0, 2.0, 3.0]) if diagonal else _random_spd(rng))
    A = rng.normal(0.0, 0.5, (3, 3))
    pot = {"free": zero_potential(), "linear": linear_potential(A),
           "undeclared": PotentialModel(value=lambda C: 0.0, gradient=lambda C: A)}[potential]
    state = BodyState(0.25, so3.random_rotation(rng), so3.hat([0.8, -0.5, 1.0]))
    got = propagate(state, inertia, pot, 0.3205)
    C, w = dynamics._advance(inertia, pot, state.C, so3._axis(state.Omega), 0.3205 - 0.25, 1e-3)
    expected = BodyState(t=0.3205, C=C, Omega=so3.hat(w))
    assert type(got) is BodyState and type(got.t) is type(expected.t) and got.t == expected.t
    for a, b in ((got.C, expected.C), (got.Omega, expected.Omega)):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape == (3, 3)
        assert np.array_equal(a, b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.t = 0.0


def test_finite_rate_names_the_first_trial_whose_rate_is_not_finite():
    w = (np.array([0.1, 0.2, 0.3]), np.array([0.0, np.inf, np.nan]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(PotentialGradientNotSkewCompatible, match=r"^rate \[0\.2, inf, 1\.0\] "):
        dynamics._finite_rate(w, 0.05)
    assert dynamics._finite_rate((0.1, -0.2, 0.3), 0.05) == (0.1, -0.2, 0.3)
    # Finite, though their sum overflows: the fast check's fallback passes it.
    assert dynamics._finite_rate((1e308, 1e308, 0.0), 0.05) == (1e308, 1e308, 0.0)
    with pytest.raises(PotentialGradientNotSkewCompatible, match=r"^rate \[0\.1, nan, 0\.3\] "):
        dynamics._finite_rate((0.1, math.nan, 0.3), 0.05)


# ---------------------------------------------------------------------------
# potential audit

def test_validate_zero_potential():
    report = validate_potential(zero_potential())
    assert report.max_rel_error == 0.0
    assert report.passed


def test_validate_linear_potential_exact():
    rng = np.random.default_rng(38)
    report = validate_potential(linear_potential(rng.normal(size=(3, 3))))
    assert report.max_rel_error <= 1e-6
    assert report.passed


def test_validate_catches_wrong_gradient_scale():
    from attkit.dynamics import PotentialModel

    rng = np.random.default_rng(39)
    A = rng.normal(size=(3, 3))
    wrong = PotentialModel(
        value=lambda C, _A=A: float(np.tensordot(_A, C)),
        gradient=lambda C, _A=A: 2.0 * _A,
    )
    report = validate_potential(wrong)
    assert not report.passed
    assert 0.5 < report.max_rel_error < 1.5


@pytest.mark.parametrize("nan_in", ["gradient", "value"])
def test_validate_fails_a_nan_gradient_or_value(nan_in):
    # A NaN relative error must reach the reported maximum and fail it; a
    # max() that keeps the running 0.0 would pass the potential.
    def value(C):
        return math.nan if nan_in == "value" else float(np.trace(C))

    def gradient(C):
        return np.full((3, 3), np.nan) if nan_in == "gradient" else np.eye(3)

    report = validate_potential(PotentialModel(value=value, gradient=gradient))
    assert math.isnan(report.max_rel_error)
    assert report.passed is False

import collections
import re
import sys
import tracemalloc

import numpy as np
import pytest

from attkit import dynamics, so3
from attkit.dynamics import (
    BodyState,
    InertiaSpec,
    IntegratorConfig,
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
    NotRotation,
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
    assert np.abs(spec.classical_inv @ spec.classical - np.eye(3)).max() <= 1e-14


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
def test_overflowing_potential_moment_raises_not_rotation(declared):
    # The stage attitudes turn to NaN, as numpy's sin and cos of inf give,
    # and the propagated attitude fails its check.
    from attkit.dynamics import PotentialModel

    A = np.full((3, 3), 1e300)
    pot = linear_potential(A) if declared else PotentialModel(lambda C: 0.0, lambda C: A)
    state = BodyState(0.0, np.eye(3), so3.hat([0.8, -0.5, 1.0]))
    with np.errstate(all="ignore"), pytest.raises(NotRotation):
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


def test_free_body_step_makes_three_python_calls():
    # One step is written out in one loop: its only Python calls are the
    # attitude update _rotate and the exponential it forms, _exp_components
    # and _rodrigues. A call per stage would show as 7 or more per step.
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
    assert len(calls) <= 3 * 1000 + 30, collections.Counter(calls).most_common(5)


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
    with pytest.raises(ValueError):
        IntegratorConfig(scheme="euler")


@pytest.mark.parametrize("t_end", [np.inf, np.nan], ids=["inf", "nan"])
def test_propagate_rejects_non_finite_t_end(t_end):
    state = BodyState(0.0, np.eye(3), so3.hat([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite time span"):
        propagate(state, InertiaSpec(np.eye(3)), zero_potential(), t_end)


def test_integrator_config_rejects_infinite_step():
    # An infinite step would cover any span in one step that no guard sees.
    with pytest.raises(ValueError, match="finite"):
        IntegratorConfig(step=np.inf)


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

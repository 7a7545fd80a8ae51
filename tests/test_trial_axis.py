"""The batched Monte Carlo campaign and the trial axis of the shared operations.

montecarlo_summary advances all trials together; these tests hold it to a
reference kept here (one run_filter per trial) and check that each stacked
check raises for one bad trial among good ones, as its one-problem form does.
"""

import numpy as np
import pytest

from attkit import dynamics, so3, wahba
from attkit.dynamics import (
    BodyState,
    InertiaSpec,
    IntegratorConfig,
    PotentialModel,
    linear_potential,
    zero_potential,
)
from attkit.errors import (
    InconsistentUpdate,
    NotRotation,
    ReflectionProfile,
    ShapeMismatch,
    SingularProfile,
    StepTooLarge,
)
from attkit.filters import FilterConfig, run_filter, update_omega_no_gyro
from attkit.simulate import (
    NoiseSpec,
    ScenarioSpec,
    clustered_references,
    filter_errors,
    gen_batches_from_truth,
    gen_truth,
    make_rng,
    montecarlo_summary,
)

NAMES = ("err_att_pre", "err_att_post", "err_omega_pre", "err_omega_post")


def _nonlinear_potential():
    # V(C) = k/2 (e^T C b)^2: the gradient depends on the attitude, and it
    # takes one 3x3 attitude only.
    e = np.array([0.2, -0.5, 0.84])
    b = np.array([0.6, 0.3, -0.74])
    k = 2.0

    def gradient(C):
        C = np.asarray(C)
        if C.shape != (3, 3):
            raise ValueError(f"gradient takes one 3x3 attitude, got {C.shape}")
        return k * float(e @ C @ b) * np.outer(e, b)

    return PotentialModel(value=lambda C: 0.5 * k * float(e @ C @ b) ** 2, gradient=gradient)


LINEAR_COEFF = np.array([[0.3, -0.2, 0.1], [0.05, 0.4, -0.3], [0.2, 0.1, -0.25]])
POTENTIALS = {
    "zero": zero_potential,
    "linear": lambda: linear_potential(LINEAR_COEFF),
    # The same potential without its declared constant gradient: the
    # integrator calls gradient at every stage attitude.
    "undeclared-linear": lambda: PotentialModel(
        value=lambda C: float(np.tensordot(LINEAR_COEFF, C)), gradient=lambda C: LINEAR_COEFF
    ),
    "nonlinear": _nonlinear_potential,
}
NOISES = {"none": (0.0, 0.0), "vec": (0.002, 0.0), "gyro": (0.0, 0.003), "both": (0.002, 0.003)}


def _reference_metrics(scn, fcfg, omega_weight, integ, mode, trials, seed):
    # The sequential campaign: one filter run per trial, stream seed + i.
    truth = gen_truth(scn, integ)
    out = []
    for i in range(trials):
        batches = gen_batches_from_truth(truth, scn, make_rng(seed + i), omega_weight)
        estimates = run_filter(None, batches, scn.inertia, scn.potential, fcfg, mode=mode)
        out.append(filter_errors(truth, estimates))
    return np.array(out)


def _scenario(potential, sigma_vec, sigma_gyro):
    return ScenarioSpec(
        refs=clustered_references(7, 0.25, axis=(0.3, -0.4, 0.87), rng=make_rng(5150)),
        inertia=InertiaSpec(np.diag([1.0, 2.0, 3.0])),
        potential=POTENTIALS[potential](),
        init=BodyState(0.0, so3.exp_so3(so3.hat([0.4, -0.7, 1.1])), so3.hat([0.8, -0.5, 1.0])),
        schedule=0.05 * np.arange(1, 5),
        noise=NoiseSpec(sigma_vec=sigma_vec, sigma_gyro=sigma_gyro),
    )


def _assert_campaign_matches_reference(scn, fcfg, integ, mode, trials):
    omega_weight = 2.0 * np.eye(3)
    summary = montecarlo_summary(scn, fcfg, omega_weight, integ, mode, trials, 100)
    ref = _reference_metrics(scn, fcfg, omega_weight, integ, mode, trials, 100)

    assert summary["trials"] == trials
    for j, name in enumerate(NAMES):
        col = ref[:, :, j]
        for stat, per_epoch, overall in (
            ("mean", col.mean(axis=0), col.mean()),
            ("std", col.std(axis=0), col.std()),
            ("max", col.max(axis=0), col.max()),
        ):
            got = np.array(summary["per_epoch"][f"{name}_{stat}"])
            np.testing.assert_allclose(got, per_epoch, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(summary["aggregate"][f"{name}_{stat}"], overall,
                                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("trials", [1, 3, 7])
@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("mode", ["no_gyro", "with_gyro"])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_campaign_matches_one_filter_run_per_trial(potential, mode, noise, trials):
    integ = IntegratorConfig(step=5e-3)
    fcfg = FilterConfig(Pi=1.5 * np.eye(3), Gamma=4.0 * np.eye(3), integrator=integ)
    _assert_campaign_matches_reference(_scenario(potential, *NOISES[noise]), fcfg, integ, mode,
                                       trials)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("mode", ["no_gyro", "with_gyro"])
def test_campaign_steps_the_filter_with_the_filter_integrator(mode, trials):
    # The truth and the filter may integrate with different steps.
    fcfg = FilterConfig(Pi=1.5 * np.eye(3), Gamma=4.0 * np.eye(3),
                        integrator=IntegratorConfig(step=2e-2))
    _assert_campaign_matches_reference(_scenario("nonlinear", *NOISES["both"]), fcfg,
                                       IntegratorConfig(step=5e-3), mode, trials)


def test_one_body_state_rejects_stacks():
    C = so3.exp_so3(so3.hat([0.4, -0.7, 1.1]))
    W = so3.hat([0.8, -0.5, 1.0])
    with pytest.raises(NotRotation):
        BodyState(0.0, np.array([C, C]), np.array([W, W]))
    with pytest.raises(ShapeMismatch):
        BodyState(0.0, C, np.array([W, W]))
    refs = clustered_references(7, 0.25, rng=make_rng(5150))
    with pytest.raises(ShapeMismatch):
        ScenarioSpec(refs=np.array([refs, refs]), inertia=InertiaSpec(np.eye(3)),
                     potential=zero_potential(), init=BodyState(0.0, C, W), schedule=[0.1])


# ---------------------------------------------------------------------------
# one bad trial among good ones

def _problems():
    rng = make_rng(7)
    C = so3.random_rotation(rng)
    reflected = C * np.array([1.0, 1.0, -1.0])
    refs = clustered_references(7, 0.3, rng=rng)
    body = C.T @ refs
    flat = body.copy()
    flat[2] = 0.0  # every vector in one plane: rank 2
    L = refs @ body.T
    spec = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    W = so3.hat([0.3, -0.1, 0.2])
    pi = np.diag([1.0, 2.0, 3.0])

    def advance(w):
        # w holds one rate vector, or a stack of them as (B, 3)
        Cs = np.broadcast_to(C, np.shape(w)[:-1] + (3, 3))
        return dynamics._advance(spec, zero_potential(), Cs, tuple(np.asarray(w).T), 0.01, 1e-3)

    # (check, good problem, bad problem, exception of the one-problem check)
    return {
        "rotation_orthogonality": (so3.check_rotation, C, 1.001 * C, NotRotation),
        "rotation_determinant": (so3.check_rotation, C, reflected, NotRotation),
        "rank": (lambda B: wahba.build_profile(refs, np.ones(7), B), body, flat, SingularProfile),
        "determinant_floor": (wahba.profile_from_matrix, L, np.diag([1.0, 1.0, 1e-14]),
                              SingularProfile),
        "eigenvalue_floor": (lambda M: wahba.solve_attitude(wahba.profile_from_matrix(M)),
                             L, np.diag([1.0, 1.0, 1e-8]), SingularProfile),
        "reflection": (lambda M: wahba.solve_attitude(wahba.profile_from_matrix(M)),
                       L, np.diag([1.0, 1.0, -1.0]) @ L, ReflectionProfile),
        "update_symmetry": (lambda Om: update_omega_no_gyro(C, C, Om, pi),
                            W, W + 1e-3 * np.eye(3), InconsistentUpdate),
        "step_guard": (advance, np.array([0.8, -0.5, 1.0]), np.array([900.0, 0.0, 0.0]),
                       StepTooLarge),
    }


PROBLEMS = _problems()


@pytest.mark.parametrize("case", sorted(PROBLEMS))
def test_one_bad_trial_raises_like_the_one_problem_check(case):
    check, good, bad, exc = PROBLEMS[case]
    check(good)
    check(np.array([good] * 4))
    with pytest.raises(exc):
        check(bad)
    for where in (1, 3):
        stack = np.array([good] * 4)
        stack[where] = bad
        with pytest.raises(exc):
            check(stack)


def test_stacked_reflection_profile_raises_with_its_determinant():
    rng = make_rng(8)
    mats = [so3.random_rotation(rng) @ np.diag(rng.uniform(0.5, 2.0, 3)) for _ in range(3)]
    mats.insert(2, np.diag([1.0, 1.0, -1.0]) @ mats[0])
    p = wahba.profile_from_matrix(np.array(mats))
    assert (p.det[[0, 1, 3]] > 0.0).all() and p.det[2] < 0.0
    with pytest.raises(ReflectionProfile) as exc:
        wahba.solve_attitude(p)
    assert str(exc.value) == f"profile determinant {p.det[2]:.3e} is not positive"


def test_stacked_operations_equal_one_problem_results():
    rng = make_rng(9)
    Cs = np.array([so3.random_rotation(rng) for _ in range(5)])
    ws = rng.normal(size=(3, 5))
    angles = so3.principal_angle(Cs, Cs[0])
    exps = so3._exp_vec(ws)
    for k in range(5):
        assert angles[k] == so3.principal_angle(Cs[k], Cs[0])
        assert np.array_equal(exps[k], so3._exp_vec(ws[:, k]))
    assert np.array_equal(so3.vee(so3.hat(ws)), ws)
    assert np.array_equal(so3._exp_vec(np.zeros((3, 2))), np.array([np.eye(3)] * 2))

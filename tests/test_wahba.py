import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from attkit import reference_case as rc
from attkit import so3, wahba
from attkit.errors import ReflectionProfile, ShapeMismatch, SingularProfile

ONES7 = np.ones(7)


def _random_unit_set(rng, n=5):
    V = rng.normal(size=(3, n))
    return V / np.linalg.norm(V, axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# profile construction

def test_build_profile_identity_case():
    p = wahba.build_profile(np.eye(3), np.ones(3), np.eye(3))
    assert np.abs(p.matrix - np.eye(3)).max() == 0.0
    assert abs(p.det - 1.0) <= 1e-15


def test_build_profile_reference_data_positive_det():
    p = wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS)
    assert p.det > 0.0


def test_build_profile_outer_product_sum_oracle():
    rng = np.random.default_rng(20)
    E = _random_unit_set(rng)
    B = _random_unit_set(rng)
    w = rng.uniform(0.5, 2.0, size=5)
    expected = sum(w[i] * np.outer(E[:, i], B[:, i]) for i in range(5))
    p = wahba.build_profile(E, w, B)
    assert np.abs(p.matrix - expected).max() <= 1e-13


def test_build_profile_shape_and_weight_errors():
    with pytest.raises(ShapeMismatch):
        wahba.build_profile(np.eye(3), np.ones(4), np.eye(3))
    with pytest.raises(ShapeMismatch):
        wahba.build_profile(np.eye(3)[:, :2], np.ones(2), np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        wahba.build_profile(np.eye(3), np.array([1.0, -1.0, 1.0]), np.eye(3))


def test_build_profile_rank_deficient_raises():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    planar = np.stack([e1, e2, (e1 + e2) / np.sqrt(2.0)], axis=1)
    with pytest.raises(SingularProfile):
        wahba.build_profile(planar, np.ones(3), np.eye(3))


def test_check_vector_set_screen_skips_the_svd_on_well_conditioned_sets(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, **k: calls.append(M.shape) or svd(M, **k))
    rng = np.random.default_rng(30)
    wahba.check_vector_set(_random_unit_set(rng, n=7))
    wahba.check_vector_set(np.stack([_random_unit_set(rng, n=7) for _ in range(4)]))
    assert calls == []
    # build_profile takes one SVD, the profile's, and none of its vector sets.
    wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS)
    assert calls == [(3, 3)]
    # s3/s1 = 2e-6 is rank 3 but inside the screen's margin: the SVD decides.
    U, W = so3.random_rotation(rng), np.linalg.qr(rng.normal(size=(7, 3)))[0]
    wahba.check_vector_set(U @ np.diag([1.0, 0.5, 2e-6]) @ W.T)
    assert calls == [(3, 3), (3, 7)]


def test_check_vector_set_unit_flag():
    rng = np.random.default_rng(29)
    V = _random_unit_set(rng)
    wahba.check_vector_set(V, unit=True)
    with pytest.raises(ValueError):
        wahba.check_vector_set(2.0 * V, unit=True)


# ---------------------------------------------------------------------------
# the solver

def test_solve_identity_fixed_point():
    C, S = wahba.solve_attitude(wahba.profile_from_matrix(np.eye(3)))
    assert np.abs(C - np.eye(3)).max() <= 1e-14
    assert np.abs(S - np.eye(3)).max() <= 1e-14


def test_solve_reproduces_reference_results():
    p = wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS)
    C, S = wahba.solve_attitude(p)
    assert np.abs(C - rc.ATTITUDE_EST).max() <= rc.TOLERANCE
    err = so3.attitude_error_matrix(C, rc.ATTITUDE_TRUE)
    assert np.abs(err).max() <= rc.TOLERANCE
    so3.check_rotation(C, tol=1e-12)
    so3.check_spd(S)


def test_solve_matches_svd_procrustes_oracle():
    rng = np.random.default_rng(21)
    count = 0
    while count < 1000:
        E = _random_unit_set(rng)
        B = _random_unit_set(rng)
        w = rng.uniform(0.2, 3.0, size=5)
        L = E @ (w[:, None] * B.T)
        if np.linalg.det(L) <= 1e-6:
            continue
        count += 1
        C, _ = wahba.solve_attitude(wahba.profile_from_matrix(L))
        U, _, Vt = np.linalg.svd(L)
        oracle = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt)]) @ Vt
        assert np.abs(C - oracle).max() <= 1e-9


def test_solve_unbiased_on_exact_measurements():
    rng = np.random.default_rng(22)
    for _ in range(200):
        C_true = so3.random_rotation(rng)
        E = _random_unit_set(rng, n=4)
        B = C_true.T @ E
        w = rng.uniform(0.1, 5.0, size=4)
        C, _ = wahba.solve_attitude(wahba.build_profile(E, w, B))
        assert np.abs(C - C_true).max() <= 1e-9


def test_solve_stationarity_residual():
    rng = np.random.default_rng(23)
    for _ in range(200):
        E = _random_unit_set(rng)
        B = so3.random_rotation(rng).T @ E + 0.01 * rng.normal(size=(3, 5))
        p = wahba.build_profile(E, np.ones(5), B)
        C, _ = wahba.solve_attitude(p)
        L = p.matrix
        assert np.abs(C.T @ L - L.T @ C).max() <= 1e-10


def test_solver_factor_is_inverse_sqrt_of_LLT():
    p = wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS)
    C, S = wahba.solve_attitude(p)
    L = p.matrix
    assert np.abs(S @ (L @ L.T) @ S - np.eye(3)).max() <= 1e-9


def test_solve_invariant_to_global_weight_scale():
    p0 = wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS)
    C0, _ = wahba.solve_attitude(p0)
    for alpha in (1e-3, 7.0, 1e4):
        p = wahba.build_profile(rc.REFS, alpha * ONES7, rc.BODY_MEAS)
        C, _ = wahba.solve_attitude(p)
        assert np.abs(C - C0).max() <= 1e-12


def test_solve_left_invariance():
    rng = np.random.default_rng(24)
    Q = so3.random_rotation(rng)
    C0, _ = wahba.solve_attitude(wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS))
    CQ, _ = wahba.solve_attitude(wahba.build_profile(Q @ rc.REFS, ONES7, rc.BODY_MEAS))
    assert np.abs(CQ - Q @ C0).max() <= 1e-10


def test_solve_rejects_reflection_profile():
    with pytest.raises(ReflectionProfile):
        wahba.solve_attitude(wahba.profile_from_matrix(np.diag([1.0, 1.0, -1.0])))


def _weights_reference(w, n=None):
    # check_weights as it decided before the one-pass min/max test
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ShapeMismatch(f"weights must be 1-d, got shape {w.shape}")
    if n is not None and w.shape[0] != n:
        raise ShapeMismatch(f"expected {n} weights, got {w.shape[0]}")
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        raise ValueError("weights must be finite and strictly positive")
    return w


def _outcome(check, *args):
    try:
        return check(*args).tolist()
    except (ShapeMismatch, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("w, n", [
    ([1.0, 2.0, 3.0], 3), ([1.0, 2.0, 3.0], None), ([5e-324, 1.0, 1.8e308], 3),
    ([np.nan, 1.0, 1.0], 3), ([1.0, 1.0, np.nan], 3), ([np.inf, 1.0], 2),
    ([1.0, -np.inf], 2), ([-np.inf, np.inf], 2), ([1.0, 0.0], 2), ([-0.0, 1.0], 2),
    ([2.0, -1.0], 2), ([], None), ([], 0), ([], 3), ([[1.0, 1.0, 1.0]], 3),
    ([1.0, 1.0], 3), (7.0, None),
])
def test_check_weights_decides_as_before(w, n):
    assert _outcome(wahba.check_weights, w, n) == _outcome(_weights_reference, w, n)


def test_structured_profiles_match_svd_oracle_and_stack_equals_single():
    # Structured proper profiles (exact zeros below the diagonal, a signed
    # permutation) next to the identity and a random rotation: each solve is
    # the sign-corrected SVD projection, and one stacked solve gives every
    # single solve bit for bit.
    rng = np.random.default_rng(31)
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    structured = [np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 3.0]]),
                  swap @ np.diag([1.0, -1.0, 1.0])]
    stack = np.stack(structured + [np.eye(3), so3.random_rotation(rng)])
    assert (np.linalg.det(stack) > 0.0).all()
    Cs, Ss = wahba.solve_attitude(wahba.profile_from_matrix(stack))
    for L, C, S in zip(stack, Cs, Ss):
        U, _, Vt = np.linalg.svd(L)
        oracle = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt)]) @ Vt
        C1, S1 = wahba.solve_attitude(wahba.profile_from_matrix(L))
        assert np.abs(C1 - oracle).max() <= 1e-12
        so3.check_rotation(C1, tol=1e-12)
        assert np.array_equal(C, C1) and np.array_equal(S, S1)


def test_profile_overflow_is_a_value_error_without_warnings():
    rng = np.random.default_rng(32)
    E, B = _random_unit_set(rng), _random_unit_set(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            wahba.profile_from_matrix(np.diag([1e200] * 3))
        with pytest.raises(ValueError, match="overflow"):
            wahba.profile_from_matrix(np.stack([np.eye(3), np.diag([1e120, 1.0, 1.0])]))
        with pytest.raises(ValueError, match="overflow"):
            wahba.profile_from_matrix(np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="overflow"):
            wahba.build_profile(1e160 * E, np.ones(5), 1e160 * B)
        with pytest.raises(ValueError, match="overflow"):
            wahba.build_profile(E, np.ones(5), 1e160 * B)
        with pytest.raises(ValueError, match="overflow"):
            wahba.build_profile(E, np.full(5, 1e300), B)
        # Large but finite profiles are still solved.
        p = wahba.profile_from_matrix(np.diag([1e100] * 3))
        C, _ = wahba.solve_attitude(p)
    assert np.abs(C - np.eye(3)).max() <= 1e-15
    # An underflowed profile stays what it was: singular.
    with pytest.raises(SingularProfile):
        wahba.build_profile(1e-160 * E, np.ones(5), 1e-160 * B)


# Run in a child process: LAPACK's SVD of an inf entry does not return.
_SOLVE_NON_FINITE = """
import numpy as np
from attkit import wahba
cases = [(np.diag([np.inf, 1.0, 1.0]), np.inf)]
for bad in (np.inf, -np.inf, np.nan):
    cases.append((np.diag([1.0, bad, 1.0]), 1.0))
    cases.append((np.stack([np.eye(3), np.full((3, 3), bad)]), np.ones(2)))
for matrix, det in cases:
    try:
        wahba.solve_attitude(wahba.AttitudeProfile(matrix, det))
    except ValueError as exc:  # LinAlgError is one too: check the message
        assert str(exc) == wahba._OVERFLOW, repr(exc)
    else:
        raise AssertionError("solved a non-finite profile")
print("ok")
"""


def test_hand_built_non_finite_profile_is_a_value_error():
    src = os.path.dirname(os.path.dirname(wahba.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _SOLVE_NON_FINITE], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr


def test_profile_from_matrix_rejects_singular():
    with pytest.raises(SingularProfile):
        wahba.profile_from_matrix(np.zeros((3, 3)))
    with pytest.raises(SingularProfile):
        wahba.profile_from_matrix(np.diag([1.0, 1.0, 1e-16]))


@pytest.mark.parametrize("r, singular", [
    (1.5e-6, False), (0.7e-6, True), (1e-6 * (1.0 + 1e-3), False), (1e-6 * (1.0 - 1e-3), True),
])
def test_singular_floor_verdicts_and_message(r, singular):
    # Eigenvalues of L L^T are 1, 0.36 and r^2: the floor r^2 > SQRT_EIG_RTOL
    # sits at r = 1e-6, and the determinant floor passes all four.
    rng = np.random.default_rng(34)
    L = so3.random_rotation(rng) @ np.diag([1.0, 0.6, r]) @ so3.random_rotation(rng).T
    p = wahba.profile_from_matrix(L)
    if not singular:
        so3.check_rotation(wahba.solve_attitude(p)[0], tol=1e-12)
        return
    with pytest.raises(SingularProfile, match=r"^profile effectively singular \(eigenvalues \[") as exc:
        wahba.solve_attitude(p)
    listed = np.array(str(exc.value).split("[")[1].split("]")[0].split(), dtype=float)
    assert np.allclose(listed, [r * r, 0.36, 1.0], rtol=1e-6, atol=0.0)  # ascending


# ---------------------------------------------------------------------------
# cost and minimality

def test_cost_zero_for_exact_alignment():
    rng = np.random.default_rng(26)
    C = so3.random_rotation(rng)
    E = _random_unit_set(rng)
    B = C.T @ E
    assert wahba.alignment_cost(C, E, B, np.ones(5)) <= 1e-28


def test_cost_on_reference_data_has_noise_scale():
    C, _ = wahba.solve_attitude(wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS))
    cost = wahba.alignment_cost(C, rc.REFS, rc.BODY_MEAS, ONES7)
    # Seven vectors at roughly 0.002 rad of noise: 0.5 * n * sigma^2 scale.
    assert 1e-6 < cost < 5e-5
    resid = rc.REFS - C @ rc.BODY_MEAS
    assert np.abs(resid).max() < 2.5e-3


def test_cost_columnwise_oracle():
    rng = np.random.default_rng(27)
    C = so3.random_rotation(rng)
    E = _random_unit_set(rng)
    B = _random_unit_set(rng)
    w = rng.uniform(0.1, 2.0, size=5)
    manual = 0.5 * sum(
        w[i] * np.linalg.norm(E[:, i] - C @ B[:, i]) ** 2 for i in range(5)
    )
    assert abs(wahba.alignment_cost(C, E, B, w) - manual) <= 1e-13


def test_stacked_cost_equals_one_problem_costs():
    rng = np.random.default_rng(28)
    Cs = np.array([so3.random_rotation(rng) for _ in range(4)])
    E = _random_unit_set(rng)
    Bs = np.array([_random_unit_set(rng) for _ in range(4)])
    w = rng.uniform(0.1, 2.0, size=5)
    one = wahba.alignment_cost(Cs[0], E, Bs[0], w)
    assert type(one) is float
    for costs, body in ((wahba.alignment_cost(Cs, E, Bs, w), Bs),  # stacked bodies
                        (wahba.alignment_cost(Cs, E, Bs[0], w), [Bs[0]] * 4)):  # one shared
        assert costs.shape == (4,)
        for k in range(4):
            assert costs[k] == wahba.alignment_cost(Cs[k], E, body[k], w)
    with pytest.raises(ShapeMismatch):
        wahba.alignment_cost(Cs, np.array([E, E]), Bs, w)


def test_minimality_probe_on_reference_solution():
    C, _ = wahba.solve_attitude(wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS))
    assert wahba.check_local_minimality(C, rc.REFS, rc.BODY_MEAS, ONES7)


def test_minimality_probe_rejects_displaced_solution():
    C, _ = wahba.solve_attitude(wahba.build_profile(rc.REFS, ONES7, rc.BODY_MEAS))
    displaced = C @ so3.exp_so3(so3.hat([0.3, 0.0, 0.0]))
    assert not wahba.check_local_minimality(displaced, rc.REFS, rc.BODY_MEAS, ONES7)


def test_minimality_probe_at_global_minimum():
    rng = np.random.default_rng(28)
    C = so3.random_rotation(rng)
    E = _random_unit_set(rng)
    B = C.T @ E
    assert wahba.check_local_minimality(C, E, B, np.ones(5))

import warnings

import numpy as np
import pytest

from attkit import so3
from attkit.errors import NotRotation, NotSkew, NotSymmetricPD, ShapeMismatch


def test_hat_zero():
    assert np.array_equal(so3.hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))


def test_hat_z_axis():
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(so3.hat([0.0, 0.0, 1.0]), expected)


def test_hat_matches_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        assert np.abs(so3.hat(v) @ w - np.cross(v, w)).max() <= 1e-15


def test_vee_zero_and_inverse_pair():
    assert np.array_equal(so3.vee(np.zeros((3, 3))), np.zeros(3))
    assert np.array_equal(so3.vee(so3.hat([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_vee_hat_roundtrip_exact():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        v = rng.normal(size=3)
        assert np.abs(so3.vee(so3.hat(v)) - v).max() <= 1e-15


def test_vee_rejects_non_skew():
    with pytest.raises(NotSkew):
        so3.vee(np.eye(3))
    with pytest.raises(ShapeMismatch):
        so3.vee(np.zeros((2, 2)))


def test_exp_zero_is_identity():
    assert np.abs(so3.exp_so3(np.zeros((3, 3))) - np.eye(3)).max() == 0.0


def test_exp_quarter_turn_about_z():
    C = so3.exp_so3(so3.hat([0.0, 0.0, np.pi / 2]))
    assert np.abs(C[:, 0] - np.array([0.0, 1.0, 0.0])).max() <= 1e-15


def _exp_series(X, terms=20):
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    return out


def test_exp_matches_power_series():
    rng = np.random.default_rng(3)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        X = so3.hat(axis * rng.uniform(0.0, 1.5))
        assert np.abs(so3.exp_so3(X) - _exp_series(X)).max() <= 1e-12


def test_exp_inverse_is_transpose():
    rng = np.random.default_rng(4)
    for _ in range(50):
        X = so3.hat(rng.normal(size=3))
        assert np.abs(so3.exp_so3(-X) - so3.exp_so3(X).T).max() <= 1e-14


def test_exp_output_is_valid_rotation_up_to_large_angles():
    rng = np.random.default_rng(5)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        X = so3.hat(axis * rng.uniform(0.0, 10.0))
        so3.check_rotation(so3.exp_so3(X), tol=1e-12)


def test_exp_small_angle_branch():
    # The series branch engages below 1e-6 and must agree with the direct
    # formula just above the switch.
    for mag in (1e-9, 1e-7, 9.9e-7, 1.1e-6):
        X = so3.hat([mag, 0.0, 0.0])
        assert np.abs(so3.exp_so3(X) - _exp_series(X)).max() <= 1e-15
        so3.check_rotation(so3.exp_so3(X), tol=1e-14)


def test_principal_angle_identity_and_axis_angle():
    rng = np.random.default_rng(8)
    C = so3.random_rotation(rng)
    assert so3.principal_angle(C, C) == 0.0
    for theta in (0.1, 1.0, 2.5, np.pi - 1e-3):
        C = so3.exp_so3(so3.hat([0.0, 0.0, theta]))
        assert abs(so3.principal_angle(np.eye(3), C) - theta) <= 1e-9


def test_principal_angle_resolves_tiny_and_near_pi_angles():
    rng = np.random.default_rng(11)
    C = so3.random_rotation(rng)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    for theta in (1e-10, 1e-8, np.pi - 1e-9):
        D = C @ so3.exp_so3(so3.hat(theta * u))
        assert abs(so3.principal_angle(C, D) - theta) <= 1e-14


def test_principal_angle_symmetric():
    rng = np.random.default_rng(9)
    A = so3.random_rotation(rng)
    B = so3.random_rotation(rng)
    assert so3.principal_angle(A, B) == so3.principal_angle(B, A)


def test_principal_angle_triangle_inequality():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        A = so3.random_rotation(rng)
        B = so3.random_rotation(rng)
        C = so3.random_rotation(rng)
        ab = so3.principal_angle(A, B)
        bc = so3.principal_angle(B, C)
        ac = so3.principal_angle(A, C)
        assert ac <= ab + bc + 1e-9


def test_principal_angle_on_reference_error_matrix():
    # The stored attitude error matrix is a rounded rotation minus the
    # identity; project back to the nearest rotation before taking the
    # metric. The angle must match the scale of the stored entries.
    from attkit import reference_case as rc

    G = np.eye(3) + rc.ERROR_MATRIX
    U, _, Vt = np.linalg.svd(G)
    R = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt)]) @ Vt
    angle = so3.principal_angle(R, np.eye(3))
    assert 1e-3 < angle < 2.5e-3
    assert angle < 2.0 * np.abs(rc.ERROR_MATRIX).max()


def test_attitude_error_matrix():
    rng = np.random.default_rng(11)
    C = so3.random_rotation(rng)
    assert np.abs(so3.attitude_error_matrix(C, C)).max() <= 1e-15


def test_check_rotation_rejects():
    with pytest.raises(NotRotation):
        so3.check_rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(NotRotation):
        so3.check_rotation(1.001 * np.eye(3))
    with pytest.raises(NotRotation):
        so3.check_rotation(np.eye(4))


def test_check_spd_rejects():
    with pytest.raises(NotSymmetricPD):
        so3.check_spd(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(NotSymmetricPD):
        so3.check_spd(np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    so3.check_spd(np.diag([0.5, 1.0, 2.0]))


def test_random_rotation_is_valid():
    rng = np.random.default_rng(12)
    for _ in range(100):
        so3.check_rotation(so3.random_rotation(rng), tol=1e-12)


def test_check_spd_rejects_a_matrix_that_is_not_3x3_and_prints_plain_numbers():
    for S in (np.eye(2), np.eye(4), np.stack([np.eye(3)] * 2)):
        with pytest.raises(NotSymmetricPD, match=r"^expected 3x3 matrix, got "):
            so3.check_spd(S)
    for S, lo in ((-np.eye(3), "-1.0"), (np.diag([2.0, 0.0, 1.0]), "0.0")):
        with pytest.raises(NotSymmetricPD) as exc:
            so3.check_spd(S)
        assert str(exc.value) == f"smallest eigenvalue {lo} is not positive"


@pytest.mark.parametrize("m", [[1.0, -2.0, 0.5], [[1.0, 0.0], [-2.0, 1.0], [0.5, 0.0]]],
                         ids=["one", "stack"])
def test_skew_sylvester_solve_rejects_an_overflowing_weight(m):
    # trace(K) I - K overflows at K = 1e308 I: the solve raises, naming itself
    # and the weight's trace, and numpy does not warn on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            so3.solve_skew_sylvester(1e308 * np.eye(3), m)
    assert str(err.value) == "skew Sylvester solve: non-finite solution at weight trace inf"


# ---------------------------------------------------------------------------
# the bound LAPACK kernels

@pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
@pytest.mark.parametrize("stack", [(), (5,)], ids=["one", "stack"])
def test_bound_lapack_kernels_equal_numpy_linalg_bit_for_bit(scale, stack):
    # Each kernel so3 binds gives np.linalg's result, value and type, on one
    # problem and on a stack; det over- and underflows as np.linalg.det does.
    rng = np.random.default_rng(61)
    M = scale * rng.normal(size=stack + (3, 3))
    A = rng.normal(size=stack + (3, 3))
    S = scale * (A @ A.mT)
    b = scale * rng.normal(size=stack + (3, 2))
    with np.errstate(over="ignore"):  # det at 1e150: both warn alike
        pairs = [
            (so3._svd(M), np.linalg.svd(M)),
            ((so3._solve(M, b),), (np.linalg.solve(M, b),)),
            ((so3._det(M),), (np.linalg.det(M),)),
            ((so3._eigvalsh(S),), (np.linalg.eigvalsh(S),)),
        ]
    for got, want in pairs:
        for g, w in zip(got, want, strict=True):
            assert type(g) is type(w) and np.array_equal(g, w)


def test_singular_skew_sylvester_solve_raises_the_solves_message():
    # K = diag(1, -1, 5) is not positive definite and trace(K) I - K =
    # diag(4, 6, 0) is singular: LAPACK's solve fails, and the solve reports
    # its non-finite solution without a warning.
    K = np.diag([1.0, -1.0, 5.0])
    for m in ([1.0, -2.0, 0.5], [[1.0, 0.0], [-2.0, 1.0], [0.5, 0.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                so3.solve_skew_sylvester(K, m)
        assert str(err.value) == "skew Sylvester solve: non-finite solution at weight trace 5.0"


def test_check_rotation_and_check_spd_messages_from_the_bound_kernels():
    # The determinant and the smallest eigenvalue print as they did through
    # np.linalg, for one matrix and the first failing one of a stack.
    reflection = np.diag([1.0, 1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for C in (reflection, np.stack([np.eye(3), reflection, reflection])):
            with pytest.raises(NotRotation) as exc:
                so3.check_rotation(C)
            assert str(exc.value) == "determinant np.float64(-1.0) not within 1.0e-09 of 1"
        with pytest.raises(NotSymmetricPD) as exc:
            so3.check_spd(np.diag([2.0, -0.5, 1.0]))
    assert str(exc.value) == "smallest eigenvalue -0.5 is not positive"


@pytest.mark.parametrize("layout", ["stacked", "shared", "floats"])
def test_stacked_rotate_equals_its_float_columns_bit_for_bit(layout):
    # C exp(hat(v)) on B rates at once: a (9, B) attitude, one shared as
    # (9, 1), or nine floats. Each column equals the float update of its own
    # attitude and rate, to the sign of a zero: rates with signed zeros, a
    # series-branch angle, large angles and a NaN.
    rng = np.random.default_rng(46)
    signed = [0.0, -0.0, 1e-300, -1e-300, 1e-7, -0.7, 2.5]
    v = np.array([rng.choice(signed, size=3) for _ in range(60)] + [[0.3, np.nan, -0.0]]).T
    v[:, :20] = rng.normal(size=(3, 20))
    B = v.shape[1]
    Cs = np.array([so3.random_rotation(rng) for _ in range(B)])
    if layout == "stacked":
        c, columns = so3._components(Cs), [so3._components(C) for C in Cs]
    else:
        c = so3._components(Cs[0])
        columns = [c] * B
        if layout == "shared":
            c = np.reshape(c, (9, 1))
    got = so3._rotate(c, v)
    expected = np.array([so3._rotate(ck, v[:, k].tolist()) for k, ck in enumerate(columns)]).T
    assert got.shape == (9, B)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert np.isnan(got[:, -1]).all()

"""The skew solve and principal_angle against 50-digit arithmetic.

The other oracles of these two functions are float computations (a 9x9
Kronecker solve, a closed form); these share nothing with them. mpmath
evaluates the same formula on the same float inputs at 50 digits, so the
difference is the float routine's own rounding:

* solve_skew_sylvester(K, m) is hat(x) with x = (trace(K) I - K)^-1 m. A
  backward-stable solve, after the rounding of trace(K) I - K, is within
  eps kappa of x relative to max|x|, kappa the 1-norm condition number of
  trace(K) I - K; the bound is twice that (the largest error was 0.21 eps
  kappa over 400 draws like this test's, and 0.14 over its own 150, whose
  kappa reaches 6e5).
* principal_angle(C1, C2) is atan2(|vee(R - R^T)| / 2, (trace(R) - 1) / 2)
  with R = C1^T C2. Each entry of R has an absolute error of a few eps, so
  the angle does too, near 0 and near pi alike; the bound is 4 eps (the
  largest error over 2,000 pairs was 2 eps).
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from attkit import so3  # noqa: E402

EPS = np.finfo(float).eps


def _spd(rng):
    # Eigenvalues spread over up to 8 decades, at an overall scale of
    # 1e-3 to 1e3, in a random frame.
    Q = so3.random_rotation(rng)
    lam = 10.0 ** rng.uniform(-rng.uniform(0.0, 8.0), 0.0, size=3) * 10.0 ** rng.uniform(-3, 3)
    K = Q @ np.diag(lam) @ Q.T
    return 0.5 * (K + K.T)


def _skew_solve_50_digits(K, m):
    """(x*, kappa): x = (trace(K) I - K)^-1 m and the 1-norm condition
    number of trace(K) I - K, both from the float K and m at 50 digits."""
    with mp.workdps(50):
        Km = mp.matrix(K.tolist())  # every double converts exactly
        A = (Km[0, 0] + Km[1, 1] + Km[2, 2]) * mp.eye(3) - Km
        x = mp.lu_solve(A, mp.matrix(np.asarray(m).tolist()))
        kappa = float(mp.norm(A, 1) * mp.norm(mp.inverse(A), 1))
    return np.array([float(v) for v in x]), kappa


def test_skew_sylvester_solves_match_50_digits():
    rng = np.random.default_rng(62)
    Ks = [_spd(rng) for _ in range(150)]
    ms = rng.normal(size=(150, 3)) * 10.0 ** rng.uniform(-3, 3, size=(150, 1))
    for K, m in zip(Ks, ms):
        x = so3._axis(so3.solve_skew_sylvester(K, m))
        x_ref, kappa = _skew_solve_50_digits(K, m)
        assert np.abs(x - x_ref).max() <= 2.0 * EPS * kappa * np.abs(x_ref).max()
    # A stack of right sides against one K: each column as solved alone.
    K, m = Ks[0], ms[:8].T
    X = so3.solve_skew_sylvester(K, m)
    for j in range(8):
        assert np.array_equal(X[j], so3.solve_skew_sylvester(K, m[:, j]))


def _angle_50_digits(C1, C2):
    with mp.workdps(50):
        R = mp.matrix(C1.tolist()).T * mp.matrix(C2.tolist())
        x, y, z = R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]
        angle = mp.atan2(mp.sqrt(x * x + y * y + z * z) / 2, (R[0, 0] + R[1, 1] + R[2, 2] - 1) / 2)
    return float(angle)


def test_principal_angle_matches_50_digits_near_0_in_between_and_near_pi():
    rng = np.random.default_rng(63)
    C1s, C2s, refs = [], [], []
    for k in range(300):
        t = (10.0 ** rng.uniform(-9.0, 0.0), rng.uniform(0.0, math.pi),
             math.pi - 10.0 ** rng.uniform(-9.0, 0.0))[k % 3]
        u = rng.normal(size=3)
        C1 = so3.random_rotation(rng)
        C2 = C1 @ so3._exp_vec(t * u / np.linalg.norm(u))
        ref = _angle_50_digits(C1, C2)
        assert abs(so3.principal_angle(C1, C2) - ref) <= 4.0 * EPS
        C1s.append(C1)
        C2s.append(C2)
        refs.append(ref)
    stacked = so3.principal_angle(np.array(C1s), np.array(C2s))
    assert np.abs(stacked - np.array(refs)).max() <= 4.0 * EPS

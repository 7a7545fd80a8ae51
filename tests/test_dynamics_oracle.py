"""The RKMK4 step against the same scheme in 50-digit arithmetic.

The other checks of the step compare it with itself: the stacked step with
the float loop, bit for bit, and both with their order of convergence. This
one shares no arithmetic with them. mpmath runs the Munthe-Kaas RK4 scheme
that dynamics._advance documents (the same stages, the same truncated
dexpinv, the same Rodrigues exponential and the same full and partial steps)
at 50 digits, from the same float attitude, rate, inertia and potential. The
difference is then the float routine's own rounding, which grows by a few
eps per step: each step must stay within STEP_BOUND eps per step taken,
times 1 for the attitude's entries and times the rate scale, max(1, |w|),
for the rate. The largest errors measured on draws like these, over 1,200
bodies of 3 to 7 steps, 200 for each inertia and potential, were 1.5 eps
per step for the attitude and 1.33 for the rate, with a full or
axisymmetric inertia, whose change into and out of its principal frame
adds its rounding, and 0.5 and 0.34 in principal axes; STEP_BOUND is 4.
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from attkit import dynamics, so3  # noqa: E402
from attkit.dynamics import InertiaSpec, linear_potential, zero_potential  # noqa: E402

EPS = np.finfo(float).eps
STEP_BOUND = 4.0


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _exp(v):
    # exp(hat(v)) = I + sin(t)/t hat(v) + (1 - cos(t))/t^2 hat(v)^2
    X = mp.matrix([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    t = mp.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    if t == 0:
        return mp.eye(3)
    return mp.eye(3) + (mp.sin(t) / t) * X + ((1 - mp.cos(t)) / t**2) * (X * X)


def _steps_50_digits(K, A, C, w, span, h):
    """(C, w) after _advance's steps over span, each stage at 50 digits: K the
    classical inertia, A the linear potential's gradient (None for a free
    body), C and w one body's float attitude and rate."""
    n_full = int(math.floor(span / h + 1e-12))
    rem = span - n_full * h  # the float step lengths _advance takes
    if rem <= 1e-12 * max(1.0, abs(span)):
        rem = 0.0
    with mp.workdps(50):
        K = mp.matrix(K.tolist())
        K_inv = K**-1
        G = None if A is None else mp.matrix(A.tolist())
        C = mp.matrix(C.tolist())
        w = [mp.mpf(x) for x in w]

        def rate(X, u):  # l: K l = K u x u + vee(G^T X - X^T G)
            d = _cross(list(K * mp.matrix(u)), u)
            if G is not None:
                P = G.T * X
                d = [d[0] + P[2, 1] - P[1, 2], d[1] + P[0, 2] - P[2, 0], d[2] + P[1, 0] - P[0, 1]]
            return list(K_inv * mp.matrix(d))

        for step in [h] * n_full + ([rem] if rem > 0.0 else []):
            f = mp.mpf(step)
            l = rate(C, w)
            a = w
            t, q = list(a), list(l)
            for frac, weight in ((f / 2, 2), (f / 2, 2), (f, 1)):
                s = [frac * x for x in a]
                u = [wi + frac * li for wi, li in zip(w, l)]
                e = _cross(s, u)
                a = [ui + ei / 2 + ci / 12 for ui, ei, ci in zip(u, e, _cross(s, e))]
                l = rate(C * _exp(s), u)
                t = [ti + weight * ai for ti, ai in zip(t, a)]
                q = [qi + weight * li for qi, li in zip(q, l)]
            C = C * _exp([f / 6 * x for x in t])
            w = [wi + f / 6 * qi for wi, qi in zip(w, q)]
        return np.array(C.tolist(), dtype=float), np.array([float(x) for x in w])


def _bodies(rng, B):
    # B attitudes, and rates of norm 0.5 to 3 in random directions
    C = np.array([so3.random_rotation(rng) for _ in range(B)])
    w = rng.normal(size=(B, 3))
    w *= rng.uniform(0.5, 3.0, size=(B, 1)) / np.linalg.norm(w, axis=1, keepdims=True)
    return C, w


def _full_inertia(rng, axisymmetric=False):
    # In a random frame; axisymmetric: two equal second moments, a degenerate
    # eigenspace in which the principal axes are any orthonormal pair.
    Q = so3.random_rotation(rng)
    d = rng.uniform(1.0, 3.0, size=3)
    if axisymmetric:
        d[1] = d[0]
    S = Q @ np.diag(d) @ Q.T
    return 0.5 * (S + S.T)


def _case(inertia, potential, seed):
    rng = np.random.default_rng(seed)
    S = (np.diag([1.0, 2.0, 3.0]) if inertia == "principal"
         else _full_inertia(rng, axisymmetric=inertia == "axisymmetric"))
    A = rng.normal(0.0, 0.5, size=(3, 3)) if potential == "linear" else None
    pot = zero_potential() if A is None else linear_potential(A)
    return InertiaSpec(S), pot, A


@pytest.mark.parametrize("potential", ["free", "linear"])
@pytest.mark.parametrize("inertia", ["principal", "full", "axisymmetric"])
def test_step_matches_the_50_digit_scheme(inertia, potential):
    # Four full steps of 0.05 s and a partial one of 0.03 s: at 3 rad/s a
    # step turns the body by up to 0.15 rad. One body on floats, and three
    # stacked, each against its own 50-digit run.
    spec, pot, A = _case(inertia, potential, 47)
    C, w = _bodies(np.random.default_rng(48), 3)
    span, h, steps = 0.23, 0.05, 5
    C_all, w_all = dynamics._advance(spec, pot, C, tuple(w.T), span, h)
    for k in range(3):
        C_ref, w_ref = _steps_50_digits(spec.classical, A, C[k], w[k], span, h)
        scale = max(1.0, float(np.abs(w[k]).max()))
        C1, w1 = dynamics._advance(spec, pot, C[k], w[k].tolist(), span, h)
        for got_C, got_w in ((C1, w1), (C_all[k], [x[k] for x in w_all])):
            err_C = np.abs(got_C - C_ref).max() / (EPS * steps)
            err_w = np.abs(np.array(got_w) - w_ref).max() / (EPS * steps * scale)
            assert err_C <= STEP_BOUND and err_w <= STEP_BOUND, (err_C, err_w)

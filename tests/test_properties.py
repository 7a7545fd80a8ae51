"""Property tests for the single implementations of the core operations.

Runs are derandomized so the suite is reproducible; each property draws a
few dozen examples.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from attkit import dynamics, so3, wahba  # noqa: E402
from attkit.errors import AttKitError, ReflectionProfile, ShapeMismatch, SingularProfile  # noqa: E402
from attkit.dynamics import (  # noqa: E402
    BodyState,
    InertiaSpec,
    IntegratorConfig,
    PotentialModel,
    linear_potential,
    propagate,
    zero_potential,
)
from attkit.filters import (  # noqa: E402
    FilterConfig,
    MeasurementBatch,
    run_filter,
    update_attitude,
    update_omega_no_gyro,
    update_omega_with_gyro,
)
from attkit.simulate import (  # noqa: E402
    NoiseSpec,
    ScenarioSpec,
    clustered_references,
    gen_batches_from_truth,
    gen_truth,
    gen_vector_measurements,
    make_rng,
    simulate_scenario,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

unit = st.floats(-1.0, 1.0)
vec3 = st.tuples(unit, unit, unit)
rotation_vector = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)
# log10 eigenvalues of SPD weights down to 1e-6: equal draws give repeated
# eigenvalues, small ones nearly singular weights.
log_eigs = st.tuples(*[st.floats(-6.0, 0.0)] * 3)
EPS = np.finfo(float).eps


def _rotation(r):
    return so3.exp_so3(so3.hat(r))


def _spd(r, eigs):
    Q = _rotation(r)
    W = Q @ np.diag(10.0 ** np.array(eigs)) @ Q.T
    return 0.5 * (W + W.T)


def _sylvester_cond(K):
    # Condition number of the 3-vector form tr(K) I - K of K X + X K = M.
    return np.linalg.cond(np.trace(K) * np.eye(3) - K)


@SETTINGS
@given(rotation_vector, st.tuples(*[st.floats(0.0, 6.0)] * 3), vec3)
def test_skew_sylvester_solve_matches_kronecker_oracle(r, log_eigs, m):
    Q = _rotation(r)
    K = Q @ np.diag(10.0 ** np.array(log_eigs)) @ Q.T
    K = 0.5 * (K + K.T)
    X = so3.solve_skew_sylvester(K, m)
    # vec(K X + X K) = (I kron K + K^T kron I) vec(X), column-major vec.
    op = np.kron(np.eye(3), K) + np.kron(K.T, np.eye(3))
    oracle = np.linalg.solve(op, so3.hat(m).ravel(order="F")).reshape(3, 3, order="F")
    scale = max(np.abs(oracle).max(), 1e-300)
    assert np.abs(X + X.T).max() == 0.0
    assert np.abs(X - oracle).max() <= 1e-9 * scale


@SETTINGS
@given(
    rotation_vector,
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.sampled_from([1e-3, 2e-3, 5e-3]),
    st.integers(0, 60),
    st.integers(0, 60),
    st.one_of(st.none(), st.tuples(*[unit] * 9)),
)
def test_propagation_composes_at_step_aligned_times(r, w, h, na, nb, coeff):
    inertia = InertiaSpec(np.diag([1.0, 2.0, 3.0]))
    pot = zero_potential() if coeff is None else linear_potential(np.reshape(coeff, (3, 3)))
    cfg = IntegratorConfig(step=h)
    a, b = na * h, (na + nb) * h
    start = BodyState(0.0, _rotation(r), so3.hat(w))
    direct = propagate(start, inertia, pot, b, cfg)
    split = propagate(propagate(start, inertia, pot, a, cfg), inertia, pot, b, cfg)
    assert np.abs(split.C - direct.C).max() <= 1e-12
    assert np.abs(split.Omega - direct.Omega).max() <= 1e-12


@st.composite
def second_moments(draw):
    """An SPD second moment in a random frame: eigenvalues from 0.1 to 3,
    two of them equal (axisymmetric), all three within 1e-9 of each other
    (near-spherical), or one 1e-9 to 1e-4 of another (a near-flat body,
    whose classical moments are near the triangle inequality's boundary)."""
    kind = draw(st.sampled_from(["random", "axisymmetric", "near_spherical", "flat"]))
    s = np.array(draw(st.tuples(*[st.floats(0.1, 3.0)] * 3)))
    if kind == "axisymmetric":
        s[1] = s[0]
    elif kind == "near_spherical":
        s = s[0] * (1.0 + np.array(draw(st.tuples(*[st.floats(-1e-9, 1e-9)] * 3))))
    elif kind == "flat":
        s[2] = s[0] * 10.0 ** draw(st.floats(-9.0, -4.0))
    return _spd(draw(rotation_vector), np.log10(s))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(second_moments())
def test_principal_frame_is_a_proper_rotation_that_diagonalizes_k(S):
    # Measured over 20,000 such draws: 9 eps for R^T R and det R, 3.6 eps |K|
    # off the diagonal of R^T K R, and 9.4 eps |K| from the moments on it.
    spec = InertiaSpec(S)
    K, R, k = spec.classical, spec.axes, spec.moments
    hypothesis.assume(R is not None)  # a diagonal K: the test below
    scale = np.abs(K).max()
    assert np.abs(R.T @ R - np.eye(3)).max() <= 16 * EPS
    assert abs(np.linalg.det(R) - 1.0) <= 16 * EPS
    D = R.T @ K @ R
    assert np.abs(D - np.diag(np.diag(D))).max() <= 8 * EPS * scale
    assert np.abs(np.diag(D) - k).max() <= 16 * EPS * scale


@SETTINGS
@hypothesis.example((3.0, 1.0, 2.0))
@given(st.tuples(*[st.floats(1e-3, 1e3)] * 3))
def test_diagonal_k_keeps_its_frame_and_its_diagonal(s):
    spec = InertiaSpec(np.diag(s))
    k = spec.moments
    assert spec.axes is None
    assert np.array_equal(k, spec.classical.diagonal())
    j = [(k[1] - k[2]) / k[0], (k[2] - k[0]) / k[1], (k[0] - k[1]) / k[2]]
    assert spec._euler.ravel().tolist() == j + (1.0 / k).tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(second_moments(), rotation_vector, vec3, st.one_of(st.none(), st.tuples(*[unit] * 9)))
def test_euler_rhs_is_the_classical_euler_equation(S, r, w, coeff):
    # euler_rhs evaluates Euler's equation in K's principal frame, as the
    # integrator does; the classical form solves K l = K w x w + m in the body
    # frame. Over 40,000 such draws the two differed by at most 6.6 eps
    # cond(K) (max|w|^2 + max|m| / min k).
    spec, w = InertiaSpec(S), np.array(w)
    K, C = spec.classical, _rotation(r)
    A = np.zeros((3, 3)) if coeff is None else np.reshape(coeff, (3, 3))
    _, Om_dot = dynamics.euler_rhs(BodyState(0.0, C, so3.hat(w)), spec, linear_potential(A))
    m = so3.vee(A.T @ C - C.T @ A)
    oracle = np.linalg.solve(K, np.cross(K @ w, w) + m)
    scale = np.linalg.cond(K) * (np.abs(w).max() ** 2 + np.abs(m).max() / spec.moments.min())
    assert np.abs(so3.vee(Om_dot) - oracle).max() <= 16 * EPS * scale


def _oracle_step(inertia, potential, classical=False):
    # The componentwise RKMK4 step as one function per stage: the
    # right-hand side f, the step, and _dexpinv_tuple. It returns the
    # increment th of C exp(hat(th)) and the new rate; the step loop in
    # dynamics._advance writes the same float operations out in one loop.
    # f is Euler's equation in principal axes, l_i = j_i w_{i+1} w_{i+2} +
    # m_i / k_i, as _advance evaluates it for a diagonal K. A declared
    # gradient's moment takes the loop's closed form, from M = G^T C at the
    # step's start c and the stage's increment s; an undeclared one, and the
    # classical reference's, is taken at C exp(hat(s)). With classical, f
    # is K l = K w x w + m in any frame, K w and K^-1 (K w x w + m) with
    # nine products each: the reference of the long-horizon drift test.
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = inertia.classical.tolist()
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = np.linalg.inv(inertia.classical).tolist()
    k0, k1, k2 = inertia.moments.tolist()
    j0, j1, j2, r0, r1, r2 = (k1 - k2) / k0, (k2 - k0) / k1, (k0 - k1) / k2, 1 / k0, 1 / k1, 1 / k2
    g = None if potential.coeff is None else potential.coeff.ravel().tolist()
    free = g is not None and not any(g)

    def f(w0, w1, w2, c, s=None):
        c0 = c1 = c2 = 0.0
        if g is not None and not free and not classical:
            # The loop's closed form: the moment at C exp(hat(s)) from M = G^T C,
            # with the grouped step's array shapes; one body's as a (3, 1) stack,
            # whose values the float loop must equal bit for bit.
            terms = dynamics._moment_terms(np.reshape(g, (3, 3, 1, 1)), np.reshape(c, (9, -1)))
            d = terms[1] if s is None else dynamics._stage_moment(terms, np.reshape(s, (3, -1)))
            c0, c1, c2 = d if getattr(w0, "ndim", 0) else d.ravel().tolist()
        elif not free:
            if s is not None:
                c = dynamics._rotate(c, s)
            # vee(G^T C - C^T G) from the off-diagonal entries of G^T C.
            g00, g01, g02, g10, g11, g12, g20, g21, g22 = (
                g if g is not None else dynamics._gradient_components(potential.gradient, c)
            )
            x00, x01, x02, x10, x11, x12, x20, x21, x22 = c
            c0 = (g02 * x01 + g12 * x11 + g22 * x21) - (g01 * x02 + g11 * x12 + g21 * x22)
            c1 = (g00 * x02 + g10 * x12 + g20 * x22) - (g02 * x00 + g12 * x10 + g22 * x20)
            c2 = (g01 * x00 + g11 * x10 + g21 * x20) - (g00 * x01 + g10 * x11 + g20 * x21)
        if not classical:
            l0, l1, l2 = j0 * (w1 * w2), j1 * (w2 * w0), j2 * (w0 * w1)
            return (l0, l1, l2) if free else (l0 + r0 * c0, l1 + r1 * c1, l2 + r2 * c2)
        m0 = k00 * w0 + k01 * w1 + k02 * w2
        m1 = k10 * w0 + k11 * w1 + k12 * w2
        m2 = k20 * w0 + k21 * w1 + k22 * w2
        c0 += m1 * w2 - m2 * w1
        c1 += m2 * w0 - m0 * w2
        c2 += m0 * w1 - m1 * w0
        return (
            i00 * c0 + i01 * c1 + i02 * c2,
            i10 * c0 + i11 * c1 + i12 * c2,
            i20 * c0 + i21 * c1 + i22 * c2,
        )

    def step(c, w, h):
        w0, w1, w2 = w
        hh = 0.5 * h
        l1 = f(w0, w1, w2, c)
        s0, s1, s2 = hh * w0, hh * w1, hh * w2
        u0, u1, u2 = w0 + hh * l1[0], w1 + hh * l1[1], w2 + hh * l1[2]
        a2 = _dexpinv_tuple(s0, s1, s2, u0, u1, u2)
        l2 = f(u0, u1, u2, c, (s0, s1, s2))
        s0, s1, s2 = hh * a2[0], hh * a2[1], hh * a2[2]
        u0, u1, u2 = w0 + hh * l2[0], w1 + hh * l2[1], w2 + hh * l2[2]
        a3 = _dexpinv_tuple(s0, s1, s2, u0, u1, u2)
        l3 = f(u0, u1, u2, c, (s0, s1, s2))
        s0, s1, s2 = h * a3[0], h * a3[1], h * a3[2]
        u0, u1, u2 = w0 + h * l3[0], w1 + h * l3[1], w2 + h * l3[2]
        a4 = _dexpinv_tuple(s0, s1, s2, u0, u1, u2)
        l4 = f(u0, u1, u2, c, (s0, s1, s2))
        sixth = h / 6.0
        th = (
            sixth * (w0 + 2.0 * a2[0] + 2.0 * a3[0] + a4[0]),
            sixth * (w1 + 2.0 * a2[1] + 2.0 * a3[1] + a4[1]),
            sixth * (w2 + 2.0 * a2[2] + 2.0 * a3[2] + a4[2]),
        )
        wn = (
            w0 + sixth * (l1[0] + 2.0 * l2[0] + 2.0 * l3[0] + l4[0]),
            w1 + sixth * (l1[1] + 2.0 * l2[1] + 2.0 * l3[1] + l4[1]),
            w2 + sixth * (l1[2] + 2.0 * l2[2] + 2.0 * l3[2] + l4[2]),
        )
        return th, wn

    return step


def _dexpinv_tuple(s0, s1, s2, w0, w1, w2):
    # Algebra-coordinate derivative for C = C0 exp(hat(s)) under the
    # body-frame kinematics Cdot = C hat(w):
    # s' = w + 1/2 s x w + 1/12 s x (s x w), truncated at the order an RK4
    # scheme requires. The plus sign on the first commutator matters; the
    # minus variant drops the scheme to 2nd order.
    c0 = s1 * w2 - s2 * w1
    c1 = s2 * w0 - s0 * w2
    c2 = s0 * w1 - s1 * w0
    d0 = s1 * c2 - s2 * c1
    d1 = s2 * c0 - s0 * c2
    d2 = s0 * c1 - s1 * c0
    return (
        w0 + 0.5 * c0 + d0 / 12.0,
        w1 + 0.5 * c1 + d1 / 12.0,
        w2 + 0.5 * c2 + d2 / 12.0,
    )


def _step_by_step(step, C, w, span, h):
    # Every step followed by its own attitude update C exp(th), the library's
    # one update of the attitude's components, with the span split into steps
    # as _advance splits it.
    n_full = int(math.floor(span / h + 1e-12))
    rem = span - n_full * h
    c = dynamics._components(C)
    for dt in [h] * n_full + ([rem] if rem > 1e-12 * max(1.0, abs(span)) else []):
        th, w = step(c, w, dt)
        c = dynamics._rotate(c, th)
    return so3._matrix(c), w


_G = np.array([[0.3, -0.2, 0.1], [0.0, 0.4, -0.3], [0.2, 0.1, -0.5]])
_POTENTIALS = {
    "free": zero_potential(),
    "linear": linear_potential(_G),
    # Undeclared: a gravity-gradient-like V = 1/2 trace(C^T P C D), whose
    # gradient P C D is taken at every stage attitude.
    "callable": PotentialModel(
        value=lambda C: 0.5 * np.trace(C.T @ (_G + _G.T) @ C @ np.diag([1.0, 2.0, 3.0])),
        gradient=lambda C: (_G + _G.T) @ C @ np.diag([1.0, 2.0, 3.0]),
    ),
}


@SETTINGS
@given(
    st.tuples(*[st.floats(1.0, 3.0)] * 3),
    rotation_vector,
    # One body (the first rate, as floats); B trials; or B trials whose rates
    # are stacked while their attitude is still shared, as in a campaign
    # whose noise has reached only the rates.
    st.sampled_from(["one", "stacked", "shared attitude"]),
    st.lists(st.tuples(vec3, st.floats(-8.0, 0.5)), min_size=1, max_size=4),
    st.floats(1e-4, 1e-2),
    st.integers(1, 120),
    # No partial step, a tiny one (its increment takes the series branch of
    # the exponential beside larger ones), or an ordinary one.
    st.one_of(st.just(0.0), st.floats(1e-7, 1e-5), st.floats(0.05, 0.95)),
    st.sampled_from(sorted(_POTENTIALS)),
)
def test_advance_equals_the_step_by_step_attitude_update(
    eigs, r, layout, rates, h, n, frac, potential
):
    # Slow rates, from 1e-8 rad/s up, give increments below the series
    # branch's 1e-6 threshold in the same stack as fast ones.
    inertia = InertiaSpec(np.diag(eigs))
    pot = _POTENTIALS[potential]
    if potential != "free":
        n = min(n, 40)  # a potential's stages cost more: shorter spans
    step = _oracle_step(inertia, pot)
    w = np.array([np.array(v) * 10.0**m for v, m in rates])
    C, w = _rotation(r), (w[0].tolist() if layout == "one" else tuple(w.T))
    if layout == "stacked":
        C = np.array([_rotation(np.multiply(r, k + 1) / 4) for k in range(len(rates))])
    span = (n + frac) * h
    C_adv, w_adv = dynamics._advance(inertia, pot, C, w, span, h)
    C_ref, w_ref = _step_by_step(step, C, w, span, h)
    assert np.array_equal(C_adv, C_ref)
    assert np.array_equal(np.asarray(w_adv), np.asarray(w_ref))
    if layout != "one":
        # Each trial of a stack advances bit for bit as that body alone.
        for k in range(len(rates)):
            C1, w1 = dynamics._advance(
                inertia, pot, C if C.ndim == 2 else C[k], [float(x[k]) for x in w], span, h
            )
            assert np.array_equal(C_adv[k], C1)
            assert [x[k] for x in w_adv] == list(w1)


@pytest.mark.parametrize("potential", ["free", "linear"])
def test_principal_frame_steps_stay_within_1e_12_of_the_classical_frame_over_20000(potential):
    # A body like the benchmark's filter_free one: a second moment with
    # eigenvalues from U(1, 3) in a random frame, a rate of 0.8 to 1.5 rad/s,
    # free or in a linear potential with N(0, 0.5^2) entries. _advance steps
    # it in its principal frame; the reference steps it in the body frame with
    # K and K^-1, nine products each. Over 20,000 steps (20 s at h = 1e-3) the
    # change of frame may move C and w by rounding only: ROADMAP's 1e-12 rule.
    rng = np.random.default_rng(49)
    frame = so3.random_rotation(rng)
    S = frame @ np.diag(rng.uniform(1.0, 3.0, size=3)) @ frame.T
    inertia = InertiaSpec(0.5 * (S + S.T))
    A = rng.normal(0.0, 0.5, size=(3, 3))
    pot = zero_potential() if potential == "free" else linear_potential(A)
    C, w = so3.random_rotation(rng), rng.normal(size=3)
    w = (w * rng.uniform(0.8, 1.5) / np.linalg.norm(w)).tolist()
    assert inertia.axes is not None
    C_adv, w_adv = dynamics._advance(inertia, pot, C, w, 20.0, 1e-3)
    C_ref, w_ref = _step_by_step(_oracle_step(inertia, pot, classical=True), C, w, 20.0, 1e-3)
    assert np.abs(C_adv - C_ref).max() <= 1e-12
    assert np.abs(np.subtract(w_adv, w_ref)).max() <= 1e-12


# Rotation angles from 1e-9 to pi, log-uniform, and around the exponential's
# series threshold at 1e-6.
angle = st.one_of(
    st.floats(-9.0, math.log10(math.pi)).map(lambda e: min(10.0**e, math.pi)),
    st.floats(5e-7, 2e-6),
)


def _axis_angle(axis, theta):
    u = np.array(axis)
    n = np.linalg.norm(u)
    hypothesis.assume(n > 1e-3)
    return (theta * u / n).tolist()


@SETTINGS
@given(vec3, angle)
def test_component_exponential_lands_in_so3(axis, theta):
    # Residuals in exact rational arithmetic on the rounded entries. Over 4M
    # random draws the worst orthogonality residual was 6.7 eps.
    E = [Fraction(e) for e in so3._exp_vec(_axis_angle(axis, theta)).ravel().tolist()]
    rows = [E[0:3], E[3:6], E[6:9]]
    for i in range(3):
        for j in range(3):
            dot = sum(rows[k][i] * rows[k][j] for k in range(3))
            assert abs(dot - (i == j)) <= 8 * Fraction(EPS)
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert abs(det - 1) <= 8 * Fraction(EPS)


@SETTINGS
@given(rotation_vector, vec3, angle)
def test_component_exponential_matches_exp_vec(r, axis, theta):
    # One Rodrigues formula: the attitude update C exp(hat(w)) is C times
    # _exp_vec(w), each entry summed left to right in floats.
    w = _axis_angle(axis, theta)
    C, E = _rotation(r).tolist(), so3._exp_vec(w).tolist()
    products = [sum((C[i][k] * E[k][j] for k in range(3)), 0.0) for i in range(3) for j in range(3)]
    assert list(so3._rotate(so3._components(C), w)) == products


@SETTINGS
@given(st.lists(st.tuples(rotation_vector, vec3, angle), min_size=1, max_size=8))
def test_stacked_component_exponential_equals_one_rotation(draws):
    Cs = np.array([_rotation(r) for r, _, _ in draws])
    ws = np.array([_axis_angle(axis, theta) for _, axis, theta in draws])
    stacked = so3._rotate(so3._components(Cs), ws.T)
    for k, w in enumerate(ws.tolist()):
        assert stacked[:, k].tolist() == list(so3._rotate(so3._components(Cs[k]), w))


@SETTINGS
@given(
    st.tuples(*[st.floats(1.0, 3.0)] * 3),
    rotation_vector,
    rotation_vector,
    st.tuples(*[st.floats(-1.5, 1.5)] * 3),
    st.tuples(*[unit] * 9),
)
def test_declared_and_undeclared_linear_potentials_agree(eigs, q, r, w, coeff):
    # One potential trace(A^T C), with its constant gradient declared and
    # without: the integrator then calls gradient at every stage attitude.
    A = np.reshape(coeff, (3, 3))
    inertia = InertiaSpec(_spd(q, np.log10(eigs)))
    declared = linear_potential(A)
    undeclared = PotentialModel(value=declared.value, gradient=lambda C: A)
    start = BodyState(0.0, _rotation(r), so3.hat(w))
    ends = [propagate(start, inertia, pot, 0.3) for pot in (declared, undeclared)]
    assert np.abs(ends[0].C - ends[1].C).max() <= 1e-12
    assert np.abs(ends[0].Omega - ends[1].Omega).max() <= 1e-12

    scn = ScenarioSpec(
        refs=clustered_references(5, 0.3, axis=(0.3, -0.4, 0.87), rng=make_rng(7)),
        inertia=inertia, potential=declared, init=start, schedule=0.04 * np.arange(1, 5),
        noise=NoiseSpec(sigma_vec=0.002, sigma_gyro=0.005),
    )
    batches = gen_batches_from_truth(gen_truth(scn), scn, make_rng(8), np.eye(3))
    for mode in ("no_gyro", "with_gyro"):
        runs = [run_filter(None, batches, inertia, pot, FilterConfig(), mode=mode)
                for pot in (declared, undeclared)]
        for a, b in zip(*runs):
            for name in ("C_minus", "C_plus", "Omega_minus", "Omega_plus"):
                assert np.abs(getattr(a, name) - getattr(b, name)).max() <= 1e-12


def _nearest_rotation(M):
    # The one projection onto SO(3): the polar factor of profile M, which
    # needs det M > 0.
    return wahba.solve_attitude(wahba.profile_from_matrix(M))[0]


@SETTINGS
@given(st.tuples(*[st.floats(-10.0, 10.0)] * 9))
def test_nearest_rotation_lands_in_so3(entries):
    M = np.reshape(entries, (3, 3))
    s = np.linalg.svd(M, compute_uv=False)
    try:
        det = wahba.profile_from_matrix(M).det
    except SingularProfile:  # below the DET_RTOL floor, so below SQRT_EIG_RTOL's
        assert not s[2] > 1e-6 * s[0]
        return
    # A reflection is refused before the SQRT_EIG_RTOL floor is checked.
    if det < 0.0:
        with pytest.raises(ReflectionProfile):
            _nearest_rotation(M)
        return
    # s3^2 at the SQRT_EIG_RTOL floor: no unique nearest rotation
    if not s[2] > 1e-6 * s[0]:
        with pytest.raises(SingularProfile):
            _nearest_rotation(M)
        return
    R = _nearest_rotation(M)
    assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12


@SETTINGS
@given(rotation_vector)
def test_nearest_rotation_fixes_rotations(r):
    C = _rotation(r)
    assert np.abs(_nearest_rotation(C) - C).max() <= 1e-14


@SETTINGS
@given(rotation_vector, vec3, st.floats(1e-10, math.pi - 1e-9))
def test_principal_angle_reads_back_the_rotation_angle(r, axis, theta):
    u = np.array(axis)
    n = np.linalg.norm(u)
    hypothesis.assume(n > 1e-3)
    C = _rotation(r)
    assert abs(so3.principal_angle(C, C @ _rotation(theta * u / n)) - theta) <= 1e-14


def _vector_set_svd_only(V, unit=False, name="vector set"):
    # check_vector_set as it was before the Gram screen: every set through
    # the SVD.
    V = np.asarray(V, dtype=float)
    if V.ndim < 2 or V.shape[-2] != 3 or V.shape[-1] < 3:
        raise ShapeMismatch(f"{name}: expected 3xn with n >= 3, got {V.shape}")
    if not np.isfinite(V).all():
        raise ValueError(f"{name}: non-finite entries")
    s = np.linalg.svd(V, compute_uv=False)
    st = s.T
    bad = so3._first_failure(st[2] >= wahba.RANK_RTOL * st[0], s)
    if bad is not None:
        raise SingularProfile(
            f"{name}: rank deficient (singular values {bad.tolist()}); problem is ill-posed"
        )
    return V


def _vector_set_outcome(check, V):
    # With numpy's overflow and invalid warnings off, as build_profile runs
    # the check: on its own, an infinite entry can warn from the Gram product.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return check(V, name="set")
        except (AttKitError, ValueError) as exc:
            return type(exc), str(exc)


@st.composite
def vector_sets(draw):
    """One 3xn set or a stack of them: random, near rank deficient (s3/s1
    from 1e-9 to 1e-3) or with a NaN or infinite entry, and half of them
    scaled by 1e-150 to 1e150."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, stack = draw(st.integers(3, 12)), draw(st.sampled_from([None, 1, 2, 5]))
    sets = rng.normal(size=(stack or 1, 3, n))
    k = draw(st.integers(0, (stack or 1) - 1))  # the set of a stack drawn specially
    kind = draw(st.sampled_from(["random", "near_deficient", "nonfinite"]))
    if kind == "near_deficient":
        ratio = 10.0 ** draw(st.floats(-9.0, -3.0))
        U, W = np.linalg.qr(rng.normal(size=(3, 3)))[0], np.linalg.qr(rng.normal(size=(n, 3)))[0]
        sets[k] = U @ np.diag([1.0, rng.uniform(ratio, 1.0), ratio]) @ W.T
    elif kind == "nonfinite":
        sets[k, rng.integers(3), rng.integers(n)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if draw(st.booleans()):
        sets *= 10.0 ** draw(st.floats(-150.0, 150.0))
    return sets[0] if stack is None else sets


@settings(max_examples=400, deadline=None, derandomize=True)
@given(vector_sets())
def test_screened_vector_set_check_matches_the_svd_only_check(V):
    expected = _vector_set_outcome(_vector_set_svd_only, V)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        got = _vector_set_outcome(wahba.check_vector_set, V)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert np.array_equal(got, expected)
    if not svd.called:
        # The screen vouched for every set: s3/s1 >= 10 RANK_RTOL, up to rounding.
        s = np.linalg.svd(V, compute_uv=False).T
        assert (s[2] >= 10.0 * wahba.RANK_RTOL * (1.0 - 1e-9) * s[0]).all()


@SETTINGS
@given(rotation_vector, rotation_vector, st.floats(0.0, 5.9), st.floats(0.0, 5.9))
def test_solve_matches_svd_procrustes_across_conditioning(r1, r2, a, b):
    # Singular values 1 >= s2 >= s3 down to s3 = 10**-5.9, just above the
    # SQRT_EIG_RTOL floor on s3**2 (and the DET_RTOL floor on s2 s3).
    s = np.array([1.0, 10.0 ** -min(a, b), 10.0 ** -max(a, b)])
    L = _rotation(r1) @ np.diag(s) @ _rotation(r2).T
    C, _ = wahba.solve_attitude(wahba.profile_from_matrix(L))
    U, _, Vt = np.linalg.svd(L)
    # The solve never forms L L^T, so its error grows only linearly in the
    # condition number: test_wahba_oracle's bound.
    assert np.abs(C - U @ Vt).max() <= EPS * (32.0 + 8.0 * s[0] / s[2])


@SETTINGS
@given(rotation_vector, rotation_vector, vec3, log_eigs)
def test_no_gyro_rate_update_fixes_the_rate_without_correction(r, q, w, eigs):
    C, Pi, Om = _rotation(r), _spd(q, eigs), so3.hat(w)
    out = update_omega_no_gyro(C, C, Om, Pi)
    assert np.abs(out - Om).max() <= 16.0 * EPS * _sylvester_cond(Pi) * np.abs(Om).max()


@SETTINGS
@given(rotation_vector, log_eigs, rotation_vector, log_eigs, vec3)
def test_gyro_rate_update_fixes_equal_rates(qx, ex, qg, eg, w):
    X, Gamma, Om = _spd(qx, ex), _spd(qg, eg), so3.hat(w)
    out = update_omega_with_gyro(Om, Om, X, Gamma)
    assert np.abs(out - Om).max() <= 16.0 * EPS * _sylvester_cond(X + Gamma) * np.abs(Om).max()


@SETTINGS
@given(rotation_vector, rotation_vector, rotation_vector, vec3, st.integers(0, 2**32 - 1))
def test_attitude_update_is_left_equivariant(r, q, d, v, seed):
    # refs -> R refs and C- -> R C- take the profile C- Delta + sum w e b^T
    # to R L, so C+ -> R C+. Delta C- in place of C- Delta would not follow:
    # this Delta, with distinct eigenvalues far apart, does not commute with R.
    R, C_minus, Delta = _rotation(r), _rotation(q), _spd(d, (0.5, 0.0, -0.5))
    rng = make_rng(seed)
    refs = clustered_references(7, 0.4, axis=(0.3, -0.4, 0.87), rng=rng)
    # Noisy measurements of an attitude the prior misses by up to 0.5 rad
    truth = BodyState(0.0, C_minus @ _rotation(0.3 * np.array(v)), np.zeros((3, 3)))
    body = gen_vector_measurements(truth, refs, NoiseSpec(sigma_vec=0.01), rng)
    weights = rng.uniform(0.5, 2.0, 7)
    cfg = FilterConfig(Delta=Delta)
    C_plus = update_attitude(C_minus, MeasurementBatch(0.0, refs, body, weights), cfg)
    moved = update_attitude(R @ C_minus, MeasurementBatch(0.0, R @ refs, body, weights), cfg)
    assert np.abs(moved - R @ C_plus).max() <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rotation_vector, rotation_vector, st.integers(0, 2**32 - 1))
def test_filter_is_left_equivariant(r, q, seed):
    # refs -> R refs and A -> R A, with the same body vectors and gyro
    # readings, take every C- and C+ to R C- and R C+ and leave Omega- and
    # Omega+ as they were, in both modes. The weights are distinct and far
    # from isotropic, so a weight applied on the wrong side breaks this.
    R = _rotation(r)
    rng = make_rng(seed)
    frames = rng.uniform(-math.pi, math.pi, size=(5, 3))
    A = rng.normal(0.0, 0.5, size=(3, 3))
    cfg = FilterConfig(
        Delta=_spd(frames[0], (0.5, 0.0, -0.5)),
        Pi=_spd(frames[1], (0.6, 0.1, -0.4)),
        Gamma=_spd(frames[2], (0.3, -0.2, -0.7)),
        integrator=IntegratorConfig(step=5e-3),
    )
    scn = ScenarioSpec(
        refs=clustered_references(7, 0.4, axis=(0.3, -0.4, 0.87), rng=rng),
        inertia=InertiaSpec(_spd(frames[3], (0.4, 0.2, 0.0))),
        potential=linear_potential(A),
        init=BodyState(0.0, _rotation(q), so3.hat(rng.normal(size=3))),
        schedule=0.05 * np.arange(1, 11),
        noise=NoiseSpec(sigma_vec=0.01, sigma_gyro=0.01, seed=seed),
    )
    _, batches = simulate_scenario(scn, omega_weight=_spd(frames[4], (1.0, 0.6, 0.2)))
    moved = [MeasurementBatch(b.t, R @ b.refs, b.body, b.weights, b.omega_meas, b.omega_weight)
             for b in batches]
    for mode in ("no_gyro", "with_gyro"):
        ests = run_filter(None, batches, scn.inertia, scn.potential, cfg, mode)
        others = run_filter(None, moved, scn.inertia, linear_potential(R @ A), cfg, mode)
        for est, other in zip(ests, others, strict=True):
            assert np.abs(other.C_minus - R @ est.C_minus).max() <= 1e-12
            assert np.abs(other.C_plus - R @ est.C_plus).max() <= 1e-12
            assert np.abs(other.Omega_minus - est.Omega_minus).max() <= 1e-12
            assert np.abs(other.Omega_plus - est.Omega_plus).max() <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rotation_vector, rotation_vector, st.integers(0, 2**32 - 1))
def test_propagation_is_left_equivariant(r, q, seed):
    # C -> R C and A -> R A leave the moment G^T C - C^T G as it was, so
    # the attitude goes to R C and the rate stays, free or in the potential.
    # The inertia's eigenvalues (4, 1.26, 0.4) are far apart, so a moment
    # or a kinematics taken in the wrong frame breaks this.
    R = _rotation(r)
    rng = make_rng(seed)
    inertia = InertiaSpec(_spd(rng.uniform(-math.pi, math.pi, size=3), (0.6, 0.1, -0.4)))
    A = rng.normal(0.0, 0.5, size=(3, 3))
    start = BodyState(0.0, _rotation(q), so3.hat(rng.normal(size=3)))
    moved = BodyState(0.0, R @ start.C, start.Omega)
    cfg = IntegratorConfig(step=5e-3)
    for pot, pot_moved in ((linear_potential(A), linear_potential(R @ A)),
                           (zero_potential(), zero_potential())):
        # 100 full steps and a partial one
        end = propagate(start, inertia, pot, 0.5021, cfg)
        other = propagate(moved, inertia, pot_moved, 0.5021, cfg)
        assert np.abs(other.C - R @ end.C).max() <= 1e-12
        assert np.abs(other.Omega - end.Omega).max() <= 1e-12


def _sym(M):
    return 0.5 * (M + M.T)


def _noisy_run(rng, q, t0=0.0):
    # A scenario in a linear potential with both noises on, its batches and a
    # filter config, whose weights are distinct and far from isotropic.
    frames = rng.uniform(-math.pi, math.pi, size=(5, 3))
    cfg = FilterConfig(
        Delta=_spd(frames[0], (0.5, 0.0, -0.5)),
        Pi=_spd(frames[1], (0.6, 0.1, -0.4)),
        Gamma=_spd(frames[2], (0.3, -0.2, -0.7)),
        integrator=IntegratorConfig(step=5e-3),
    )
    scn = ScenarioSpec(
        refs=clustered_references(7, 0.4, axis=(0.3, -0.4, 0.87), rng=rng),
        inertia=InertiaSpec(_spd(frames[3], (0.4, 0.2, 0.0))),
        potential=linear_potential(rng.normal(0.0, 0.5, size=(3, 3))),
        init=BodyState(t0, _rotation(q), so3.hat(rng.normal(size=3))),
        schedule=t0 + 0.05 * np.arange(1, 11),
        noise=NoiseSpec(sigma_vec=0.01, sigma_gyro=0.01, seed=int(rng.integers(2**32))),
    )
    _, batches = simulate_scenario(scn, omega_weight=_spd(frames[4], (1.0, 0.6, 0.2)))
    return scn, batches, cfg


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rotation_vector, rotation_vector, st.integers(0, 2**32 - 1))
def test_propagation_and_filter_are_right_equivariant(r, q, seed):
    # A body-frame change Q: S, Delta, Pi, Gamma and the gyro weight go to
    # Q^T X Q, A to A Q, and the drawn body vectors and gyro readings by Q^T.
    # Then every C goes to C Q and every Omega to Q^T Omega Q, in both modes.
    # An attitude update multiplied on the wrong side, or a weight or moment
    # taken in the wrong frame, breaks this.
    Q = _rotation(r)
    scn, batches, cfg = _noisy_run(make_rng(seed), q)
    inertia = InertiaSpec(_sym(Q.T @ scn.inertia.second_moment @ Q))
    potential = linear_potential(scn.potential.coeff @ Q)
    start = BodyState(0.0, scn.init.C @ Q, Q.T @ scn.init.Omega @ Q)
    # 100 full steps and a partial one
    end = propagate(scn.init, scn.inertia, scn.potential, 0.5021, cfg.integrator)
    other = propagate(start, inertia, potential, 0.5021, cfg.integrator)
    assert np.abs(other.C - end.C @ Q).max() <= 1e-12
    assert np.abs(other.Omega - Q.T @ end.Omega @ Q).max() <= 1e-12

    moved_cfg = FilterConfig(Delta=_sym(Q.T @ cfg.Delta @ Q), Pi=_sym(Q.T @ cfg.Pi @ Q),
                             Gamma=_sym(Q.T @ cfg.Gamma @ Q), integrator=cfg.integrator)
    moved = [MeasurementBatch(b.t, b.refs, Q.T @ b.body, b.weights, Q.T @ b.omega_meas @ Q,
                              _sym(Q.T @ b.omega_weight @ Q)) for b in batches]
    for mode in ("no_gyro", "with_gyro"):
        ests = run_filter(None, batches, scn.inertia, scn.potential, cfg, mode)
        others = run_filter(None, moved, inertia, potential, moved_cfg, mode)
        for est, other in zip(ests, others, strict=True):
            assert np.abs(other.C_minus - est.C_minus @ Q).max() <= 1e-12
            assert np.abs(other.C_plus - est.C_plus @ Q).max() <= 1e-12
            assert np.abs(other.Omega_minus - Q.T @ est.Omega_minus @ Q).max() <= 1e-12
            assert np.abs(other.Omega_plus - Q.T @ est.Omega_plus @ Q).max() <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rotation_vector, st.floats(-100.0, 100.0), st.integers(0, 2**32 - 1))
def test_simulation_and_filter_are_time_shift_invariant(q, tau, seed):
    # Shifting the initial time and every epoch by tau changes nothing but the
    # rounding of the shifted times: each span between them moves by a few
    # ulps of tau, and with it the integrator's partial steps.
    scn, batches, cfg = _noisy_run(make_rng(seed), q)
    shifted_scn, shifted, _ = _noisy_run(make_rng(seed), q, t0=tau)
    tol = 1e-12 * max(1.0, abs(tau))
    for b, c in zip(batches, shifted, strict=True):
        assert np.abs(c.body - b.body).max() <= tol
        assert np.abs(c.omega_meas - b.omega_meas).max() <= tol
    for mode in ("no_gyro", "with_gyro"):
        ests = run_filter(None, batches, scn.inertia, scn.potential, cfg, mode)
        others = run_filter(None, shifted, shifted_scn.inertia, shifted_scn.potential, cfg, mode)
        for est, other in zip(ests, others, strict=True):
            assert abs(other.t - (est.t + tau)) <= tol
            for name in ("C_minus", "C_plus", "Omega_minus", "Omega_plus"):
                assert np.abs(getattr(other, name) - getattr(est, name)).max() <= tol


@SETTINGS
@given(rotation_vector, rotation_vector, st.integers(0, 2**32 - 1))
def test_attitude_solve_is_left_equivariant(r, q, seed):
    # refs -> R refs takes the profile L = sum w e b^T to R L, so the
    # solved attitude C goes to R C.
    R = _rotation(r)
    rng = make_rng(seed)
    refs = clustered_references(7, 0.4, axis=(0.3, -0.4, 0.87), rng=rng)
    truth = BodyState(0.0, _rotation(q), np.zeros((3, 3)))
    body = gen_vector_measurements(truth, refs, NoiseSpec(sigma_vec=0.01), rng)
    weights = rng.uniform(0.5, 2.0, 7)
    C, _ = wahba.solve_attitude(wahba.build_profile(refs, weights, body))
    moved, _ = wahba.solve_attitude(wahba.build_profile(R @ refs, weights, body))
    assert np.abs(moved - R @ C).max() <= 1e-12

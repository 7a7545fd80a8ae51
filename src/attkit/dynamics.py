"""Rigid-body attitude dynamics in an attitude-dependent potential.

State is the pair (C, Omega) of a rotation matrix and a body angular
velocity in so(3). The kinematics is Cdot = C Omega and the momentum form
of Euler's equation is J(Omegadot) = [J(Omega), Omega] + moment(C), where
J(X) = S X + X S for the body's symmetric positive definite second moment
matrix S, and the moment induced by a potential V(C) with ambient gradient
G = dV/dC is G^T C - C^T G.

Propagation preserves SO(3) by construction: attitude updates are right
multiplications by exponentials of so(3) increments computed with a
4th-order Munthe-Kaas Runge-Kutta scheme, in the principal frame of the
inertia, where Euler's equation takes three products (_rate, which
euler_rhs evaluates too). One body is stepped on floats, stages 2 to 4 in
one loop written out with no call per stage; B bodies in the same loop of
one numpy call per (3, B) or (9, B) vector operation, with the same float
operations. Both form C exp(hat(th)) with so3._rotate, the one Rodrigues formula.

A stage's moment, at X = C exp(hat(s)), takes one of two forms. An
undeclared gradient is called at X, formed with so3._rotate. A declared
constant gradient G forms no X: with M = G^T C, formed once a step, the
moment is linear in exp(hat(s)) and takes the closed form of
_stage_moment: so3._rotate's Rodrigues coefficients and about 30
products, where forming X and then its moment take about 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import so3
from .errors import (NotRotation, NotSymmetricPD, PotentialGradientNotSkewCompatible,
                     ShapeMismatch, StepTooLarge)
from .so3 import _components, _rotate

__all__ = [
    "BodyState",
    "InertiaSpec",
    "IntegratorConfig",
    "PotentialModel",
    "PotentialReport",
    "euler_rhs",
    "j_apply",
    "j_solve",
    "kinetic_energy",
    "linear_potential",
    "propagate",
    "spatial_momentum",
    "validate_potential",
    "zero_potential",
]

# Guard: no single integrator step may rotate the body by more than this.
MAX_STEP_ROTATION = math.pi / 4
# Cap on span / h in one _advance call, checked before the first step, so that
# a tiny step fails at once instead of running for ages. The largest span / h
# measured: 20,000 in the tests, 2,200 in tools/cli_outputs.py, 50 in the
# benchmark's filter_free and filter_potential, 10 in montecarlo.
MAX_STEPS = 10_000_000
# A declared gradient is checked at the identity and at this rotation.
_PROBE = so3._exp_vec((0.6, -0.8, 1.1))


@dataclass(frozen=True, eq=False)
class InertiaSpec:
    """Inertia of the rigid body.

    second_moment is the symmetric positive definite matrix S entering the
    momentum operator J(X) = S X + X S (the second moment of the mass
    distribution, in kg m^2). The classical inertia matrix acting on
    axis-angle coordinates, trace(S) I - S, is cached; it is automatically
    positive definite because each of its eigenvalues is a sum of two
    eigenvalues of S. Its principal frame, where the integrator steps, is
    cached too: axes is a proper rotation R with R^T K R = diag(moments), or
    None when K is diagonal (moments: its diagonal). Moments so small that
    1/k overflows raise NotSymmetricPD.
    """

    second_moment: np.ndarray
    classical: np.ndarray = field(init=False)
    axes: np.ndarray | None = field(init=False)
    moments: np.ndarray = field(init=False)
    # The (6, 1) column of j_i = (k_{i+1} - k_{i+2}) / k_i, then 1 / k_i (see _advance)
    _euler: np.ndarray = field(init=False, repr=False)
    # R's columns and R^T's, as lists of float rows, for _times; None with axes
    _columns: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        S = so3.check_spd(self.second_moment)
        d = S.diagonal().tolist()  # floats, whose sum overflows to inf without a warning
        if not math.isfinite(sum(d)):
            raise NotSymmetricPD(f"second moments {d} are out of range: trace(S) is not finite")
        K = np.trace(S) * np.eye(3) - S
        # SPD: no 0 on the diagonal, so 3 non-zero entries make K diagonal
        k, R = (K.diagonal().copy(), None) if np.count_nonzero(K) == 3 else np.linalg.eigh(K)
        if R is not None and np.linalg.det(R) < 0.0:  # the cross products need det R = +1
            R[:, 0] = -R[:, 0]
        with np.errstate(over="ignore", divide="ignore"):  # checked on the next line
            euler = np.concatenate(((np.roll(k, -1) - np.roll(k, -2)) / k, 1.0 / k))[:, None]
        if not np.isfinite(euler).all():
            raise NotSymmetricPD(f"principal moments {k.tolist()} of the classical inertia "
                                 f"are out of range: 1/k is not finite")
        cached = {"second_moment": S, "classical": K, "axes": R, "moments": k, "_euler": euler,
                  "_columns": None if R is None else (R.T.tolist(), R.tolist())}
        for name, value in cached.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_classical(cls, K) -> "InertiaSpec":
        """Build from a classical inertia matrix (must map back to a positive
        definite second moment, which excludes degenerate flat bodies)."""
        K = so3.check_spd(K)
        return cls(0.5 * np.trace(K) * np.eye(3) - K)


@dataclass(frozen=True, eq=False)
class PotentialModel:
    """Attitude-dependent potential with its ambient 3x3 gradient.

    value maps a rotation C to the scalar potential energy; gradient maps C
    to the 3x3 matrix of partial derivatives with respect to the entries of
    C. The library forms the skew moment from the gradient itself.

    coeff declares a linear potential V = trace(A^T C) by its constant
    gradient A; construction raises ValueError unless gradient returns
    exactly A at the identity and at one other fixed rotation. The
    integrator then never calls gradient, and forms no stage attitude: it
    takes each stage's moment in closed form from A^T C, once a step. An
    all-zero coeff is a free body, whose steps skip the moment. With coeff
    None, gradient is called at every stage attitude, one 3x3 attitude at a
    time.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    coeff: np.ndarray | None = None

    def __post_init__(self):
        if self.coeff is None:
            return
        A = np.array(self.coeff, dtype=float)
        for C in (np.eye(3), _PROBE):
            if not np.array_equal(_gradient(self.gradient, C), A, equal_nan=True):
                raise ValueError(f"potential gradient at\n{C}\nis not the declared coeff\n{A}")
        A.flags.writeable = False
        object.__setattr__(self, "coeff", A)


def zero_potential() -> PotentialModel:
    """Free rigid body: identically zero potential."""
    return linear_potential(np.zeros((3, 3)))


def linear_potential(A) -> PotentialModel:
    """Potential trace(A^T C) with constant gradient A (uniform-field model)."""
    A = np.array(A, dtype=float)
    A.flags.writeable = False  # gradient hands it out; it must stay coeff
    return PotentialModel(
        value=lambda C, _A=A: float(np.tensordot(_A, C)),
        gradient=lambda C, _A=A: _A,
        coeff=A,
    )


@dataclass(frozen=True, eq=False)
class BodyState:
    """Instantaneous state: time (s), attitude C, body angular velocity Omega."""

    t: float
    C: np.ndarray
    Omega: np.ndarray

    def __post_init__(self):
        # One body: the validators alone would also pass a stack of them.
        if np.shape(self.C) != (3, 3):
            raise NotRotation(f"expected 3x3 attitude, got {np.shape(self.C)}")
        if np.shape(self.Omega) != (3, 3):
            raise ShapeMismatch(f"expected 3x3 angular velocity, got {np.shape(self.Omega)}")
        object.__setattr__(self, "C", so3.check_rotation(self.C))
        object.__setattr__(self, "Omega", so3.check_skew(self.Omega))


def _made(cls, **fields):
    # The frozen dataclass cls with fields as given and no __post_init__ checks.
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings."""

    step: float = 1e-3

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"integrator step must be positive and finite, got {self.step!r}")


def j_apply(inertia, Omega) -> np.ndarray:
    """Momentum operator J(Omega) = S Omega + Omega S.

    Accepts an InertiaSpec or a bare symmetric positive definite matrix.
    """
    S = inertia.second_moment if isinstance(inertia, InertiaSpec) else np.asarray(
        inertia, dtype=float
    )
    Omega = np.asarray(Omega, dtype=float)
    return S @ Omega + Omega @ S


def j_solve(K_mat, M) -> np.ndarray:
    """Invert the operator X -> K X + X K on skew matrices.

    For symmetric positive definite K the map is an isomorphism of so(3);
    the unique skew solution is recovered through the 3-vector reduction
    (trace(K) I - K)^-1 applied to vee(M).
    """
    return so3.solve_skew_sylvester(K_mat, so3.vee(M))


def euler_rhs(
    state: BodyState, inertia: InertiaSpec, potential: PotentialModel
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (Cdot, Omegadot) of the attitude state.

    Cdot = C Omega. Omegadot solves J(Omegadot) = [J(Omega), Omega] + moment,
    with moment = G^T C - C^T G for the potential gradient G at C. In axis
    coordinates J(X) = hat(K vee(X)) for the classical inertia K, and the
    commutator is a cross product: K vee(Omegadot) = K w x w + vee(moment)
    at w = vee(Omega). It is evaluated as the integrator steps it: by _rate, in
    K's principal frame R, at R^T w and R^T vee(moment), then turned back by R.
    A non-finite result can only come from a malformed gradient (NaN or inf).
    """
    C, Omega = state.C, state.Omega
    P = _gradient(potential.gradient, C).T @ C
    into, back = inertia._columns or (None, None)
    u, d = (np.array(_times(x[:, None], into)) for x in (so3.vee(Omega), so3._axis(P - P.T)))
    w_dot = np.array(_times(_rate(inertia._euler[:3], inertia._euler[3:], u, d), back)).ravel()
    if not np.isfinite(w_dot).all():
        raise PotentialGradientNotSkewCompatible(
            f"non-finite angular acceleration {w_dot!r} in the dynamics right-hand side"
        )
    return C @ Omega, so3.hat(w_dot)


def _gradient(gradient, C):
    G = np.asarray(gradient(C), dtype=float)
    if G.shape != (3, 3):
        raise ShapeMismatch(f"potential gradient must be 3x3, got shape {G.shape}")
    return G


def _gradient_components(gradient, c, columns=None):
    # An undeclared gradient at the attitude with components c, or at each
    # attitude of a stack, taken one 3x3 attitude at a time. With an
    # InertiaSpec's columns of R, c is C R, in the principal frame: G is
    # taken at C, and given as G R.
    into, back = columns or (None, None)
    C = so3._matrix(_times(c, back))
    G = _components(_gradient(gradient, C) if C.ndim == 2 else [_gradient(gradient, m) for m in C])
    return _times(G, into)


def _times(x, cols):
    # The components of X M, row by row, from X's and M's columns cols (an
    # InertiaSpec's, for M = R or R^T): 3n floats, or 3n (B,) arrays. Each
    # entry sums its three products in k = 0, 1, 2 order, not matmul's, so a
    # stack's lanes equal one body's values. x itself if cols is None.
    if cols is None:
        return x
    return [a * p + b * q + e * r for a, b, e in zip(x[0::3], x[1::3], x[2::3]) for p, q, r in cols]


def propagate(
    state: BodyState,
    inertia: InertiaSpec,
    potential: PotentialModel,
    t_end: float,
    cfg: IntegratorConfig | None = None,
) -> BodyState:
    """Integrate the attitude dynamics from state.t to t_end.

    Fixed step cfg.step with a final partial step; raises StepTooLarge if
    any step would rotate the body by more than pi/4, where the local
    accuracy of the exponential update degrades. The state it makes gets only
    the checks that can fail: its rate finite, then its attitude a rotation.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    span = t_end - state.t
    if span < 0.0:
        raise ValueError(f"t_end {t_end!r} precedes state time {state.t!r}")
    if span == 0.0:
        return state

    C, w = _advance(inertia, potential, state.C, so3._axis(state.Omega), span, cfg.step)
    w = _finite_rate(w, span)  # then the attitude: hat(w) of a finite w is skew
    return _made(BodyState, t=t_end, C=so3.check_rotation(C), Omega=so3.hat(w))


def _finite_rate(w, span):
    # The rate _advance returned, checked before its attitude: a NaN rate
    # passes the pi/4 guard, and the attitude it leaves fails as a matrix
    # that is not a rotation, which names neither the rate nor its cause.
    # Raises on the first trial of a stack whose rate is not finite. One
    # body's three floats are finite if their sum is, which costs 0.1 us
    # where numpy's check costs 5 us.
    if not getattr(w[0], "ndim", 0) and math.isfinite(w[0] + w[1] + w[2]):
        return w
    bad = so3._first_failure(np.isfinite(w).all(axis=0), np.transpose(w))
    if bad is not None:
        raise PotentialGradientNotSkewCompatible(
            f"rate {[float(x) for x in bad]} rad/s is not finite after a time span of "
            f"{span:.6g} s (is the potential's gradient or the inertia out of range?)"
        )
    return w


def _advance(inertia, potential, C, w, span, h):
    # Steps (C, w) over span >= 0 with the Munthe-Kaas RK4 scheme: full steps
    # of h, then a partial step. The rate w is three floats, or three (B,)
    # arrays for B bodies, whose fastest one the pi/4 guard checks. The steps
    # run in the inertia's principal frame R, entered with C R, R^T w and a
    # declared gradient's A R, and left with C R^T and R w, by _times. There
    # Euler's equation takes three products (_rate): l_i = j_i u_{i+1} u_{i+2}
    # + m_i / k_i. One body runs _float_steps, B bodies _grouped_steps, each trial
    # with the float operations of its own run. C moves on its components.
    # The moment m takes one of two forms: a declared gradient g = A R gives
    # it in closed form from M = g^T C, formed once a step; an undeclared one
    # (grad) is called at each stage attitude. A free body has neither.
    if not math.isfinite(span):
        raise ValueError(f"non-finite time span {span!r}")
    if span / h > MAX_STEPS:
        raise ValueError(f"integrator step {h!r} s over a time span of {span:.6g} s takes "
                         f"{span / h:.3g} steps, more than the {MAX_STEPS:,} one call may take")
    n_full = int(math.floor(span / h + 1e-12))
    rem = span - n_full * h
    steps = ((h, n_full), (rem, int(rem > 1e-12 * max(1.0, abs(span)))))
    A, cols = potential.coeff, inertia._columns
    into, back = cols or (None, None)
    free = A is not None and not any(A.ravel().tolist())  # no moment: g and grad are None
    g = None if free or A is None else _times(A.ravel().tolist(), into)
    grad = None if A is not None else lambda x: _gradient_components(potential.gradient, x, cols)
    stacked = getattr(w[0], "ndim", 0) or C.ndim > 2
    c, w = _times(_components(C), into), _times(w if stacked else [*map(float, w)], into)
    c, w = (_grouped_steps if stacked else _float_steps)(inertia._euler, g, grad, c, w, steps)
    return so3._matrix(_times(c, back)), tuple(_times(w, back))


def _float_steps(euler, g, grad, c, w, steps):
    # One body, on floats: at 3-vector sizes a call costs as much as the
    # arithmetic. A stage has rate u, increment s, a = dexpinv(s, u) and l =
    # vee(Omegadot); q and t sum the l and the a, weights 1, 2, 2, 1: stages
    # 2 to 4 are passes of one loop. In a potential, a declared gradient g
    # gives each stage's moment in closed form, from M = g^T C formed once a
    # step (_moment_terms, then _stage_moment's operations written out on
    # floats: a call per stage measured to cost about 60 % of what the closed
    # form saves); an undeclared one is called at each stage attitude.
    j0, j1, j2, r0, r1, r2 = euler.ravel().tolist()
    w0, w1, w2 = w
    for step, count in steps:
        hh, sixth = 0.5 * step, step / 6.0
        stages = ((hh, 2.0), (hh, 2.0), (step, 1.0))
        for _ in range(count):
            wmag = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
            if wmag * step > MAX_STEP_ROTATION:
                raise StepTooLarge(f"step {step} at rate {wmag:.3f} rad/s exceeds the pi/4 guard")
            # Stage 1: u = a = w at C itself, whose moment is dM = (v0, v1, v2).
            l0, l1, l2 = j0 * (w1 * w2), j1 * (w2 * w0), j2 * (w0 * w1)
            if g is not None or grad is not None:
                (m00, m01, m02, m10, m11, m12, m20, m21, m22), (v0, v1, v2), tr = _moment_terms(
                    g or grad(c), c)
                l0, l1, l2 = l0 + r0 * v0, l1 + r1 * v1, l2 + r2 * v2
            q0, q1, q2 = l0, l1, l2
            a0, a1, a2 = t0, t1, t2 = w0, w1, w2
            # Stages 2 to 4: s = f a, at f = h/2, h/2, h. dexpinv(s, u) = u + 1/2
            # s x u + 1/12 s x (s x u), truncated at the order RK4 needs. The plus
            # sign on the first commutator matters: the minus one drops the scheme
            # to order 2. The weight wt, 2.0 or 1.0, multiplies exactly.
            for f, wt in stages:
                s0, s1, s2 = f * a0, f * a1, f * a2
                u0, u1, u2 = w0 + f * l0, w1 + f * l1, w2 + f * l2
                e0, e1, e2 = s1 * u2 - s2 * u1, s2 * u0 - s0 * u2, s0 * u1 - s1 * u0
                a0 = u0 + 0.5 * e0 + (s1 * e2 - s2 * e1) / 12.0
                a1 = u1 + 0.5 * e1 + (s2 * e0 - s0 * e2) / 12.0
                a2 = u2 + 0.5 * e2 + (s0 * e1 - s1 * e0) / 12.0
                l0, l1, l2 = j0 * (u1 * u2), j1 * (u2 * u0), j2 * (u0 * u1)
                if g is not None:
                    th2 = s0 * s0 + s1 * s1 + s2 * s2
                    th = math.sqrt(th2)
                    if th < 1e-6:
                        ra, rb = 1.0 - th2 / 6.0, 0.5 - th2 / 24.0
                    elif th == math.inf:  # math's sin and cos raise here, numpy's give NaN
                        ra = rb = math.nan
                    else:
                        ra, rb = math.sin(th) / th, (1.0 - math.cos(th)) / th2
                    n0 = m00 * s0 + m10 * s1 + m20 * s2
                    n1 = m01 * s0 + m11 * s1 + m21 * s2
                    n2 = m02 * s0 + m12 * s1 + m22 * s2
                    sv = s0 * v0 + s1 * v1 + s2 * v2
                    l0 += r0 * (v0 + ra * (tr * s0 - n0) + rb * ((s1 * n2 - s2 * n1) - sv * s0))
                    l1 += r1 * (v1 + ra * (tr * s1 - n1) + rb * ((s2 * n0 - s0 * n2) - sv * s1))
                    l2 += r2 * (v2 + ra * (tr * s2 - n2) + rb * ((s0 * n1 - s1 * n0) - sv * s2))
                elif grad is not None:
                    d0, d1, d2 = _moment_terms(grad(x := _rotate(c, (s0, s1, s2))), x)[1]
                    l0, l1, l2 = l0 + r0 * d0, l1 + r1 * d1, l2 + r2 * d2
                t0, t1, t2 = t0 + wt * a0, t1 + wt * a1, t2 + wt * a2
                q0, q1, q2 = q0 + wt * l0, q1 + wt * l1, q2 + wt * l2
            # The update C exp(hat(h/6 (a1 + 2 a2 + 2 a3 + a4))) and the new rate.
            c = _rotate(c, (sixth * t0, sixth * t1, sixth * t2))
            w0, w1, w2 = w0 + sixth * q0, w1 + sixth * q1, w2 + sixth * q2
    return c, (w0, w1, w2)


def _moment_terms(g, c):
    # M = G^T C from the components g of G and c of C, M_ij = g_0i c_0j +
    # g_1i c_1j + g_2i c_2j; dM = vee(M - M^T), the moment vee(G^T C - C^T G)
    # at C; and M's trace. For a constant G the moment at any stage attitude
    # C E is linear in E, through M alone (_stage_moment). Floats for one
    # body; (3, 3, B), (3, B) and (B,) arrays from a (9, B) c and a (3, 3, 1,
    # 1) g, or (3, 3, 1, B) for one G per trial, with the same operations.
    if getattr(c, "ndim", 0):
        p = g * c.reshape(3, 1, 3, -1)
        M = p[0] + p[1] + p[2]
        m = M.reshape(9, -1)
        return M, m.take(_UP, 0) - m.take(_LO, 0), m[0] + m[4] + m[8]
    g00, g01, g02, g10, g11, g12, g20, g21, g22 = g
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = c
    M = (
        g00 * x00 + g10 * x10 + g20 * x20, g00 * x01 + g10 * x11 + g20 * x21,
        g00 * x02 + g10 * x12 + g20 * x22, g01 * x00 + g11 * x10 + g21 * x20,
        g01 * x01 + g11 * x11 + g21 * x21, g01 * x02 + g11 * x12 + g21 * x22,
        g02 * x00 + g12 * x10 + g22 * x20, g02 * x01 + g12 * x11 + g22 * x21,
        g02 * x02 + g12 * x12 + g22 * x22,
    )
    return M, (M[7] - M[5], M[2] - M[6], M[3] - M[1]), M[0] + M[4] + M[8]


def _stage_moment(terms, s):
    # The moment at X = C exp(hat(s)) from _moment_terms' (M, dM, tr) of C, at
    # the (3, B) increments s: with E = I + a hat(s) + b hat(s)^2 (so3._rotate's
    # a and b) and n = M^T s, vee(M E - E^T M^T) = dM + a (tr s - n) + b (s x n
    # - (s . dM) s): about 30 products, where forming X with so3._rotate and
    # then its moment take about 60. _float_steps writes the same operations
    # out on floats. A non-finite s gives NaN.
    M, dM, tr = terms
    p = M * s[:, None]
    n = p[0] + p[1] + p[2]
    sq, p = s * s, s * dM
    a, b = so3._rodrigues(sq[0] + sq[1] + sq[2])
    return dM + a * (tr * s - n) + b * (_cross(s, n) - (p[0] + p[1] + p[2]) * s)


# Rows i+1, i+2, i+2, i+1 (mod 3): taken of two vectors, their products hold
# the two halves of a x b.
_NP, _PN = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])
# Entries 21, 02, 10 and 12, 20, 01 of a 3x3 matrix's components: vee(M - M^T).
_UP, _LO = np.array([7, 2, 3]), np.array([5, 6, 1])


def _cross(a, b):
    p = a.take(_NP, 0) * b.take(_PN, 0)
    return p[:3] - p[3:]


def _rate(j, k_inv, u, d):
    # Euler's equation in principal axes, l_i = j_i u_{i+1} u_{i+2} + d_i / k_i,
    # at (3, B) rates u and moments d (None: a free body), with j and 1 / k the
    # (3, 1) halves of InertiaSpec._euler. _float_steps writes it out on floats.
    l = j * (u.take(_NP[:3], 0) * u.take(_PN[:3], 0))
    return l if d is None else l + k_inv * d


def _grouped_steps(euler, g, grad, c, w, steps):
    # B bodies, one numpy call per vector operation, as a call costs much the
    # same whatever B is: vectors are (3, B) arrays, shared rates broadcast;
    # the attitude's components a (9, B) array, or (9, 1) if shared. Stages,
    # rate (_rate) and moments take the float loop's operations, on arrays.
    c = np.reshape(c, (9, -1))
    W = np.broadcast_arrays(np.array(w, dtype=float).reshape(3, -1), c[:3])[0]
    J, k_inv = euler[:3], euler[3:]  # j and 1 / k
    G = None if g is None else np.reshape(g, (3, 3, 1, 1))

    def moment(x):  # vee(G^T X - X^T G) at the components x of X, an undeclared G
        return _moment_terms(np.reshape(grad(x), (3, 3, 1, -1)), x)[1]

    for step, count in steps:
        dt, hh, sixth = step, 0.5 * step, step / 6.0
        for _ in range(count):
            r2 = W * W
            wmag = math.sqrt((r2[0] + r2[1] + r2[2]).max())
            if wmag * step > MAX_STEP_ROTATION:
                raise StepTooLarge(f"step {step} at rate {wmag:.3f} rad/s exceeds the pi/4 guard")
            # Stage 1 at C itself; then s = h/2 w, h/2 a and h a, as above.
            m = None if G is None else _moment_terms(G, c)
            d = m[1] if G is not None else None if grad is None else moment(c)
            q = l = _rate(J, k_inv, W, d)
            a = t = W
            for f, last in ((hh, False), (hh, False), (dt, True)):
                s, u = f * a, W + f * l
                e = _cross(s, u)
                a = u + 0.5 * e + _cross(s, e) / 12.0
                t = t + a if last else t + 2.0 * a
                if G is not None:
                    d = _stage_moment(m, s)
                elif grad is not None:
                    d = moment(_rotate(c, s))
                l = _rate(J, k_inv, u, d)
                q = q + l if last else q + 2.0 * l
            c = _rotate(c, sixth * t)
            W = W + sixth * q
    return np.broadcast_to(c, (9, W.shape[1])), W


@dataclass(frozen=True)
class PotentialReport:
    """Outcome of a finite-difference audit of a potential gradient."""

    max_rel_error: float
    n_samples: int
    passed: bool


def validate_potential(
    potential: PotentialModel,
    n_samples: int = 20,
    rng: np.random.Generator | None = None,
    fd_eps: float = 1e-5,
) -> PotentialReport:
    """Check the gradient against central differences of the value.

    Samples random attitudes and random unit tangent directions, compares
    the directional derivative predicted by the gradient with a central
    finite difference of the value, and reports the worst relative error
    (relative to the finite-difference estimate). A NaN value or gradient
    makes that error NaN, which fails.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(n_samples):
        C = so3.random_rotation(rng)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        d_plus = potential.value(C @ so3._exp_vec(fd_eps * u))
        d_minus = potential.value(C @ so3._exp_vec(-fd_eps * u))
        fd = (d_plus - d_minus) / (2.0 * fd_eps)
        predicted = float(
            np.tensordot(np.asarray(potential.gradient(C), dtype=float), C @ so3.hat(u))
        )
        rel = abs(predicted - fd) / max(abs(fd), 1e-12)
        worst = float(np.maximum(worst, rel))  # max() would drop a NaN rel
    return PotentialReport(max_rel_error=worst, n_samples=n_samples, passed=worst <= 1e-5)


@np.errstate(over="ignore", invalid="ignore")  # one that overflows is returned, not a warning
def kinetic_energy(inertia: InertiaSpec, Omega) -> float:
    """Rotational kinetic energy 0.5 <Omega, Omega S> = 0.5 w^T K w."""
    w = so3.vee(Omega)
    return float(0.5 * w @ inertia.classical @ w)


def spatial_momentum(state: BodyState, inertia: InertiaSpec) -> np.ndarray:
    """Angular momentum in the inertial frame, C J(Omega) C^T (skew matrix).

    Conserved along free motion (zero potential).
    """
    return state.C @ j_apply(inertia, state.Omega) @ state.C.T

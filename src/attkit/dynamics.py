"""Rigid-body attitude dynamics in an attitude-dependent potential.

State is the pair (C, Omega) of a rotation matrix and a body angular
velocity in so(3). The kinematics is Cdot = C Omega and the momentum form
of Euler's equation is J(Omegadot) = [J(Omega), Omega] + moment(C), where
J(X) = S X + X S for the body's symmetric positive definite second moment
matrix S, and the moment induced by a potential V(C) with ambient gradient
G = dV/dC is G^T C - C^T G.

Propagation preserves SO(3) by construction: attitude updates are right
multiplications by exponentials of so(3) increments computed with a
4th-order Munthe-Kaas Runge-Kutta scheme. Every body, free or in a
potential, is stepped on its attitude's nine components as plain floats (or
(B,) arrays for B bodies) by one step loop, written out with no Python call
per stage, and each step's update C exp(hat(th)) is one function of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import so3
from .errors import NotRotation, PotentialGradientNotSkewCompatible, ShapeMismatch, StepTooLarge

# Guard: no single integrator step may rotate the body by more than this.
MAX_STEP_ROTATION = math.pi / 4
# A declared gradient is checked at the identity and at this rotation.
_PROBE = so3._exp_vec((0.6, -0.8, 1.1))


@dataclass(frozen=True, eq=False)
class InertiaSpec:
    """Inertia of the rigid body.

    second_moment is the symmetric positive definite matrix S entering the
    momentum operator J(X) = S X + X S (the second moment of the mass
    distribution, in kg m^2). The classical inertia matrix acting on
    axis-angle coordinates, trace(S) I - S, is cached together with its
    inverse; it is automatically positive definite because each of its
    eigenvalues is a sum of two eigenvalues of S.
    """

    second_moment: np.ndarray
    classical: np.ndarray = field(init=False)
    classical_inv: np.ndarray = field(init=False)

    def __post_init__(self):
        S = so3.check_spd(self.second_moment)
        object.__setattr__(self, "second_moment", S)
        K = np.trace(S) * np.eye(3) - S
        object.__setattr__(self, "classical", K)
        object.__setattr__(self, "classical_inv", np.linalg.inv(K))

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
    integrator then never calls gradient. An all-zero coeff is a free body,
    whose steps skip the moment and the stage attitudes. With coeff None,
    gradient is called at every stage attitude, one 3x3 attitude at a time.
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


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings."""

    step: float = 1e-3
    scheme: str = "rkmk4"

    def __post_init__(self):
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError(f"integrator step must be positive and finite, got {self.step!r}")
        if self.scheme != "rkmk4":
            raise ValueError(f"unknown integrator scheme {self.scheme!r}")


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
    at w = vee(Omega), as the integrator's steps evaluate it. A non-finite
    result can only come from a malformed gradient (NaN or inf).
    """
    C, Omega = state.C, state.Omega
    P = _gradient(potential.gradient, C).T @ C
    m = np.array([P[2, 1] - P[1, 2], P[0, 2] - P[2, 0], P[1, 0] - P[0, 1]])  # vee(P - P^T)
    w = so3.vee(Omega)
    w_dot = inertia.classical_inv @ (np.cross(inertia.classical @ w, w) + m)
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


def _gradient_components(gradient, c):
    # An undeclared gradient at the attitude with components c, or at each
    # attitude of a stack, taken one 3x3 attitude at a time.
    C = so3._matrix(c)
    return _components(
        _gradient(gradient, C) if C.ndim == 2 else np.array([_gradient(gradient, m) for m in C])
    )


def _components(C):
    # The nine entries of a 3x3 attitude, row by row, as floats; of a stack
    # (B, 3, 3), as nine (B,) arrays.
    C = np.asarray(C, dtype=float)
    return tuple(C.ravel().tolist()) if C.ndim == 2 else tuple(C.reshape(-1, 9).T)


def _rotate(c, v):
    # The components of C exp(hat(v)) from those of C: the one attitude
    # update, at a potential's stages and at the end of every step.
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = c
    e00, e01, e02, e10, e11, e12, e20, e21, e22 = so3._exp_components(*v)
    return (
        x00 * e00 + x01 * e10 + x02 * e20,
        x00 * e01 + x01 * e11 + x02 * e21,
        x00 * e02 + x01 * e12 + x02 * e22,
        x10 * e00 + x11 * e10 + x12 * e20,
        x10 * e01 + x11 * e11 + x12 * e21,
        x10 * e02 + x11 * e12 + x12 * e22,
        x20 * e00 + x21 * e10 + x22 * e20,
        x20 * e01 + x21 * e11 + x22 * e21,
        x20 * e02 + x21 * e12 + x22 * e22,
    )


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
    accuracy of the exponential update degrades.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    span = t_end - state.t
    if span < 0.0:
        raise ValueError(f"t_end {t_end!r} precedes state time {state.t!r}")
    if span == 0.0:
        return state

    C, w = _advance(inertia, potential, state.C, so3.vee(state.Omega).tolist(), span, cfg.step)
    return BodyState(t=t_end, C=C, Omega=so3.hat(w))


def _advance(inertia, potential, C, w, span, h):
    # Steps (C, w) over span >= 0 with the Munthe-Kaas RK4 scheme: full steps
    # of h, then a partial step. The rate w is three floats, or three (B,)
    # arrays for B bodies at once, whose fastest one the pi/4 guard checks.
    # C moves on its components; its matrix is formed once, at the end. Each
    # step is written out, since at 3-vector sizes calls cost as much as the
    # arithmetic. A stage has rate u, attitude C exp(hat(s)) (formed only in a
    # potential), a = dexpinv(s, u), and l = vee(Omegadot): K l = K u x u + moment.
    # q and t sum the l and the a with weights 1, 2, 2, 1, left to right.
    if not math.isfinite(span):
        raise ValueError(f"non-finite time span {span!r}")
    n_full = int(math.floor(span / h + 1e-12))
    rem = span - n_full * h
    if rem <= 1e-12 * max(1.0, abs(span)):
        rem = 0.0
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = inertia.classical.tolist()
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = inertia.classical_inv.tolist()
    g = None if potential.coeff is None else potential.coeff.ravel().tolist()
    free, grad = g is not None and not any(g), potential.gradient
    c = _components(C)
    w0, w1, w2 = w
    for dt in itertools.chain(itertools.repeat(h, n_full), (rem,) if rem > 0.0 else ()):
        r2 = w0 * w0 + w1 * w1 + w2 * w2
        wmag = math.sqrt(r2 if isinstance(r2, float) else r2.max())
        if wmag * dt > MAX_STEP_ROTATION:
            raise StepTooLarge(f"step {dt} at rate {wmag:.3f} rad/s exceeds the pi/4 guard")
        hh = 0.5 * dt
        # Stage 1: u = a = w at C itself.
        m0 = k00 * w0 + k01 * w1 + k02 * w2
        m1 = k10 * w0 + k11 * w1 + k12 * w2
        m2 = k20 * w0 + k21 * w1 + k22 * w2
        d0, d1, d2 = m1 * w2 - m2 * w1, m2 * w0 - m0 * w2, m0 * w1 - m1 * w0
        if not free:
            # vee(G^T C - C^T G) from the off-diagonal entries of G^T C.
            x00, x01, x02, x10, x11, x12, x20, x21, x22 = c
            g00, g01, g02, g10, g11, g12, g20, g21, g22 = g or _gradient_components(grad, c)
            d0 += (g02 * x01 + g12 * x11 + g22 * x21) - (g01 * x02 + g11 * x12 + g21 * x22)
            d1 += (g00 * x02 + g10 * x12 + g20 * x22) - (g02 * x00 + g12 * x10 + g22 * x20)
            d2 += (g01 * x00 + g11 * x10 + g21 * x20) - (g00 * x01 + g10 * x11 + g20 * x21)
        q0 = i00 * d0 + i01 * d1 + i02 * d2
        q1 = i10 * d0 + i11 * d1 + i12 * d2
        q2 = i20 * d0 + i21 * d1 + i22 * d2
        # Stage 2: s = h/2 w. dexpinv(s, u) = u + 1/2 s x u + 1/12 s x (s x u),
        # truncated at the order RK4 needs. The plus sign on the first
        # commutator matters: the minus variant drops the scheme to 2nd order.
        s0, s1, s2 = hh * w0, hh * w1, hh * w2
        u0, u1, u2 = w0 + hh * q0, w1 + hh * q1, w2 + hh * q2
        e0, e1, e2 = s1 * u2 - s2 * u1, s2 * u0 - s0 * u2, s0 * u1 - s1 * u0
        a0 = u0 + 0.5 * e0 + (s1 * e2 - s2 * e1) / 12.0
        a1 = u1 + 0.5 * e1 + (s2 * e0 - s0 * e2) / 12.0
        a2 = u2 + 0.5 * e2 + (s0 * e1 - s1 * e0) / 12.0
        t0, t1, t2 = w0 + 2.0 * a0, w1 + 2.0 * a1, w2 + 2.0 * a2
        m0 = k00 * u0 + k01 * u1 + k02 * u2
        m1 = k10 * u0 + k11 * u1 + k12 * u2
        m2 = k20 * u0 + k21 * u1 + k22 * u2
        d0, d1, d2 = m1 * u2 - m2 * u1, m2 * u0 - m0 * u2, m0 * u1 - m1 * u0
        if not free:
            x00, x01, x02, x10, x11, x12, x20, x21, x22 = x = _rotate(c, (s0, s1, s2))
            g00, g01, g02, g10, g11, g12, g20, g21, g22 = g or _gradient_components(grad, x)
            d0 += (g02 * x01 + g12 * x11 + g22 * x21) - (g01 * x02 + g11 * x12 + g21 * x22)
            d1 += (g00 * x02 + g10 * x12 + g20 * x22) - (g02 * x00 + g12 * x10 + g22 * x20)
            d2 += (g01 * x00 + g11 * x10 + g21 * x20) - (g00 * x01 + g10 * x11 + g20 * x21)
        l0 = i00 * d0 + i01 * d1 + i02 * d2
        l1 = i10 * d0 + i11 * d1 + i12 * d2
        l2 = i20 * d0 + i21 * d1 + i22 * d2
        q0, q1, q2 = q0 + 2.0 * l0, q1 + 2.0 * l1, q2 + 2.0 * l2
        # Stage 3: s = h/2 a.
        s0, s1, s2 = hh * a0, hh * a1, hh * a2
        u0, u1, u2 = w0 + hh * l0, w1 + hh * l1, w2 + hh * l2
        e0, e1, e2 = s1 * u2 - s2 * u1, s2 * u0 - s0 * u2, s0 * u1 - s1 * u0
        a0 = u0 + 0.5 * e0 + (s1 * e2 - s2 * e1) / 12.0
        a1 = u1 + 0.5 * e1 + (s2 * e0 - s0 * e2) / 12.0
        a2 = u2 + 0.5 * e2 + (s0 * e1 - s1 * e0) / 12.0
        t0, t1, t2 = t0 + 2.0 * a0, t1 + 2.0 * a1, t2 + 2.0 * a2
        m0 = k00 * u0 + k01 * u1 + k02 * u2
        m1 = k10 * u0 + k11 * u1 + k12 * u2
        m2 = k20 * u0 + k21 * u1 + k22 * u2
        d0, d1, d2 = m1 * u2 - m2 * u1, m2 * u0 - m0 * u2, m0 * u1 - m1 * u0
        if not free:
            x00, x01, x02, x10, x11, x12, x20, x21, x22 = x = _rotate(c, (s0, s1, s2))
            g00, g01, g02, g10, g11, g12, g20, g21, g22 = g or _gradient_components(grad, x)
            d0 += (g02 * x01 + g12 * x11 + g22 * x21) - (g01 * x02 + g11 * x12 + g21 * x22)
            d1 += (g00 * x02 + g10 * x12 + g20 * x22) - (g02 * x00 + g12 * x10 + g22 * x20)
            d2 += (g01 * x00 + g11 * x10 + g21 * x20) - (g00 * x01 + g10 * x11 + g20 * x21)
        l0 = i00 * d0 + i01 * d1 + i02 * d2
        l1 = i10 * d0 + i11 * d1 + i12 * d2
        l2 = i20 * d0 + i21 * d1 + i22 * d2
        q0, q1, q2 = q0 + 2.0 * l0, q1 + 2.0 * l1, q2 + 2.0 * l2
        # Stage 4: s = h a.
        s0, s1, s2 = dt * a0, dt * a1, dt * a2
        u0, u1, u2 = w0 + dt * l0, w1 + dt * l1, w2 + dt * l2
        e0, e1, e2 = s1 * u2 - s2 * u1, s2 * u0 - s0 * u2, s0 * u1 - s1 * u0
        a0 = u0 + 0.5 * e0 + (s1 * e2 - s2 * e1) / 12.0
        a1 = u1 + 0.5 * e1 + (s2 * e0 - s0 * e2) / 12.0
        a2 = u2 + 0.5 * e2 + (s0 * e1 - s1 * e0) / 12.0
        t0, t1, t2 = t0 + a0, t1 + a1, t2 + a2
        m0 = k00 * u0 + k01 * u1 + k02 * u2
        m1 = k10 * u0 + k11 * u1 + k12 * u2
        m2 = k20 * u0 + k21 * u1 + k22 * u2
        d0, d1, d2 = m1 * u2 - m2 * u1, m2 * u0 - m0 * u2, m0 * u1 - m1 * u0
        if not free:
            x00, x01, x02, x10, x11, x12, x20, x21, x22 = x = _rotate(c, (s0, s1, s2))
            g00, g01, g02, g10, g11, g12, g20, g21, g22 = g or _gradient_components(grad, x)
            d0 += (g02 * x01 + g12 * x11 + g22 * x21) - (g01 * x02 + g11 * x12 + g21 * x22)
            d1 += (g00 * x02 + g10 * x12 + g20 * x22) - (g02 * x00 + g12 * x10 + g22 * x20)
            d2 += (g01 * x00 + g11 * x10 + g21 * x20) - (g00 * x01 + g10 * x11 + g20 * x21)
        q0 += i00 * d0 + i01 * d1 + i02 * d2
        q1 += i10 * d0 + i11 * d1 + i12 * d2
        q2 += i20 * d0 + i21 * d1 + i22 * d2
        # The update C exp(hat(h/6 (a1 + 2 a2 + 2 a3 + a4))) and the new rate.
        sixth = dt / 6.0
        c = _rotate(c, (sixth * t0, sixth * t1, sixth * t2))
        w0, w1, w2 = w0 + sixth * q0, w1 + sixth * q1, w2 + sixth * q2
    return so3._matrix(c), (w0, w1, w2)


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
    (relative to the finite-difference estimate).
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
        worst = max(worst, rel)
    return PotentialReport(max_rel_error=worst, n_samples=n_samples, passed=worst <= 1e-5)


def kinetic_energy(inertia: InertiaSpec, Omega) -> float:
    """Rotational kinetic energy 0.5 <Omega, Omega S> = 0.5 w^T K w."""
    w = so3.vee(Omega)
    return float(0.5 * w @ inertia.classical @ w)


def spatial_momentum(state: BodyState, inertia: InertiaSpec) -> np.ndarray:
    """Angular momentum in the inertial frame, C J(Omega) C^T (skew matrix).

    Conserved along free motion (zero potential).
    """
    return state.C @ j_apply(inertia, state.Omega) @ state.C.T

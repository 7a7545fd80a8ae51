"""Closed-form weighted least-squares attitude determination (Wahba's problem).

Given unit reference directions in the inertial frame, their measured
counterparts in the body frame, and positive weights, the module builds the
3x3 attitude profile matrix L and returns the unique rotation minimizing
the weighted alignment cost, the orthogonal polar factor
C = (L L^T)^-1/2 L, with the solver factor S = (L L^T)^-1/2: both from
one SVD of L (see solve_attitude). A profile whose determinant is not
positive has no such rotation and raises ReflectionProfile.

Body vector sets and profiles may be stacks of B problems, (B, 3, n) and
(B, 3, 3), against one reference set; every check then applies to each
problem of the stack.

The rank check screens each vector set V with one product G = V V^T. Its
eigenvalues l1 >= l2 >= l3 are the squared singular values of V, and as
l1^2 l2 <= 4 tr(G)^3 / 27, l3 / l1 >= 4 det G / tr(G)^3. So
4 det G >= 100 RANK_RTOL^2 tr(G)^3 proves s3 / s1 >= 10 RANK_RTOL, far above
the rounding of G (about n eps tr(G) per entry) and of its determinant; with
1e-100 < tr(G) < 1e100 it also proves V finite and G free of overflow. Sets
the screen cannot vouch for, and every set of a stack that holds one, take
the SVD path, which alone decides and raises: results and messages are the
SVD path's.

profile_from_matrix takes one SVD L = U diag(s) V^T per profile, sets its
det to d s1 s2 s3 (d the sign of det L), and solve_attitude reuses it. One
profile is checked on Python floats, which do not warn; a stack, and
build_profile, run with numpy's overflow and invalid warnings off. A
profile whose matrix, determinant or norm is not finite raises ValueError,
not SingularProfile. check_vector_set sets no error state (that would cost
about as much as its Gram product), so alone it can warn on entries beyond
about 1e154.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .errors import ReflectionProfile, ShapeMismatch, SingularProfile

# Rank floor for vector sets: third singular value relative to the first.
RANK_RTOL = 1e-6
# Nonsingularity floor for the profile determinant relative to norm(L)^3.
DET_RTOL = 1e-12
# Floor for eigenvalues of L L^T (squared singular values of L) relative to
# the largest one.
SQRT_EIG_RTOL = 1e-12

_OVERFLOW = "profile overflows: its matrix, determinant or norm is not finite"


@dataclass(frozen=True, eq=False)
class AttitudeProfile:
    """3x3 attitude profile matrix L and its determinant (or a stack of them).
    From profile_from_matrix, det = d s1 s2 s3 and _svd = (U, s, V^T), L's
    SVD, which solve_attitude reuses and never modifies. By hand, _svd is
    None, and solve_attitude factors L with profile_from_matrix first."""

    matrix: np.ndarray
    det: float
    _svd: tuple | None = field(default=None, repr=False)


def check_vector_set(V, unit: bool = False, name: str = "vector set") -> np.ndarray:
    """Validate a 3xn set of direction vectors (n >= 3, numerical rank 3)."""
    V = np.asarray(V, dtype=float)
    if V.ndim < 2 or V.shape[-2] != 3 or V.shape[-1] < 3:
        raise ShapeMismatch(f"{name}: expected 3xn with n >= 3, got {V.shape}")
    # The Gram screen of the module docstring, on each set's G as floats
    if not all(
        1e-100 < a + d + f < 1e100
        and 4.0 * (a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d))
        >= 100.0 * RANK_RTOL**2 * (a + d + f) ** 3
        for a, b, c, _, d, e, _, _, f in (V @ V.mT).reshape(-1, 9).tolist()
    ):
        if not np.isfinite(V).all():
            raise ValueError(f"{name}: non-finite entries")
        s = np.linalg.svd(V, compute_uv=False)
        st = s.T  # stack axis last
        bad = so3._first_failure(st[2] >= RANK_RTOL * st[0], s)
        if bad is not None:
            raise SingularProfile(
                f"{name}: rank deficient (singular values {bad}); problem is ill-posed"
            )
    if unit:
        norms = np.linalg.norm(V, axis=-2)
        if np.abs(norms - 1.0).max() > 1e-6:
            raise ValueError(f"{name}: columns are not unit vectors")
    return V


def check_weights(w, n: int | None = None) -> np.ndarray:
    """Validate a vector of positive diagonal weights."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ShapeMismatch(f"weights must be 1-d, got shape {w.shape}")
    if n is not None and w.shape[0] != n:
        raise ShapeMismatch(f"expected {n} weights, got {w.shape[0]}")
    # On Python floats, which cost less than numpy's min and max; NaN fails.
    if not all(0.0 < x < math.inf for x in w.tolist()):
        raise ValueError("weights must be finite and strictly positive")
    return w


def profile_from_matrix(M) -> AttitudeProfile:
    """Wrap a precomputed 3x3 profile matrix, enforcing nonsingularity: on
    its one SVD, s1 s2 s3 > DET_RTOL (s1^2 + s2^2 + s3^2)^1.5. Entries,
    determinant or norm cubed that are not finite (an overflow, for finite
    entries beyond about 1e102) raise ValueError."""
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (3, 3):
        raise ShapeMismatch(f"profile must be 3x3, got {M.shape}")
    if M.ndim > 2:  # a stack: its checks on arrays, stack axis last
        with np.errstate(over="ignore", invalid="ignore"):
            return _factored(M, np, lambda X: X.T)
    return _factored(M, math, np.ndarray.tolist)  # one problem: on floats


def _factored(M, xp, rows) -> AttitudeProfile:
    # rows(X) gives X's rows as floats, or X^T's as arrays (det X^T = det X).
    # No SVD of NaN or inf entries (LAPACK's does not return on inf), nor of
    # a norm that overflows.
    (a, b, c), (d, e, f), (g, h, i) = rows(M)
    sq = a * a + b * b + c * c + d * d + e * e + f * f + g * g + h * h + i * i
    if so3._first_failure(sq < math.inf, sq) is not None:
        raise ValueError(_OVERFLOW)
    U, s, Vt = factors = np.linalg.svd(M)
    s1, s2, s3 = rows(s)
    size, q = s1 * s2 * s3, s1 * s1 + s2 * s2 + s3 * s3
    det = xp.copysign(size, _det3(rows(U)) * _det3(rows(Vt)))  # U, V^T orthogonal
    floor = DET_RTOL * (q * xp.sqrt(q))
    bad = so3._first_failure(size > floor, det)
    if bad is not None:
        if not (np.isfinite(size).all() and np.isfinite(floor).all()):
            raise ValueError(_OVERFLOW)
        raise SingularProfile(f"profile determinant {bad:.3e} below noise floor")
    return AttitudeProfile(M, det, factors)


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@np.errstate(over="ignore", invalid="ignore")  # its checks report non-finite values
def build_profile(refs, weights, body) -> AttitudeProfile:
    """Accumulate the attitude profile matrix sum_i w_i e_i b_i^T.

    refs and body are 3xn vector sets (inertial references and measured body
    directions, matched column by column); weights are the n positive design
    weights. Measured vectors are used as given, without re-normalization.
    """
    refs = check_vector_set(refs, name="reference vectors")
    body = check_vector_set(body, name="body vectors")
    if refs.shape != body.shape[-2:]:
        raise ShapeMismatch(
            f"reference set {refs.shape} and body set {body.shape} differ"
        )
    weights = check_weights(weights, n=refs.shape[1])
    return profile_from_matrix(refs @ (weights[:, None] * body.mT))


def solve_attitude(profile: AttitudeProfile) -> tuple[np.ndarray, np.ndarray]:
    """Solve for the rotation best aligning the profiled vector pairs.

    Returns (attitude, factor): the optimal rotation and the symmetric
    positive definite matrix S such that attitude = S @ profile.matrix.
    The closed form C = (L L^T)^-1/2 L is evaluated from the profile's SVD
    L = U diag(s) V^T as C = U V^T and S = U diag(1/s) U^T: their errors
    grow as eps times the condition number s1/s3; forming L L^T squares it.
    A profile with non-positive determinant raises ReflectionProfile.
    """
    if profile._svd is None:  # built by hand: factored and checked as any other
        profile = profile_from_matrix(profile.matrix)
    det = so3._first_failure(profile.det > 0.0, profile.det)
    if det is not None:
        raise ReflectionProfile(f"profile determinant {det:.3e} is not positive")
    U, s, Vt = profile._svd
    s1, _, s3 = s.tolist() if s.ndim == 1 else s.T  # stack axis last
    # The floor on the eigenvalues s^2 of L L^T, reported in ascending order
    bad = so3._first_failure(s3 * s3 > SQRT_EIG_RTOL * (s1 * s1), s)
    if bad is not None:
        raise SingularProfile(f"profile effectively singular (eigenvalues {bad[::-1] ** 2})")
    S = (U / s[..., None, :]) @ U.mT
    return U @ Vt, 0.5 * (S + S.mT)


def alignment_cost(attitude, refs, body, weights):
    """Weighted least-squares cost 0.5 * sum_i w_i |e_i - C b_i|^2: a float
    for one problem, an array of B costs for stacked attitudes or bodies."""
    refs = np.asarray(refs, dtype=float)
    body = np.asarray(body, dtype=float)
    if refs.shape != body.shape[-2:] or refs.ndim != 2 or refs.shape[0] != 3:
        raise ShapeMismatch(
            f"reference set {refs.shape} and body set {body.shape} differ"
        )
    weights = check_weights(weights, n=refs.shape[1])
    D = refs - np.asarray(attitude, dtype=float) @ body
    cost = 0.5 * np.sum(weights * np.einsum("...ij,...ij->...j", D, D), axis=-1)
    return float(cost) if cost.ndim == 0 else cost


def check_local_minimality(
    attitude,
    refs,
    body,
    weights,
    n_probes: int = 100,
    eps: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> bool:
    """Probe whether a candidate attitude is a local minimum of the cost.

    Perturbs the candidate by eps about n_probes random unit tangent
    directions and reports False as soon as the cost drops by more than
    1e-12 below the candidate's cost.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    attitude = np.asarray(attitude, dtype=float)
    base = alignment_cost(attitude, refs, body, weights)
    for _ in range(n_probes):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        probe = attitude @ so3._exp_vec(eps * u)
        if alignment_cost(probe, refs, body, weights) < base - 1e-12:
            return False
    return True

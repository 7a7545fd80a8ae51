"""Closed-form weighted least-squares attitude determination (Wahba's problem).

Given unit reference directions in the inertial frame, their measured
counterparts in the body frame, and positive weights, the module builds the
3x3 attitude profile matrix L and returns the unique rotation minimizing
the weighted alignment cost, the orthogonal polar factor
C = (L L^T)^-1/2 L, with the solver factor S = (L L^T)^-1/2: both from
one SVD of L (see solve_attitude). On request, the same SVD solves a
profile with negative determinant as the sign-corrected orthogonal
Procrustes problem.

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

A profile whose matrix, determinant or norm is not finite raises
ValueError, not SingularProfile. build_profile and profile_from_matrix run
with numpy's overflow and invalid warnings off. check_vector_set sets no
error state of its own, which would cost a call about as much as its Gram
product, so on its own a set with infinite entries or entries beyond about
1e154 can make numpy warn from the Gram product.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Decorator: the function runs with numpy's overflow and invalid warnings
# off; its own checks report non-finite values.
_quiet = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True, eq=False)
class AttitudeProfile:
    """3x3 attitude profile matrix with its determinant cached (or a stack
    of them with an array of determinants)."""

    matrix: np.ndarray
    det: float


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
    # NaN fails both comparisons; an empty vector has no extremes to check.
    if w.size and not (0.0 < w.min() and w.max() < np.inf):
        raise ValueError("weights must be finite and strictly positive")
    return w


@_quiet
def profile_from_matrix(M) -> AttitudeProfile:
    """Wrap a precomputed 3x3 profile matrix, enforcing nonsingularity.

    A matrix whose entries, determinant or norm cubed are not finite (an
    overflow, for finite entries beyond about 1e102) raises ValueError.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] != (3, 3):
        raise ShapeMismatch(f"profile must be 3x3, got {M.shape}")
    det = np.linalg.det(M)
    flat = M.reshape(*M.shape[:-2], 9)
    # norm(M)^3, from each profile's squared Frobenius norm; NaN or inf in M
    # makes it NaN or inf
    floor = DET_RTOL * np.vecdot(flat, flat) ** 1.5
    bad = so3._first_failure(abs(det) > floor, det)
    if bad is not None:
        if not (np.isfinite(det).all() and np.isfinite(floor).all()):
            raise ValueError("profile overflows: its matrix, determinant or norm is not finite")
        raise SingularProfile(f"profile determinant {bad:.3e} below noise floor")
    return AttitudeProfile(matrix=M, det=det)


@_quiet
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


def solve_attitude(
    profile: AttitudeProfile, allow_reflection: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for the rotation best aligning the profiled vector pairs.

    Returns (attitude, factor): the optimal rotation and the symmetric
    positive definite matrix S such that attitude = S @ profile.matrix.
    The closed form C = (L L^T)^-1/2 L is evaluated from one SVD
    L = U diag(s) V^T as C = U V^T and S = U diag(1/s) U^T: their errors
    grow as eps times the condition number s1/s3; forming L L^T squares it.

    A profile with non-positive determinant raises ReflectionProfile unless
    allow_reflection is set. Then the same SVD with d = -1 gives the
    sign-corrected Procrustes rotation U diag(1, 1, d) V^T and the factor
    S = U diag(1, 1, d) diag(1/s) U^T it implies.
    """
    det = so3._first_failure(profile.det > 0.0, profile.det)
    if det is not None and not allow_reflection:
        raise ReflectionProfile(f"profile determinant {det:.3e} is not positive")
    U, s, Vt = np.linalg.svd(profile.matrix)
    st = s.T  # stack axis last
    # The floor on the eigenvalues s^2 of L L^T, reported in ascending order
    bad = so3._first_failure(st[2] * st[2] > SQRT_EIG_RTOL * (st[0] * st[0]), s)
    if bad is not None:
        raise SingularProfile(f"profile effectively singular (eigenvalues {bad[::-1] ** 2})")
    if det is not None:  # d = -1 where det L < 0 (in a stack, +1 on the others)
        d = np.where(profile.det > 0.0, 1.0, -1.0)[..., None]
        Vt[..., 2, :] *= d
        s[..., 2:] *= d
    S = (U / s[..., None, :]) @ U.mT
    return U @ Vt, 0.5 * (S + S.mT)


def alignment_cost(attitude, refs, body, weights) -> float:
    """Weighted least-squares cost 0.5 * sum_i w_i |e_i - C b_i|^2."""
    refs = np.asarray(refs, dtype=float)
    body = np.asarray(body, dtype=float)
    if refs.shape != body.shape or refs.shape[0] != 3:
        raise ShapeMismatch(
            f"reference set {refs.shape} and body set {body.shape} differ"
        )
    weights = check_weights(weights, n=refs.shape[1])
    D = refs - np.asarray(attitude, dtype=float) @ body
    return float(0.5 * np.sum(weights * np.einsum("ij,ij->j", D, D)))


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

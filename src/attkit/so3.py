"""Core algebra on the rotation group SO(3) and its Lie algebra so(3).

Rotations and skew matrices are carried as plain 3x3 float arrays; the
validators below enforce the invariants that the rest of the package
relies on. All functions are pure.

Most functions also take a stack of B problems on a leading axis:
matrices of shape (B, 3, 3), and vectors of shape (3, B), whose three
components are (B,) arrays. A validator raises if any matrix of a stack
fails. The integrator carries an attitude as its nine components, row by
row: floats for one, a (9, B) array for B. _rotate updates them to those of
C exp(hat(v)), with the one Rodrigues formula; the exponential map is the
update of the identity.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NotRotation, NotSkew, NotSymmetricPD, ShapeMismatch

__all__ = [
    "attitude_error_matrix",
    "check_rotation",
    "check_skew",
    "check_spd",
    "exp_so3",
    "hat",
    "principal_angle",
    "random_rotation",
    "trace_inner",
    "vee",
]

# Orthogonality/determinant slack for rotations. Loose enough that long
# integrator runs pass without re-orthogonalization.
ROTATION_TOL = 1e-9
# Symmetry slack for skew and symmetric matrices.
SKEW_TOL = 1e-12
SYM_TOL = 1e-12

_I3 = np.eye(3)

# numpy.linalg's own LAPACK gufuncs, bound here once, so that a numpy that
# renames one fails at import. They take the signatures numpy.linalg passes
# and run the same routine on the same float64 input, bit for bit, without
# the wrappers' casts and errstate, which cost more than LAPACK does on a
# 3x3. A LAPACK failure returns NaN and sets numpy's invalid flag, where the
# wrappers raise LinAlgError: each caller checks its input is finite first,
# or ignores that flag and checks what comes out.
_linalg = np.linalg._umath_linalg
_svd = functools.partial(_linalg.svd_f, signature="d->ddd")  # U, s, V^T
_solve = functools.partial(_linalg.solve, signature="dd->d")
_det = functools.partial(_linalg.det, signature="d->d")
_eigvalsh = functools.partial(_linalg.eigvalsh_lo, signature="d->d")  # ascending


def hat(v) -> np.ndarray:
    """Map a 3-vector to the skew matrix with hat(v) @ w == cross(v, w)."""
    x, y, z = v
    if not getattr(x, "ndim", 0):  # np.ndim costs a microsecond on floats
        return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    W = np.zeros(np.shape(x) + (3, 3))
    W[..., 0, 1], W[..., 0, 2], W[..., 1, 2] = -z, y, -x
    W[..., 1, 0], W[..., 2, 0], W[..., 2, 1] = z, -y, x
    return W


def vee(X) -> np.ndarray:
    """Inverse of hat. Raises NotSkew if X is not skew within SKEW_TOL."""
    return _axis(check_skew(X))


def _axis(X) -> np.ndarray:
    # vee unchecked, of a float array skew by construction: (3,), or (3, B) for a stack.
    Xt = X.T  # stack axis last: Xt[j, i] is X[:, i, j]
    return np.array([Xt[1, 2], Xt[2, 0], Xt[0, 1]])


def exp_so3(X) -> np.ndarray:
    """Exponential map so(3) -> SO(3) of a skew matrix, by the Rodrigues formula.

    A series branch is used below rotation angle 1e-6 to avoid the 0/0 in
    sin(t)/t and (1-cos(t))/t^2.
    """
    w = vee(X)
    return _exp_vec(w)


def _exp_vec(w) -> np.ndarray:
    # Rodrigues formula in axis-angle coordinates, as the update of the
    # identity's components; w is a plain 3-sequence, or a (3, B) stack.
    return _matrix(_rotate(_IDENTITY, w))


_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _rotate(c, v):
    # The components of C exp(hat(v)) from the components c of C: the one
    # attitude update. exp(hat(v)) = I + a hat(v) + b hat(v)^2 with a =
    # sin(t)/t and b = (1 - cos(t))/t^2 at t^2 = |v|^2; a series branch below
    # t = 1e-6 avoids the 0/0. c and v are floats, or for B bodies a (9, B)
    # array, (9, 1) if shared, and a (3, B) one, whose columns see the same
    # operations: math's sqrt, sin and cos round as numpy's do.
    x, y, z = v
    if getattr(x, "ndim", 0):
        w = np.array((x, y, z, x, y))  # cyclic: w[1:4] is y, z, x
        sq = w * w
        t2 = sq[0] + sq[1] + sq[2]
        a, b = _rodrigues(t2)
        # Entries 00, 11, 22, then 01, 12, 20, then 10, 21, 02, each a cyclic shift
        # of the first (two sums and products swap operands: exact). p's blocks,
        # C's entries ik times E's kj, sum in k = 0, 1, 2 order to C E.
        bp, aw = b * (w[:3] * w[1:4]), a * w[2:]
        e = np.concatenate((1.0 - b * (sq[1:4] + sq[2:]), bp - aw, bp + aw))
        p = np.reshape(c, (9, -1)).take(_CI, 0) * e.take(_EI, 0)
        return p[:9] + p[9:18] + p[18:]
    xx, yy, zz = x * x, y * y, z * z
    t2 = xx + yy + zz
    t = math.sqrt(t2)
    if t < 1e-6:
        a, b = 1.0 - t2 / 6.0, 0.5 - t2 / 24.0
    elif t == math.inf:  # math's sin and cos raise here, numpy's give NaN
        a = b = math.nan
    else:
        a, b = math.sin(t) / t, (1.0 - math.cos(t)) / t2
    bxy, bxz, byz = b * (x * y), b * (x * z), b * (y * z)
    ax, ay, az = a * x, a * y, a * z
    e00, e01, e02 = 1.0 - b * (yy + zz), bxy - az, bxz + ay
    e10, e11, e12 = bxy + az, 1.0 - b * (xx + zz), byz - ax
    e20, e21, e22 = bxz - ay, byz + ax, 1.0 - b * (xx + yy)
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = c
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


def _rodrigues(t2):
    # The coefficients a = sin(t)/t and b = (1 - cos(t))/t^2 of _rotate's
    # exponential at each entry of the (B,) array t2 = t^2, with the series
    # below t = 1e-6. Float callers write the same operations out.
    t = np.sqrt(t2)
    small = t < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = np.sin(t) / t, (1.0 - np.cos(t)) / t2
        if small.any():
            a, b = np.where(small, 1.0 - t2 / 6.0, a), np.where(small, 0.5 - t2 / 24.0, b)
    return a, b


# Block k, row ij of _rotate's product: C's entry ik and E's kj (row _ROW_MAJOR[3k + j]).
_ROW_MAJOR = np.array([0, 3, 8, 6, 1, 4, 5, 7, 2])
_CI = np.array([3 * i + k for k in range(3) for i in range(3) for _ in range(3)])
_EI = _ROW_MAJOR[[3 * k + j for k in range(3) for _ in range(3) for j in range(3)]]


def _matrix(c):
    # The 3x3 matrix with the nine entries c, row by row, or the (B, 3, 3)
    # stack with a (9, B) array: the inverse of _components.
    m = np.array(c)
    return m.T.reshape(m.shape[1:] + (3, 3))


def _components(C):
    # The nine entries of a 3x3 matrix, row by row, as floats; of a stack
    # (B, 3, 3), one (9, B) array.
    C = np.asarray(C, dtype=float)
    return tuple(C.ravel().tolist()) if C.ndim == 2 else C.reshape(-1, 9).T


@np.errstate(over="ignore", invalid="ignore")  # a non-finite solution is reported below
def solve_skew_sylvester(K, m) -> np.ndarray:
    """Skew solution X of K X + X K = hat(m) for symmetric positive definite K.

    The map X -> K X + X K is an isomorphism of so(3); in axis coordinates
    it is the matrix trace(K) I - K, so X = hat((trace(K) I - K)^-1 m).
    K is one 3x3 matrix; m may be a stack of vectors, (3, B), each solved
    on its own. A non-finite solution (K or m overflows, or trace(K) I - K
    is singular, as it can be for a K that is not positive definite) raises
    ValueError.
    """
    K = np.asarray(K, dtype=float)
    m = np.asarray(m, dtype=float)
    x = _solve(np.trace(K) * _I3 - K, m.T[..., None])[..., 0].T
    if not np.isfinite(x).all():
        raise ValueError(f"skew Sylvester solve: non-finite solution at weight trace {K.trace()}")
    return hat(x)


def trace_inner(A, B) -> float:
    """Trace inner product trace(A^T B) of two equally shaped matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ShapeMismatch(f"shapes {A.shape} and {B.shape} differ")
    return float(np.sum(A * B))


def principal_angle(C1, C2) -> float:
    """Rotation angle in [0, pi] separating two rotations.

    With R = C1^T C2, computed as atan2(|vee(R - R^T)| / 2, (trace(R) - 1) / 2):
    unlike the arccos of the trace alone, it keeps full accuracy near 0 and
    near pi. Both inputs are assumed to be valid rotations. Stacked inputs
    give an array of angles, equal to the one-pair angles bit for bit.
    """
    R = np.asarray(C1).mT @ np.asarray(C2)
    if R.ndim > 2:
        x, y, z = _axis(R - R.mT)
        c = 0.5 * (R.trace(0, -2, -1) - 1.0)
        return _atan2(0.5 * np.sqrt(x * x + y * y + z * z), c).astype(float)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R.tolist()
    x, y, z = r21 - r12, r02 - r20, r10 - r01
    return math.atan2(0.5 * math.sqrt(x * x + y * y + z * z), 0.5 * (r00 + r11 + r22 - 1.0))


# math.atan2 over arrays: numpy's arctan2 rounds differently in a few
# percent of cases, and stacked angles must equal the one-pair ones.
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def attitude_error_matrix(C_est, C_true) -> np.ndarray:
    """Multiplicative attitude error C_est^T C_true minus the identity."""
    return np.asarray(C_est).T @ np.asarray(C_true) - _I3


def check_rotation(C, tol: float = ROTATION_TOL) -> np.ndarray:
    """Validate a proper rotation matrix; returns it as a float array."""
    C = np.asarray(C, dtype=float)
    if C.shape[-2:] != (3, 3):
        raise NotRotation(f"expected 3x3 matrix, got {C.shape}")
    ortho = np.abs(C.mT @ C - _I3).max()
    if not ortho <= tol:
        raise NotRotation(f"orthogonality residual {ortho:.3e} exceeds {tol:.1e}")
    det = _det(C)  # of finite entries: the orthogonality check passed
    bad = _first_failure(abs(det - 1.0) <= tol, det)
    if bad is not None:
        raise NotRotation(f"determinant {bad!r} not within {tol:.1e} of 1")
    return C


def _first_failure(ok, value):
    # A check over a stack: None if ok holds for every problem, else value at
    # the first problem where it fails. ok is one bool, or a bool array over
    # value's leading axis. Write ok so that NaN fails it.
    if not getattr(ok, "ndim", 0):
        return None if ok else value
    return None if ok.all() else value[~ok][0]


def check_skew(X) -> np.ndarray:
    """Validate a skew-symmetric matrix; returns it as a float array."""
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != (3, 3):
        raise ShapeMismatch(f"expected 3x3 matrix, got {X.shape}")
    resid = np.abs(X + X.mT).max()
    if not resid <= SKEW_TOL:  # NaN fails
        raise NotSkew(f"symmetry residual {resid:.3e} exceeds {SKEW_TOL:.1e}")
    return X


def check_spd(S) -> np.ndarray:
    """Validate a symmetric positive definite matrix; returns it as a float array."""
    S = np.asarray(S, dtype=float)
    if S.shape != (3, 3):
        raise NotSymmetricPD(f"expected 3x3 matrix, got {S.shape}")
    resid = np.abs(S - S.T).max()
    if not resid <= SYM_TOL:
        raise NotSymmetricPD(f"symmetry residual {resid:.3e} exceeds {SYM_TOL:.1e}")
    lo = _eigvalsh(S)[0]  # of finite entries: the symmetry check passed
    if not lo > 0.0:
        raise NotSymmetricPD(f"smallest eigenvalue {lo} is not positive")
    return S


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly distributed rotation matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 2] = -Q[:, 2]
    return Q

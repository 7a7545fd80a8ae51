"""Output checks for the benchmark, computed apart from attkit.

Nothing here imports attkit: every expected value comes from plain numpy
(an SVD Procrustes solve, a classical RK4 integration of Euler's equations,
an atan2 rotation angle) or from a property the method must have. Each
checker returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

FILTER_HEADER = [
    "t", "err_att_pre_rad", "err_att_post_rad", "err_omega_pre", "err_omega_post", "cost_J0"
]
# Wahba estimates against the SVD solution, and noise-free problems against
# the truth (criterion 2 and 3 of the acceptance suite use the same level).
DETERMINE_TOL = 1e-9
# Rotation membership: orthogonality and determinant residual.
SO3_TOL = 1e-9
# attkit's RKMK4 truth (h = 1e-3) against the DOP853 reference: the two
# agree to about 1e-12 over the runs used here; a rate off by 1e-5 or a
# wrong torque sign is far outside.
TRUTH_TOL = 1e-9
# Relative drift of conserved quantities along attkit's truth.
CONSERVATION_TOL = 1e-8
# Noise-free twin: errors of an exact-start filter on error-free data
# (criterion 8 of the acceptance suite).
TWIN_TOL = 1e-6
# CSV numbers are printed at 10 significant digits.
CSV_RTOL = 1e-9


def hat(w):
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(M):
    return np.array([M[..., 2, 1], M[..., 0, 2], M[..., 1, 0]]).T


def rotation_angle(C1, C2):
    """Angle of C1^T C2 by atan2(|sin|, cos), accurate at 0 and near pi.

    Works on single 3x3 matrices and on stacks of them.
    """
    R = np.swapaxes(C1, -1, -2) @ C2
    s = 0.5 * np.linalg.norm(vee(R - np.swapaxes(R, -1, -2)), axis=-1)
    c = 0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(s, c)


def so3_residual(C):
    """Largest of |C^T C - I| and |det C - 1| over a stack of matrices."""
    C = np.asarray(C, dtype=float)
    ortho = np.abs(np.swapaxes(C, -1, -2) @ C - np.eye(3)).max(axis=(-2, -1))
    return np.maximum(ortho, np.abs(np.linalg.det(C) - 1.0))


def procrustes(L):
    """Rotation maximizing trace(C^T L): the sign-corrected SVD solution
    of Wahba's problem for profile matrix L (stacked)."""
    U, _, Vt = np.linalg.svd(L)
    d = np.sign(np.linalg.det(U @ Vt))
    D = np.zeros(L.shape)
    D[..., 0, 0] = 1.0
    D[..., 1, 1] = 1.0
    D[..., 2, 2] = d
    return U @ D @ Vt


# ---------------------------------------------------------------------------
# determine

def check_determine(estimates, profiles, truths, noise_free):
    """Compare estimates with SVD Procrustes, the truth where noise-free,
    and SO(3) membership."""
    problems = []
    bad = np.flatnonzero(~np.isfinite(estimates).all(axis=(1, 2)))
    if bad.size:
        return [f"determine: {bad.size} estimates are not finite (first {bad[0]})"]
    dev = np.abs(estimates - procrustes(profiles)).max(axis=(1, 2))
    if dev.max() > DETERMINE_TOL:
        i = int(dev.argmax())
        problems.append(f"determine: problem {i} is {dev[i]:.3e} from the SVD solution")
    if noise_free.any():
        dev_t = np.abs(estimates[noise_free] - truths[noise_free]).max(axis=(1, 2))
        if dev_t.max() > DETERMINE_TOL:
            problems.append(f"determine: noise-free problem {dev_t.max():.3e} from truth")
    res = so3_residual(estimates)
    if res.max() > SO3_TOL:
        problems.append(f"determine: estimate {int(res.argmax())} not in SO(3) ({res.max():.3e})")
    return problems


# ---------------------------------------------------------------------------
# rigid-body reference

def reference_trajectory(C0, w0, K, A, times):
    """Integrate Cdot = C hat(w), K wdot = (K w) x w + vee(A^T C - C^T A)
    with scipy's DOP853 at tolerance 1e-13; returns the stacked attitudes
    and rates at the given times (from t = 0).

    K is the classical inertia matrix; A the coefficient of the potential
    trace(A^T C) (zero for a free body).
    """
    from scipy.integrate import solve_ivp

    Kinv = np.linalg.inv(K)

    def rhs(t, y):
        C, w = y[:9].reshape(3, 3), y[9:]
        M = A.T @ C
        return np.concatenate([(C @ hat(w)).ravel(), Kinv @ (np.cross(K @ w, w) + vee(M - M.T))])

    y0 = np.concatenate([np.ravel(C0), w0])
    sol = solve_ivp(rhs, (0.0, times[-1]), y0, method="DOP853", t_eval=times,
                    rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:9].T.reshape(-1, 3, 3), sol.y[9:].T


def check_truth(C, w, C_ref, w_ref, K, A, C0, w0):
    """attkit's truth (stacked C, w at the epochs) against the reference
    trajectory, and conservation along it."""
    problems = []
    dC = np.abs(C - C_ref).max()
    dw = np.abs(w - w_ref).max()
    if not (dC <= TRUTH_TOL and dw <= TRUTH_TOL):
        problems.append(f"truth: attitude off by {dC:.3e}, rate off by {dw:.3e} from the reference")
    if so3_residual(C).max() > SO3_TOL:
        problems.append("truth: attitude left SO(3)")
    energy = 0.5 * np.einsum("ki,ij,kj->k", w, K, w) + np.einsum("ij,kij->k", A, C)
    e0 = 0.5 * w0 @ K @ w0 + np.sum(A * C0)
    scale = max(abs(e0), 0.5 * w0 @ K @ w0)
    drift = np.abs(energy - e0).max() / scale
    if not drift <= CONSERVATION_TOL:
        problems.append(f"truth: energy drift {drift:.3e} relative")
    if not np.any(A):
        mom = np.einsum("kij,jl,kl->ki", C, K, w)
        m0 = C0 @ K @ w0
        mdrift = np.abs(mom - m0).max() / np.linalg.norm(m0)
        if not mdrift <= CONSERVATION_TOL:
            problems.append(f"truth: spatial momentum drift {mdrift:.3e} relative")
    return problems


def check_twin(C_minus, C_plus, w_minus, w_plus, C_ref, w_ref):
    """Noise-free twin: estimates (stacked) must reproduce the truth."""
    att = max(rotation_angle(C_minus, C_ref).max(), rotation_angle(C_plus, C_ref).max())
    rate = max(
        np.linalg.norm(w_minus - w_ref, axis=1).max(),
        np.linalg.norm(w_plus - w_ref, axis=1).max(),
    )
    if not (att <= TWIN_TOL and rate <= TWIN_TOL):
        return [f"twin: attitude error {att:.3e} rad, rate error {rate:.3e} above {TWIN_TOL}"]
    return []


# ---------------------------------------------------------------------------
# noise levels

def snapshot_sigma(refs, sigma_vec):
    """RMS attitude error (rad) of one unit-weight Wahba snapshot.

    With per-axis noise sigma_vec on unit vectors e_i, the first-order
    error covariance is sigma_vec^2 (sum_i (I - e_i e_i^T))^-1; this
    returns the square root of its trace.
    """
    info = sum(np.eye(3) - np.outer(e, e) for e in np.asarray(refs).T)
    return float(sigma_vec * math.sqrt(np.trace(np.linalg.inv(info))))


def noise_bounds(refs, sigma_vec, sigma_gyro, omega_max, dt, mode):
    """Upper bounds (mean, largest) on the filter errors, from the noise.

    Attitude: the post-update estimate blends the propagated attitude with
    the epoch's vectors, so its RMS error is at most that of one snapshot,
    s (snapshot_sigma); the pre-update error adds one interval of rate
    error. Rates without gyro: each update turns the rate by half the
    attitude correction, |d omega| <= 0.5 |omega| |correction|, and the
    correction is at most the pre- plus the post-update error, so the RMS
    is at most |omega|_max s. Rates with gyro: a weighted mean of the
    propagated rate and a reading with RMS error sqrt(3) sigma_gyro.
    A positive error with RMS r has mean at most r, and the largest of a
    few hundred Gaussian-driven samples stays below 4 r. Both bounds carry
    a factor of two on top, because the no-gyro rate error also takes a
    slow random walk that the first-order argument leaves out.
    """
    s_att = snapshot_sigma(refs, sigma_vec)
    s_rate = math.sqrt(3.0) * sigma_gyro if mode == "with-gyro" else omega_max * s_att
    s_pre = s_att + s_rate * dt
    return {
        "err_att_pre_rad": (2.0 * s_pre, 8.0 * s_pre),
        "err_att_post_rad": (2.0 * s_att, 8.0 * s_att),
        "err_omega_pre": (2.0 * s_rate, 8.0 * s_rate),
        "err_omega_post": (2.0 * s_rate, 8.0 * s_rate),
    }


# ---------------------------------------------------------------------------
# filter CSV

def parse_filter_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return None, None
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    except ValueError:
        return rows[0], None
    return rows[0], data


def check_filter_csv(text, schedule, bounds, n_refs, sigma_vec):
    """Header, one row per epoch, the schedule in the time column, finite
    errors at the noise level, and a post-update cost of the size the
    noise implies (E[2 J] = 2 sigma^2 per unit-weight vector)."""
    header, data = parse_filter_csv(text)
    if header != FILTER_HEADER:
        return [f"filter csv: header {header!r}"]
    if data is None or data.ndim != 2 or data.shape[1] != len(FILTER_HEADER):
        return ["filter csv: rows are not numeric with six columns"]
    if data.shape[0] != len(schedule):
        return [f"filter csv: {data.shape[0]} rows for {len(schedule)} epochs"]
    problems = []
    if np.abs(data[:, 0] - schedule).max() > CSV_RTOL * max(1.0, np.abs(schedule).max()):
        problems.append("filter csv: time column differs from the schedule")
    if not np.isfinite(data).all() or (data[:, 1:] < 0.0).any():
        return problems + ["filter csv: negative or non-finite errors"]
    for j, name in enumerate(FILTER_HEADER[1:5], start=1):
        mean_b, max_b = bounds[name]
        col = data[:, j]
        if not (col.mean() <= mean_b and col.max() <= max_b):
            problems.append(
                f"filter csv: {name} mean {col.mean():.3e} / max {col.max():.3e} "
                f"above noise bounds {mean_b:.3e} / {max_b:.3e}"
            )
    cost_mean = data[:, 5].mean()
    expected = n_refs * sigma_vec**2
    if not 0.25 * expected <= cost_mean <= 4.0 * expected:
        problems.append(f"filter csv: mean cost {cost_mean:.3e}, noise implies {expected:.3e}")
    return problems


# ---------------------------------------------------------------------------
# montecarlo

MC_ERRORS = ("err_att_pre", "err_att_post", "err_omega_pre", "err_omega_post")


def check_campaign(summary, schedule, trials, master_seed):
    """Shape and consistency of one campaign summary."""
    problems = []
    if summary.get("trials") != trials or summary.get("master_seed") != master_seed:
        problems.append("montecarlo: trials or master seed not echoed")
    per = summary.get("per_epoch", {})
    agg = summary.get("aggregate", {})
    t = np.asarray(per.get("t", []), dtype=float)
    if t.shape != schedule.shape or np.abs(t - schedule).max() > 1e-12:
        return problems + ["montecarlo: per-epoch times differ from the schedule"]
    for name in MC_ERRORS:
        mean = np.asarray(per.get(f"{name}_mean", []), dtype=float)
        std = np.asarray(per.get(f"{name}_std", []), dtype=float)
        mx = np.asarray(per.get(f"{name}_max", []), dtype=float)
        if not (mean.shape == std.shape == mx.shape == schedule.shape):
            problems.append(f"montecarlo: {name} per-epoch arrays have the wrong length")
            continue
        if not (np.isfinite(mean).all() and (mean >= 0).all() and (mx >= mean).all()
                and (std >= 0).all()):
            problems.append(f"montecarlo: {name} per-epoch statistics inconsistent")
        if abs(agg.get(f"{name}_mean", np.nan) - mean.mean()) > 1e-12 * max(1.0, mean.mean()):
            problems.append(f"montecarlo: {name} aggregate mean is not the epoch mean")
        if abs(agg.get(f"{name}_max", np.nan) - mx.max()) > 0.0:
            problems.append(f"montecarlo: {name} aggregate max is not the epoch max")
    return problems


def check_campaign_scaling(full, half, sigma):
    """Criterion 11: mean post-update attitude error within 3 sigma, and
    linear in sigma (half the noise gives a ratio in [0.4, 0.6])."""
    m_full = full["aggregate"]["err_att_post_mean"]
    m_half = half["aggregate"]["err_att_post_mean"]
    problems = []
    if not m_full <= 3.0 * sigma:
        problems.append(f"montecarlo: mean attitude error {m_full:.3e} above 3 sigma")
    ratio = m_half / m_full if m_full > 0 else float("nan")
    if not 0.4 <= ratio <= 0.6:
        problems.append(f"montecarlo: half-sigma ratio {ratio:.3f} outside [0.4, 0.6]")
    return problems


def check_trial_zero(summary, filter_csv_text):
    """A one-trial campaign must reproduce a filter run with the same seed."""
    header, data = parse_filter_csv(filter_csv_text)
    if header != FILTER_HEADER or data is None:
        return ["montecarlo: trial-0 filter output unreadable"]
    per = summary["per_epoch"]
    if len(per["t"]) != data.shape[0]:
        return ["montecarlo: trial 0 and the filter run differ in length"]
    for j, name in enumerate(MC_ERRORS, start=1):
        mc = np.asarray(per[f"{name}_mean"], dtype=float)
        if (np.abs(mc - data[:, j]) > CSV_RTOL * np.abs(mc)).any():
            return [f"montecarlo: trial 0 {name} differs from the filter run"]
    return []

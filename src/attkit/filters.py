"""Continuous-discrete attitude and angular velocity filters.

Between measurement epochs the estimate is propagated with the exact
deterministic rigid-body dynamics; at each epoch the attitude is updated by
solving a regularized alignment problem whose profile matrix blends the
propagated attitude (weighted by Delta) with the epoch's vector
measurements, and the angular velocity is updated either by rate matching
(no gyro) or by a momentum-weighted average with the measured rate (gyro).
With error-free measurements and an exact start every update is an identity
map, so the filters are unbiased in that sense.

The updates also take B trials at once: stacked attitudes and rates
(B, 3, 3) and a batch whose body vectors are (B, 3, n); every check then
applies to each trial. One epoch loop runs every filter, over the batches
a caller gives run_filter or over batches simulate draws as it goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3, wahba
from .dynamics import InertiaSpec, IntegratorConfig, PotentialModel, _advance, _finite_rate
from .errors import InconsistentUpdate, MissingGyro

__all__ = [
    "FilterConfig",
    "FilterEstimate",
    "MeasurementBatch",
    "initial_estimate",
    "run_filter",
    "update_attitude",
    "update_omega_no_gyro",
    "update_omega_with_gyro",
]

# Allowed symmetric residual in the rate-matching update equation, relative
# to the scale of its right side (see update_omega_no_gyro).
UPDATE_SYM_TOL = 1e-9


def _eye() -> np.ndarray:
    return np.eye(3)


@dataclass(frozen=True, eq=False)
class FilterConfig:
    """Design weights and integrator settings shared by a filter run.

    Delta weighs trust in the propagated attitude inside the update profile;
    Pi weighs the rate-matching update used without gyro measurements; Gamma
    weighs trust in the propagated angular velocity against the measured one.
    All three must be symmetric positive definite.
    """

    Delta: np.ndarray = field(default_factory=_eye)
    Pi: np.ndarray = field(default_factory=_eye)
    Gamma: np.ndarray = field(default_factory=_eye)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        object.__setattr__(self, "Delta", so3.check_spd(self.Delta))
        object.__setattr__(self, "Pi", so3.check_spd(self.Pi))
        object.__setattr__(self, "Gamma", so3.check_spd(self.Gamma))


@dataclass(frozen=True, eq=False)
class MeasurementBatch:
    """Vector measurements (and optionally a gyro reading) at one epoch.

    refs: 3xn inertial reference directions; body: the matched measured
    body-frame directions, or a (B, 3, n) stack of them for B trials, paired
    by the one check alignment_cost and build_profile make too;
    weights: n positive weights (defaults to ones). omega_meas is the
    measured angular velocity as a skew matrix (or a stack of them) and
    omega_weight its symmetric positive definite weight, typically assigned
    from the rate sensor error covariance; both may be absent. A reading
    whose entries or squared rate |w|^2 are not finite raises ValueError.
    A batch the simulator makes gets only the checks it can fail (_batches).
    """

    t: float
    refs: np.ndarray
    body: np.ndarray
    weights: np.ndarray | None = None
    omega_meas: np.ndarray | None = None
    omega_weight: np.ndarray | None = None

    def __post_init__(self):
        refs, body = wahba._pair(self.refs, self.body)
        object.__setattr__(self, "refs", refs)
        object.__setattr__(self, "body", body)
        w = np.ones(refs.shape[1]) if self.weights is None else self.weights
        object.__setattr__(self, "weights", wahba.check_weights(w, n=refs.shape[1]))
        if self.omega_meas is not None:
            object.__setattr__(self, "omega_meas", _reading(self.omega_meas))
        if self.omega_weight is not None:
            object.__setattr__(self, "omega_weight", so3.check_spd(self.omega_weight))


def _reading(om):
    # A gyro reading's checks: its squared rate |w|^2 finite, then skew.
    om = np.asarray(om, dtype=float)
    flat = om.reshape(*om.shape[:-2], -1)
    with np.errstate(over="ignore"):  # |w|^2 = |om|^2 / 2 may overflow
        w2 = np.vecdot(0.5 * flat, flat)
    bad = so3._first_failure(w2 < np.inf, w2)
    if bad is not None:
        raise ValueError(f"omega_meas: squared rate {bad} is not finite")
    return so3.check_skew(om)


@dataclass(frozen=True, eq=False)
class FilterEstimate:
    """Estimates just before (minus) and just after (plus) an epoch's update."""

    t: float
    C_minus: np.ndarray
    C_plus: np.ndarray
    Omega_minus: np.ndarray
    Omega_plus: np.ndarray


def update_attitude(C_minus, batch: MeasurementBatch, cfg: FilterConfig) -> np.ndarray:
    """Attitude update: solve the alignment problem on the blended profile
    C_minus Delta + sum_i w_i e_i b_i^T."""
    L = np.asarray(C_minus, dtype=float) @ cfg.Delta + batch.refs @ (
        batch.weights[:, None] * batch.body.mT
    )
    return wahba._polar(wahba.profile_from_matrix(L))


@np.errstate(over="ignore", invalid="ignore")  # the checks below report non-finite values
def update_omega_no_gyro(C_minus, C_plus, Omega_minus, Pi) -> np.ndarray:
    """Rate-matching angular velocity update without gyro measurements.

    Solves X Pi + Pi X = F Omega_minus Pi + Pi Omega_minus F^T for skew X,
    where F = C_plus^T C_minus carries the attitude correction. The right
    side is skew whenever Pi is symmetric; its symmetric residual is checked
    against UPDATE_SYM_TOL max(1, max|Pi| max|Omega_minus|), as the right
    side and its rounding scale with both, and a violation raises
    InconsistentUpdate. A right side that overflows raises ValueError.
    """
    Pi = np.asarray(Pi, dtype=float)
    Om = np.asarray(Omega_minus, dtype=float)
    F = np.asarray(C_plus, dtype=float).mT @ np.asarray(C_minus, dtype=float)
    R = F @ Om @ Pi + Pi @ Om @ F.mT
    sym = float(0.5 * np.abs(R + R.mT).max())
    if not math.isfinite(sym):  # R + R^T is not finite where R is not
        raise ValueError(f"rate update: its right side overflowed (symmetric residual {sym:.3e})")
    # The scale is at least 1: a residual within the tolerance needs no scale.
    if sym > UPDATE_SYM_TOL and sym > UPDATE_SYM_TOL * max(
        1.0, np.abs(Pi).max() * np.abs(Om).max()
    ):
        raise InconsistentUpdate(
            f"symmetric residual {sym:.3e} in rate update (is the weight symmetric "
            "positive definite and are the attitudes valid rotations?)"
        )
    return so3.solve_skew_sylvester(Pi, so3._axis(0.5 * (R - R.mT)))


@np.errstate(over="ignore", invalid="ignore")  # the solve reports a non-finite rate
def update_omega_with_gyro(Omega_minus, Omega_meas, X, Gamma) -> np.ndarray:
    """Momentum-weighted average of measured and propagated angular velocity.

    Solves (X+Gamma) W + W (X+Gamma) = (X Om + Om X) + (Gamma Op + Op Gamma)
    for skew W, with Om the measured and Op the propagated rate. Positive
    definiteness of X + Gamma makes the solution unique; equal inputs are a
    fixed point for any weights.
    """
    X = np.asarray(X, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)
    Omega_minus = np.asarray(Omega_minus, dtype=float)
    Omega_meas = np.asarray(Omega_meas, dtype=float)
    rhs = (
        X @ Omega_meas
        + Omega_meas @ X
        + Gamma @ Omega_minus
        + Omega_minus @ Gamma
    )
    # Unchecked: rhs scales with the weights, vee's absolute skew tolerance does not.
    return so3.solve_skew_sylvester(X + Gamma, so3._axis(rhs))


def initial_estimate(
    batch: MeasurementBatch, C0=None, Omega0=None
) -> FilterEstimate:
    """Starting estimate at the first epoch (minus and plus coincide).

    Without a given attitude, bootstraps it from the epoch's vector
    measurements alone. Without a given angular velocity, falls back to the
    epoch's gyro reading; if there is none, raises MissingGyro since the
    rate cannot be inferred from a single epoch.
    """
    if C0 is None:
        C0, _ = wahba.solve_attitude(
            wahba.build_profile(batch.refs, batch.weights, batch.body)
        )
    else:
        C0 = so3.check_rotation(C0)
    if Omega0 is None:
        if batch.omega_meas is None:
            raise MissingGyro(
                "initial angular velocity must be supplied when the first epoch "
                "has no rate measurement"
            )
        Omega0 = batch.omega_meas
    else:
        Omega0 = so3.check_skew(Omega0)
    return FilterEstimate(
        t=batch.t, C_minus=C0, C_plus=C0, Omega_minus=Omega0, Omega_plus=Omega0
    )


def run_filter(
    init: FilterEstimate | None,
    batches: list[MeasurementBatch],
    inertia: InertiaSpec,
    potential: PotentialModel,
    cfg: FilterConfig,
    mode: str = "no_gyro",
) -> list[FilterEstimate]:
    """Run the continuous-discrete filter over a time-sorted batch sequence.

    The first epoch takes the initial estimate as both its minus and plus
    values (bootstrapped from the first batch when init is None); every
    later epoch propagates the previous plus estimate to the epoch time and
    applies the attitude update followed by the mode's rate update.
    mode is "no_gyro" or "with_gyro"; the latter requires omega_meas and
    omega_weight on every batch.
    """
    times = [b.t for b in batches]
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise ValueError("batch times must be strictly increasing")
    if mode == "with_gyro":
        for k, b in enumerate(batches):
            if b.omega_meas is None or b.omega_weight is None:
                raise MissingGyro(
                    f"batch {k} lacks omega_meas/omega_weight in with_gyro mode"
                )
    if init is not None and batches and abs(init.t - times[0]) > 1e-12 * max(1.0, abs(init.t)):
        raise ValueError(
            f"initial estimate time {init.t!r} does not match first epoch {times[0]!r}"
        )
    C0, Omega0 = (None, None) if init is None else (init.C_plus, init.Omega_plus)
    return [est for _, est in _estimates(batches, inertia, potential, cfg, mode, C0, Omega0)]


def _estimates(batches, inertia, potential, cfg: FilterConfig, mode, C0=None, Omega0=None):
    """Yield each batch of any iterable with its estimate: the one epoch loop.

    The first estimate is initial_estimate(batch, C0, Omega0); every later one
    propagates the previous plus estimate to batch.t, then updates. Stacked
    estimates or batches advance B trials at once, each check per trial."""
    if mode not in ("no_gyro", "with_gyro"):
        raise ValueError(f"unknown filter mode {mode!r}")
    est = None
    for batch in batches:
        if est is None:
            est = initial_estimate(batch, C0, Omega0)
        else:
            w, span = so3._axis(est.Omega_plus), batch.t - est.t
            C_minus, w = _advance(inertia, potential, est.C_plus, w, span, cfg.integrator.step)
            # The checks a propagated body state gets, the rate's first.
            w = _finite_rate(w, span)
            C_minus, Omega_minus = so3.check_rotation(C_minus), so3.hat(w)  # skew: w is finite
            C_plus = update_attitude(C_minus, batch, cfg)
            if mode == "no_gyro":
                Omega_plus = update_omega_no_gyro(C_minus, C_plus, Omega_minus, cfg.Pi)
            else:
                Omega_plus = update_omega_with_gyro(
                    Omega_minus, batch.omega_meas, batch.omega_weight, cfg.Gamma
                )
            est = FilterEstimate(batch.t, C_minus, C_plus, Omega_minus, Omega_plus)
        yield batch, est

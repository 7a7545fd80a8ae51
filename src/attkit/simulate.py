"""Ground-truth trajectories, synthetic sensor models and simulated filter runs.

Measured body vectors are the rotated references plus per-axis Gaussian
noise, re-normalized to unit length (the usual star-tracker model); gyro
readings are the true angular velocity plus per-axis Gaussian noise. Draws
come from an explicit counter-based generator, so runs are reproducible
given a seed; given a list of B generators, the measurement generators
draw once from each and return B stacked measurements. A simulated run, of
one trial or B, feeds the filter's one epoch loop batches drawn as it goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3, wahba
from .dynamics import BodyState, InertiaSpec, IntegratorConfig, PotentialModel, propagate
from .errors import ShapeMismatch
from .filters import FilterConfig, FilterEstimate, MeasurementBatch, _estimates


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (Philox) for reproducible, splittable streams."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor noise levels: per-axis standard deviations and the stream seed."""

    sigma_vec: float = 0.0
    sigma_gyro: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.sigma_vec < math.inf and 0.0 <= self.sigma_gyro < math.inf):
            raise ValueError("noise standard deviations must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Everything needed to generate truth and measurements for one run."""

    refs: np.ndarray
    inertia: InertiaSpec
    potential: PotentialModel
    init: BodyState
    schedule: np.ndarray
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        refs = wahba.check_vector_set(self.refs, unit=True, name="scenario refs")
        if refs.ndim != 2:
            raise ShapeMismatch(f"scenario refs: expected one 3xn set, got {refs.shape}")
        object.__setattr__(self, "refs", refs)
        sched = np.asarray(self.schedule, dtype=float)
        if sched.ndim != 1:
            raise ValueError("schedule must be a 1-d sequence of times")
        if sched.size and (np.diff(sched) <= 0.0).any():
            raise ValueError("schedule times must be strictly increasing")
        if sched.size and sched[0] < self.init.t:
            raise ValueError("schedule starts before the initial state time")
        object.__setattr__(self, "schedule", sched)


def gen_truth(scn: ScenarioSpec, cfg: IntegratorConfig | None = None) -> list[BodyState]:
    """True states at every scheduled epoch, propagated from the initial state."""
    out = []
    state = scn.init
    for t in scn.schedule:
        state = propagate(state, scn.inertia, scn.potential, float(t), cfg)
        out.append(state)
    return out


def gen_vector_measurements(
    state: BodyState, refs, noise: NoiseSpec, rng: np.random.Generator
) -> np.ndarray:
    """Measured body-frame unit vectors for the given true state.

    Each column is normalize(C^T e + nu) with nu drawn per axis from
    N(0, sigma_vec^2). With sigma_vec = 0 the exact rotated references are
    returned unchanged.
    """
    refs = np.asarray(refs, dtype=float)
    body = state.C.T @ refs
    if noise.sigma_vec > 0.0:
        body = body + _normal(rng, noise.sigma_vec, body.shape)
        body = body / np.linalg.norm(body, axis=-2, keepdims=True)
    return body


def gen_gyro_measurement(
    Omega_true, noise: NoiseSpec, rng: np.random.Generator
) -> np.ndarray:
    """Measured angular velocity: truth plus per-axis N(0, sigma_gyro^2) noise."""
    Omega_true = np.asarray(Omega_true, dtype=float)
    if noise.sigma_gyro > 0.0:
        return Omega_true + so3.hat(_normal(rng, noise.sigma_gyro, 3).T)
    return Omega_true.copy()


def _normal(rng, sigma, shape):
    # N(0, sigma^2) noise of the given shape from one generator, or stacked,
    # one draw from each of a list of generators.
    if isinstance(rng, np.random.Generator):
        return rng.normal(0.0, sigma, size=shape)
    return np.array([r.normal(0.0, sigma, size=shape) for r in rng])


def clustered_references(
    n: int,
    half_angle: float,
    axis=(0.0, 0.0, 1.0),
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """n unit directions drawn uniformly from a cone of the given half-angle.

    Mimics the clustered field of view of an optical sensor such as a star
    tracker.
    """
    if n < 3:
        raise ValueError("need at least 3 reference directions")
    if not 0.0 < half_angle <= math.pi:
        raise ValueError("half_angle must be in (0, pi]")
    if rng is None:
        rng = make_rng(0)
    z = rng.uniform(math.cos(half_angle), 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    r = np.sqrt(1.0 - z * z)
    local = np.vstack([r * np.cos(phi), r * np.sin(phi), z])

    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    zhat = np.array([0.0, 0.0, 1.0])
    v = np.cross(zhat, axis)
    s = np.linalg.norm(v)
    if s < 1e-12:
        R = np.eye(3) if axis[2] > 0 else so3._exp_vec((math.pi, 0.0, 0.0))
    else:
        R = so3._exp_vec(v / s * math.atan2(s, float(zhat @ axis)))
    return R @ local


def gen_batches_from_truth(
    truth: list[BodyState],
    scn: ScenarioSpec,
    rng: np.random.Generator,
    omega_weight=None,
) -> list[MeasurementBatch]:
    """Draw one measurement batch per true state.

    Every batch carries a gyro reading so the result serves both filter
    modes; omega_weight defaults to the identity and identity vector
    weights are used.
    """
    if omega_weight is None:
        omega_weight = np.eye(3)
    batches = []
    for state in truth:
        body = gen_vector_measurements(state, scn.refs, scn.noise, rng)
        omega_meas = gen_gyro_measurement(state.Omega, scn.noise, rng)
        batches.append(
            MeasurementBatch(
                t=state.t,
                refs=scn.refs,
                body=body,
                omega_meas=omega_meas,
                omega_weight=omega_weight,
            )
        )
    return batches


def simulate_scenario(
    scn: ScenarioSpec,
    rng: np.random.Generator | None = None,
    cfg: IntegratorConfig | None = None,
    omega_weight=None,
) -> tuple[list[BodyState], list[MeasurementBatch]]:
    """Generate (truth, measurement batches) for a scenario.

    Deterministic given the scenario: the default rng is seeded from
    scn.noise.seed.
    """
    if rng is None:
        rng = make_rng(scn.noise.seed)
    truth = gen_truth(scn, cfg)
    return truth, gen_batches_from_truth(truth, scn, rng, omega_weight=omega_weight)


def filter_errors(truth: list[BodyState], estimates: list[FilterEstimate]) -> np.ndarray:
    """Per-epoch errors of filter estimates against the true states.

    Row k holds, for the k-th pair of true state and estimate, the principal
    angles from C_minus and from C_plus to the true attitude, then the
    Euclidean norms of the Omega_minus and Omega_plus errors in axis
    coordinates. Estimates that stack B trials, in any of their parts, give
    rows of shape (B, 4).
    """
    rows = []
    for st, est in zip(truth, estimates, strict=True):
        rates = (so3.vee(est.Omega_minus - st.Omega), so3.vee(est.Omega_plus - st.Omega))
        rows.append(np.stack(np.broadcast_arrays(
            so3.principal_angle(est.C_minus, st.C),
            so3.principal_angle(est.C_plus, st.C),
            # The dot-product norm, bit for bit np.linalg.norm's on one vector.
            *(np.sqrt(np.vecdot(v.T, v.T)) for v in rates),
        ), axis=-1))
    return np.array(rows) if rows else np.empty((0, 4))


def _epochs(scn: ScenarioSpec, fcfg: FilterConfig, omega_weight, integ, mode, rng):
    """Yield (true state, batch, estimate) per epoch of a simulated filter run.

    The truth is propagated first; each epoch's batch is then drawn just
    before its update. A list of B generators advances B trials together
    on a leading trial axis.
    """
    truth = gen_truth(scn, integ)
    # One epoch's measurements at a time, kept in batch until yielded;
    # without noise they are one measurement shared by every trial.
    drawn = (batch := gen_batches_from_truth([s], scn, rng, omega_weight)[0] for s in truth)
    for state, est in zip(truth, _estimates(drawn, scn.inertia, scn.potential, fcfg, mode)):
        yield state, batch, est


def montecarlo_summary(
    scn: ScenarioSpec,
    fcfg: FilterConfig,
    omega_weight,
    integ: IntegratorConfig,
    mode: str,
    trials: int,
    master_seed: int,
) -> dict:
    """Aggregate per-epoch filter error statistics over seeded trials.

    The truth trajectory is shared; trial i redraws measurement noise from
    the counter-based stream keyed by master_seed + i (distinct keys give
    independent streams, and trial 0 reproduces a single filter run with
    the same seed). Results are deterministic functions of (scenario,
    config, trials, master_seed).

    All trials advance together on a leading trial axis through _epochs,
    the driver of a single filter run, so every check of a single run
    applies to each trial; when checks fail in several trials, the first
    failure in (epoch, check) order is raised. Quantities that no noise
    reaches stay unstacked, shared by every trial.
    """
    # One trial takes the one-problem path: stacks of one cost numpy call
    # overhead that plain floats do not.
    rngs = [make_rng(master_seed + i) for i in range(trials)]
    epochs = _epochs(scn, fcfg, omega_weight, integ, mode, rngs[0] if trials == 1 else rngs)
    metrics = np.empty((trials, len(scn.schedule), 4))
    for k, (state, _, est) in enumerate(epochs):
        metrics[:, k] = filter_errors([state], [est])[0]

    names = ("err_att_pre", "err_att_post", "err_omega_pre", "err_omega_post")
    per_epoch: dict = {"t": [float(t) for t in scn.schedule]}
    aggregate: dict = {}
    for j, name in enumerate(names):
        for stat in ("mean", "std", "max"):
            reduce = getattr(metrics[:, :, j], stat)
            per_epoch[f"{name}_{stat}"] = reduce(axis=0).tolist()
            aggregate[f"{name}_{stat}"] = float(reduce())
    return {
        "schema": 1,
        "trials": trials,
        "master_seed": int(master_seed),
        "mode": mode,
        "per_epoch": per_epoch,
        "aggregate": aggregate,
    }

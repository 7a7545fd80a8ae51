"""Ground-truth trajectories, synthetic sensor models and simulated filter runs.

Measured body vectors are the rotated references plus per-axis Gaussian
noise, re-normalized to unit length (the usual star-tracker model); gyro
readings are the true angular velocity plus per-axis Gaussian noise. Draws
come from an explicit counter-based generator, so runs are reproducible
given a seed; given a list of B generators, the measurement generators
draw once from each and return B stacked measurements. A simulated run, of
one trial or B, feeds the filter's one epoch loop batches built as it goes,
from noise each generator draws DRAW_BLOCK epochs at a time, and
run_metrics reports its errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3, wahba
from .dynamics import BodyState, InertiaSpec, IntegratorConfig, PotentialModel, propagate
from .errors import ShapeMismatch
from .filters import FilterConfig, MeasurementBatch, _estimates

__all__ = [
    "NoiseSpec",
    "ScenarioSpec",
    "clustered_references",
    "gen_batches_from_truth",
    "gen_gyro_measurement",
    "gen_truth",
    "gen_vector_measurements",
    "make_rng",
    "simulate_scenario",
]


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
        for name, sigma in (("sigma_vec", self.sigma_vec), ("sigma_gyro", self.sigma_gyro)):
            if not 0.0 <= sigma < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {sigma}")


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
        refs = wahba.check_vector_set(self.refs, unit=True, name="scenario.refs")
        if refs.ndim != 2:
            raise ShapeMismatch(f"scenario.refs: expected one 3xn set, got {refs.shape}")
        object.__setattr__(self, "refs", refs)
        object.__setattr__(self, "schedule", _check_schedule(self.schedule, self.init.t))


def _check_schedule(times, t0):
    # Epoch times after an initial state at t0, as a float array.
    sched = np.asarray(times, dtype=float)
    if sched.ndim != 1:
        raise ValueError("schedule must be a 1-d sequence of times")
    if sched.size and (np.diff(sched) <= 0.0).any():
        raise ValueError("schedule times must be strictly increasing")
    if sched.size and sched[0] < t0:
        raise ValueError("schedule starts before the initial state time")
    return sched


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
    n_vec = refs.size if noise.sigma_vec > 0.0 else 0
    return _vectors(state.C, refs, next(_draws(rng, np.full(n_vec, noise.sigma_vec), 1)))


def gen_gyro_measurement(
    Omega_true, noise: NoiseSpec, rng: np.random.Generator
) -> np.ndarray:
    """Measured angular velocity: truth plus per-axis N(0, sigma_gyro^2) noise."""
    n_gyro = 3 if noise.sigma_gyro > 0.0 else 0
    nu = next(_draws(rng, np.full(n_gyro, noise.sigma_gyro), 1))
    return _rate(np.asarray(Omega_true, dtype=float), nu)


# Epochs of noise a generator draws in one call. A campaign of 100 trials
# with 7 noisy vectors holds a block of 100 x 4 x 21 doubles (67 kB), two at
# a block's end, drawn in place in about 2 us a trial: blocks of 8 or 16 epochs
# save under 0.5 % of a campaign, and add about 0.5 % and 1 % to its peak memory.
DRAW_BLOCK = 4


def _draws(rng, scales, epochs):
    # Each epoch's N(0, scales^2) draws in turn: (k,) from one generator, or
    # (B, k) from a list of B generators, each drawing DRAW_BLOCK epochs per
    # call. normal(0.0, scale) computes 0.0 + scale z from the standard
    # normals z in stream order, which standard_normal returns as they are;
    # the sign of a zero aside, which 0.0 + scale z drops anyway, the bits
    # equal those of one normal call per epoch. k = 0 draws nothing.
    for start in range(0, epochs, DRAW_BLOCK):
        size = (min(DRAW_BLOCK, epochs - start), len(scales))
        if isinstance(rng, np.random.Generator):
            z = rng.standard_normal(size)
        else:  # each trial fills its own rows of one block, in place
            z = np.empty((len(rng),) + size)
            for r, rows in zip(rng, z):
                r.standard_normal(out=rows)
            z = z.swapaxes(0, 1)
        with np.errstate(over="ignore"):  # normal overflows to inf silently too
            z *= scales
        z += 0.0  # as normal's 0.0 + scale z: an underflow to -0.0 becomes 0.0
        yield from z


def _vectors(C, refs, nu):
    # C^T refs, perturbed by nu (refs.size draws, row by row, per trial) and
    # re-normalized; unchanged if nu is empty.
    body = C.T @ refs
    if nu.shape[-1]:
        body = body + nu.reshape(nu.shape[:-1] + refs.shape)
        body = body / np.linalg.norm(body, axis=-2, keepdims=True)
    return body


def _rate(Omega, nu):
    # Omega plus hat(nu) (3 draws per trial), or a copy if nu is empty.
    return Omega + so3.hat(nu.T) if nu.shape[-1] else Omega.copy()


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
    return list(_batches(truth, scn, rng, omega_weight))


def _batches(truth, scn, rng, omega_weight):
    # Yield gen_batches_from_truth's batches one at a time, each built and
    # checked at its own epoch. Each epoch draws, from each generator, the
    # vector noise (3n) and then the gyro noise (3), a sensor with sigma 0
    # nothing, in blocks of DRAW_BLOCK epochs.
    if omega_weight is None:
        omega_weight = np.eye(3)
    noise, refs = scn.noise, scn.refs
    n_vec = refs.size if noise.sigma_vec > 0.0 else 0
    n_gyro = 3 if noise.sigma_gyro > 0.0 else 0
    scales = np.repeat([noise.sigma_vec, noise.sigma_gyro], [n_vec, n_gyro])
    for state, nu in zip(truth, _draws(rng, scales, len(truth))):
        yield MeasurementBatch(
            t=state.t,
            refs=refs,
            body=_vectors(state.C, refs, nu[..., :n_vec]),
            omega_meas=_rate(state.Omega, nu[..., n_vec:]),
            omega_weight=omega_weight,
        )


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


def run_metrics(
    scn: ScenarioSpec, fcfg: FilterConfig, omega_weight, integ: IntegratorConfig, mode: str,
    trials: int, master_seed: int,
) -> np.ndarray:
    """Per-epoch error metrics of a simulated filter run, for seeded trials.

    The truth is propagated first. Trial i draws its noise from the stream
    keyed by master_seed + i, each epoch's batch just before its update; all
    trials advance together on a leading trial axis through the one epoch
    loop, so the first failing check in (epoch, check) order is raised.
    Returns (trials, epochs, 5): the principal angles from C_minus and
    C_plus to the true attitude, the Euclidean norms of the Omega_minus and
    Omega_plus errors, and the alignment cost of C_plus on the epoch's batch.
    """
    truth = gen_truth(scn, integ)
    # One trial takes the one-problem path: stacks of one cost numpy call
    # overhead that plain floats do not.
    rngs = [make_rng(master_seed + i) for i in range(trials)]
    rng = rngs[0] if trials == 1 else rngs
    # One epoch's measurements at a time, each with the estimate it updates;
    # without noise they are one measurement shared by every trial.
    drawn = _batches(truth, scn, rng, omega_weight)
    epochs = _estimates(drawn, scn.inertia, scn.potential, fcfg, mode)
    # One trial runs every epoch before any metric, about 3 % faster over 400
    # epochs than interleaving them; a campaign keeps one epoch's stacks at a time.
    if trials == 1:
        epochs = list(epochs)
    out = np.empty((trials, len(truth), 5))
    for k, (st, (b, est)) in enumerate(zip(truth, epochs)):
        rates = (so3._axis(est.Omega_minus - st.Omega), so3._axis(est.Omega_plus - st.Omega))
        for j, column in enumerate((
            so3.principal_angle(est.C_minus, st.C),
            so3.principal_angle(est.C_plus, st.C),
            # The dot-product norm, bit for bit np.linalg.norm's on one vector.
            *(np.sqrt(np.vecdot(v.T, v.T)) for v in rates),
            wahba.alignment_cost(est.C_plus, b.refs, b.body, b.weights),
        )):
            out[:, k, j] = column
    return out


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

    The statistics reduce the first four columns of run_metrics, which a
    single filter run reports too: trial i redraws measurement noise from
    the stream keyed by master_seed + i, so trial 0 reproduces a single run
    with the same seed. Results are deterministic functions of (scenario,
    config, trials, master_seed).
    """
    metrics = run_metrics(scn, fcfg, omega_weight, integ, mode, trials, master_seed)
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

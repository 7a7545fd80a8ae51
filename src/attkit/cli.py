"""Command-line front end.

Subcommands:
  golden      run the bundled seven-vector reference case and verify the
              solver reproduces the stored known-good results
  determine   one-shot attitude determination from a JSON problem file
  propagate   integrate the rigid-body dynamics over a scenario schedule
  filter      run a continuous-discrete filter on a simulated scenario
  montecarlo  repeat a filter scenario over independently seeded trials

Configuration files are JSON with a top-level "schema": 1 field. 3x3
matrices are row-major arrays of 9 numbers (design weights may be given as
a single scalar s, meaning s times the identity); 3xn vector sets are
arrays of 3 row arrays; angular velocities may be 3-vectors or row-major
skew matrices. Results are written to --output when given, otherwise to
stdout: CSV time series for propagate/filter, JSON for the others. The
environment variable ATTKIT_OUTPUT_DIR prefixes relative output paths.
Numbers must be finite JSON numbers: quoted numbers, booleans and null are
configuration errors.

Exit codes: 0 success, 2 configuration or input errors, 3 singular
profile, 4 reflection profile, 5 golden mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import reference_case, simulate, so3, wahba
from .dynamics import (
    BodyState,
    InertiaSpec,
    IntegratorConfig,
    PotentialModel,
    kinetic_energy,
    linear_potential,
    zero_potential,
)
from .errors import (
    AttKitError,
    ConfigError,
    GoldenMismatch,
    ReflectionProfile,
    SingularProfile,
)
from .filters import FilterConfig
from .simulate import NoiseSpec, ScenarioSpec, gen_truth, montecarlo_summary, run_metrics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_REFLECTION = 4
EXIT_GOLDEN = 5

FILTER_CSV_HEADER = "t,err_att_pre_rad,err_att_post_rad,err_omega_pre,err_omega_post,cost_J0"
PROPAGATE_CSV_HEADER = (
    "t,c00,c01,c02,c10,c11,c12,c20,c21,c22,omega_x,omega_y,omega_z,kinetic_energy"
)


def _fmt(v: float) -> str:
    return "%.10g" % v


def _fmt_matrix(M) -> str:
    return "\n".join("  " + "  ".join("%14.10g" % v for v in row) for row in np.asarray(M))


# ---------------------------------------------------------------------------
# config parsing: every number in a config is checked to be finite as the
# file is read, then passes _number (scalars) or _array (arrays).

class _NonFinite(str):
    """A number literal that is NaN or infinite as a float, kept as its text."""


def _load_config(path: str) -> dict:
    bad = []

    def number(text, integer=False):  # json hook for every number literal
        x = float(text)
        if math.isfinite(x):
            return int(text) if integer else x
        bad.append(text)
        return _NonFinite(text)

    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=number, parse_int=lambda text: number(text, True),
                            parse_constant=number)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if bad:  # a duplicate key can drop one from cfg: then it has no path
        raise ConfigError(_non_finite_path(cfg) or f"non-finite number {bad[0]} in config")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema") != 1:
        raise ConfigError("config must declare \"schema\": 1")
    return cfg


def _non_finite_path(cfg):
    # "path: non-finite number text" for the first _NonFinite in cfg, in file
    # order, such as scenario.inertia[4]; a loop, as json nests deeper than
    # Python recurses.
    stack = [("", cfg)]
    while stack:
        path, obj = stack.pop()
        if type(obj) is _NonFinite:
            return f"{path or 'config'}: non-finite number {obj}"
        items = (obj.items() if isinstance(obj, dict) else enumerate(obj)
                 if isinstance(obj, list) else ())
        stack += reversed([(f"{path}[{k}]" if type(k) is int else f"{path}.{k}" if path else k, v)
                           for k, v in items])
    return None


def _number(x, name: str, integer: bool = False):
    # Exact type test: bool is an int subclass. Integers are returned as they
    # are, so a seed never passes through float.
    if type(x) is int or (type(x) is float and not integer):
        return x if integer else float(x)
    kind = "an integer" if integer else "a number"
    raise ConfigError(f"{name}: expected {kind}, got {x!r:.40}")


def _array(x, name: str) -> np.ndarray:
    # Numbers or nested arrays of numbers. An object array keeps each JSON
    # value as it was read, so strings, booleans, null, objects and ragged
    # nesting (a list left as an element) all show up as non-numbers.
    arr = np.array(x, dtype=object)
    if not all(type(v) in (int, float) for v in arr.flat):
        raise ConfigError(f"{name}: not numeric")
    return arr.astype(float)


def _as_mat3(x, name: str, allow_scalar: bool = False) -> np.ndarray:
    M = _array(x, name)
    if allow_scalar and M.ndim == 0:
        return M * np.eye(3)
    if M.shape == (9,):
        M = M.reshape(3, 3)
    if M.shape != (3, 3):
        raise ConfigError(f"{name}: expected 9 numbers (row-major 3x3), got shape {M.shape}")
    return M


def _as_rows3(x, name: str) -> np.ndarray:
    M = _array(x, name)
    if M.ndim != 2 or M.shape[0] != 3:
        raise ConfigError(f"{name}: expected 3 row arrays, got shape {M.shape}")
    return M


def _as_rotation(x, name: str) -> np.ndarray:
    # Reference attitudes in configs are often rounded: project one with
    # det M > 0 onto SO(3), by the polar factor of profile M.
    M = _as_mat3(x, name)
    if np.abs(M.T @ M - np.eye(3)).max() <= 1e-2:
        profile = wahba.profile_from_matrix(M)
        if profile.det > 0.0:
            return wahba._polar(profile)
    raise ConfigError(f"{name}: not close to a rotation matrix")


def _as_omega(x, name: str) -> np.ndarray:
    arr = _array(x, name)
    if arr.shape == (3,):
        return so3.hat(arr)
    if arr.shape == (9,):
        arr = arr.reshape(3, 3)
    if arr.shape == (3, 3):
        with _section(name):
            return so3.check_skew(arr)
    raise ConfigError(f"{name}: expected a 3-vector or row-major skew matrix")


@contextlib.contextmanager
def _section(name: str):
    # Library validation errors raised while building a config section are
    # configuration errors (exit 2), a rank-deficient scenario.refs included.
    # A message that already names a field of the section is kept as it is.
    try:
        yield
    except ConfigError:
        raise
    except (AttKitError, ValueError) as exc:
        text = str(exc)
        raise ConfigError(text if text.startswith(f"{name}.") else f"{name}: {text}") from exc


def _parse_potential(obj) -> PotentialModel:
    if obj is None:
        return zero_potential()
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError("potential: expected an object with a \"type\" field")
    kind = obj["type"]
    if kind == "zero":
        return zero_potential()
    if kind == "linear":
        if "coeff" not in obj:
            raise ConfigError("potential: linear type requires \"coeff\"")
        return linear_potential(_as_mat3(obj["coeff"], "potential.coeff"))
    raise ConfigError(f"potential: unknown type {kind!r}")


def _parse_schedule(obj, t0: float) -> np.ndarray:
    if isinstance(obj, dict) and "times" in obj:
        key, times = "times", _array(obj["times"], "schedule.times")
    elif isinstance(obj, dict) and {"start", "dt", "count"} <= set(obj):
        start, dt = (_number(obj[key], f"schedule.{key}") for key in ("start", "dt"))
        key = "count"
        times = start + dt * np.arange(_number(obj["count"], "schedule.count", integer=True))
    else:
        raise ConfigError(
            "schedule: expected {\"times\": [...]} or {\"start\", \"dt\", \"count\"}"
        )
    if times.size == 0:
        raise ConfigError(f"scenario.schedule.{key}: no epochs")
    with _section("scenario.schedule"):
        return simulate._check_schedule(times, t0)


def _parse_scenario(obj) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ConfigError("scenario: expected an object")
    for key in ("refs", "inertia", "init", "schedule"):
        if key not in obj:
            raise ConfigError(f"scenario: missing {key!r}")
    init = obj["init"]
    if not isinstance(init, dict) or "attitude" not in init or "omega" not in init:
        raise ConfigError("scenario.init: expected {\"t\", \"attitude\", \"omega\"}")
    noise = obj.get("noise", {})
    if not isinstance(noise, dict):
        raise ConfigError("scenario.noise: expected an object")
    with _section("scenario"):
        state = BodyState(
            t=_number(init.get("t", 0.0), "scenario.init.t"),
            C=_as_rotation(init["attitude"], "scenario.init.attitude"),
            Omega=_as_omega(init["omega"], "scenario.init.omega"),
        )
        refs = _as_rows3(obj["refs"], "scenario.refs")
        with _section("scenario.inertia"):
            inertia = InertiaSpec(_as_mat3(obj["inertia"], "scenario.inertia"))
        potential = _parse_potential(obj.get("potential"))
        schedule = _parse_schedule(obj["schedule"], state.t)
        with _section("scenario.noise"):
            noise = NoiseSpec(
                sigma_vec=_number(noise.get("sigma_vec", 0.0), "scenario.noise.sigma_vec"),
                sigma_gyro=_number(noise.get("sigma_gyro", 0.0), "scenario.noise.sigma_gyro"),
                seed=_number(noise.get("seed", 0), "scenario.noise.seed", integer=True),
            )
        return ScenarioSpec(
            init=state, refs=refs, inertia=inertia, potential=potential, schedule=schedule,
            noise=noise,
        )


def _parse_integrator(obj) -> IntegratorConfig:
    if obj is None:
        return IntegratorConfig()
    if not isinstance(obj, dict):
        raise ConfigError("integrator: expected an object")
    scheme = obj.get("scheme", "rkmk4")
    if scheme != "rkmk4":
        raise ConfigError(f"integrator: unknown integrator scheme {scheme!r}")
    with _section("integrator"):
        return IntegratorConfig(step=_number(obj.get("step", 1e-3), "integrator.step"))


def _parse_filter(obj, integrator: IntegratorConfig):
    obj = {} if obj is None else obj
    if not isinstance(obj, dict):
        raise ConfigError("filter: expected an object")
    keys = ("delta", "pi", "gamma", "omega_weight")
    weights = [_as_mat3(obj.get(key, 1.0), f"filter.{key}", allow_scalar=True) for key in keys]
    for key, M in zip(keys, weights):
        with _section(f"filter.{key}"):
            so3.check_spd(M)
    Delta, Pi, Gamma, omega_weight = weights
    return FilterConfig(Delta=Delta, Pi=Pi, Gamma=Gamma, integrator=integrator), omega_weight


def _load_run(args, filtering: bool = True) -> SimpleNamespace:
    """Read the run file of propagate, filter or montecarlo.

    Parses the scenario and the integrator; with filtering, also the filter
    section, the mode and the noise seed (--seed, else scenario.noise.seed).
    """
    cfg = _load_config(args.config)
    if "scenario" not in cfg:
        raise ConfigError(f"{args.command} config: missing 'scenario'")
    run = SimpleNamespace(
        cfg=cfg,
        scn=_parse_scenario(cfg["scenario"]),
        integ=_parse_integrator(cfg.get("integrator")),
    )
    if filtering:
        run.fcfg, run.omega_weight = _parse_filter(cfg.get("filter"), run.integ)
        run.mode = args.mode.replace("-", "_")
        run.seed = run.scn.noise.seed if args.seed is None else args.seed
        if run.seed < 0:
            source = "scenario.noise.seed" if args.seed is None else "--seed"
            raise ConfigError(f"{source}: expected a non-negative integer, got {run.seed}")
    return run


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    # join keeps an absolute output path as it is.
    path = os.path.join(os.environ.get("ATTKIT_OUTPUT_DIR", ""), output)
    with open(path, "w") as fh:
        fh.write(text)
    sys.stdout.write(f"wrote {path}\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_golden(args) -> int:
    refs = reference_case.REFS
    body = reference_case.BODY_MEAS
    weights = np.ones(refs.shape[1])
    attitude, factor = wahba.solve_attitude(wahba.build_profile(refs, weights, body))
    err = so3.attitude_error_matrix(attitude, reference_case.ATTITUDE_TRUE)
    resid = refs - attitude @ body
    dev = np.abs(attitude - reference_case.ATTITUDE_EST).max()

    lines = []
    lines.append("attitude estimate:")
    lines.append(_fmt_matrix(attitude))
    lines.append("attitude error vs reference truth (est^T truth - I):")
    lines.append(_fmt_matrix(err))
    lines.append("measurement residuals (refs - est @ body):")
    lines.append(_fmt_matrix(resid))
    lines.append(f"max deviation from stored estimate: {_fmt(dev)}")
    lines.append(f"max attitude error entry: {_fmt(np.abs(err).max())}")
    lines.append(f"alignment cost: {_fmt(wahba.alignment_cost(attitude, refs, body, weights))}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)

    if args.output:
        _emit(
            _json_text(
                {
                    "schema": 1,
                    "attitude": attitude.ravel().tolist(),
                    "solver_factor": factor.ravel().tolist(),
                    "error_matrix": err.ravel().tolist(),
                    "max_deviation": float(dev),
                }
            ),
            args.output,
        )
    if dev > reference_case.TOLERANCE or np.abs(err).max() > reference_case.TOLERANCE:
        raise GoldenMismatch(
            f"solution deviates from the stored reference by {dev:.3e}"
        )
    sys.stdout.write("golden check: PASS\n")
    return EXIT_OK


def cmd_determine(args) -> int:
    cfg = _load_config(args.config)
    for key in ("refs", "body"):
        if key not in cfg:
            raise ConfigError(f"determine config: missing {key!r}")
    refs = _as_rows3(cfg["refs"], "refs")
    body = _as_rows3(cfg["body"], "body")
    weights = _array(cfg["weights"], "weights") if "weights" in cfg else np.ones(refs.shape[1])
    profile = wahba.build_profile(refs, weights, body)
    attitude, factor = wahba.solve_attitude(profile)
    cost = wahba.alignment_cost(attitude, refs, body, weights)
    L = profile.matrix
    stat = float(np.abs(attitude.T @ L - L.T @ attitude).max())
    result = {
        "schema": 1,
        "attitude": attitude.ravel().tolist(),
        "solver_factor": factor.ravel().tolist(),
        "cost": cost,
        "stationarity_residual": stat,
        "principal_angle_to_truth": None,
    }
    if "truth" in cfg:
        truth = _as_rotation(cfg["truth"], "truth")
        result["principal_angle_to_truth"] = so3.principal_angle(attitude, truth)
    _emit(_json_text(result), args.output)
    return EXIT_OK


def cmd_propagate(args) -> int:
    run = _load_run(args, filtering=False)
    rows = [PROPAGATE_CSV_HEADER]
    for state in gen_truth(run.scn, run.integ):
        w = so3._axis(state.Omega)
        vals = [state.t, *state.C.ravel().tolist(), *w.tolist(),
                kinetic_energy(run.scn.inertia, state.Omega)]
        rows.append(",".join(_fmt(v) for v in vals))
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def cmd_filter(args) -> int:
    run = _load_run(args)
    metrics = run_metrics(run.scn, run.fcfg, run.omega_weight, run.integ, run.mode, 1, run.seed)
    rows = np.column_stack([run.scn.schedule, metrics[0]]).tolist()
    out = [FILTER_CSV_HEADER, *(",".join(_fmt(v) for v in row) for row in rows)]
    _emit("\n".join(out) + "\n", args.output)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    run = _load_run(args)
    trials = args.trials
    if trials is None:
        trials = _number(run.cfg.get("trials", 0), "trials", integer=True)
    if trials < 1:
        raise ConfigError("montecarlo: trials must be >= 1")
    summary = montecarlo_summary(
        run.scn, run.fcfg, run.omega_weight, run.integ, run.mode, trials, run.seed
    )
    _emit(_json_text(summary), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry

# Exit code of each error type, most specific first; any other handled
# error is a configuration or input error.
_EXIT_CODES = (
    (GoldenMismatch, EXIT_GOLDEN),
    (ReflectionProfile, EXIT_REFLECTION),
    (SingularProfile, EXIT_SINGULAR),
)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="attkit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    config, output, filtering = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    config.add_argument("--config", required=True)
    output.add_argument("--output", help="result file path")
    filtering.add_argument("--mode", choices=["no-gyro", "with-gyro"], default="no-gyro")
    filtering.add_argument(
        "--seed", type=int, help="noise seed (default: scenario.noise.seed); trial i uses seed + i"
    )
    files, sim = [config, output], [config, output, filtering]
    for name, func, parents, text in (
        ("golden", cmd_golden, [output], "verify the bundled reference case"),
        ("determine", cmd_determine, files, "one-shot attitude determination"),
        ("propagate", cmd_propagate, files, "integrate the dynamics over a schedule"),
        ("filter", cmd_filter, sim, "run a filter on a simulated scenario"),
        ("montecarlo", cmd_montecarlo, sim, "aggregate filter errors over trials"),
    ):
        sub.add_parser(name, parents=parents, help=text).set_defaults(func=func)
    sub.choices["montecarlo"].add_argument("--trials", type=int)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AttKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), EXIT_CONFIG)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

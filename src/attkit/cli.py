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

Exit codes: 0 success, 2 configuration or input errors, 3 singular
profile, 4 reflection profile, 5 golden mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import reference_case, so3, wahba
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
from .filters import FilterConfig, run_filter
from .simulate import (
    NoiseSpec,
    ScenarioSpec,
    filter_errors,
    gen_truth,
    montecarlo_summary,
    simulate_scenario,
)

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
# config parsing

def _finite(text: str) -> float:
    # json hook for NaN, Infinity and float literals that overflow to inf.
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number {text} in config")
    return x


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema") != 1:
        raise ConfigError("config must declare \"schema\": 1")
    return cfg


def _as_mat3(x, name: str, allow_scalar: bool = False) -> np.ndarray:
    if allow_scalar and isinstance(x, (int, float)):
        return float(x) * np.eye(3)
    try:
        M = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: not numeric") from exc
    if M.shape == (9,):
        M = M.reshape(3, 3)
    if M.shape != (3, 3):
        raise ConfigError(f"{name}: expected 9 numbers (row-major 3x3), got shape {M.shape}")
    return M


def _as_rows3(x, name: str) -> np.ndarray:
    try:
        M = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: not numeric") from exc
    if M.ndim != 2 or M.shape[0] != 3:
        raise ConfigError(f"{name}: expected 3 row arrays, got shape {M.shape}")
    return M


def _nearest_rotation(M, name: str) -> np.ndarray:
    # Reference attitudes in configs are often rounded; project onto SO(3)
    # before using them as a comparison baseline.
    if np.abs(M.T @ M - np.eye(3)).max() > 1e-2:
        raise ConfigError(f"{name}: not close to a rotation matrix")
    return so3.nearest_rotation(M)


def _as_omega(x, name: str) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: not numeric") from exc
    if arr.shape == (3,):
        return so3.hat(arr)
    if arr.shape == (9,):
        arr = arr.reshape(3, 3)
    if arr.shape == (3, 3):
        return so3.check_skew(arr)
    raise ConfigError(f"{name}: expected a 3-vector or row-major skew matrix")


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


def _parse_schedule(obj) -> np.ndarray:
    if isinstance(obj, dict) and "times" in obj:
        times = np.asarray(obj["times"], dtype=float)
    elif isinstance(obj, dict) and {"start", "dt", "count"} <= set(obj):
        times = float(obj["start"]) + float(obj["dt"]) * np.arange(int(obj["count"]))
    else:
        raise ConfigError(
            "schedule: expected {\"times\": [...]} or {\"start\", \"dt\", \"count\"}"
        )
    if times.size == 0:
        raise ConfigError("schedule: no epochs")
    return times


def _parse_scenario(obj, seed_override=None) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ConfigError("scenario: expected an object")
    for key in ("refs", "inertia", "init", "schedule"):
        if key not in obj:
            raise ConfigError(f"scenario: missing {key!r}")
    init_obj = obj["init"]
    if not isinstance(init_obj, dict) or "attitude" not in init_obj or "omega" not in init_obj:
        raise ConfigError("scenario.init: expected {\"t\", \"attitude\", \"omega\"}")
    noise_obj = obj.get("noise", {})
    if not isinstance(noise_obj, dict):
        raise ConfigError("scenario.noise: expected an object")
    seed = noise_obj.get("seed", 0) if seed_override is None else seed_override
    try:
        init = BodyState(
            t=float(init_obj.get("t", 0.0)),
            C=_nearest_rotation(
                _as_mat3(init_obj["attitude"], "scenario.init.attitude"),
                "scenario.init.attitude",
            ),
            Omega=_as_omega(init_obj["omega"], "scenario.init.omega"),
        )
        return ScenarioSpec(
            refs=_as_rows3(obj["refs"], "scenario.refs"),
            inertia=InertiaSpec(_as_mat3(obj["inertia"], "scenario.inertia")),
            potential=_parse_potential(obj.get("potential")),
            init=init,
            schedule=_parse_schedule(obj["schedule"]),
            noise=NoiseSpec(
                sigma_vec=float(noise_obj.get("sigma_vec", 0.0)),
                sigma_gyro=float(noise_obj.get("sigma_gyro", 0.0)),
                seed=int(seed),
            ),
        )
    except (AttKitError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"scenario: {exc}") from exc


def _parse_integrator(obj) -> IntegratorConfig:
    if obj is None:
        return IntegratorConfig()
    if not isinstance(obj, dict):
        raise ConfigError("integrator: expected an object")
    try:
        return IntegratorConfig(
            step=float(obj.get("step", 1e-3)), scheme=obj.get("scheme", "rkmk4")
        )
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from exc


def _parse_filter(obj, integrator: IntegratorConfig):
    obj = obj or {}
    if not isinstance(obj, dict):
        raise ConfigError("filter: expected an object")
    try:
        fcfg = FilterConfig(
            Delta=_as_mat3(obj.get("delta", 1.0), "filter.delta", allow_scalar=True),
            Pi=_as_mat3(obj.get("pi", 1.0), "filter.pi", allow_scalar=True),
            Gamma=_as_mat3(obj.get("gamma", 1.0), "filter.gamma", allow_scalar=True),
            integrator=integrator,
        )
    except AttKitError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"filter: {exc}") from exc
    omega_weight = _as_mat3(
        obj.get("omega_weight", 1.0), "filter.omega_weight", allow_scalar=True
    )
    return fcfg, omega_weight


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("ATTKIT_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, output: str | None) -> None:
    path = _resolve_output(output)
    if path is None:
        sys.stdout.write(text)
    else:
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
    weights = (
        np.asarray(cfg["weights"], dtype=float)
        if "weights" in cfg
        else np.ones(refs.shape[1])
    )
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
        truth = _nearest_rotation(_as_mat3(cfg["truth"], "truth"), "truth")
        result["principal_angle_to_truth"] = so3.principal_angle(attitude, truth)
    _emit(_json_text(result), args.output)
    return EXIT_OK


def cmd_propagate(args) -> int:
    cfg = _load_config(args.config)
    if "scenario" not in cfg:
        raise ConfigError("propagate config: missing 'scenario'")
    scn = _parse_scenario(cfg["scenario"])
    integ = _parse_integrator(cfg.get("integrator"))
    rows = [PROPAGATE_CSV_HEADER]
    for state in gen_truth(scn, integ):
        w = so3.vee(state.Omega)
        vals = (
            [state.t]
            + state.C.ravel().tolist()
            + w.tolist()
            + [kinetic_energy(scn.inertia, state.Omega)]
        )
        rows.append(",".join(_fmt(v) for v in vals))
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def _filter_rows(scn, fcfg, omega_weight, integ, mode):
    truth, batches = simulate_scenario(scn, cfg=integ, omega_weight=omega_weight)
    estimates = run_filter(None, batches, scn.inertia, scn.potential, fcfg, mode=mode)
    errors = filter_errors(truth, estimates)
    return [
        (st.t, *err, wahba.alignment_cost(est.C_plus, b.refs, b.body, b.weights))
        for st, err, est, b in zip(truth, errors, estimates, batches)
    ]


def _mode_from_flag(flag: str) -> str:
    return {"no-gyro": "no_gyro", "with-gyro": "with_gyro"}[flag]


def cmd_filter(args) -> int:
    cfg = _load_config(args.config)
    if "scenario" not in cfg:
        raise ConfigError("filter config: missing 'scenario'")
    scn = _parse_scenario(cfg["scenario"], seed_override=args.seed)
    integ = _parse_integrator(cfg.get("integrator"))
    fcfg, omega_weight = _parse_filter(cfg.get("filter"), integ)
    rows = _filter_rows(scn, fcfg, omega_weight, integ, _mode_from_flag(args.mode))
    out = [FILTER_CSV_HEADER] + [",".join(_fmt(v) for v in row) for row in rows]
    _emit("\n".join(out) + "\n", args.output)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    cfg = _load_config(args.config)
    if "scenario" not in cfg:
        raise ConfigError("montecarlo config: missing 'scenario'")
    trials = args.trials if args.trials is not None else int(cfg.get("trials", 0))
    if trials < 1:
        raise ConfigError("montecarlo: trials must be >= 1")
    scn = _parse_scenario(cfg["scenario"])
    integ = _parse_integrator(cfg.get("integrator"))
    fcfg, omega_weight = _parse_filter(cfg.get("filter"), integ)
    mode = _mode_from_flag(args.mode)
    master = scn.noise.seed if args.seed is None else args.seed
    summary = montecarlo_summary(scn, fcfg, omega_weight, integ, mode, trials, master)
    _emit(_json_text(summary), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="attkit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("golden", help="verify the bundled reference case")
    g.add_argument("--output", help="optional JSON result path")
    g.set_defaults(func=cmd_golden)

    d = sub.add_parser("determine", help="one-shot attitude determination")
    d.add_argument("--config", required=True)
    d.add_argument("--output")
    d.set_defaults(func=cmd_determine)

    pr = sub.add_parser("propagate", help="integrate the dynamics over a schedule")
    pr.add_argument("--config", required=True)
    pr.add_argument("--output")
    pr.set_defaults(func=cmd_propagate)

    f = sub.add_parser("filter", help="run a filter on a simulated scenario")
    f.add_argument("--config", required=True)
    f.add_argument("--output")
    f.add_argument("--mode", choices=["no-gyro", "with-gyro"], default="no-gyro")
    f.add_argument("--seed", type=int, help="override the scenario noise seed")
    f.set_defaults(func=cmd_filter)

    m = sub.add_parser("montecarlo", help="aggregate filter errors over trials")
    m.add_argument("--config", required=True)
    m.add_argument("--output")
    m.add_argument("--mode", choices=["no-gyro", "with-gyro"], default="no-gyro")
    m.add_argument("--seed", type=int, help="master seed (default: scenario seed)")
    m.add_argument("--trials", type=int)
    m.set_defaults(func=cmd_montecarlo)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GoldenMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GOLDEN
    except ReflectionProfile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFLECTION
    except SingularProfile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (AttKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

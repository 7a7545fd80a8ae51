import json
import re
import time
import warnings

import numpy as np
import pytest

from attkit import cli, reference_case as rc, simulate, so3, wahba
from attkit.cli import (
    EXIT_CONFIG,
    EXIT_GOLDEN,
    EXIT_OK,
    EXIT_REFLECTION,
    EXIT_SINGULAR,
    FILTER_CSV_HEADER,
    PROPAGATE_CSV_HEADER,
)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _ref_rows(M):
    return [row.tolist() for row in np.asarray(M)]


def _scenario_dict(sigma_vec=0.0, sigma_gyro=0.0, seed=0, count=20, dt=0.05,
                   omega0=(0.8, -0.5, 1.0)):
    from attkit.simulate import clustered_references, make_rng

    refs = clustered_references(7, 0.25, axis=(0.3, -0.4, 0.87), rng=make_rng(5150))
    C0 = so3.exp_so3(so3.hat([0.4, -0.7, 1.1]))
    return {
        "refs": _ref_rows(refs),
        "inertia": np.diag([1.0, 2.0, 3.0]).ravel().tolist(),
        "potential": {"type": "zero"},
        "init": {"t": 0.0, "attitude": C0.ravel().tolist(), "omega": list(omega0)},
        "schedule": {"start": dt, "dt": dt, "count": count},
        "noise": {"sigma_vec": sigma_vec, "sigma_gyro": sigma_gyro, "seed": seed},
    }


# ---------------------------------------------------------------------------
# golden

def test_golden_passes_and_is_deterministic(capsys):
    assert cli.main(["golden"]) == EXIT_OK
    first = capsys.readouterr().out
    assert "golden check: PASS" in first
    assert cli.main(["golden"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_golden_writes_json_artifact(tmp_path, capsys):
    out = tmp_path / "golden.json"
    assert cli.main(["golden", "--output", str(out)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert data["max_deviation"] < rc.TOLERANCE


def test_golden_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(rc, "TOLERANCE", 1e-9)
    assert cli.main(["golden"]) == EXIT_GOLDEN
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determine

def test_determine_reproduces_reference_numbers(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "refs": _ref_rows(rc.REFS),
        "body": _ref_rows(rc.BODY_MEAS),
        "truth": rc.ATTITUDE_TRUE.ravel().tolist(),
    }
    assert cli.main(["determine", "--config", _write(tmp_path, "d.json", cfg)]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    C, S = wahba.solve_attitude(
        wahba.build_profile(rc.REFS, np.ones(7), rc.BODY_MEAS)
    )
    assert np.abs(np.array(result["attitude"]).reshape(3, 3) - C).max() <= 1e-12
    assert np.abs(np.array(result["solver_factor"]).reshape(3, 3) - S).max() <= 1e-12
    assert result["stationarity_residual"] <= 1e-10
    assert result["principal_angle_to_truth"] is not None


def test_determine_identity_case(tmp_path, capsys):
    eye = _ref_rows(np.eye(3))
    cfg = {"schema": 1, "refs": eye, "body": eye}
    assert cli.main(["determine", "--config", _write(tmp_path, "i.json", cfg)]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["cost"] == 0.0
    assert np.abs(np.array(result["attitude"]).reshape(3, 3) - np.eye(3)).max() <= 1e-14


def test_determine_rank_deficient_exits_singular(tmp_path, capsys):
    planar = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
    cfg = {"schema": 1, "refs": _ref_rows(planar), "body": _ref_rows(np.eye(3))}
    assert cli.main(["determine", "--config", _write(tmp_path, "r.json", cfg)]) == EXIT_SINGULAR
    capsys.readouterr()


def test_determine_reflection_exits_reflection(tmp_path, capsys):
    refs = _ref_rows(np.eye(3))
    cfg = {"schema": 1, "refs": refs, "body": _ref_rows(-np.eye(3))}
    assert cli.main(["determine", "--config", _write(tmp_path, "f.json", cfg)]) == EXIT_REFLECTION
    capsys.readouterr()


def test_determine_overflowing_profile_exits_2_without_warnings(tmp_path, capsys):
    # Finite inputs whose profile overflows: an input error, not a singular one.
    rng = np.random.default_rng(33)
    refs = rng.normal(size=(3, 6))
    for scale_refs in (1.0, 1e160):
        cfg = {"schema": 1, "refs": _ref_rows(scale_refs * refs), "body": _ref_rows(1e160 * refs)}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["determine", "--config", _write(tmp_path, "o.json", cfg)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: profile overflows") and "Warning" not in err
        assert [w.message for w in caught] == []


@pytest.mark.parametrize("truth", [-np.eye(3), np.diag([1.0, 1.0, -1.0])], ids=["minus-I", "mirror"])
def test_determine_reflection_truth_exits_2(tmp_path, capsys, truth):
    # A reflection is not an attitude: no angle to it is reported.
    cfg = {
        "schema": 1,
        "refs": _ref_rows(rc.REFS),
        "body": _ref_rows(rc.BODY_MEAS),
        "truth": truth.ravel().tolist(),
    }
    assert cli.main(["determine", "--config", _write(tmp_path, "t.json", cfg)]) == EXIT_CONFIG
    assert "truth: not close to a rotation matrix" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    assert cli.main(["determine", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    bad_schema = _write(tmp_path, "bad.json", {"schema": 2, "refs": [], "body": []})
    assert cli.main(["determine", "--config", bad_schema]) == EXIT_CONFIG
    not_json = tmp_path / "nj.json"
    not_json.write_text("{")
    assert cli.main(["determine", "--config", str(not_json)]) == EXIT_CONFIG
    missing_key = _write(tmp_path, "mk.json", {"schema": 1, "refs": _ref_rows(np.eye(3))})
    assert cli.main(["determine", "--config", missing_key]) == EXIT_CONFIG
    capsys.readouterr()


# ---------------------------------------------------------------------------
# propagate

def test_propagate_isotropic_spin(tmp_path, capsys):
    scn = _scenario_dict(count=4, dt=0.25, omega0=(0.0, 0.0, 1.0))
    scn["inertia"] = np.eye(3).ravel().tolist()
    cfg = {"schema": 1, "scenario": scn, "integrator": {"step": 1e-3}}
    assert cli.main(["propagate", "--config", _write(tmp_path, "p.json", cfg)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == PROPAGATE_CSV_HEADER
    assert len(lines) == 5
    last = np.array([float(v) for v in lines[-1].split(",")])
    C0 = np.array(scn["init"]["attitude"]).reshape(3, 3)
    expected = C0 @ so3.exp_so3(so3.hat([0.0, 0.0, last[0]]))
    assert np.abs(last[1:10].reshape(3, 3) - expected).max() <= 1e-9
    assert abs(last[13] - 1.0) <= 1e-12  # kinetic energy 0.5 * w K w = 1


# ---------------------------------------------------------------------------
# filter

def test_filter_zero_noise_errors_vanish(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "scenario": _scenario_dict(count=30),
        "integrator": {"step": 5e-3},
        "filter": {"delta": 1.0, "pi": 1.0, "gamma": 4.0},
    }
    path = _write(tmp_path, "f0.json", cfg)
    for mode in ("no-gyro", "with-gyro"):
        assert cli.main(["filter", "--config", path, "--mode", mode]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == FILTER_CSV_HEADER
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert data[:, 1:5].max() <= 1e-6


def test_filter_noisy_error_tracks_measurement_scale(tmp_path, capsys):
    sigma = 0.002
    cfg = {
        "schema": 1,
        "scenario": _scenario_dict(sigma_vec=sigma, sigma_gyro=sigma, seed=3, count=100),
        "integrator": {"step": 5e-3},
        "filter": {"delta": 1.0, "pi": 1.0, "gamma": 4.0},
    }
    path = _write(tmp_path, "fn.json", cfg)
    assert cli.main(["filter", "--config", path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data[:, 2].mean() <= 3.0 * sigma


def test_filter_deterministic_output(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "scenario": _scenario_dict(sigma_vec=0.002, seed=9, count=10),
        "integrator": {"step": 5e-3},
    }
    path = _write(tmp_path, "fd.json", cfg)
    assert cli.main(["filter", "--config", path]) == EXIT_OK
    first = capsys.readouterr().out
    assert cli.main(["filter", "--config", path]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_filter_output_dir_env(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "results"
    outdir.mkdir()
    monkeypatch.setenv("ATTKIT_OUTPUT_DIR", str(outdir))
    cfg = {"schema": 1, "scenario": _scenario_dict(count=3), "integrator": {"step": 5e-3}}
    path = _write(tmp_path, "fe.json", cfg)
    assert cli.main(["filter", "--config", path, "--output", "run.csv"]) == EXIT_OK
    capsys.readouterr()
    assert (outdir / "run.csv").read_text().splitlines()[0] == FILTER_CSV_HEADER


# ---------------------------------------------------------------------------
# montecarlo

def test_montecarlo_single_trial_matches_filter(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "scenario": _scenario_dict(sigma_vec=0.002, sigma_gyro=0.002, seed=0, count=10),
        "integrator": {"step": 5e-3},
        "filter": {"delta": 1.0, "pi": 1.0, "gamma": 4.0},
    }
    path = _write(tmp_path, "mc.json", cfg)
    assert cli.main(["filter", "--config", path, "--seed", "42"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    col = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert cli.main(["montecarlo", "--config", path, "--trials", "1", "--seed", "42"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(summary["per_epoch"]["err_att_post_mean"]) - col).max() <= 1e-9
    assert summary["trials"] == 1


@pytest.mark.parametrize("mode", ["no-gyro", "with-gyro"])
def test_montecarlo_single_trial_fails_like_filter(tmp_path, capsys, mode):
    # Gyro draws that overflow to inf: some epochs' readings are not skew,
    # and the first propagation runs at an infinite rate. Both commands must
    # report the same first failure.
    cfg = {"schema": 1, "scenario": _scenario_dict(sigma_gyro=1e308, seed=1, count=10)}
    path = _write(tmp_path, "overflow.json", cfg)
    results = []
    for argv in (["filter"], ["montecarlo", "--trials", "1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main([*argv, "--config", path, "--mode", mode])
        # numpy's overflow warnings may precede the error line.
        results.append((code, capsys.readouterr().err.strip().splitlines()[-1]))
    assert results[0] == results[1]
    assert results[0][0] == EXIT_CONFIG and results[0][1].startswith("error: ")


def test_overflowing_linear_potential_names_the_rate(tmp_path, capsys):
    # Every coeff entry 1e308 is finite, so the run file is read, but the
    # moment overflows and the rate turns NaN. Each command exits 2 with the
    # error of the first propagation, which names the rate and its span, not
    # the attitude.
    scenario = _scenario_dict(sigma_vec=0.002, sigma_gyro=0.005, count=4)
    scenario["potential"] = {"type": "linear", "coeff": [1e308] * 9}
    path = _write(tmp_path, "big.json", {"schema": 1, "scenario": scenario})
    for argv in (["propagate"], ["filter"], ["montecarlo", "--trials", "3"]):
        assert cli.main([*argv, "--config", path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: rate [nan, nan, nan] rad/s is not finite after a time span of 0.05 s"
            " (is the potential's gradient or the inertia out of range?)\n")


def test_montecarlo_deterministic(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "scenario": _scenario_dict(sigma_vec=0.002, seed=1, count=5),
        "integrator": {"step": 5e-3},
    }
    path = _write(tmp_path, "mcd.json", cfg)
    assert cli.main(["montecarlo", "--config", path, "--trials", "3"]) == EXIT_OK
    first = capsys.readouterr().out
    assert cli.main(["montecarlo", "--config", path, "--trials", "3"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_montecarlo_with_gyro_beats_no_gyro_on_rate_error(tmp_path, capsys):
    # Regression baseline: independent rate measurements must help the rate
    # estimate on average across seeds.
    cfg = {
        "schema": 1,
        "scenario": _scenario_dict(sigma_vec=0.002, sigma_gyro=0.002, seed=0, count=30),
        "integrator": {"step": 5e-3},
        "filter": {"delta": 1.0, "pi": 1.0, "gamma": 4.0},
    }
    path = _write(tmp_path, "cmp.json", cfg)
    means = {}
    for mode in ("no-gyro", "with-gyro"):
        assert cli.main(
            ["montecarlo", "--config", path, "--trials", "20", "--seed", "777", "--mode", mode]
        ) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        means[mode] = summary["aggregate"]["err_omega_post_mean"]
    assert means["with-gyro"] <= means["no-gyro"]


def test_montecarlo_requires_trials(tmp_path, capsys):
    cfg = {"schema": 1, "scenario": _scenario_dict(count=3)}
    path = _write(tmp_path, "mct.json", cfg)
    assert cli.main(["montecarlo", "--config", path]) == EXIT_CONFIG
    capsys.readouterr()


# ---------------------------------------------------------------------------
# malformed run files

def _run_file(**scenario_changes):
    scn = _scenario_dict(sigma_vec=0.002, count=3)
    scn.update(scenario_changes)
    return {"schema": 1, "scenario": scn, "integrator": {"step": 5e-3}}


def _argv(command, path):
    return [command, "--config", str(path)] + (["--trials", "2"] if command == "montecarlo" else [])


# Each literal sits where the run used to go on silently (NaN noise is no
# noise) or end in a traceback (an infinite time span).
@pytest.mark.parametrize("command", ["filter", "montecarlo"])
@pytest.mark.parametrize(
    "section, key, literal",
    [
        ("noise", "sigma_vec", "NaN"),
        ("schedule", "start", "Infinity"),
        ("schedule", "start", "1e999"),
        ("init", "t", "-Infinity"),
    ],
)
def test_non_finite_config_number_exits_2(tmp_path, capsys, command, section, key, literal):
    cfg = _run_file()
    cfg["scenario"][section][key] = "@"
    path = tmp_path / "nf.json"
    path.write_text(json.dumps(cfg).replace('"@"', literal))
    assert cli.main(_argv(command, path)) == EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err


BIG = "9" * 400  # an integer literal that overflows a float
HUGE = "9" * 5000  # over Python's 4,300-digit limit for int


# The literal in place of one value of the run file, and the message's field
# and number. Keys no command reads are checked too, and the first non-finite
# number in the file is the one reported, not the NaN appended after it.
@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
@pytest.mark.parametrize("edit, literal, field, number", [
    (("scenario", "inertia", 4), BIG, "scenario.inertia[4]", BIG),
    (("scenario", "refs", 1, 2), "-Infinity", "scenario.refs[1][2]", "-Infinity"),
    (("scenario", "noise", "sigma_vec"), "NaN", "scenario.noise.sigma_vec", "NaN"),
    (("scenario", "schedule", "start"), "1e999", "scenario.schedule.start", "1e999"),
    (("unread",), '{"a": [1, 2, Infinity]}', "unread.a[2]", "Infinity"),
    (("schema",), HUGE, "schema", HUGE),
], ids=["inertia-400-digits", "refs-infinity", "sigma_vec-nan", "start-1e999", "unread-key",
        "schema-5000-digits"])
def test_non_finite_config_number_is_reported_with_its_path(tmp_path, capsys, command, edit,
                                                             literal, field, number):
    text = json.dumps(_with_leaf(_run_file(), edit, "@")).replace('"@"', literal)
    path = tmp_path / "nf.json"
    path.write_text(text[:-1] + ', "later": NaN}')
    assert cli.main(_argv(command, path)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {field}: non-finite number {number}\n"


def test_non_finite_number_dropped_by_a_duplicate_key_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(_run_file()).replace('{"schema": 1', '{"schema": NaN, "schema": 1'))
    assert cli.main(_argv("filter", path)) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: non-finite number NaN in config\n"


@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
@pytest.mark.parametrize("changes, message", [
    ({"noise": {"sigma_vec": -1}},
     "scenario.noise: sigma_vec must be finite and non-negative, got -1.0"),
    ({"noise": {"sigma_gyro": -0.5}},
     "scenario.noise: sigma_gyro must be finite and non-negative, got -0.5"),
    ({"schedule": {"start": 0.05, "dt": -0.05, "count": 3}},
     "scenario.schedule: schedule times must be strictly increasing"),
    ({"schedule": {"times": [-1.0, 0.5]}},
     "scenario.schedule: schedule starts before the initial state time"),
    ({"schedule": {"start": 0.05, "dt": 0.05, "count": 0}}, "scenario.schedule.count: no epochs"),
    ({"schedule": {"times": []}}, "scenario.schedule.times: no epochs"),
], ids=["sigma_vec", "sigma_gyro", "not-increasing", "before-init", "count-0", "no-times"])
def test_noise_and_schedule_errors_name_their_field(tmp_path, capsys, command, changes, message):
    path = _write(tmp_path, "ns.json", _run_file(**changes))
    assert cli.main(_argv(command, path)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["filter", "montecarlo"])
def test_noise_not_an_object_exits_2(tmp_path, capsys, command):
    path = _write(tmp_path, "nl.json", _run_file(noise=[0.002, 0.0, 1]))
    assert cli.main(_argv(command, path)) == EXIT_CONFIG
    assert "scenario.noise" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
@pytest.mark.parametrize(
    "schedule",
    [{"start": 0.05, "dt": 0.05, "count": 0}, {"start": 0.05, "dt": 0.05, "count": -2}, {"times": []}],
    ids=["count-0", "count-negative", "no-times"],
)
def test_empty_schedule_exits_2(tmp_path, capsys, command, schedule):
    path = _write(tmp_path, "es.json", _run_file(schedule=schedule))
    assert cli.main(_argv(command, path)) == EXIT_CONFIG
    assert "schedule" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
def test_reflection_initial_attitude_exits_2(tmp_path, capsys, command):
    # No rotation is picked for a reflection: the run does not start.
    cfg = _run_file()
    C0 = np.reshape(cfg["scenario"]["init"]["attitude"], (3, 3))
    cfg["scenario"]["init"]["attitude"] = (np.diag([1.0, 1.0, -1.0]) @ C0).ravel().tolist()
    assert cli.main(_argv(command, _write(tmp_path, "ra.json", cfg))) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scenario.init.attitude: not close to a rotation matrix" in err


@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
def test_integrator_scheme_other_than_rkmk4_exits_2(tmp_path, capsys, command):
    cfg = _run_file()
    cfg["integrator"]["scheme"] = "rkmk4"
    assert cli.main(_argv(command, _write(tmp_path, "rk.json", cfg))) == EXIT_OK
    capsys.readouterr()
    cfg["integrator"]["scheme"] = "euler"
    assert cli.main(_argv(command, _write(tmp_path, "eu.json", cfg))) == EXIT_CONFIG
    assert "unknown integrator scheme 'euler'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
def test_tiny_integrator_step_exits_2_at_once(tmp_path, capsys, command):
    # 1e-300 over the first 0.05 s interval asks for 5e298 steps, which would
    # never end: the first propagation fails before its first step.
    cfg = _run_file()
    cfg["integrator"]["step"] = 1e-300
    start = time.perf_counter()
    assert cli.main(_argv(command, _write(tmp_path, "tiny.json", cfg))) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: integrator step 1e-300 s over a time span of 0.05 s takes 5e+298 steps, "
        "more than the 10,000,000 one call may take\n")


@pytest.mark.parametrize("command", ["filter", "montecarlo"])
def test_negative_seed_in_the_file_exits_2_naming_it(tmp_path, capsys, command):
    cfg = _run_file()
    cfg["scenario"]["noise"]["seed"] = -1
    path = _write(tmp_path, "ns.json", cfg)
    assert cli.main(_argv(command, path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: scenario.noise.seed: expected a non-negative integer, got -1\n"
    # propagate draws no noise
    assert cli.main(["propagate", "--config", path]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("command", ["filter", "montecarlo"])
def test_negative_seed_flag_exits_2_naming_it(tmp_path, capsys, command):
    path = _write(tmp_path, "sf.json", _run_file())
    assert cli.main([*_argv(command, path), "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --seed: expected a non-negative integer, got -1\n"


@pytest.mark.parametrize("mode", ["no-gyro", "with-gyro"])
@pytest.mark.parametrize("command", ["filter", "montecarlo"])
def test_omega_weight_not_spd_exits_2_before_the_truth(tmp_path, capsys, monkeypatch, command,
                                                       mode):
    cfg = _run_file()
    cfg["filter"] = {"omega_weight": 0}
    path = _write(tmp_path, "ow.json", cfg)
    monkeypatch.setattr(simulate, "gen_truth", lambda *a: pytest.fail("truth propagated"))
    assert cli.main([*_argv(command, path), "--mode", mode]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: filter.omega_weight: smallest eigenvalue")


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"schema": 1, "refs": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert cli.main(["determine", "--config", str(path)]) == EXIT_CONFIG
    assert "recursion" in capsys.readouterr().err


def test_non_unit_refs_exit_2(tmp_path, capsys):
    # Measured vectors are unit length, so longer references would inflate
    # cost_J0 at every epoch.
    cfg = _run_file()
    cfg["scenario"]["refs"] = [[2.0 * v for v in row] for row in cfg["scenario"]["refs"]]
    assert cli.main(_argv("filter", _write(tmp_path, "u.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: scenario.refs: columns are not unit vectors\n"


@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
def test_rank_deficient_refs_exit_2_naming_them_once(tmp_path, capsys, command):
    cfg = _run_file(refs=[[1.0] * 7, [0.0] * 7, [0.0] * 7])
    assert cli.main(_argv(command, _write(tmp_path, "refs.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: scenario.refs: rank deficient (singular values [2.6457513110645907, 0.0, 0.0]);"
        " problem is ill-posed\n")


@pytest.mark.parametrize("command, mode, key, weight", [
    ("filter", "no-gyro", "pi", 1e308),
    ("filter", "with-gyro", "omega_weight", 1.7e308),
    ("montecarlo", "with-gyro", "omega_weight", 1.7e308),
])
def test_overflowing_rate_weight_exits_2_with_the_solves_message(tmp_path, capsys, command,
                                                                 mode, key, weight):
    # The solve of the first rate update overflows; stderr is its one line.
    cfg = _run_file(noise={"sigma_vec": 0.002, "sigma_gyro": 0.005, "seed": 3})
    if key == "pi":  # at rest, the no-gyro update's right side is exactly 0
        cfg["scenario"].update(init={**cfg["scenario"]["init"], "omega": [0.0, 0.0, 0.0]},
                               noise={"sigma_vec": 0.002, "sigma_gyro": 0.0, "seed": 3})
    cfg["filter"] = {key: weight}
    argv = _argv(command, _write(tmp_path, "w.json", cfg)) + ["--mode", mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: skew Sylvester solve: non-finite solution at weight trace inf\n")


@pytest.mark.parametrize("pi, code, err", [
    (1e7, EXIT_OK, ""),
    (1.7e308, EXIT_CONFIG, "error: rate update: its right side overflowed (symmetric residual nan)\n"),
])
def test_no_gyro_update_checks_its_residual_at_the_weights_scale(tmp_path, capsys, pi, code, err):
    # At pi 1e7 the right side's symmetric residual is rounding above an
    # absolute 1e-9, and the run is solved; at 1.7e308 the right side
    # overflows, and the one error line says so.
    cfg = {"schema": 1, "scenario": _scenario_dict(sigma_vec=0.002, count=20),
           "integrator": {"step": 5e-3}, "filter": {"pi": pi}}
    argv = _argv("filter", _write(tmp_path, "pi.json", cfg)) + ["--mode", "no-gyro"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    assert capsys.readouterr().err == err


def _with_leaf(obj, path, value):
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


# None of these is a number: a quoted "nan" (it would read as no noise), an
# integer literal too large for a float, and null.
@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
@pytest.mark.parametrize(
    "path, value",
    [(("noise", "sigma_vec"), "nan"), (("inertia", 4), int("9" * 400)), (("schedule", "start"), None)],
    ids=["quoted-nan-sigma_vec", "400-digit-inertia", "null-schedule-start"],
)
def test_malformed_config_number_exits_2(tmp_path, capsys, command, path, value):
    cfg = _with_leaf(_run_file(), ("scenario", *path), value)
    assert cli.main(_argv(command, _write(tmp_path, "mn.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


HOSTILE = [None, "x", "nan", [], {}, True, -1.0, 0, [[1.0]], int("9" * 400), "1e999"]


def _leaves(obj, path=()):
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def test_fuzzed_config_leaves_end_in_an_exit_code(tmp_path, capsys):
    # No hostile value lengthens a run: none is a small positive step or a
    # large count.
    run = _run_file(potential={"type": "linear", "coeff": [0.1] * 9})
    run.update(filter={"delta": 1.0, "pi": 1.0, "gamma": 4.0, "omega_weight": 1.0}, trials=2)
    det = {"schema": 1, "refs": _ref_rows(rc.REFS), "body": _ref_rows(rc.BODY_MEAS),
           "weights": [1.0] * 7, "truth": rc.ATTITUDE_TRUE.ravel().tolist()}
    cases = [
        (base, command, path, value)
        for base, commands in ((run, ["propagate", "filter", "montecarlo"]), (det, ["determine"]))
        for path in _leaves(base)
        for command in commands
        for value in HOSTILE
    ]
    path_file = tmp_path / "fuzz.json"
    for k in np.random.default_rng(4).choice(len(cases), size=300, replace=False):
        base, command, path, value = cases[k]
        path_file.write_text(json.dumps(_with_leaf(base, path, value)))
        code = cli.main([command, "--config", str(path_file)])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SINGULAR, EXIT_REFLECTION), (path, value)
        assert code == EXIT_OK or err.startswith("error: "), (path, value)


def _reader(path):
    # One command that reads the leaf: filter reads the filter section and
    # checks the noise seed, montecarlo the trial count, propagate the rest.
    if path[0] == "filter" or path[:2] == ("scenario", "noise"):
        return "filter"
    return "montecarlo" if path[0] == "trials" else "propagate"


def test_every_fuzzed_leaf_error_names_its_field(tmp_path, capsys):
    # Every hostile value and -1 at every leaf of the fuzz test's run file and
    # determine file. An exit-2 message names the leaf's key (for a list
    # entry, its list's), or the dotted path of the object that holds it.
    run = _run_file(potential={"type": "linear", "coeff": [0.1] * 9})
    run.update(filter={"delta": 1.0, "pi": 1.0, "gamma": 4.0, "omega_weight": 1.0}, trials=2)
    det = {"schema": 1, "refs": _ref_rows(rc.REFS), "body": _ref_rows(rc.BODY_MEAS),
           "weights": [1.0] * 7, "truth": rc.ATTITUDE_TRUE.ravel().tolist()}
    path_file = tmp_path / "fuzz.json"
    unnamed = []
    for base, reader in ((run, _reader), (det, lambda path: "determine")):
        for path in _leaves(base):
            keys = [key for key in path if isinstance(key, str)]
            holder = ".".join(keys if isinstance(path[-1], int) else keys[:-1])
            for value in HOSTILE + [-1]:
                path_file.write_text(json.dumps(_with_leaf(base, path, value)))
                code = cli.main([reader(path), "--config", str(path_file)])
                err = capsys.readouterr().err
                named = re.search(rf"\b{re.escape(keys[-1])}\b", err) or (holder and holder in err)
                if code == EXIT_CONFIG and not named:
                    unnamed.append((path, value, err))
    assert not unnamed, unnamed[:5]


# ---------------------------------------------------------------------------
# filter weights, init.omega and run-file structure

NON_SYMMETRIC = [1.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("command", ["filter", "montecarlo"])
@pytest.mark.parametrize("key, value, message", [
    ("delta", 0, "smallest eigenvalue 0.0 is not positive"),
    ("pi", -1, "smallest eigenvalue -1.0 is not positive"),
    ("gamma", NON_SYMMETRIC, "symmetry residual 2.000e+00 exceeds 1.0e-12"),
    ("omega_weight", 0, "smallest eigenvalue 0.0 is not positive"),
], ids=["delta", "pi", "gamma", "omega_weight"])
def test_filter_weight_not_spd_exits_2_naming_it(tmp_path, capsys, monkeypatch, command, key,
                                                 value, message):
    cfg = _run_file()
    cfg["filter"] = {key: value}
    monkeypatch.setattr(simulate, "gen_truth", lambda *a: pytest.fail("truth propagated"))
    assert cli.main(_argv(command, _write(tmp_path, "fw.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: filter.{key}: {message}\n"


def test_filter_weights_are_checked_in_order(tmp_path, capsys):
    # Every weight is parsed before any is checked; then delta, pi, gamma
    # and omega_weight are checked in that order.
    keys = ["delta", "pi", "gamma", "omega_weight"]
    for first in range(4):
        cfg = _run_file()
        cfg["filter"] = {key: -1 for key in keys[first:]}
        assert cli.main(_argv("filter", _write(tmp_path, "fo.json", cfg))) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: filter.{keys[first]}: ")
    cfg = _run_file()
    cfg["filter"] = {"delta": -1, "omega_weight": "x"}
    assert cli.main(_argv("filter", _write(tmp_path, "fp.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: filter.omega_weight: not numeric\n"


@pytest.mark.parametrize("command", ["propagate", "filter"])
def test_skew_matrix_initial_rate_runs_as_its_vector(tmp_path, capsys, command):
    # scenario.init.omega as 9 row-major numbers or a nested 3x3 skew matrix
    # is the same run as the 3-vector.
    outputs = []
    x, y, z = 0.8, -0.5, 1.0
    skew = [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
    for omega in ([x, y, z], [v for row in skew for v in row], skew):
        cfg = _run_file()
        cfg["scenario"]["init"]["omega"] = omega
        assert cli.main(_argv(command, _write(tmp_path, "om.json", cfg))) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("command", ["propagate", "filter"])
@pytest.mark.parametrize("omega, message", [
    ([0.0, -0.9, -0.5, 1.0, 0.0, -0.8, 0.5, 0.8, 0.0],
     "scenario.init.omega: symmetry residual 1.000e-01 exceeds 1.0e-12"),
    ([0.8, -0.5, 1.0, 0.0],
     "scenario.init.omega: expected a 3-vector or row-major skew matrix"),
], ids=["not-skew", "4-vector"])
def test_malformed_initial_rate_exits_2(tmp_path, capsys, command, omega, message):
    cfg = _run_file()
    cfg["scenario"]["init"]["omega"] = omega
    assert cli.main(_argv(command, _write(tmp_path, "bo.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
@pytest.mark.parametrize("inertia, message", [
    ([2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -0.5], "smallest eigenvalue -0.5 is not positive"),
    ([1.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], "symmetry residual 5.000e-01 exceeds 1.0e-12"),
    ([1e-310, 0.0, 0.0, 0.0, 2e-310, 0.0, 0.0, 0.0, 3e-310],
     "principal moments [5e-310, 4e-310, 3e-310] of the classical inertia are out of range: "
     "1/k is not finite"),
], ids=["negative", "not-symmetric", "subnormal"])
def test_inertia_not_spd_exits_2_naming_it(tmp_path, capsys, monkeypatch, command, inertia,
                                           message):
    cfg = _run_file(inertia=inertia)
    monkeypatch.setattr(simulate, "gen_truth", lambda *a: pytest.fail("truth propagated"))
    assert cli.main(_argv(command, _write(tmp_path, "in.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: scenario.inertia: {message}\n"


def test_scenario_fields_are_checked_in_order(tmp_path, capsys):
    # init.omega is checked before refs, and refs before the inertia.
    edits = [
        (lambda scn: scn["init"].update(omega=[0.0, -0.9, -0.5, 1.0, 0.0, -0.8, 0.5, 0.8, 0.0]),
         "scenario.init.omega: symmetry residual 1.000e-01 exceeds 1.0e-12"),
        (lambda scn: scn.update(refs=[[1.0, 0.0]] * 2),
         "scenario.refs: expected 3 row arrays, got shape (2, 2)"),
        (lambda scn: scn.update(inertia=[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0]),
         "scenario.inertia: smallest eigenvalue -1.0 is not positive"),
    ]
    for first, (_, message) in enumerate(edits):
        cfg = _run_file()
        for edit, _ in edits[first:]:
            edit(cfg["scenario"])
        assert cli.main(_argv("propagate", _write(tmp_path, "so.json", cfg))) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"


def _drop(obj, key):
    del obj[key]


# Each edit of a valid run file, and the one message it must give.
STRUCTURE_ERRORS = {
    "refs-two-rows": (lambda c: c["scenario"].update(refs=c["scenario"]["refs"][:2]),
                      "scenario.refs: expected 3 row arrays, got shape (2, 7)"),
    "potential-string": (lambda c: c["scenario"].update(potential="zero"),
                         'potential: expected an object with a "type" field'),
    "potential-no-type": (lambda c: c["scenario"].update(potential={}),
                          'potential: expected an object with a "type" field'),
    "linear-no-coeff": (lambda c: c["scenario"].update(potential={"type": "linear"}),
                        'potential: linear type requires "coeff"'),
    "schedule-no-count": (lambda c: c["scenario"].update(schedule={"start": 0.05, "dt": 0.05}),
                          'schedule: expected {"times": [...]} or {"start", "dt", "count"}'),
    "scenario-list": (lambda c: c.update(scenario=[]), "scenario: expected an object"),
    "scenario-no-inertia": (lambda c: _drop(c["scenario"], "inertia"),
                            "scenario: missing 'inertia'"),
    "init-no-omega": (lambda c: _drop(c["scenario"]["init"], "omega"),
                      'scenario.init: expected {"t", "attitude", "omega"}'),
    "integrator-number": (lambda c: c.update(integrator=5e-3), "integrator: expected an object"),
    "no-scenario": (lambda c: _drop(c, "scenario"), "COMMAND config: missing 'scenario'"),
}


@pytest.mark.parametrize("command", ["propagate", "filter", "montecarlo"])
@pytest.mark.parametrize("edit", list(STRUCTURE_ERRORS))
def test_run_file_structure_errors_exit_2(tmp_path, capsys, command, edit):
    change, message = STRUCTURE_ERRORS[edit]
    cfg = _run_file()
    change(cfg)
    assert cli.main(_argv(command, _write(tmp_path, "se.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message.replace('COMMAND', command)}\n"


@pytest.mark.parametrize("command", ["filter", "montecarlo"])
def test_filter_section_not_an_object_exits_2(tmp_path, capsys, command):
    cfg = _run_file()
    cfg["filter"] = [1.0]
    assert cli.main(_argv(command, _write(tmp_path, "fl.json", cfg))) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: filter: expected an object\n"


@pytest.mark.parametrize("command", ["propagate", "determine"])
def test_config_root_not_an_object_exits_2(tmp_path, capsys, command):
    path = _write(tmp_path, "root.json", [{"schema": 1}])
    assert cli.main([command, "--config", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: config root must be a JSON object\n"


@pytest.mark.parametrize("command", ["propagate", "filter"])
def test_null_potential_is_a_free_body(tmp_path, capsys, command):
    outputs = []
    for potential in (None, {"type": "zero"}):
        cfg = _run_file(potential=potential)
        assert cli.main(_argv(command, _write(tmp_path, "np.json", cfg))) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

import json
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
    assert "unit" in capsys.readouterr().err


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

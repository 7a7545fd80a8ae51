"""The benchmark's checks pass on attkit's real outputs and fail on
corrupted ones.

    python3 -m pytest perfbench -q      (from the repository root)
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402


def _small_rotation(angle, axis=(0.3, -0.5, 0.8)):
    u = np.asarray(axis) / np.linalg.norm(axis)
    W = checks.hat(angle * u)
    return np.eye(3) + np.sin(angle) / angle * W + (1 - np.cos(angle)) / angle**2 * (W @ W)


def test_rotation_angle_resolves_tiny_and_near_pi_angles():
    for angle in (1e-10, 1e-8, 1e-4, 1.0, np.pi - 1e-7):
        R = _small_rotation(angle)
        assert abs(checks.rotation_angle(np.eye(3), R) - angle) <= 1e-15 + 1e-12 * angle


# ---------------------------------------------------------------------------
# determine

class SmallDetermine(workloads.Determine):
    problems = 500
    chunk = 250


@pytest.fixture(scope="module")
def determine_run(tmp_path_factory):
    wl = SmallDetermine(3, str(tmp_path_factory.mktemp("det")))
    for k in range(wl.ops_per_round):
        assert wl.run_op(k) == (wl.chunk, 0)
    assert wl.check() == []
    return wl


def test_determine_check_catches_a_transposed_attitude(determine_run):
    wl = determine_run
    saved = wl.estimates.copy()
    try:
        i = int(np.flatnonzero(~wl.noise_free)[0])
        wl.estimates[i] = wl.estimates[i].T
        assert any("SVD solution" in p for p in wl.check())
    finally:
        wl.estimates[:] = saved


def test_determine_check_catches_a_noise_free_miss(determine_run):
    wl = determine_run
    i = int(np.flatnonzero(wl.noise_free)[0])
    est = wl.estimates.copy()
    est[i] = est[i] @ _small_rotation(1e-8)
    truths = wl.truth
    profiles = np.array([r @ (w[:, None] * b.T) for r, b, w in zip(wl.refs, wl.body, wl.weights)])
    # Profiles of the corrupted problem still match, so only the truth test bites.
    problems = checks.check_determine(est, profiles, truths, wl.noise_free)
    assert any("noise-free" in p for p in problems)


def test_determine_check_catches_a_reflection():
    C = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])])
    problems = checks.check_determine(C, C.copy(), C.copy(), np.zeros(2, dtype=bool))
    assert any("SO(3)" in p for p in problems)


# ---------------------------------------------------------------------------
# filter runs

@pytest.fixture(scope="module")
def filter_run(tmp_path_factory):
    wl = workloads.filter_free(4, str(tmp_path_factory.mktemp("filter")))
    assert wl.run_op(0) == (1, 0)
    wl.collect(0)
    assert wl.check() == []
    return wl


def _bounds(wl):
    return checks.noise_bounds(wl.arrays["refs"], wl.sigma_vec, wl.sigma_gyro, 2.0, wl.dt, wl.mode)


def _csv_problems(wl, text):
    return checks.check_filter_csv(
        text, wl.arrays["schedule"], _bounds(wl), wl.arrays["refs"].shape[1], wl.sigma_vec
    )


def test_filter_csv_check_catches_a_dropped_row(filter_run):
    text = filter_run.first
    assert _csv_problems(filter_run, text) == []
    lines = text.splitlines(keepends=True)
    assert any("rows for" in p for p in _csv_problems(filter_run, "".join(lines[:-1])))


def test_filter_csv_check_catches_header_time_and_noise_faults(filter_run):
    lines = filter_run.first.splitlines()
    renamed = "\n".join([lines[0].replace("cost_J0", "cost")] + lines[1:])
    assert _csv_problems(filter_run, renamed)
    shifted = "\n".join([lines[0]] + [f"{float(l.split(',')[0]) + 0.001}," + l.split(",", 1)[1]
                                      for l in lines[1:]])
    assert any("time column" in p for p in _csv_problems(filter_run, shifted))
    header, data = checks.parse_filter_csv(filter_run.first)
    data[:, 2] *= 20.0  # post-update attitude errors far above the noise level
    loud = "\n".join([lines[0]] + [",".join("%.10g" % v for v in row) for row in data])
    assert any("err_att_post_rad" in p for p in _csv_problems(filter_run, loud))


def test_truth_check_catches_a_rate_off_by_1e_5(filter_run):
    a = filter_run.arrays
    C_ref, w_ref = checks.reference_trajectory(a["C0"], a["w0"], a["K"], a["A"], a["schedule"])
    args = (a["K"], a["A"], a["C0"], a["w0"])
    assert checks.check_truth(C_ref, w_ref, C_ref, w_ref, *args) == []
    w_bad = w_ref.copy()
    w_bad[len(w_bad) // 2:, 1] += 1e-5
    assert any("rate off" in p for p in checks.check_truth(C_ref, w_bad, C_ref, w_ref, *args))
    # A wrong potential sign changes the trajectory itself.
    A = 0.5 * np.ones((3, 3))
    C_p, w_p = checks.reference_trajectory(a["C0"], a["w0"], a["K"], A, a["schedule"][:20])
    C_m, w_m = checks.reference_trajectory(a["C0"], a["w0"], a["K"], -A, a["schedule"][:20])
    assert checks.check_truth(C_m, w_m, C_p, w_p, a["K"], A, a["C0"], a["w0"])


def test_twin_check_catches_a_transposed_or_drifting_estimate(filter_run):
    a = filter_run.arrays
    C_ref, w_ref = checks.reference_trajectory(a["C0"], a["w0"], a["K"], a["A"], a["schedule"])
    assert checks.check_twin(C_ref, C_ref, w_ref, w_ref, C_ref, w_ref) == []
    C_t = np.swapaxes(C_ref, 1, 2)
    assert checks.check_twin(C_ref, C_t, w_ref, w_ref, C_ref, w_ref)
    C_d = C_ref @ _small_rotation(2e-6)
    assert checks.check_twin(C_d, C_ref, w_ref, w_ref, C_ref, w_ref)
    assert checks.check_twin(C_ref, C_ref, w_ref, w_ref + 2e-6, C_ref, w_ref)


# ---------------------------------------------------------------------------
# montecarlo

class SmallMonteCarlo(workloads.MonteCarlo):
    trials = 4


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    wl = SmallMonteCarlo(5, str(tmp_path_factory.mktemp("mc")))
    for k in range(wl.ops_per_round):
        assert wl.run_op(k) == (1, 0)
        wl.collect(k)
    assert wl.check() == []
    return wl


def test_campaign_check_catches_a_swapped_trial(campaign):
    wl = campaign
    argv = ["--config", wl.configs[0], "--mode", "no-gyro"]
    one = os.path.join(wl.workdir, "one.json")
    assert workloads._quiet_main(["montecarlo", *argv, "--seed", str(wl.master),
                                  "--trials", "1", "--output", one]) == 0
    summary = json.loads(workloads._read(one))
    for seed, ok in ((wl.master, True), (wl.master + 1, False)):
        out = os.path.join(wl.workdir, f"f{seed}.csv")
        assert workloads._quiet_main(["filter", *argv, "--seed", str(seed), "--output", out]) == 0
        assert (checks.check_trial_zero(summary, workloads._read(out)) == []) is ok


def test_campaign_check_catches_broken_statistics_and_scaling(campaign):
    full, half = (json.loads(t) for t in campaign.first)
    args = (campaign.schedule, campaign.trials, campaign.master)
    assert checks.check_campaign(full, *args) == []
    bad = json.loads(campaign.first[0])
    bad["per_epoch"]["err_att_post_max"][3] = -1.0
    assert checks.check_campaign(bad, *args)
    short = json.loads(campaign.first[0])
    short["per_epoch"]["t"] = short["per_epoch"]["t"][:-1]
    assert checks.check_campaign(short, *args)
    assert checks.check_campaign_scaling(full, half, campaign.sigma) == []
    assert checks.check_campaign_scaling(full, full, campaign.sigma)
    assert checks.check_campaign_scaling(full, half, campaign.sigma / 10.0)

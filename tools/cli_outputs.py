"""Write the outputs of a fixed set of 363 attkit CLI commands.

    python tools/cli_outputs.py SRC OUTDIR
    python tools/cli_outputs.py --compare OUTDIR_A OUTDIR_B [--units N] [--abs X]

SRC is the ``src/`` directory of an attkit checkout; ``attkit.cli.main``
is imported from there and every command runs in-process. The run files
are generated here with numpy alone, from fixed seeds, so two checkouts
get the same inputs. OUTDIR receives them under ``inputs/`` and, for each
command, ``NNN_<label>.stdout`` (exit code, stdout and stderr) and its
``--output`` file. Run it against two checkouts and compare the two
OUTDIRs with ``diff -r`` (no output means byte-identical results) or with
``--compare``, which bounds how far the numbers moved (see ``compare``).

The commands:

* ``golden --output`` and ``determine`` on one problem file;
* 24 run files: the zero and a linear potential, times five noise settings
  (none, sigma_vec, sigma_gyro, both, both at 0.01), times two schedules
  (a regular one, and irregular times whose gaps reach 0.6 s, so a filter
  interval holds partial steps and up to 600 integrator steps); one each
  like the benchmark's ``filter_free`` and ``filter_potential``; and, in
  both potentials with both noises, a schedule that mixes gaps of 1 to 4
  integrator steps, where each interval's fixed cost outweighs its steps,
  with gaps of 1,100 to 2,200 steps, long runs of the one step loop.
  On each: ``propagate``, ``filter`` in both modes, and ``montecarlo`` in
  both modes with ``--trials`` 1, 3 and 7;
* the criterion-11 campaign at sigma and sigma/2: ``filter`` and
  ``montecarlo --trials 100`` in both modes, with the campaign's seed;
* ``determine`` on 11 more problem files, which reach every branch of the
  input checks (see ``_determine_branches``); these come last, so the
  numbers of the commands above do not depend on them;
* three run files that fail (see ``_failing_runs``): ``filter`` and
  ``montecarlo`` with ``--trials`` 1 and 3 on each, in both modes. They
  come after the determine problems, for the same reason;
* a reflection as the attitude (see ``_improper_attitudes``): a run file
  with one as ``init.attitude``, for ``propagate``, and for ``filter`` and
  ``montecarlo --trials 3`` in both modes; and a determine problem with
  one as ``truth``. They come after the failing runs, for the same reason;
* checks made as a run file is read (see ``_read_checks``): ``filter`` with
  a delta, a pi and a gamma that are not symmetric positive definite;
  ``propagate`` with an inertia that is not; and ``propagate`` and
  ``filter`` with init.omega given as a row-major skew matrix, and as one
  that is not skew. They come after the improper attitudes, for the same
  reason;
* runs of 10 epochs, two and a half of the simulator's 4-epoch noise draw
  blocks (see ``_draw_blocks``): gyro noise alone and both noises, in both
  potentials. On each: ``filter`` in both modes, and ``montecarlo`` in both
  modes with ``--trials`` 1, 3 and 7. They come after the read checks, for
  the same reason;
* a campaign of 100 trials in a linear potential with both noises (see
  ``_grouped_potential``): ``montecarlo --trials 100`` in both modes. It
  comes after the draw blocks, for the same reason;
* rate weights whose skew solve overflows (see ``_overflowing_weights``):
  ``filter --mode no-gyro`` with a pi of 1e308 on a body at rest, and
  ``filter`` and ``montecarlo --trials 3`` in ``--mode with-gyro`` with an
  omega_weight of 1.7e308. They come after the grouped campaign, for the
  same reason;
* large no-gyro rate weights (see ``_large_pi``): ``filter --mode no-gyro``
  with a pi of 1e7, whose update's symmetric residual is rounding at the
  weight's scale, and of 1.7e308, whose update's right side overflows.
  They come after the overflowing weights, for the same reason;
* bodies in principal axes (see ``_principal_axes``): a spin about a
  principal axis at a negative rate, free and in a linear potential, and a
  second moment that is diagonal but for one entry of 1e-17. On each:
  ``filter`` in both modes, and ``montecarlo`` in both modes with
  ``--trials`` 3 and 7. They come after the large weights, for the same
  reason;
* axisymmetric bodies in a rotated frame (see ``_axisymmetric``): two
  equal second moments, a degenerate eigenspace, free and in a linear
  potential. On each: ``filter`` in both modes, and ``montecarlo`` in both
  modes with ``--trials`` 3 and 7. They come after the principal axes, for
  the same reason;
* a linear potential whose coeff entries are all 1e308 (see
  ``_overflowing_moment``): ``propagate``, and ``filter`` and ``montecarlo
  --trials 3`` in both modes. They come after the axisymmetric bodies, for
  the same reason;
* a second moment of 1e-310 diag(1, 2, 3), whose 1/k overflows, and an
  integrator step of 1e-300, which asks for 5e298 steps to the first epoch
  (see ``_out_of_range``): ``propagate``, ``filter`` and ``montecarlo
  --trials 3`` on each. They come after the overflowing moment, for the
  same reason;
* a one-epoch run at the initial time whose rate of 1e155 rad/s has a
  squared rate that overflows, and a second moment of 0.6e308 I, whose
  trace overflows (see ``_overflowing_state``): ``propagate``, ``filter``
  in both modes, and ``montecarlo`` in both modes with ``--trials`` 1 and
  3. They come last, for the same reason.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import io
import json
import math
import os
import re
import sys

import numpy as np

NOISES = {
    "quiet": (0.0, 0.0),
    "vec": (0.002, 0.0),
    "gyro": (0.0, 0.005),
    "both": (0.002, 0.005),
    "both01": (0.01, 0.01),
}
MODES = ("no-gyro", "with-gyro")
CRITERION_11_SEED = 1234


def _rotation(rng):
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 2] = -Q[:, 2]
    return Q


def _cone(rng, n, half_angle):
    # n unit vectors in a cone about a random axis, azimuths spread evenly.
    z = rng.uniform(math.cos(half_angle), math.cos(0.3 * half_angle), size=n)
    phi = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.0, 0.5, size=n)) / n
    r = np.sqrt(1.0 - z * z)
    return _rotation(rng) @ np.vstack([r * np.cos(phi), r * np.sin(phi), z])


def _run_file(rng, *, potential, noise, schedule, h=1e-3, epochs=12, inertia=None, omega=None):
    refs = _cone(rng, 7, 0.25)
    if inertia is None:
        frame = _rotation(rng)
        S = frame @ np.diag(rng.uniform(1.0, 3.0, size=3)) @ frame.T
        inertia = (0.5 * (S + S.T)).ravel().tolist()
    if omega is None:
        w = rng.normal(size=3)
        omega = (w * rng.uniform(0.8, 1.5) / np.linalg.norm(w)).tolist()
    pot = {"type": "zero"}
    if potential:
        pot = {"type": "linear", "coeff": rng.normal(0.0, 0.5, size=9).tolist()}
    if schedule == "regular":
        sched = {"start": 0.05, "dt": 0.05, "count": epochs}
    elif schedule == "blocks":
        gaps = [0.001, 0.002, 0.003, 0.004, 1.5, 0.002, 0.001, 2.2, 0.004, 0.003, 0.001, 1.1]
        sched = {"times": (0.05 + np.cumsum(gaps[:epochs])).tolist()}
    else:
        sched = {"times": np.cumsum(rng.uniform(0.02, 0.6, size=epochs)).tolist()}
    sigma_vec, sigma_gyro = noise
    return {
        "schema": 1,
        "scenario": {
            "refs": [row.tolist() for row in refs],
            "inertia": inertia,
            "potential": pot,
            "init": {"t": 0.0, "attitude": _rotation(rng).ravel().tolist(), "omega": omega},
            "schedule": sched,
            "noise": {"sigma_vec": sigma_vec, "sigma_gyro": sigma_gyro,
                      "seed": int(rng.integers(0, 2**31))},
        },
        "integrator": {"step": h, "scheme": "rkmk4"},
        "filter": {"delta": 1.0, "pi": 1.0, "gamma": 1.0, "omega_weight": 1.0},
    }


def _determine_file(rng):
    refs = _cone(rng, 7, 0.25)
    C = _rotation(rng)
    body = C.T @ refs + rng.normal(0.0, 0.002, size=refs.shape)
    body /= np.linalg.norm(body, axis=0)
    return {
        "schema": 1,
        "refs": [row.tolist() for row in refs],
        "body": [row.tolist() for row in body],
        "weights": rng.uniform(0.5, 2.0, size=7).tolist(),
        "truth": C.ravel().tolist(),
    }


def _determine_branches(rng):
    """Determine problems that reach each branch of the input checks: rank
    deficient refs or body, s3/s1 of the refs just above and just below
    1e-6, a non-finite body entry, a zero weight, a reflection profile,
    vectors scaled to 1e-160 and to 1e160, refs scaled to 1e-55 and body to
    1e55 (solved, though the rank screen cannot vouch for either set), and
    rank deficient refs together with a body of the wrong width (the refs
    are checked first)."""
    base = _determine_file(rng)
    refs, body = np.array(base["refs"]), np.array(base["body"])
    planar = refs.copy()
    planar[2] = 0.0
    U, W = _rotation(rng), np.linalg.qr(rng.normal(size=(7, 3)))[0]

    def rows(M):
        return [row.tolist() for row in M]

    cases = {
        "planar_refs": {"refs": rows(planar)},
        "planar_body": {"body": rows(planar)},
        "rank_above": {"refs": rows(U @ np.diag([1.0, 0.6, 1.5e-6]) @ W.T)},
        "rank_below": {"refs": rows(U @ np.diag([1.0, 0.6, 0.7e-6]) @ W.T)},
        "nonfinite_body": {"body": rows(body)},
        "zero_weight": {"weights": base["weights"][:3] + [0.0] + base["weights"][4:]},
        "reflection": {"body": rows(np.diag([1.0, 1.0, -1.0]) @ body)},
        "tiny": {"refs": rows(1e-160 * refs), "body": rows(1e-160 * body)},
        "huge": {"refs": rows(1e160 * refs), "body": rows(1e160 * body)},
        "scaled_apart": {"refs": rows(1e-55 * refs), "body": rows(1e55 * body)},
        "planar_refs_wide_body": {
            "refs": rows(planar), "body": rows(np.hstack([body, body[:, :1]])),
            "weights": base["weights"] + [1.0],
        },
    }
    cases["nonfinite_body"]["body"][1][4] = math.inf  # written as Infinity
    return {f"determine_{name}": {**base, **case} for name, case in cases.items()}


def _failing_runs(rng):
    """Run files whose filter runs fail: two at the pi/4 step guard, with gyro
    noise of 1e3 rad/s, which the first filter propagation starts from, and
    an initial spin of 900 rad/s, which the truth propagation starts from;
    and one whose gyro noise of 1e308 rad/s gives readings whose entries or
    squared rate overflow, which the first measurement batch rejects. Each
    is drawn after the ones before it, so their inputs stay as they were."""
    gyro = _run_file(rng, potential=False, noise=(0.0, 1e3), schedule="regular")
    gyro["scenario"]["noise"]["seed"] = 1
    spin = _run_file(rng, potential=False, noise=NOISES["both"], schedule="regular",
                     omega=[900.0, 0.0, 0.0])
    overflow = _run_file(rng, potential=False, noise=(0.0, 1e308), schedule="regular")
    return {"fail_gyro_guard": gyro, "fail_truth_guard": spin, "fail_gyro_overflow": overflow}


def _improper_attitudes(rng):
    """A run file whose init.attitude, and a determine problem whose truth,
    is a rotation times diag(1, 1, -1): a reflection, not an attitude."""
    run = _run_file(rng, potential=False, noise=NOISES["both"], schedule="regular")
    determine = _determine_file(rng)
    for cfg, key in ((run["scenario"]["init"], "attitude"), (determine, "truth")):
        cfg[key] = (np.reshape(cfg[key], (3, 3)) @ np.diag([1.0, 1.0, -1.0])).ravel().tolist()
    return {"improper_init": run, "determine_improper_truth": determine}


def _read_checks(rng):
    """Run files that fail, or pass, checks made as the file is read: a filter
    delta of 0, a pi of -1 and a non-symmetric gamma; an inertia with a
    negative eigenvalue; and init.omega given as the 9 row-major entries of
    a skew matrix, and of a matrix that is not skew."""
    files = {}
    for key, value in (("delta", 0.0), ("pi", -1.0),
                       ("gamma", [1.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])):
        files[f"bad_{key}"] = _run_file(rng, potential=False, noise=NOISES["both"], schedule="regular")
        files[f"bad_{key}"]["filter"][key] = value
    files["bad_inertia"] = _run_file(rng, potential=False, noise=NOISES["both"], schedule="regular",
                                     inertia=[2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -0.5])
    for name, asym in (("omega_skew", 0.0), ("omega_not_skew", 0.1)):
        files[name] = _run_file(rng, potential=False, noise=NOISES["both"], schedule="regular")
        x, y, z = files[name]["scenario"]["init"]["omega"]
        files[name]["scenario"]["init"]["omega"] = [0.0, -z + asym, y, z, 0.0, -x, -y, x, 0.0]
    return files


def _draw_blocks(rng):
    """Run files of 10 epochs, which end inside the third of the simulator's
    4-epoch noise draw blocks: gyro noise alone and both noises, with the
    zero and a linear potential."""
    return {
        f"draws_{pot}_{noise}": _run_file(rng, potential=pot == "linear", noise=NOISES[noise],
                                           schedule="regular", epochs=10)
        for pot in ("zero", "linear") for noise in ("gyro", "both")
    }


def _grouped_potential(rng):
    """A run file for a 100-trial campaign in a linear potential with vector
    and gyro noise: every trial's attitude and rate differ from the first
    step, and the potential's moment is taken on all of them at once."""
    return {"grouped_linear_both": _run_file(rng, potential=True, noise=NOISES["both"],
                                             schedule="regular")}


def _overflowing_weights(rng):
    """Run files whose first rate update overflows its skew solve, as
    trace(K) I - K is not finite: a filter pi of 1e308 I, on a body at rest
    with no gyro noise, so that the no-gyro update's right side is exactly 0
    and passes its symmetric residual check; and a gyro weight of 1.7e308 I,
    whose right side overflows too."""
    pi = _run_file(rng, potential=False, noise=NOISES["vec"], schedule="regular",
                   omega=[0.0, 0.0, 0.0])
    pi["filter"]["pi"] = 1e308
    gyro = _run_file(rng, potential=False, noise=NOISES["both"], schedule="regular")
    gyro["filter"]["omega_weight"] = 1.7e308
    return {"overflow_pi": pi, "overflow_omega_weight": gyro}


def _large_pi(rng):
    """Run files for the no-gyro rate update at large weights: a filter pi
    of 1e7 I, where the symmetric residual of the update's right side is
    rounding of about 1e-9, and of 1.7e308 I, where that side overflows."""
    files = {}
    for name, pi in (("pi_1e7", 1e7), ("pi_overflow", 1.7e308)):
        files[name] = _run_file(rng, potential=False, noise=NOISES["vec"], schedule="regular")
        files[name]["filter"]["pi"] = pi
    return files


def _principal_axes(rng):
    """Run files whose campaigns step a body in principal axes: a spin about
    the third axis at a negative rate, its other two components exact zeros,
    free and in a linear potential; and a second moment that is diagonal but
    for one entry of 1e-17, which is not principal."""
    spin = dict(inertia=[1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0], omega=[0.0, 0.0, -1.1])
    files = {
        f"principal_{pot}": _run_file(rng, potential=pot == "linear", noise=NOISES["both"],
                                      schedule="regular", **spin)
        for pot in ("zero", "linear")
    }
    files["near_principal"] = _run_file(rng, potential=False, noise=NOISES["both"],
                                        schedule="regular",
                                        inertia=[1.0, 1e-17, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0])
    return files


def _axisymmetric(rng):
    """Run files whose body has two equal second moments in a rotated frame,
    free and in a linear potential: the principal frame's axes may be any
    orthonormal pair of the degenerate eigenspace."""
    files = {}
    for pot in ("zero", "linear"):
        frame, (a, b) = _rotation(rng), rng.uniform(1.0, 3.0, size=2)
        S = frame @ np.diag([a, a, b]) @ frame.T
        files[f"axisymmetric_{pot}"] = _run_file(rng, potential=pot == "linear",
                                                 noise=NOISES["both"], schedule="regular",
                                                 inertia=(0.5 * (S + S.T)).ravel().tolist())
    return files


def _overflowing_moment(rng):
    """A run file in a linear potential whose coeff entries are all 1e308:
    finite, so it is read, but its moment overflows and the rate turns NaN,
    which the first propagation reports."""
    run = _run_file(rng, potential=True, noise=NOISES["both"], schedule="regular")
    run["scenario"]["potential"]["coeff"] = [1e308] * 9
    return {"overflow_moment": run}


def _out_of_range(rng):
    """Free-body run files that fail before their first step: a second moment
    whose principal moments are subnormal, and an integrator step of 1e-300."""
    subnormal = [1e-310, 0.0, 0.0, 0.0, 2e-310, 0.0, 0.0, 0.0, 3e-310]
    return {
        "subnormal_inertia": _run_file(rng, potential=False, noise=NOISES["both"],
                                       schedule="regular", inertia=subnormal),
        "tiny_step": _run_file(rng, potential=False, noise=NOISES["both"], schedule="regular",
                               h=1e-300),
    }


def _overflowing_state(rng):
    """Run files whose state is finite but too large: a one-epoch run at the
    initial time whose rate of 1e155 rad/s gives a gyro reading with no noise
    and a squared rate that overflows, and a second moment of 0.6e308 I,
    whose trace overflows."""
    rate = _run_file(rng, potential=False, noise=NOISES["vec"], schedule="regular",
                     omega=[1e155, 0.0, 0.0])
    rate["scenario"]["schedule"] = {"times": [0.0]}
    huge = [0.6e308, 0.0, 0.0, 0.0, 0.6e308, 0.0, 0.0, 0.0, 0.6e308]
    return {
        "rate_overflow": rate,
        "huge_inertia": _run_file(rng, potential=False, noise=NOISES["both"],
                                  schedule="regular", inertia=huge),
    }


def commands(inputs):
    """Write the input files into inputs; return (label, argv) pairs."""
    files = {}
    rng = np.random.default_rng(20261018)
    for pot in ("zero", "linear"):
        for noise, levels in NOISES.items():
            for sched in ("regular", "times"):
                files[f"{pot}_{noise}_{sched}"] = _run_file(
                    rng, potential=pot == "linear", noise=levels, schedule=sched
                )
    files["filter_free"] = _run_file(
        rng, potential=False, noise=(0.002, 0.0), schedule="regular", epochs=400
    )
    files["filter_potential"] = _run_file(
        rng, potential=True, noise=(0.002, 0.005), schedule="regular", epochs=100
    )
    blocks_rng = np.random.default_rng(20261019)  # leaves the draws above as they were
    for pot in ("zero", "linear"):
        files[f"{pot}_both_blocks"] = _run_file(
            blocks_rng, potential=pot == "linear", noise=NOISES["both"], schedule="blocks"
        )
    runs = list(files)
    criterion_11 = dict(
        potential=False, schedule="regular", h=5e-3, epochs=100,
        inertia=[1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0], omega=[0.8, -0.5, 1.0],
    )
    for name, sigma in (("c11_sigma", 0.002), ("c11_half", 0.001)):
        files[name] = _run_file(np.random.default_rng(11), noise=(sigma, 0.0), **criterion_11)
    files["determine"] = _determine_file(rng)
    branches = _determine_branches(np.random.default_rng(20261020))
    files.update(branches)
    failing = _failing_runs(np.random.default_rng(20261021))
    files.update(failing)
    improper = _improper_attitudes(np.random.default_rng(20261022))
    files.update(improper)
    read_checks = _read_checks(np.random.default_rng(20261023))
    files.update(read_checks)
    draw_blocks = _draw_blocks(np.random.default_rng(20261024))
    files.update(draw_blocks)
    grouped = _grouped_potential(np.random.default_rng(20261025))
    files.update(grouped)
    overflow = _overflowing_weights(np.random.default_rng(20261026))
    files.update(overflow)
    large_pi = _large_pi(np.random.default_rng(20261027))
    files.update(large_pi)
    principal = _principal_axes(np.random.default_rng(20261028))
    files.update(principal)
    axisymmetric = _axisymmetric(np.random.default_rng(20261029))
    files.update(axisymmetric)
    files.update(_overflowing_moment(np.random.default_rng(20261030)))
    out_of_range = _out_of_range(np.random.default_rng(20261031))
    files.update(out_of_range)
    overflowing_state = _overflowing_state(np.random.default_rng(20261032))
    files.update(overflowing_state)
    for name, cfg in files.items():
        with open(os.path.join(inputs, f"{name}.json"), "w") as fh:
            json.dump(cfg, fh, indent=1)

    def cfg(name):
        return ["--config", os.path.join(inputs, f"{name}.json")]

    out = [
        ("golden", ["golden", "--output", "golden.json"]),
        ("determine", ["determine", *cfg("determine"), "--output", "determine.json"]),
    ]
    for name in runs:
        out.append((f"propagate_{name}", ["propagate", *cfg(name)]))
        for mode in MODES:
            out.append((f"filter_{name}_{mode}", ["filter", *cfg(name), "--mode", mode]))
            for trials in (1, 3, 7):
                out.append((f"montecarlo_{name}_{mode}_{trials}",
                            ["montecarlo", *cfg(name), "--mode", mode, "--trials", str(trials)]))
    seed = ["--seed", str(CRITERION_11_SEED)]
    for name in ("c11_sigma", "c11_half"):
        for mode in MODES:
            out.append((f"filter_{name}_{mode}", ["filter", *cfg(name), "--mode", mode, *seed]))
            out.append((f"montecarlo_{name}_{mode}_100",
                        ["montecarlo", *cfg(name), "--mode", mode, *seed, "--trials", "100"]))
    for name in branches:  # after the runs, so the numbering of the commands above stays
        out.append((name, ["determine", *cfg(name), "--output", f"{name}.json"]))
    for name in failing:  # after the determine problems, for the same reason
        for mode in MODES:
            out.append((f"filter_{name}_{mode}", ["filter", *cfg(name), "--mode", mode]))
            for trials in (1, 3):
                out.append((f"montecarlo_{name}_{mode}_{trials}",
                            ["montecarlo", *cfg(name), "--mode", mode, "--trials", str(trials)]))
    # After the failing runs, for the same reason
    out.append(("propagate_improper_init", ["propagate", *cfg("improper_init")]))
    for mode in MODES:
        out.append((f"filter_improper_init_{mode}", ["filter", *cfg("improper_init"), "--mode", mode]))
        out.append((f"montecarlo_improper_init_{mode}_3",
                    ["montecarlo", *cfg("improper_init"), "--mode", mode, "--trials", "3"]))
    out.append(("determine_improper_truth",
                ["determine", *cfg("determine_improper_truth"), "--output", "determine_improper_truth.json"]))
    # After the improper attitudes, for the same reason
    for name in ("bad_delta", "bad_pi", "bad_gamma"):
        out.append((f"filter_{name}", ["filter", *cfg(name)]))
    out.append(("propagate_bad_inertia", ["propagate", *cfg("bad_inertia")]))
    for name in ("omega_skew", "omega_not_skew"):
        out.append((f"propagate_{name}", ["propagate", *cfg(name)]))
        out.append((f"filter_{name}", ["filter", *cfg(name)]))
    for name in draw_blocks:  # after the read checks, for the same reason
        for mode in MODES:
            out.append((f"filter_{name}_{mode}", ["filter", *cfg(name), "--mode", mode]))
            for trials in (1, 3, 7):
                out.append((f"montecarlo_{name}_{mode}_{trials}",
                            ["montecarlo", *cfg(name), "--mode", mode, "--trials", str(trials)]))
    for name in grouped:  # after the draw blocks, for the same reason
        for mode in MODES:
            out.append((f"montecarlo_{name}_{mode}_100",
                        ["montecarlo", *cfg(name), "--mode", mode, "--trials", "100"]))
    # After the grouped campaign, for the same reason
    out.append(("filter_overflow_pi_no-gyro", ["filter", *cfg("overflow_pi"), "--mode", "no-gyro"]))
    out.append(("filter_overflow_omega_weight_with-gyro",
                ["filter", *cfg("overflow_omega_weight"), "--mode", "with-gyro"]))
    out.append(("montecarlo_overflow_omega_weight_with-gyro_3",
                ["montecarlo", *cfg("overflow_omega_weight"), "--mode", "with-gyro", "--trials", "3"]))
    for name in large_pi:  # after the overflowing weights, for the same reason
        out.append((f"filter_{name}_no-gyro", ["filter", *cfg(name), "--mode", "no-gyro"]))
    for name in [*principal, *axisymmetric]:  # after the large weights, for the same reason
        for mode in MODES:
            out.append((f"filter_{name}_{mode}", ["filter", *cfg(name), "--mode", mode]))
            for trials in (3, 7):
                out.append((f"montecarlo_{name}_{mode}_{trials}",
                            ["montecarlo", *cfg(name), "--mode", mode, "--trials", str(trials)]))
    # After the axisymmetric bodies, for the same reason
    out.append(("propagate_overflow_moment", ["propagate", *cfg("overflow_moment")]))
    for mode in MODES:
        out.append((f"filter_overflow_moment_{mode}", ["filter", *cfg("overflow_moment"), "--mode", mode]))
        out.append((f"montecarlo_overflow_moment_{mode}_3",
                    ["montecarlo", *cfg("overflow_moment"), "--mode", mode, "--trials", "3"]))
    for name in out_of_range:  # after the overflowing moment, for the same reason
        out.append((f"propagate_{name}", ["propagate", *cfg(name)]))
        out.append((f"filter_{name}", ["filter", *cfg(name)]))
        out.append((f"montecarlo_{name}_3", ["montecarlo", *cfg(name), "--trials", "3"]))
    for name in overflowing_state:  # after the out-of-range runs, for the same reason
        out.append((f"propagate_{name}", ["propagate", *cfg(name)]))
        for mode in MODES:
            out.append((f"filter_{name}_{mode}", ["filter", *cfg(name), "--mode", mode]))
            for trials in (1, 3):
                out.append((f"montecarlo_{name}_{mode}_{trials}",
                            ["montecarlo", *cfg(name), "--mode", mode, "--trials", str(trials)]))
    return out


# A number not glued to a word (so the 4 of "rkmk4" is text), and the
# exit-code line of a .stdout file.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
EXIT = re.compile(r"exit -?\d+\n")
# Numbers under this magnitude on both sides are rounding errors of noise-free
# runs, which move by their own size: their last-digit units are not counted.
FLOOR = 1e-12


def _files(root):
    out = set()
    for dirpath, _, names in os.walk(root):
        out.update(os.path.relpath(os.path.join(dirpath, n), root) for n in names)
    return out


def _changes(a, b):
    """(exit line equal, text outside the numbers equal, and the largest
    absolute change, relative change and change in units of the last
    printed digit among the numbers) of two output texts. Units count only
    numbers of magnitude FLOOR or more on either side: the finer of the two
    last digits, exactly, so 9.999999999e-06 to 1.000000000e-05 is 1."""
    exit_a, exit_b = EXIT.match(a), EXIT.match(b)
    same_exit = (exit_a and exit_a.group()) == (exit_b and exit_b.group())
    if NUMBER.split(a) != NUMBER.split(b):
        return same_exit, False, (math.nan, math.nan, math.nan)
    most_abs = most_rel = most_units = 0.0
    for p, q in zip(NUMBER.findall(a), NUMBER.findall(b)):
        x, y = float(p), float(q)
        d = abs(x - y)
        if d:
            most_abs = max(most_abs, d)
            most_rel = max(most_rel, d / max(abs(x), abs(y)))
            if max(abs(x), abs(y)) >= FLOOR:
                dp, dq = decimal.Decimal(p), decimal.Decimal(q)
                unit = min(dp.as_tuple().exponent, dq.as_tuple().exponent)
                most_units = max(most_units, float(abs(dp - dq).scaleb(-unit)))
    return same_exit, True, (most_abs, most_rel, most_units)


def compare(dir_a, dir_b, units=math.inf, abs_bound=math.inf):
    """Print, for each file that differs between two OUTDIRs, whether its
    exit-code line and its text outside the numbers are equal and the
    largest absolute and relative change among its numbers; for a CSV or
    .stdout file, also the largest change in units of the last printed digit
    among its numbers of magnitude FLOOR or more (a number under FLOOR on
    both sides moves by less than 2 FLOOR). Then the largest of each by
    file type. A JSON file over abs_bound, or another file over units, is
    marked OVER BOUND.
    Returns 1 if a file is on one side only, or an exit-code line or the
    text outside the numbers differs, or a file is over its bound, else 0."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    broken = sorted(files_a ^ files_b)
    for name in broken:
        print(f"{name}: only in {dir_a if name in files_a else dir_b}")
    changed, over, most = 0, 0, {}
    for name in sorted(files_a & files_b):
        with open(os.path.join(dir_a, name)) as fa, open(os.path.join(dir_b, name)) as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            continue
        changed += 1
        same_exit, same_text, change = _changes(a, b)
        kind = os.path.splitext(name)[1]
        exit_state = "-" if kind != ".stdout" else "same" if same_exit else "DIFFERS"
        line = (f"{name}: exit {exit_state}, structure {'same' if same_text else 'DIFFERS'}, "
                "max change abs {:.2e}, rel {:.2e}".format(*change))
        if kind == ".json":
            change, beyond = change[:2], change[0] > abs_bound
        else:
            line += f", units {change[2]:.0f}"
            beyond = change[2] > units
        print(line + (" OVER BOUND" if beyond else ""))
        if not (same_exit and same_text):
            broken.append(name)
            continue
        over += beyond
        most[kind] = [max(m, (c, name)) for m, c in zip(most.get(kind, [(0.0, "")] * 3), change)]
    print(f"{changed} of {len(files_a | files_b)} files differ, "
          f"{len(broken)} in exit code, structure or presence, {over} over their bound")
    for kind, ((d_abs, at_abs), (d_rel, at_rel), *rest) in sorted(most.items()):
        text = "".join(f", units {u:.0f} ({at_u})" for u, at_u in rest)
        print(f"{kind}: max change abs {d_abs:.2e} ({at_abs}), rel {d_rel:.2e} ({at_rel}){text}")
    return int(bool(broken) or over > 0)


def main(argv):
    if argv[:1] == ["--compare"]:
        parser = argparse.ArgumentParser(prog="cli_outputs.py --compare")
        parser.add_argument("dir_a")
        parser.add_argument("dir_b")
        parser.add_argument("--units", type=float, default=math.inf,
                            help="bound on a CSV or .stdout number's change, in units of its "
                                 "last printed digit")
        parser.add_argument("--abs", type=float, default=math.inf, dest="abs_bound",
                            help="bound on a JSON number's absolute change")
        return compare(**vars(parser.parse_args(argv[1:])))
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    src, outdir = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, src)
    from attkit import cli

    os.makedirs(os.path.join(outdir, "inputs"), exist_ok=True)
    os.environ.pop("ATTKIT_OUTPUT_DIR", None)
    os.chdir(outdir)  # every path given to the CLI is relative: no output names outdir
    failed = 0
    for k, (label, args) in enumerate(commands("inputs")):
        name = f"{k:03d}_{label}"
        if args[0] in ("propagate", "filter", "montecarlo"):
            args = args + ["--output", name + (".csv" if args[0] != "montecarlo" else ".json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        failed += code != 0
        with open(f"{name}.stdout", "w") as fh:
            fh.write(f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
    print(f"{k + 1} commands, {failed} with a non-zero exit code; outputs in {outdir}")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

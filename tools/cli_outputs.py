"""Write the outputs of a fixed set of 255 attkit CLI commands.

    python tools/cli_outputs.py SRC OUTDIR
    python tools/cli_outputs.py --compare OUTDIR_A OUTDIR_B

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
  come after the determine problems, for the same reason.
"""

from __future__ import annotations

import contextlib
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
    return out


# A number not glued to a word (so the 4 of "rkmk4" is text), and the
# exit-code line of a .stdout file.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
EXIT = re.compile(r"exit -?\d+\n")


def _files(root):
    out = set()
    for dirpath, _, names in os.walk(root):
        out.update(os.path.relpath(os.path.join(dirpath, n), root) for n in names)
    return out


def _changes(a, b):
    """(exit line equal, text outside the numbers equal, and the largest
    absolute and relative change among the numbers) of two output texts."""
    exit_a, exit_b = EXIT.match(a), EXIT.match(b)
    same_exit = (exit_a and exit_a.group()) == (exit_b and exit_b.group())
    if NUMBER.split(a) != NUMBER.split(b):
        return same_exit, False, (math.nan, math.nan)
    most_abs = most_rel = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        d = abs(x - y)
        if d:
            most_abs = max(most_abs, d)
            most_rel = max(most_rel, d / max(abs(x), abs(y)))
    return same_exit, True, (most_abs, most_rel)


def compare(dir_a, dir_b):
    """Print, for each file that differs between two OUTDIRs, whether its
    exit-code line and its text outside the numbers are equal and the
    largest absolute and relative change among its numbers; then the
    largest of each by file type.
    Returns 1 if a file is on one side only, or an exit-code line or the
    text outside the numbers differs, else 0."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    broken = sorted(files_a ^ files_b)
    for name in broken:
        print(f"{name}: only in {dir_a if name in files_a else dir_b}")
    changed, most = 0, {}
    for name in sorted(files_a & files_b):
        with open(os.path.join(dir_a, name)) as fa, open(os.path.join(dir_b, name)) as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            continue
        changed += 1
        same_exit, same_text, change = _changes(a, b)
        exit_state = "-" if not name.endswith(".stdout") else "same" if same_exit else "DIFFERS"
        print(f"{name}: exit {exit_state}, structure {'same' if same_text else 'DIFFERS'}, "
              "max change abs {:.2e}, rel {:.2e}".format(*change))
        if not (same_exit and same_text):
            broken.append(name)
            continue
        kind = os.path.splitext(name)[1]
        most[kind] = [max(m, (c, name)) for m, c in zip(most.get(kind, [(0.0, "")] * 2), change)]
    print(f"{changed} of {len(files_a | files_b)} files differ, "
          f"{len(broken)} in exit code, structure or presence")
    for kind, ((d_abs, at_abs), (d_rel, at_rel)) in sorted(most.items()):
        print(f"{kind}: max change abs {d_abs:.2e} ({at_abs}), rel {d_rel:.2e} ({at_rel})")
    return int(bool(broken))


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(*argv[1:])
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

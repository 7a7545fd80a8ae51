"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed alone, runs one
round of operations at a time, and checks what the program wrote. attkit
receives only the generated inputs; the input generators below are the
benchmark's own and use numpy's PCG64 streams keyed by (seed, stream id).

A workload offers ``ops_per_round``, ``run_op(k)`` (the timed call; it
returns the operations attempted and failed), ``work(k)`` (the units the
throughput counts: problems solved or filter epochs), ``collect(k)``
(untimed bookkeeping after each call) and ``check()`` (untimed, after the
run; returns a list of problems).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import traceback

import numpy as np

import attkit
from attkit import cli, wahba

import checks


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _rotations(rng, n):
    """n uniformly distributed rotations, stacked (QR of Gaussian matrices)."""
    Q, R = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    Q[np.linalg.det(Q) < 0.0, :, 2] *= -1.0
    return Q


def _cone(rng, n, half_angle, axis_frame):
    """n unit vectors in a cone of the given half-angle about the third
    column of axis_frame, with evenly spread azimuths (jittered) so that
    the set is never close to degenerate."""
    z = rng.uniform(math.cos(half_angle), math.cos(0.3 * half_angle), size=n)
    phi = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.0, 0.5, size=n)) / n
    r = np.sqrt(1.0 - z * z)
    return axis_frame @ np.vstack([r * np.cos(phi), r * np.sin(phi), z])


def _quiet_main(argv):
    """attkit's CLI in-process, its stdout notice discarded; returns the
    exit code, or None when it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # counted as a failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# determine

class Determine:
    """About 20k Wahba problems with 4-12 vectors, solved one at a time with
    build_profile then solve_attitude."""

    problems = 20_000
    chunk = 1000  # problems per timed call; the median is over chunks

    block = 2500  # candidates drawn at a time; ill-conditioned ones are dropped

    def __init__(self, seed, workdir):
        rng = _rng(seed, 0)
        self.refs, self.body, self.weights, truth, noise_free = [], [], [], [], []
        while len(self.refs) < self.problems:
            for r, b, w, c, nf in self._draw(rng):
                if len(self.refs) < self.problems:
                    self.refs.append(r)
                    self.body.append(b)
                    self.weights.append(w)
                    truth.append(c)
                    noise_free.append(nf)
        self.truth = np.array(truth)
        self.noise_free = np.array(noise_free)
        self.estimates = np.full((self.problems, 3, 3), np.nan)
        self.ops_per_round = self.problems // self.chunk

    def _draw(self, rng):
        """One block of candidate problems; yields the well-posed ones as
        (refs, body, weights, true attitude, noise-free)."""
        m = self.block
        nvec = rng.integers(4, 13, size=m)
        truth = _rotations(rng, m)
        # Half narrow-field clustered (half-angle 0.15-0.4 rad, evenly spread
        # jittered azimuths), half spread over the sphere.
        half = rng.uniform(0.15, 0.4, size=(m, 1))
        z = rng.uniform(np.cos(half), np.cos(0.3 * half), size=(m, 12))
        phi = 2.0 * np.pi * (np.arange(12) + rng.uniform(0.0, 0.5, size=(m, 12))) / nvec[:, None]
        r = np.sqrt(1.0 - z * z)
        cone = _rotations(rng, m) @ np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        sphere = rng.normal(size=(m, 3, 12))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        refs = np.where((rng.random(m) < 0.5)[:, None, None], cone, sphere)
        # Per-axis noise log-uniform in [1e-4, 1e-2]; a fifth are noise-free.
        sigma = 10.0 ** rng.uniform(-4.0, -2.0, size=m)
        sigma[rng.random(m) < 0.2] = 0.0
        body = np.swapaxes(truth, 1, 2) @ refs
        noisy = body + sigma[:, None, None] * rng.normal(size=(m, 3, 12))
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        body = np.where((sigma > 0.0)[:, None, None], noisy, body)
        weights = rng.uniform(0.2, 2.0, size=(m, 12))

        ok = np.zeros(m, dtype=bool)
        for n in range(4, 13):
            g = nvec == n
            R, B, W = refs[g, :, :n], body[g, :, :n], weights[g, :n]
            L = R @ (W[:, :, None] * np.swapaxes(B, 1, 2))
            sr = np.linalg.svd(R, compute_uv=False)
            sb = np.linalg.svd(B, compute_uv=False)
            sl = np.linalg.svd(L, compute_uv=False)
            # Well-posed with margin: full rank and a positive profile
            # determinant far above attkit's floors.
            ok[g] = ((sr[:, 2] >= 0.05 * sr[:, 0]) & (sb[:, 2] >= 0.05 * sb[:, 0])
                     & (sl[:, 2] >= 3e-3 * sl[:, 0]) & (np.linalg.det(L) > 0.0))
        for i in np.flatnonzero(ok):
            n = nvec[i]
            yield (np.ascontiguousarray(refs[i, :, :n]), np.ascontiguousarray(body[i, :, :n]),
                   np.ascontiguousarray(weights[i, :n]), truth[i], sigma[i] == 0.0)

    def run_op(self, k):
        refs, body, weights, est = self.refs, self.body, self.weights, self.estimates
        failed = 0
        for i in range(k * self.chunk, (k + 1) * self.chunk):
            try:
                est[i], _ = wahba.solve_attitude(
                    wahba.build_profile(refs[i], weights[i], body[i])
                )
            except (attkit.AttKitError, ValueError):
                est[i] = np.nan
                failed += 1
        return self.chunk, failed

    def work(self, k):
        return self.chunk

    def collect(self, k):
        pass

    def check(self):
        profiles = np.array([
            r @ (w[:, None] * b.T) for r, b, w in zip(self.refs, self.body, self.weights)
        ])
        return checks.check_determine(self.estimates, profiles, self.truth, self.noise_free)


# ---------------------------------------------------------------------------
# filter runs

def _scenario(rng, *, n_refs, epochs, dt, h, sigma_vec, sigma_gyro, potential, noise_seed):
    """A filter run configuration (as a dict in attkit's run-file format)
    plus the arrays the checks need."""
    refs = _cone(rng, n_refs, 0.25, _rotations(rng, 1)[0])
    frame = _rotations(rng, 1)[0]
    S = frame @ np.diag(rng.uniform(1.0, 3.0, size=3)) @ frame.T
    S = 0.5 * (S + S.T)
    C0 = _rotations(rng, 1)[0]
    w0 = rng.normal(size=3)
    w0 *= rng.uniform(0.8, 1.5) / np.linalg.norm(w0)
    A = rng.normal(0.0, 0.5, size=(3, 3)) if potential else np.zeros((3, 3))
    pot = {"type": "linear", "coeff": A.ravel().tolist()} if potential else {"type": "zero"}
    config = {
        "schema": 1,
        "scenario": {
            "refs": [row.tolist() for row in refs],
            "inertia": S.ravel().tolist(),
            "potential": pot,
            "init": {"t": 0.0, "attitude": C0.ravel().tolist(), "omega": w0.tolist()},
            "schedule": {"start": dt, "dt": dt, "count": epochs},
            "noise": {"sigma_vec": sigma_vec, "sigma_gyro": sigma_gyro, "seed": noise_seed},
        },
        "integrator": {"step": h, "scheme": "rkmk4"},
        "filter": {"delta": 1.0, "pi": 1.0, "gamma": 1.0, "omega_weight": 1.0},
    }
    arrays = {
        "refs": refs, "S": S, "K": np.trace(S) * np.eye(3) - S, "A": A, "C0": C0, "w0": w0,
        "schedule": dt * np.arange(1, epochs + 1),
    }
    return config, arrays


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read(path):
    with open(path) as fh:
        return fh.read()


class FilterRun:
    """One `attkit filter` run per operation, through cli.main."""

    ops_per_round = 1

    def __init__(self, seed, workdir, *, stream, mode, epochs, sigma_gyro, potential):
        rng = _rng(seed, stream)
        self.mode = mode
        self.epochs = epochs
        self.h = 1e-3
        self.dt = 0.05
        self.sigma_vec = 0.002
        self.sigma_gyro = sigma_gyro
        config, self.arrays = _scenario(
            rng, n_refs=7, epochs=epochs, dt=self.dt, h=self.h, sigma_vec=self.sigma_vec,
            sigma_gyro=sigma_gyro, potential=potential,
            noise_seed=int(rng.integers(0, 2**31)),
        )
        self.config_path = os.path.join(workdir, f"{mode}.json")
        self.output = os.path.join(workdir, f"{mode}.csv")
        _write_json(self.config_path, config)
        self.argv = ["filter", "--config", self.config_path, "--output", self.output,
                     "--mode", mode]
        self.first = None
        self.mismatch = False

    def run_op(self, k):
        return 1, int(_quiet_main(self.argv) != cli.EXIT_OK)

    def work(self, k):
        return self.epochs

    def collect(self, k):
        text = _read(self.output) if os.path.exists(self.output) else ""
        if self.first is None:
            self.first = text
        elif text != self.first:
            self.mismatch = True

    def check(self):
        a = self.arrays
        problems = []
        if self.mismatch:
            problems.append("filter: repeated runs wrote different output")
        # Truth and the noise-free twin run, through the library.
        pot = attkit.linear_potential(a["A"]) if np.any(a["A"]) else attkit.zero_potential()
        scn = attkit.ScenarioSpec(
            refs=a["refs"], inertia=attkit.InertiaSpec(a["S"]), potential=pot,
            init=attkit.BodyState(0.0, a["C0"], checks.hat(a["w0"])), schedule=a["schedule"],
        )
        integ = attkit.IntegratorConfig(step=self.h)
        truth, batches = attkit.simulate_scenario(scn, cfg=integ)
        C = np.array([s.C for s in truth])
        w = np.array([checks.vee(s.Omega) for s in truth])
        C_ref, w_ref = checks.reference_trajectory(a["C0"], a["w0"], a["K"], a["A"], a["schedule"])
        problems += checks.check_truth(C, w, C_ref, w_ref, a["K"], a["A"], a["C0"], a["w0"])
        est = attkit.run_filter(
            None, batches, scn.inertia, scn.potential,
            attkit.FilterConfig(integrator=integ), mode=self.mode.replace("-", "_"),
        )
        problems += checks.check_twin(
            np.array([e.C_minus for e in est]), np.array([e.C_plus for e in est]),
            np.array([checks.vee(e.Omega_minus) for e in est]),
            np.array([checks.vee(e.Omega_plus) for e in est]),
            C_ref, w_ref,
        )
        bounds = checks.noise_bounds(
            a["refs"], self.sigma_vec, self.sigma_gyro,
            float(np.linalg.norm(w_ref, axis=1).max()), self.dt, self.mode,
        )
        problems += checks.check_filter_csv(
            self.first or "", a["schedule"], bounds, a["refs"].shape[1], self.sigma_vec
        )
        return problems


def filter_free(seed, workdir):
    """Free body, no-gyro mode, 400 epochs: the scalar free-body step."""
    return FilterRun(seed, workdir, stream=1, mode="no-gyro", epochs=400,
                     sigma_gyro=0.0, potential=False)


def filter_potential(seed, workdir):
    """Linear potential with gyro noise, with-gyro mode, 100 epochs."""
    return FilterRun(seed, workdir, stream=2, mode="with-gyro", epochs=100,
                     sigma_gyro=0.005, potential=True)


# ---------------------------------------------------------------------------
# montecarlo

class MonteCarlo:
    """The criterion-11 campaign (100 trials x 100 epochs, free body,
    no-gyro, h = 5e-3, sigma_vec = 0.002) through `attkit montecarlo`.
    A round is the campaign at sigma and at sigma / 2 with one master seed,
    which also gives the linearity check."""

    ops_per_round = 2
    trials = 100
    epochs = 100
    sigma = 0.002

    def __init__(self, seed, workdir):
        rng = _rng(seed, 3)
        self.master = int(rng.integers(0, 2**31 - self.trials))
        dt = 0.05
        base = {
            "refs": [row.tolist() for row in _cone(rng, 7, 0.25, _rotations(rng, 1)[0])],
            "inertia": [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0],
            "potential": {"type": "zero"},
            "init": {"t": 0.0, "attitude": _rotations(rng, 1)[0].ravel().tolist(),
                     "omega": [0.8, -0.5, 1.0]},
            "schedule": {"start": dt, "dt": dt, "count": self.epochs},
        }
        self.schedule = dt * np.arange(1, self.epochs + 1)
        self.configs, self.outputs, self.argvs = [], [], []
        for k, sigma in enumerate((self.sigma, 0.5 * self.sigma)):
            cfg = {
                "schema": 1,
                "scenario": dict(base, noise={"sigma_vec": sigma, "sigma_gyro": 0.0,
                                              "seed": self.master}),
                "integrator": {"step": 5e-3, "scheme": "rkmk4"},
                "filter": {"delta": 1.0, "pi": 1.0, "gamma": 1.0, "omega_weight": 1.0},
            }
            path = os.path.join(workdir, f"montecarlo{k}.json")
            out = os.path.join(workdir, f"montecarlo{k}.out.json")
            _write_json(path, cfg)
            self.configs.append(path)
            self.outputs.append(out)
            self.argvs.append(["montecarlo", "--config", path, "--output", out,
                               "--mode", "no-gyro", "--seed", str(self.master),
                               "--trials", str(self.trials)])
        self.workdir = workdir
        self.first = [None, None]
        self.mismatch = False

    def run_op(self, k):
        return 1, int(_quiet_main(self.argvs[k]) != cli.EXIT_OK)

    def work(self, k):
        return self.trials * self.epochs

    def collect(self, k):
        text = _read(self.outputs[k]) if os.path.exists(self.outputs[k]) else ""
        if self.first[k] is None:
            self.first[k] = text
        elif text != self.first[k]:
            self.mismatch = True

    def check(self):
        problems = ["montecarlo: repeated campaigns wrote different output"] if self.mismatch else []
        try:
            full, half = (json.loads(t) for t in self.first)
        except (TypeError, ValueError):
            return problems + ["montecarlo: campaign output is not JSON"]
        for summary in (full, half):
            problems += checks.check_campaign(summary, self.schedule, self.trials, self.master)
        if problems:
            return problems
        problems += checks.check_campaign_scaling(full, half, self.sigma)
        # Trial 0 against a single filter run with the same seed.
        one = os.path.join(self.workdir, "trial0.json")
        csv_path = os.path.join(self.workdir, "trial0.csv")
        argv = ["--config", self.configs[0], "--mode", "no-gyro", "--seed", str(self.master)]
        if (_quiet_main(["montecarlo", *argv, "--trials", "1", "--output", one]) != 0
                or _quiet_main(["filter", *argv, "--output", csv_path]) != 0):
            return problems + ["montecarlo: trial-0 comparison runs failed"]
        problems += checks.check_trial_zero(json.loads(_read(one)), _read(csv_path))
        return problems


WORKLOADS = {
    "determine": Determine,
    "filter_free": filter_free,
    "filter_potential": filter_potential,
    "montecarlo": MonteCarlo,
}

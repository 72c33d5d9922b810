"""Benchmark of faberelast: one workload per invocation.

    python3 benchmarks/run.py --workload figs_cli --seed 1 --seconds 30 --trace 0

A run sets up (imports the package and makes the workload's inputs from
the seed) several times, then runs whole rounds of the workload's
operations until ``--seconds`` have passed.  A round runs the four CLI
subcommands on each of the workload's configs through
``faberelast.cli.main``, and the library operation on each of its cases:
expand the far field, build the table, solve, then probe single points.
Every output is checked after its operation, untimed, against routes
that share no code with the Faber series (see checks.py); an operation
fails when it exits non-zero, raises, or fails a check.

Times are scaled to a reference machine speed (see Clock).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, built from each operation's median time over the
rounds; with ``--trace 1`` untraced and traced rounds alternate and it
holds the per-layer metrics (medians over traced rounds) and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

# one process, one thread: BLAS pools on a small machine add only noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 9
#: seconds the calibration loop takes at the reference speed; every time
#: metric is wall time scaled by REFERENCE_LOOP_S / (time of the loop)
REFERENCE_LOOP_S = 0.005
SAMPLE_PERIOD_S = 0.1
CLI_METRICS = {"solve": "solve_s", "field": "field_s", "validate": "validate_s",
               "faber-table": "faber_table_s"}
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "field_s": "s",
    "validate_s": "s",
    "faber_table_s": "s",
    "solves_per_s": "1/s",
    "probes_per_s": "1/s",
    "peak_mem_mb": "MB",
}


class SetupError(Exception):
    """The checkout lacks the package or the shipped configs."""


def import_package(root: Path):
    """Import faberelast from the checkout's src/, afresh."""
    src = root / "src"
    if not (src / "faberelast" / "__init__.py").is_file():
        raise SetupError(f"no faberelast package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "faberelast" or k.startswith("faberelast.")]:
        del sys.modules[key]
    fe = importlib.import_module("faberelast")
    importlib.import_module("faberelast.cli")
    if Path(fe.__file__).resolve().parent != (src / "faberelast").resolve():
        raise SetupError(f"faberelast was imported from {fe.__file__}, not from {src}")
    return fe


def material(fe, case):
    spec = case.material_spec
    if "lam" in spec:
        return fe.Material.from_lame(spec["lam"], spec["mu"])
    return fe.Material.from_figure_params(spec["alpha1"], spec["kappa"])


def setup(workload: str, seed: int, root: Path, workdir: Path):
    if not (root / "configs").is_dir():
        raise SetupError(f"no configs directory under {root}")
    fe = import_package(root)
    wl = inputs.build(workload, seed, root, workdir)
    for case in wl.lib_cases:
        case.mapping = fe.ExteriorMap(tuple(case.map_coeffs))
        case.material = material(fe, case)
        case.h = inputs.FaberPotential(case.A, case.map_coeffs)
        case.l = inputs.FaberPotential(case.B, case.map_coeffs)
    return fe, wl


class Clock:
    """Wall time scaled to a reference machine speed.

    On a shared host the speed of the machine can change by up to a factor
    of two over seconds, as other tenants come and go.  A short fixed loop
    of interpreter and numpy work measures that speed: it runs just before
    and just after each operation, and every SAMPLE_PERIOD_S during it from
    a timer signal (its time there is taken off the operation's).  The
    operation's time is scaled by REFERENCE_LOOP_S over the mean loop time.
    """

    def __init__(self):
        self._x = np.random.default_rng(0).normal(size=20000)
        self._ints = list(range(2000))
        self._loops = []
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def loop(self) -> float:
        start = time.perf_counter()
        for _ in range(8):
            acc = 0
            for i in self._ints:
                acc += i * i
            table = {i: str(i) for i in self._ints[:500]}
            np.sort(self._x)
            np.exp(1j * self._x[:5000]).sum()
            for _ in range(100):
                np.abs(self._x[:50]).sum()
        del acc, table
        return time.perf_counter() - start

    def now(self) -> float:
        """perf_counter less the time spent in sampling loops so far."""
        return time.perf_counter() - self._spent

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._loops.append(self.loop())
        self._spent += time.perf_counter() - start

    def timed(self, fn, *args, sample: bool = True):
        """Run fn(*args); return its result, its scaled time and its raw
        time.  With ``sample`` false (traced rounds, whose spans would
        include the loop) the loop runs only before and after."""
        self._loops = [self.loop()]
        self._spent = 0.0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            raw = time.perf_counter() - start - self._spent
        self._loops.append(self.loop())
        return result, raw * REFERENCE_LOOP_S / statistics.fmean(self._loops), raw


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


class Runner:
    """Runs rounds of a workload's operations, checks their outputs and
    keeps their scaled times."""

    def __init__(self, fe, wl, workdir: Path, clock: Clock, tracer=None):
        self.fe = fe
        self.wl = wl
        self.workdir = workdir
        self.clock = clock
        self.tracer = tracer
        self.raw = 0.0  # unscaled seconds of the current round
        self.round = 0
        self.digests = {}
        self.mismatched = set()
        self.problems = {}

    def _record(self, key, problems, digest) -> bool:
        """Keep the first problems of an operation; compare its outputs with
        the first round's, as identical inputs must give identical bytes."""
        if problems:
            self.problems.setdefault(key, problems)
            return False
        if self.digests.setdefault(key, digest) != digest:
            self.mismatched.add(key)
        return True

    def _timed(self, fn, *args):
        """Run fn(*args) on the clock; a raise is kept as the result."""
        def guarded():
            try:
                return fn(*args), None
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                return None, exc

        out, elapsed, raw = self.clock.timed(guarded, sample=self.tracer is None)
        self.raw += raw
        return out, elapsed

    def _cli(self, case, command):
        prefix = str(self.workdir / case.name)
        argv = [command, "--config", str(case.config), "--out", prefix]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            (rc, error), elapsed = self._timed(sys.modules["faberelast.cli"].main, argv)
        if error is not None or rc != 0:
            return elapsed, [f"{command} on {case.name}: exit {rc}, {error!r}"]
        if command == "solve":
            problems = checks.check_solve_outputs(case, prefix)
        elif command == "field":
            rng = np.random.default_rng([self.wl.seed, self.round, self.wl.cli_cases.index(case)])
            problems = checks.check_field_outputs(case, prefix, rng)
        elif command == "validate":
            problems = checks.check_validate_output(buf.getvalue())
        else:
            problems = checks.check_faber_outputs(case, prefix)
        return elapsed, [f"{command} on {case.name}: {p}" for p in problems]

    def _outputs_digest(self, case, command):
        names = {"solve": ["_solution.csv", "_summary.txt"], "field": ["_field.csv"],
                 "validate": [], "faber-table": ["_monomial.csv", "_grunsky.csv",
                                                 "_gamma.csv", "_gamma0.csv"]}[command]
        return _digest(*[(self.workdir / (case.name + n)).read_bytes() for n in names])

    def _solve(self, case):
        fe = self.fe
        A = fe.faber_coefficients(case.h, case.mapping, case.degree,
                                  r=inputs.SAMPLE_RADIUS, q=inputs.SAMPLE_NODES)
        B = fe.faber_coefficients(case.l, case.mapping, case.degree,
                                  r=inputs.SAMPLE_RADIUS, q=inputs.SAMPLE_NODES)
        loading = fe.FarFieldLoading(A, B)
        table = fe.build_faber(case.mapping, fe.required_table_order(case.mapping, case.n))
        sol = fe.solve_full(case.mapping, loading, case.material, case.n, table=table)
        return loading, table, sol

    def _probe(self, case, loading, table, sol):
        """The probes, and the unscaled time of each."""
        samples, raw = [], []
        for w in case.probes:
            start = self.clock.now()
            samples.append(self.fe.displacement(sol, table, case.mapping, case.material,
                                                loading, w))
            raw.append(self.clock.now() - start)
        return samples, raw

    def _library(self, case):
        """One sweep operation: (solve time, probe times, digest, problems)."""
        solve = self._solve
        if self.tracer is not None:
            solve = functools.partial(self.tracer.span, "library", self._solve)
        (solved, error), t_solve = self._timed(solve, case)
        if error is None:
            (probed, error), t_probe = self._timed(self._probe, case, *solved)
        if error is not None:
            return t_solve, [], None, [f"library op on {case.name} raised {error!r}"]
        samples, raw = probed
        t_probes = [t * t_probe / sum(raw) for t in raw]
        sol = solved[2]
        dens = checks.Density(case, sol.s, sol.t)
        problems = checks.check_solution(case, dens, (sol.c1, sol.c2, sol.c3))
        problems += checks.check_probes(case, dens, samples)
        digest = _digest(sol.s, sol.t, np.array([sol.c1, sol.c2, sol.c3]),
                         np.array([[s.u0, s.S, s.u] for s in samples]))
        return t_solve, t_probes, digest, [f"library op on {case.name}: {p}" for p in problems]

    def run_round(self) -> dict:
        """One whole round: the time of each operation, and the counts."""
        times = {}
        attempted = failed = 0
        self.raw = 0.0
        for case in self.wl.cli_cases:
            for stale in self.workdir.glob(case.name + "_*"):  # last round's outputs
                stale.unlink()
            for command in CLI_METRICS:
                times[case.name, command], problems = self._cli(case, command)
                digest = None if problems else self._outputs_digest(case, command)
                attempted += 1
                failed += not self._record((case.name, command), problems, digest)
        probes = {}
        for case in self.wl.lib_cases:
            times[case.name, "library"], probes[case.name], digest, problems = self._library(case)
            attempted += 1
            failed += not self._record((case.name, "library"), problems, digest)
        self.round += 1
        return {"times": times, "probes": probes, "attempted": attempted, "failed": failed,
                "work": sum(times.values()) + sum(map(sum, probes.values())), "raw": self.raw}


def typical(values) -> float:
    """The typical time of an operation over a run's rounds (see README)."""
    return float(statistics.median(values))


def end_to_end(wl, rounds: list) -> dict:
    """End-to-end metrics from the per-operation times of the rounds."""
    def op(name, kind):
        return typical([r["times"][name, kind] for r in rounds])

    out = {metric: sum(op(case.name, command) for case in wl.cli_cases)
           for command, metric in CLI_METRICS.items()}
    cases = wl.lib_cases
    out["solves_per_s"] = len(cases) / sum(op(case.name, "library") for case in cases)
    # one probe of a case costs the same wherever it lands: pool its probes;
    # a case whose operation raised in every round has none and is left out
    pooled = [[t for r in rounds for t in r["probes"][case.name]] for case in cases]
    probe = [typical(ts) for ts in pooled if ts]
    out["probes_per_s"] = len(probe) / sum(probe) if probe else 0.0
    return out


def run(args, root: Path, workdir: Path) -> dict:
    clock = Clock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        (fe, wl), elapsed, _ = clock.timed(setup, args.workload, args.seed, root, workdir)
        setup_times.append(elapsed)

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(fe, wl, workdir, clock)
    rounds, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        runner.tracer = None
        rounds.append(runner.run_round())
        if tracer is not None:
            tracer.install()
            runner.tracer = tracer
            try:
                rec = runner.run_round()
            finally:
                tracer.uninstall()
            # spans are raw seconds: bring them to the round's mean scale
            rec["layers"] = tracer.round_metrics(rec["work"] / rec["raw"])
            traced.append(rec)

    all_rounds = rounds + traced
    for key, problems in runner.problems.items():
        print(f"failed {key[0]} {key[1]}: {'; '.join(problems)}", file=sys.stderr)
    if runner.mismatched:
        print(f"outputs differ between rounds: {sorted(runner.mismatched)}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(wl, rounds)
        metrics["setup_s"] = typical(setup_times)
        metrics["peak_mem_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        values = {}
        for name in traced[0]["layers"]:
            unit = "MB" if name.endswith("_mb") else "s" if name.endswith("_s") else "count"
            values[name] = {"value": typical([r["layers"][name] for r in traced]), "unit": unit}
        overhead = typical([r["work"] for r in traced]) - typical([r["work"] for r in rounds])
        values["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {
        "correct": not runner.mismatched,
        "attempted": sum(r["attempted"] for r in all_rounds),
        "failed": sum(r["failed"] for r in all_rounds),
        "metrics": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, root, workdir)
    except SetupError as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

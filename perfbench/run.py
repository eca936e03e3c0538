"""Benchmark of the ``bernstein-lab`` CLI: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the workload runs the CLI as users run it: a fresh
``python -m bernstein_lab.cli`` process against the checkout's ``src``, one
process at a time from this single driver (a closed loop with one client).
Rounds of the whole invocation list repeat while the next round is expected
to end within ``--seconds``; every output is checked by ``check.py``, which
does not share the measured code path.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are normalized to machine speed.  On a shared host the same process
can run up to twice as slowly while a neighbour on the same physical core is
busy, and CPU time slows with wall time, so raw medians wander by a quarter
between runs.  While a child runs, a ``speed_probe`` thread times a fixed
pure-Python loop every ``PROBE_PERIOD_S``; its time follows the child's to
a correlation of about 0.9.  Each child's wall time is scaled by
``PROBE_REF_S`` over the median loop time during it, which gives seconds on
a machine that runs the loop in ``PROBE_REF_S``.  Raw times are printed too.

``--trace 0`` reports the end-to-end metrics:

* ``wall_norm_s``: normalized wall time of one round, summed over the
  invocations, each invocation's time its median over the run's rounds;
* ``setup_s``: fresh interpreter to ``import bernstein_lab.cli`` returning,
  normalized, median of ``SETUP_REPEATS``;
* ``peak_rss_mb``: largest child ``ru_maxrss`` among the invocations;
* ``ok_frac``: invocations whose output passed the check, over attempted.

``--trace 1`` alternates untraced rounds with rounds run through
``trace_cli.py`` and reports the per-layer metrics listed in
``BENCHMARK.json``: self time, calls and work counts per layer (medians over
the traced rounds), counters read from the CLI's own output, and
``trace.overhead_s`` (traced minus untraced ``wall_norm_s``).

After measuring, the gate is self-tested: corrupted copies of the first
round's correct outputs must each be flagged by the checker.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
# Probe loop time on an unloaded 2-vCPU Xeon at 2.1 GHz (Python 3.11.7).
PROBE_REF_S = 1.18e-3
PROBE_PERIOD_S = 0.025
# One BLAS/OpenMP thread per child: invocations run one at a time, and a
# fixed thread count keeps rounds comparable between machines.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _probe_loop():
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - start


@contextlib.contextmanager
def speed_probe():
    """Time a fixed pure-Python loop every ``PROBE_PERIOD_S`` in a thread.

    Yields the list the loop times are appended to until the block ends.
    The loop never touches the package, so a change to the package cannot
    move it.
    """
    samples, stop = [], threading.Event()

    def run():
        while not stop.is_set():
            samples.append(_probe_loop())
            stop.wait(PROBE_PERIOD_S)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield samples
    finally:
        stop.set()
        thread.join()
        if not samples:     # the block ended before the first sample
            samples.append(_probe_loop())


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    # Children keep the bytecode cache in the checkout, as an installed
    # package does, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run_child(argv, cwd, env, stdout_path):
    """Run one process to completion.

    Returns (exit code, wall s, maxrss KiB, probe loop times during it).
    The child is reaped with ``wait4`` so that its own resource usage is
    read; a timer kills it if it outlives ``CHILD_TIMEOUT_S``.
    """
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err, \
            speed_probe() as samples:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise TimeoutError(f"{argv[1:3]} ran longer than {CHILD_TIMEOUT_S} s")
    return proc.returncode, wall, usage.ru_maxrss, samples


def _scale(samples):
    """Factor from wall time to seconds on the reference machine."""
    return PROBE_REF_S / statistics.median(samples)


def measure_setup(env, workdir):
    """Normalized and raw medians, fresh interpreter to the CLI imported.

    An import is too short for a steady probe median of its own, so the
    probe samples of all imports are pooled.
    """
    argv = [sys.executable, "-c", "import bernstein_lab.cli"]
    # The first import compiles bytecode, which users pay once: not timed.
    _run_child(argv, workdir, env, workdir / "setup.out")
    walls, samples = [], []
    for _ in range(SETUP_REPEATS):
        rc, wall, _, during = _run_child(argv, workdir, env,
                                         workdir / "setup.out")
        if rc != 0:
            raise RuntimeError("importing bernstein_lab.cli failed")
        walls.append(wall)
        samples += during
    raw = statistics.median(walls)
    return raw * _scale(samples), raw


class Runner:
    """Runs rounds of one workload's invocations and keeps every measure."""

    def __init__(self, invocations, workdir, env):
        self.invocations = invocations
        self.workdir = workdir
        self.env = env
        self.attempted = 0
        self.failed = []
        self.verdicts = {}
        self.first_results = []
        self.rounds = {False: [], True: []}

    def _argv(self, i, inv, traced):
        if traced:
            spans = self.workdir / f"inv{i}.spans.json"
            return [sys.executable, str(HERE / "trace_cli.py"), str(spans),
                    str(i), "--", *inv.argv]
        return [sys.executable, "-m", "bernstein_lab.cli", *inv.argv]

    def _check(self, i, inv, res):
        from check import problems

        key = hashlib.sha256(repr((i, res.returncode, res.stdout, res.stderr,
                                   sorted(res.files.items())))
                             .encode()).hexdigest()
        if key not in self.verdicts:    # reruns are byte-identical
            self.verdicts[key] = problems(inv, res)
        self.attempted += 1
        if self.verdicts[key]:
            self.failed.append((inv.label, self.verdicts[key]))
        return self.verdicts[key]

    def round(self, traced):
        from check import Result

        walls, norm, probes, rss = [], [], [], []
        results, spans, checked = [], [], []
        for i, inv in enumerate(self.invocations):
            for name in inv.outputs:
                (self.workdir / name).unlink(missing_ok=True)
            out = self.workdir / f"inv{i}.out"
            rc, wall, maxrss, samples = _run_child(
                self._argv(i, inv, traced), self.workdir, self.env, out)
            walls.append(wall)
            norm.append(wall * _scale(samples))
            probes.append(statistics.median(samples))
            rss.append(maxrss)
            res = Result(
                returncode=rc,
                stdout=out.read_text(),
                stderr=out.with_suffix(".err").read_text(),
                files={name: (self.workdir / name).read_text()
                       for name in inv.outputs
                       if (self.workdir / name).exists()})
            checked.append((inv, res, self._check(i, inv, res)))
            results.append(res)
            if traced:
                spans.append(json.loads(
                    (self.workdir / f"inv{i}.spans.json").read_text()))
        if not self.first_results:
            self.first_results = checked
        self.rounds[traced].append({
            "walls": walls, "probes": probes, "norm": norm, "rss_kib": rss,
            "results": results, "spans": spans})

    def wall(self, traced, key="norm"):
        """Sum over invocations of each one's median time over rounds."""
        rounds = self.rounds[traced]
        return sum(statistics.median(r[key][i] for r in rounds)
                   for i in range(len(self.invocations)))


def run_rounds(runner, seconds, trace):
    """Repeat rounds while the next one is expected to end within the run."""
    start = time.perf_counter()
    plan = [False, True] if trace else [False]
    count = 0
    while True:
        runner.round(plan[count % len(plan)])
        count += 1
        elapsed = time.perf_counter() - start
        if count >= len(plan) and elapsed * (count + 1) / count > seconds:
            return count


def end_to_end(runner, setup_s):
    ok = 1.0 - len(runner.failed) / runner.attempted
    rss = max(max(r["rss_kib"]) for r in runner.rounds[False])
    return {
        "wall_norm_s": (runner.wall(False), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
        "ok_frac": (ok, "ratio"),
    }


def _output_counters(runner):
    """Deterministic counters read from the CLI's own output (one round)."""
    counts = dict.fromkeys(
        ("rotations.evals", "rotations.evals_to_best",
         "optimal_region.region_scan.nodes", "verification.nodes",
         "verification.excluded", "cli.out_bytes"), 0)
    margins = []
    for inv, res, found in runner.first_results:
        if found:       # a failed output need not have the fields read here
            continue
        counts["cli.out_bytes"] += len(res.stdout.encode()) + sum(
            len(t.encode()) for t in res.files.values())
        if inv.command == "rotate":
            out = json.loads(res.stdout)["results"]
            counts["rotations.evals"] += out["evaluations"]
            counts["rotations.evals_to_best"] += out["objective_trace"][-1][0]
            margins.append(out["report"]["margin"])
        elif inv.command == "region":
            counts["optimal_region.region_scan.nodes"] += (
                len(res.stdout.splitlines()) - 3)
        elif inv.command == "verify":
            for stats in json.loads(res.stdout)["results"]:
                counts["verification.nodes"] += stats["nodes"]
                counts["verification.excluded"] += stats["excluded"]
    evals = counts["rotations.evals"]
    counts["rotations.useful_frac"] = (
        counts["rotations.evals_to_best"] / evals if evals else 0.0)
    counts["rotations.search_margin"] = (
        statistics.fmean(margins) if margins else 0.0)
    return counts


def per_layer(runner, spec):
    from trace_cli import self_times

    per_round = []
    for rnd in runner.rounds[True]:
        merged = {}
        for doc in rnd["spans"]:
            for layer, agg in self_times(doc).items():
                tot = merged.setdefault(layer, dict.fromkeys(agg, 0))
                for key, value in agg.items():
                    tot[key] += value
        per_round.append(merged)
    counters = _output_counters(runner)
    counters["trace.overhead_s"] = runner.wall(True) - runner.wall(False)
    out = {}
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        if name in counters:
            value = counters[name]
        else:
            layer, _, field = name.rpartition(".")
            key = {"matrices": "work", "nodes": "work"}.get(field, field)
            value = statistics.median(r.get(layer, {}).get(key, 0)
                                      for r in per_round)
        out[name] = (value, unit)
    return out


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(args, runner, setup_raw, selftest, metrics):
    import numpy

    tried, missed = selftest
    counts = {t: len(r) for t, r in runner.rounds.items()}
    print(f"# workload {args.workload} seed {args.seed}: {counts[False]} "
          f"untraced and {counts[True]} traced rounds of "
          f"{len(runner.invocations)} invocations")
    print(f"# python {platform.python_version()} numpy {numpy.__version__} "
          f"{platform.machine()} {os.cpu_count()} cpus, "
          + " ".join(f"{v}=1" for v in THREAD_VARS))
    for traced, rounds in runner.rounds.items():
        for r in rounds:
            print(f"# round traced={int(traced)} raw walls "
                  + " ".join(f"{w:.3f}" for w in r["walls"]) + " probes "
                  + " ".join(f"{1e3 * p:.3f}ms" for p in r["probes"]))
    print(f"# raw medians: round wall {runner.wall(False, 'walls'):.3f} s, "
          f"setup {setup_raw:.4f} s (of {SETUP_REPEATS})")
    for label, found in runner.failed[:10]:
        print(f"# FAILED {label}: {'; '.join(found)}")
    print(f"# gate self-test: {tried - len(missed)}/{tried} corrupted "
          "outputs flagged" + "".join(f"\n# MISSED {m}" for m in missed))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.failed and not missed and tried > 0,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "bernstein_lab" / "cli.py").is_file():
        print(f"error: no bernstein_lab sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads
    from check import gate_selftest

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    try:
        env = _child_env()
        invocations = workloads.generate(args.workload, args.seed, workdir)
        setup_s, setup_raw = measure_setup(env, workdir)
        runner = Runner(invocations, workdir, env)
        run_rounds(runner, args.seconds, bool(args.trace))
        selftest = gate_selftest(
            (inv, res) for inv, res, found in runner.first_results
            if not found)
        if args.trace:
            metrics = per_layer(runner, spec["per_layer"])
        else:
            metrics = end_to_end(runner, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.rmdir()
    _report(args, runner, setup_raw, selftest, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

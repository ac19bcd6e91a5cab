"""The demod benchmark; README.md describes the workloads and metrics.

    python3 perfbench/run.py --workload search|narrow|check --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 9

sys.path.insert(0, HERE)
from oracle import judge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "speed_vs_base": "ratio", "job_ratio_p50": "ratio",
    "tail_ratio": "ratio", "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def import_demod():
    """demod from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, SRC)
    import demod
    import demod.cli
    if not os.path.abspath(demod.__file__).startswith(SRC + os.sep):
        raise ImportError(f"demod imported from {demod.__file__}, "
                          f"not from {SRC}")
    return demod


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def build_pass(workload: str, seed: int, index: int, directory: str):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    return WORKLOADS[workload].build(pass_rng(workload, seed, index),
                                     os.path.relpath(directory, ROOT))


def environment() -> dict:
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                ref = f.read().strip()
        sha = ref
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "loadavg": os.getloadavg(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# Running and judging jobs

class Tally:
    """Judged outcomes of every job run, and the failures by kind."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.failures: dict[str, int] = {}
        self.by_family: dict[str, list[int]] = {}

    def record(self, job, ok: bool, wrong: bool, detail: str) -> None:
        self.attempted += 1
        fam = self.by_family.setdefault(job.family, [0, 0])
        fam[0] += 1
        if ok:
            return
        fam[1] += 1
        self.failed += 1
        self.wrong += wrong
        key = f"{job.family} {_short(job.argv)}: {detail}"
        self.failures[key] = self.failures.get(key, 0) + 1


def _short(argv) -> str:
    return " ".join(a if len(a) <= 40 else a[:37] + "..." for a in argv)


def _raiser(exc: BaseException) -> str:
    """The exception type and the innermost public function it left."""
    frames = traceback.extract_tb(exc.__traceback__)
    last = next((f for f in reversed(frames)
                 if not f.name.startswith(("_", "<"))), frames[-1])
    path = os.path.relpath(last.filename, SRC)
    module = path[:-3].replace(os.sep, ".") if path.endswith(".py") else path
    return f"{type(exc).__name__} in {module}.{last.name}"


def run_job(job, call, tally: Tally) -> tuple[float, bool]:
    """Run and judge one job through ``call(argv)``; return the CPU time
    it took and whether an exception escaped."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(list(job.argv))
    except (Exception, SystemExit) as e:   # a crash is a failed job
        exc = e
    seconds = time.process_time() - t0
    if exc is not None:
        tally.record(job, False, False, _raiser(exc))
    else:
        o = judge(job.expect, rc, out.getvalue())
        tally.record(job, o.ok, o.wrong, o.detail)
    return seconds, exc is not None


def run_jobs(jobs, call, tally: Tally) -> list[float]:
    """Run each job once through ``call(index, argv)``; return CPU times."""
    return [run_job(job, lambda argv, i=i: call(i, argv), tally)[0]
            for i, job in enumerate(jobs)]


def untraced(demod):
    main = demod.cli.main
    return lambda i, argv: main(argv)


class Baseline:
    """The frozen baseline, ``refdemod``, in a child process on the same
    CPU.  ``start`` hands it a job, which it runs while this process runs
    the same job on demod; both share the CPU in slices of a few
    milliseconds and so see the same host speed.  Its output is not
    judged.  Running it apart keeps this process's peak memory demod's
    own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--baseline-server"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("the baseline process did not start")

    def start(self, argv) -> None:
        self.proc.stdin.write(json.dumps(list(argv)) + "\n")
        self.proc.stdin.flush()

    def result(self) -> tuple[float, bool]:
        """CPU time of the started job, and whether it raised."""
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the baseline process ended early")
        seconds, raised = json.loads(reply)
        return seconds, raised

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def baseline_server() -> int:
    """Serve ``Baseline``: one JSON argv per input line, one JSON
    ``[cpu seconds, raised]`` per output line."""
    import refdemod.cli
    main = refdemod.cli.main
    print("ready", flush=True)
    for line in sys.stdin:
        argv = json.loads(line)
        raised = False
        t0 = time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
        except (Exception, SystemExit):
            raised = True
        print(json.dumps([time.process_time() - t0, raised]), flush=True)
    return 0


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that demod and
    the baseline share it.  Returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# Modes

class SetupProbe:
    """Times fresh interpreters that import demod and write the pass-0
    inputs, then exit.  ``due`` starts one whenever another
    1/SETUP_RUNS of the run has passed, so the samples spread over the
    host's speed phases instead of sharing the first one."""

    def __init__(self, workload: str, seed: int, run_dir: str,
                 seconds: float):
        self.argv = [sys.executable, os.path.join(HERE, "run.py"),
                     "--setup-probe", "--workload", workload,
                     "--seed", str(seed), "--dir"]
        self.run_dir = run_dir
        self.interval = seconds / SETUP_RUNS
        self.next = 0.0
        self.times: list[float] = []

    def due(self) -> None:
        if time.perf_counter() < self.next:
            return
        directory = os.path.join(self.run_dir, f"setup{len(self.times)}")
        t0 = time.perf_counter()
        subprocess.run(self.argv + [directory], check=True, cwd=ROOT,
                       stdin=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)
        shutil.rmtree(directory, ignore_errors=True)
        self.next = time.perf_counter() + self.interval


def timed_run(demod, baseline, workload, seed, seconds, run_dir, tally,
              probe):
    """Pairs (demod CPU seconds, baseline CPU seconds, comparable) of every
    job, one list per pass.  A pair is comparable when neither side
    raised.  Passes repeat while the next one is projected to end within
    ``seconds``.  Set-up probes run between jobs.
    """
    main = demod.cli.main
    passes: list[list[tuple[float, float, bool]]] = []
    start = time.perf_counter()
    while True:
        jobs = build_pass(workload, seed, len(passes),
                          os.path.join(run_dir, "pass"))
        gc.collect()
        t0 = time.perf_counter()
        pairs = []
        for job in jobs:
            probe.due()
            baseline.start(job.argv)
            demod_s, raised = run_job(job, main, tally)
            base_s, base_raised = baseline.result()
            pairs.append((demod_s, base_s, not (raised or base_raised)))
        passes.append(pairs)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return passes


def traced_run(demod, workload, seed, run_dir, tally):
    """Trace pass 0 first, so the counts are those of a fresh process,
    then run pass 1 (same slots and sizes, new names) untraced for the
    tracing overhead."""
    from layertrace import Tracer
    directory = os.path.join(run_dir, "pass")
    tracer = Tracer()
    tracer.install(demod)
    try:
        jobs = build_pass(workload, seed, 0, directory)
        gc.collect()
        traced = run_jobs(jobs, tracer.call_root, tally)
    finally:
        tracer.uninstall()
    jobs = build_pass(workload, seed, 1, directory)
    gc.collect()
    plain = run_jobs(jobs, untraced(demod), tally)
    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"trace-{workload}-seed{seed}.spans")
    tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    metrics["trace.jobs_per_s_ratio"] = sum(plain) / sum(traced)
    metrics["trace.calls"] = tracer.calls()
    return metrics, spans_path


def smoke(demod, seed: int) -> int:
    """One job per family of every workload, with its oracle."""
    tally = Tally()
    t0 = time.perf_counter()
    run_dir = os.path.join(WORK, f"smoke-{os.getpid()}")
    try:
        for name in WORKLOADS:
            jobs = build_pass(name, seed, 0, os.path.join(run_dir, name))
            first = {}
            for job in jobs:
                first.setdefault(job.family, job)
            before = tally.failed
            run_jobs(list(first.values()), untraced(demod), tally)
            print(f"smoke {name}: {len(first)} families, "
                  f"{tally.failed - before} failed")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for key, n in sorted(tally.failures.items()):
        print(f"failed x{n}: {key}")
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {"smoke_s": {"value": time.perf_counter() - t0,
                                "unit": "s"}}}))
    return 0 if tally.failed == 0 else 1


def report(workload, tally, metrics: dict, units: dict, env, extra=()):
    wl = WORKLOADS[workload]
    print(f"env: {json.dumps(env)}")
    print(f"workload {workload}: {wl.why}")
    for fam, why in wl.families.items():
        n, bad = tally.by_family.get(fam, (0, 0))
        print(f"  family {fam}: {n} jobs, {bad} failed - {why}")
    for key, n in sorted(tally.failures.items()):
        print(f"failed x{n}: {key}")
    print(f"failed_frac: {tally.failed / max(tally.attempted, 1):.4f} "
          f"({tally.failed}/{tally.attempted})")
    for line in extra:
        print(line)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


def cpu_line(name: str, times: list[float]) -> str:
    p90 = statistics.quantiles(times, n=10)[8]
    return (f"{name} CPU time: jobs_per_s = {len(times) / sum(times):.4f}, "
            f"job_ms_p50 = {statistics.median(times) * 1000:.4f}, "
            f"job_ms_p90 = {p90 * 1000:.4f}, "
            f"beyond p90: {sum(t > p90 for t in times)}")


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_reduction")):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    ap.add_argument("--baseline-server", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.baseline_server:
        return baseline_server()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "demod", "__init__.py")):
        print(f"error: no demod sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_probe:
        import_demod()
        build_pass(args.workload, args.seed, 0, args.dir)
        return 0

    env = environment()
    demod = import_demod()
    if args.smoke:
        return smoke(demod, args.seed)
    env["cpu"] = pin_to_one_cpu()

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    tally = Tally()
    try:
        if args.trace:
            metrics, spans_path = traced_run(demod, args.workload, args.seed,
                                             run_dir, tally)
            units = {k: per_layer_unit(k) for k in metrics}
            report(args.workload, tally, metrics, units, env,
                   [f"spans written to {os.path.relpath(spans_path, ROOT)}"])
            return 0
        baseline = Baseline()
        try:
            probe = SetupProbe(args.workload, args.seed, run_dir,
                               args.seconds)
            passes = timed_run(demod, baseline, args.workload, args.seed,
                               args.seconds, run_dir, tally, probe)
        finally:
            baseline.close()
        setup_s = statistics.median(probe.times)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    times_path = os.path.join(WORK,
                              f"times-{args.workload}-seed{args.seed}.json")
    with open(times_path, "w") as f:
        json.dump(passes, f)
    pairs = [pair for p in passes for pair in p]
    times = [d for d, _, _ in pairs]
    base = [b for _, b, _ in pairs]
    kept = [(d, b) for d, b, ok in pairs if ok]
    base_p90 = statistics.quantiles([b for _, b in kept], n=10)[8]
    tail = [(d, b) for d, b in kept if b >= base_p90]
    metrics = {
        "setup_s": setup_s,
        "speed_vs_base": sum(b for _, b in kept) / sum(d for d, _ in kept),
        "job_ratio_p50": statistics.median(d / b for d, b in kept),
        "tail_ratio": sum(d for d, _ in tail) / sum(b for _, b in tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    report(args.workload, tally, metrics, END_TO_END_UNITS, env,
           [f"passes: {len(passes)}, "
            f"samples: {len(times)}, pairs left out of the ratios because "
            f"a side raised: {len(pairs) - len(kept)}, "
            f"pairs in tail_ratio: {len(tail)}"]
           + [cpu_line("demod", times), cpu_line("baseline", base)]
           + ["per pass, summed job CPU seconds on demod / baseline: "
              + " ".join(f"{sum(d for d, _, _ in p):.3f}/"
                         f"{sum(b for _, b, _ in p):.3f}" for p in passes),
              f"job times written to {os.path.relpath(times_path, ROOT)}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

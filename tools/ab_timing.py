"""Time two checkouts of demod against each other, job by job, in one
process.

    python3 tools/ab_timing.py A B WORKLOAD [--seed N] [--pass I] [-k K]
        [--counts]

A and B are checkout roots.  Their ``src/demod`` packages are loaded
under the names ``demod_a`` and ``demod_b``.  One pass of WORKLOAD
(search, narrow or check), built by ``perfbench/run.py``'s
``build_pass`` from this checkout, is run through both ``cli.main``:
each job K times on each side, the sides alternating, with the garbage
collector off inside a job.  Each side keeps its least CPU time per
job.  The report gives, per family and in total, the summed times and
the ratio B/A (below 1 means B is faster), and whether the two sides
printed the same on every job.  With ``--counts`` it then runs the
pass once more on each side under ``perfbench/layertrace.py``'s
``Tracer``, each side's builtins built afresh as in a new process, and
prints every per-layer count of both sides (steps, calls, nodes) and
whether they agree.  Exit status 1 means some output, or some count,
differed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py)
from layertrace import Tracer  # noqa: E402


def load(checkout: str, name: str):
    """The ``src/demod`` package of a checkout, imported as ``name``."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "demod")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def timed(main, argv) -> tuple[float, str]:
    """CPU seconds of one call, with the GC off, and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.disable()
    t0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = f"exit {main(list(argv))}"
    except (Exception, SystemExit) as e:   # compared, not hidden
        status = f"raised {type(e).__name__}: {e}"
    finally:
        seconds = time.process_time() - t0
        gc.enable()
    return seconds, f"{status}\n{out.getvalue()}\n{err.getvalue()}"


def traced_counts(cli, argvs) -> dict[str, float]:
    """The count metrics of one traced pass through a side's ``cli``.
    The side's builtin memo is cleared first, so each builtin is built,
    and validated, in the pass, as it is in a fresh process."""
    package = sys.modules[cli.__package__]
    package.theories._built.clear()
    tracer = Tracer()
    tracer.install(package)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for i, argv in enumerate(argvs):
                tracer.call_root(i, list(argv))
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.metrics().items()
            if run.per_layer_unit(k) == "count"}


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("workload", choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pass", dest="index", type=int, default=0)
    ap.add_argument("-k", type=int, default=7, help="runs per job and side")
    ap.add_argument("--counts", action="store_true",
                    help="also compare the work counts of one traced pass")
    args = ap.parse_args(argv)
    clis = (load(args.a, "demod_a"), load(args.b, "demod_b"))
    sides = tuple(cli.main for cli in clis)
    os.chdir(ROOT)   # build_pass names its files relative to the root
    directory = os.path.join(run.WORK, f"ab-timing-{os.getpid()}")
    families: dict[str, list[float]] = {}
    differ = 0
    try:
        jobs = run.build_pass(args.workload, args.seed, args.index, directory)
        for job in jobs:
            best = [float("inf"), float("inf")]
            printed = [None, None]
            for r in range(args.k):
                for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                    seconds, text = timed(sides[side], job.argv)
                    best[side] = min(best[side], seconds)
                    printed[side] = printed[side] or text
            differ += printed[0] != printed[1]
            fam = families.setdefault(job.family, [0, 0.0, 0.0])
            fam[0] += 1
            fam[1] += best[0]
            fam[2] += best[1]
        counts = [traced_counts(cli, [job.argv for job in jobs])
                  for cli in clis] if args.counts else None
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"{args.workload} seed {args.seed} pass {args.index}, "
          f"min of {args.k} CPU times per job; ratio = B/A")
    total = [0, 0.0, 0.0]
    for name, (n, a, b) in families.items():
        print(f"  {name:<24} {n:4d} jobs  A {a:8.4f} s  B {b:8.4f} s  "
              f"ratio {b / a:.3f}")
        total = [total[0] + n, total[1] + a, total[2] + b]
    n, a, b = total
    print(f"  {'total':<24} {n:4d} jobs  A {a:8.4f} s  B {b:8.4f} s  "
          f"ratio {b / a:.3f}")
    print(f"outputs agree: {'yes' if differ == 0 else f'no, {differ} jobs differ'}")
    if counts is None:
        return 1 if differ else 0
    a, b = counts
    print(f"work counts of one traced pass:  {'A':>10}  {'B':>10}")
    for key in sorted(a):
        mark = "" if a[key] == b[key] else "   differs"
        print(f"  {key:<30} {a[key]:>10}  {b[key]:>10}{mark}")
    changed = sum(a[key] != b[key] for key in a)
    print(f"counts agree: {'yes' if not changed else f'no, {changed} differ'}")
    return 1 if differ or changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

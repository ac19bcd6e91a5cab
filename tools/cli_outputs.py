"""Record what ``demod.cli.main`` prints for every job of the usual
benchmark passes, so that two checkouts compare with ``diff``.

    python3 tools/cli_outputs.py OUT

The passes are (seed 1, pass 0) and (seed 2, pass 1) of the search,
narrow and check workloads, built by ``perfbench/run.py``'s
``build_pass`` and run in this process, one after the other, as the
benchmark runs them.  For each job OUT gets its argv (paths relative to
the inputs directory), its exit code, its stdout and its stderr.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("search", "narrow", "check")
PASSES = ((1, 0), (2, 1))   # (seed, pass index)


def record(main, argv, prefix: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = f"exit {main(list(argv))}"
        except (Exception, SystemExit) as e:   # recorded, not hidden
            status = f"raised {type(e).__name__}: {e}"
    shown = " ".join(a.replace(prefix, "") for a in argv)
    return (f"argv: {shown}\n{status}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_path = os.path.abspath(argv[0])
    os.chdir(ROOT)   # build_pass names its files relative to the root
    demod = run.import_demod()
    directory = os.path.join(run.WORK, f"cli-outputs-{os.getpid()}")
    prefix = os.path.relpath(directory, ROOT) + os.sep
    jobs = 0
    try:
        with open(out_path, "w") as f:
            for workload in WORKLOADS:
                for seed, index in PASSES:
                    for job in run.build_pass(workload, seed, index,
                                              directory):
                        f.write(f"=== {workload} seed {seed} pass {index}\n")
                        f.write(record(demod.cli.main, job.argv, prefix))
                        jobs += 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"{jobs} jobs written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

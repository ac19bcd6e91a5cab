"""The benchmark's smoke mode: one job per family of every workload,
judged by its oracle.  And the work counters of one traced pass."""

import contextlib
import io
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_smoke():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def test_traced_search_pass_work(tmp_path):
    # Pass 0 of seed 1 of the search workload.  The search trees are
    # pinned: the same nodes and narrowing calls.  Rewriting work may
    # only fall: the exposure memo answers a repeated normalization of
    # one atom (def-conj's P) instead of redoing it, which took the
    # counts from 78 steps in 43 785 calls to 54 steps.
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    from layertrace import Tracer
    demod = run.import_demod()
    jobs = run.build_pass("search", 1, 0, str(tmp_path / "pass"))
    tracer = Tracer()
    tracer.install(demod)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for i, job in enumerate(jobs):
                tracer.call_root(i, list(job.argv))
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert (m["prover.search_calls"], m["prover.nodes"],
            m["prover.narrowing_calls"]) == (110, 19850, 0)
    assert m["rewriting.steps"] == 54
    assert m["rewriting.normalize_calls"] <= 2383

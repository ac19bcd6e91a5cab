"""The benchmark's smoke mode: one job per family of every workload,
judged by its oracle.  The work counters of one traced pass of each
workload.  And ``tools/ab_timing.py --counts``
on this checkout against itself."""

import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_smoke():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def traced_pass_metrics(workload, directory):
    """The layer counters of pass 0 of seed 1 of a workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    from layertrace import Tracer
    demod = run.import_demod()
    # count what a fresh process does, as ``run.py --trace 1`` does: each
    # builtin is built, and validated, on its first load in the pass
    demod.theories._built.clear()
    jobs = run.build_pass(workload, 1, 0, str(directory))
    tracer = Tracer()
    tracer.install(demod)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for i, job in enumerate(jobs):
                tracer.call_root(i, list(job.argv))
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_traced_search_pass_work(tmp_path):
    # The search trees are pinned: the same nodes and narrowing calls.
    # Rewriting work may only fall: the exposure memo answers a repeated
    # normalization of one atom (def-conj's P) instead of redoing it,
    # which took the counts from 78 steps in 43 785 calls to 54 steps.
    # Every match goes through ``match_pattern``, which the tracer wraps:
    # a matcher called around it would read fewer than the 73 matches.
    m = traced_pass_metrics("search", tmp_path / "pass")
    assert (m["prover.search_calls"], m["prover.nodes"],
            m["prover.narrowing_calls"]) == (110, 19850, 0)
    assert m["rewriting.steps"] == 54
    assert m["rewriting.match_calls"] == 73
    assert m["rewriting.normalize_calls"] <= 2383


def test_search_pass_prover_work(tmp_path, monkeypatch):
    # The same search trees at less work per node.  A context carries the
    # substitution its views were built under, each side's metavariable
    # test is made once, on the first closing attempt, and an elimination
    # builds the axiom naming its hypothesis only for a proof found: from
    # 36 778 _has_meta calls to 8 398, from 21 321 proof nodes built to
    # 6 035, and no more views than the 12 316 built when every root
    # rebuilt its views.
    from demod import kernel, prover
    counts = {"has_meta": 0, "views": 0, "proofs": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(prover, "_has_meta",
                        counted("has_meta", prover._has_meta))
    monkeypatch.setattr(prover._View, "__init__",
                        counted("views", prover._View.__init__))
    monkeypatch.setattr(kernel.Proof, "__post_init__",
                        counted("proofs", kernel.Proof.__post_init__))
    m = traced_pass_metrics("search", tmp_path / "pass")
    assert (m["prover.search_calls"], m["prover.nodes"],
            m["prover.narrowing_calls"]) == (110, 19850, 0)
    assert counts["has_meta"] <= 8398
    assert counts["views"] <= 12316
    assert counts["proofs"] <= 6035


def test_traced_narrow_pass_work(tmp_path):
    # The narrowing is pinned: the same calls, unifications, solutions
    # and rewrite steps.  A step normalizes only the sides it changes,
    # which took the normalize calls from 26 152 to 13 335, and adds no
    # substitution.  A state at the depth bound asks whether a step
    # leaves it only while the stream is complete, which took the
    # unifications from 21 567 to 17 615.  A builtin is built and
    # validated once per process, not once per job, so its validation's
    # critical-pair unifications and joins run once in the pass, not in
    # each of 55 assoc and 48 addition jobs: from 17 615 unifications
    # to 17 467, and from 575 rewrite steps to 413 (3 for each assoc
    # validation).  Matching is pinned too, at 102 013 ``match_pattern``
    # calls with 413 hits, so generated matchers are reached through it.
    # Under a convergent system a side with no variable is normal, and
    # a lhs unifies with it only by matching a redex, so narrowing no
    # longer tries it: the 4 244 tries on such sides, which all failed,
    # took the unifications from 17 467 to 13 223.  A narrowed side is
    # made and normalized in one walk inside ``normalize``: exactly the
    # 13 227 calls, so a walk outside it fails here.
    m = traced_pass_metrics("narrow", tmp_path / "pass")
    assert (m["unification.narrow_calls"], m["unification.unify_calls"],
            m["unification.solutions"]) == (79, 13223, 97)
    assert m["rewriting.steps"] == 413
    assert m["rewriting.match_calls"] == 102013
    assert m["rewriting.match_hit_ratio"] == pytest.approx(413 / 102013)
    assert m["prover.nodes"] == 6
    assert m["rewriting.normalize_calls"] == 13227
    assert m["syntax.apply_subst_calls"] <= 81022


def test_traced_check_pass_work(tmp_path):
    # The check pass is pinned: the same parses, proof checks, cut
    # reductions, rewrite steps, matches and rules validated, so a
    # faster parser shows that it does the same work.  A builtin with
    # notes is parsed with them, not rebuilt to add them: crabbe's one
    # rule is validated once, which took the rules validated from 712
    # to 711.
    m = traced_pass_metrics("check", tmp_path / "pass")
    assert m["parsing.calls"] == 214
    assert (m["kernel.check_calls"], m["kernel.proof_nodes"],
            m["kernel.reduce_cut_calls"]) == (70, 2055, 1204)
    assert m["rewriting.steps"] == 2484
    assert m["rewriting.match_calls"] == 4790
    assert m["theories.rules_validated"] == 711


def test_ab_timing_counts_against_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_timing.py"), str(ROOT),
         str(ROOT), "check", "-k", "1", "--counts"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "counts agree: yes"
    assert "outputs agree: yes" in lines
    rows = {line.split()[0]: line.split()[1:] for line in lines
            if line.startswith("  ") and "." in line.split()[0]}
    a, b = rows["rewriting.match_calls"]
    assert a == b and int(a) > 0

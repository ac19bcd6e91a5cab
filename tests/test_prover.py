import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_prop
from demod import (
    RewriteSystem, Sequent, Theory, alpha_key, apply_subst,
    check_proof, consistency_probe, find_cuts, load_builtin, search_proof,
)
from demod import kernel, prover
from demod.parsing import parse_prop


def prove(theory, text, depth=6, **kw):
    return search_proof(theory, parse_prop(text, theory.signature),
                        depth=depth, **kw)


class TestSearch:
    @pytest.mark.parametrize("goal", [
        "(imp P P)",
        "(imp (and P Q) (and Q P))",
        "(imp P (imp Q P))",
        "(imp (imp P (imp Q P)) (imp (imp P Q) (imp P P)))",
        "(imp (or P Q) (or Q P))",
        "(imp bot P)",
        "top",
        "(imp (and P (imp P Q)) Q)",
    ])
    def test_tautologies_proved(self, empty, goal):
        out = prove(empty, goal)
        assert out.proved
        assert out.proof is not None

    @pytest.mark.parametrize("goal", [
        "P",
        "(or P (imp P Q))",
        "(imp (or P Q) P)",
        "bot",
    ])
    def test_non_theorems_fail(self, empty, goal):
        assert prove(empty, goal).status == "fail"

    def test_classical_only_goal_never_proved(self, empty):
        # provable classically, not intuitionistically; the bounded
        # search must report fail or an exceeded bound, never a proof
        out = prove(empty, "(imp (imp (imp P Q) Q) (or P (imp P Q)))")
        assert out.status in ("fail", "bound-exceeded")

    def test_proofs_are_kernel_checked_and_cut_free(self, empty):
        out = prove(empty, "(imp (and P Q) (and Q P))")
        goal = Sequent((), parse_prop("(imp (and P Q) (and Q P))",
                                      empty.signature))
        assert check_proof(empty, out.proof, goal).ok
        assert not find_cuts(out.proof)

    def test_modulo_rules_used(self, def_conj):
        assert prove(def_conj, "(imp (and A B) P)").proved
        assert prove(def_conj, "(imp P A)").proved

    def test_existential_witness_by_narrowing(self, assoc):
        out = prove(assoc, "(exists (x : elem) (imp (P (plus a x))"
                           " (P (plus (plus a b) c))))")
        assert out.proved
        assert out.proof.tag == "exists_i"

    def test_forall_goal(self, addition):
        out = prove(addition,
                    "(forall (x : nat) (imp (P x) (P (plus 0 x))))")
        assert out.proved

    def test_crabbe_q_unprovable_cut_free(self, crabbe):
        assert prove(crabbe, "Q", depth=10).status == "fail"

    def test_hypotheses_used(self, addition):
        sig = addition.signature
        goal = Sequent(
            (("h", parse_prop("(forall (x : nat) (P (S x)))", sig)),),
            parse_prop("(P (plus (S 0) 0))", sig))
        out = search_proof(addition, goal, depth=6)
        assert out.proved

    def test_rejected_candidates_are_not_fail(self, empty, monkeypatch):
        # a candidate the kernel refuses leaves the bounded space unsettled
        refuse = kernel.CheckResult(False, None, (), "refused")
        monkeypatch.setattr(prover, "check_proof", lambda *a: refuse)
        assert prove(empty, "(imp P P)").status == "bound-exceeded"

    def test_bad_depth_rejected(self, empty):
        with pytest.raises(ValueError):
            prove(empty, "top", depth=0)


class TestDisjunctionProperty:
    # cut-free closed proofs of disjunctions must end with an or-intro
    @pytest.mark.parametrize("theory_name,goal", [
        ("empty", "(or top P)"),
        ("empty", "(or P top)"),
        ("empty", "(or (imp P P) Q)"),
        ("def-conj", "(or (imp (and A B) P) B)"),
        ("addition", "(or (imp (P 0) (P (plus 0 0))) (P 0))"),
    ])
    def test_ends_with_intro(self, theory_name, goal):
        theory = load_builtin(theory_name)
        out = prove(theory, goal)
        assert out.proved
        assert out.proof.tag in ("or_i1", "or_i2")


class TestProbe:
    def test_empty_consistent(self, empty):
        out = consistency_probe(empty, depth=10)
        assert out.status == "fail"

    def test_pf_collapse_consistent(self):
        out = consistency_probe(load_builtin("pf-collapse"), depth=10)
        assert out.status == "fail"

    @staticmethod
    def pf_axiom():
        sig = load_builtin("pf-collapse").signature
        t = Theory("pf-axiom", sig, RewriteSystem([]))
        ax = parse_prop(
            "(forall (x : iota) (and (imp (P (f x)) (P x))"
            " (imp (P x) (P (f x)))))", sig)
        return t, ax

    def test_axiomatic_presentation_diverges(self):
        t, ax = self.pf_axiom()
        out = consistency_probe(t, depth=6, hypotheses=(ax,))
        assert out.status == "bound-exceeded"

    @pytest.mark.parametrize("depth, nodes", [(8, 13452), (10, 50025)])
    def test_axiomatic_probe_work(self, depth, nodes):
        # the search tree is pinned: a faster prover visits the same nodes;
        # depth 10 stops at the node cap of 50 000
        t, ax = self.pf_axiom()
        out = consistency_probe(t, depth=depth, hypotheses=(ax,))
        assert out.status == "bound-exceeded"
        assert out.stats.nodes == nodes

    def test_exposure_memo_within_bound(self, monkeypatch):
        sessions = []

        class Recorded(kernel._Session):
            def __init__(self, *args):
                super().__init__(*args)
                sessions.append(self)

        monkeypatch.setattr(prover, "_Session", Recorded)
        t, ax = self.pf_axiom()
        out = consistency_probe(t, depth=10, hypotheses=(ax,))
        assert out.stats.nodes == 50025
        assert len(sessions) == 1
        bound = kernel._Session.EXPOSE_MEMO_SIZE
        assert 0 < len(sessions[0]._exposed) <= bound

    def test_inconsistent_hypotheses_found(self, empty):
        sig = empty.signature
        hyps = (parse_prop("P", sig), parse_prop("(imp P bot)", sig))
        out = consistency_probe(empty, depth=6, hypotheses=hyps)
        assert out.status == "proved"


def watch_contexts(monkeypatch):
    """Check the context of every search node; return counts of the
    nodes and of those whose context was built under another
    substitution.  On entry each view is its hypothesis under the
    context's substitution, and the key is the sorted tuple of the
    views' keys.  In the node, after any rebuild, each view is its
    hypothesis under the node's substitution."""
    seen = {"nodes": 0, "stale": 0}
    prove, expand = prover._Search.prove, prover._Search._expand

    def checked_prove(self, ctx, goal, depth, s, path):
        seen["nodes"] += 1
        seen["stale"] += ctx.s is not s
        for v in ctx.views:
            assert v.inst == apply_subst(ctx.s, v.hyp)
            assert v.key == alpha_key(v.inst)
        assert ctx.key == tuple(sorted(v.key for v in ctx.views))
        return prove(self, ctx, goal, depth, s, path)

    def checked_expand(self, ctx, goal, depth, s, path):
        insts = [apply_subst(s, v.hyp) for v in ctx.views]
        assert ctx.key == tuple(sorted(alpha_key(h) for h in insts))
        assert all(v.inst == h for v, h in zip(ctx.views, insts))
        return expand(self, ctx, goal, depth, s, path)

    monkeypatch.setattr(prover._Search, "prove", checked_prove)
    monkeypatch.setattr(prover._Search, "_expand", checked_expand)
    return seen


class TestContextInvariant:
    # a context carries the substitution its views were built under and
    # its loop-check key, derived from the parent's; a node rebuilds the
    # views only when its own substitution is another one
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_propositional_goals(self, seed):
        empty = load_builtin("empty")
        goal = random_prop(random.Random(seed), empty.signature, 4,
                           quantifiers=False)
        with pytest.MonkeyPatch.context() as mp:
            seen = watch_contexts(mp)
            out = search_proof(empty, goal, depth=5)
        assert seen["nodes"] == out.stats.nodes

    def test_axiomatic_probe(self, monkeypatch):
        seen = watch_contexts(monkeypatch)
        t, ax = TestProbe.pf_axiom()
        out = consistency_probe(t, depth=6, hypotheses=(ax,))
        assert out.status == "bound-exceeded"
        assert seen["nodes"] == out.stats.nodes

    @pytest.mark.parametrize("name, goal", [
        ("assoc", "(exists (x : elem) (imp (P (plus a x))"
                  " (P (plus (plus a b) c))))"),
        ("addition", "(forall (x : nat) (imp (P x) (P (plus 0 x))))"),
        ("addition", "(imp (forall (x : nat) (P (S x)))"
                     " (exists (y : nat) (and (P (plus 0 y)) (P y))))"),
    ])
    def test_goals_with_witnesses(self, monkeypatch, name, goal):
        seen = watch_contexts(monkeypatch)
        assert prove(load_builtin(name), goal).proved
        assert seen["nodes"] > 0

    def test_substitution_changes_under_hypotheses(self, monkeypatch):
        # the right conjunct is searched under the witness the left one
        # found, so its context, built before, is rebuilt
        seen = watch_contexts(monkeypatch)
        assert prove(load_builtin("assoc"),
                     "(exists (x : elem) (imp (P (plus a x))"
                     " (and (P (plus (plus a b) c)) (P (plus a x)))))").proved
        assert seen["stale"] > 0

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from demod import (
    And, App, Atom, Bottom, Exists, ForAll, FuelExhausted, Imp, Or, Proof,
    Sequent, TOP, Top, Var, apply_subst, check_proof, find_cuts, free_vars,
    load_builtin, normalize_proof, print_node, reduce_cut,
)
from demod.kernel import free_labels, subst_hyp
from demod import kernel
from demod.errors import ProofError
from demod.parsing import parse_proof, parse_sequent, print_proof

from conftest import random_prop, random_term, stepwise_normalize


def chk(theory, proof_text, sequent_text):
    sig = theory.signature
    return check_proof(theory, parse_proof(proof_text, sig),
                       parse_sequent(sequent_text, sig))


class TestChecking:
    def test_identity(self, empty):
        assert chk(empty, '(imp_i "h" (axiom "h"))', '|- (imp P P)').ok

    def test_unknown_hypothesis(self, empty):
        r = chk(empty, '(axiom "nope")', 'h : P |- P')
        assert not r.ok
        assert "nope" in r.message

    def test_wrong_conclusion(self, empty):
        r = chk(empty, '(imp_i "h" (axiom "h"))', '|- (imp P Q)')
        assert not r.ok

    def test_failure_path_points_inside(self, empty):
        r = chk(empty, '(and_i (top_i) (axiom "h"))', 'h : P |- (and top Q)')
        assert not r.ok
        assert r.path == (1,)

    def test_modulo_fold(self, def_conj):
        # the hypothesis A and B is congruent to P
        assert chk(def_conj, '(axiom "h")', 'h : (and A B) |- P').ok

    def test_modulo_unfold_elim(self, def_conj):
        assert chk(def_conj, '(and_e1 (axiom "h"))', 'h : P |- A').ok

    def test_modulo_intro(self, def_conj):
        assert chk(def_conj, '(and_i (axiom "a") (axiom "b"))',
                   'a : A, b : B |- P').ok

    def test_forall(self, addition):
        assert chk(addition,
                   '(forall_i (y : nat) (imp_i "h" (axiom "h")))',
                   '|- (forall (x : nat) (imp (P x) (P x)))').ok

    def test_eigenvariable_violation(self, addition):
        # y occurs free in the hypothesis, so forall_i over it is unsound
        r = chk(addition, '(forall_i (y : nat) (axiom "h"))',
                'h : (P y) |- (forall (x : nat) (P x))')
        assert not r.ok

    def test_exists(self, addition):
        assert chk(addition, '(exists_i 0 (axiom "h"))',
                   'h : (P 0) |- (exists (x : nat) (P x))').ok

    def test_exists_e_eigen_escape(self, addition):
        # the eigenvariable must not occur in the conclusion
        r = chk(addition,
                '(exists_e (axiom "h") (y : nat) "k" (axiom "k"))',
                'h : (exists (x : nat) (P x)) |- (P y)')
        assert not r.ok

    def test_congruent_witness(self, addition):
        # the witness 0+0 is congruent to the instance at 0
        assert chk(addition, '(exists_i (plus 0 0) (axiom "h"))',
                   'h : (P 0) |- (exists (x : nat) (P x))').ok

    def test_intro_in_elim_position_needs_annotation(self, empty):
        r = chk(empty, '(and_e1 (and_i (top_i) (top_i)))', '|- top')
        assert not r.ok
        ok = chk(empty, '(and_e1 (and_i (top_i) (top_i) : (and top top)))',
                 '|- top')
        assert ok.ok

    def test_annotations_filled_in(self, empty):
        r = chk(empty, '(imp_i "h" (axiom "h"))', '|- (imp P P)')
        assert r.proof.conclusion == Imp(Atom("P"), Atom("P"))
        assert r.proof.children[0].conclusion == Atom("P")

    def test_shadowing_inner_label_wins(self, empty):
        r = chk(empty, '(imp_i "h" (imp_i "h" (axiom "h")))',
                '|- (imp P (imp Q Q))')
        assert r.ok


class TestCrabbe:
    PROOF = ('(imp_e (imp_i "h" (imp_e (axiom "h") (axiom "h")) : (imp P Q)) '
             '(imp_i "h" (imp_e (axiom "h") (axiom "h"))))')

    def test_checks(self, crabbe):
        assert chk(crabbe, self.PROOF, '|- Q').ok

    def test_has_a_cut(self, crabbe):
        r = chk(crabbe, self.PROOF, '|- Q')
        cuts = find_cuts(r.proof)
        assert len(cuts) >= 1
        assert cuts[0][1:] == ("imp_i", "imp_e")

    def test_normalization_diverges(self, crabbe):
        r = chk(crabbe, self.PROOF, '|- Q')
        goal = parse_sequent('|- Q', crabbe.signature)
        with pytest.raises(FuelExhausted):
            normalize_proof(crabbe, r.proof, fuel=1000, goal=goal)


class TestCutReduction:
    def case(self, theory, proof_text, sequent_text, expect_normal):
        sig = theory.signature
        goal = parse_sequent(sequent_text, sig)
        r = check_proof(theory, parse_proof(proof_text, sig), goal)
        assert r.ok, r.message
        n = normalize_proof(theory, r.proof, goal=goal)
        assert not find_cuts(n.proof)
        again = check_proof(theory, n.proof, goal)
        assert again.ok
        assert print_proof(n.proof) == expect_normal

    def test_imp_cut(self, empty):
        self.case(empty,
                  '(imp_e (imp_i "h" (axiom "h") : (imp top top)) (top_i))',
                  '|- top', '(top_i : top)')

    def test_and_cut(self, empty):
        self.case(
            empty,
            '(and_e1 (and_i (imp_i "h" (axiom "h")) (top_i)'
            ' : (and (imp P P) top)))',
            '|- (imp P P)', '(imp_i "h" (axiom "h" : P) : (imp P P))')

    def test_or_cut(self, empty):
        self.case(empty,
                  '(or_e (or_i2 (top_i) : (or P top)) "a" (top_i)'
                  ' "b" (axiom "b"))',
                  '|- top', '(top_i : top)')

    def test_forall_cut(self, addition):
        self.case(
            addition,
            '(forall_e (forall_i (x : nat) (imp_i "h" (axiom "h"))'
            ' : (forall (x : nat) (imp (P x) (P x)))) 0)',
            '|- (imp (P 0) (P 0))',
            '(imp_i "h" (axiom "h" : (P 0)) : (imp (P 0) (P 0)))')

    def test_exists_cut(self, addition):
        self.case(
            addition,
            '(exists_e (exists_i 0 (axiom "h") : (exists (z : nat) (P z)))'
            ' (y : nat) "k" (exists_i y (axiom "k")))',
            'h : (P 0) |- (exists (z : nat) (P z))',
            '(exists_i 0 (axiom "h" : (P 0)) : (exists (z : nat) (P z)))')

    def test_reduce_cut_single_step(self, empty):
        goal = parse_sequent('|- top', empty.signature)
        p = parse_proof(
            '(imp_e (imp_i "h" (axiom "h") : (imp top top)) (top_i))',
            empty.signature)
        r = check_proof(empty, p, goal)
        reduced = reduce_cut(r.proof, ())
        assert check_proof(empty, reduced, goal).ok

    def reduce_once(self, theory, proof_text, sequent_text):
        sig = theory.signature
        goal = parse_sequent(sequent_text, sig)
        r = check_proof(theory, parse_proof(proof_text, sig), goal)
        assert r.ok, r.message
        reduced = reduce_cut(r.proof, ())
        assert check_proof(theory, reduced, goal).ok
        return print_proof(reduced)

    def test_reduce_forall_cut_renames_eigenvariable(self, addition):
        # the witness y would be captured by the inner eigenvariable y
        assert self.reduce_once(
            addition,
            '(forall_e (forall_i (x : nat) (forall_i (y : nat) (imp_i "h" '
            '(axiom "h"))) : (forall (x : nat) (forall (y : nat) '
            '(imp (P x) (P x))))) y:nat)',
            '|- (forall (z : nat) (imp (P y:nat) (P y:nat)))') == (
            '(forall_i (y_1 : nat) (imp_i "h" (axiom "h" : (P y)) : '
            '(imp (P y) (P y))) : (forall (y_1 : nat) (imp (P y) (P y))))')

    def test_reduce_exists_cut_renames_eigenvariable(self, addition):
        # the witness x replaces y under the eigenvariable x of the body
        assert self.reduce_once(
            addition,
            '(exists_e (exists_i x:nat (top_i) : (exists (z : nat) top)) '
            '(y : nat) "k" (forall_i (x : nat) (exists_i y (axiom "k"))))',
            '|- (forall (u : nat) (exists (v : nat) top))') == (
            '(forall_i (x_1 : nat) (exists_i x:nat (top_i : top) : '
            '(exists (v : nat) top)) : (forall (u : nat) (exists (v : nat) '
            'top)))')

    def test_reduce_cut_rejects_non_cut(self, empty):
        goal = parse_sequent('h : P |- P', empty.signature)
        r = check_proof(empty, parse_proof('(axiom "h")', empty.signature),
                        goal)
        with pytest.raises(ProofError):
            reduce_cut(r.proof, ())


class TestProofCopies:
    """``Proof.copy_with`` builds a copy without ``__init__``: the same
    node ``dataclasses.replace`` made, and the same arity error when the
    children change."""

    def test_same_as_dataclasses_replace(self):
        import dataclasses
        a, b = Proof("axiom", label="h"), Proof("axiom", label="g")
        p = Proof("and_i", (a, b), conclusion=Atom("P"))
        for changes in ({"conclusion": TOP}, {"children": (b, a)},
                        {"label": "k", "witness": App("0")}, {}):
            got = p.copy_with(**changes)
            assert got == dataclasses.replace(p, **changes)
            assert got.__dict__ == dataclasses.replace(p, **changes).__dict__
            assert got is not p
        assert p == Proof("and_i", (a, b), conclusion=Atom("P"))

    def test_children_keep_the_arity_error(self):
        a = Proof("axiom", label="h")
        p = Proof("and_i", (a, a))
        with pytest.raises(ProofError,
                           match="and_i expects 2 subproofs, got 1"):
            p.copy_with(children=(a,))
        with pytest.raises(ProofError,
                           match="axiom expects 0 subproofs, got 1"):
            a.copy_with(children=(a,), conclusion=TOP)


LABELS = ("h", "g", "k")   # few names, so binders shadow and capture


class CutProofs:
    """Random proofs that check under a builtin theory, built from
    introductions, eliminations of hypotheses and cuts of all six kinds.

    ``proof`` returns a proof and the conclusion it is checked against.
    Hypothesis labels come from a pool of three, so substitution meets
    shadowing binders and renames capturing ones.  The body of an imp
    cut often eliminates its own hypothesis, so the reduction creates a
    new cut when the minor premise is an introduction.  Stated
    conclusions are sometimes replaced by congruent ones, so the kernel
    must use the theory's congruence."""

    CUTS = ("imp", "imp", "and_e", "or", "forall", "exists")
    KINDS = ("and_i", "or_i", "imp_i", "forall_i", "exists_i", "elim",
             "elim") + CUTS

    def __init__(self, rng, theory):
        self.rng = rng
        self.sig = theory.signature
        self.sort = sorted(self.sig.sorts)[0]
        self.session = kernel._Session(theory.system, 1000)
        self.n = 0

    def sample(self, depth):
        """A proof and its sequent; half of them end in a cut."""
        labels = self.rng.sample(LABELS, self.rng.randrange(3))
        ctx = tuple((l, self.prop(())) for l in labels)
        if self.rng.random() < 0.5:
            kind = self.rng.choice(self.CUTS)
            proof, c = getattr(self, f"_{kind}")(ctx, (), depth - 1)
        else:
            proof, c = self.proof(ctx, (), depth)
        return proof, Sequent(ctx, self.disguise(c))

    def var(self, base):
        self.n += 1
        return Var(f"{base}{self.n}", self.sort)

    def eigen(self, ctx, scope, *avoid):
        """An eigenvariable free in neither ``ctx`` nor ``avoid``, and the
        scope it opens.  Half the time it reuses the name x or y, so a
        substitution can meet a binder named like a variable it
        inserts."""
        taken = {v.name for p in (*(h for _, h in ctx), *avoid)
                 for v in free_vars(p)}
        names = [n for n in ("x", "y") if n not in taken]
        if names and self.rng.random() < 0.5:
            y = Var(self.rng.choice(names), self.sort)
        else:
            y = self.var("e")
        return y, tuple(v for v in scope if v.name != y.name) + (y,)

    def prop(self, scope):
        return random_prop(self.rng, self.sig, self.rng.randrange(3), scope)

    def term(self, scope):
        if scope and self.rng.random() < 0.7:
            return self.variant(self.rng.choice(scope))
        return random_term(self.rng, self.sig, self.sort, 1, scope)

    def variant(self, t):
        """``t``, or under addition sometimes the congruent (plus 0 t)."""
        if "plus" in self.sig.functions and self.rng.random() < 0.3:
            return App("plus", (App("0"), t))
        return t

    def disguise(self, c):
        """``c``, or half the time a congruent proposition."""
        if self.rng.random() < 0.5:
            return c
        if "A" in self.sig.predicates and c == And(Atom("A"), Atom("B")):
            return Atom("P")   # def-conj
        if isinstance(c, Atom) and c.args and "plus" in self.sig.functions:
            return Atom(c.pred, tuple(App("plus", (App("0"), a))
                                      for a in c.args))
        return c

    def proof(self, ctx, scope, depth):
        if depth <= 0 or self.rng.random() < 0.15:
            return self.leaf(dict(ctx))
        kind = self.rng.choice(self.KINDS)
        return getattr(self, f"_{kind}")(ctx, scope, depth - 1)

    def leaf(self, hyps):
        if hyps and self.rng.random() < 0.7:
            label = self.rng.choice(sorted(hyps))
            return Proof("axiom", label=label), hyps[label]
        return Proof("top_i", conclusion=TOP), TOP

    def easy(self, hyps, goal):
        """A small proof of ``goal`` from ``hyps``, or None."""
        g = self.session.expose(goal)
        for label, h in sorted(hyps.items()):
            if self.session.congruent(h, goal):
                return Proof("axiom", label=label)
        if isinstance(g, Top):
            return Proof("top_i", conclusion=goal)
        if isinstance(g, And):
            parts = (self.easy(hyps, g.left), self.easy(hyps, g.right))
            if None not in parts:
                return Proof("and_i", parts, conclusion=goal)
        elif isinstance(g, Imp):
            label = self.rng.choice(LABELS)
            body = self.easy({**hyps, label: g.left}, g.right)
            if body is not None:
                return Proof("imp_i", (body,), label=label, conclusion=goal)
        elif isinstance(g, Or):
            for tag, side in (("or_i1", g.left), ("or_i2", g.right)):
                arm = self.easy(hyps, side)
                if arm is not None:
                    return Proof(tag, (arm,), conclusion=goal)
        return None

    # introductions

    def _and_i(self, ctx, scope, depth):
        (l, a), (r, b) = (self.proof(ctx, scope, depth) for _ in "lr")
        return Proof("and_i", (l, r), conclusion=And(a, b)), And(a, b)

    def _or_i(self, ctx, scope, depth):
        p, a = self.proof(ctx, scope, depth)
        other = self.prop(scope)
        tag, c = (("or_i1", Or(a, other)) if self.rng.random() < 0.5
                  else ("or_i2", Or(other, a)))
        return Proof(tag, (p,), conclusion=c), c

    def _imp_i(self, ctx, scope, depth):
        label, a = self.rng.choice(LABELS), self.prop(scope)
        body, b = self.proof(ctx + ((label, a),), scope, depth)
        c = Imp(a, b)
        return Proof("imp_i", (body,), label=label, conclusion=c), c

    def _forall_i(self, ctx, scope, depth):
        x, inner = self.eigen(ctx, scope)
        body, b = self.proof(ctx, inner, depth)
        c = ForAll(x, b)
        return Proof("forall_i", (body,), eigen=x, conclusion=c), c

    def _exists_i(self, ctx, scope, depth):
        body, b = self.proof(ctx, scope, depth)
        z = self.var("z")
        if scope:   # abstract a variable in scope, then give it back
            v = self.rng.choice(scope)
            w = self.variant(v)
            b = apply_subst({v: z}, b)
        else:       # a vacuous quantifier
            w = self.term(scope)
        c = Exists(z, b)
        return Proof("exists_i", (body,), witness=w, conclusion=c), c

    # eliminations of a hypothesis, or of an introduction in a cut

    def _elim(self, ctx, scope, depth):
        hyps = dict(ctx)
        if not hyps:
            return self.leaf(hyps)
        label = self.rng.choice(sorted(hyps))
        return self.eliminate(Proof("axiom", label=label), hyps[label],
                              ctx, scope, depth)

    def eliminate(self, major, a, ctx, scope, depth):
        g = self.session.expose(a)
        if isinstance(g, And):
            if self.rng.random() < 0.5:
                return Proof("and_e1", (major,)), g.left
            return Proof("and_e2", (major,)), g.right
        if isinstance(g, ForAll):
            t = self.term(scope)
            c = apply_subst({g.var: t}, g.body)
            return Proof("forall_e", (major,), witness=t), c
        if isinstance(g, Imp):
            minor = self.easy(dict(ctx), g.left)
            if minor is not None:
                return Proof("imp_e", (major, minor)), g.right
        if isinstance(g, Or):
            return self.cases(major, g.left, g.right, ctx, scope, depth)
        if isinstance(g, Exists):
            return self.unpack(major, g, ctx, scope, depth)
        if isinstance(g, Bottom):
            c = self.prop(scope)
            return Proof("bot_e", (major,), conclusion=c), c
        return major, a

    def cases(self, major, left, right, ctx, scope, depth):
        """or_e on ``major``, a proof of (or left right)."""
        l1, l2 = self.rng.choice(LABELS), self.rng.choice(LABELS)
        arm1, c = self.proof(ctx + ((l1, left),), scope, depth)
        arm2 = self.easy({**dict(ctx), l2: right}, c)
        # arm1's eigenvariables avoid the variables of ctx and left only
        seen = free_vars(left).union(*(free_vars(h) for _, h in ctx))
        if arm2 is None and l1 not in free_labels(arm1) \
                and free_vars(right) <= seen:
            arm2, l2 = arm1, l1
        if arm2 is None:   # swap the disjuncts
            c = Or(right, left)
            arm1 = Proof("or_i2", (Proof("axiom", label=l1),), conclusion=c)
            arm2 = Proof("or_i1", (Proof("axiom", label=l2),), conclusion=c)
        return Proof("or_e", (major, arm1, arm2), label=l1, label2=l2,
                     conclusion=c), c

    def unpack(self, major, g, ctx, scope, depth):
        """exists_e on ``major``, a proof of ``g``."""
        y, inner = self.eigen(ctx, scope, g)
        label = self.rng.choice(LABELS)
        body, c = self.proof(
            ctx + ((label, apply_subst({g.var: y}, g.body)),), inner, depth)
        if y in free_vars(c):   # hide the eigenvariable again
            z = self.var("z")
            c = Exists(z, apply_subst({y: z}, c))
            body = Proof("exists_i", (body,), witness=y, conclusion=c)
        return Proof("exists_e", (major, body), eigen=y, label=label,
                     conclusion=c), c

    # cuts

    def _imp(self, ctx, scope, depth):
        minor, a = self.proof(ctx, scope, depth)
        a = self.disguise(a)
        label = self.rng.choice(LABELS)
        inner = ctx + ((label, a),)
        if self.rng.random() < 0.5:
            body, b = self.eliminate(Proof("axiom", label=label), a, inner,
                                     scope, depth)
        else:
            body, b = self.proof(inner, scope, depth)
        major = Proof("imp_i", (body,), label=label, conclusion=Imp(a, b))
        return Proof("imp_e", (major, minor)), b

    def _and_e(self, ctx, scope, depth):
        (l, a), (r, b) = (self.proof(ctx, scope, depth) for _ in "lr")
        major = Proof("and_i", (l, r), conclusion=self.disguise(And(a, b)))
        return self.eliminate(major, And(a, b), ctx, scope, depth)

    def _or(self, ctx, scope, depth):
        major, c = self._or_i(ctx, scope, depth)
        return self.cases(major, c.left, c.right, ctx, scope, depth)

    def _forall(self, ctx, scope, depth):
        major, c = self._forall_i(ctx, scope, depth)
        return self.eliminate(major, c, ctx, scope, depth)

    def _exists(self, ctx, scope, depth):
        major, c = self._exists_i(ctx, scope, depth)
        return self.unpack(major, c, ctx, scope, depth)


CUT_THEORIES = {name: load_builtin(name)
                for name in ("empty", "def-conj", "addition")}


def _cut_proof(name, seed):
    theory = CUT_THEORIES[name]
    proof, goal = CutProofs(random.Random(seed), theory).sample(depth=5)
    checked = check_proof(theory, proof, goal)
    assert checked.ok, (print_proof(proof), checked.path, checked.message)
    return theory, checked.proof, goal


class TestNormalizeAgainstStepwise:
    @pytest.mark.parametrize("name", sorted(CUT_THEORIES))
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_same_normal_form_steps_and_fuel(self, name, seed):
        theory, proof, goal = _cut_proof(name, seed)
        want, steps = stepwise_normalize(theory, proof, goal)
        got = normalize_proof(theory, proof, goal)
        assert (print_proof(got.proof), got.steps) \
            == (print_proof(want), steps)
        if steps:
            # a negative fuel allows no step, as zero does
            fuel = random.Random(seed).randrange(-2, steps)
            with pytest.raises(FuelExhausted) as ref:
                stepwise_normalize(theory, proof, goal, fuel)
            with pytest.raises(FuelExhausted) as new:
                normalize_proof(theory, proof, goal, fuel=fuel)
            assert new.value.steps == ref.value.steps == max(fuel, 0)

    def test_renamed_hypothesis_keeps_its_annotation(self, addition):
        # the imp cut renames the binder "b", which would capture the
        # minor premise's free "b"; the exists cut then renames the
        # eigenvariable u, which must avoid the u_1 of b_1's formula,
        # found only on the renamed axiom's annotation
        sig = addition.signature
        goal = parse_sequent('b : (P 0) |- (imp (and (P u_1:nat) top) '
                             '(forall (u : nat) top))', sig)
        proof = parse_proof(
            '(imp_e (imp_i "h" (imp_i "b" (exists_e (axiom "h") (y : nat) '
            '"k" (forall_i (u : nat) (and_e2 (axiom "b"))))) : (imp (exists '
            '(v : nat) (imp top (P 0))) (imp (and (P u_1:nat) top) (forall '
            '(u : nat) top)))) (exists_i u:nat (imp_i "z" (axiom "b"))))', sig)
        want, steps = stepwise_normalize(addition, proof, goal)
        got = normalize_proof(addition, proof, goal)
        assert (print_proof(got.proof), got.steps) \
            == (print_proof(want), steps) == (
            '(imp_i "b_1" (forall_i (u_2 : nat) (and_e2 (axiom "b_1" : '
            '(and (P u_1) top)) : top) : (forall (u : nat) top)) : (imp '
            '(and (P u_1) top) (forall (u : nat) top)))', 2)

    def test_generator_covers_every_cut(self):
        # every cut kind occurs, and some reduction creates a cut
        kinds, created = set(), 0
        for name in CUT_THEORIES:
            for seed in range(40):
                theory, proof, goal = _cut_proof(name, seed)
                cuts = find_cuts(proof)
                kinds |= {elim for _, _, elim in cuts}
                _, steps = stepwise_normalize(theory, proof, goal)
                created += steps > len(cuts)
        assert kinds == {"imp_e", "and_e1", "and_e2", "or_e", "forall_e",
                         "exists_e"}
        assert created > 0


class TestNormalizationWork:
    """The work of normalize_proof, counted on the module globals it
    calls, without timing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("check_proof", "reduce_cut"):
            def counted(*args, _fn=getattr(kernel, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(kernel, name, counted)
        return counts

    def test_cut_chain_checks_twice(self, empty, calls):
        proof = '(axiom "h")'
        for k in range(320):
            proof = (f'(imp_e (imp_i "h_{k}" (axiom "h_{k}") : (imp P P)) '
                     f'{proof})')
        sig = empty.signature
        n = normalize_proof(empty, parse_proof(proof, sig),
                            parse_sequent('h : P |- P', sig))
        assert (print_proof(n.proof), n.steps) == ('(axiom "h" : P)', 320)
        assert calls == {"reduce_cut": 320, "check_proof": 2}

    def test_crabbe_runs_out_after_one_check(self, crabbe, calls):
        sig = crabbe.signature
        with pytest.raises(FuelExhausted) as e:
            normalize_proof(crabbe, parse_proof(TestCrabbe.PROOF, sig),
                            parse_sequent('|- Q', sig), fuel=1000)
        assert e.value.steps == 1000
        assert calls == {"reduce_cut": 1000, "check_proof": 1}


class TestLabelScoping:
    """A label binds in the subproof after it: imp_i's body, its own arm
    of or_e, exists_e's body; never in the major premise."""

    @pytest.mark.parametrize("text, free", [
        ('(imp_i "h" (and_i (axiom "h") (axiom "g")))', {"g"}),
        ('(or_e (axiom "a") "a" (axiom "a") "b" (axiom "b"))', {"a"}),
        ('(or_e (axiom "d") "a" (and_i (axiom "a") (axiom "b"))'
         ' "b" (and_i (axiom "a") (axiom "b")))', {"a", "b", "d"}),
        ('(exists_e (axiom "k") (y : nat) "k" (axiom "k"))', {"k"}),
        ('(exists_e (axiom "h") (y : nat) "k"'
         ' (and_i (axiom "k") (axiom "g")))', {"h", "g"}),
    ])
    def test_free_labels(self, addition, text, free):
        assert free_labels(parse_proof(text, addition.signature)) == free

    @pytest.mark.parametrize("text, label, repl, want", [
        # a shadowing binder stops the substitution
        ('(and_i (axiom "h") (imp_i "h" (axiom "h")))', "h", '(top_i)',
         '(and_i (top_i) (imp_i "h" (axiom "h")))'),
        ('(or_e (axiom "a") "a" (axiom "a") "b" (axiom "a"))', "a",
         '(top_i)', '(or_e (top_i) "a" (axiom "a") "b" (top_i))'),
        ('(exists_e (axiom "k") (y : nat) "k" (axiom "k"))', "k",
         '(top_i)', '(exists_e (top_i) (y : nat) "k" (axiom "k"))'),
        # a binder that would capture a label free in the replacement
        # is renamed in its own subproof only
        ('(imp_i "g" (and_i (axiom "h") (axiom "g")))', "h", '(axiom "g")',
         '(imp_i "g_1" (and_i (axiom "g") (axiom "g_1")))'),
        ('(or_e (axiom "d") "a" (axiom "h")'
         ' "b" (and_i (axiom "h") (axiom "b")))', "h", '(axiom "b")',
         '(or_e (axiom "d") "a" (axiom "b")'
         ' "b_1" (and_i (axiom "b") (axiom "b_1")))'),
        ('(or_e (axiom "d") "a" (and_i (axiom "h") (axiom "a"))'
         ' "a" (and_i (axiom "h") (axiom "a")))', "h", '(axiom "a")',
         '(or_e (axiom "d") "a_1" (and_i (axiom "a") (axiom "a_1"))'
         ' "a_2" (and_i (axiom "a") (axiom "a_2")))'),
        ('(exists_e (axiom "e") (y : nat) "k"'
         ' (and_i (axiom "h") (axiom "k")))', "h", '(axiom "k")',
         '(exists_e (axiom "e") (y : nat) "k_1"'
         ' (and_i (axiom "k") (axiom "k_1")))'),
        # an unannotated axiom replaces a use, annotation and all; the
        # renamed binder's own uses keep theirs
        ('(and_i (axiom "h" : top) (imp_i "g" (axiom "g" : (P 0))))', "h",
         '(axiom "g")',
         '(and_i (axiom "g") (imp_i "g_1" (axiom "g_1" : (P 0))))'),
    ])
    def test_subst_hyp(self, addition, text, label, repl, want):
        sig = addition.signature
        got = subst_hyp(parse_proof(text, sig), label, parse_proof(repl, sig))
        assert print_proof(got) == want


def numeral(k):
    n = App("0")
    for _ in range(k):
        n = App("S", (n,))
    return n


class TestExposureMemo:
    def test_memo_stays_within_its_bound(self, addition):
        # one more distinct atom than the memo holds: it is emptied once,
        # and every answer is still the atom's normal form
        session = kernel._Session(addition.system, 100)
        bound = session.EXPOSE_MEMO_SIZE
        for k in range(bound + 1):
            p = Atom("P", (App("plus", (numeral(k % 5), App("0"))),))
            assert session.expose(p) == Atom("P", (numeral(k % 5),))
            assert 0 < len(session._exposed) <= bound
        assert len(session._exposed) == 1

    def test_memo_keeps_its_atoms_alive(self, def_conj):
        session = kernel._Session(def_conj.system, 100)
        p = Atom("P")
        exposed = session.expose(p)
        assert print_node(exposed) == "(and A B)"
        assert session._exposed[id(p)] == (p, exposed)
        assert session.expose(p) is exposed

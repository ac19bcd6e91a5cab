"""Acceptance gate: one test per criterion, one pass/fail line each.

All expected values are symbolic-exact.  Arithmetic expectations are
computed by plain integer arithmetic, never by the engine under test.
"""

import random

from demod import (
    App, Atom, FuelExhausted, Imp, Proof, RewriteRule, RewriteSystem,
    Sequent, Theory, UnificationProblem, Var, alpha_eq, alpha_key,
    apply_subst, check_proof, congruent, consistency_probe, find_cuts,
    free_vars, load_builtin, make_signature, narrow_unify, normalize,
    normalize_proof, print_node, search_proof, subformula_closure,
    unify_syntactic,
)
from demod.parsing import (
    parse_node, parse_proof, parse_prop, parse_sequent, print_proof,
)

import conftest
from conftest import (
    random_normal_form, random_prop, random_term, stepwise_normalize,
)

SEED = 20260823


def report(number, ok, text):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_normalization_golden():
    assoc = load_builtin("assoc")
    p = parse_prop("(P (plus (plus a b) (plus (plus c d) e)))",
                   assoc.signature)
    nf = normalize(assoc.system, p)
    got = print_node(nf.value)
    report(1, got == "(P (plus (plus (plus (plus a b) c) d) e))",
           f"assoc normalizes the golden proposition to {got}")


def test_criterion_2_narrowing_golden():
    assoc = load_builtin("assoc")
    sig = assoc.signature
    l = parse_prop("(P (plus a x:elem))", sig)
    r = parse_prop("(P (plus (plus a b) c))", sig)
    no_mgu = unify_syntactic(l, r) is None
    stream = narrow_unify(UnificationProblem.of([(l, r)], assoc.system),
                          depth=8)
    want = parse_node("(plus b c)", sig)
    found = any(alpha_eq(s.get(Var("x", "elem")), want)
                for s in stream.solutions)
    report(2, no_mgu and found,
           "syntactic unification fails and narrowing finds x -> (plus b c)")


def test_criterion_3_crabbe_triple():
    crabbe = load_builtin("crabbe")
    sig = crabbe.signature
    proof = parse_proof(
        '(imp_e (imp_i "h" (imp_e (axiom "h") (axiom "h")) : (imp P Q)) '
        '(imp_i "h" (imp_e (axiom "h") (axiom "h"))))', sig)
    goal = parse_sequent("|- Q", sig)
    checked = check_proof(crabbe, proof, goal)
    has_cut = checked.ok and len(find_cuts(checked.proof)) >= 1
    diverged = False
    if checked.ok:
        try:
            normalize_proof(crabbe, checked.proof, fuel=1000, goal=goal)
        except FuelExhausted:
            diverged = True
    search = search_proof(crabbe, parse_prop("Q", sig), depth=10)
    no_cut_free = search.status == "fail"
    report(3, checked.ok and has_cut and diverged and no_cut_free,
           "the shipped proof of Q checks, has a cut, will not normalize, "
           "and no cut-free proof is found at depth 10")


def test_criterion_4_consistency_probes():
    finite_ok = all(
        consistency_probe(load_builtin(name), depth=10).status == "fail"
        for name in ("empty", "pf-collapse"))
    sig = load_builtin("pf-collapse").signature
    axiomatic = Theory("pf-axiom", sig, RewriteSystem([]))
    ax = parse_prop(
        "(forall (x : iota) (and (imp (P (f x)) (P x))"
        " (imp (P x) (P (f x)))))", sig)
    infinite_ok = all(
        consistency_probe(axiomatic, depth=d, hypotheses=(ax,)).status
        == "bound-exceeded"
        for d in (4, 6, 8, 10))
    report(4, finite_ok and infinite_ok,
           "rule form fails finitely at depth 10; the axiom-as-hypothesis "
           "form exceeds the bound at depths 4 through 10")


FOLD_UNFOLD_GOALS = [
    "(imp P P)", "(imp P (and A B))", "(imp (and A B) P)",
    "(imp P A)", "(imp P B)", "(imp (and A B) A)",
    "(imp (imp A (imp B P)) (imp A (imp B P)))",
    "(imp A (imp B P))", "(imp (and B A) P)", "(imp P (and B A))",
    "(imp P (or A B))", "(imp (or P P) (and A B))",
    "(imp (and P A) A)", "(imp (and A P) B)", "(or A (imp P A))",
    "(imp (imp P bot) (imp (and A B) bot))",
    "(imp (imp (and A B) bot) (imp P bot))",
    "(imp bot P)", "(imp (and A (and B top)) P)", "P", "A",
    "(imp (or A B) P)", "(imp P (imp A B))", "(and (imp P A) (imp P B))",
]


def test_criterion_5_fold_unfold_oracle():
    modulo = load_builtin("def-conj")
    sig = modulo.signature
    axiomatic = Theory("def-conj-ax", sig, RewriteSystem([]))
    ax = parse_prop("(and (imp P (and A B)) (imp (and A B) P))", sig)
    agree = 0
    for text in FOLD_UNFOLD_GOALS:
        goal = parse_prop(text, sig)
        by_rule = search_proof(modulo, goal, depth=8).proved
        by_axiom = search_proof(
            axiomatic, Sequent((("ax", ax),), goal), depth=8).proved
        agree += by_rule == by_axiom
    total = len(FOLD_UNFOLD_GOALS)
    report(5, agree == total and total >= 20,
           f"provability modulo def_P agrees with the axiomatic "
           f"presentation on {agree}/{total} goals at depth 8")


def test_criterion_6_addition_as_algorithm():
    addition = load_builtin("addition")

    def nat(n):
        t = App("0")
        for _ in range(n):
            t = App("S", (t,))
        return t

    sums_ok = all(
        congruent(addition.system,
                  App("plus", (nat(m), nat(n))), nat(m + n))
        for m in range(6) for n in range(6))
    rep = addition.report
    report(6, sums_ok and rep.termination == "lpo"
           and rep.locally_confluent is True,
           "S^m(0)+S^n(0) is congruent to S^(m+n)(0) for all m,n <= 5 and "
           "the system is terminating and locally confluent")


DISJUNCTION_GOALS = [
    ("empty", "(or top P)"),
    ("empty", "(or P top)"),
    ("empty", "(or (imp P P) Q)"),
    ("empty", "(or Q (imp (and P Q) P))"),
    ("def-conj", "(or (imp (and A B) P) B)"),
    ("def-conj", "(or A (imp P A))"),
    ("addition", "(or (imp (P 0) (P (plus 0 0))) (P 0))"),
    ("assoc", "(or (P a) (imp (P (plus a (plus b c)))"
              " (P (plus (plus a b) c))))"),
]


def test_criterion_7_disjunction_property():
    ok = True
    for name, text in DISJUNCTION_GOALS:
        theory = load_builtin(name)
        goal = parse_prop(text, theory.signature)
        out = search_proof(theory, goal, depth=8)
        if not out.proved or out.proof.tag not in ("or_i1", "or_i2"):
            ok = False
        elif find_cuts(out.proof):
            ok = False
    report(7, ok, f"all {len(DISJUNCTION_GOALS)} proved closed disjunctions "
                  "are cut-free and end with an or-introduction")


def test_criterion_8_subformula_golden():
    sig = make_signature(["iota"], {}, {"P": [], "Q": []})
    rs = RewriteSystem([RewriteRule("d", Atom("P"),
                                    Imp(Atom("Q"), Atom("Q")))])
    theory = Theory("qq", sig, rs)
    s = subformula_closure(theory, Atom("P"))
    want = frozenset({alpha_key(Atom("P")), alpha_key(Atom("Q"))})
    report(8, s.status == "closed"
           and frozenset(map(alpha_key, s.representatives)) == want,
           "under P ~> (imp Q Q) the closure of P is exactly {[P], [Q]}")


def _substitution_suite(rng):
    sig = load_builtin("addition").signature
    x, y, z = (Var(n, "nat") for n in "xyz")
    bad = 0
    for _ in range(1000):
        p = random_prop(rng, sig, 3, (x, y, z))
        s1 = {x: random_term(rng, sig, "nat", 2, (y,))}
        s2 = {y: random_term(rng, sig, "nat", 2, (z,))}
        # composition law
        from demod import compose
        lhs = apply_subst(compose(s1, s2), p)
        rhs = apply_subst(s2, apply_subst(s1, p))
        if not alpha_eq(lhs, rhs):
            bad += 1
            continue
        # capture avoidance: free variables after substitution are exactly
        # the untouched ones plus those of the substituted terms
        fv = free_vars(p)
        expect = (fv - {x}) | (free_vars(s1[x]) if x in fv else set())
        if free_vars(apply_subst(s1, p)) != expect:
            bad += 1
    return bad


def _strategy_suite(rng):
    bad = 0
    theories = [load_builtin(n)
                for n in ("addition", "assoc", "def-conj", "pf-collapse")]
    for i in range(500):
        theory = theories[i % len(theories)]
        sig = theory.signature
        sort = sorted(sig.sorts)[0]
        if sig.functions:
            t = random_term(rng, sig, sort, 4)
            x = Atom(rng.choice(list(sig.predicates)), (t,)) \
                if all(len(a) == 1 for a in sig.predicates.values()) else t
        else:
            x = random_prop(rng, sig, 3, quantifiers=False)
        a = normalize(theory.system, x).value
        b = random_normal_form(theory.system, x, rng)
        if not alpha_eq(a, b):
            bad += 1
    return bad


def _narrowing_suite(rng):
    emitted, bad = 0, 0
    for name in ("addition", "assoc"):
        theory = load_builtin(name)
        sig = theory.signature
        sort = sorted(sig.sorts)[0]
        for _ in range(40):
            l = random_term(rng, sig, sort, 3, (Var("x", sort),))
            r = random_term(rng, sig, sort, 3)
            stream = narrow_unify(
                UnificationProblem.of([(l, r)], theory.system),
                depth=4, cap=8)
            for s in stream.solutions:
                emitted += 1
                if not congruent(theory.system, apply_subst(s, l),
                                 apply_subst(s, r)):
                    bad += 1
    return emitted, bad


MUTATION_POOL = [
    ("empty", '(imp_i "h" (axiom "h"))', '|- (imp P P)'),
    ("empty", '(and_i (top_i) (imp_i "h" (axiom "h")))',
     '|- (and top (imp Q Q))'),
    ("empty", '(or_e (axiom "d") "a" (or_i2 (axiom "a")) '
              '"b" (or_i1 (axiom "b")))', 'd : (or P Q) |- (or Q P)'),
    ("empty", '(imp_i "h" (bot_e (axiom "h")))', '|- (imp bot Q)'),
    ("def-conj", '(and_e1 (axiom "h"))', 'h : P |- A'),
    ("def-conj", '(and_i (axiom "a") (axiom "b"))', 'a : A, b : B |- P'),
    ("addition", '(forall_i (y : nat) (imp_i "h" (axiom "h")))',
     '|- (forall (x : nat) (imp (P x) (P (plus 0 x))))'),
    ("addition", '(exists_i (plus 0 0) (axiom "h"))',
     'h : (P 0) |- (exists (x : nat) (P x))'),
    ("addition", '(exists_e (axiom "h") (y : nat) "k" '
                 '(exists_i (S y) (axiom "k") : (exists (z : nat) (P z))))',
     'h : (exists (x : nat) (P (S x))) |- (exists (z : nat) (P z))'),
    ("empty", '(imp_e (axiom "f") (axiom "a"))', 'f : (imp P Q), a : P |- Q'),
]


def _proof_paths(p, here=()):
    yield here
    for i, c in enumerate(p.children):
        yield from _proof_paths(c, here + (i,))


def _wrap_at(p, path, label, top):
    if not path:
        inner = Proof("imp_i", (p,), label=label,
                      conclusion=Imp(top, p.conclusion))
        return Proof("imp_e", (inner, Proof("top_i")))
    i = path[0]
    kids = list(p.children)
    kids[i] = _wrap_at(kids[i], path[1:], label, top)
    return Proof(p.tag, tuple(kids), label=p.label, label2=p.label2,
                 witness=p.witness, eigen=p.eigen, conclusion=p.conclusion)


def _mutation_suite(rng):
    from demod.syntax import TOP
    bad = 0
    count = 0
    mut = 0
    while count < 200:
        name, proof_text, goal_text = MUTATION_POOL[count % len(MUTATION_POOL)]
        theory = load_builtin(name)
        sig = theory.signature
        goal = parse_sequent(goal_text, sig)
        base = check_proof(theory, parse_proof(proof_text, sig), goal)
        assert base.ok
        paths = list(_proof_paths(base.proof))
        mut += 1
        mutated = _wrap_at(base.proof, rng.choice(paths), f"_m{mut}", TOP)
        count += 1
        checked = check_proof(theory, mutated, goal)
        if not checked.ok or not find_cuts(checked.proof):
            bad += 1
            continue
        # subject preservation at every step: the per-step reference
        # checks each intermediate proof, and normalize_proof must agree
        try:
            want, steps = stepwise_normalize(theory, checked.proof, goal)
            n = normalize_proof(theory, checked.proof, goal=goal)
        except (AssertionError, FuelExhausted):
            bad += 1
            continue
        final = check_proof(theory, n.proof, goal)
        if not final.ok or find_cuts(n.proof) or (
                print_proof(n.proof), n.steps) != (print_proof(want), steps):
            bad += 1
    return count, bad


def test_criterion_9_property_suites():
    rng = random.Random(SEED)
    subst_bad = _substitution_suite(rng)
    strat_bad = _strategy_suite(rng)
    emitted, narrow_bad = _narrowing_suite(rng)
    mut_count, mut_bad = _mutation_suite(rng)
    ok = (subst_bad == 0 and strat_bad == 0 and narrow_bad == 0
          and emitted > 0 and mut_count == 200 and mut_bad == 0)
    report(9, ok,
           f"substitution 1000/1000, strategy independence 500/500, "
           f"narrowing soundness {emitted - narrow_bad}/{emitted}, "
           f"subject preservation {mut_count - mut_bad}/{mut_count}")

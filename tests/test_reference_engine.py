"""demod against the frozen reference copy in ``perfbench/refdemod``.

The reference is the engine as it was before narrowing, unification and
innermost normalization were rewritten for speed.  On random problems
both must give the same printed answers, in the same order.  The
reference is only imported, never changed.
"""

import itertools
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import demod
from demod import (
    And, App, Atom, BOT, Imp, Or, RewriteRule, RewriteSystem, TOP, Theory,
    UnificationProblem, Var, check_nonconfusing, check_termination_lpo,
    critical_pairs, free_vars, load_builtin, make_signature, narrow_unify,
    normalize, print_node, unify_syntactic,
)
from demod.syntax import children, positions

from conftest import random_prop, random_term

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import refdemod  # noqa: E402
from refdemod.syntax import positions as ref_positions  # noqa: E402


def to_ref(x):
    """The same node built from refdemod's classes."""
    if isinstance(x, Var):
        return refdemod.Var(x.name, x.sort)
    if isinstance(x, (App, Atom)):
        head = x.fn if isinstance(x, App) else x.pred
        cls = getattr(refdemod, type(x).__name__)
        return cls(head, tuple(to_ref(a) for a in x.args))
    if isinstance(x, (demod.ForAll, demod.Exists)):
        cls = getattr(refdemod, type(x).__name__)
        return cls(to_ref(x.var), to_ref(x.body))
    if isinstance(x, (demod.And, demod.Or, demod.Imp)):
        cls = getattr(refdemod, type(x).__name__)
        return cls(to_ref(x.left), to_ref(x.right))
    if isinstance(x, demod.Hole):
        return refdemod.Hole(x.sort)
    return refdemod.TOP if isinstance(x, demod.Top) else refdemod.BOT


def printed(sol):
    """A substitution as an ordered list of printed bindings."""
    if sol is None:
        return None
    return [(repr(v), repr(t)) for v, t in sol.items()]


def ref_theory(name):
    return refdemod.load_builtin(name)


# ---------------------------------------------------------------------------
# Syntactic unification: the identical mgu, bindings in the same order

NAT_VARS = [Var(n, "nat") for n in ("x", "y", "z")]
LEAVES = st.sampled_from([App("0"), *NAT_VARS, Var("w", "elem")])
TERMS = st.recursive(
    LEAVES,
    lambda kids: st.builds(lambda a: App("S", (a,)), kids)
    | st.builds(lambda a, b: App("plus", (a, b)), kids, kids),
    max_leaves=8)
SHALLOW = [App("0"), Var("w", "elem"), *NAT_VARS,
           *(App("S", (v,)) for v in NAT_VARS)]


@given(TERMS, TERMS)
@settings(max_examples=300, deadline=None)
def test_unify_syntactic_matches_reference(a, b):
    # shared variables give occurs-check failures, w:elem sort clashes
    got = unify_syntactic(a, b)
    want = refdemod.unify_syntactic(to_ref(a), to_ref(b))
    assert printed(got) == printed(want)


@given(TERMS, TERMS, TERMS, TERMS)
@settings(max_examples=100, deadline=None)
def test_unify_atom_pairs_matches_reference(a, b, c, d):
    got = unify_syntactic(Atom("P", (a, b)), Atom("P", (c, d)))
    want = refdemod.unify_syntactic(refdemod.Atom("P", (to_ref(a), to_ref(b))),
                                    refdemod.Atom("P", (to_ref(c), to_ref(d))))
    assert printed(got) == printed(want)


def test_unify_all_small_argument_lists_match_reference():
    # every pair of two-argument lists over a small alphabet: the second
    # pair often meets a variable the first one bound
    for left in itertools.product(SHALLOW, repeat=2):
        for right in itertools.product(SHALLOW, repeat=2):
            a, b = App("g", left), App("g", right)
            assert printed(unify_syntactic(a, b)) \
                == printed(refdemod.unify_syntactic(to_ref(a), to_ref(b)))


def test_unify_hand_picked_cases_match_reference():
    x, y, z = (Var(n, "nat") for n in "xyz")
    w = Var("w", "elem")
    s = lambda t: App("S", (t,))
    cases = [
        (x, s(x)),                                     # occurs check
        (x, w),                                        # sort clash
        (App("0"), s(x)),                              # symbol clash
        # y is bound when the second pair meets it: orientation matters
        (App("plus", (s(x), s(z))), App("plus", (y, y))),
        (App("plus", (y, y)), App("plus", (s(x), s(z)))),
    ]
    for a, b in cases:
        assert printed(unify_syntactic(a, b)) \
            == printed(refdemod.unify_syntactic(to_ref(a), to_ref(b)))


# ---------------------------------------------------------------------------
# Narrowing: the same solutions, in the same order, and the same flag


def _narrow_both(theory, ref, a, b, depth, cap=4):
    got = narrow_unify(UnificationProblem.of([(a, b)], theory.system),
                       depth=depth, cap=cap)
    want = refdemod.narrow_unify(
        refdemod.UnificationProblem.of([(to_ref(a), to_ref(b))], ref.system),
        depth=depth, cap=cap)
    return got, want


@pytest.mark.parametrize("name,sort", [("addition", "nat"),
                                       ("assoc", "elem")])
@given(seed=st.integers(0, 10**6), depth=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_narrow_unify_matches_reference(name, sort, seed, depth):
    rng = random.Random(seed)
    sig = load_builtin(name).signature
    pool = tuple(Var(n, sort) for n in ("x", "y", "z"))
    a = random_term(rng, sig, sort, rng.randrange(1, 4), pool)
    b = random_term(rng, sig, sort, rng.randrange(1, 4), pool)
    got, want = _narrow_both(*_theories(name), a, b, depth)
    assert [printed(s) for s in got.solutions] \
        == [printed(s) for s in want.solutions]
    assert got.complete == want.complete


# Narrowing (f x y) against c takes two steps, x -> a and then y -> b, and
# the one state two steps deep is (c, c), which no rule narrows: at depth
# 2 the search is complete although that state lies at the bound.
TWO_STEPS = """sort s.
func a : s. func b : s. func c : s.
func f : s s -> s. func g : s -> s.
rule fa: (f a y) ~> (g y).
rule gb: (g b) ~> c.
"""


def _theories(name):
    if name != "two-steps":
        return load_builtin(name), ref_theory(name)
    ref = refdemod.parse_theory(TWO_STEPS)
    refdemod.validate_theory(ref)
    return demod.parsing.parse_theory(TWO_STEPS), ref


ASSOC_GOLDEN = ("assoc", "(plus a x:elem)", "(plus (plus a b) c)")
TWO_STEPS_GOLDEN = ("two-steps", "(f x:s y:s)", "c")


@pytest.mark.parametrize("depth", range(1, 7))
@pytest.mark.parametrize("name,left,right,cap", [
    (*ASSOC_GOLDEN, 16),
    # both sides share a variable that a narrowing step binds
    ("addition", "(plus x:nat z:nat)", "x:nat", 16),
    ("addition", "(S x:nat)", "(plus x:nat z:nat)", 16),
    (*TWO_STEPS_GOLDEN, 16),
    # (plus a b) narrows to (plus b a) and back, a state already seen: from
    # depth 2, where the cycle closes at the bound, the search is complete
    ("comm", "(plus a b)", "c", 16),
    # a cap of 1 is reached among the states at the bound, emitted after
    # the queue empties (assoc at depth 1, two-steps at depth 2)
    (*ASSOC_GOLDEN, 1), (*ASSOC_GOLDEN, 2),
    (*TWO_STEPS_GOLDEN, 1), (*TWO_STEPS_GOLDEN, 2),
])
def test_narrowing_goldens_match_reference(name, left, right, cap, depth):
    theory, ref = _theories(name)
    a = demod.parsing.parse_node(left, theory.signature)
    b = demod.parsing.parse_node(right, theory.signature)
    got, want = _narrow_both(theory, ref, a, b, depth=depth, cap=cap)
    assert [printed(s) for s in got.solutions] \
        == [printed(s) for s in want.solutions]
    assert got.complete == want.complete
    if name == "two-steps":
        assert got.complete == (depth >= 2 and cap > 1)
        assert len(got.solutions) == (depth >= 2)
    if name == "comm":
        assert got.complete == (depth >= 2)


# ---------------------------------------------------------------------------
# Validation: the same critical pairs in the same order and the same
# report lines, but for non-confusion, which demod may refuse more often

VAL_SIG = make_signature(
    ["s"], {"a": ([], "s"), "b": ([], "s"), "g": (["s"], "s"),
            "f": (["s", "s"], "s")},
    {"P": ["s"], "Q": ["s"], "R": ["s"]})
VAL_VARS = tuple(Var(n, "s") for n in "xyz")
VAL_PRECEDENCE = [*VAL_SIG.functions, *VAL_SIG.predicates]


def random_system(rng):
    """Two to five rules over few head symbols, so that left-hand sides
    share heads and overlap: term rules on f or g, proposition rules on
    P or Q.  An atom reduct is on R, which no rule rewrites."""
    rules = []
    for i in range(rng.randrange(2, 6)):
        if rng.random() < 0.6:
            fn = rng.choice("fg")
            lhs = App(fn, tuple(
                random_term(rng, VAL_SIG, "s", rng.randrange(3), VAL_VARS)
                for _ in VAL_SIG.functions[fn][0]))
        else:
            lhs = Atom(rng.choice("PQ"), (
                random_term(rng, VAL_SIG, "s", rng.randrange(3), VAL_VARS),))
        pool = tuple(sorted(free_vars(lhs), key=lambda v: v.name))
        arg = lambda: random_term(rng, VAL_SIG, "s", rng.randrange(3), pool)
        if isinstance(lhs, App):
            rhs = arg()
        else:
            sub = lambda: Atom(rng.choice("PQR"), (arg(),))
            rhs = rng.choice([Atom("R", (arg(),)), TOP, BOT, And(sub(), sub()),
                              Or(sub(), sub()), Imp(sub(), sub())])
        rules.append(RewriteRule(f"r{i}", lhs, rhs))
    return RewriteSystem(rules)


def printed_pairs(pairs, show=print_node):
    return [(show(cp.peak), show(cp.left), show(cp.right), cp.position,
             cp.inner_rule, cp.outer_rule) for cp in pairs]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_validation_matches_reference(seed):
    rs = random_system(random.Random(seed))
    ref_rs = refdemod.RewriteSystem([
        refdemod.RewriteRule(r.name, to_ref(r.lhs), to_ref(r.rhs))
        for r in rs.rules])
    assert printed_pairs(critical_pairs(rs)) \
        == printed_pairs(refdemod.critical_pairs(ref_rs), refdemod.print_node)
    # the reference pairs only overlapping rules, which misses a term
    # rule turning one rule's instance into another's: demod never
    # accepts a system the reference refuses
    assert refdemod.check_nonconfusing(ref_rs) or not check_nonconfusing(rs)
    # a looping system can grow a critical pair's reduct past the
    # recursion limit within the default fuel: report on terminating ones
    if check_termination_lpo(rs, VAL_PRECEDENCE):
        sig = refdemod.make_signature(VAL_SIG.sorts, VAL_SIG.functions,
                                      VAL_SIG.predicates)
        got = Theory("random", VAL_SIG, rs).report.lines()
        want = refdemod.validate_theory(
            refdemod.Theory("random", sig, ref_rs)).lines()
        yes = "non-confusing: yes"
        assert yes in want or yes not in got
        assert [line for line in got if not line.startswith("non-conf")] \
            == [line for line in want if not line.startswith("non-conf")]


def test_random_systems_have_critical_pairs():
    # every builtin, corpus and benchmark theory together has only two
    systems = [random_system(random.Random(seed)) for seed in range(200)]
    with_pairs = [rs for rs in systems if critical_pairs(rs)]
    assert len(with_pairs) >= 100
    # an outer rule with overlaps by two inner rules: their order shows
    assert sum(len({(cp.outer_rule, cp.inner_rule)
                    for cp in critical_pairs(rs)})
               > len({cp.outer_rule for cp in critical_pairs(rs)})
               for rs in with_pairs) >= 20
    assert not all(check_nonconfusing(rs) for rs in systems)


# ---------------------------------------------------------------------------
# Proof search: the same tree, so the same verdict, node count and proof


def _atom_theories(n):
    preds = {name: [] for name in "ABCDEF"[:n]}
    sig = make_signature(["iota"], {}, preds)
    ref_sig = refdemod.make_signature(["iota"], {}, preds)
    return (Theory("atoms", sig, RewriteSystem([])),
            refdemod.Theory("atoms", ref_sig, refdemod.RewriteSystem([])))


@given(seed=st.integers(0, 10**6), atoms=st.sampled_from([4, 5, 6, None]),
       depth=st.integers(3, 7))
@settings(max_examples=150, deadline=None)
def test_search_matches_reference(seed, atoms, depth):
    # atoms=None: a goal over def-conj, whose P rewrites to (and A B).
    # Hypotheses in front of the goal give the loop check work to do;
    # the node cap keeps the slowest draws short, and is part of the tree.
    rng = random.Random(seed)
    theory, ref = (_atom_theories(atoms) if atoms
                   else (load_builtin("def-conj"), ref_theory("def-conj")))
    prop = lambda d: random_prop(rng, theory.signature, d, quantifiers=False)
    goal = prop(rng.randrange(3))
    for _ in range(rng.randrange(4)):
        goal = Imp(prop(rng.randrange(1, 4)), goal)
    got = demod.search_proof(theory, goal, depth=depth, node_cap=2000)
    want = refdemod.search_proof(ref, to_ref(goal), depth=depth,
                                 node_cap=2000)
    assert got.status == want.status
    assert got.stats.nodes == want.stats.nodes
    if got.proved:
        assert demod.parsing.print_proof(got.proof) \
            == refdemod.print_proof(want.proof)


# ---------------------------------------------------------------------------
# Positions and innermost normalization


def recursive_positions(x, pos=()):
    yield pos, x
    for i, c in enumerate(children(x)):
        yield from recursive_positions(c, pos + (i,))


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_positions_is_recursive_preorder(seed):
    rng = random.Random(seed)
    sig = load_builtin("addition").signature
    p = random_prop(rng, sig, 4)
    assert list(positions(p)) == list(recursive_positions(p))
    assert [q for q, _ in positions(p)] \
        == [q for q, _ in ref_positions(to_ref(p))]


def _normal_form_or_message(norm, rs, x, fuel):
    try:
        nf = norm(rs, x, fuel)
    except Exception as e:   # FuelExhausted of either package
        assert type(e).__name__ == "FuelExhausted"
        return "fuel", str(e), e.steps
    return repr(nf.value), nf.steps


@pytest.mark.parametrize("name", ["addition", "assoc", "def-conj",
                                  "powerset", "p0-forall", "pf-collapse",
                                  "crabbe", "comm"])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_normalize_matches_reference(name, seed):
    rng = random.Random(seed)
    theory, ref = load_builtin(name), ref_theory(name)
    sig = theory.signature
    sort = sorted(sig.sorts)[0] if sig.sorts else None
    pool = tuple(Var(n, s) for n in ("x", "y") for s in sorted(sig.sorts))
    if sort is not None and rng.random() < 0.4:
        x = random_term(rng, sig, sort, rng.randrange(4), pool)
    else:
        x = random_prop(rng, sig, rng.randrange(4), pool)
    fuel = rng.choice([1, 3, 20, 200])
    got = _normal_form_or_message(normalize, theory.system, x, fuel)
    want = _normal_form_or_message(refdemod.normalize, ref.system,
                                   to_ref(x), fuel)
    assert got == want


def test_normalize_returns_same_object_when_normal(addition):
    t = App("S", (App("plus", (Var("x", "nat"), App("0"))),))
    assert normalize(addition.system, t).value is t


@pytest.mark.parametrize("name,text", [
    ("comm", "(plus (plus a b) (plus c a))"),
    # the reduct (plus (plus x y) z) runs dry inside (plus x y): the
    # message shows z instantiated
    ("assoc", "(plus a (plus (plus b c) (plus d e)))"),
    ("addition", "(plus (S (S 0)) (plus (S 0) (S 0)))"),
])
@pytest.mark.parametrize("fuel", [1, 2, 3, 7])
def test_fuel_message_matches_reference(name, text, fuel):
    theory, ref = load_builtin(name), ref_theory(name)
    t = demod.parsing.parse_node(text, theory.signature)
    got = _normal_form_or_message(normalize, theory.system, t, fuel)
    want = _normal_form_or_message(refdemod.normalize, ref.system,
                                   to_ref(t), fuel)
    assert got == want


def test_deep_sum_normalizes_in_steps(addition):
    # S^k(0)+S^k(0) takes k+1 steps; the bottom-up pass has no rescans
    k = 300
    n = App("0")
    for _ in range(k):
        n = App("S", (n,))
    nf = normalize(addition.system, App("plus", (n, n)))
    assert nf.steps == k + 1

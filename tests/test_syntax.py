import copy
import dataclasses
import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from demod import (
    And, App, Atom, BOT, Exists, ForAll, Imp, Or, Proof, RewriteRule,
    RewriteSystem, Sequent, TOP, Theory, Var, alpha_eq, alpha_key,
    apply_subst, check_proof, compose, free_vars, fresh_var, load_builtin,
    make_signature, print_prop, print_term, search_proof, term_sort,
    wellformed,
)
from demod.errors import ProofError, SortError, TheoryError
from demod.syntax import (
    QUANT, Bottom, Hole, Top, children, positions, replace_at,
    with_children,
)

from conftest import random_prop, random_term


@pytest.fixture
def sig():
    return load_builtin("addition").signature


def v(name, sort="nat"):
    return Var(name, sort)


class TestSignature:
    def test_reserved_identifier_rejected(self):
        with pytest.raises(Exception):
            make_signature(["s"], {"and": ([], "s")}, {})

    def test_unknown_sort_rejected(self):
        with pytest.raises(Exception):
            make_signature(["s"], {"f": (["t"], "s")}, {})

    def test_term_sort(self, sig):
        t = App("plus", (App("0"), App("S", (App("0"),))))
        assert term_sort(sig, t) == "nat"


class TestWellformed:
    def test_ok(self, sig):
        t = App("plus", (v("x"), App("0")))
        assert wellformed(sig, t) is None

    def test_arity_error_path(self, sig):
        bad = App("plus", (App("0"),))
        with pytest.raises(SortError) as e:
            wellformed(sig, bad)
        assert str(e.value) == "plus expects 2 arguments, got 1"

    def test_sort_error_deep(self, sig):
        bad = App("S", (App("plus", (v("x", "wrong"), App("0"))),))
        with pytest.raises(SortError) as e:
            wellformed(sig, bad)
        assert str(e.value) == "undeclared sort 'wrong'"

    @pytest.mark.parametrize("bad,message", [
        (App("plus", (App("S"), v("x", "wrong"))),
         "S expects 1 arguments, got 0"),
        (App("plus", (v("x", "wrong"), App("S"))), "undeclared sort 'wrong'"),
        (App("plus", (App("S", (v("x", "wrong"),)), App("f"))),
         "undeclared sort 'wrong'"),
        (App("S", (App("plus", (App("0"),)),)),
         "plus expects 2 arguments, got 1"),
        (Imp(Atom("P", (App("S"),)), Atom("Q")),
         "S expects 1 arguments, got 0"),
        (Or(Atom("Q"), Atom("P", ())), "unknown predicate 'Q'"),
        (And(TOP, Atom("P", (App("g"),))), "unknown function 'g'"),
        (ForAll(v("y", "wrong"), Atom("P", ())), "undeclared sort 'wrong'"),
    ])
    def test_first_offending_node(self, sig, bad, message):
        with pytest.raises(SortError) as e:
            wellformed(sig, bad)
        assert str(e.value) == message

    def test_prop_checked(self, sig):
        assert wellformed(sig, Atom("P", (App("0"),))) is None
        with pytest.raises(SortError) as e:
            wellformed(sig, Atom("P", ()))
        assert str(e.value) == "P expects 1 arguments, got 0"


class TestIllFormedInput:
    """The message of each caller of ``wellformed``, under addition."""

    BAD_HYP = Atom("P", ())
    BAD_GOAL = Atom("P", (App("S", (App("plus", (v("x", "wrong"),
                                                 App("0"))),)),))

    @pytest.mark.parametrize("context,goal,message", [
        ((("h", BAD_HYP),), Atom("P", (App("0"),)),
         "hypothesis: P expects 1 arguments, got 0"),
        ((), BAD_GOAL, "goal: undeclared sort 'wrong'"),
    ])
    def test_checker_and_prover(self, context, goal, message):
        addition = load_builtin("addition")
        sequent = Sequent(context, goal)
        with pytest.raises(ProofError) as e:
            check_proof(addition, Proof("axiom", label="h"), sequent)
        assert str(e.value) == "ill-formed " + message
        with pytest.raises(TheoryError) as e:
            search_proof(addition, sequent, depth=4)
        assert str(e.value) == "malformed " + message

    def test_theory(self, sig):
        rule = RewriteRule("r", App("S", (App("plus", (v("x"),)),)), App("0"))
        with pytest.raises(TheoryError) as e:
            Theory("t", sig, RewriteSystem([rule]))
        assert str(e.value) == \
            "rule r: ill-formed (S (plus x)): plus expects 2 arguments, got 1"


class TestSubstitution:
    def test_basic(self, sig):
        t = App("plus", (v("x"), v("y")))
        s = {v("x"): App("0")}
        assert apply_subst(s, t) == App("plus", (App("0"), v("y")))

    def test_capture_avoided(self):
        # substituting y under a binder named y must rename the binder
        x, y = v("x", "nat"), v("y", "nat")
        p = ForAll(y, Atom("P", (App("plus", (x, y)),)))
        q = apply_subst({x: y}, p)
        assert q.var != y
        assert free_vars(q) == {y}

    def test_compose_law(self, rng, sig):
        # apply(compose(s1, s2), t) == apply(s2, apply(s1, t))
        for _ in range(200):
            pool = (v("x"), v("y"), v("z"))
            t = random_term(rng, sig, "nat", 3, pool)
            s1 = {v("x"): random_term(rng, sig, "nat", 2, (v("y"),))}
            s2 = {v("y"): random_term(rng, sig, "nat", 2, (v("z"),))}
            lhs = apply_subst(compose(s1, s2), t)
            rhs = apply_subst(s2, apply_subst(s1, t))
            assert alpha_eq(lhs, rhs)

    def test_fresh_var_avoids(self):
        f = fresh_var(v("x"), {"x", "x_1"})
        assert f.name not in {"x", "x_1"}
        assert f.sort == "nat"


# Random propositions whose binders share a two-name pool, so that
# shadowing and capture occur, judged against a de Bruijn conversion.


def quantified(prefix, body):
    for q, name in reversed(prefix):
        body = q(v(name), body)
    return body


_terms = st.recursive(
    st.one_of(st.just(App("0")), st.sampled_from("xyz").map(v)),
    lambda t: t.map(lambda a: App("S", (a,))), max_leaves=2)
_props = st.recursive(
    st.one_of(st.just(TOP),
              st.builds(lambda a, b: Atom("Q", (a, b)), _terms, _terms)),
    lambda p: st.one_of(
        st.builds(quantified,
                  st.lists(st.tuples(st.sampled_from(QUANT),
                                     st.sampled_from("xy")),
                           min_size=1, max_size=3), p),
        st.builds(lambda c, l, r: c(l, r),
                  st.sampled_from((And, Imp)), p, p)),
    max_leaves=4)


def de_bruijn(x, env=()):
    """Nameless form: a bound variable is the index of its binder,
    counted from the innermost one; ``env`` lists the binders in scope,
    innermost first."""
    if isinstance(x, Var):
        return ("bound", env.index(x)) if x in env else ("free", x)
    if isinstance(x, (App, Atom)):
        head = x.fn if isinstance(x, App) else x.pred
        return (type(x).__name__, head,
                tuple(de_bruijn(a, env) for a in x.args))
    if isinstance(x, QUANT):
        return (type(x).__name__, x.var.sort,
                de_bruijn(x.body, (x.var,) + env))
    if isinstance(x, (And, Or, Imp)):
        return (type(x).__name__, de_bruijn(x.left, env),
                de_bruijn(x.right, env))
    return type(x).__name__


def rename_binders(x, names, env=None):
    """Every binder renamed to the next of ``names``, and its bound
    occurrences with it; free variables are kept, so a reused name may
    capture one."""
    env = env or {}
    if isinstance(x, Var):
        return env.get(x, x)
    if isinstance(x, (App, Atom)):
        return type(x)(x.fn if isinstance(x, App) else x.pred,
                       tuple(rename_binders(a, names, env) for a in x.args))
    if isinstance(x, QUANT):
        y = Var(next(names), x.var.sort)
        return type(x)(y, rename_binders(x.body, names, {**env, x.var: y}))
    if isinstance(x, (And, Or, Imp)):
        return type(x)(rename_binders(x.left, names, env),
                       rename_binders(x.right, names, env))
    return x


def shadowed_pair():
    x, y = v("x"), v("y")
    return (ForAll(x, ForAll(x, Exists(y, Atom("Q", (x, y))))),
            ForAll(x, ForAll(x, Exists(y, Atom("Q", (y, x))))))


class TestAlpha:
    def test_renamed_binders_equal(self):
        x, y = v("x"), v("y")
        a = ForAll(x, Atom("P", (x,)))
        b = ForAll(y, Atom("P", (y,)))
        assert alpha_eq(a, b)
        assert alpha_key(a) == alpha_key(b)

    def test_free_variables_distinguish(self):
        assert not alpha_eq(Atom("P", (v("x"),)), Atom("P", (v("y"),)))

    def test_shadowed_binders(self):
        # under the inner x, x is the second binder and y the third
        a, b = shadowed_pair()
        assert not alpha_eq(a, b)
        assert alpha_key(a) != alpha_key(b)

    def test_hole_is_not_a_variable(self):
        a, b = Atom("P", (v("_"),)), Atom("P", (Hole("nat"),))
        assert not alpha_eq(a, b)
        assert alpha_key(a) != alpha_key(b)

    @given(_props, _props)
    @example(*shadowed_pair())
    @settings(max_examples=300)
    def test_agrees_with_de_bruijn(self, a, b):
        same = de_bruijn(a) == de_bruijn(b)
        assert alpha_eq(a, b) == same
        assert (alpha_key(a) == alpha_key(b)) == same

    @given(_props, st.lists(st.sampled_from("xyz"), min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_random_rename_invariance(self, p, pool):
        # fresh names keep the proposition alpha-equivalent
        fresh = rename_binders(p, (f"b{i}" for i in itertools.count()))
        assert alpha_eq(p, fresh)
        assert alpha_key(p) == alpha_key(fresh)
        # reused names may capture; then both must see the difference
        reused = rename_binders(p, itertools.cycle(pool))
        same = de_bruijn(p) == de_bruijn(reused)
        assert alpha_eq(p, reused) == same
        assert (alpha_key(p) == alpha_key(reused)) == same


class TestInterning:
    def test_one_object_per_name_and_sort(self):
        x = Var("x", "nat")
        assert Var("x", "nat") is x
        assert Var(name="x", sort="nat") is x
        assert Var("x", "elem") != x and Var("x", "elem") is not x
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert copy.deepcopy(Atom("P", (x,))).args[0] is x
        assert pickle.loads(pickle.dumps(x)) is x
        assert dataclasses.replace(x) is x
        assert dataclasses.replace(x, sort="elem") is Var("x", "elem")

    def test_slots_only(self):
        # the name and the sort live in slots: a Var has no __dict__
        x = Var("x", "nat")
        assert not hasattr(x, "__dict__")
        assert Var.__slots__ == ("name", "sort")
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.name = "y"

    def test_threads_get_one_object(self):
        # names no other test makes, so every thread races to insert them
        names = [f"intern_race_{i}" for i in range(1000)]
        start = threading.Barrier(4)
        made = [None] * 4

        def build(k):
            start.wait()
            made[k] = [Var(n, "nat") for n in names]

        threads = [threading.Thread(target=build, args=(k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads as often as it can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for vs in made[1:]:
            assert all(a is b for a, b in zip(made[0], vs))
        assert all(Var(n, "nat") is a for n, a in zip(names, made[0]))


class TestTraversal:
    def test_positions_outermost_first(self, sig):
        t = App("S", (App("plus", (App("0"), v("y"))),))
        pos = [p for p, _ in positions(t)]
        assert pos[0] == ()
        assert (0,) in pos and (0, 0) in pos

    def test_replace_then_fetch(self, sig):
        t = App("plus", (App("0"), v("y")))
        t2 = replace_at(t, (0,), App("S", (App("0"),)))
        assert children(t2)[0] == App("S", (App("0"),))


class TestPrinting:
    def test_term(self, sig):
        t = App("plus", (App("0"), App("S", (v("x"),))))
        assert print_term(t) == "(plus 0 (S x))"

    def test_prop(self, sig):
        p = Imp(Atom("P", (App("0"),)), BOT)
        assert print_prop(p) == "(imp (P 0) bot)"
        assert print_prop(Imp(TOP, BOT)) == "(imp top bot)"

    def test_quantifier(self):
        p = Exists(v("x"), Atom("P", (v("x"),)))
        assert print_prop(p) == "(exists (x : nat) (P x))"


@given(st.integers(0, 10**6))
@settings(max_examples=50)
def test_alpha_key_deterministic(seed):
    rng = random.Random(seed)
    sig = load_builtin("addition").signature
    p = random_prop(rng, sig, 3)
    assert alpha_key(p) == alpha_key(p)


def rebuild(x):
    """A copy of the same structure made of new node objects, so nothing
    is cached on it yet."""
    if isinstance(x, Var):
        return Var(x.name, x.sort)
    if isinstance(x, Hole):
        return Hole(x.sort)
    if isinstance(x, (Top, Bottom)):
        return type(x)()
    if isinstance(x, QUANT):
        return type(x)(rebuild(x.var), rebuild(x.body))
    return with_children(x, tuple(rebuild(c) for c in children(x)))


def warm(x):
    """Ask for the cached values of every node of ``x``, and of an
    instance of it that shares most of its nodes."""
    for _, node in positions(x):
        alpha_key(node)
        free_vars(node)
    inst = apply_subst({v("x"): App("S", (v("y"),))}, x)
    for _, node in positions(inst):
        alpha_key(node)
        free_vars(node)


def random_node(seed):
    rng = random.Random(seed)
    sig = load_builtin("addition").signature
    pool = (v("x"), v("y"), v("z"))
    if rng.random() < 0.3:
        return random_term(rng, sig, "nat", 4, pool)
    return random_prop(rng, sig, 4, pool)


@given(st.integers(0, 10**6))
@settings(max_examples=100)
def test_cached_values_match_a_fresh_copy(seed):
    x = random_node(seed)
    warm(x)
    for _, node in positions(x):
        fresh = rebuild(node)
        # a Var is interned, and nothing is cached on one
        assert fresh is not node or isinstance(node, Var)
        assert alpha_key(node) == alpha_key(fresh)
        assert free_vars(node) == free_vars(fresh)


@given(st.integers(0, 10**6))
@settings(max_examples=100)
def test_warm_cache_is_invisible(seed):
    x = random_node(seed)
    fresh = rebuild(x)
    before = (hash(x), repr(x), dataclasses.astuple(x),
              tuple(f.name for f in dataclasses.fields(x)))
    warm(x)
    after = (hash(x), repr(x), dataclasses.astuple(x),
             tuple(f.name for f in dataclasses.fields(x)))
    assert after == before
    assert x == fresh and fresh == x
    assert hash(fresh) == hash(x)
    assert repr(fresh) == repr(x)
    assert dataclasses.astuple(fresh) == dataclasses.astuple(x)


@given(st.integers(0, 10**6))
@settings(max_examples=200)
def test_substitution_keeps_untouched_nodes(seed):
    # nothing free in p is substituted, not even a variable that p binds
    # or one in the range: p itself comes back, and so its cached keys
    rng = random.Random(seed)
    sig = load_builtin("addition").signature
    pool = (v("x"), v("y"), v("z"), v("u"))
    p = random_prop(rng, sig, rng.randrange(5), pool[:2])
    bound = [n.var for _, n in positions(p) if isinstance(n, QUANT)]
    domain = [w for w in (*pool, *bound) if w not in free_vars(p)]
    s = {w: random_term(rng, sig, "nat", 2, pool) for w in domain
         if rng.random() < 0.7}
    assert apply_subst(s, p) is p
    for _, node in positions(p):
        if free_vars(node).isdisjoint(s):
            assert apply_subst(s, node) is node


def test_values_are_computed_once():
    x, y = v("x"), v("y")
    p = ForAll(x, Imp(Atom("P", (App("plus", (x, y)),)), BOT))
    assert alpha_key(p) is alpha_key(p)
    assert free_vars(p) is free_vars(p)
    assert free_vars(p) == {y}

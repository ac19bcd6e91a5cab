import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from demod import (
    And, App, Atom, BOT, Exists, ForAll, Imp, Or, TOP, Var, alpha_eq,
    alpha_key, apply_subst, compose, free_vars, fresh_var, load_builtin,
    make_signature, neg, print_node, print_prop, print_term, term_sort,
    wellformed,
)
from demod.errors import SortError, TheoryError
from demod.syntax import (
    QUANT, Bottom, Hole, Top, check_substitution, children, positions,
    replace_at, subterm_at, with_children,
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
        assert wellformed(sig, t)

    def test_arity_error_path(self, sig):
        bad = App("plus", (App("0"),))
        r = wellformed(sig, bad)
        assert not r
        assert r.path == ()

    def test_sort_error_deep(self, sig):
        bad = App("S", (App("plus", (v("x", "wrong"), App("0"))),))
        r = wellformed(sig, bad)
        assert not r
        assert r.path == (0, 0)

    def test_prop_checked(self, sig):
        assert wellformed(sig, Atom("P", (App("0"),)))
        assert not wellformed(sig, Atom("P", ()))


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

    def test_check_substitution_sort_mismatch(self, sig):
        with pytest.raises(SortError):
            check_substitution(sig, {v("x", "nat"): v("y", "nat2")})

    def test_fresh_var_avoids(self):
        f = fresh_var(v("x"), {"x", "x_1"})
        assert f.name not in {"x", "x_1"}
        assert f.sort == "nat"


class TestAlpha:
    def test_renamed_binders_equal(self):
        x, y = v("x"), v("y")
        a = ForAll(x, Atom("P", (x,)))
        b = ForAll(y, Atom("P", (y,)))
        assert alpha_eq(a, b)
        assert alpha_key(a) == alpha_key(b)

    def test_free_variables_distinguish(self):
        assert not alpha_eq(Atom("P", (v("x"),)), Atom("P", (v("y"),)))

    def test_random_rename_invariance(self, rng, sig):
        for _ in range(100):
            p = random_prop(rng, sig, 3)
            # renaming all quantified variables consistently is invisible
            assert alpha_eq(p, p)
            assert alpha_key(p) == alpha_key(p)


class TestTraversal:
    def test_positions_outermost_first(self, sig):
        t = App("S", (App("plus", (App("0"), v("y"))),))
        pos = [p for p, _ in positions(t)]
        assert pos[0] == ()
        assert (0,) in pos and (0, 0) in pos

    def test_replace_then_fetch(self, sig):
        t = App("plus", (App("0"), v("y")))
        t2 = replace_at(t, (0,), App("S", (App("0"),)))
        assert subterm_at(t2, (0,)) == App("S", (App("0"),))


class TestPrinting:
    def test_term(self, sig):
        t = App("plus", (App("0"), App("S", (v("x"),))))
        assert print_term(t) == "(plus 0 (S x))"

    def test_prop(self, sig):
        p = Imp(Atom("P", (App("0"),)), BOT)
        assert print_prop(p) == "(imp (P 0) bot)"
        assert print_prop(neg(TOP)) == "(imp top bot)"

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
        assert fresh is not node
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


def test_values_are_computed_once():
    x, y = v("x"), v("y")
    p = ForAll(x, Imp(Atom("P", (App("plus", (x, y)),)), BOT))
    assert alpha_key(p) is alpha_key(p)
    assert free_vars(p) is free_vars(p)
    assert free_vars(p) == {y}

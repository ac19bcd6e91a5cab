"""Bounded cut-free proof search modulo the congruence.

Goal-directed intuitionistic search over introduction rules and
hypothesis eliminations, emitting kernel-checkable natural deduction
trees.  Existential witnesses and universal instantiations are delayed
metavariables, resolved at branch closure by equational unification
(narrowing).  Depth counts rule applications on a branch, so failure at
a bound is decidable; exploration is leftmost-first and deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import is_
from typing import Iterator, Optional

from .errors import FuelExhausted, SortError, TheoryError
from .kernel import (
    Proof, Sequent, _Session, check_proof, find_cuts, subst_hyp,
)
from .rewriting import DEFAULT_FUEL
from .syntax import (
    And, Atom, BOT, Bottom, Exists, ForAll, Imp, Or, Proposition, Subst,
    Top, Var, alpha_key, apply_subst, compose, free_vars, positions,
    wellformed,
)
from .theories import Theory
from .unification import UnificationProblem, narrow_unify

META_PREFIX = "?m"


def _is_meta(v: Var) -> bool:
    return v.name.startswith(META_PREFIX)


def _has_meta(x) -> bool:
    return any(map(_is_meta, free_vars(x)))


def _axiom(label: str) -> Proof:
    return Proof("axiom", label=label)


@dataclass
class SearchStats:
    nodes: int = 0
    narrowing_calls: int = 0


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "proved" | "fail" | "bound-exceeded"
    proof: Optional[Proof]
    stats: SearchStats

    @property
    def proved(self) -> bool:
        return self.status == "proved"


class _Search:
    def __init__(self, theory: Theory, fuel: int,
                 narrow_depth: int, narrow_cap: int, node_cap: int):
        self.rs = theory.system
        # exposed heads that differ can still be bridged by proposition
        # rules, tried in a system not known to be convergent only
        self.bridges = not self.rs.convergent and bool(self.rs.prop_rules)
        self.session = _Session(self.rs, fuel)
        self.fuel = fuel
        self.narrow_depth = narrow_depth
        self.narrow_cap = narrow_cap
        self.stats = SearchStats()
        self.node_cap = node_cap
        self.hit_bound = False
        self.counter = 0
        # metavariable -> eigenvariables already in scope at its creation;
        # a solution may not mention any later eigenvariable
        self.meta_scope: dict[str, frozenset[str]] = {}
        self.eigens: set[str] = set()

    # -- fresh names ------------------------------------------------------

    def fresh_meta(self, sort: str) -> Var:
        self.counter += 1
        m = Var(f"{META_PREFIX}{self.counter}", sort)
        self.meta_scope[m.name] = frozenset(self.eigens)
        return m

    def fresh_eigen(self, base: Var, ctx, goal: Proposition) -> Var:
        """A fresh eigenvariable: no name free in the sequent."""
        avoid = {v.name for e in ctx.views for v in free_vars(e.hyp)}
        avoid |= {v.name for v in free_vars(goal)}
        self.counter += 1
        y = Var(f"{base.name}_{self.counter}", base.sort)
        while y.name in avoid:
            self.counter += 1
            y = Var(f"{base.name}_{self.counter}", base.sort)
        self.eigens.add(y.name)
        return y

    def fresh_label(self) -> str:
        self.counter += 1
        return f"_h{self.counter}"

    # -- scope discipline for narrowing solutions -------------------------

    def scope_ok(self, sol: Subst) -> bool:
        for v, t in sol.items():
            if not _is_meta(v):
                continue
            allowed = self.meta_scope.get(v.name, frozenset())
            for w in free_vars(t):
                if w.name in self.eigens and w.name not in allowed:
                    return False
        return True

    # -- closure ----------------------------------------------------------

    def close(self, hyp: Proposition, goal: Proposition,
              s: Subst) -> Iterator[Subst]:
        """Narrowing solutions making hypothesis and goal congruent."""
        try:
            problem = UnificationProblem.of([(hyp, goal)], self.rs, self.fuel)
        except ValueError:
            # binders, which the search decomposes first, or shapes that
            # only a proposition rule could bridge: space left unexplored
            self.hit_bound = True
            return
        if problem is None:
            return
        self.stats.narrowing_calls += 1
        stream = narrow_unify(problem, self.narrow_depth, self.narrow_cap,
                              self.fuel)
        if not stream.complete:
            self.hit_bound = True
        for sol in stream.solutions:
            if self.scope_ok(sol):
                yield compose(s, sol)

    # -- the engine -------------------------------------------------------

    def prove(self, ctx, goal, depth, s,
              path) -> Iterator[tuple[Proof, Subst]]:
        """ctx: a ``_Context``, rebuilt if built under another ``s``.
        path: set of (goal key, context key) of the sequents open on this
        branch; a node leaves it while it yields to its parent."""
        self.stats.nodes += 1
        if self.stats.nodes > self.node_cap:
            self.hit_bound = True
            return
        goal = self.session.expose(apply_subst(s, goal))
        if ctx.s is not s:
            ctx = ctx.under(s)

        # loop check: a sequent repeating an ancestor is redundant (the
        # ancestor, which has more depth, subsumes it)
        key = (alpha_key(goal), ctx.key)
        if key in path:
            return
        path.add(key)
        for result in self._expand(ctx, goal, depth, s, path):
            path.remove(key)
            yield result
            path.add(key)
        path.remove(key)

    def _expand(self, ctx, goal, depth, s, path):
        # close on a hypothesis (see ``bridges``); introduce; eliminate
        goal_meta = None
        for view in ctx.views:
            h = view.exposed
            if h is None:
                h = view.exposed = self.session.expose(view.inst)
            if type(h) is not type(goal) and not self.bridges:
                continue
            if view.meta is None:
                view.meta = _has_meta(h)
            if not view.meta and goal_meta is None:
                goal_meta = _has_meta(goal)
            if view.meta or goal_meta:
                for s2 in self.close(h, goal, s):
                    yield _axiom(view.label), s2
                continue
            try:
                if self.session.congruent(h, goal):
                    yield _axiom(view.label), s
            except FuelExhausted:
                self.hit_bound = True

        if depth <= 0:
            self.hit_bound = True
            return

        if isinstance(goal, Top):
            yield Proof("top_i"), s
        elif isinstance(goal, And):
            for pl, s1 in self.prove(ctx, goal.left, depth - 1, s, path):
                for pr, s2 in self.prove(ctx, goal.right, depth - 1, s1, path):
                    yield Proof("and_i", (pl, pr)), s2
        elif isinstance(goal, Or):
            for p, s1 in self.prove(ctx, goal.left, depth - 1, s, path):
                yield Proof("or_i1", (p,)), s1
            for p, s1 in self.prove(ctx, goal.right, depth - 1, s, path):
                yield Proof("or_i2", (p,)), s1
        elif isinstance(goal, Imp):
            label = self.fresh_label()
            for p, s1 in self.prove(ctx.plus((label, goal.left)),
                                    goal.right, depth - 1, s, path):
                yield Proof("imp_i", (p,), label=label), s1
        elif isinstance(goal, ForAll):
            y = self.fresh_eigen(goal.var, ctx, goal)
            body = apply_subst({goal.var: y}, goal.body)
            for p, s1 in self.prove(ctx, body, depth - 1, s, path):
                yield Proof("forall_i", (p,), eigen=y), s1
        elif isinstance(goal, Exists):
            m = self.fresh_meta(goal.var.sort)
            body = apply_subst({goal.var: m}, goal.body)
            for p, s1 in self.prove(ctx, body, depth - 1, s, path):
                yield Proof("exists_i", (p,), witness=m), s1
        yield from self._elim(ctx, goal, depth, s, path)

    def _elim(self, ctx, goal, depth, s, path):
        """Eliminations of the hypotheses, each view exposed by the node.
        The or_e and exists_e branches start with an empty path."""
        for i, view in enumerate(ctx.views):
            h = view.exposed
            if isinstance(h, (Atom, Top)):
                continue
            use = view.label   # made an axiom only in a proof found
            if isinstance(h, Bottom):
                yield Proof("bot_e", (_axiom(use),)), s
            elif isinstance(h, And):
                l1, l2 = self.fresh_label(), self.fresh_label()
                ctx2 = ctx.without(i).plus((l1, h.left), (l2, h.right))
                for p, s1 in self.prove(ctx2, goal, depth - 1, s, path):
                    p = subst_hyp(p, l1, Proof("and_e1", (_axiom(use),)))
                    p = subst_hyp(p, l2, Proof("and_e2", (_axiom(use),)))
                    yield p, s1
            elif isinstance(h, Imp):
                lb = self.fresh_label()
                for pm, s1 in self.prove(ctx, h.left, depth - 1, s, path):
                    ctx2 = ctx.under(s1).plus((lb, h.right))
                    for p, s2 in self.prove(ctx2, goal, depth - 1, s1, path):
                        yield subst_hyp(
                            p, lb, Proof("imp_e", (_axiom(use), pm))), s2
            elif isinstance(h, Or):
                l1, l2 = self.fresh_label(), self.fresh_label()
                base = ctx.without(i)
                for p1, s1 in self.prove(base.plus((l1, h.left)),
                                         goal, depth - 1, s, set()):
                    for p2, s2 in self.prove(
                            base.under(s1).plus((l2, h.right)),
                            goal, depth - 1, s1, set()):
                        yield Proof("or_e", (_axiom(use), p1, p2),
                                    label=l1, label2=l2), s2
            elif isinstance(h, ForAll):
                m = self.fresh_meta(h.var.sort)
                inst = apply_subst({h.var: m}, h.body)
                li = self.fresh_label()
                ctx2 = ctx.plus((li, inst))
                for p, s1 in self.prove(ctx2, goal, depth - 1, s, path):
                    yield subst_hyp(p, li, Proof(
                        "forall_e", (_axiom(use),),
                        witness=apply_subst(s1, m))), s1
            else:   # Exists
                y = self.fresh_eigen(h.var, ctx, goal)
                lb = self.fresh_label()
                inst = apply_subst({h.var: y}, h.body)
                for p, s1 in self.prove(ctx.without(i).plus((lb, inst)),
                                        goal, depth - 1, s, set()):
                    yield Proof("exists_e", (_axiom(use), p),
                                label=lb, eigen=y), s1


class _View:
    """A context entry: a labelled hypothesis, its instance under the
    context's substitution and the instance's ``alpha_key``; the exposed
    instance, and whether that has metavariables, once a node asks."""

    __slots__ = ("label", "hyp", "inst", "key", "exposed", "meta")

    def __init__(self, label: str, hyp: Proposition, s: Subst):
        self.label = label
        self.hyp = hyp
        self.inst = apply_subst(s, hyp)
        self.key = alpha_key(self.inst)
        self.exposed = self.meta = None   # asked for by a node


class _Context:
    """A sequent's hypotheses: their views, built under ``s`` and shared
    by branches until it changes, and the loop-check ``key``, the sorted
    tuple of their keys, derived when a hypothesis is added or dropped."""

    __slots__ = ("views", "s", "key")

    def __init__(self, views: list, s: Subst, key=None):
        self.views, self.s = views, s
        self.key = key or tuple(sorted([v.key for v in views]))

    def under(self, s: Subst) -> _Context:
        return self if s is self.s else _Context(
            [_View(v.label, v.hyp, s) for v in self.views], s)

    def plus(self, *hyps: tuple[str, Proposition]) -> _Context:
        added = [_View(label, h, self.s) for label, h in hyps]
        keys = list(self.key)
        for v in added:
            insort(keys, v.key)
        return _Context(self.views + added, self.s, tuple(keys))

    def without(self, i: int) -> _Context:
        k = bisect_left(self.key, self.views[i].key)
        return _Context(self.views[:i] + self.views[i + 1:], self.s,
                        self.key[:k] + self.key[k + 1:])


def _resolve_metas(p: Proof, s: Subst, leftovers: Subst, start: int) -> Proof:
    """Apply the final substitution to the witnesses, the only place a
    search proof holds metavariables, and name each metavariable still
    unconstrained ``w<n>`` for n after ``start``, in pre-order, left to
    right within a witness."""
    witness = p.witness
    if witness is not None:
        witness = apply_subst(s, witness)
        for _, v in positions(witness):
            if isinstance(v, Var) and _is_meta(v) and v not in leftovers:
                leftovers[v] = Var(f"w{start + len(leftovers) + 1}", v.sort)
        witness = apply_subst(leftovers, witness)
    kids = tuple([_resolve_metas(c, s, leftovers, start) for c in p.children])
    if witness is p.witness and all(map(is_, kids, p.children)):
        return p
    return p.copy_with(witness=witness, children=kids)


def search_proof(theory: Theory, goal: Sequent, depth: int = 8,
                 fuel: int = DEFAULT_FUEL, narrow_depth: int = 8,
                 narrow_cap: int = 16, node_cap: int = 50000) -> SearchOutcome:
    """Bounded goal-directed search for a cut-free proof of the sequent.

    Status "fail" means the bounded search space was fully exhausted;
    a bound hit anywhere (depth, node cap, narrowing or rewrite fuel)
    makes it "bound-exceeded"."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    if not theory.report.nonconfusing:
        raise TheoryError("theory is not non-confusing")
    if not isinstance(goal, Sequent):
        goal = Sequent((), goal)
    for what, x in [*(("hypothesis", h) for _, h in goal.context),
                    ("goal", goal.conclusion)]:
        try:
            wellformed(theory.signature, x)
        except SortError as e:
            raise TheoryError(f"malformed {what}: {e}") from None

    engine = _Search(theory, fuel, narrow_depth, narrow_cap, node_cap)
    root: Subst = {}   # one object: the root's views are not rebuilt
    ctx = _Context([], root).plus(*goal.context)
    for proof, s in engine.prove(ctx, goal.conclusion, depth, root, set()):
        proof = _resolve_metas(proof, s, {}, engine.counter)
        res = check_proof(theory, proof, goal, fuel)
        if not res.ok or find_cuts(res.proof):
            # defensive: skip an unsound candidate, which unsettles "fail"
            engine.hit_bound = True
            continue
        return SearchOutcome("proved", res.proof, engine.stats)
    status = "bound-exceeded" if engine.hit_bound else "fail"
    return SearchOutcome(status, None, engine.stats)


def consistency_probe(theory: Theory, depth: int = 10,
                      hypotheses=(), **kw) -> SearchOutcome:
    """Search for a proof of falsum; Fail is the consistency-at-bound
    verdict.  Extra hypotheses support probing an axiomatic presentation
    of the same theory."""
    goal = Sequent(tuple((f"hyp{i}", h) for i, h in enumerate(hypotheses)),
                   BOT)
    return search_proof(theory, goal, depth, **kw)

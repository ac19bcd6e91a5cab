"""Bounded cut-free proof search modulo the congruence.

Goal-directed intuitionistic search over introduction rules and
hypothesis eliminations, emitting kernel-checkable natural deduction
trees.  Existential witnesses and universal instantiations are delayed
metavariables, resolved at branch closure by equational unification
(narrowing).  Depth counts rule applications on a branch, so failure at
a bound is decidable; exploration is leftmost-first and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from operator import is_
from typing import Iterator, Optional

from .errors import FuelExhausted, TheoryError
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
    for v in free_vars(x):
        if _is_meta(v):
            return True
    return False


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
                 narrow_depth: int, narrow_cap: int,
                 node_cap: int = 50000):
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
        avoid = {v.name for e in ctx for v in free_vars(e.hyp)}
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
        """Ways of making hypothesis and goal congruent, possibly
        instantiating metavariables."""
        if not _has_meta(hyp) and not _has_meta(goal):
            try:
                if self.session.congruent(hyp, goal):
                    yield s
            except FuelExhausted:
                self.hit_bound = True
            return
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
        """ctx: list of ``_View``.  path: set of (goal key, sorted
        hypothesis keys) of the sequents open on this branch; a node
        leaves it while it yields to its parent."""
        self.stats.nodes += 1
        if self.stats.nodes > self.node_cap:
            self.hit_bound = True
            return
        goal = self.session.expose(apply_subst(s, goal))
        if any(e.s is not s for e in ctx):
            ctx = [e if e.s is s else _View(e.label, e.hyp, s) for e in ctx]

        # loop check: a sequent repeating an ancestor is redundant (the
        # ancestor, which has more depth, subsumes it)
        key = (alpha_key(goal), tuple(sorted([e.key for e in ctx])))
        if key in path:
            return
        path.add(key)
        for result in self._expand(ctx, goal, depth, s, path):
            path.remove(key)
            yield result
            path.add(key)
        path.remove(key)

    def _expand(self, ctx, goal, depth, s, path):
        # close the branch against a hypothesis; see ``bridges``
        exposed = []
        for view in ctx:
            h = view.exposed
            if h is None:
                h = view.exposed = self.session.expose(view.inst)
            exposed.append(h)
            if type(h) is type(goal) or self.bridges:
                for s2 in self.close(h, goal, s):
                    yield Proof("axiom", label=view.label), s2

        if depth <= 0:
            self.hit_bound = True
            return

        yield from self._intro(ctx, goal, depth, s, path)
        yield from self._elim(ctx, exposed, goal, depth, s, path)

    def _intro(self, ctx, goal, depth, s, path):
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
            ctx2 = ctx + [_View(label, goal.left, s)]
            for p, s1 in self.prove(ctx2, goal.right, depth - 1, s, path):
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

    def _elim(self, ctx, exposed, goal, depth, s, path):
        """Eliminations of the hypotheses, exposed under ``s``.  The or_e
        and exists_e branches start with an empty path."""
        for i, (view, h) in enumerate(zip(ctx, exposed)):
            if isinstance(h, (Atom, Top)):
                continue
            use = Proof("axiom", label=view.label)
            if isinstance(h, Bottom):
                yield Proof("bot_e", (use,)), s
            elif isinstance(h, And):
                l1, l2 = self.fresh_label(), self.fresh_label()
                ctx2 = ctx[:i] + ctx[i + 1:] + [_View(l1, h.left, s),
                                                 _View(l2, h.right, s)]
                for p, s1 in self.prove(ctx2, goal, depth - 1, s, path):
                    p = subst_hyp(p, l1, Proof("and_e1", (use,)))
                    p = subst_hyp(p, l2, Proof("and_e2", (use,)))
                    yield p, s1
            elif isinstance(h, Imp):
                lb = self.fresh_label()
                for pm, s1 in self.prove(ctx, h.left, depth - 1, s, path):
                    ctx2 = ctx + [_View(lb, h.right, s1)]
                    for p, s2 in self.prove(ctx2, goal, depth - 1, s1, path):
                        yield subst_hyp(
                            p, lb, Proof("imp_e", (use, pm))), s2
            elif isinstance(h, Or):
                l1, l2 = self.fresh_label(), self.fresh_label()
                base = ctx[:i] + ctx[i + 1:]
                for p1, s1 in self.prove(base + [_View(l1, h.left, s)],
                                         goal, depth - 1, s, set()):
                    for p2, s2 in self.prove(
                            base + [_View(l2, h.right, s1)],
                            goal, depth - 1, s1, set()):
                        yield Proof("or_e", (use, p1, p2),
                                    label=l1, label2=l2), s2
            elif isinstance(h, ForAll):
                m = self.fresh_meta(h.var.sort)
                inst = apply_subst({h.var: m}, h.body)
                li = self.fresh_label()
                ctx2 = ctx + [_View(li, inst, s)]
                for p, s1 in self.prove(ctx2, goal, depth - 1, s, path):
                    w = apply_subst(s1, m)
                    yield subst_hyp(
                        p, li, Proof("forall_e", (use,), witness=w)), s1
            else:   # Exists
                y = self.fresh_eigen(h.var, ctx, goal)
                lb = self.fresh_label()
                base = ctx[:i] + ctx[i + 1:]
                inst = apply_subst({h.var: y}, h.body)
                for p, s1 in self.prove(base + [_View(lb, inst, s)],
                                        goal, depth - 1, s, set()):
                    yield Proof("exists_e", (use, p),
                                label=lb, eigen=y), s1


class _View:
    """A context entry: a labelled hypothesis under ``s``, with its
    instance, the instance's ``alpha_key``, and its exposed form once a
    node asks.  Branches share it until the substitution changes."""

    __slots__ = ("label", "hyp", "s", "inst", "key", "exposed")

    def __init__(self, label: str, hyp: Proposition, s: Subst):
        self.label = label
        self.hyp = hyp
        self.s = s
        self.inst = apply_subst(s, hyp)
        self.key = alpha_key(self.inst)
        self.exposed: Optional[Proposition] = None


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
    return dc_replace(p, witness=witness, children=kids)


def search_proof(theory: Theory, goal: Sequent, depth: int = 8,
                 fuel: int = DEFAULT_FUEL, narrow_depth: int = 8,
                 narrow_cap: int = 16, node_cap: int = 50000) -> SearchOutcome:
    """Bounded goal-directed search for a cut-free proof of the sequent.

    Fail means the bounded search space was fully exhausted; a depth or
    narrowing bound hit anywhere downgrades that to BoundExceeded."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    if not theory.report.nonconfusing:
        raise TheoryError("theory is not non-confusing")
    if not isinstance(goal, Sequent):
        goal = Sequent((), goal)
    sig = theory.signature
    for _, h in goal.context:
        w = wellformed(sig, h)
        if not w:
            raise TheoryError(f"malformed hypothesis: {w.message}")
    w = wellformed(sig, goal.conclusion)
    if not w:
        raise TheoryError(f"malformed goal: {w.message}")

    engine = _Search(theory, fuel, narrow_depth, narrow_cap, node_cap)
    ctx = [_View(label, h, {}) for label, h in goal.context]
    for proof, s in engine.prove(ctx, goal.conclusion, depth, {}, set()):
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

"""The congruence engine: oriented rules, matching, normalization,
critical pairs, local confluence, LPO termination, non-confusion.

A rewrite system defines the congruence that every other module reasons
modulo.  Left-hand sides are either non-variable terms or atomic
propositions; proposition rules match a whole atom at its root, and deep
rewriting lets that atom sit anywhere inside a proposition.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import is_not
from typing import Optional

from .errors import FuelExhausted, RuleError
from .syntax import (
    App, Atom, CONNECTIVES, Hole, Node, Position, QUANT, Subst, Var,
    alpha_eq, alpha_key, apply_subst, children, free_vars, fresh_var,
    is_term, positions, print_node, replace_at, with_children,
)

DEFAULT_FUEL = 10000


@dataclass(frozen=True)
class RewriteRule:
    """An oriented rule.  Kind is inferred from the left-hand side:
    a non-variable term gives a term rule, an atom a proposition rule."""

    name: str
    lhs: Node
    rhs: Node

    def __post_init__(self):
        if isinstance(self.lhs, Var):
            raise RuleError(f"rule {self.name}: lhs must not be a variable")
        if isinstance(self.lhs, App):
            if not is_term(self.rhs):
                raise RuleError(f"rule {self.name}: term lhs needs a term rhs")
        elif isinstance(self.lhs, Atom):
            if is_term(self.rhs):
                raise RuleError(
                    f"rule {self.name}: proposition lhs needs a proposition rhs")
        else:
            raise RuleError(
                f"rule {self.name}: lhs must be a term or an atomic proposition")
        extra = free_vars(self.rhs) - free_vars(self.lhs)
        if extra:
            names = ", ".join(sorted(v.name for v in extra))
            raise RuleError(f"rule {self.name}: rhs has extra variables {names}")

    @property
    def is_term_rule(self) -> bool:
        return isinstance(self.lhs, App)


@dataclass(frozen=True)
class RewriteSystem:
    """Ordered rules, the user's ``assert terminating.``, and whether the
    system is convergent.  Only a Theory records ``convergent``, from its
    validation report; a system built by hand is never taken as convergent.

    Built once with the system: ``by_head``, the rules by the head symbol
    of their left-hand sides, in rule order, and ``prop_rules``.  Every
    place that pairs rules with nodes takes its rules from ``by_head``:
    redex search and normalization, narrowing steps and critical
    pairs."""

    rules: tuple[RewriteRule, ...] = ()
    asserted_terminating: bool = False
    convergent: bool = False

    def __post_init__(self):
        rules = tuple(self.rules)
        names = [r.name for r in rules]
        if len(names) != len(set(names)):
            raise RuleError("rule names must be unique")
        by_head: dict[str, list[RewriteRule]] = {}
        for r in rules:
            by_head.setdefault(_head(r.lhs), []).append(r)
        init = object.__setattr__   # a frozen instance refuses setattr
        init(self, "rules", rules)
        init(self, "by_head", by_head)
        init(self, "prop_rules", tuple(r for r in rules if not r.is_term_rule))


def _head(x: Node) -> Optional[str]:
    return x.fn if isinstance(x, App) else x.pred if isinstance(x, Atom) else None


# ---------------------------------------------------------------------------
# Matching


def match_pattern(pattern: Node, subject: Node) -> Optional[Subst]:
    """First-order matching: a substitution s with s(pattern) == subject,
    or None, for a rule's left-hand side and a well-formed subject."""
    return (getattr(pattern, "_matcher", None) or _compile(pattern))(subject)


# matcher code by its source, which names no symbol: left-hand sides of
# one shape, as a theory file's definitions often are, compile once
_CODE: dict = {}
_CODE_SIZE = 1024   # most shapes it holds; it is cleared when full


def _compile(pattern: Node):
    """Make and keep the pattern's matcher: one flat expression with, per
    node, a type, head and arity test, ``==`` on a repeated variable and
    the bindings; heads and variables are constants, never source text."""
    env = {"App": App, "Atom": Atom}
    tests, first, todo = [], {}, [(pattern, "t")]   # first: Var -> subject
    while todo:
        p, t = todo.pop()
        if isinstance(p, Var):
            if p in first:
                tests.append(f"{first[p]} == {t}")
            first.setdefault(p, t)
        elif isinstance(p, (App, Atom)):
            j, field = len(env), "fn" if isinstance(p, App) else "pred"
            env[f"k{j}"] = _head(p)
            tests.append(f"type(t{j} := {t}) is {type(p).__name__} and "
                         f"t{j}.{field} == k{j} and "
                         f"len(a{j} := t{j}.args) == {len(p.args)}")
            todo += [(c, f"a{j}[{i}]") for i, c in enumerate(p.args)][::-1]
        else:
            tests.append("False")   # holes and connectives never match
    env.update((f"v{i}", v) for i, v in enumerate(first))
    binds = ", ".join(f"v{i}: {t}" for i, t in enumerate(first.values()))
    source = f"lambda t: {{{binds}}} if {' and '.join(tests)} else None"
    if source not in _CODE:
        if len(_CODE) >= _CODE_SIZE:
            _CODE.clear()
        _CODE[source] = compile(source, "<matcher>", "eval")
    object.__setattr__(pattern, "_matcher", eval(_CODE[source], env))
    return pattern._matcher


# ---------------------------------------------------------------------------
# Redex enumeration and normalization


def _step_at(rs: RewriteSystem, node: Node):
    """First rule rewriting `node` at its root, as (rule, reduct) or None."""
    for r in rs.by_head.get(_head(node), ()):
        s = match_pattern(r.lhs, node)
        if s is not None:
            return r, apply_subst(s, r.rhs)
    return None


def rewrite_positions(rs: RewriteSystem, x: Node):
    """Every redex at every position, including under quantifiers and
    inside atoms.  Returns (position, rule name, reduct of the whole
    input); empty iff x is in normal form."""
    out = []
    for pos, node in positions(x):
        for r in rs.by_head.get(_head(node), ()):
            s = match_pattern(r.lhs, node)
            if s is not None:
                out.append((pos, r.name, replace_at(x, pos, apply_subst(s, r.rhs))))
    return out


@dataclass(frozen=True)
class NormalForm:
    value: Node
    steps: int


def normalize(rs: RewriteSystem, x: Node, fuel: int = DEFAULT_FUEL,
              u: Optional[Subst] = None, pos: Optional[Position] = None,
              rhs: Optional[Node] = None) -> NormalForm:
    """Leftmost-innermost rewriting to normal form, in one bottom-up
    pass, one Python frame per term level: the children, left to right,
    then the root; a root step goes on with the rule's rhs under the
    match, whose bound subterms are normal and not visited again.  A
    node whose children come back unchanged is returned as the same
    object.  Raises FuelExhausted when the step budget runs out -- a
    possibly non-terminating system, never silently a normal form -- or
    when the term outgrows the recursion limit.  With ``u``, the same
    for a normal term or atom ``x`` under ``u``, its subterm at ``pos``
    replaced by ``rhs`` first, made in the same pass (``_nf_at``)."""
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    left = [fuel]   # steps still allowed
    try:
        if u is None:
            return NormalForm(_nf(x, None, rs.by_head, left), fuel - left[0])
        return NormalForm(_nf_at(x, u, rs.by_head, left, pos, rhs),
                          fuel - left[0])
    except _Unwind as e:
        raise FuelExhausted(f"no normal form of {print_node(e.args[0])} "
                            f"within {fuel} steps", steps=fuel + 1) from None
    except RecursionError:
        steps = fuel - left[0]
        raise FuelExhausted(
            f"the term outgrew the recursion limit of "
            f"{sys.getrecursionlimit()} after {steps} steps",
            steps=steps) from None


class _Unwind(Exception):
    """Carries the whole term out of ``normalize`` when fuel runs out."""


def _nf(pattern: Node, s: Optional[Subst], by_head: dict, left: list) -> Node:
    """The normal form of ``pattern`` under ``s`` (None: a plain term)."""
    while True:
        kids = children(pattern)
        done = []
        try:
            for k in kids:
                if isinstance(k, Var):
                    done.append(k if s is None else s[k])
                else:
                    done.append(_nf(k, s, by_head, left))
        except _Unwind as e:
            rest = kids[len(done) + 1:]
            if s is not None:
                rest = tuple(apply_subst(s, k) for k in rest)
            e.args = (with_children(pattern, (*done, *e.args, *rest)),)
            raise
        node = pattern
        if s is not None or done and any(map(is_not, done, kids)):
            node = with_children(pattern, tuple(done))
        for rule in by_head.get(_head(node), ()):
            match = match_pattern(rule.lhs, node)
            if match is not None:
                break
        else:
            return node
        left[0] -= 1
        rhs = rule.rhs
        if left[0] < 0:
            raise _Unwind(apply_subst(match, rhs))
        if isinstance(rhs, Var):
            return match[rhs]
        pattern, s = rhs, match
        if not isinstance(rhs, (App, Atom)):
            pattern, s = apply_subst(match, rhs), None


def _nf_at(t: Node, u: Subst, by_head: dict, left: list,
           path: Optional[Position] = None, new: Optional[Node] = None) -> Node:
    """``_nf`` of ``t`` under ``u``, its subterm at ``path`` replaced by
    ``new`` first.  ``t`` is normal: a subterm of it that comes back as
    the same object is not tested again.  A ``path`` of () marks a term
    that is not: ``new``, or a subterm of it."""
    if path == () and new is not None:
        t, new = new, None
    if isinstance(t, Var):
        t = u.get(t, t)
        return t if isinstance(t, Var) else _nf(t, None, by_head, left)
    if isinstance(t, Hole):
        return t
    kids = t.args
    done = []
    below = () if path == () else None
    try:
        for i, k in enumerate(kids):
            if path and path[0] == i:
                done.append(_nf_at(k, u, by_head, left, path[1:], new))
            elif isinstance(k, Var):
                k = u.get(k, k)
                done.append(k if isinstance(k, Var)
                            else _nf(k, None, by_head, left))
            else:
                done.append(_nf_at(k, u, by_head, left, below))
    except _Unwind as e:
        if path:
            kids = children(replace_at(t, path, new))
        rest = tuple(apply_subst(u, k) for k in kids[len(done) + 1:])
        e.args = (with_children(t, (*done, *e.args, *rest)),)
        raise
    if done and any(map(is_not, done, kids)):
        t = with_children(t, tuple(done))
    elif path != ():
        return t   # a normal subterm, unchanged
    for rule in by_head.get(_head(t), ()):
        match = match_pattern(rule.lhs, t)
        if match is not None:
            break
    else:
        return t
    left[0] -= 1
    rhs = rule.rhs
    if left[0] < 0:
        raise _Unwind(apply_subst(match, rhs))
    return match[rhs] if isinstance(rhs, Var) else _nf(rhs, match, by_head,
                                                        left)


# ---------------------------------------------------------------------------
# Congruence


def congruent_detail(rs: RewriteSystem, a: Node, b: Node,
                     fuel: int = DEFAULT_FUEL) -> tuple[bool, str]:
    """Decide a == b modulo the system; returns (verdict, method).

    With a terminating and locally confluent system the verdict compares
    normal forms and is trusted.  Otherwise a bounded bidirectional
    joinability search is used and the verdict is marked "heuristic";
    an undecided heuristic search raises FuelExhausted.
    """
    if alpha_eq(a, b):
        return True, "syntactic"
    if rs.convergent:
        na = normalize(rs, a, fuel).value
        nb = normalize(rs, b, fuel).value
        return alpha_eq(na, nb), "normal-form"
    return _joinable_search(rs, a, b, fuel), "heuristic"


def congruent(rs: RewriteSystem, a: Node, b: Node,
              fuel: int = DEFAULT_FUEL) -> bool:
    return congruent_detail(rs, a, b, fuel)[0]


_MAX_LAYERS = 32


def _joinable_search(rs: RewriteSystem, a: Node, b: Node, fuel: int) -> bool:
    """Breadth-first forward closure of both sides, testing intersection.

    Decides positively as soon as the reachable sets meet, negatively
    when both closures are finite and disjoint.  The layer cap keeps
    single-redex divergent systems from growing unbounded terms."""
    seen_a = {alpha_key(a): a}
    seen_b = {alpha_key(b): b}
    frontier_a, frontier_b = [a], [b]
    budget = fuel
    layers = 0
    while frontier_a or frontier_b:
        layers += 1
        if layers > _MAX_LAYERS:
            raise FuelExhausted(
                "joinability search undecided within the layer bound")
        if set(seen_a) & set(seen_b):
            return True
        next_a, next_b = [], []
        for frontier, seen, acc in ((frontier_a, seen_a, next_a),
                                    (frontier_b, seen_b, next_b)):
            for x in frontier:
                for _, _, reduct in rewrite_positions(rs, x):
                    budget -= 1
                    if budget < 0:
                        raise FuelExhausted(
                            "joinability search undecided within fuel")
                    k = alpha_key(reduct)
                    if k not in seen:
                        seen[k] = reduct
                        acc.append(reduct)
        frontier_a, frontier_b = next_a, next_b
    return bool(set(seen_a) & set(seen_b))


# ---------------------------------------------------------------------------
# Critical pairs and local confluence


@dataclass(frozen=True)
class CriticalPair:
    peak: Node
    left: Node       # reduct by the inner rule
    right: Node      # reduct by the outer rule
    position: Position
    inner_rule: str
    outer_rule: str


def _rename_apart(rule: RewriteRule, avoid: set[str]) -> RewriteRule:
    ren: Subst = {}
    taken = set(avoid)
    for v in sorted(free_vars(rule.lhs), key=lambda w: (w.name, w.sort)):
        if v.name in taken:
            v2 = fresh_var(v, taken)
            ren[v] = v2
            taken.add(v2.name)
        else:
            taken.add(v.name)
    if not ren:
        return rule
    return RewriteRule(rule.name, apply_subst(ren, rule.lhs),
                       apply_subst(ren, rule.rhs))


def critical_pairs(rs: RewriteSystem) -> list[CriticalPair]:
    """All overlaps between renamed-apart rule pairs at non-variable
    positions; the trivial root self-overlap of a rule with itself is
    excluded.

    The pairs come by outer rule, then inner rule, both in rule order,
    then by position, outermost first.  An outer rule's inner rules are
    the ``by_head`` rules of the head symbols in its left-hand side, and
    each is tried only at the spots whose head it shares: a proposition
    rule at the root atom, a term rule at an application."""
    from .unification import unify_syntactic

    order = {r.name: i for i, r in enumerate(rs.rules)}
    out = []
    for outer in rs.rules:
        spots_of: dict[str, list] = {}
        for pos, node in positions(outer.lhs):
            if isinstance(node, (App, Atom)):
                spots_of.setdefault(_head(node), []).append((pos, node))
        inners = sorted((order[r.name], r) for head in spots_of
                        for r in rs.by_head.get(head, ()))
        avoid = {v.name for v in free_vars(outer.lhs)}
        for _, inner_orig in inners:
            lhs = inner_orig.lhs
            spots = [(pos, node) for pos, node in spots_of[_head(lhs)]
                     if type(node) is type(lhs)
                     and not (pos == () and inner_orig is outer)]
            if not spots:
                continue
            inner = _rename_apart(inner_orig, avoid)
            for pos, sub in spots:
                mgu = unify_syntactic(sub, inner.lhs)
                if mgu is None:
                    continue
                peak = apply_subst(mgu, outer.lhs)
                right = apply_subst(mgu, outer.rhs)
                left = apply_subst(
                    mgu, replace_at(outer.lhs, pos, inner.rhs))
                if alpha_eq(left, right):
                    continue  # trivially joined
                out.append(CriticalPair(peak, left, right, pos,
                                        inner_orig.name, outer.name))
    return out


def check_local_confluence(rs: RewriteSystem, fuel: int = DEFAULT_FUEL
                           ) -> tuple[int, Optional[bool]]:
    """The number of critical pairs, and whether every pair joins by
    normalization within fuel: None as soon as one pair runs out."""
    pairs = critical_pairs(rs)
    joins = True
    for cp in pairs:
        try:
            nl = normalize(rs, cp.left, fuel).value
            nr = normalize(rs, cp.right, fuel).value
        except FuelExhausted:
            return len(pairs), None
        joins = alpha_eq(nl, nr) and joins
    return len(pairs), joins


# ---------------------------------------------------------------------------
# Termination: lexicographic path ordering (sufficient check only)


_CONNECTIVE_HEADS = {f"{name}#" for name in CONNECTIVES.values()}


_BOUND = App("bv#", ())


def _encode(x: Node, bound: frozenset) -> Node:
    """Propositions as first-order trees for the path ordering; bound
    variables become one opaque constant so the variable condition is
    not falsely triggered.  Two bound constants are never compared:
    left-hand sides have no binders."""
    if isinstance(x, Var):
        return _BOUND if x in bound else x
    if isinstance(x, Hole):
        return App("hole#", ())
    if isinstance(x, App):
        return App(x.fn, tuple(_encode(a, bound) for a in x.args))
    if isinstance(x, Atom):
        return App(x.pred, tuple(_encode(a, bound) for a in x.args))
    if isinstance(x, QUANT):
        bound = bound | {x.var}
    return App(f"{CONNECTIVES[type(x)]}#",
               tuple(_encode(c, bound) for c in children(x)))


def _prec(rank: dict, f: str) -> int:
    if f in rank:
        return rank[f]
    if f in _CONNECTIVE_HEADS:
        return -1
    return -2  # bound-variable constants, below everything


def lpo_gt(rank: dict, s: Node, t: Node, right: bool = False) -> bool:
    if isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return t in free_vars(s)
    # both are App after encoding
    if any(a == t or lpo_gt(rank, a, t, right) for a in s.args):
        return True
    ps, pt = _prec(rank, s.fn), _prec(rank, t.fn)
    if ps > pt:
        return all(lpo_gt(rank, s, b, right) for b in t.args)
    if s.fn == t.fn and len(s.args) == len(t.args):
        order = zip(reversed(s.args), reversed(t.args)) if right \
            else zip(s.args, t.args)
        for a, b in order:
            if a == b:
                continue
            if lpo_gt(rank, a, b, right):
                return all(lpo_gt(rank, s, c, right) for c in t.args)
            return False
    return False


def check_termination_lpo(rs: RewriteSystem, precedence: list[str]) -> bool:
    """True iff lhs > rhs in the lexicographic path order induced by the
    precedence (later entries are greater) for every rule, with either a
    left-to-right or a right-to-left status used uniformly."""
    rank = {f: i for i, f in enumerate(precedence)}
    none = frozenset()
    return any(
        all(lpo_gt(rank, _encode(r.lhs, none), _encode(r.rhs, none), right)
            for r in rs.rules)
        for right in (False, True))


# ---------------------------------------------------------------------------
# Non-confusion


def check_nonconfusing(rs: RewriteSystem) -> bool:
    """Sufficient syntactic criterion: link each predicate to the
    predicates of its rules' atom reducts; the non-atomic reducts of the
    rules on one linked group have at most one head connective.  Every
    rule of a group counts, overlapping or not, since term rules can
    rewrite one atom into another rule's instance."""
    group: dict[str, str] = {}   # predicate -> a linked predicate

    def root(pred: str) -> str:
        while group.setdefault(pred, pred) != pred:
            pred = group[pred]
        return pred

    for r in rs.prop_rules:
        if isinstance(r.rhs, Atom):
            group[root(r.lhs.pred)] = root(r.rhs.pred)
    heads: dict[str, set[type]] = {}
    for r in rs.prop_rules:
        if not isinstance(r.rhs, Atom):
            heads.setdefault(root(r.lhs.pred), set()).add(type(r.rhs))
    return all(len(h) == 1 for h in heads.values())

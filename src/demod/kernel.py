"""Constructive natural deduction modulo: proof checking up to the
congruence, cut detection, single-step cut reduction and bounded proof
normalization.

Checking is bidirectional: introduction rules are checked against an
expected conclusion whose head connective is exposed by root rewriting,
eliminations synthesize their conclusion from the major premise.  A node
whose conclusion cannot be synthesized in its position (an introduction
used as a major premise, or_e, exists_e, bot_e) carries a stated
conclusion annotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Optional

from .errors import FuelExhausted, ProofError, RuleError, SortError
from .rewriting import (
    DEFAULT_FUEL, RewriteSystem, _step_at, congruent, normalize,
)
from .syntax import (
    And, Atom, BOT, Exists, ForAll, Imp, Or, Position, Proposition, Subst,
    Term, Top, Var, alpha_key, apply_subst, free_vars, fresh_var, print_prop,
    wellformed,
)

# rule tag -> its fields in concrete-syntax order: an int is the subproof
# of that index, "label" or "label2" a hypothesis label and "eigen" an
# eigenvariable, each bound in the next subproof (axiom's label is a
# use), "witness" a term
LAYOUT = {
    "axiom": ("label",), "top_i": (), "bot_e": (0,),
    "and_i": (0, 1), "and_e1": (0,), "and_e2": (0,),
    "or_i1": (0,), "or_i2": (0,), "or_e": (0, "label", 1, "label2", 2),
    "imp_i": ("label", 0), "imp_e": (0, 1),
    "forall_i": ("eigen", 0), "forall_e": (0, "witness"),
    "exists_i": ("witness", 0), "exists_e": (0, "eigen", "label", 1),
}


def _scopes(fields) -> tuple:
    """Per subproof, the binder fields bound in it."""
    out, pending = [], []
    for f in fields:
        if isinstance(f, int):
            out.append(tuple(pending))
            pending = []
        elif f in ("label", "label2", "eigen"):
            pending.append(f)
    return tuple(out)


# derived once here: cut reduction builds proof nodes in a hot loop
_BOUND_IN = {tag: _scopes(fields) for tag, fields in LAYOUT.items()}
_ARITY = {tag: len(bound) for tag, bound in _BOUND_IN.items()}


def _labels_bound(q: "Proof", fields) -> set:
    return {getattr(q, f) for f in fields if f != "eigen"}


# introduction tag -> the connective it proves
_INTRODUCES = {"top_i": Top, "and_i": And, "or_i1": Or, "or_i2": Or,
               "imp_i": Imp, "forall_i": ForAll, "exists_i": Exists}

# elimination tag -> introduction tags forming a cut on its major premise
CUT_PAIRS = {
    "and_e1": frozenset({"and_i"}),
    "and_e2": frozenset({"and_i"}),
    "imp_e": frozenset({"imp_i"}),
    "or_e": frozenset({"or_i1", "or_i2"}),
    "forall_e": frozenset({"forall_i"}),
    "exists_e": frozenset({"exists_i"}),
}


@dataclass(frozen=True)
class Proof:
    """A rule-tagged derivation node; ``LAYOUT`` gives the fields each
    tag uses.  conclusion is the stated (or elaborated) conclusion; it
    may be None where it is derivable.
    """

    tag: str
    children: tuple["Proof", ...] = ()
    label: Optional[str] = None
    label2: Optional[str] = None
    witness: Optional[Term] = None
    eigen: Optional[Var] = None
    conclusion: Optional[Proposition] = None

    def __post_init__(self):
        want = _ARITY.get(self.tag)
        if want is None:
            raise ProofError(f"unknown rule tag {self.tag!r}")
        if len(self.children) != want:
            raise ProofError(
                f"{self.tag} expects {want} subproofs, got {len(self.children)}")

    def copy_with(self, **changes) -> "Proof":
        """This node with ``changes`` to its fields, built directly; it is
        checked again when the children change."""
        new = object.__new__(Proof)
        new.__dict__.update(self.__dict__, **changes)
        if "children" in changes:
            new.__post_init__()
        return new


@dataclass(frozen=True)
class Sequent:
    context: tuple[tuple[str, Proposition], ...]
    conclusion: Proposition

    def __post_init__(self):
        labels = [l for l, _ in self.context]
        if len(labels) != len(set(labels)):
            raise ProofError("hypothesis labels must be unique")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    proof: Optional[Proof] = None   # fully annotated on success
    path: Position = ()
    message: str = ""


class _CheckFailure(Exception):
    def __init__(self, path, message):
        super().__init__(message)
        self.path = path
        self.message = message


class _Session:
    """Per-check congruence cache keyed on canonical printed forms, and
    a bounded memo of exposed atoms keyed on identity; it keeps each
    atom alive, so no other node takes its ``id`` meanwhile."""

    EXPOSE_MEMO_SIZE = 1024   # most atoms the exposure memo holds

    def __init__(self, rs: RewriteSystem, fuel: int):
        self.rs = rs
        self.fuel = fuel
        self._memo: dict[tuple[str, str], bool] = {}
        self._exposed: dict[int, tuple[Atom, Proposition]] = {}

    def congruent(self, a: Proposition, b: Proposition) -> bool:
        ka, kb = alpha_key(a), alpha_key(b)
        if ka == kb:
            return True
        key = (ka, kb) if ka < kb else (kb, ka)
        if key not in self._memo:
            self._memo[key] = congruent(self.rs, a, b, self.fuel)
        return self._memo[key]

    def expose(self, p: Proposition) -> Proposition:
        """Rewrite at the root until the head connective is visible.

        Atom arguments are normalized first when the system is known
        convergent, so rules like P(0) fire on P(0 + 0)."""
        if not isinstance(p, Atom):
            return p
        hit = self._exposed.get(id(p))
        if hit is not None:
            return hit[1]
        atom, steps = p, 0
        while isinstance(p, Atom):
            if self.rs.convergent:
                p = normalize(self.rs, p, self.fuel).value
                if not isinstance(p, Atom):
                    break
            hit = _step_at(self.rs, p)
            if hit is None:
                break
            p = hit[1]
            steps += 1
            if steps > self.fuel:
                raise FuelExhausted("head exposure exhausted its budget")
        if len(self._exposed) >= self.EXPOSE_MEMO_SIZE:
            self._exposed.clear()
        self._exposed[id(atom)] = (atom, p)
        return p


# ---------------------------------------------------------------------------
# Proof checking


def check_proof(theory, proof: Proof, goal: Sequent,
                fuel: int = DEFAULT_FUEL) -> CheckResult:
    """Check a proof of a sequent, all side conditions modulo the
    congruence.  On success the returned proof has every conclusion
    filled in.  Raises FuelExhausted if the congruence engine runs dry.
    """
    if proof is None:
        raise ProofError("no proof given")
    if not theory.report.nonconfusing:
        raise RuleError("theory's rewrite system is not non-confusing")
    for what, x in [*(("hypothesis", h) for _, h in goal.context),
                    ("goal", goal.conclusion)]:
        try:
            wellformed(theory.signature, x)
        except SortError as e:
            raise ProofError(f"ill-formed {what}: {e}") from None
    session = _Session(theory.system, fuel)
    ctx = dict(goal.context)
    try:
        annotated = _check(session, ctx, proof, goal.conclusion, ())
        return CheckResult(True, annotated)
    except _CheckFailure as e:
        return CheckResult(False, None, e.path, e.message)


def _fail(path, message):
    raise _CheckFailure(path, message)


def _check(ss: _Session, ctx: dict, p: Proof, goal: Proposition,
           path: Position) -> Proof:
    tag = p.tag
    if tag == "axiom" or tag in ("and_e1", "and_e2", "imp_e", "forall_e"):
        p2, c = _infer(ss, ctx, p, path)
        if not ss.congruent(c, goal):
            _fail(path, f"concluded {print_prop(c)}, which is not congruent "
                        f"to {print_prop(goal)}")
        return p2.copy_with(conclusion=goal)

    if tag == "bot_e":
        child = _check(ss, ctx, p.children[0], BOT, path + (0,))
        return p.copy_with(children=(child,), conclusion=goal)

    if tag == "or_e":
        major, _, g = _major(ss, ctx, p, path, Or, "a disjunction")
        if p.label is None or p.label2 is None:
            _fail(path, "or_e needs two hypothesis labels")
        b1 = _check(ss, _bind(ctx, p.label, g.left), p.children[1],
                    goal, path + (1,))
        b2 = _check(ss, _bind(ctx, p.label2, g.right), p.children[2],
                    goal, path + (2,))
        return p.copy_with(children=(major, b1, b2), conclusion=goal)

    if tag == "exists_e":
        major, c, g = _major(ss, ctx, p, path, Exists, "an existential")
        y = p.eigen if p.eigen is not None else g.var
        if y.sort != g.var.sort:
            _fail(path, f"eigenvariable sort {y.sort} does not match "
                        f"{g.var.sort}")
        _eigen_fresh(ctx, (goal, c), y, path)
        if p.label is None:
            _fail(path, "exists_e needs a hypothesis label")
        inst = apply_subst({g.var: y}, g.body)
        body = _check(ss, _bind(ctx, p.label, inst), p.children[1],
                      goal, path + (1,))
        return p.copy_with(children=(major, body), eigen=y, conclusion=goal)

    # introduction rules: decompose the exposed goal
    g = ss.expose(goal)
    if tag in _INTRODUCES and not isinstance(g, _INTRODUCES[tag]):
        _fail(path, f"{tag} cannot prove {print_prop(goal)}")
    if tag == "top_i":
        return p.copy_with(conclusion=goal)
    if tag == "and_i":
        l = _check(ss, ctx, p.children[0], g.left, path + (0,))
        r = _check(ss, ctx, p.children[1], g.right, path + (1,))
        return p.copy_with(children=(l, r), conclusion=goal)
    if tag in ("or_i1", "or_i2"):
        side = g.left if tag == "or_i1" else g.right
        c = _check(ss, ctx, p.children[0], side, path + (0,))
        return p.copy_with(children=(c,), conclusion=goal)
    if tag == "imp_i":
        if p.label is None:
            _fail(path, "imp_i needs a hypothesis label")
        c = _check(ss, _bind(ctx, p.label, g.left), p.children[0],
                   g.right, path + (0,))
        return p.copy_with(children=(c,), conclusion=goal)
    if tag == "forall_i":
        y = p.eigen if p.eigen is not None else g.var
        if y.sort != g.var.sort:
            _fail(path, f"eigenvariable sort {y.sort} does not match "
                        f"{g.var.sort}")
        _eigen_fresh(ctx, (goal,), y, path)
        c = _check(ss, ctx, p.children[0],
                   apply_subst({g.var: y}, g.body), path + (0,))
        return p.copy_with(children=(c,), eigen=y, conclusion=goal)
    if tag == "exists_i":
        if p.witness is None:
            _fail(path, "exists_i needs a witness term")
        c = _check(ss, ctx, p.children[0],
                   apply_subst({g.var: p.witness}, g.body), path + (0,))
        return p.copy_with(children=(c,), conclusion=goal)
    _fail(path, f"rule {tag} cannot occur here")


def _infer(ss: _Session, ctx: dict, p: Proof,
           path: Position) -> tuple[Proof, Proposition]:
    tag = p.tag
    if tag == "axiom":
        if p.label not in ctx:
            _fail(path, f"no hypothesis labelled {p.label!r}")
        c = ctx[p.label]
        return p.copy_with(conclusion=c), c
    if tag == "and_e1" or tag == "and_e2":
        major, _, g = _major(ss, ctx, p, path, And, "a conjunction")
        out = g.left if tag == "and_e1" else g.right
        return p.copy_with(children=(major,), conclusion=out), out
    if tag == "imp_e":
        major, _, g = _major(ss, ctx, p, path, Imp, "an implication")
        minor = _check(ss, ctx, p.children[1], g.left, path + (1,))
        return p.copy_with(children=(major, minor),
                           conclusion=g.right), g.right
    if tag == "forall_e":
        major, _, g = _major(ss, ctx, p, path, ForAll, "a universal")
        if p.witness is None:
            _fail(path, "forall_e needs a witness term")
        out = apply_subst({g.var: p.witness}, g.body)
        return p.copy_with(children=(major,), conclusion=out), out
    # introductions, or_e, exists_e, bot_e: only with a stated conclusion
    if p.conclusion is not None:
        p2 = _check(ss, ctx, p, p.conclusion, path)
        return p2, p.conclusion
    _fail(path, f"{tag} in a synthesizing position needs a "
                "conclusion annotation")


def _major(ss: _Session, ctx: dict, p: Proof, path: Position, kind,
           what: str):
    """The major premise inferred, its conclusion, and that exposed."""
    major, c = _infer(ss, ctx, p.children[0], path + (0,))
    g = ss.expose(c)
    if not isinstance(g, kind):
        _fail(path, f"{p.tag} major premise proves {print_prop(c)}, "
                    f"not {what}")
    return major, c, g


def _bind(ctx: dict, label: str, prop: Proposition) -> dict:
    out = dict(ctx)
    out[label] = prop  # inner binders shadow outer ones
    return out


def _eigen_fresh(ctx: dict, extra, y: Var, path: Position) -> None:
    for h in list(ctx.values()) + list(extra):
        if y in free_vars(h):
            _fail(path, f"eigenvariable {y.name} occurs free in the sequent")


# ---------------------------------------------------------------------------
# Cut detection


def find_cuts(proof: Proof) -> tuple[tuple[Position, str, str], ...]:
    """Every elimination whose major premise is the matching introduction,
    as (path, intro tag, elim tag).

    Purely structural on a checked proof: the side conditions relating
    the cut formulas were already verified modulo the congruence."""
    cuts: list[tuple[Position, str, str]] = []
    _collect_cuts(proof, (), cuts)
    return tuple(cuts)


def _collect_cuts(p: Proof, path: Position, cuts: list) -> None:
    if p.tag in CUT_PAIRS and p.children[0].tag in CUT_PAIRS[p.tag]:
        cuts.append((path, p.children[0].tag, p.tag))
    for i, c in enumerate(p.children):
        _collect_cuts(c, path + (i,), cuts)


# ---------------------------------------------------------------------------
# Hypothesis-label machinery


def free_labels(p: Proof) -> frozenset[str]:
    out: set[str] = set()
    _collect_free_labels(p, frozenset(), out)
    return frozenset(out)


def _collect_free_labels(q: Proof, bound: frozenset, out: set) -> None:
    if q.tag == "axiom":
        if q.label not in bound:
            out.add(q.label)
        return
    for c, fields in zip(q.children, _BOUND_IN[q.tag]):
        _collect_free_labels(
            c, bound | _labels_bound(q, fields) if fields else bound, out)


def _binders(q: Proof) -> set:
    """Labels this node binds in any of its children."""
    return {getattr(q, f) for fields in _BOUND_IN[q.tag] for f in fields
            if f != "eigen"}


def _fresh_label(base: str, avoid: set) -> str:
    k = 1
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def subst_hyp(p: Proof, label: str, repl: Proof) -> Proof:
    """Replace every use of hypothesis `label` by the derivation `repl`,
    stopping at shadowing binders and renaming binders that would
    capture a hypothesis free in `repl`."""
    return _subst_hyp(p, label, repl, free_labels(repl))


def _subst_hyp(q: Proof, label: str, repl: Proof, repl_free: frozenset,
               rename: bool = False) -> Proof:
    """With ``rename``, `repl` is an axiom whose label each use of
    `label` takes, keeping its own annotation."""
    if q.tag == "axiom":
        if q.label != label:
            return q
        return q.copy_with(label=repl.label) if rename else repl
    clash = _binders(q) & repl_free
    if clash:
        q = _rename_binders(q, clash)
    kids = []
    for c, fields in zip(q.children, _BOUND_IN[q.tag]):
        if fields and label in _labels_bound(q, fields):
            kids.append(c)  # shadowed: leave untouched
        else:
            kids.append(_subst_hyp(c, label, repl, repl_free, rename))
    return q.copy_with(children=tuple(kids))


def _rename_binders(q: Proof, clash: set) -> Proof:
    avoid = set(free_labels(q)) | _binders(q)
    new = dict(q.__dict__)
    kids = list(q.children)
    for i, fields in enumerate(_BOUND_IN[q.tag]):
        for attr in fields:
            b = getattr(q, attr)
            if attr != "eigen" and b in clash:
                new[attr] = _fresh_label(b, avoid)
                avoid.add(new[attr])
                kids[i] = _subst_hyp(kids[i], b,
                                     Proof("axiom", label=new[attr]),
                                     frozenset({new[attr]}), rename=True)
    new["children"] = tuple(kids)
    return Proof(**new)


def _proof_var_names(p: Proof) -> set[str]:
    out: set[str] = set()
    if p.eigen is not None:
        out.add(p.eigen.name)
    for x in (p.witness, p.conclusion):
        if x is not None:
            out |= {v.name for v in free_vars(x)}
    for c in p.children:
        out |= _proof_var_names(c)
    return out


def subst_terms_in_proof(s: Subst, p: Proof, avoid=None) -> Proof:
    """Apply a term substitution to every formula annotation and witness
    in a proof.  An eigenvariable is bound in the subproofs ``_BOUND_IN``
    lists it for, and renamed there if a substituted term names it, to a
    name outside the proof and the set ``avoid``, which then holds it."""
    if not s:
        return p
    avoid = set() if avoid is None else avoid
    inner = s
    if p.eigen is not None:
        inner = {v: t for v, t in s.items() if v != p.eigen}
        inserted = {w.name for t in inner.values() for w in free_vars(t)}
        if p.eigen.name in inserted:
            y2 = fresh_var(p.eigen, inserted | _proof_var_names(p) | avoid)
            avoid.add(y2.name)
            inner[p.eigen] = y2
            p = p.copy_with(eigen=y2)
    return p.copy_with(
        children=tuple(
            subst_terms_in_proof(inner if "eigen" in fields else s, c, avoid)
            for c, fields in zip(p.children, _BOUND_IN[p.tag])),
        witness=apply_subst(s, p.witness) if p.witness is not None else None,
        conclusion=(apply_subst(s, p.conclusion)
                    if p.conclusion is not None else None),
    )


# ---------------------------------------------------------------------------
# Cut reduction


def _replace_subproof(p: Proof, pos: Position, new: Proof) -> Proof:
    if not pos:
        return new
    kids = list(p.children)
    kids[pos[0]] = _replace_subproof(kids[pos[0]], pos[1:], new)
    return p.copy_with(children=tuple(kids))


def reduce_cut(proof: Proof, position: Position, avoid=None) -> Proof:
    """Perform the standard proof reduction at a cut position of a
    checked proof.

    The rules and their reductions are those of plain natural deduction;
    the theory entered only through the checker, whose annotations the
    reduct keeps.  The result proves a conclusion congruent to the
    original one; it may of course still contain cuts.  A renamed
    eigenvariable avoids ``avoid`` too (see ``normalize_proof``)."""
    node = proof
    for i in position:
        node = node.children[i]
    major = node.children[0] if node.tag in CUT_PAIRS else None
    if major is None or major.tag not in CUT_PAIRS[node.tag]:
        raise ProofError(f"position {position} is not a cut")

    if node.tag == "imp_e":
        reduct = subst_hyp(major.children[0], major.label, node.children[1])
    elif node.tag in ("and_e1", "and_e2"):
        reduct = major.children[0 if node.tag == "and_e1" else 1]
    elif node.tag == "or_e":
        branch, label = ((node.children[1], node.label)
                         if major.tag == "or_i1"
                         else (node.children[2], node.label2))
        reduct = subst_hyp(branch, label, major.children[0])
    elif node.tag == "forall_e":
        reduct = subst_terms_in_proof({major.eigen: node.witness},
                                      major.children[0], avoid)
    else:   # exists_e
        body = subst_terms_in_proof({node.eigen: major.witness},
                                    node.children[1], avoid)
        reduct = subst_hyp(body, node.label, major.children[0])
    return _replace_subproof(proof, position, reduct)


@dataclass(frozen=True)
class NormalizedProof:
    proof: Proof
    steps: int


def normalize_proof(theory, proof: Proof, goal: Sequent, fuel: int = 1000,
                    congruence_fuel: int = DEFAULT_FUEL) -> NormalizedProof:
    """Reduce the leftmost-innermost cut until none is left.

    The proof is checked against the goal sequent on entry, normalized
    in one post-order pass of ``reduce_cut`` alone, and checked once
    more at the end, which re-annotates the normal form.  No check is
    needed in between: every reduct of a proof checked modulo a
    non-confusing theory proves a congruent conclusion (Dowek & Werner,
    *Proof normalization modulo*, 2003), so the final check is a safety
    net.  Raises FuelExhausted when the step budget runs out -- the
    expected outcome on Crabbe-style theories."""
    proof = _annotated(theory, proof, goal, congruence_fuel)
    return _normalize_checked(theory, proof, goal, fuel, congruence_fuel)


def _normalize_checked(theory, proof, goal, fuel, congruence_fuel):
    """``normalize_proof`` of a proof ``check_proof`` annotated."""
    steps = [0]
    avoid = _proof_var_names(proof).union(   # and each name picked
        *({v.name for v in free_vars(h)} for _, h in goal.context))
    proof = _normal_form(proof, steps, fuel, avoid)
    return NormalizedProof(
        _annotated(theory, proof, goal, congruence_fuel), steps[0])


def _annotated(theory, proof: Proof, goal: Sequent, fuel: int) -> Proof:
    res = check_proof(theory, proof, goal, fuel)
    if not res.ok:
        raise ProofError(
            f"proof no longer checks at {res.path}: {res.message}")
    return res.proof


def _normal_form(p: Proof, steps: list, fuel: int, avoid: set) -> Proof:
    """Normalize the children left to right, then reduce the node while
    it is a cut, counting each step in ``steps[0]``.  A reduction changes
    only the subtree at the node and everything before it in post-order
    is cut-free, so this is the leftmost-innermost order.  The reduct is
    looped on, not recursed into: a cut that reduces to itself uses no
    stack."""
    while True:
        kids = tuple([_normal_form(c, steps, fuel, avoid)
                      for c in p.children])
        if any(map(is_not, kids, p.children)):
            p = p.copy_with(children=kids)
        majors = CUT_PAIRS.get(p.tag)
        if majors is None or p.children[0].tag not in majors:
            return p
        if steps[0] >= fuel:
            raise FuelExhausted(
                f"proof still has cuts after {steps[0]} reductions",
                steps=steps[0])
        steps[0] += 1
        p = reduce_cut(p, (), avoid)

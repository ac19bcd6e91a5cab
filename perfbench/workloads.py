"""The three workloads: job lists generated from (seed, pass index).

Every job is a ``demod`` argv plus the oracle that judges its output.
Generated theory, proof and sequent files go into a directory the
caller names, never under ``src/``.  Within a family, jobs are ordered
from cheapest to dearest, so the first job of each family is the smoke
test for it.

Seeded names (predicates, constants, hypothesis labels, variables) and
seeded values (the leaves of sums, the split of a sum) change from pass
to pass, so a cache that outlives one ``cli.main`` call cannot turn a
later pass into hits; the size of each job slot stays fixed.  The goldens the
roadmap and the tests name (the assoc narrowing golden, the
existential witness, the builtin probes, the criterion-5 and
criterion-7 goals, ``prove builtin:crabbe Q`` and the ``S^k+S^k``
sums) run verbatim in every pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from oracle import (
    Expect, bracketing, every_solution, exact, first_line_starts, flatten,
    left_comb, nat_value, numeral, read_sexpr,
)


@dataclass(frozen=True)
class Job:
    family: str
    argv: tuple[str, ...]
    expect: Expect


@dataclass(frozen=True)
class Workload:
    why: str
    families: dict[str, str]           # family name -> why it is there
    build: Callable[..., list[Job]]    # (rng, directory) -> jobs


# Every pass runs the same job slots in the same order, with the same
# sizes; only generated names and values differ, so passes are alike
# and the job times of a run can be compared slot by slot.
ROUNDS = 6


def _tag(rng) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        f.write(text)
    return path


# ---------------------------------------------------------------------------
# search: bound by the prover

# Criterion-5 goals under def-conj (P ~> A and B), with provability
# decided by hand in intuitionistic logic: only P, A and (A or B) => P
# have no proof.
FOLD_UNFOLD = [
    ("(imp P P)", True), ("(imp P (and A B))", True),
    ("(imp (and A B) P)", True), ("(imp P A)", True), ("(imp P B)", True),
    ("(imp (and A B) A)", True),
    ("(imp (imp A (imp B P)) (imp A (imp B P)))", True),
    ("(imp A (imp B P))", True), ("(imp (and B A) P)", True),
    ("(imp P (and B A))", True), ("(imp P (or A B))", True),
    ("(imp (or P P) (and A B))", True), ("(imp (and P A) A)", True),
    ("(imp (and A P) B)", True), ("(or A (imp P A))", True),
    ("(imp (imp P bot) (imp (and A B) bot))", True),
    ("(imp (imp (and A B) bot) (imp P bot))", True),
    ("(imp bot P)", True), ("(imp (and A (and B top)) P)", True),
    ("P", False), ("A", False), ("(imp (or A B) P)", False),
    ("(imp P (imp A B))", True), ("(and (imp P A) (imp P B))", True),
]

# Criterion-7 closed disjunctions: each has a cut-free proof that ends
# with an or-introduction.
DISJUNCTIONS = [
    ("empty", "(or top P)"), ("empty", "(or P top)"),
    ("empty", "(or (imp P P) Q)"), ("empty", "(or Q (imp (and P Q) P))"),
    ("def-conj", "(or (imp (and A B) P) B)"),
    ("def-conj", "(or A (imp P A))"),
    ("addition", "(or (imp (P 0) (P (plus 0 0))) (P 0))"),
    ("assoc", "(or (P a) (imp (P (plus a (plus b c)))"
              " (P (plus (plus a b) c))))"),
]

SEARCH_FAMILIES = {
    "pf-axiom-probe": "the axiom form of pf-collapse as a hypothesis: the "
                      "search space is infinite, so every depth ends "
                      "bound-exceeded; depth 8 (13 452 nodes) is the "
                      "longest job",
    "builtin-probe": "rule-form probes that fail finitely at depth 10",
    "fold-unfold": "the 24 criterion-5 goals: many small searches modulo "
                   "a definitional rule, dominated by CLI set-up",
    "disjunction": "the 8 criterion-7 goals: cut-free proofs ending in an "
                   "or-introduction, with the final kernel check",
    "crabbe-prove": "no cut-free proof of Q exists under crabbe",
    "prop-chain": "seeded implication chains A0, A0=>A1, ... |- An: "
                  "provable by construction",
    "prop-conj": "seeded conjunction permutations, provable by "
                 "construction, and ones asking for a missing atom, which "
                 "fail finitely since no hypothesis holds an implication",
    "prop-disj": "seeded disjunction permutations (provable) and ones "
                 "dropping a disjunct (fail finitely)",
}


def _conj(xs):
    return xs[0] if len(xs) == 1 else f"(and {xs[0]} {_conj(xs[1:])})"


def _disj(xs):
    return xs[0] if len(xs) == 1 else f"(or {xs[0]} {_disj(xs[1:])})"


def build_search(rng, d: str) -> list[Job]:
    jobs = []
    t = _tag(rng)
    pf = _write(d, "pf-axiom.thy",
                f"sort iota.\nfunc f{t} : iota -> iota.\npred P{t} : iota.\n")
    axiom = (f"(forall (x : iota) (and (imp (P{t} (f{t} x)) (P{t} x))"
             f" (imp (P{t} x) (P{t} (f{t} x)))))")
    for depth in (4, 6, 8):
        jobs.append(Job("pf-axiom-probe",
                        ("probe", pf, "--hyp", axiom, "--depth", str(depth)),
                        Expect("bound-exceeded", True)))
    for name in ("empty", "pf-collapse"):
        jobs.append(Job("builtin-probe",
                        ("probe", f"builtin:{name}", "--depth", "10"),
                        Expect("consistent-at-bound", True)))
    for goal, provable in FOLD_UNFOLD:
        jobs.append(Job("fold-unfold",
                        ("prove", "builtin:def-conj", goal, "--depth", "8"),
                        Expect("proved" if provable else "fail", provable)))
    for theory, goal in DISJUNCTIONS:
        jobs.append(Job("disjunction",
                        ("prove", f"builtin:{theory}", goal, "--depth", "8"),
                        Expect("proved", True,
                               first_line_starts(("(or_i1 ", "(or_i2 ")))))
    jobs.append(Job("crabbe-prove",
                    ("prove", "builtin:crabbe", "Q", "--depth", "10"),
                    Expect("fail", False)))

    atoms = [f"A{t}{i}" for i in range(8)]
    props = _write(d, "props.thy", "sort iota.\n"
                   + "".join(f"pred {a}.\n" for a in atoms))

    def prove(family, goal, provable):
        jobs.append(Job(family, ("prove", props, goal, "--depth", "10"),
                        Expect("proved" if provable else "fail", provable)))

    sizes = (3, 3, 4, 4) * ROUNDS
    for n in sizes:
        xs = rng.sample(atoms, n + 1)
        goal = xs[n]
        for i in range(n - 1, -1, -1):
            goal = f"(imp (imp {xs[i]} {xs[i + 1]}) {goal})"
        prove("prop-chain", f"(imp {xs[0]} {goal})", True)
    for i, n in enumerate(sizes):
        missing = i % 2 == 1
        xs = rng.sample(atoms, n + 1)
        have, want = xs[:n], rng.sample(xs[:n], n)
        if missing:
            want[rng.randrange(n)] = xs[n]
        prove("prop-conj", f"(imp {_conj(have)} {_conj(want)})", not missing)
    for i, n in enumerate(sizes):
        dropped = i % 2 == 1
        xs = rng.sample(atoms, n)
        want = rng.sample(xs, n)
        if dropped:
            want.pop(rng.randrange(n))
        prove("prop-disj", f"(imp {_disj(xs)} {_disj(want)})", not dropped)
    return jobs


# ---------------------------------------------------------------------------
# narrow: bound by narrowing

GOLDEN_LEFT, GOLDEN_RIGHT = "(plus a x:elem)", "(plus (plus a b) c)"
WITNESS = ("(exists (x : elem) (imp (P (plus a x))"
           " (P (plus (plus a b) c))))")

NARROW_FAMILIES = {
    "assoc-golden": "unify (plus a x) with (plus (plus a b) c) under assoc "
                    "at depths 4-8; cost grows about 4x per depth, the "
                    "only solution is found at depth 1",
    "addition-unify": "seeded (plus x S^n(0)) =? S^(m+n)(0): many small "
                      "narrowing problems with the answer x -> S^m(0)",
    "assoc-split": "seeded left-combed sums with a known split: the "
                   "solution flattens to the missing suffix",
    "witness": "an existential goal whose witness the prover gets from "
               "narrowing (depth 4, then the default depth 8)",
    "congruent": "small congruence checks under assoc (bracketings of the "
                 "same or of different leaves) and addition (S^a+S^b "
                 "against S^c)",
}

_ELEM = "abcde"


def build_narrow(rng, d: str) -> list[Job]:
    jobs = []
    for depth in (4, 5, 6, 7, 8):
        jobs.append(Job("assoc-golden",
                        ("unify", "builtin:assoc", GOLDEN_LEFT, GOLDEN_RIGHT,
                         "--depth", str(depth)),
                        Expect("yes", True, every_solution(
                            "x", lambda s: flatten(s) == ["b", "c"],
                            "b+c"))))
    t = _tag(rng)
    for i in range(36):
        m, n = 1 + i % 6, 1 + (i // 6) % 6
        var = f"x{t}{i}"
        jobs.append(Job("addition-unify",
                        ("unify", "builtin:addition",
                         f"(plus {var}:nat {numeral(n)})", numeral(m + n),
                         "--depth", "8"),
                        Expect("yes", True, every_solution(
                            var, lambda s, m=m: nat_value(s) == m,
                            f"S^{m}(0)"))))
    for i in range(36):
        rest = 2 + i % 2
        leaves = [rng.choice(_ELEM) for _ in range(2 + rest)]
        var = f"y{t}{i}"
        prefix = left_comb(leaves[:-rest])
        jobs.append(Job("assoc-split",
                        ("unify", "builtin:assoc",
                         f"(plus {prefix} {var}:elem)", left_comb(leaves),
                         "--depth", "4"),
                        Expect("yes", True, every_solution(
                            var, lambda s, w=leaves[-rest:]: flatten(s) == w,
                            "the missing suffix"))))
    for depth in (4, 8):
        jobs.append(Job("witness",
                        ("prove", "builtin:assoc", WITNESS,
                         "--depth", str(depth)),
                        Expect("proved", True, _witness_is_b_plus_c)))
    for i in range(12):
        leaves = [rng.choice(_ELEM) for _ in range(5)]
        same = i % 2 == 0
        other = list(leaves)
        if not same:
            k = rng.randrange(5)
            other[k] = rng.choice([c for c in _ELEM if c != leaves[k]])
        jobs.append(Job("congruent",
                        ("congruent", "builtin:assoc", bracketing(leaves, rng),
                         bracketing(other, rng)),
                        Expect("yes" if same else "no", same)))
        a = rng.randrange(1, 12)
        b = 12 - a
        c = a + b if same else a + b + 1
        jobs.append(Job("congruent",
                        ("congruent", "builtin:addition",
                         f"(plus {numeral(a)} {numeral(b)})", numeral(c)),
                        Expect("yes" if same else "no", same)))
    return jobs


def _witness_is_b_plus_c(body):
    if not body or not body[0].startswith("(exists_i "):
        return "proof does not start with exists_i"
    if flatten(read_sexpr(body[0])[1]) != ["b", "c"]:
        return "witness is not b+c"
    return None


# ---------------------------------------------------------------------------
# check: bound by the kernel, parsing, theory validation, deep rewriting

CHECK_FAMILIES = {
    "cut-chain": "check, cuts and eliminate on n nested imp cuts (n = 10, "
                 "20, 40, 80); eliminate re-checks the proof after every "
                 "reduction",
    "cut-small": "the same on 2 to 7 nested cuts, twice: many small "
                 "kernel jobs",
    "def-chain": "validate and an and_e2 chain of 50 steps over theories "
                 "of N = 50 and 200 definitional atoms; every call parses "
                 "and re-validates the theory",
    "arith-defs": "100 numbered definitions plus mult arithmetic: "
                  "validate, and a 25-step and_e2 chain whose atoms carry "
                  "a product the kernel must normalize",
    "crabbe": "the Crabbe proof of Q: it checks, has one cut, and "
              "eliminate runs out of fuel",
    "addition-deep": "normalize and congruent on S^k(0)+S^k(0) for k = 50, "
                     "100, 200, 400: few large rewriting calls; k = 200 "
                     "and 400 raise RecursionError today",
    "addition-small": "seeded S^a(0)+S^b(0) with a+b = 37: normalize "
                      "exactly, congruent against S^c(0)",
}

_VALID = ["lhs shapes ok: yes", "non-confusing: yes", "critical pairs: 0",
          "locally confluent: yes", "termination: lpo"]


def _and_e2_chain(label: str, n: int) -> str:
    return "(and_e2 " * n + f'(axiom "{label}")' + ")" * n + "\n"


def build_check(rng, d: str) -> list[Job]:
    jobs = []
    t = _tag(rng)
    for family, n in [("cut-chain", n) for n in (10, 20, 40, 80)] + [
            ("cut-small", n) for n in (2, 3, 4, 5, 6, 7) * 2]:
        atom = rng.choice("PQ")
        top = f"h{t}{len(jobs)}"
        proof = f'(axiom "{top}")'
        for k in range(n):
            proof = (f'(imp_e (imp_i "{top}_{k}" (axiom "{top}_{k}")'
                     f' : (imp {atom} {atom})) {proof})')
        prf = _write(d, f"{top}.prf", proof + "\n")
        goal = _write(d, f"{top}.goal", f"{top} : {atom} |- {atom}\n")
        cuts = [f"cut at {[1] * k}: imp_i/imp_e" for k in range(n)]
        for verb, expect in (
                ("check", Expect("ok", True)),
                ("cuts", Expect("yes", True, exact(cuts + [f"cuts: {n}"]))),
                ("eliminate", Expect("ok", True, exact(
                    [f'(axiom "{top}" : {atom})', f"steps: {n}"])))):
            jobs.append(Job(family,
                            (verb, "builtin:empty", prf, goal), expect))

    for n_defs in (50, 200):
        # declared in reverse so the LPO precedence decreases along the chain
        names = [f"D{t}{i}" for i in range(n_defs + 1)]
        text = (f"sort iota.\npred F{t}.\n"
                + "".join(f"pred {p}.\n" for p in reversed(names))
                + "".join(f"rule d{i}: {names[i]} ~> "
                          f"(and F{t} {names[i + 1]}).\n"
                          for i in range(n_defs)))
        thy = _write(d, f"defs{n_defs}.thy", text)
        prf = _write(d, f"defs{n_defs}.prf", _and_e2_chain("h", 50))
        goal = _write(d, f"defs{n_defs}.goal",
                      f"h : {names[n_defs - 50]} |- {names[n_defs]}\n")
        jobs.append(Job("def-chain", ("validate", thy),
                        Expect("ok", True, exact(_VALID))))
        jobs.append(Job("def-chain", ("check", thy, prf, goal),
                        Expect("ok", True)))

    n_defs, steps = 100, 25
    names = [f"E{t}{i}" for i in range(n_defs + 1)]
    text = ("sort nat.\nfunc 0 : nat.\nfunc S : nat -> nat.\n"
            "func plus : nat nat -> nat.\nfunc mult : nat nat -> nat.\n"
            f"pred Q{t} : nat.\n"
            + "".join(f"pred {p} : nat.\n" for p in reversed(names))
            + "rule add0: (plus 0 y) ~> y.\n"
              "rule addS: (plus (S x) y) ~> (S (plus x y)).\n"
              "rule mul0: (mult 0 y) ~> 0.\n"
              "rule mulS: (mult (S x) y) ~> (plus y (mult x y)).\n"
            + "".join(f"rule e{i}: ({names[i]} x) ~> "
                      f"(and (Q{t} x) ({names[i + 1]} (S x))).\n"
                      for i in range(n_defs)))
    thy = _write(d, "arith.thy", text)
    a, b = rng.choice([(2, 3), (3, 2)])
    prf = _write(d, "arith.prf", _and_e2_chain("h", steps))
    goal = _write(d, "arith.goal",
                  f"h : ({names[n_defs - steps]} (mult {numeral(a)} "
                  f"{numeral(b)})) |- ({names[n_defs]} "
                  f"{numeral(a * b + steps)})\n")
    jobs.append(Job("arith-defs", ("validate", thy),
                    Expect("ok", True, exact(_VALID))))
    jobs.append(Job("arith-defs", ("check", thy, prf, goal),
                    Expect("ok", True)))

    h = f"h{t}"
    prf = _write(d, "crabbe.prf",
                 f'(imp_e (imp_i "{h}" (imp_e (axiom "{h}") (axiom "{h}"))'
                 f' : (imp P Q)) (imp_i "{h}" (imp_e (axiom "{h}")'
                 f' (axiom "{h}"))))\n')
    goal = _write(d, "crabbe.goal", "|- Q\n")
    for verb, expect in (
            ("check", Expect("ok", True)),
            ("cuts", Expect("yes", True,
                            exact(["cut at []: imp_i/imp_e", "cuts: 1"]))),
            ("eliminate", Expect("fuel-exhausted", False))):
        jobs.append(Job("crabbe", (verb, "builtin:crabbe", prf, goal), expect))

    for i in range(48):
        a = 8 + 3 * (i // 4 % 8)
        b = 37 - a
        expr = f"(plus {numeral(a)} {numeral(b)})"
        if i % 2 == 0:
            jobs.append(Job("addition-small",
                            ("normalize", "builtin:addition", expr),
                            Expect("ok", True, exact(
                                [numeral(a + b), f"steps: {a + 1}"]))))
        else:
            same = i % 4 == 1
            c = a + b if same else a + b - 1
            jobs.append(Job("addition-small",
                            ("congruent", "builtin:addition", expr,
                             numeral(c)),
                            Expect("yes" if same else "no", same)))

    for k in (50, 100, 200, 400):
        expr = f"(plus {numeral(k)} {numeral(k)})"
        jobs.append(Job("addition-deep",
                        ("normalize", "builtin:addition", expr),
                        Expect("ok", True, exact(
                            [numeral(2 * k), f"steps: {k + 1}"]))))
        jobs.append(Job("addition-deep",
                        ("congruent", "builtin:addition", expr,
                         numeral(2 * k)),
                        Expect("yes", True)))
    return jobs


WORKLOADS = {
    "search": Workload(
        "bound by the prover: syntax (alpha_key, free_vars) and the "
        "kernel's congruence cache under a tiny rule set; narrowing runs "
        "on a rule-free system",
        SEARCH_FAMILIES, build_search),
    "narrow": Workload(
        "bound by narrowing and unification; rewriting sees many small "
        "normalize calls on shallow terms, one per narrowing state",
        NARROW_FAMILIES, build_narrow),
    "check": Workload(
        "bound by the kernel, parsing, theory validation and deep "
        "rewriting: few large rewriting calls, no search, no narrowing",
        CHECK_FAMILIES, build_check),
}

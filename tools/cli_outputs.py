"""Record what ``demod.cli.main`` prints for every job of the usual
benchmark passes, and for a fixed set of malformed inputs, so that two
checkouts compare with ``diff``.

    python3 tools/cli_outputs.py OUT

The passes are (seed 1, pass 0) and (seed 2, pass 1) of the search,
narrow and check workloads, built by ``perfbench/run.py``'s
``build_pass`` and run in this process, one after the other, as the
benchmark runs them.  The malformed inputs are seeded byte-level
mutations of the corpus files and of a few terms: each theory goes
through ``validate``, each proof and goal through ``check`` next to
the unchanged other file, each term through ``normalize``.  Most of
them are parse errors, so the located error messages are compared too.
The narrowing grid runs ``unify`` on an ``assoc``, an ``addition`` and a
``mult`` problem at every depth from 1 to 8, caps 1 and 16, and fuels 1
to 4 and the default, so the ``complete:`` flags, the solution order,
the variable names and the messages of fuel run out inside a narrowing
step are compared; and ``prove`` of the assoc witness goal at depths 4
and 8.  The validation grid runs ``validate`` on seeded theory files
with no ``assert terminating.``, so that the path order decides: term
rules, and proposition rules whose right-hand sides have connectives
and quantifiers, many of which bind a variable of the left-hand side
again above a copy of one of its arguments.  For each job OUT gets its
argv (paths relative to the inputs directory), its exit code, its
stdout and its stderr.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py)
from workloads import GOLDEN_LEFT, GOLDEN_RIGHT, WITNESS  # noqa: E402

WORKLOADS = ("search", "narrow", "check")
PASSES = ((1, 0), (2, 1))   # (seed, pass index)

# mutated copies of each corpus file and term; the characters inserted
# are the token characters, and '@', which no token accepts
MUTANTS = 8
ALPHABET = "()~>-|:., \nxS0_'?+*=\r\t#\"@"
PROOFS = {"crabbe_q": "corpus/crabbe.thy", "identity": "builtin:empty"}
TERMS = ("(plus (S (S 0)) (S 0))", "(P (plus (S x) (S 0)))",
         "(forall (x : nat) (imp (P x) (P (plus 0 x))))")


def record(main, argv, prefix: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = f"exit {main(list(argv))}"
        except (Exception, SystemExit) as e:   # recorded, not hidden
            status = f"raised {type(e).__name__}: {e}"
    shown = " ".join(a.replace(prefix, "") for a in argv)
    return (f"argv: {shown}\n{status}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def mutant(rng, text: str) -> str:
    """`text` after one to three edits: an insertion, a deletion or a
    cut."""
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(text) + 1)
        how = rng.randrange(3)
        if how == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif how == 1:
            text = text[:at] + text[at + rng.randrange(1, 9):]
        else:
            text = text[:at]
    return text


def malformed_jobs(directory: str) -> list[list[str]]:
    """The argv of each malformed-input job; its files go to
    `directory`, named relative to the root as ``build_pass`` names
    them."""
    rng = random.Random("cli-outputs malformed")
    d = os.path.relpath(directory, ROOT)
    jobs = []
    for name in sorted(os.listdir("corpus")):
        stem, ext = os.path.splitext(name)
        with open(os.path.join("corpus", name)) as f:
            text = f.read()
        for k in range(MUTANTS):
            path = os.path.join(d, f"m{k}-{name}")
            with open(path, "w") as f:
                f.write(mutant(rng, text))
            if ext == ".thy":
                jobs.append(["validate", path])
            elif ext == ".prf":
                jobs.append(["check", PROOFS[stem], path,
                             f"corpus/{stem}.goal"])
            else:
                jobs.append(["check", PROOFS[stem], f"corpus/{stem}.prf",
                             path])
    for term in TERMS:
        jobs += [["normalize", "builtin:addition", mutant(rng, term)]
                 for _ in range(MUTANTS)]
    return jobs


# addition with multiplication by recursion on its first argument
MULT = """\
sort nat.
func 0 : nat.
func S : nat -> nat.
func plus : nat nat -> nat.
func mult : nat nat -> nat.
pred P : nat.
rule add0: (plus 0 y) ~> y.
rule addS: (plus (S x) y) ~> (S (plus x y)).
rule mul0: (mult 0 y) ~> 0.
rule mulS: (mult (S x) y) ~> (plus y (mult x y)).
"""


def narrowing_jobs(directory: str) -> list[list[str]]:
    """The argv of each narrowing job; the mult theory goes to
    `directory`."""
    path = os.path.join(os.path.relpath(directory, ROOT), "mult.thy")
    with open(path, "w") as f:
        f.write(MULT)
    problems = [("builtin:assoc", GOLDEN_LEFT, GOLDEN_RIGHT),
                ("builtin:addition", "(plus x:nat y:nat)", "(S (S (S 0)))"),
                (path, "(mult x:nat (S (S 0)))", "(S (S (S (S 0))))")]
    jobs = [["unify", *problem, "--depth", str(depth), "--cap", cap, *fuel]
            for problem in problems for depth in range(1, 9)
            for cap in ("1", "16")
            for fuel in (["--fuel", "1"], ["--fuel", "2"], ["--fuel", "3"],
                         ["--fuel", "4"], [])]
    return jobs + [["prove", "builtin:assoc", WITNESS, "--depth", depth]
                   for depth in ("4", "8")]


# the symbols of a validation theory, declared in a seeded order, which
# is the precedence of the path order
SYMBOLS = {"c": "func c : s.", "d": "func d : s.", "g": "func g : s -> s.",
           "f": "func f : s s -> s.", "Q": "pred Q.", "P": "pred P : s.",
           "R": "pred R : s s."}
ARITY = {"c": 0, "d": 0, "g": 1, "f": 2, "Q": 0, "P": 1, "R": 2}
THEORIES = 60


def validation_theory(rng) -> str:
    """A theory of one to three rules over SYMBOLS; ``prop`` reads the
    head, the arguments and the variables of the rule's left-hand
    side."""
    def apply(head, args):
        return f"({head} {' '.join(args)})" if args else head

    def term(depth, names):
        if depth <= 0 or rng.random() < 0.3:
            return rng.choice([*names, "c", "d"])
        head = rng.choice("gf")
        return apply(head, [term(depth - 1, names)
                            for _ in range(ARITY[head])])

    def prop(depth, names):
        k = rng.randrange(8) if depth > 0 else 0
        if k == 0:
            pred = rng.choice("QPR")
            if rng.random() < 0.6:
                pred = head   # the lhs's arguments, some of them again
            return apply(pred, [
                args[i] if pred == head and rng.random() < 0.7
                else term(1, names) for i in range(ARITY[pred])])
        if k == 1:
            return rng.choice(("top", "bot"))
        if k < 5:
            return (f"({('and', 'or', 'imp')[k - 2]} "
                    f"{prop(depth - 1, names)} {prop(depth - 1, names)})")
        x = rng.choice(lhs_vars if lhs_vars and rng.random() < 0.7
                       else ("w", "u"))
        return (f"({('forall', 'exists')[k % 2]} ({x} : s) "
                f"{prop(depth - 1, names + (x,))})")

    decls = list(SYMBOLS.values())
    rng.shuffle(decls)
    lines = ["sort s. " + " ".join(decls)]
    for k in range(rng.randrange(1, 4)):
        head = rng.choice("gf") if rng.random() < 0.35 \
            else rng.choice("QPRR")
        args = [term(rng.randrange(3), ("x", "y", "z"))
                for _ in range(ARITY[head])]
        lhs_vars = tuple(sorted(set(" ".join(args).replace("(", " ")
                                    .replace(")", " ").split())
                                & {"x", "y", "z"}))
        if head in "gf":
            rhs = term(2, lhs_vars)
        else:
            rhs = prop(rng.randrange(4), lhs_vars)
        lines.append(f"rule r{k}: {apply(head, args)} ~> {rhs}.")
    return "\n".join(lines) + "\n"


def validation_jobs(directory: str) -> list[list[str]]:
    """The argv of each validation job; its theory goes to
    `directory`."""
    rng = random.Random("cli-outputs validation")
    jobs = []
    for k in range(THEORIES):
        path = os.path.join(os.path.relpath(directory, ROOT), f"v{k}.thy")
        with open(path, "w") as f:
            f.write(validation_theory(rng))
        jobs.append(["validate", path])
    return jobs


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_path = os.path.abspath(argv[0])
    os.chdir(ROOT)   # build_pass names its files relative to the root
    demod = run.import_demod()
    directory = os.path.join(run.WORK, f"cli-outputs-{os.getpid()}")
    prefix = os.path.relpath(directory, ROOT) + os.sep
    jobs = 0
    try:
        with open(out_path, "w") as f:
            for workload in WORKLOADS:
                for seed, index in PASSES:
                    for job in run.build_pass(workload, seed, index,
                                              directory):
                        f.write(f"=== {workload} seed {seed} pass {index}\n")
                        f.write(record(demod.cli.main, job.argv, prefix))
                        jobs += 1
            for job in malformed_jobs(directory):
                f.write("=== malformed\n")
                f.write(record(demod.cli.main, job, prefix))
                jobs += 1
            for job in narrowing_jobs(directory):
                f.write("=== narrowing\n")
                f.write(record(demod.cli.main, job, prefix))
                jobs += 1
            for job in validation_jobs(directory):
                f.write("=== validation\n")
                f.write(record(demod.cli.main, job, prefix))
                jobs += 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"{jobs} jobs written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command line front end.

Every verb prints a short deterministic report whose last line is a
single ``#verdict: <word>`` line.  Exit status: 0 for a positive
verdict, 1 for a definite negative, 2 for errors, for searches that
hit a bound without an answer and for ``fuel-exhausted``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import FuelExhausted, ParseError
from .kernel import _normalize_checked, check_proof, find_cuts
from .parsing import (
    parse_node, parse_proof, parse_prop, parse_sequent, parse_theory,
    print_proof,
)
from .prover import consistency_probe, search_proof
from .rewriting import DEFAULT_FUEL, congruent_detail, normalize
from .syntax import print_node
from .theories import (
    BUILTIN_NAMES, Theory, load_builtin, subformula_closure,
)
from .unification import UnificationProblem, narrow_unify

EXIT_YES, EXIT_NO, EXIT_ERROR = 0, 1, 2


def _load_theory(spec: str) -> Theory:
    if spec.startswith("builtin:"):
        return load_builtin(spec[len("builtin:"):])
    with open(spec) as f:
        return parse_theory(f.read(), name=spec)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _verdict(word: str, lines=()) -> int:
    for line in lines:
        print(line)
    print(f"#verdict: {word}")
    return {"yes": EXIT_YES, "proved": EXIT_YES, "ok": EXIT_YES,
            "consistent-at-bound": EXIT_YES,
            "no": EXIT_NO, "fail": EXIT_NO, "invalid": EXIT_NO,
            "inconsistent": EXIT_NO,
            "bound-exceeded": EXIT_ERROR,
            "fuel-exhausted": EXIT_ERROR}[word]


def _checked(args):
    """The theory, the sequent, and the kernel's verdict on the proof."""
    theory = _load_theory(args.theory)
    proof = parse_proof(_read(args.proof), theory.signature)
    sequent = parse_sequent(_read(args.goal), theory.signature)
    return theory, sequent, check_proof(theory, proof, sequent, fuel=args.fuel)


def _invalid(result) -> int:
    return _verdict("invalid", [f"at {list(result.path)}: {result.message}"])


def _cmd_check(args) -> int:
    result = _checked(args)[2]
    return _verdict("ok") if result.ok else _invalid(result)


def _cmd_normalize(args) -> int:
    theory = _load_theory(args.theory)
    x = parse_node(args.expr, theory.signature)
    nf = normalize(theory.system, x, fuel=args.fuel)
    return _verdict("ok", [print_node(nf.value), f"steps: {nf.steps}"])


def _cmd_congruent(args) -> int:
    theory = _load_theory(args.theory)
    a = parse_node(args.left, theory.signature)
    b = parse_node(args.right, theory.signature)
    same, how = congruent_detail(theory.system, a, b, fuel=args.fuel)
    return _verdict("yes" if same else "no", [f"method: {how}"])


def _cmd_unify(args) -> int:
    theory = _load_theory(args.theory)
    a = parse_node(args.left, theory.signature)
    b = parse_node(args.right, theory.signature)
    problem = UnificationProblem.of([(a, b)], theory.system, args.fuel)
    if problem is None:
        return _verdict("no", ["the two sides can never unify"])
    stream = narrow_unify(problem, depth=args.depth, cap=args.cap,
                          fuel=args.fuel)
    lines = []
    for i, sol in enumerate(stream.solutions):
        binds = ", ".join(f"{v.name} -> {print_node(t)}"
                          for v, t in sorted(sol.items(),
                                             key=lambda it: it[0].name))
        lines.append(f"solution {i}: {{{binds}}}")
    lines.append(f"complete: {'yes' if stream.complete else 'no'}")
    if stream.solutions:
        return _verdict("yes", lines)
    return _verdict("no" if stream.complete else "bound-exceeded", lines)


def _cmd_prove(args) -> int:
    theory = _load_theory(args.theory)
    goal = parse_prop(args.goal, theory.signature)
    outcome = search_proof(theory, goal, depth=args.depth, fuel=args.fuel,
                           narrow_depth=args.depth, narrow_cap=args.cap)
    lines = [f"nodes: {outcome.stats.nodes}"]
    if outcome.proved:
        lines.insert(0, print_proof(outcome.proof))
        return _verdict("proved", lines)
    return _verdict(outcome.status, lines)


def _cmd_cuts(args) -> int:
    result = _checked(args)[2]
    if not result.ok:
        return _invalid(result)
    cuts = find_cuts(result.proof)
    lines = [f"cut at {list(path)}: {intro}/{elim}"
             for path, intro, elim in cuts]
    lines.append(f"cuts: {len(cuts)}")
    return _verdict("yes" if cuts else "no", lines)


def _cmd_eliminate(args) -> int:
    theory, sequent, result = _checked(args)
    if not result.ok:
        return _invalid(result)
    try:
        # checked above: normalize_proof would check it again on entry
        normalized = _normalize_checked(theory, result.proof, sequent,
                                        args.depth * 125, args.fuel)
    except FuelExhausted as e:
        return _verdict("fuel-exhausted",
                        [f"no normal form within the bound ({e.steps} steps)"])
    lines = [print_proof(normalized.proof), f"steps: {normalized.steps}"]
    return _verdict("ok", lines)


def _cmd_validate(args) -> int:
    report = _load_theory(args.theory).report
    ok = report.nonconfusing and report.locally_confluent is not False
    return _verdict("ok" if ok else "invalid", report.lines())


def _cmd_subformulae(args) -> int:
    theory = _load_theory(args.theory)
    a = parse_prop(args.prop, theory.signature)
    s = subformula_closure(theory, a, fuel=args.fuel)
    lines = [print_node(r) for r in s.representatives]
    lines.append(f"status: {s.status}")
    lines.append(f"classes: {len(s.representatives)}")
    return _verdict("ok", lines)


def _cmd_probe(args) -> int:
    theory = _load_theory(args.theory)
    hyps = tuple(parse_prop(h, theory.signature) for h in args.hyp)
    outcome = consistency_probe(theory, depth=args.depth, hypotheses=hyps,
                                fuel=args.fuel, narrow_depth=args.depth,
                                narrow_cap=args.cap)
    lines = [f"nodes: {outcome.stats.nodes}"]
    if outcome.proved:
        lines.insert(0, print_proof(outcome.proof))
        return _verdict("inconsistent", lines)
    if outcome.status == "fail":
        lines.append(f"no derivation of falsity exists at depth {args.depth}")
        return _verdict("consistent-at-bound", lines)
    return _verdict("bound-exceeded", lines)


# option: its argparse settings
OPTIONS = {
    "--depth": dict(type=int, default=8,
                    help="search depth bound (default 8)"),
    "--fuel": dict(type=int, default=DEFAULT_FUEL,
                   help=f"rewrite step budget (default {DEFAULT_FUEL})"),
    "--cap": dict(type=int, default=16,
                  help="maximum solutions to enumerate (default 16)"),
    "--hyp": dict(action="append", default=[],
                  help="extra hypothesis (repeatable)"),
}
# (verb, option): its help where the option means something else there
HELP = {("eliminate", "--depth"):
        "allows 125 × depth cut-reduction steps (default 8)"}
FUEL = ("--fuel",)
SEARCH = ("--depth", "--fuel", "--cap")
PROOF_FILES = (("proof", "proof file ('-' for stdin)"),
               ("goal", "sequent file ('-' for stdin)"))
SIDES = (("left", None), ("right", None))

# verb: (help, handler, positional arguments after the theory as
# (name, help), the options its handler reads)
VERBS = {
    "check": ("check a proof against a sequent", _cmd_check, PROOF_FILES,
              FUEL),
    "normalize": ("rewrite to normal form", _cmd_normalize,
                  (("expr", "term or proposition"),), FUEL),
    "congruent": ("decide the congruence", _cmd_congruent, SIDES, FUEL),
    "unify": ("unify modulo the rules (narrowing)", _cmd_unify, SIDES,
              SEARCH),
    "prove": ("search for a proof of a proposition", _cmd_prove,
              (("goal", "proposition to prove"),), SEARCH),
    "cuts": ("list the cuts of a checked proof", _cmd_cuts, PROOF_FILES,
             FUEL),
    "eliminate": ("normalize a proof (cut elimination)", _cmd_eliminate,
                  PROOF_FILES, ("--depth", "--fuel")),
    "validate": ("report on a theory's rules", _cmd_validate, (), ()),
    "subformulae": ("congruence-closed sub-formula classes",
                    _cmd_subformulae, (("prop", None),), FUEL),
    "probe": ("bounded search for a proof of falsity", _cmd_probe, (),
              SEARCH + ("--hyp",)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="demod",
        description="a workbench for natural deduction modulo rewriting")
    sub = ap.add_subparsers(dest="command", required=True)
    for verb, (text, fn, positionals, options) in VERBS.items():
        sp = sub.add_parser(verb, help=text)
        sp.add_argument("theory",
                        help="theory file path, or builtin:<name> with name "
                             "in " + ", ".join(BUILTIN_NAMES))
        for name, arg_help in positionals:
            sp.add_argument(name, help=arg_help)
        for option in options:
            settings = OPTIONS[option]
            if (verb, option) in HELP:
                settings = dict(settings, help=HELP[verb, option])
            sp.add_argument(option, **settings)
        sp.set_defaults(fn=fn)
    return ap


# one parser per process, built on first use: parsing leaves no state in
# it, and building it costs more than most jobs
_parser = functools.cache(build_parser)


def _too_deep(e: RecursionError) -> str:
    """Input past the recursion limit, and the innermost layer it hit."""
    import traceback   # this path only: no cost at startup
    names = [f.f_globals.get("__name__", "")
             for f, _ in traceback.walk_tb(e.__traceback__)]
    layer = [n for n in names if n.startswith(f"{__package__}.")][-1]
    return (f"input nested too deeply for the {layer.rpartition('.')[2]} "
            f"layer (recursion limit {sys.getrecursionlimit()})")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except FuelExhausted as e:   # one word for it, whichever verb ran out
        return _verdict("fuel-exhausted", [str(e)])
    except Exception as e:   # any error or crash, never a definite "no"
        kind = "parse error" if isinstance(e, ParseError) else "error"
        text = _too_deep(e) if isinstance(e, RecursionError) else e
        print(f"{kind}: {text}", file=sys.stderr)
        print("#verdict: error")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Expected answers computed without demod.

Every job carries an ``Expect``: the verdict word a correct demod gives,
whether the statement behind it is true, and optionally a check of the
report lines.  The checks here parse demod's printed s-expressions with
their own reader and decide them by integer arithmetic (``addition``)
or by flattening sums (``assoc``); verdicts of the logic goals are
written by hand in ``workloads.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

# Exit status of each verdict word, as the CLI contract states it.
EXIT_OF = {
    "yes": 0, "proved": 0, "ok": 0, "consistent-at-bound": 0,
    "no": 1, "fail": 1, "invalid": 1, "inconsistent": 1,
    "bound-exceeded": 2, "fuel-exhausted": 2, "error": 2,
}
POSITIVE = {"yes", "proved", "ok", "consistent-at-bound"}
NEGATIVE = {"no", "fail", "invalid", "inconsistent"}


@dataclass(frozen=True)
class Expect:
    """What a correct run of one job prints.

    ``word`` is the expected verdict.  ``truth`` is the polarity of the
    fact the job asks about: a definite verdict of the other polarity is
    a wrong answer, not just a failed job.  ``lines`` checks the report
    lines above the verdict and returns a complaint or None.
    """

    word: str
    truth: bool
    lines: Optional[Callable[[list[str]], Optional[str]]] = None


@dataclass(frozen=True)
class Outcome:
    ok: bool
    wrong: bool      # a definite answer that contradicts the oracle
    detail: str


def judge(expect: Expect, rc, out: str) -> Outcome:
    """Compare one finished ``cli.main`` call with its oracle."""
    lines = out.rstrip("\n").split("\n") if out else []
    last = lines[-1] if lines else ""
    if not last.startswith("#verdict: "):
        return Outcome(False, False, "no verdict line")
    word = last[len("#verdict: "):]
    body = lines[:-1]
    definite = word in POSITIVE or word in NEGATIVE
    if definite and (word in POSITIVE) != expect.truth:
        return Outcome(False, True, f"verdict {word}, expected {expect.word}")
    if word != expect.word:
        return Outcome(False, False, f"verdict {word}, expected {expect.word}")
    if rc != EXIT_OF[word]:
        return Outcome(False, definite, f"exit {rc} for verdict {word}")
    if expect.lines is not None:
        why = expect.lines(body)
        if why is not None:
            return Outcome(False, True, why)
    return Outcome(True, False, "")


# ---------------------------------------------------------------------------
# A reader for printed terms

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def read_sexpr(text: str):
    """Nested tuples of strings; raises ValueError on unbalanced input."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            done = tuple(stack.pop())
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not one expression: {text!r}")
    return stack[0][0]


def nat_value(x, zero="0", succ="S", plus="plus") -> Optional[int]:
    """The integer a ground 0/S/plus term denotes; None otherwise."""
    if x == zero:
        return 0
    if isinstance(x, tuple) and len(x) == 2 and x[0] == succ:
        v = nat_value(x[1], zero, succ, plus)
        return None if v is None else v + 1
    if isinstance(x, tuple) and len(x) == 3 and x[0] == plus:
        a = nat_value(x[1], zero, succ, plus)
        b = nat_value(x[2], zero, succ, plus)
        return None if a is None or b is None else a + b
    return None


def flatten(x, plus="plus") -> list[str]:
    """Leaves of a sum, left to right: the assoc oracle."""
    if isinstance(x, tuple) and len(x) == 3 and x[0] == plus:
        return flatten(x[1], plus) + flatten(x[2], plus)
    if isinstance(x, tuple):
        return [" ".join(map(str, x))]
    return [x.split(":")[0]]


# ---------------------------------------------------------------------------
# Writers for the inputs the oracles reason about

def numeral(n: int, zero="0", succ="S") -> str:
    """S^n(0) as text, built iteratively."""
    return f"({succ} " * n + zero + ")" * n


def left_comb(leaves: list[str]) -> str:
    out = leaves[0]
    for leaf in leaves[1:]:
        out = f"(plus {out} {leaf})"
    return out


def bracketing(leaves: list[str], rng) -> str:
    """A random binary bracketing of the leaves."""
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randrange(1, len(leaves))
    return (f"(plus {bracketing(leaves[:k], rng)} "
            f"{bracketing(leaves[k:], rng)})")


# ---------------------------------------------------------------------------
# Report-line checks

_SOLUTION = re.compile(r"^solution \d+: \{(.*)\}$")


def solutions_of(body: list[str], var: str) -> list:
    """The term bound to ``var`` in each ``solution i: {...}`` line."""
    found = []
    for line in body:
        m = _SOLUTION.match(line)
        if not m:
            continue
        for bind in _split_binds(m.group(1)):
            name, _, term = bind.partition(" -> ")
            if name == var:
                found.append(read_sexpr(term))
    return found


def _split_binds(text: str) -> list[str]:
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            out.append(text[start:i].strip())
            start = i + 1
    if text.strip():
        out.append(text[start:].strip())
    return out


def every_solution(var: str, good: Callable, what: str):
    """Lines check: at least one solution, and each binds var well."""
    def check(body):
        sols = solutions_of(body, var)
        if not sols:
            return f"no solution for {var}"
        for s in sols:
            if not good(s):
                return f"solution {var} -> {s} is not {what}"
        return None
    return check


def exact(expected: list[str]):
    def check(body):
        if body != expected:
            return f"report {body[:3]}... differs from the expected"
        return None
    return check


def first_line_starts(prefixes: tuple[str, ...]):
    def check(body):
        if not body or not body[0].startswith(prefixes):
            return f"proof does not start with {' or '.join(prefixes)}"
        return None
    return check

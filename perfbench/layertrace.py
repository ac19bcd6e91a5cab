"""Spans at demod's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces each public function of a layer module by a
timing wrapper in the namespace of every *other* layer module that
imported it, which is where the calling code looks the name up.  A few
functions are also wrapped in their own module, because the counts
they carry are made by intra-layer calls (``normalize`` from
``congruent_detail``, ``match_pattern`` from the redex search,
``unify_syntactic`` from the narrowing loop, ``check_proof`` and
``reduce_cut`` from ``normalize_proof``, ``search_proof`` from
``consistency_probe``, ``validate_theory`` from ``load_builtin``), or
because callers import them from their module at call time
(``narrow_unify``).  The kernel's per-check congruence cache
(``_Session.congruent`` and ``expose``) is wrapped too, since the
prover calls it directly.  Self-recursive functions (``free_vars``) are only
wrapped at their cross-layer entry, so each call from another layer is
one span.

Generator functions (``positions``) are not wrapped: their work happens
while the caller iterates, so it counts as the caller's time.

Every wrapped call adds its count, inclusive time and self time to a
table keyed by (calling function, called function).  Calls into the
syntax layer and of the hot helpers in ``AGGREGATED`` (hundreds of
thousands per pass) stop there;
every other call is also kept as a span (id, parent id, job id,
function id, start, end) in memory and written out by ``write_spans``
when the run ends.  A layer's self time is the duration of its calls
minus the time their wrapped callees cover.  The wrappers' own cost
lands partly in these times; the traced run reports it as its
throughput against an untraced pass.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter

LAYERS = ("cli", "parsing", "theories", "syntax", "rewriting",
          "unification", "kernel", "prover")

# Functions also wrapped inside their own module (see the docstring).
INTRA = {
    "rewriting": {"match_pattern", "normalize"},
    "unification": {"unify_syntactic", "narrow_unify"},
    "kernel": {"check_proof", "reduce_cut", "find_cuts"},
    "prover": {"search_proof"},
    "theories": {"validate_theory"},
}
SESSION_METHODS = ("congruent", "expose")
AGGREGATED = {"rewriting.match_pattern", "unification.unify_syntactic",
              "kernel._Session.congruent", "kernel._Session.expose"}


def _proof_size(p) -> int:
    n, todo = 0, [p]
    while todo:
        q = todo.pop()
        n += 1
        todo.extend(q.children)
    return n


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.name"
        self.layer_of: list[str] = []
        self.spans = array("d")
        self.next_id = 0
        self.job = 0
        # one entry per open span: [function id, span id, child time]
        self.stack: list[list] = [[-1, -1, 0.0]]
        # (parent function id, function id) -> [calls, inclusive, self]
        self.edges: dict[tuple[int, int], list] = {}
        self.work: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _fid(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _add(self, key: str, value: float) -> None:
        self.work[key] = self.work.get(key, 0) + value

    def wrap(self, layer: str, name: str, fn, hook=None):
        fid = self._fid(layer, name)
        stack, spans, edges = self.stack, self.spans, self.edges
        keep = layer != "syntax" and self.names[fid] not in AGGREGATED

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                sid = self.next_id
                self.next_id = sid + 1
            else:
                sid = parent[1]
            entry = [fid, sid, 0.0]
            stack.append(entry)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                if keep:
                    spans.extend((sid, parent[1], self.job, fid, t0, t1))
                e = edges.get((parent[0], fid))
                if e is None:
                    e = edges[(parent[0], fid)] = [0, 0.0, 0.0]
                e[0] += 1
                e[1] += dur
                e[2] += dur - entry[2]
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call_root(self, job: int, argv: list[str]):
        """Run one ``cli.main`` call as the root span of job ``job``."""
        self.job = job
        return self._root(argv)

    # -- installation -----------------------------------------------------

    def install(self, demod) -> None:
        mods = {layer: getattr(demod, layer) for layer in LAYERS}
        hooks = self._hooks()
        wrapped = {}

        def wrapper_for(layer, name, fn):
            if fn not in wrapped:
                wrapped[fn] = self.wrap(layer, name, fn, hooks.get(name))
            return wrapped[fn]

        for caller, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or inspect.isgeneratorfunction(obj)):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner not in mods:
                    continue
                if owner == caller and name not in INTRA.get(owner, ()):
                    continue
                self._undo.append((mod, name, obj))
                setattr(mod, name, wrapper_for(owner, name, obj))
        session = mods["kernel"]._Session
        for name in SESSION_METHODS:
            fn = vars(session)[name]
            self._undo.append((session, name, fn))
            setattr(session, name,
                    self.wrap("kernel", f"_Session.{name}", fn))
        self._root = self.wrap("cli", "main", mods["cli"].main)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    def _hooks(self):
        add = self._add

        def parsed(args, result):
            if args and isinstance(args[0], str):
                add("parsing.chars", len(args[0]))

        def validated(args, result):
            add("theories.rules", len(args[0].system.rules))

        def normalized(args, result):
            add("rewriting.steps", result.steps)

        def matched(args, result):
            add("rewriting.match_hits", result is not None)

        def unified(args, result):
            add("unification.unify_hits", result is not None)

        def narrowed(args, result):
            add("unification.solutions", len(result.solutions))
            add("unification.complete", bool(result.complete))

        def checked(args, result):
            add("kernel.proof_nodes", _proof_size(args[1]))

        def searched(args, result):
            add("prover.nodes", result.stats.nodes)
            add("prover.narrowing_calls", result.stats.narrowing_calls)

        hooks = {name: parsed for name in (
            "parse_term", "parse_prop", "parse_node", "parse_proof",
            "parse_sequent", "parse_theory")}
        hooks.update(validate_theory=validated, normalize=normalized,
                     match_pattern=matched, unify_syntactic=unified,
                     narrow_unify=narrowed, check_proof=checked,
                     search_proof=searched)
        return hooks

    # -- results ----------------------------------------------------------

    def _sum(self, pick, column: int, parent=None) -> float:
        """Sum a column of the edge table over functions ``pick`` names
        (a layer name or a 'layer.function' name), optionally only for
        calls made from the function named ``parent``."""
        total = 0.0
        for (pfid, fid), e in self.edges.items():
            name = self.names[fid]
            if not (name == pick or self.layer_of[fid] == pick):
                continue
            if parent is not None and (pfid < 0
                                       or self.names[pfid] != parent):
                continue
            total += e[column]
        return total

    def metrics(self) -> dict[str, float]:
        calls = lambda n, parent=None: int(self._sum(n, 0, parent))
        incl = lambda n, parent=None: self._sum(n, 1, parent)
        self_s = lambda layer: self._sum(layer, 2)
        w = lambda k: self.work.get(k, 0)
        ratio = lambda a, b: a / b if b else 0.0

        parse_fns = [f"parsing.{n}" for n in (
            "parse_term", "parse_prop", "parse_node", "parse_proof",
            "parse_sequent", "parse_theory")]
        parse_s = sum(incl(n) for n in parse_fns)
        norm_s = incl("rewriting.normalize")
        check_s = incl("kernel.check_proof")
        search_s = incl("prover.search_proof")
        match_calls = calls("rewriting.match_pattern")
        unify_calls = calls("unification.unify_syntactic")
        narrow_calls = calls("unification.narrow_unify")
        reductions = calls("kernel.reduce_cut")
        return {
            "cli.calls": calls("cli.main"),
            "cli.self_s": self_s("cli"),
            "parsing.calls": calls("parsing"),
            "parsing.self_s": self_s("parsing"),
            "parsing.chars_per_s": ratio(w("parsing.chars"), parse_s),
            "theories.validate_calls": calls("theories.validate_theory"),
            "theories.validate_s": incl("theories.validate_theory"),
            "theories.rules_validated": int(w("theories.rules")),
            "theories.self_s": self_s("theories"),
            "syntax.alpha_key_calls": calls("syntax.alpha_key"),
            "syntax.free_vars_calls": calls("syntax.free_vars"),
            "syntax.apply_subst_calls": calls("syntax.apply_subst"),
            "syntax.alpha_eq_calls": calls("syntax.alpha_eq"),
            "syntax.self_s": self_s("syntax"),
            "rewriting.normalize_calls": calls("rewriting.normalize"),
            "rewriting.normalize_s": norm_s,
            "rewriting.steps": int(w("rewriting.steps")),
            "rewriting.steps_per_s": ratio(w("rewriting.steps"), norm_s),
            "rewriting.match_calls": match_calls,
            "rewriting.match_hit_ratio":
                ratio(w("rewriting.match_hits"), match_calls),
            "rewriting.congruent_calls": calls("rewriting.congruent")
                + calls("rewriting.congruent_detail"),
            "rewriting.congruent_s": incl("rewriting.congruent")
                + incl("rewriting.congruent_detail"),
            "rewriting.confluence_s": incl("rewriting.check_local_confluence"),
            "rewriting.self_s": self_s("rewriting"),
            "unification.narrow_calls": narrow_calls,
            "unification.self_s": self_s("unification"),
            "unification.unify_calls": unify_calls,
            "unification.unify_hit_ratio":
                ratio(w("unification.unify_hits"), unify_calls),
            "unification.solutions": int(w("unification.solutions")),
            "unification.complete_ratio":
                ratio(w("unification.complete"), narrow_calls),
            "kernel.check_calls": calls("kernel.check_proof"),
            "kernel.check_s": check_s,
            "kernel.proof_nodes": int(w("kernel.proof_nodes")),
            "kernel.nodes_per_s": ratio(w("kernel.proof_nodes"), check_s),
            "kernel.reduce_cut_calls": reductions,
            "kernel.normalize_proof_s": incl("kernel.normalize_proof"),
            "kernel.checks_per_reduction": ratio(
                calls("kernel.check_proof", "kernel.normalize_proof"),
                reductions),
            "kernel.self_s": self_s("kernel"),
            "prover.search_calls": calls("prover.search_proof"),
            "prover.self_s": self_s("prover"),
            "prover.nodes": int(w("prover.nodes")),
            "prover.nodes_per_s": ratio(w("prover.nodes"), search_s),
            "prover.narrowing_calls": int(w("prover.narrowing_calls")),
            "prover.final_check_s":
                incl("kernel.check_proof", "prover.search_proof")
                + incl("kernel.find_cuts", "prover.search_proof"),
        }

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent, job, function, start, end."""
        s = self.spans
        with open(path, "w") as f:
            f.write("# id parent job function start_s end_s\n")
            for i in range(0, len(s), 6):
                f.write(f"{int(s[i])} {int(s[i + 1])} {int(s[i + 2])} "
                        f"{self.names[int(s[i + 3])]} {s[i + 4]:.9f} "
                        f"{s[i + 5]:.9f}\n")

    def calls(self) -> int:
        """Wrapped calls made, kept as spans or not."""
        return sum(e[0] for e in self.edges.values())

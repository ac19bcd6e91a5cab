"""demod: a workbench for natural deduction modulo a congruence on
propositions, generated by rewrite rules on terms and on atoms."""

from .errors import (
    DemodError, FuelExhausted, ParseError, ProofError, RuleError, SortError,
    TheoryError,
)
from .syntax import (
    And, App, Atom, BOT, Bottom, Exists, ForAll, Hole, Imp, Or, Signature,
    TOP, Top, Var, alpha_eq, alpha_key, apply_subst, compose, free_vars,
    fresh_var, make_signature, print_node, print_prop, print_term,
    term_sort, wellformed,
)
from .rewriting import (
    DEFAULT_FUEL, CriticalPair, NormalForm, RewriteRule, RewriteSystem,
    check_local_confluence, check_nonconfusing, check_termination_lpo,
    congruent, congruent_detail, critical_pairs, match_pattern, normalize,
    rewrite_positions,
)
from .unification import (
    SolutionStream, UnificationProblem, narrow_unify, unify_syntactic,
)
from .kernel import (
    CheckResult, NormalizedProof, Proof, Sequent, check_proof, find_cuts,
    normalize_proof, reduce_cut,
)
from .theories import (
    BUILTIN_NAMES, SubformulaSet, Theory, ValidationReport, load_builtin,
    subformula_closure, validate_theory,
)
from .prover import (
    SearchOutcome, SearchStats, consistency_probe, search_proof,
)
from .parsing import (
    parse_proof, parse_prop, parse_sequent, parse_theory, print_proof,
)

__version__ = "0.1.0"

"""Proof-term kernel for intuitionistic propositional logic, with the
Visser and Harrop admissible-rule constructs and their evaluators."""

from .syntax import (
    Abs, App, Atom, CALCULI, Case, Conj, Disj, Exfalso, FALSUM, Falsum,
    Formula, Harrop, Impl, Inj, Pair, Proj, Term, TypingContext, Var, Visser,
    alpha_eq, free_vars, is_neg, nameless, neg, substitute, term_depth,
    term_size,
)
from .typecheck import (
    BranchTypeMismatch, CalculusViolation, NotAConjunction, NotADisjunction,
    NotAnImplication, TypeCheckError, TypeMismatch, UnknownVariable,
    VisserOpenAssumption, check, checks, infer,
)
from .parser import (
    Declaration, ParseError, parse_formula, parse_script, parse_term,
    print_formula, print_term, tokenize,
)
from .reduction import (
    TraceStep, decompose, is_normal, replay_step, step_anywhere, step_top_named,
    weak_head_redexes,
)
from .normalize import (
    BudgetExceeded, DEFAULT_BUDGET, InternalError, PreconditionViolation,
    eval_v, extract_disjunct, normalize_full, normalize_kp,
    step_weak_head_named, weak_head_normalize,
)
from .kripke import KripkeModel, forces, is_valid_model
from .oracle import (
    ClassReport, ClassificationFailure, NotProvable, Provable, classify,
    ipc_provable,
)
from .gen import GenerationFailed, generate_typed

__version__ = "0.1.0"

__all__ = [
    "Abs", "App", "Atom", "BranchTypeMismatch", "BudgetExceeded", "CALCULI",
    "CalculusViolation", "Case", "ClassReport", "ClassificationFailure",
    "Conj", "DEFAULT_BUDGET", "Declaration", "Disj", "Exfalso", "FALSUM",
    "Falsum", "Formula", "GenerationFailed", "Harrop", "Impl", "Inj",
    "InternalError", "KripkeModel", "NotAConjunction", "NotADisjunction",
    "NotAnImplication", "NotProvable", "Pair", "ParseError",
    "PreconditionViolation", "Proj", "Provable", "Term", "TraceStep",
    "TypeCheckError",
    "TypeMismatch", "TypingContext", "UnknownVariable", "Var", "Visser",
    "VisserOpenAssumption", "alpha_eq", "check", "checks", "classify",
    "decompose", "eval_v", "extract_disjunct", "forces",
    "free_vars", "generate_typed", "infer", "ipc_provable", "is_neg",
    "is_normal", "is_valid_model", "nameless", "neg",
    "normalize_full", "normalize_kp", "parse_formula", "parse_script",
    "parse_term", "print_formula", "print_term", "replay_step",
    "step_anywhere", "step_top_named",
    "step_weak_head_named", "substitute", "term_depth",
    "term_size", "tokenize", "weak_head_normalize", "weak_head_redexes",
]

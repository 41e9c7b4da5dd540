"""A checkable inference system for left-order inequalities.

Submodules: ``words`` (formal atom words and judgments), ``facts`` (atom
tables binding each atom to a plane word, and the facts verified on them),
``rules`` (the rule engine), ``derivation`` (trees, the checker and the
theorem's statement check), and ``scripts`` (the shipped derivation of the
theorem and its atom table).
"""

from .derivation import (
    CONTRADICTION_GOAL,
    Branch,
    Derivation,
    Hypothesis,
    Node,
    Split,
    Step,
    Verdict,
    check_derivation,
)
from .facts import (
    AtomTable,
    Fact,
    commute_fact,
    identity_eq_fact,
    non_identity_fact,
    not_in_set_fact,
)
from .rules import RuleError, apply_rule
from .scripts import script_theorem_main, theorem_atom_table
from .words import CONTRADICTION, EMPTY, Less, Word, WordEq, atom_pow, t_pow, w_inv, w_mul, w_reduce

__all__ = [
    "AtomTable", "Branch", "CONTRADICTION", "CONTRADICTION_GOAL", "Derivation",
    "EMPTY", "Fact", "Hypothesis", "Less", "Node", "RuleError",
    "Split", "Step", "Verdict", "Word", "WordEq", "apply_rule", "atom_pow",
    "check_derivation", "commute_fact", "identity_eq_fact",
    "non_identity_fact", "not_in_set_fact",
    "script_theorem_main", "t_pow", "theorem_atom_table", "w_inv", "w_mul", "w_reduce",
]

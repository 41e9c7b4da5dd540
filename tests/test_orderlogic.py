import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercert import certs
from ordercert.exactpl import Record
from ordercert.orderlogic import derivation as checker
from ordercert.orderlogic.derivation import (
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
from ordercert.orderlogic.facts import (
    IDENTITY_EQ,
    AtomTable,
    commute_fact,
    identity_eq_fact,
    non_identity_fact,
    not_in_set_fact,
)
from ordercert.orderlogic.rules import RuleError, apply_rule, read_int
from ordercert.orderlogic.scripts import script_theorem_main, theorem_atom_table
from ordercert.orderlogic.words import (
    CONTRADICTION, EMPTY, Less, WordEq, atom_pow, letter_pair, t_pow, w_inv, w_mul, w_reduce,
)
from ordercert.plane import PLANE_GENERATOR_NAMES, WitnessSearchConfig, equal_or_unknown, plane_word
from ordercert.skew import word_to_element
from ordercert.wordsyntax import reduce_letters

from mutation_tools import _replace_step, _step_sites

F1 = commute_fact("F1", "a", "b")
F2 = commute_fact("F2", "b", "c")
F3 = commute_fact("F3", "b", "d")
F4 = identity_eq_fact(
    "F4", w_mul(atom_pow("a", -3), atom_pow("c", 1), atom_pow("a", 3)), atom_pow("c", -1)
)
N_C = non_identity_fact("N_C", "c")
NS = not_in_set_fact("NS", "a", "b")

B = ("b", 1)


def j(text_lhs, text_rhs):
    """tiny judgment helper taking (atom, exp) lists"""
    return Less(w_reduce(text_lhs), w_reduce(text_rhs))


# -- word algebra ---------------------------------------------------------------

def test_word_reduction():
    assert w_reduce([("a", 1), ("a", -1)]) == ()
    assert w_mul(atom_pow("a", 2), atom_pow("a", -1), atom_pow("b", 1)) == (("a", 1), ("b", 1))
    assert w_inv((("a", 2), ("b", -1))) == (("b", 1), ("a", -2))
    assert t_pow(("b", -1), 3) == (("b", -3),)
    assert t_pow(B, 0) == ()


pair_lists = st.lists(st.tuples(st.sampled_from("abc"), st.integers(-2, 2)), max_size=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pair_lists, pair_lists, pair_lists)
def test_reduced_words_match_reduce_letters(p, q, r):
    assert w_reduce(p) == tuple(reduce_letters(p))
    expected = tuple(reduce_letters([*p, *q, *r]))
    assert w_mul(tuple(p), tuple(q), tuple(r)) == expected
    assert w_mul(*(w_reduce(x) for x in (p, q, r))) == expected


# -- the four core rules -----------------------------------------------------------

def test_invert_rule():
    premise = j([("c", 1)], [("b", 2)])
    concl = apply_rule("invert", {"u": atom_pow("c", 1), "t": B, "m": 2, "direction": "lt"},
                       [premise], [F2])
    assert concl == j([("b", -2)], [("c", -1)])
    # 1 < b gives b^-1 < 1
    concl = apply_rule("invert", {"u": EMPTY, "t": B, "m": 1, "direction": "lt"},
                       [Less(EMPTY, atom_pow("b", 1))], [])
    assert concl == Less(atom_pow("b", -1), EMPTY)
    # missing commutation fact: c against base a
    with pytest.raises(RuleError, match="commutation"):
        apply_rule("invert", {"u": atom_pow("c", 1), "t": ("a", 1), "m": 2, "direction": "lt"},
                   [j([("c", 1)], [("a", 2)])], [])


def test_product_rule():
    p1 = j([("c", 1)], [("b", 1)])
    p2 = j([("d", 1)], [("b", 1)])
    concl = apply_rule("product",
                       {"u": atom_pow("c", 1), "v": atom_pow("d", 1), "t": B, "m": 1, "n": 1,
                        "direction": "lt"},
                       [p1, p2], [F2, F3])
    assert concl == j([("c", 1), ("d", 1)], [("b", 2)])
    # iterating 1 < b up to 1 < b^24
    current = Less(EMPTY, atom_pow("b", 1))
    total = 1
    for _ in range(23):
        current = apply_rule("product",
                             {"u": EMPTY, "v": EMPTY, "t": B, "m": total, "n": 1, "direction": "lt"},
                             [current, Less(EMPTY, atom_pow("b", 1))], [])
        total += 1
    assert current == Less(EMPTY, atom_pow("b", 24))
    # the mixed-direction form: b^-1 < a and b^-k < a^k gives b^-1-k < a^(1+k)
    k = 3
    concl = apply_rule("product",
                       {"u": atom_pow("a", 1), "v": atom_pow("a", k), "t": B, "m": -1, "n": -k,
                        "direction": "gt"},
                       [j([("b", -1)], [("a", 1)]), j([("b", -k)], [("a", k)])], [F1])
    assert concl == j([("b", -1 - k)], [("a", 1 + k)])
    # premise shape mismatch is rejected
    with pytest.raises(RuleError, match="premise"):
        apply_rule("product",
                   {"u": atom_pow("c", 1), "v": atom_pow("d", 1), "t": B, "m": 2, "n": 1,
                    "direction": "lt"},
                   [p1, p2], [F2, F3])


def test_conjugate_window_rule():
    da2 = w_mul(atom_pow("d", 1), atom_pow("a", 2))
    premises = [
        Less(EMPTY, atom_pow("c", 1)),          # b^0 < c
        j([("c", 1)], [("b", 1)]),              # c < b^1
        j([("b", -2)], list(da2)),              # b^-2 < d a^2
        j(list(da2), [("b", 3)]),               # d a^2 < b^3
    ]
    params = {"u": atom_pow("c", 1), "v": da2, "t": B, "m": 1, "n1": -2, "n2": 3}
    lower = apply_rule("conjugate_window", dict(params, part="lower"), premises, [F1, F2, F3])
    upper = apply_rule("conjugate_window", dict(params, part="upper"), premises, [F1, F2, F3])
    conj = w_mul(w_inv(da2), atom_pow("c", 1), da2)
    assert lower == Less(atom_pow("b", -1), conj)
    assert upper == Less(conj, atom_pow("b", 2))
    # conjugating by a word with an identity-wide window still works
    premises = [
        Less(EMPTY, atom_pow("c", 1)),
        j([("c", 1)], [("b", 1)]),
        j([("b", -1)], []),
        j([], [("b", 1)]),
    ]
    concl = apply_rule("conjugate_window",
                       {"u": atom_pow("c", 1), "v": EMPTY, "t": B, "m": 1, "n1": -1, "n2": 1,
                        "part": "lower"},
                       premises, [F2])
    assert concl == j([("b", -1)], [("c", 1)])
    # width-two windows on u are not instances of this rule
    bad = [
        j([("b", -1)], [("c", 1)]),
        j([("c", 1)], [("b", 1)]),
        j([("b", -1)], [("d", 1)]),
        j([("d", 1)], [("b", 1)]),
    ]
    with pytest.raises(RuleError, match="premise"):
        apply_rule("conjugate_window",
                   {"u": atom_pow("c", 1), "v": atom_pow("d", 1), "t": B, "m": 1, "n1": -1,
                    "n2": 1, "part": "lower"},
                   bad, [F2, F3])


def test_flip_bound_rule():
    a3 = atom_pow("a", 3)
    premises = [
        j([("b", -3)], [("a", 3)]),
        j([("a", 3)], [("b", 3)]),
        Less(EMPTY, atom_pow("b", 1)),
    ]
    params = {"u": atom_pow("c", 1), "v": a3, "t": B, "n1": -3, "n2": 3}
    lower = apply_rule("flip_bound", dict(params, part="lower"), premises, [F4, F2, F1])
    upper = apply_rule("flip_bound", dict(params, part="upper"), premises, [F4, F2, F1])
    assert lower == j([("b", -1)], [("c", 1)])
    assert upper == j([("c", 1)], [("b", 1)])
    # citing the flip fact with the wrong base: commutation with a is not covered
    with pytest.raises(RuleError, match="commutation"):
        apply_rule("flip_bound",
                   {"u": atom_pow("c", 1), "v": a3, "t": ("a", 1), "n1": -3, "n2": 3,
                    "part": "lower"},
                   [j([("a", -3)], [("a", 3)]),
                    j([("a", 3)], [("a", 3)]),
                    Less(EMPTY, atom_pow("a", 1))], [F4])
    # a missing equality fact is rejected
    with pytest.raises(RuleError, match="no cited fact"):
        apply_rule("flip_bound", dict(params, part="lower"), premises, [F2, F1])


def test_flip_bound_refuses_an_identity_fact_that_is_not_the_flip():
    premises = [
        j([("b", -3)], [("a", 3)]),
        j([("a", 3)], [("b", 3)]),
        Less(EMPTY, atom_pow("b", 1)),
    ]
    params = {"u": atom_pow("c", 1), "v": atom_pow("a", 3), "t": B, "n1": -3, "n2": 3,
              "part": "lower"}
    # true identities, but neither states c^(a^3) == c^-1 in either order
    conj = w_mul(atom_pow("a", -3), atom_pow("c", 1), atom_pow("a", 3))
    for lhs, rhs in [(w_mul(atom_pow("a", -3), atom_pow("d", 1), atom_pow("a", 3)),
                      atom_pow("d", -1)),
                     (conj, conj)]:
        with pytest.raises(RuleError, match="no cited fact"):
            apply_rule("flip_bound", params, premises,
                       [identity_eq_fact("E", lhs, rhs), F2, F1])


# x = y^2 and x = z are each consistent with x not in {y, y^-1} and with y not
# in {x, x^-1} (in Z: x = 2, y = 1, z = 3), so neither closes a branch.
@pytest.mark.parametrize("eq", [
    WordEq(atom_pow("a", 1), atom_pow("b", 2)),
    WordEq(atom_pow("b", 2), atom_pow("a", 1)),
    WordEq(atom_pow("a", 1), atom_pow("c", 1)),
], ids=["x=y^2", "y^2=x", "x=z"])
@pytest.mark.parametrize("fact", [NS, not_in_set_fact("NS'", "b", "a")], ids=["x,y", "y,x"])
def test_eq_contra_refuses_an_equation_the_fact_does_not_exclude(eq, fact):
    with pytest.raises(RuleError, match="not refuted"):
        apply_rule("eq_contra", {}, [eq], [fact])


C1, CINV = atom_pow("c", 1), atom_pow("c", -1)
ONE_LT_B, BINV_LT_ONE = Less(EMPTY, atom_pow("b", 1)), Less(atom_pow("b", -1), EMPTY)


# each equation shape eq_contra accepts, once: x^s against 1 citing x != 1,
# and x^s against y^e citing x not in {y, y^-1}, for both signs and orders
@pytest.mark.parametrize("eq, fact", [
    (WordEq(C1, EMPTY), N_C),
    (WordEq(EMPTY, C1), N_C),
    (WordEq(CINV, EMPTY), N_C),
    (WordEq(EMPTY, CINV), N_C),
] + [
    (WordEq(*sides), NS)
    for s in (1, -1) for e in (1, -1)
    for sides in ((atom_pow("a", s), atom_pow("b", e)), (atom_pow("b", e), atom_pow("a", s)))
])
def test_eq_contra_accepts_each_shape(eq, fact):
    assert apply_rule("eq_contra", {}, [eq], [fact]) is CONTRADICTION


def _valid_instances():
    """One accepted instance (rule, params, premises, facts) of each rule."""
    b1, c_lt_b = atom_pow("b", 1), j([("c", 1)], [("b", 1)])
    eps = identity_eq_fact("E", C1, b1)
    window = {"u": C1, "v": EMPTY, "t": B, "n1": -1, "n2": 1, "part": "lower"}
    return [
        ("invert", {"u": EMPTY, "t": B, "m": 1, "direction": "lt"}, [ONE_LT_B], []),
        ("product", {"u": EMPTY, "v": EMPTY, "t": B, "m": 1, "n": 1, "direction": "lt"},
         [ONE_LT_B, ONE_LT_B], []),
        ("conjugate_window", dict(window, m=1),
         [Less(EMPTY, C1), c_lt_b, BINV_LT_ONE, ONE_LT_B], [F2]),
        ("flip_bound", dict(window, u=EMPTY), [BINV_LT_ONE, ONE_LT_B, ONE_LT_B],
         [identity_eq_fact("I", EMPTY, EMPTY)]),
        ("trans", {}, [Less(EMPTY, C1), c_lt_b], []),
        ("lmul", {"w": b1}, [c_lt_b], []),
        ("subst", {"side": "lhs", "pos": 0, "dir": "lr"}, [c_lt_b], [eps]),
        ("absurd", {}, [c_lt_b, Less(b1, C1)], []),
        ("eq_contra", {}, [WordEq(C1, EMPTY)], [N_C]),
    ]


@pytest.mark.parametrize("rule, params, premises, facts", _valid_instances(),
                         ids=[instance[0] for instance in _valid_instances()])
def test_rules_take_exactly_their_premises(rule, params, premises, facts):
    apply_rule(rule, params, premises, facts)
    for wrong in (premises + premises[:1], premises[:-1]):
        with pytest.raises(RuleError, match=f"takes {len(premises)} premise"):
            apply_rule(rule, params, wrong, facts)


# Sound forms that no shipped derivation uses: the checker refuses them.
@pytest.mark.parametrize("rule, params, premises, facts, message", [
    ("invert", {"u": EMPTY, "t": B, "m": 1, "direction": "gt"},
     [Less(atom_pow("b", 1), EMPTY)], [], "direction must be 'lt'"),
    ("invert", {"u": EMPTY, "t": B, "m": 1}, [ONE_LT_B], [], "direction must be 'lt'"),
    ("product", {"u": EMPTY, "v": EMPTY, "t": B, "m": 1, "n": 1},
     [ONE_LT_B, ONE_LT_B], [], "direction must be 'lt' or 'gt'"),
    ("subst", {"side": "lhs", "pos": 0, "dir": "rl"}, [j([("b", 1)], [("c", 1)])],
     [identity_eq_fact("E", C1, atom_pow("b", 1))], "dir must be 'lr'"),
    ("subst", {"side": "lhs", "pos": 0}, [j([("c", 1)], [("b", 1)])],
     [identity_eq_fact("E", C1, atom_pow("b", 1))], "dir must be 'lr'"),
    ("absurd", {}, [j([("a", 1)], [("a", 1)])], [], "takes 2 premise"),
    ("flip_bound", {"u": C1, "v": EMPTY, "t": B, "n1": -1, "n2": 1, "part": "lower"},
     [BINV_LT_ONE, ONE_LT_B, ONE_LT_B], [identity_eq_fact("I", CINV, C1), F2], "no cited fact"),
    ("eq_contra", {}, [WordEq(w_mul(atom_pow("a", 1), atom_pow("b", 1)), EMPTY)], [NS],
     "not refuted"),
    ("eq_contra", {}, [WordEq(w_mul(C1, atom_pow("d", 1)), atom_pow("d", 1))], [N_C],
     "not refuted"),
    ("trans", {}, [WordEq(C1, atom_pow("b", 1)), Less(atom_pow("b", 1), EMPTY)], [],
     "must be inequalities"),
    ("trans", {}, [Less(EMPTY, C1), WordEq(C1, atom_pow("b", 1))], [], "must be inequalities"),
    ("trans", {}, [Less(EMPTY, C1), CONTRADICTION], [], "must be inequalities"),
], ids=["invert-gt", "invert-no-direction", "product-no-direction", "subst-rl",
        "subst-no-dir", "absurd-one-premise", "flip_bound-fact-reversed", "eq_contra-ab=1",
        "eq_contra-cd=d", "trans-eq-less", "trans-less-eq", "trans-less-contradiction"])
def test_rules_refuse_unused_forms(rule, params, premises, facts, message):
    with pytest.raises(RuleError, match=message):
        apply_rule(rule, params, premises, facts)


# -- structural rules ------------------------------------------------------------

def test_transitivity_and_left_multiplication():
    p1 = j([("a", 1)], [("b", 1)])
    p2 = j([("b", 1)], [("c", 1)])
    assert apply_rule("trans", {}, [p1, p2], []) == j([("a", 1)], [("c", 1)])
    with pytest.raises(RuleError, match="middle"):
        apply_rule("trans", {}, [p1, p1], [])
    concl = apply_rule("lmul", {"w": atom_pow("b", -2)}, [p1], [])
    assert concl == j([("b", -2), ("a", 1)], [("b", -1)])


def test_substitution():
    eps = identity_eq_fact("E", w_mul(atom_pow("c", 1), atom_pow("d", 1)), atom_pow("b", -36))
    premise = j([("b", -12)], [("c", 1), ("d", 1)])
    concl = apply_rule("subst", {"side": "rhs", "pos": 0, "dir": "lr"}, [premise], [eps])
    assert concl == j([("b", -12)], [("b", -36)])
    # the left side rewrites the same way
    premise2 = j([("c", 1), ("d", 1)], [("a", 1)])
    concl2 = apply_rule("subst", {"side": "lhs", "pos": 0, "dir": "lr"}, [premise2], [eps])
    assert concl2 == j([("b", -36)], [("a", 1)])
    # rewriting right to left is sound, but no derivation does it
    with pytest.raises(RuleError, match="dir must be 'lr'"):
        apply_rule("subst", {"side": "lhs", "pos": 0, "dir": "rl"}, [concl2], [eps])
    with pytest.raises(RuleError, match="does not contain"):
        apply_rule("subst", {"side": "rhs", "pos": 0, "dir": "lr"},
                   [j([("b", -12)], [("d", 1), ("c", 1)])], [eps])
    with pytest.raises(RuleError, match="out of range"):
        apply_rule("subst", {"side": "lhs", "pos": 0, "dir": "lr"}, [premise], [eps])


def test_contradiction_rules():
    p1 = j([("a", 1)], [("b", 1)])
    p2 = j([("b", 1)], [("a", 1)])
    assert apply_rule("absurd", {}, [p1, p2], []) is CONTRADICTION
    with pytest.raises(RuleError):
        apply_rule("absurd", {}, [p1, p1], [])
    # a < a alone is refused: the crossing form closes it with a < a twice
    a_lt_a = j([("a", 1)], [("a", 1)])
    with pytest.raises(RuleError, match="takes 2 premise"):
        apply_rule("absurd", {}, [a_lt_a], [])
    assert apply_rule("absurd", {}, [a_lt_a, a_lt_a], []) is CONTRADICTION

    # each accepted equation shape is pinned by test_eq_contra_accepts_each_shape
    with pytest.raises(RuleError, match="not refuted"):
        apply_rule("eq_contra", {}, [WordEq(atom_pow("d", 1), EMPTY)], [N_C])


def test_commute_closure_needs_every_letter_covered():
    def invert(u, cited):
        return apply_rule("invert", {"u": u, "t": B, "m": 1, "direction": "lt"},
                          [Less(u, atom_pow("b", 1))], cited)

    word = w_mul(atom_pow("d", 1), atom_pow("a", 2), atom_pow("d", -1))
    assert invert(word, [F1, F2, F3]) == Less(atom_pow("b", -1), w_inv(word))
    with pytest.raises(RuleError, match="not covered"):
        invert(word, [F1])
    # a cited commute fact covers only letters it ties to t: a with d says
    # nothing about d with b
    with pytest.raises(RuleError, match="not covered"):
        invert(atom_pow("d", 1), [commute_fact("AD", "a", "d")])
    # the empty word and powers of t itself need no fact
    assert invert(EMPTY, []) == Less(atom_pow("b", -1), EMPTY)
    assert invert(atom_pow("b", 5), []) == Less(atom_pow("b", -1), atom_pow("b", -5))
    # the direction is part of the instance, never a default
    with pytest.raises(RuleError, match="direction"):
        apply_rule("invert", {"u": EMPTY, "t": B, "m": 1}, [Less(EMPTY, atom_pow("b", 1))], [])


# -- the rule-instance memo ---------------------------------------------------------

def _checked_theorem():
    derivation = script_theorem_main()
    assert derivation.table.verify_all()
    assert check_derivation(derivation).is_valid
    return derivation


def test_memo_rejects_non_integer_params_equal_to_memoized_ones():
    derivation = _checked_theorem()
    table = derivation.table
    path, index, step = next(
        site for site in _step_sites(derivation) if site[2].params.get("m") == 1
    )
    for value in (True, 1.0):
        params = dict(step.params, m=value)
        # the memo already holds an instance whose parameters equal these
        assert any(key[0] == step.rule and dict(key[1]) == params for key in table.conclusions)
        mutant = _replace_step(derivation, path, index, params=params)
        verdict = check_derivation(mutant)
        assert (verdict.step_id, verdict.reason) == (step.id, "parameter 'm' must be an integer")


def test_memo_skips_unhashable_params():
    derivation = _checked_theorem()
    path, index, step = next(
        site for site in _step_sites(derivation) if site[2].params.get("m") == 1
    )
    mutant = _replace_step(derivation, path, index, params=dict(step.params, m=[1]))
    verdict = check_derivation(mutant)
    assert (verdict.step_id, verdict.reason) == (step.id, "parameter 'm' must be an integer")
    # a list-valued word is a valid parameter, applied without the memo
    memo = {}
    premise = j([("a", 1)], [("b", 1)])
    got = apply_rule("lmul", {"w": [["a", 1]]}, [premise], [], memo)
    assert got == apply_rule("lmul", {"w": atom_pow("a", 1)}, [premise], [])
    assert memo == {}


def test_memo_keeps_failures_out():
    memo = {}
    params = {"u": atom_pow("c", 1), "t": B, "m": 2, "direction": "lt"}
    wrong = j([("c", 1)], [("b", 3)])
    for _ in range(2):
        with pytest.raises(RuleError, match="premise #1"):
            apply_rule("invert", params, [wrong], [F2], memo)
    assert memo == {}
    right = j([("c", 1)], [("b", 2)])
    first = apply_rule("invert", params, [right], [F2], memo)
    assert apply_rule("invert", params, [right], [F2], memo) is first
    assert first == apply_rule("invert", params, [right], [F2])
    assert len(memo) == 1
    # the cited facts are part of the instance
    with pytest.raises(RuleError, match="not covered"):
        apply_rule("invert", params, [right], [F1], memo)


# -- the words a reason quotes -------------------------------------------------------

def test_reasons_quote_short_words_whole():
    # the empty word prints as 1, and every other word as itself, in the
    # reason of each rule that formats a word
    da2 = w_mul(atom_pow("d", 1), atom_pow("a", 2))
    cd = j([("c", 1), ("d", 1)], [("b", 1)])
    for rule, params, premises, facts, reason in [
        ("invert", {"u": EMPTY, "t": B, "m": 1, "direction": "lt"}, [BINV_LT_ONE], [],
         "premise #1 must be '1 < b' (got 'b^-1 < 1')"),
        ("trans", {}, [j([("a", 1)], [("c", 2), ("d", -1)]), j([("b", 1)], [])], [],
         "middle words differ: 'c^2 d^-1' vs 'b'"),
        ("product", {"u": cd.lhs, "v": EMPTY, "t": B, "m": 1, "n": 1, "direction": "lt"},
         [cd, ONE_LT_B], [F2], "commutation of u (c d) with b is not covered by cited facts"),
        ("conjugate_window", {"u": C1, "v": da2, "t": B, "m": 1, "n1": -2, "n2": 3, "part": "lower"},
         [Less(EMPTY, C1), j([("c", 1)], [("b", 1)]), Less(atom_pow("b", -1), da2),
          Less(da2, atom_pow("b", 3))], [F1, F2, F3],
         "premise #3 must be 'b^-2 < d a^2' (got 'b^-1 < d a^2')"),
        ("flip_bound", {"u": C1, "v": atom_pow("a", 3), "t": B, "n1": -3, "n2": 3, "part": "lower"},
         [j([("b", -3)], [("a", 3)]), j([("a", 3)], [("b", 3)]), ONE_LT_B], [F2, F1],
         "no cited fact states a^-3 c a^3 == c^-1"),
        ("subst", {"side": "lhs", "pos": 0, "dir": "lr"}, [cd],
         [identity_eq_fact("E", w_mul(atom_pow("d", 1), C1), atom_pow("b", 1))],
         "premise lhs does not contain 'd c' at position 0"),
    ]:
        with pytest.raises(RuleError) as info:
            apply_rule(rule, params, premises, facts)
        assert str(info.value) == reason, rule


_LONG_NAME = "z" * 100000
_LONG = atom_pow(_LONG_NAME, 1)  # one letter, named by 100,000 characters
_LONG_T = (_LONG_NAME, 1)


# Each reason quotes a long word, or a long base name, by its prefix; each
# used to quote it whole, about 100 KB or more.
@pytest.mark.parametrize("rule, params, premises, facts", [
    ("invert", {"u": _LONG, "t": _LONG_T, "m": 1, "direction": "lt"}, [ONE_LT_B], []),
    ("invert", {"u": _LONG, "t": B, "m": 1, "direction": "lt"}, [ONE_LT_B], []),
    ("invert", {"u": C1, "t": _LONG_T, "m": 1, "direction": "lt"}, [ONE_LT_B], []),
    ("trans", {}, [Less(EMPTY, _LONG), Less(C1, EMPTY)], []),
    ("subst", {"side": "lhs", "pos": 0, "dir": "lr"}, [Less(C1, EMPTY)],
     [identity_eq_fact("E", _LONG, C1)]),
    ("flip_bound", {"u": _LONG, "v": EMPTY, "t": _LONG_T, "n1": -1, "n2": 1, "part": "lower"},
     [Less(w_inv(_LONG), EMPTY), Less(EMPTY, _LONG), Less(EMPTY, _LONG)], []),
], ids=["premise", "commute-word", "commute-base", "trans-middle", "subst-pattern",
        "flip_bound-identity"])
def test_reasons_quote_long_words_by_a_prefix(rule, params, premises, facts):
    with pytest.raises(RuleError) as info:
        apply_rule(rule, params, premises, facts)
    reason = str(info.value)
    assert len(reason) < 300 and "z" * 64 + "..." in reason, reason


# -- the checker on small derivations ----------------------------------------------

ATOMS = {name: name for name in ("a", "b", "c", "d")}


def _tiny_table():
    atoms = ATOMS
    return AtomTable(atoms, [F1, F2, F3, non_identity_fact("N_B", "b")])


def _under(hypotheses, node, table=None):
    """A derivation whose nested root trichotomies put the strict
    ``hypotheses`` in scope, each as the first case of its split, with
    ``node`` under the last.  Every other case is a bare leaf, which the
    checker reaches only after ``node``."""
    for hyp in reversed(hypotheses):
        w1, w2 = hyp.judgment.lhs, hyp.judgment.rhs
        cases = (hyp, Hypothesis(f"{hyp.id}_eq", WordEq(w1, w2)),
                 Hypothesis(f"{hyp.id}_gt", Less(w2, w1)))
        branches = tuple(Branch(f"{hyp.id}_case{i}", (case,), node if i == 0 else Node())
                         for i, case in enumerate(cases))
        node = Node(split=Split("trichotomy", {"w1": w1, "w2": w2}, (), branches))
    return Derivation("toy", table or _tiny_table(), CONTRADICTION_GOAL, node)


def _check_in_scope(hypotheses, node, table):
    """The verdict on ``node`` checked as a branch that introduced
    ``hypotheses``.  No split assumes anything, so a whole valid derivation
    over a table this small cannot exist: a toy proof is checked as a
    subtree."""
    try:
        checker._check_node(node, {h.id: h.judgment for h in hypotheses}, table)
    except checker._Failure as failure:
        return Verdict(*failure.args)
    return Verdict("valid")


def test_empty_derivation_claiming_contradiction_is_invalid():
    table = _tiny_table()
    derivation = Derivation("empty", table, CONTRADICTION_GOAL, Node())
    verdict = check_derivation(derivation)
    assert not verdict.is_valid
    assert "contradiction" in verdict.reason


def test_small_valid_derivation_and_step_permutation():
    table = _tiny_table()
    h1 = Hypothesis("h1", Less(EMPTY, atom_pow("b", 1)))
    h2 = Hypothesis("h2", Less(atom_pow("b", 1), EMPTY))
    s_indep1 = Step("s1", "lmul", {"w": atom_pow("c", 1)}, ("h1",), (),
                    Less(atom_pow("c", 1), w_mul(atom_pow("c", 1), atom_pow("b", 1))))
    s_indep2 = Step("s2", "lmul", {"w": atom_pow("d", 1)}, ("h2",), (),
                    Less(w_mul(atom_pow("d", 1), atom_pow("b", 1)), atom_pow("d", 1)))
    s_close = Step("s3", "absurd", {}, ("h1", "h2"), (), CONTRADICTION)

    def check(steps):
        return _check_in_scope((h1, h2), Node(steps=tuple(steps)), table)

    assert check([s_indep1, s_indep2, s_close]).is_valid
    # permuting independent steps does not change the verdict
    assert check([s_indep2, s_indep1, s_close]).is_valid


def test_out_of_scope_premises_and_duplicate_ids():
    h1 = Hypothesis("h1", Less(EMPTY, atom_pow("b", 1)))
    ghost = Step("s1", "lmul", {"w": atom_pow("c", 1)}, ("nope",), (),
                 Less(atom_pow("c", 1), w_mul(atom_pow("c", 1), atom_pow("b", 1))))
    verdict = check_derivation(_under((h1,), Node(steps=(ghost,))))
    assert not verdict.is_valid and "not in scope" in verdict.reason
    assert verdict.step_id == "s1"

    dup = Step("h1", "lmul", {"w": atom_pow("c", 1)}, ("h1",), (),
               Less(atom_pow("c", 1), w_mul(atom_pow("c", 1), atom_pow("b", 1))))
    verdict = check_derivation(_under((h1,), Node(steps=(dup,))))
    assert not verdict.is_valid and "duplicate" in verdict.reason


def test_unknown_fact_statuses():
    table = _tiny_table()
    h_eq = Hypothesis("h1", WordEq(atom_pow("b", 1), EMPTY))
    close = Step("s1", "eq_contra", {}, ("h1",), ("N_B",), CONTRADICTION)
    assert _check_in_scope((h_eq,), Node(steps=(close,)), table).is_valid

    h_pos = Hypothesis("h1", Less(EMPTY, atom_pow("b", 1)))
    ghost = Step("s1", "invert", {"u": EMPTY, "t": B, "m": 1, "direction": "lt"}, ("h1",),
                 ("N_X",), Less(atom_pow("b", -1), EMPTY))
    verdict = check_derivation(_under((h_pos,), Node(steps=(ghost,))))
    assert (verdict.status, verdict.step_id) == ("unknown_facts", "s1")


def test_false_fact_is_flagged():
    table = AtomTable(ATOMS, [commute_fact("BAD", "a", "c")])
    assert not table.verify_all()
    h1 = Hypothesis("h1", Less(atom_pow("c", 1), atom_pow("a", 2)))
    step = Step("s1", "invert", {"u": atom_pow("c", 1), "t": ("a", 1), "m": 2, "direction": "lt"},
                ("h1",), ("BAD",), Less(atom_pow("a", -2), atom_pow("c", -1)))
    verdict = check_derivation(_under((h1,), Node(steps=(step,)), table))
    assert verdict.status == "invalid"
    assert "false" in verdict.reason


def test_branch_goals_are_refused():
    # each canonical trichotomy branch "proves" an empty goal, with no steps
    table = _tiny_table()
    w1, w2 = EMPTY, atom_pow("a", 1)
    cases = ((Less(w1, w2),), (WordEq(w1, w2),), (Less(w2, w1),))
    branches = tuple(
        Branch(f"case{i}", (Hypothesis(f"h{i}", hyp),), Node(), goal=())
        for i, (hyp,) in enumerate(cases)
    )
    root = Node(split=Split("trichotomy", {"w1": w1, "w2": w2}, (), branches))
    verdict = check_derivation(Derivation("forged", table, CONTRADICTION_GOAL, root))
    assert verdict.status == "invalid"
    assert verdict.step_id == "split:trichotomy"
    assert verdict.reason == "branch 'case0' declares a goal"


def test_window_split_structure_is_enforced():
    v = atom_pow("c", 1)
    h_lo = Hypothesis("h1", Less(atom_pow("b", -1), v))
    h_up = Hypothesis("h2", Less(v, atom_pow("b", 1)))
    h_pos = Hypothesis("h3", Less(EMPTY, atom_pow("b", 1)))

    def window(branches):
        inner = Split("window", {"v": v, "t": B, "n1": -1, "n2": 1}, ("h1", "h2", "h3"), branches)
        return _under((h_lo, h_up, h_pos), Node(split=inner))

    good = (
        Branch("lo", (Hypothesis("w1", Less(atom_pow("b", -1), v)),
                      Hypothesis("w2", Less(v, EMPTY))), Node()),
        Branch("hi", (Hypothesis("w3", Less(EMPTY, v)),
                      Hypothesis("w4", Less(v, atom_pow("b", 1)))), Node()),
        Branch("eq", (Hypothesis("w5", WordEq(v, EMPTY)),), Node()),
    )
    verdict = check_derivation(window(good))
    # structure is fine; the leaves simply fail to derive a contradiction
    assert not verdict.is_valid and "contradiction" in verdict.reason

    missing = (good[0], good[1])
    verdict = check_derivation(window(missing))
    assert "branches" in verdict.reason

    wrong_hyp = (good[0], good[1],
                 Branch("eq", (Hypothesis("w5", WordEq(v, atom_pow("b", 1))),), Node()))
    verdict = check_derivation(window(wrong_hyp))
    assert "canonical" in verdict.reason
    # the failure is located at the window, under the three trichotomy cases
    assert (verdict.step_id, verdict.path) == ("split:window", "h1_case0/h2_case0/h3_case0")
    assert str(verdict).startswith("invalid at split:window in h1_case0/h2_case0/h3_case0: ")


def test_integers_read_stay_below_2_to_the_63():
    # 2(n2 - n1) - 1 for bounds this large would print as a str() beyond
    # Python's 4300-digit limit
    v, t = atom_pow("c", 1), B
    for n1 in (-2**63, -10**4299):
        split = Split("window", {"v": v, "t": t, "n1": n1, "n2": 1}, (), (Branch("only", (), Node()),))
        verdict = check_derivation(_under((), Node(split=split)))
        assert (verdict.step_id, verdict.path) == ("split:window", "")
        assert verdict.reason == "parameter 'n1' is 2**63 or more in magnitude"
    assert read_int({"n": 2**63 - 1}, "n") == 2**63 - 1
    assert read_int({"n": 1 - 2**63}, "n") == 1 - 2**63
    for exp in (2**63, -2**63, 10**4299):
        with pytest.raises(ValueError, match=r"exponent of 2\*\*63 or more"):
            letter_pair(["a", exp])
    assert letter_pair(["a", 2**63 - 1]) == ("a", 2**63 - 1)
    assert letter_pair(["a", 1 - 2**63]) == ("a", 1 - 2**63)


# -- the shipped scripts -------------------------------------------------------------

def test_theorem_script_checks_valid():
    derivation = script_theorem_main()
    assert derivation.table.verify_all()
    assert check_derivation(derivation).is_valid
    assert derivation.count_branches() == 31


def _without_facts(derivation, *fids):
    table = derivation.table
    kept = [f for fid, f in table.facts.items() if fid not in fids]
    return derivation._replace(table=AtomTable(table.atoms, kept))


def test_theorem_needs_the_mirrored_facts():
    derivation = _without_facts(script_theorem_main(), "M2", "M3", "M4", "M5", "M6", "M7c")
    verdict = check_derivation(derivation)
    assert verdict.status == "unknown_facts"
    assert "M" in verdict.reason


def test_theorem_needs_the_distinctness_fact():
    derivation = _without_facts(script_theorem_main(), "F8")
    verdict = check_derivation(derivation)
    assert verdict.status == "unknown_facts"
    assert "F8" in verdict.reason


def test_atom_table_rejects_assignment():
    table = theorem_atom_table()
    assert table.verify_all()
    product = table.facts["F6"].args[0]
    with pytest.raises(TypeError):
        table.facts["F6"] = identity_eq_fact("F6", product, atom_pow("b", -35))
    # rebinding an atom once left the verified outcomes in place
    with pytest.raises(TypeError):
        table.atoms["d"] = "d b"
    with pytest.raises(TypeError):
        del table.facts["F8"]
    with pytest.raises(AttributeError):
        table.atoms = {**table.atoms, "d": "d b"}
    assert table.atoms["d"] == "d" and table.verify_all()
    # a table bound to d b instead refutes F5
    assert not AtomTable({**table.atoms, "d": "d b"}, table.facts.values()).outcome("F5")


def test_atom_tables_verify():
    assert theorem_atom_table().verify_all()


def test_atom_tables_reject_malformed_input():
    atoms = ATOMS
    with pytest.raises(ValueError, match="unknown atom"):
        AtomTable(atoms, [commute_fact("X", "a", "zz")])
    with pytest.raises(ValueError, match="unknown atom"):
        AtomTable(atoms, [identity_eq_fact("X", atom_pow("q", 1), EMPTY)])
    with pytest.raises(ValueError, match="unknown kind"):
        AtomTable(atoms, [N_C._replace(kind="weird")])
    with pytest.raises(ValueError, match="wrong arity"):
        AtomTable(atoms, [F1._replace(args=("a",))])
    with pytest.raises(ValueError, match="at least one atom"):
        AtomTable({}, [])
    with pytest.raises(ValueError):
        AtomTable({**atoms, "a": "a^^"}, [])
    with pytest.raises(ValueError):
        AtomTable({**atoms, "a": "q"}, [])
    # ch is a plane generator, so a word using it is an atom like any other
    assert AtomTable({**atoms, "a": "ch"}, []).atoms["a"] == "ch"


# x := a^3 inverts c (F4), so x^2 = a^6 commutes with c and x does not; y
# and z are b and b^-1; e is the identity, written as a a^-1
PROBE_ATOMS = {**{name: name for name in PLANE_GENERATOR_NAMES},
               "x": "a^3", "y": "b", "z": "b^-1", "e": "a a^-1"}


# The decider is shown a false fact of each kind and shape: a decider that
# took any of them for true would let "valid" rest on it.
@pytest.mark.parametrize("fact", [
    not_in_set_fact("F", "y", "b"),
    not_in_set_fact("F", "z", "b"),
    commute_fact("F", "x", "c"),
    commute_fact("F", "c", "x"),
    non_identity_fact("F", "e"),
    identity_eq_fact("F", w_mul(atom_pow("x", -1), C1, atom_pow("x", 1)), C1),
], ids=["y-is-b", "z-is-b-inverse", "commute-x-c", "commute-c-x", "e-is-1", "c^x=c"])
def test_fact_decider_refutes_false_facts(fact):
    table = AtomTable(PROBE_ATOMS, [fact])
    assert table.verify_fact(fact) is False
    assert table.outcome("F") is False and table.verify_all() is False


def test_facts_print_as_their_statements():
    # one fact of each kind; the identity's words print through w_format
    assert [str(fact) for fact in (F1, F4, N_C, NS)] == [
        "a b == b a", "a^-3 c a^3 == c^-1", "c != 1", "a is neither b nor b^-1"]


def test_atom_table_reads_only_plane_atoms():
    table = theorem_atom_table()
    data = json.loads(certs.canonical_dumps(table))
    assert {spec["algebra"] for spec in data["atoms"].values()} == {"plane"}
    assert certs._load_table(data, "table").atoms == table.atoms
    # "skew" is how earlier library code wrote some tables' atoms
    for tag in ("skew", "weird"):
        for spec in data["atoms"].values():
            spec["algebra"] = tag
        with pytest.raises(ValueError, match="algebra must be 'plane'"):
            certs._load_table(data, "table")


WORDS_OVER_ABCD = st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-3, 3)), max_size=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(WORDS_OVER_ABCD, WORDS_OVER_ABCD)
def test_plane_table_decides_skew_word_equality(u, v):
    # the plane table decides every equation among words in a, b, c, d, as
    # composing their skew elements does
    u, v = tuple(u), tuple(v)
    table = AtomTable(ATOMS, [identity_eq_fact("E", u, v)])
    expected = word_to_element(u) == word_to_element(v)
    assert table.verify_fact(table.facts["E"]) is expected


def _swap(fact):
    """Image of a fact under a<->b, c->ch, d->dh, renamed F -> M."""
    sigma = {"a": "b", "b": "a", "c": "ch", "d": "dh"}
    if fact.kind == IDENTITY_EQ:
        args = tuple(tuple((sigma[s], e) for s, e in side) for side in fact.args)
    else:
        args = tuple(sigma[x] for x in fact.args)
    return fact._replace(id="M" + fact.id[1:], args=args)


def test_theorem_table_mirrors_the_vertical_facts():
    facts = theorem_atom_table().facts
    mirrored = {fid: f for fid, f in facts.items() if fid.startswith("M")}
    expected = {}
    for fid in ("F2", "F3", "F4", "F5", "F6", "F7c", "F7d"):
        image = _swap(facts[fid])
        expected[image.id] = image
    assert mirrored == expected
    # M1 would be the swap image of F1, which is F1 itself
    assert set(_swap(facts["F1"]).args) == set(facts["F1"].args)
    assert list(facts) == [
        "F1", "F2", "F3", "F4", "F5", "F6", "F7a", "F7b", "F7c", "F7d", "F8",
        "M2", "M3", "M4", "M5", "M6", "M7c", "M7d",
    ]


def test_derivation_tree_is_frozen():
    derivation = script_theorem_main()
    branch = derivation.root.split.branches[0]
    with pytest.raises(AttributeError, match="is immutable"):
        derivation.root = Node()
    with pytest.raises(AttributeError, match="is immutable"):
        branch.node.steps = ()
    with pytest.raises(AttributeError, match="is immutable"):
        branch.node.split.branches = ()
    with pytest.raises(AttributeError, match="is immutable"):
        branch.hypotheses = ()
    with pytest.raises(AttributeError, match="is immutable"):
        branch.hypotheses[0].judgment.lhs = ()
    with pytest.raises(AttributeError, match="is immutable"):
        del branch.name


def test_records_compare_by_class_and_fields():
    u, v = atom_pow("a", 1), atom_pow("b", 1)
    # _expect compares judgments, so a strict and an equal judgment on the
    # same words must differ
    assert Less(u, v) != WordEq(u, v) and Less(u, v) == Less(lhs=u, rhs=v)
    assert hash(Less(u, v)) == hash(Less(lhs=u, rhs=v))
    assert repr(Less(u, v)) == "Less(lhs=(('a', 1),), rhs=(('b', 1),))"
    assert Less(u, v)._replace(rhs=u) == Less(u, u)
    for build in (lambda: Less(u), lambda: Less(u, v, u), lambda: Less(u, v, side=u),
                  lambda: Less(u, lhs=u), lambda: Less(u, v)._replace(side=u), lambda: Node((), None, ())):
        with pytest.raises(TypeError):
            build()
    # trailing fields take their defaults
    assert Node() == Node((), None) == Node(steps=(), split=None)
    assert Branch("x", (), Node()).goal is None
    assert Branch("x", (), Node(), goal=CONTRADICTION_GOAL).goal == CONTRADICTION_GOAL
    assert Verdict("valid") == Verdict("valid", "", "")
    assert WitnessSearchConfig(seed=3) == WitnessSearchConfig(24, 2, 64, 1000, 3)


def test_every_record_pickles_to_an_equal_value():
    derivation = script_theorem_main()
    branch = derivation.root.split.branches[0]
    word = plane_word("c ch d")
    element = word.letters[0].elem
    element.invert()  # fills the _inv memo, which pickling leaves behind
    records = [
        derivation, derivation.root.split, branch, branch.hypotheses[0], branch.node,
        next(node.steps[0] for node in derivation._nodes() if node.steps), Node(),
        Verdict("invalid", "s0001", "why"), derivation.table.facts["F1"],
        Less(EMPTY, atom_pow("b", 1)), WordEq(EMPTY, atom_pow("b", 1)),
        word, word.letters[0], element, WitnessSearchConfig(seed=3),
        equal_or_unknown(plane_word("c ch"), plane_word("ch c")),
    ]
    assert {type(r) for r in records} == set(Record.__subclasses__())
    for record in records:
        clone = pickle.loads(pickle.dumps(record))
        if type(record) is Derivation:  # the table pickles to a copy, not to itself
            clone = clone._replace(table=record.table)
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)
        try:
            assert hash(clone) == hash(record)
        except TypeError:  # a dict field, such as Step.params
            pass
    assert not hasattr(pickle.loads(pickle.dumps(element)), "_inv")


def test_copied_derivations_keep_the_contradiction_marker():
    assert copy.deepcopy(CONTRADICTION) is CONTRADICTION
    assert pickle.loads(pickle.dumps(CONTRADICTION)) is CONTRADICTION
    derivation = script_theorem_main()
    assert copy.deepcopy(derivation) is derivation
    assert check_derivation(copy.deepcopy(derivation)).is_valid
    assert check_derivation(pickle.loads(pickle.dumps(derivation))).is_valid


def test_atom_table_copies_are_the_table():
    derivation = script_theorem_main()
    table = derivation.table
    assert copy.copy(table) is table
    assert copy.deepcopy(derivation).table is table
    fresh = pickle.dumps(table)
    assert table.verify_all()
    assert pickle.dumps(table) == fresh  # no outcome or memo is pickled
    clone = pickle.loads(fresh)
    assert clone is not table and (clone.atoms, clone.facts) == (table.atoms, table.facts)
    assert clone._outcomes == {} and clone.conclusions == {} and clone._plane_cache == {}


def test_theorem_script_contains_the_expected_bounds():
    # 1 < b, 1 < a and |a| < |b|: the product bound over b
    node = script_theorem_main().root
    for name in ("b_positive", "a_positive", "mag_a_below_mag_b"):
        branch = node.split.branches[0]
        assert branch.name == name
        node = branch.node
    window = node.split
    assert window.kind == "window" and window.params["v"] == atom_pow("c", 1)
    product = theorem_atom_table().facts["F6"].args[0]
    # inside each strict window branch, every conjugate is pinned in
    # (b^-2, b^2), and their product in (b^-12, b^12)
    for branch in window.branches[:2]:
        conclusions = {step.conclusion for step in branch.node.steps}
        for k in range(6):
            v = w_mul(atom_pow("d", 1), atom_pow("a", k))
            conjugate = w_mul(w_inv(v), atom_pow("c", 1), v)
            assert Less(atom_pow("b", -2), conjugate) in conclusions
            assert Less(conjugate, atom_pow("b", 2)) in conclusions
        assert Less(atom_pow("b", -12), product) in conclusions
        assert Less(product, atom_pow("b", 12)) in conclusions
        assert CONTRADICTION in conclusions

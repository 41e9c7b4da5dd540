"""Random soundness checks of the rules against a concrete ordered group.

The rank-2 integer lattice with its lexicographic order is left-orderable,
so every accepted rule instance whose premises hold there must have a true
conclusion there.  Words over abstract atoms are realized by summing atom
vectors; commutation side conditions hold universally, so fact citation
never blocks an instance.
"""

import random

import pytest

from ordercert.orderlogic.derivation import trichotomy_cases, window_cases
from ordercert.orderlogic.facts import (
    commute_fact,
    identity_eq_fact,
    non_identity_fact,
    not_in_set_fact,
)
from ordercert.orderlogic.rules import RuleError, apply_rule, window_premises
from ordercert.orderlogic.words import (
    CONTRADICTION, EMPTY, Less, WordEq, atom_pow, t_pow, w_inv, w_mul,
)

ATOMS = {"x": (1, 0), "y": (0, 1), "z": (2, -3), "t": None}

COMMUTES = [
    commute_fact(f"C{i}", a, b)
    for i, (a, b) in enumerate(
        [(p, q) for p in ("x", "y", "z", "t") for q in ("x", "y", "z", "t") if p < q]
    )
]


def value(word, t_vec, atoms=ATOMS):
    total = (0, 0)
    for sym, exp in word:
        vec = t_vec if sym == "t" else atoms[sym]
        total = (total[0] + exp * vec[0], total[1] + exp * vec[1])
    return total


def true_less(judgment, t_vec):
    return value(judgment.lhs, t_vec) < value(judgment.rhs, t_vec)


def random_word(rng, symbols=("x", "y", "z")):
    out = []
    for _ in range(rng.randint(0, 3)):
        out.append((rng.choice(symbols), rng.choice((-2, -1, 1, 2))))
    return w_mul(*[atom_pow(s, e) for s, e in out]) if out else EMPTY


def random_t(rng):
    while True:
        vec = (rng.randint(-2, 2), rng.randint(-3, 3))
        if vec != (0, 0):
            return vec


def check_instances(count, make_instance, seed):
    """make_instance returns (rule, params, premises, facts) or None to skip."""
    rng = random.Random(seed)
    accepted = 0
    while accepted < count:
        instance = make_instance(rng)
        if instance is None:
            continue
        rule, params, premises, facts, t_vec = instance
        if any(not true_less(p, t_vec) for p in premises if isinstance(p, Less)):
            continue
        conclusion = apply_rule(rule, params, premises, facts)
        assert conclusion is not CONTRADICTION
        assert true_less(conclusion, t_vec), (rule, params, premises, conclusion, t_vec)
        accepted += 1


def test_invert_sound(n=700):
    def make(rng):
        t_vec = random_t(rng)
        u = random_word(rng)
        m = rng.randint(-4, 4)
        t = ("t", rng.choice((1, -1)))
        return ("invert", {"u": u, "t": t, "m": m, "direction": "lt"},
                [Less(u, t_pow(t, m))], COMMUTES, t_vec)

    check_instances(n, make, seed=61)
    # the > form is sound too, but no derivation uses it, so it is refused
    t = ("t", 1)
    with pytest.raises(RuleError, match="direction must be 'lt'"):
        apply_rule("invert", {"u": EMPTY, "t": t, "m": 1, "direction": "gt"},
                   [Less(t_pow(t, 1), EMPTY)], [])


def test_product_sound(n=700):
    def make(rng):
        t_vec = random_t(rng)
        u, v = random_word(rng), random_word(rng)
        m, k = rng.randint(-4, 4), rng.randint(-4, 4)
        sign = rng.choice((1, -1))
        direction = rng.choice(("lt", "gt"))
        t = ("t", sign)
        if direction == "lt":
            premises = [Less(u, t_pow(t, m)), Less(v, t_pow(t, k))]
        else:
            premises = [Less(t_pow(t, m), u), Less(t_pow(t, k), v)]
        return ("product", {"u": u, "v": v, "t": t, "m": m, "n": k, "direction": direction},
                premises, COMMUTES, t_vec)

    check_instances(n, make, seed=62)


def test_conjugate_window_sound(n=700):
    def make(rng):
        t_vec = random_t(rng)
        u, v = random_word(rng), random_word(rng)
        m = rng.randint(-3, 3)
        n1 = rng.randint(-4, 2)
        n2 = n1 + rng.randint(1, 4)
        sign = rng.choice((1, -1))
        t = ("t", sign)
        part = rng.choice(("lower", "upper"))
        premises = [
            Less(t_pow(t, m - 1), u), Less(u, t_pow(t, m)),
            Less(t_pow(t, n1), v), Less(v, t_pow(t, n2)),
        ]
        return ("conjugate_window",
                {"u": u, "v": v, "t": t, "m": m, "n1": n1, "n2": n2, "part": part},
                premises, COMMUTES, t_vec)

    check_instances(n, make, seed=63)


def test_flip_bound_sound(n=400):
    # in an abelian group u^v = u^-1 forces u = 1, the only realizable case
    def make(rng):
        t_vec = random_t(rng)
        v = random_word(rng)
        n1 = rng.randint(-4, 2)
        n2 = n1 + rng.randint(1, 4)
        sign = rng.choice((1, -1))
        t = ("t", sign)
        part = rng.choice(("lower", "upper"))
        eq = identity_eq_fact("E", w_mul(w_inv(v), EMPTY, v), EMPTY)
        premises = [Less(t_pow(t, n1), v), Less(v, t_pow(t, n2)), Less(EMPTY, t_pow(t, 1))]
        return ("flip_bound",
                {"u": EMPTY, "v": v, "t": t, "n1": n1, "n2": n2, "part": part},
                premises, [eq] + COMMUTES, t_vec)

    check_instances(n, make, seed=64)


def test_structural_rules_sound(n=900):
    rng = random.Random(65)
    accepted = 0
    while accepted < n:
        t_vec = random_t(rng)
        kind = rng.choice(("trans", "lmul", "subst"))
        if kind == "trans":
            w1, w2, w3 = (random_word(rng) for _ in range(3))
            premises = [Less(w1, w2), Less(w2, w3)]
            params = {}
            facts = []
        elif kind == "lmul":
            w1, w2 = random_word(rng), random_word(rng)
            premises = [Less(w1, w2)]
            params = {"w": random_word(rng)}
            facts = []
        else:
            # substitute the true lattice identity z^2 = x^4 y^-6 mid-word
            prefix = random_word(rng, symbols=("x", "y"))
            suffix = random_word(rng, symbols=("x", "y"))
            target = w_mul(prefix, atom_pow("z", 2), suffix)
            premises = [Less(target, random_word(rng))]
            params = {"side": "lhs", "pos": len(prefix), "dir": "lr"}
            facts = [identity_eq_fact(
                "E", atom_pow("z", 2), w_mul(atom_pow("x", 4), atom_pow("y", -6))
            )]
        if any(not true_less(p, t_vec) for p in premises):
            continue
        conclusion = apply_rule(kind, params, premises, facts)
        assert true_less(conclusion, t_vec)
        accepted += 1


def test_contradiction_rules_unreachable_on_true_premises(n=900):
    rng = random.Random(66)
    for _ in range(n):
        t_vec = random_t(rng)
        w1, w2 = random_word(rng), random_word(rng)
        p1, p2 = Less(w1, w2), Less(w2, w1)
        # a total order never satisfies both crossing inequalities
        assert not (true_less(p1, t_vec) and true_less(p2, t_vec))
        if value(w1, t_vec) == value(w2, t_vec):
            # equality branches are only closable when a distinctness fact
            # genuinely holds, which it does not for equal realizations
            assert not true_less(p1, t_vec) and not true_less(p2, t_vec)


def test_eq_contra_sound(n=6000):
    # Equations of a power of x with 1 or a power of y, in either order, where
    # x and y are drawn small so that many hold.  Only the facts that hold are
    # cited, and then every equation eq_contra closes must be false.  Squares
    # reach x = y^2, which x not in {y, y^-1} does not exclude.
    rng = random.Random(68)
    x_powers = [atom_pow("x", e) for e in (-2, -1, 1, 2)]
    others = [EMPTY] + [atom_pow("y", e) for e in (-2, -1, 1, 2)]
    closed = refused_true = 0
    for _ in range(n):
        vecs = {s: (rng.randint(-2, 2), rng.choice((0, 0, 1))) for s in ("x", "y")}
        x, y = vecs["x"], vecs["y"]
        facts = []
        if x != (0, 0):
            facts.append(non_identity_fact("N", "x"))
        if x not in (y, (-y[0], -y[1])):
            facts += [not_in_set_fact("S", "x", "y"), not_in_set_fact("S'", "y", "x")]
        rng.shuffle(facts)
        sides = [rng.choice(x_powers), rng.choice(others)]
        rng.shuffle(sides)
        holds = value(sides[0], None, vecs) == value(sides[1], None, vecs)
        try:
            apply_rule("eq_contra", {}, [WordEq(*sides)], facts)
        except RuleError:
            refused_true += holds
            continue
        assert not holds, (sides, vecs, facts)
        closed += 1
    assert closed > n // 10 and refused_true > n // 100, (closed, refused_true)


def _matching_cases(cases, t_vec) -> int:
    """How many of the split's ``cases`` hold at ``t_vec``."""
    return sum(
        all(true_less(h, t_vec) if isinstance(h, Less)
            else value(h.lhs, t_vec) == value(h.rhs, t_vec) for h in hyps)
        for hyps in cases
    )


def test_case_splits_cover_exactly_one_branch(n=900):
    rng = random.Random(67)
    covered = 0
    while covered < n:
        t_vec = random_t(rng)
        v = random_word(rng)
        n1 = rng.randint(-4, 2)
        n2 = n1 + rng.randint(1, 4)
        sign = rng.choice((1, -1))
        t = ("t", sign)
        if any(not true_less(p, t_vec) for p in window_premises(v, t, n1, n2)):
            continue
        assert _matching_cases(window_cases(v, t, n1, n2), t_vec) == 1, (v, t, n1, n2, t_vec)
        covered += 1

        w1, w2 = random_word(rng), random_word(rng)
        assert _matching_cases(trichotomy_cases(w1, w2), t_vec) == 1, (w1, w2, t_vec)

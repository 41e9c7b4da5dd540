"""The shipped derivation.

``script_theorem_main`` certifies an outright contradiction from any
assumed left-invariant order on the six-generator plane group: nested sign
trichotomies make |a| vs |b| explicit, the product bound is instantiated
once with (a, b, c, d) and once with the swapped letters (b, a, ch, dh),
the exact product identities (the epsilon element and its mirror image)
substitute in, and every branch closes.

The prover states nothing the checker states: builders construct each
conclusion through the checker's ``apply_rule``, and each split's branch
hypotheses through its ``trichotomy_cases`` or ``window_cases``, so the
emitted derivation is correct by construction and any later mutation is
caught on re-checking.

Each proof shape has one builder, shared by both signs and both sides of
the swap: ``_sign_split`` (1 ? x), ``_quadrant`` (|a| ? |b|),
``_dominated_branch`` (|x| < |y| by the product bound over y),
``_product_bound_block`` with its paired ``products`` steps,
``_base_positive`` (1 < x^sign) and ``_refuted_branch`` (an equality that
contradicts a fact).  They all build in ``_Ctx``, one context per node;
the contexts of one derivation share its table and one id counter, so
emission order fixes every step and hypothesis id, and with it the
certificate's bytes.
"""

from __future__ import annotations

from itertools import count

from ..plane import PLANE_GENERATOR_NAMES
from ..wordsyntax import epsilon_letters
from .derivation import (CONTRADICTION_GOAL, Branch, Derivation, Hypothesis, Node, Split, Step,
                         trichotomy_cases, window_cases)
from .facts import (AtomTable, Fact, commute_fact, identity_eq_fact, non_identity_fact,
                    not_in_set_fact)
from .rules import apply_rule
from .words import EMPTY, Word, atom_pow, t_pow, w_inv, w_mul


class _Side:
    """One side of the swap: its letters a, b, c, d and the ids of its facts.

    The facts are named ``prefix`` + suffix: 1-3 say b commutes with a, c, d;
    4 and 5 say a^3 inverts c and d; 6 is the epsilon identity; 7c and 7d
    say c and d are not the identity.
    """

    def __init__(self, prefix, a, b, c, d):
        self.prefix = prefix
        self.a, self.b, self.c, self.d = a, b, c, d
        # letter atom -> id of its commute fact with b; the swap fixes
        # {a, b}, so both sides cite F1 for that pair
        self.commute_map = {a: "F1", c: f"{prefix}2", d: f"{prefix}3"}
        self.eq_c = f"{prefix}4"
        self.eq_d = f"{prefix}5"
        self.epsilon = f"{prefix}6"
        self.nonid_c = f"{prefix}7c"
        self.product = tuple(epsilon_letters(a, c, d))

    def facts(self) -> list[Fact]:
        p, a, b, c, d = self.prefix, self.a, self.b, self.c, self.d
        a3 = atom_pow(a, 3)
        return [
            commute_fact(f"{p}1", a, b),
            commute_fact(self.commute_map[c], b, c),
            commute_fact(self.commute_map[d], b, d),
            identity_eq_fact(self.eq_c, w_mul(w_inv(a3), atom_pow(c, 1), a3), atom_pow(c, -1)),
            identity_eq_fact(self.eq_d, w_mul(w_inv(a3), atom_pow(d, 1), a3), atom_pow(d, -1)),
            identity_eq_fact(self.epsilon, self.product, atom_pow(b, -36)),
            non_identity_fact(self.nonid_c, c),
            non_identity_fact(f"{p}7d", d),
        ]

    def cites(self, *words: Word) -> list[str]:
        """The commute facts that tie the letters of ``words`` to b, in order of first use."""
        return list(dict.fromkeys(self.commute_map[name] for word in words
                                  for name, _ in word if name != self.b))


VSIDE = _Side("F", "a", "b", "c", "d")
HSIDE = _Side("M", "b", "a", "ch", "dh")


def theorem_atom_table() -> AtomTable:
    v_facts = VSIDE.facts()
    facts = (v_facts[:6] + [non_identity_fact("F7a", "a"), non_identity_fact("F7b", "b")]
             + v_facts[6:] + [not_in_set_fact("F8", "a", "b")]
             + HSIDE.facts()[1:])  # M1 (b a == a b) would restate F1
    return AtomTable({name: name for name in PLANE_GENERATOR_NAMES}, facts)


class _Ctx:
    """One node under construction: its steps and the judgments in scope.
    Every context of one derivation shares its table and its id counter."""

    def __init__(self, table: AtomTable, ids: count, env: dict):
        self.table, self.ids, self.env = table, ids, env
        self.steps: list[Step] = []

    def fresh(self, prefix: str) -> str:
        return f"{prefix}{next(self.ids):04d}"

    def hypotheses(self, case) -> tuple[Hypothesis, ...]:
        """One branch's hypotheses: the judgments of ``case`` under fresh ids."""
        return tuple(Hypothesis(self.fresh("h"), judgment) for judgment in case)

    def child(self, hypotheses=()) -> "_Ctx":
        return _Ctx(self.table, self.ids, {**self.env, **{h.id: h.judgment for h in hypotheses}})

    def step(self, rule: str, params: dict, premises, facts=()) -> str:
        premise_judgments = [self.env[p] for p in premises]
        cited = [self.table.facts[f] for f in facts]
        conclusion = apply_rule(rule, params, premise_judgments, cited, self.table.conclusions)
        sid = self.fresh("s")
        self.steps.append(Step(sid, rule, dict(params), tuple(premises), tuple(facts), conclusion))
        self.env[sid] = conclusion
        return sid

    def node(self, split=None) -> Node:
        return Node(steps=tuple(self.steps), split=split)


def _base_positive(ctx: _Ctx, atom: str, sign: int, hyp_id: str) -> str:
    """Id of 1 < atom^sign: the sign hypothesis itself, or 1 < atom^-1
    inverted out of the hypothesis atom < 1."""
    if sign == 1:
        return hyp_id
    return ctx.step("invert", {"u": atom_pow(atom, 1), "t": (atom, 1), "m": 0, "direction": "lt"},
                    [hyp_id])


def _refuted_branch(ctx: _Ctx, name: str, hypotheses, fact_id: str) -> Branch:
    """A branch whose one hypothesis, an equality, contradicts the fact ``fact_id``."""
    sub = ctx.child(hypotheses)
    sub.step("eq_contra", {}, [hypotheses[0].id], [fact_id])
    return Branch(name, hypotheses, sub.node())


def _product_bound_block(ctx: _Ctx, L: _Side, t, j_pos, j_a_lt, j_ainv_lt) -> Node:
    """Emit the product-bound argument onto ``ctx``; return the finished node.

    Requires in scope: ``j_pos``  1 < t,  ``j_a_lt``  A < t,  ``j_ainv_lt``
    A^-1 < t, where t is the signed base over the atom named ``L.b``.  The
    strict window branches close by the epsilon identity ``L.epsilon``, the
    equal one by ``L.nonid_c``.
    """
    A = L.a
    wa = atom_pow(A, 1)
    wc = atom_pow(L.c, 1)
    wd = atom_pow(L.d, 1)

    def products(sub: _Ctx, u, v, m, n, up_premises, lo_premises):
        """u v < t^(m+n) from upper bounds, then t^-(m+n) < u v from lower
        bounds; returns both ids, upper first."""
        params = {"u": u, "v": v, "t": t, "m": m, "n": n, "direction": "lt"}
        cites = L.cites(u, v)
        j_up = sub.step("product", params, up_premises, cites)
        j_lo = sub.step("product", dict(params, m=-m, n=-n, direction="gt"), lo_premises, cites)
        return j_up, j_lo

    j_tinv_a = ctx.step("invert", {"u": atom_pow(A, -1), "t": t, "m": 1, "direction": "lt"},
                        [j_ainv_lt], L.cites(wa))
    # windows on powers of A: A^k < t^k and t^-k < A^k, k = 2..5
    up = {1: j_a_lt}
    lo = {1: j_tinv_a}
    for k in range(2, 6):
        up[k], lo[k] = products(ctx, atom_pow(A, k - 1), wa, k - 1, 1,
                                [up[k - 1], j_a_lt], [lo[k - 1], j_tinv_a])

    def flip(u_word, eq_fact, part):
        params = {"u": u_word, "v": atom_pow(A, 3), "t": t, "n1": -3, "n2": 3, "part": part}
        return ctx.step("flip_bound", params, [lo[3], up[3], j_pos],
                        [eq_fact] + L.cites(u_word, atom_pow(A, 3)))

    j_c_lo = flip(wc, L.eq_c, "lower")
    j_c_up = flip(wc, L.eq_c, "upper")
    j_d_lo = flip(wd, L.eq_d, "lower")
    j_d_up = flip(wd, L.eq_d, "upper")

    def strict_branch(hyps, m) -> Node:
        bctx = ctx.child(hyps)
        h_lo, h_up = hyps[0].id, hyps[1].id
        # t^-2 < t^-1 when m is 1, else t < t^2
        j_wk = bctx.step("lmul", {"w": t_pow(t, -2 if m == 1 else 1)}, [j_pos])
        for k in range(6):
            if k == 0:
                v_word, jv_up, jv_lo = wd, j_d_up, j_d_lo
            else:
                v_word = w_mul(wd, atom_pow(A, k))
                jv_up, jv_lo = products(bctx, wd, atom_pow(A, k), 1, k,
                                        [j_d_up, up[k]], [j_d_lo, lo[k]])
            conj_params = {"u": wc, "v": v_word, "t": t, "m": m, "n1": -(1 + k), "n2": 1 + k}
            conj_cites = L.cites(wc, v_word)
            jg_lo, jg_up = (
                bctx.step("conjugate_window", dict(conj_params, part=part),
                          [h_lo, h_up, jv_lo, jv_up], conj_cites)
                for part in ("lower", "upper")
            )
            g_word = w_mul(w_inv(v_word), wc, v_word)
            # widen to t^-2 < g < t^2
            if m == 1:
                jg_lo = bctx.step("trans", {}, [j_wk, jg_lo])
            else:
                jg_up = bctx.step("trans", {}, [jg_up, j_wk])
            if k == 0:
                product_word, j_p_up, j_p_lo = g_word, jg_up, jg_lo
            else:
                j_p_up, j_p_lo = products(bctx, product_word, g_word, 2 * k, 2,
                                          [j_p_up, jg_up], [j_p_lo, jg_lo])
                product_word = w_mul(product_word, g_word)
        assert product_word == L.product
        # substitute the epsilon identity into the failing bound, then cross
        # it with a power of the positive base
        side, j_bound = ("rhs", j_p_lo) if t[1] == 1 else ("lhs", j_p_up)
        j_false = bctx.step("subst", {"side": side, "pos": 0, "dir": "lr"}, [j_bound], [L.epsilon])
        powers = {1: j_pos}
        for m1, n1 in ((1, 1), (2, 2), (4, 4), (8, 8), (16, 8)):
            params = {"u": EMPTY, "v": EMPTY, "t": t, "m": m1, "n": n1, "direction": "lt"}
            powers[m1 + n1] = bctx.step("product", params, [powers[m1], powers[n1]])
        shift = atom_pow(L.b, -36) if t[1] == 1 else t_pow(t, 12)
        j_opp = bctx.step("lmul", {"w": shift}, [powers[24]])
        bctx.step("absurd", {}, [j_false, j_opp])
        return bctx.node()

    params = {"v": wc, "t": t, "n1": -1, "n2": 1}
    below, above, equal = map(ctx.hypotheses, window_cases(**params))
    # emitted before the strict cases, whose ids follow it
    equal_branch = _refuted_branch(ctx, "c_equal_1", equal, L.nonid_c)
    branches = (Branch("c_below_1", below, strict_branch(below, 0)),
                Branch("c_above_1", above, strict_branch(above, 1)), equal_branch)
    return ctx.node(Split("window", params, (j_c_lo, j_c_up, j_pos), branches))


def _dominated_branch(ctx: _Ctx, L: _Side, sides: dict, case) -> Branch:
    """The trichotomy ``case`` |x| < |y| for x = ``L.a``, y = ``L.b``, closed
    by the product bound over the base y^sign.  ``sides`` maps each of a, b to
    its sign, the id of its sign hypothesis and the id of 1 < atom^sign."""
    x, y = L.a, L.b
    s_x, h_x, _ = sides[x]
    s_y, _, j_pos_y = sides[y]
    hypotheses = ctx.hypotheses(case)
    sub = ctx.child(hypotheses)
    if s_x == 1:
        j_lt = hypotheses[0].id
        j_drop = sub.step("invert", {"u": EMPTY, "t": (x, 1), "m": 1, "direction": "lt"}, [h_x])
        j_inv_lt = sub.step("trans", {}, [j_drop, j_pos_y])
    else:
        j_inv_lt = hypotheses[0].id
        j_lt = sub.step("trans", {}, [h_x, j_pos_y])
    node = _product_bound_block(sub, L, (y, s_y), j_pos_y, j_lt, j_inv_lt)
    return Branch(f"mag_{x}_below_mag_{y}", hypotheses, node)


def _quadrant(ctx: _Ctx, s_a: int, h_a: str, s_b: int, h_b: str) -> Node:
    """|a| vs |b| for one sign of each: the strict cases close by the product
    bound over the dominant letter, the equal case by F8."""
    sides = {}
    for atom, sign, hyp_id in (("b", s_b, h_b), ("a", s_a, h_a)):
        sides[atom] = (sign, hyp_id, _base_positive(ctx, atom, sign, hyp_id))
    params = {"w1": atom_pow("a", s_a), "w2": atom_pow("b", s_b)}
    below, equal, above = trichotomy_cases(**params)
    # each branch draws its hypothesis id after the steps of the branch before it
    branches = (_dominated_branch(ctx, VSIDE, sides, below),
                _refuted_branch(ctx, "mag_a_equal_mag_b", ctx.hypotheses(equal), "F8"),
                _dominated_branch(ctx, HSIDE, sides, above))
    return ctx.node(Split("trichotomy", params, (), branches))


def _sign_split(ctx: _Ctx, atom: str, fact_id: str, case) -> Node:
    """Trichotomy 1 < x | 1 = x | x < 1 on the atom x.  ``case(ctx, sign,
    hyp_id)`` builds each sign branch; the identity branch contradicts the
    non-identity fact ``fact_id``."""
    params = {"w1": EMPTY, "w2": atom_pow(atom, 1)}
    pos, eq, neg = map(ctx.hypotheses, trichotomy_cases(**params))
    positive = Branch(f"{atom}_positive", pos, case(ctx.child(pos), 1, pos[0].id))
    # emitted between the two sign subtrees: ids follow emission order, so
    # moving this step would renumber the negative subtree
    identity = _refuted_branch(ctx, f"{atom}_identity", eq, fact_id)
    negative = Branch(f"{atom}_negative", neg, case(ctx.child(neg), -1, neg[0].id))
    return ctx.node(Split("trichotomy", params, (), (positive, identity, negative)))


def script_theorem_main() -> Derivation:
    """The unconditional contradiction derivation for the plane group."""
    table = theorem_atom_table()

    def a_split(ctx, s_b, h_b):
        return _sign_split(ctx, "a", "F7a",
                           lambda ctx, s_a, h_a: _quadrant(ctx, s_a, h_a, s_b, h_b))

    root = _sign_split(_Ctx(table, count(1), {}), "b", "F7b", a_split)
    return Derivation("no-left-order", table, CONTRADICTION_GOAL, root)

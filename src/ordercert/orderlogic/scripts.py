"""The shipped derivation.

``script_theorem_main`` certifies an outright contradiction from any
assumed left-invariant order on the six-generator plane group: nested sign
trichotomies make |a| vs |b| explicit, the product bound is instantiated
once with (a, b, c, d) and once with the swapped letters (b, a, ch, dh),
the exact product identities (the epsilon element and its mirror image)
substitute in, and every branch closes.

Builders construct conclusions through the same ``apply_rule`` engine the
checker uses, so the emitted derivation is correct by construction and
any later mutation is caught on re-checking.

Each proof shape has one builder, shared by both signs and both sides of
the swap: ``_sign_split`` (1 ? x), ``_quadrant`` (|a| ? |b|),
``_dominated_branch`` (|x| < |y| by the product bound over y),
``_product_bound_block`` with its paired ``products`` steps,
``_base_positive`` (1 < x^sign) and ``_refuted_branch`` (an equality that
contradicts a fact).  Steps and hypotheses draw ids from one counter, so
emission order fixes every id, and with it the certificate's bytes.
"""

from __future__ import annotations

from ..plane import PLANE_GENERATOR_NAMES
from ..wordsyntax import epsilon_letters
from .derivation import (
    CONTRADICTION_GOAL,
    Branch,
    Derivation,
    Hypothesis,
    Node,
    Split,
    Step,
)
from .facts import (
    AtomTable,
    Fact,
    commute_fact,
    identity_eq_fact,
    non_identity_fact,
    not_in_set_fact,
)
from .rules import apply_rule
from .words import EMPTY, Less, Word, WordEq, atom_pow, t_pow, w_inv, w_mul


class _LemmaLetters:
    """Letter assignment for one instantiation of the product-bound block.

    Its facts, named ``prefix`` + suffix: 1-3 say b commutes with a, c, d;
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
        used: list[str] = []
        for word in words:
            for name, _ in word:
                if name == self.b:
                    continue
                fid = self.commute_map[name]
                if fid not in used:
                    used.append(fid)
        return used


VSIDE = _LemmaLetters("F", "a", "b", "c", "d")
HSIDE = _LemmaLetters("M", "b", "a", "ch", "dh")


def theorem_atom_table() -> AtomTable:
    atoms = {name: name for name in PLANE_GENERATOR_NAMES}
    v_facts = VSIDE.facts()
    facts = (
        v_facts[:6]
        + [non_identity_fact("F7a", "a"), non_identity_fact("F7b", "b")]
        + v_facts[6:]
        + [not_in_set_fact("F8", "a", "b")]
        + HSIDE.facts()[1:]  # M1 (b a == a b) would restate F1
    )
    return AtomTable(atoms, facts)


class _Builder:
    def __init__(self, table: AtomTable):
        self.table = table
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter:04d}"

    def hyp(self, judgment) -> Hypothesis:
        return Hypothesis(self.fresh("h"), judgment)


class _Ctx:
    """One node under construction: accumulated steps plus visible judgments."""

    def __init__(self, builder: _Builder, env: dict):
        self.builder = builder
        self.env = dict(env)
        self.steps: list[Step] = []

    def child(self, extra_hypotheses=()) -> "_Ctx":
        ctx = _Ctx(self.builder, self.env)
        for hyp in extra_hypotheses:
            ctx.env[hyp.id] = hyp.judgment
        return ctx

    def step(self, rule: str, params: dict, premises, facts=()) -> str:
        premise_judgments = [self.env[p] for p in premises]
        cited = [self.builder.table.get(f) for f in facts]
        conclusion = apply_rule(rule, params, premise_judgments, cited,
                                self.builder.table.conclusions)
        sid = self.builder.fresh("s")
        self.steps.append(
            Step(sid, rule, dict(params), tuple(premises), tuple(facts), conclusion)
        )
        self.env[sid] = conclusion
        return sid

    def node(self, split=None) -> Node:
        return Node(steps=tuple(self.steps), split=split)


def _base_positive(ctx: _Ctx, atom: str, sign: int, hyp_id: str) -> str:
    """Id of 1 < atom^sign: the sign hypothesis itself, or 1 < atom^-1
    inverted out of the hypothesis atom < 1."""
    if sign == 1:
        return hyp_id
    return ctx.step(
        "invert", {"u": atom_pow(atom, 1), "t": (atom, 1), "m": 0, "direction": "lt"}, [hyp_id], []
    )


def _refuted_branch(ctx: _Ctx, name: str, hyp: Hypothesis, fact_id: str) -> Branch:
    """A branch whose equality hypothesis contradicts the fact ``fact_id``."""
    sub = ctx.child([hyp])
    sub.step("eq_contra", {}, [hyp.id], [fact_id])
    return Branch(name, (hyp,), sub.node())


def _product_bound_block(ctx: _Ctx, L: _LemmaLetters, t, j_pos, j_a_lt, j_ainv_lt) -> Node:
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

    j_tinv_a = ctx.step(
        "invert",
        {"u": atom_pow(A, -1), "t": t, "m": 1, "direction": "lt"},
        [j_ainv_lt],
        L.cites(wa),
    )
    # windows on powers of A: A^k < t^k and t^-k < A^k, k = 2..5
    up = {1: j_a_lt}
    lo = {1: j_tinv_a}
    for k in range(2, 6):
        up[k], lo[k] = products(
            ctx, atom_pow(A, k - 1), wa, k - 1, 1, [up[k - 1], j_a_lt], [lo[k - 1], j_tinv_a]
        )

    def flip(u_word, eq_fact, part):
        return ctx.step(
            "flip_bound",
            {"u": u_word, "v": atom_pow(A, 3), "t": t, "n1": -3, "n2": 3, "part": part},
            [lo[3], up[3], j_pos],
            [eq_fact] + L.cites(u_word, atom_pow(A, 3)),
        )

    j_c_lo = flip(wc, L.eq_c, "lower")
    j_c_up = flip(wc, L.eq_c, "upper")
    j_d_lo = flip(wd, L.eq_d, "lower")
    j_d_up = flip(wd, L.eq_d, "upper")

    def strict_branch(hyps, m) -> Node:
        bctx = ctx.child(hyps)
        h_lo, h_up = hyps[0].id, hyps[1].id
        if m == 1:
            j_wk = bctx.step("lmul", {"w": t_pow(t, -2)}, [j_pos])  # t^-2 < t^-1
        else:
            j_wk = bctx.step("lmul", {"w": t_pow(t, 1)}, [j_pos])  # t < t^2
        for k in range(6):
            if k == 0:
                v_word, jv_up, jv_lo = wd, j_d_up, j_d_lo
            else:
                v_word = w_mul(wd, atom_pow(A, k))
                jv_up, jv_lo = products(
                    bctx, wd, atom_pow(A, k), 1, k, [j_d_up, up[k]], [j_d_lo, lo[k]]
                )
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
                j_p_up, j_p_lo = products(
                    bctx, product_word, g_word, 2 * k, 2, [j_p_up, jg_up], [j_p_lo, jg_lo]
                )
                product_word = w_mul(product_word, g_word)
        assert product_word == L.product
        # substitute the epsilon identity into the failing bound, then cross
        # it with a power of the positive base
        side, j_bound = ("rhs", j_p_lo) if t[1] == 1 else ("lhs", j_p_up)
        j_false = bctx.step("subst", {"side": side, "pos": 0, "dir": "lr"}, [j_bound], [L.epsilon])
        powers = {1: j_pos}
        for m1, n1 in ((1, 1), (2, 2), (4, 4), (8, 8), (16, 8)):
            powers[m1 + n1] = bctx.step(
                "product",
                {"u": EMPTY, "v": EMPTY, "t": t, "m": m1, "n": n1, "direction": "lt"},
                [powers[m1], powers[n1]],
                [],
            )
        shift = atom_pow(L.b, -36) if t[1] == 1 else t_pow(t, 12)
        j_opp = bctx.step("lmul", {"w": shift}, [powers[24]])
        bctx.step("absurd", {}, [j_false, j_opp])
        return bctx.node()

    b = ctx.builder
    below = (b.hyp(Less(t_pow(t, -1), wc)), b.hyp(Less(wc, EMPTY)))
    above = (b.hyp(Less(EMPTY, wc)), b.hyp(Less(wc, t_pow(t, 1))))
    # emitted before the strict cases, whose ids follow it
    equal = _refuted_branch(ctx, "c_equal_1", b.hyp(WordEq(wc, EMPTY)), L.nonid_c)
    split = Split(
        kind="window",
        params={"v": wc, "t": t, "n1": -1, "n2": 1},
        premises=(j_c_lo, j_c_up, j_pos),
        branches=(
            Branch("c_below_1", below, strict_branch(below, 0)),
            Branch("c_above_1", above, strict_branch(above, 1)),
            equal,
        ),
    )
    return ctx.node(split)


def _dominated_branch(ctx: _Ctx, L: _LemmaLetters, sides: dict) -> Branch:
    """Case |x| < |y| for x = ``L.a``, y = ``L.b``, closed by the product
    bound over the base y^sign.  ``sides`` maps each of a, b to its sign, the
    id of its sign hypothesis and the id of 1 < atom^sign."""
    x, y = L.a, L.b
    s_x, h_x, _ = sides[x]
    s_y, _, j_pos_y = sides[y]
    hyp = ctx.builder.hyp(Less(atom_pow(x, s_x), atom_pow(y, s_y)))
    sub = ctx.child([hyp])
    if s_x == 1:
        j_lt = hyp.id
        j_drop = sub.step(
            "invert", {"u": EMPTY, "t": (x, 1), "m": 1, "direction": "lt"}, [h_x], []
        )
        j_inv_lt = sub.step("trans", {}, [j_drop, j_pos_y])
    else:
        j_inv_lt = hyp.id
        j_lt = sub.step("trans", {}, [h_x, j_pos_y])
    node = _product_bound_block(sub, L, (y, s_y), j_pos_y, j_lt, j_inv_lt)
    return Branch(f"mag_{x}_below_mag_{y}", (hyp,), node)


def _quadrant(ctx: _Ctx, s_a: int, h_a: str, s_b: int, h_b: str) -> Node:
    """|a| vs |b| for one sign of each: the strict cases close by the product
    bound over the dominant letter, the equal case by F8."""
    sides = {}
    for atom, sign, hyp_id in (("b", s_b, h_b), ("a", s_a, h_a)):
        sides[atom] = (sign, hyp_id, _base_positive(ctx, atom, sign, hyp_id))
    wa = atom_pow("a", s_a)
    wb = atom_pow("b", s_b)
    below = _dominated_branch(ctx, VSIDE, sides)
    equal = _refuted_branch(ctx, "mag_a_equal_mag_b", ctx.builder.hyp(WordEq(wa, wb)), "F8")
    above = _dominated_branch(ctx, HSIDE, sides)
    return ctx.node(Split("trichotomy", {"w1": wa, "w2": wb}, (), (below, equal, above)))


def _sign_split(ctx: _Ctx, atom: str, fact_id: str, case) -> Node:
    """Trichotomy 1 < x | 1 = x | x < 1 on the atom x.  ``case(ctx, sign,
    hyp_id)`` builds each sign branch; the identity branch contradicts the
    non-identity fact ``fact_id``."""
    w = atom_pow(atom, 1)
    b = ctx.builder
    h_pos, h_eq, h_neg = b.hyp(Less(EMPTY, w)), b.hyp(WordEq(EMPTY, w)), b.hyp(Less(w, EMPTY))
    positive = Branch(f"{atom}_positive", (h_pos,), case(ctx.child([h_pos]), 1, h_pos.id))
    # emitted between the two sign subtrees: ids follow emission order, so
    # moving this step would renumber the negative subtree
    identity = _refuted_branch(ctx, f"{atom}_identity", h_eq, fact_id)
    negative = Branch(f"{atom}_negative", (h_neg,), case(ctx.child([h_neg]), -1, h_neg.id))
    split = Split("trichotomy", {"w1": EMPTY, "w2": w}, (), (positive, identity, negative))
    return ctx.node(split)


def script_theorem_main() -> Derivation:
    """The unconditional contradiction derivation for the plane group."""
    table = theorem_atom_table()

    def a_split(ctx, s_b, h_b):
        return _sign_split(
            ctx, "a", "F7a", lambda ctx, s_a, h_a: _quadrant(ctx, s_a, h_a, s_b, h_b)
        )

    root = _sign_split(_Ctx(_Builder(table), {}), "b", "F7b", a_split)
    return Derivation("no-left-order", table, CONTRADICTION_GOAL, root)

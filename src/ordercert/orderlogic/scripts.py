"""The two shipped derivations.

``script_lemma_gen`` certifies the conditional product bound: for atoms
a, b, c, d with the commutation and flipping facts, on each sign case for b,
with |a| < |b| unpacked into explicit hypotheses, the six-factor conjugate
product lands strictly between the -12th and 12th powers of the positive
base.

``script_theorem_main`` certifies an outright contradiction from any
assumed left-invariant order on the six-generator plane group: nested sign
trichotomies make |a| vs |b| explicit, the product bound is instantiated
once with (a, b, c, d) and once with the swapped letters (b, a, ch, dh),
the exact product identities (the epsilon element and its mirror image)
substitute in, and every branch closes.

Builders construct conclusions through the same ``apply_rule`` engine the
checker uses, so the emitted scripts are correct by construction and any
later mutation is caught on re-checking.
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
    Realization,
    commute_fact,
    identity_eq_fact,
    non_identity_fact,
    not_in_set_fact,
)
from .rules import apply_rule
from .words import EMPTY, Less, Word, WordEq, atom_pow, t_pow, w_inv, w_mul


def epsilon_product_word(a: str, c: str, d: str) -> Word:
    """The formal word c^d c^(da) c^(da^2) ... c^(da^5), freely reduced."""
    return tuple(epsilon_letters(a, c, d))


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
        self.product = epsilon_product_word(a, c, d)

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


def lemma_atom_table() -> AtomTable:
    atoms = {name: Realization("skew", name) for name in ("a", "b", "c", "d")}
    cited = {*VSIDE.commute_map.values(), VSIDE.eq_c, VSIDE.eq_d, VSIDE.nonid_c}
    return AtomTable(atoms, [f for f in VSIDE.facts() if f.id in cited])


def theorem_atom_table() -> AtomTable:
    atoms = {name: Realization("plane", name) for name in PLANE_GENERATOR_NAMES}
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
        conclusion = apply_rule(rule, params, premise_judgments, cited)
        sid = self.builder.fresh("s")
        self.steps.append(
            Step(sid, rule, dict(params), tuple(premises), tuple(facts), conclusion)
        )
        self.env[sid] = conclusion
        return sid

    def node(self, split=None) -> Node:
        return Node(steps=tuple(self.steps), split=split)


def _product_bound_block(ctx: _Ctx, L: _LemmaLetters, t, j_pos, j_a_lt, j_ainv_lt,
                         close: bool = False) -> Node:
    """Emit the product-bound argument onto ``ctx``; return the finished node.

    Requires in scope: ``j_pos``  1 < t,  ``j_a_lt``  A < t,  ``j_ainv_lt``
    A^-1 < t, where t is the signed base over the atom named ``L.b``.  With
    ``close`` every branch is closed by the epsilon identity ``L.epsilon``;
    without it the branches stop at the two product-bound judgments.
    """
    A, C, D = L.a, L.c, L.d
    wa = atom_pow(A, 1)
    wc = atom_pow(C, 1)
    wd = atom_pow(D, 1)

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
        up[k] = ctx.step(
            "product",
            {"u": atom_pow(A, k - 1), "v": wa, "t": t, "m": k - 1, "n": 1, "direction": "lt"},
            [up[k - 1], j_a_lt],
            L.cites(wa),
        )
        lo[k] = ctx.step(
            "product",
            {"u": atom_pow(A, k - 1), "v": wa, "t": t, "m": -(k - 1), "n": -1, "direction": "gt"},
            [lo[k - 1], j_tinv_a],
            L.cites(wa),
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
        product_word: Word = EMPTY
        j_p_lo = j_p_up = None
        for k in range(6):
            if k == 0:
                v_word = wd
                n1k, n2k = -1, 1
                jv_lo, jv_up = j_d_lo, j_d_up
            else:
                v_word = w_mul(wd, atom_pow(A, k))
                n1k, n2k = -(1 + k), 1 + k
                jv_up = bctx.step(
                    "product",
                    {"u": wd, "v": atom_pow(A, k), "t": t, "m": 1, "n": k, "direction": "lt"},
                    [j_d_up, up[k]],
                    L.cites(wd, atom_pow(A, k)),
                )
                jv_lo = bctx.step(
                    "product",
                    {"u": wd, "v": atom_pow(A, k), "t": t, "m": -1, "n": -k, "direction": "gt"},
                    [j_d_lo, lo[k]],
                    L.cites(wd, atom_pow(A, k)),
                )
            conj_params = {"u": wc, "v": v_word, "t": t, "m": m, "n1": n1k, "n2": n2k}
            conj_cites = L.cites(wc, v_word)
            jg_lo = bctx.step(
                "conjugate_window", dict(conj_params, part="lower"),
                [h_lo, h_up, jv_lo, jv_up], conj_cites,
            )
            jg_up = bctx.step(
                "conjugate_window", dict(conj_params, part="upper"),
                [h_lo, h_up, jv_lo, jv_up], conj_cites,
            )
            g_word = w_mul(w_inv(v_word), wc, v_word)
            # widen to t^-2 < g < t^2
            if m == 1:
                jg_lo = bctx.step("trans", {}, [j_wk, jg_lo])
            else:
                jg_up = bctx.step("trans", {}, [jg_up, j_wk])
            if k == 0:
                product_word = g_word
                j_p_lo, j_p_up = jg_lo, jg_up
            else:
                j_p_up = bctx.step(
                    "product",
                    {"u": product_word, "v": g_word, "t": t, "m": 2 * k, "n": 2, "direction": "lt"},
                    [j_p_up, jg_up],
                    L.cites(product_word, g_word),
                )
                j_p_lo = bctx.step(
                    "product",
                    {"u": product_word, "v": g_word, "t": t, "m": -2 * k, "n": -2, "direction": "gt"},
                    [j_p_lo, jg_lo],
                    L.cites(product_word, g_word),
                )
                product_word = w_mul(product_word, g_word)
        assert product_word == L.product
        if not close:
            return bctx.node()
        # substitute the epsilon identity into the failing bound, then cross
        # it with a power of the positive base
        if t[1] == 1:
            j_false = bctx.step(
                "subst", {"side": "rhs", "pos": 0, "dir": "lr"}, [j_p_lo], [L.epsilon]
            )
        else:
            j_false = bctx.step(
                "subst", {"side": "lhs", "pos": 0, "dir": "lr"}, [j_p_up], [L.epsilon]
            )
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
    strict_hyps = [
        (b.hyp(Less(t_pow(t, -1), wc)), b.hyp(Less(wc, EMPTY))),
        (b.hyp(Less(EMPTY, wc)), b.hyp(Less(wc, t_pow(t, 1)))),
    ]
    eq_hyp = (b.hyp(WordEq(wc, EMPTY)),)
    eq_ctx = ctx.child(eq_hyp)
    eq_ctx.step("eq_contra", {}, [eq_hyp[0].id], [L.nonid_c])
    split = Split(
        kind="window",
        params={"v": wc, "t": t, "n1": -1, "n2": 1},
        premises=(j_c_lo, j_c_up, j_pos),
        branches=(
            Branch("c_below_1", strict_hyps[0], strict_branch(strict_hyps[0], 0)),
            Branch("c_above_1", strict_hyps[1], strict_branch(strict_hyps[1], 1)),
            Branch("c_equal_1", eq_hyp, eq_ctx.node()),
        ),
    )
    return ctx.node(split)


def script_lemma_gen() -> Derivation:
    """The conditional product-bound derivation over abstract atoms a, b, c, d."""
    table = lemma_atom_table()
    builder = _Builder(table)
    product = VSIDE.product
    branches = []

    t = ("b", 1)
    hyps = (
        builder.hyp(Less(EMPTY, atom_pow("b", 1))),
        builder.hyp(Less(atom_pow("a", 1), atom_pow("b", 1))),
        builder.hyp(Less(atom_pow("a", -1), atom_pow("b", 1))),
    )
    ctx = _Ctx(builder, {h.id: h.judgment for h in hyps})
    node = _product_bound_block(ctx, VSIDE, t, hyps[0].id, hyps[1].id, hyps[2].id)
    goal = (Less(t_pow(t, -12), product), Less(product, t_pow(t, 12)))
    branches.append(Branch("b_positive", hyps, node, goal=goal))

    t = ("b", -1)
    hyps = (
        builder.hyp(Less(atom_pow("b", 1), EMPTY)),
        builder.hyp(Less(atom_pow("a", 1), atom_pow("b", -1))),
        builder.hyp(Less(atom_pow("a", -1), atom_pow("b", -1))),
    )
    ctx = _Ctx(builder, {h.id: h.judgment for h in hyps})
    j_pos = ctx.step(
        "invert",
        {"u": atom_pow("b", 1), "t": ("b", 1), "m": 0, "direction": "lt"},
        [hyps[0].id],
        [],
    )
    node = _product_bound_block(ctx, VSIDE, t, j_pos, hyps[1].id, hyps[2].id)
    goal = (Less(t_pow(t, -12), product), Less(product, t_pow(t, 12)))
    branches.append(Branch("b_negative", hyps, node, goal=goal))

    root = Node(
        steps=(),
        split=Split(
            "given",
            {"description": "sign of b, with |a| < |b| unpacked per case"},
            (),
            tuple(branches),
        ),
    )
    return Derivation("product-bound", table, None, root)


def script_theorem_main() -> Derivation:
    """The unconditional contradiction derivation for the plane group."""
    table = theorem_atom_table()
    builder = _Builder(table)
    wa1 = atom_pow("a", 1)
    wb1 = atom_pow("b", 1)

    def eq_branch_node(env, hyp: Hypothesis, fact_id: str) -> Node:
        ctx = _Ctx(builder, env)
        ctx.env[hyp.id] = hyp.judgment
        ctx.step("eq_contra", {}, [hyp.id], [fact_id])
        return ctx.node()

    def quadrant(env, hb_id, s_b, ha_id, s_a) -> Node:
        ctx = _Ctx(builder, env)
        tb = ("b", s_b)
        ta = ("a", s_a)
        if s_b == 1:
            j_pos_b = hb_id
        else:
            j_pos_b = ctx.step(
                "invert", {"u": wb1, "t": ("b", 1), "m": 0, "direction": "lt"}, [hb_id], []
            )
        if s_a == 1:
            j_pos_a = ha_id
        else:
            j_pos_a = ctx.step(
                "invert", {"u": wa1, "t": ("a", 1), "m": 0, "direction": "lt"}, [ha_id], []
            )
        wa = atom_pow("a", s_a)
        wb = atom_pow("b", s_b)

        # |a| < |b|: bound the letters a, b, c, d over the base b^(s_b)
        h_lt = builder.hyp(Less(wa, wb))
        lt_ctx = ctx.child([h_lt])
        if s_a == 1:
            j_a_lt = h_lt.id
            j_drop = lt_ctx.step(
                "invert", {"u": EMPTY, "t": ("a", 1), "m": 1, "direction": "lt"}, [ha_id], []
            )
            j_ainv_lt = lt_ctx.step("trans", {}, [j_drop, j_pos_b])
        else:
            j_ainv_lt = h_lt.id
            j_a_lt = lt_ctx.step("trans", {}, [ha_id, j_pos_b])
        lt_node = _product_bound_block(
            lt_ctx, VSIDE, tb, j_pos_b, j_a_lt, j_ainv_lt, close=True
        )

        # |a| = |b|: excluded because a is neither b nor b^-1
        h_eq = builder.hyp(WordEq(wa, wb))
        eq_ctx = ctx.child([h_eq])
        eq_ctx.step("eq_contra", {}, [h_eq.id], ["F8"])

        # |b| < |a|: the mirrored bound over the base a^(s_a)
        h_gt = builder.hyp(Less(wb, wa))
        gt_ctx = ctx.child([h_gt])
        if s_b == 1:
            j_b_lt = h_gt.id
            j_drop = gt_ctx.step(
                "invert", {"u": EMPTY, "t": ("b", 1), "m": 1, "direction": "lt"}, [hb_id], []
            )
            j_binv_lt = gt_ctx.step("trans", {}, [j_drop, j_pos_a])
        else:
            j_binv_lt = h_gt.id
            j_b_lt = gt_ctx.step("trans", {}, [hb_id, j_pos_a])
        gt_node = _product_bound_block(
            gt_ctx, HSIDE, ta, j_pos_a, j_b_lt, j_binv_lt, close=True
        )

        split = Split(
            "trichotomy",
            {"w1": wa, "w2": wb},
            (),
            (
                Branch("mag_a_below_mag_b", (h_lt,), lt_node),
                Branch("mag_a_equal_mag_b", (h_eq,), eq_ctx.node()),
                Branch("mag_b_below_mag_a", (h_gt,), gt_node),
            ),
        )
        return ctx.node(split)

    def a_split(env, hb_id, s_b) -> Node:
        ctx = _Ctx(builder, env)
        h_pos = builder.hyp(Less(EMPTY, wa1))
        h_eq = builder.hyp(WordEq(EMPTY, wa1))
        h_neg = builder.hyp(Less(wa1, EMPTY))
        split = Split(
            "trichotomy",
            {"w1": EMPTY, "w2": wa1},
            (),
            (
                Branch("a_positive", (h_pos,),
                       quadrant({**ctx.env, h_pos.id: h_pos.judgment}, hb_id, s_b, h_pos.id, 1)),
                Branch("a_identity", (h_eq,), eq_branch_node(ctx.env, h_eq, "F7a")),
                Branch("a_negative", (h_neg,),
                       quadrant({**ctx.env, h_neg.id: h_neg.judgment}, hb_id, s_b, h_neg.id, -1)),
            ),
        )
        return ctx.node(split)

    h_pos = builder.hyp(Less(EMPTY, wb1))
    h_eq = builder.hyp(WordEq(EMPTY, wb1))
    h_neg = builder.hyp(Less(wb1, EMPTY))
    root = Node(
        steps=(),
        split=Split(
            "trichotomy",
            {"w1": EMPTY, "w2": wb1},
            (),
            (
                Branch("b_positive", (h_pos,),
                       a_split({h_pos.id: h_pos.judgment}, h_pos.id, 1)),
                Branch("b_identity", (h_eq,), eq_branch_node({}, h_eq, "F7b")),
                Branch("b_negative", (h_neg,),
                       a_split({h_neg.id: h_neg.judgment}, h_neg.id, -1)),
            ),
        ),
    )
    return Derivation("no-left-order", table, CONTRADICTION_GOAL, root)

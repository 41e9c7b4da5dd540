"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything is exact arithmetic; "tolerance" is equality of canonical forms
throughout.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction as F

from ordercert.cli import main
from ordercert.exactpl import PLCocycle, PLMap
from ordercert.orderlogic.scripts import script_theorem_main
from ordercert.plane import verify_mirrored_relations
from ordercert.skew import (
    compute_epsilon,
    epsilon_offsets,
    standard_generators,
    verify_relations,
    word_to_element,
)

from mutation_tools import assert_all_rejected, run_suite
from util import random_cocycle, random_plmap, random_rational, random_skew_word

PASS_LINE = "[PASS] {}"


def _passed(name):
    print(PASS_LINE.format(name))


def test_relation_suite(tmp_path, capsys):
    start = time.perf_counter()
    rows = verify_relations() + verify_mirrored_relations()
    assert all(holds is True for _, _, holds in rows)
    exit_code = main(["verify", "--no-timestamp", "--out", str(tmp_path / "rel.json")])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert exit_code == 0
    assert elapsed < 1.0, f"relation suite took {elapsed:.2f}s"
    with capsys.disabled():
        _passed(f"relation suite: all identities exact, verify exit 0 in {elapsed:.2f}s")


def test_epsilon_computation():
    start = time.perf_counter()
    gens = standard_generators()
    a, b, c, d = (gens[k] for k in "abcd")
    eps = compute_epsilon(gens)
    assert eps == b.power(-36)

    offsets = epsilon_offsets(gens)
    assert offsets == [3, -1, -2, -3, -2, -1]
    assert sum(offsets) == -6

    assert c.conjugate(d).breakpoint_xs() == {0, F(1, 6), F(1, 2), F(5, 6)}

    sixth_lattice = lambda xs: all((6 * x).denominator == 1 for x in xs)
    assert sixth_lattice(eps.breakpoint_xs())
    for k in range(6):
        g = c.conjugate(d.compose(a.power(k)))
        assert sixth_lattice(g.breakpoint_xs())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"epsilon computation took {elapsed:.2f}s"
    _passed(f"epsilon: equals b^-36 exactly, offsets (3,-1,-2,-3,-2,-1), in {elapsed:.2f}s")


def test_theorem_certificate(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "theorem.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 0
    assert main(["check-cert", str(out)]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 10.0, f"prove + re-check took {elapsed:.2f}s"
    with capsys.disabled():
        _passed(f"theorem certificate: prove and disk re-check exit 0 in {elapsed:.2f}s")


def test_mutation_suite():
    derivation = script_theorem_main()
    results = run_suite(derivation, per_kind=11)
    assert len(results) >= 96
    assert_all_rejected(derivation, results)
    _passed(f"mutation suite: {len(results)}/{len(results)} single-token mutations rejected "
            "deterministically, each at its own site")


def test_oracle_equivalence():
    rng = random.Random(20260810)
    gens = standard_generators()
    signed = {s: {1: gens[s], -1: gens[s].invert()} for s in "abcd"}
    points = [
        (random_rational(rng, max_den=12, bound=2), random_rational(rng, max_den=12, bound=2))
        for _ in range(100)
    ]
    words = 1000
    for _ in range(words):
        word = random_skew_word(rng, max_len=12)
        composed = word_to_element(word, gens)
        letter_elements = []
        for sym, exp in word:
            letter_elements.extend([signed[sym][1 if exp > 0 else -1]] * abs(exp))
        for p in points:
            q = p
            for g in letter_elements:
                q = g.apply(q)
            assert composed.apply(p) == q
    _passed(f"oracle equivalence: {words} words x {len(points)} points, composed == stepwise exactly")


def test_soundness_sanity():
    # rule soundness against the lexicographically ordered lattice
    import test_soundness as snd

    snd.test_invert_sound(n=2000)
    snd.test_product_sound(n=2000)
    snd.test_conjugate_window_sound(n=2000)
    snd.test_flip_bound_sound(n=1000)
    snd.test_structural_rules_sound(n=1500)
    snd.test_contradiction_rules_unreachable_on_true_premises(n=750)
    snd.test_case_splits_cover_exactly_one_branch(n=750)
    _passed("soundness sanity: 10000+ true rule instances")


def test_algebra_property_suite():
    cases = 1000
    rng = random.Random(77)
    for _ in range(cases):
        f, g, h = random_plmap(rng), random_plmap(rng), random_plmap(rng)
        x = random_rational(rng)
        assert f.compose(g)(x) == g(f(x))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    rng = random.Random(78)
    for _ in range(cases):
        f = random_plmap(rng)
        assert f.compose(f.invert()) == PLMap.identity()

    rng = random.Random(79)
    for _ in range(cases):
        f, p = random_plmap(rng), random_cocycle(rng)
        x = random_rational(rng)
        assert f(x + 1) == f(x) + 1
        assert p(x + 1) == p(x)

    rng = random.Random(80)
    for _ in range(cases):
        f, p = random_plmap(rng), random_cocycle(rng)
        assert PLMap.from_points(f.breakpoints()) == f
        assert PLCocycle.from_points(p.breakpoints()) == p

    rng = random.Random(81)
    for _ in range(cases):
        f, p = random_plmap(rng), random_cocycle(rng)
        x = random_rational(rng)
        assert p.pullback(f)(x) == p(f(x))
    _passed(f"algebra properties: 5 laws x {cases} random cases, all exact")

"""Every single-token mutation of the shipped scripts must be rejected."""

from ordercert.orderlogic import check_derivation, script_lemma_gen, script_theorem_main

from mutation_tools import generate_mutations

STEP_FAMILIES = ("flip-conclusion", "bump-param-", "bump-conclusion-word", "drop-fact")


def _run_suite(derivation, per_kind):
    baseline = check_derivation(derivation)
    assert baseline.is_valid
    results = []
    for label, mutant in generate_mutations(derivation, per_kind=per_kind):
        first = check_derivation(mutant)
        second = check_derivation(mutant)
        results.append((label, first, second))
    return results


def _assert_all_rejected(results):
    for label, first, second in results:
        assert not first.is_valid, f"mutation survived: {label}"
        assert first == second, f"nondeterministic report: {label}"
        assert first.step_id, f"no failing step reported: {label}"
        # a step mutant rejected elsewhere in the tree would not show that
        # the mutation itself is caught
        family, site = label.split(":", 1)
        if family.startswith(STEP_FAMILIES):
            assert first.step_id == site, f"{label} rejected at {first.step_id}"


def test_lemma_mutations_all_rejected():
    results = _run_suite(script_lemma_gen(), per_kind=4)
    assert len(results) >= 15
    _assert_all_rejected(results)


def test_theorem_mutations_all_rejected():
    results = _run_suite(script_theorem_main(), per_kind=5)
    assert len(results) >= 40
    _assert_all_rejected(results)


def test_mutation_labels_are_distinct_and_deterministic():
    derivation = script_lemma_gen()
    labels1 = [label for label, _ in generate_mutations(derivation, per_kind=4)]
    labels2 = [label for label, _ in generate_mutations(script_lemma_gen(), per_kind=4)]
    assert labels1 == labels2
    assert len(labels1) == len(set(labels1))

"""Every single-token mutation of the shipped derivation must be rejected."""

from ordercert.orderlogic.derivation import check_derivation
from ordercert.orderlogic.scripts import script_theorem_main

from mutation_tools import generate_mutations

STEP_FAMILIES = ("flip-conclusion", "bump-param-", "bump-conclusion-word", "drop-fact")


def _run_suite(derivation, per_kind, at=()):
    baseline = check_derivation(derivation)
    assert baseline.is_valid
    results = []
    for label, mutant in generate_mutations(derivation, per_kind=per_kind, at=at):
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


def _first_branch_path(node, name, path=()):
    for index, branch in enumerate(node.split.branches if node.split else ()):
        if branch.name == name:
            return path + (index,)
        found = _first_branch_path(branch.node, name, path + (index,))
        if found:
            return found
    return None


def test_lemma_mutations_all_rejected():
    # the product-bound lemma lives on inside the theorem as the |a| < |b|
    # case; mutants drawn from that subtree alone are still each caught
    derivation = script_theorem_main()
    at = _first_branch_path(derivation.root, "mag_a_below_mag_b")
    assert at is not None
    results = _run_suite(derivation, per_kind=4, at=at)
    assert len(results) >= 15
    _assert_all_rejected(results)


def test_theorem_mutations_all_rejected():
    results = _run_suite(script_theorem_main(), per_kind=11)
    assert len(results) >= 96
    _assert_all_rejected(results)


def test_mutation_labels_are_distinct_and_deterministic():
    derivation = script_theorem_main()
    labels1 = [label for label, _ in generate_mutations(derivation, per_kind=11)]
    labels2 = [label for label, _ in generate_mutations(script_theorem_main(), per_kind=11)]
    assert labels1 == labels2
    assert len(labels1) == len(set(labels1))

"""Every single-token mutation of the shipped derivation must be rejected.

The run over the whole theorem is `test_acceptance::test_mutation_suite`.
"""

from ordercert.orderlogic.scripts import script_theorem_main

from mutation_tools import assert_all_rejected, generate_mutations, run_suite


def _first_branch_path(node, name, path=()):
    for index, branch in enumerate(node.split.branches if node.split else ()):
        if branch.name == name:
            return path + (index,)
        found = _first_branch_path(branch.node, name, path + (index,))
        if found:
            return found
    return None


def test_mag_a_below_mag_b_subtree_mutations_all_rejected():
    # mutants drawn from the first |a| < |b| case alone, the product bound
    # over b, are each caught at their own site
    derivation = script_theorem_main()
    at = _first_branch_path(derivation.root, "mag_a_below_mag_b")
    assert at is not None
    results = run_suite(derivation, per_kind=4, at=at)
    assert len(results) >= 15
    assert_all_rejected(derivation, results)


def test_mutation_labels_are_distinct_and_deterministic():
    derivation = script_theorem_main()
    labels1 = [label for label, _ in generate_mutations(derivation, per_kind=11)]
    labels2 = [label for label, _ in generate_mutations(script_theorem_main(), per_kind=11)]
    assert labels1 == labels2
    assert len(labels1) == len(set(labels1))

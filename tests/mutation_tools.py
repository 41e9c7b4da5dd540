"""Deterministic single-token mutations of derivation trees.

Four families, mirroring the ways a hand-edited certificate can go wrong:
flip one inequality's sides, nudge one integer exponent, drop one cited
side-condition fact, drop one case-split branch.  Every generated mutant
must be rejected by the checker, at the site it mutated.  The trees are
immutable, so each mutant copies only the nodes on the path to its mutation
and shares the rest, the verified atom table included, with the original.
"""

from __future__ import annotations

from ordercert.orderlogic.derivation import Derivation, Node, check_derivation
from ordercert.orderlogic.words import Less

INT_PARAMS = ("m", "n", "n1", "n2", "pos")


def _node_at(node: Node, path) -> Node:
    for index in path:
        node = node.split.branches[index].node
    return node


def _walk(node: Node, path=()):
    yield path, node
    if node.split:
        for index, branch in enumerate(node.split.branches):
            yield from _walk(branch.node, path + (index,))


def _with_node(node: Node, path, change) -> Node:
    """``node`` with the node at ``path`` replaced by ``change(that node)``."""
    if not path:
        return change(node)
    index, rest = path[0], path[1:]
    branches = node.split.branches
    branch = branches[index]
    branch = branch._replace(node=_with_node(branch.node, rest, change))
    branches = branches[:index] + (branch,) + branches[index + 1:]
    return node._replace(split=node.split._replace(branches=branches))


def _mutant(derivation: Derivation, path, change) -> Derivation:
    return derivation._replace(root=_with_node(derivation.root, path, change))


def _step_sites(derivation: Derivation, at=()):
    for path, node in _walk(_node_at(derivation.root, at), at):
        for index, step in enumerate(node.steps):
            yield path, index, step


def _replace_step(derivation: Derivation, path, index, **changes) -> Derivation:
    def change(node: Node) -> Node:
        step = node.steps[index]._replace(**changes)
        return node._replace(steps=node.steps[:index] + (step,) + node.steps[index + 1:])

    return _mutant(derivation, path, change)


def _drop_branch(derivation: Derivation, path, drop) -> Derivation:
    def change(node: Node) -> Node:
        branches = node.split.branches[:drop] + node.split.branches[drop + 1:]
        return node._replace(split=node.split._replace(branches=branches))

    return _mutant(derivation, path, change)


def _flip_hypothesis(derivation: Derivation, path, bi, hi) -> Derivation:
    def change(node: Node) -> Node:
        branch = node.split.branches[bi]
        hyp = branch.hypotheses[hi]
        flipped = hyp._replace(judgment=Less(hyp.judgment.rhs, hyp.judgment.lhs))
        hypotheses = branch.hypotheses[:hi] + (flipped,) + branch.hypotheses[hi + 1:]
        branches = list(node.split.branches)
        branches[bi] = branch._replace(hypotheses=hypotheses)
        return node._replace(split=node.split._replace(branches=tuple(branches)))

    return _mutant(derivation, path, change)


def generate_mutations(derivation: Derivation, per_kind: int = 8, at=()):
    """Yield (label, mutant) pairs; deterministic order and content.  Only
    the subtree under the branch path ``at`` is mutated."""
    sites = list(_step_sites(derivation, at))

    flippable = [(p, i, s) for p, i, s in sites if isinstance(s.conclusion, Less)]
    stride = max(1, len(flippable) // per_kind)
    for path, index, step in flippable[::stride][:per_kind]:
        flipped = Less(step.conclusion.rhs, step.conclusion.lhs)
        yield (f"flip-conclusion:{step.id}",
               _replace_step(derivation, path, index, conclusion=flipped))

    int_sites = [
        (p, i, s, key)
        for p, i, s in sites
        for key in INT_PARAMS
        if key in s.params
    ]
    stride = max(1, len(int_sites) // per_kind)
    for path, index, step, key in int_sites[::stride][:per_kind]:
        params = dict(step.params)
        params[key] = params[key] + 1
        yield (f"bump-param-{key}:{step.id}",
               _replace_step(derivation, path, index, params=params))

    word_sites = [
        (p, i, s)
        for p, i, s in sites
        if isinstance(s.conclusion, Less) and s.conclusion.rhs
    ]
    stride = max(1, len(word_sites) // per_kind)
    for path, index, step in word_sites[::stride][:per_kind]:
        sym, exp = step.conclusion.rhs[-1]
        bumped = step.conclusion.rhs[:-1] + ((sym, exp + 1),)
        yield (f"bump-conclusion-word:{step.id}",
               _replace_step(derivation, path, index,
                             conclusion=Less(step.conclusion.lhs, bumped)))

    fact_sites = [(p, i, s) for p, i, s in sites if s.facts]
    stride = max(1, len(fact_sites) // per_kind)
    for path, index, step in fact_sites[::stride][:per_kind]:
        yield (f"drop-fact:{step.id}",
               _replace_step(derivation, path, index, facts=step.facts[1:]))

    for path, node in _walk(_node_at(derivation.root, at), at):
        if node.split:
            for drop in range(len(node.split.branches)):
                yield (f"drop-branch:{'.'.join(map(str, path))}:{drop}",
                       _drop_branch(derivation, path, drop))

    hyp_sites = []
    for path, node in _walk(_node_at(derivation.root, at), at):
        if node.split:
            for bi, branch in enumerate(node.split.branches):
                for hi, hyp in enumerate(branch.hypotheses):
                    if isinstance(hyp.judgment, Less):
                        hyp_sites.append((path, bi, hi, hyp))
    stride = max(1, len(hyp_sites) // per_kind)
    for path, bi, hi, hyp in hyp_sites[::stride][:per_kind]:
        yield (f"flip-hypothesis:{hyp.id}", _flip_hypothesis(derivation, path, bi, hi))


def _branch_names(derivation: Derivation, path) -> str:
    """The names of the branches on the index ``path``, joined as a verdict's path."""
    names, node = [], derivation.root
    for index in path:
        branch = node.split.branches[index]
        names.append(branch.name)
        node = branch.node
    return "/".join(names)


def rejection_site(derivation: Derivation, label: str):
    """The (step id, branch path) at which the mutant ``label`` of ``derivation``
    must be rejected: its mutated step, or the split whose branches it mutated."""
    family, site = label.split(":", 1)
    if family == "drop-branch":
        path = tuple(int(i) for i in site.rsplit(":", 1)[0].split(".") if i)
        return f"split:{_node_at(derivation.root, path).split.kind}", _branch_names(derivation, path)
    for path, node in _walk(derivation.root):
        if family == "flip-hypothesis":
            branches = node.split.branches if node.split else ()
            if any(hyp.id == site for branch in branches for hyp in branch.hypotheses):
                return f"split:{node.split.kind}", _branch_names(derivation, path)
        elif any(step.id == site for step in node.steps):
            return site, _branch_names(derivation, path)
    raise ValueError(f"no site for {label}")


def run_suite(derivation: Derivation, per_kind: int, at=()):
    """(label, verdict, verdict of a second check) for each mutant of a valid ``derivation``."""
    assert check_derivation(derivation).is_valid
    return [(label, check_derivation(mutant), check_derivation(mutant))
            for label, mutant in generate_mutations(derivation, per_kind=per_kind, at=at)]


def assert_all_rejected(derivation: Derivation, results):
    for label, first, second in results:
        assert not first.is_valid, f"mutation survived: {label}"
        assert first == second, f"nondeterministic report: {label}"
        # a mutant rejected elsewhere in the tree would not show that the
        # mutation itself is caught
        site = (first.step_id, first.path)
        assert site == rejection_site(derivation, label), f"{label} rejected at {site}"

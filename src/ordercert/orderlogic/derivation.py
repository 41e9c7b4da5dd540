"""Derivation trees and the checker that validates them step by step.

A derivation is a tree of nodes.  Each node carries a list of steps (rule
applications whose premises are earlier steps or enclosing hypotheses) and
optionally ends in a case split whose branches are sub-nodes.  A branch
introduces the hypotheses of one case of its split; a leaf is valid exactly
when a contradiction is in scope.  Every split is exhaustive and no split
assumes anything, so a valid tree refutes the order outright.

Split kinds:

  trichotomy(w1, w2)       -- branches w1 < w2 | w1 = w2 | w2 < w1
  window(v, t, n1, n2)     -- from t^n1 < v < t^n2 and 1 < t, branches
                              t^n0 < v < t^(n0+1) for n0 in [n1, n2-1] and
                              v = t^n0 for n0 in (n1, n2); the premise ids
                              must be cited on the split

``trichotomy_cases`` and ``window_cases`` state these cases once: the checker
compares each branch with them, and the prover builds its branches from them.

Checking is deterministic: it checks the goal, then reports the first failing
step in tree order with the path of branch names from the root to its node.
Facts are consulted through the derivation's :class:`AtomTable`, which
decides each fact in the exact algebra when a step first cites it: a cited
fact that is refuted makes the derivation ``invalid``, one that is undecided
or unknown ``unknown_facts``.
"""

from __future__ import annotations

from ..exactpl import Record
from ..wordsyntax import clip
from .facts import AtomTable
from .rules import (RuleError, apply_rule, check_params, read_base, read_int, read_word,
                    window_premises)
from .words import CONTRADICTION, Less, Word, WordEq, t_pow

CONTRADICTION_GOAL = "contradiction"


class Step(Record):
    __slots__ = ("id", "rule", "params", "premises", "facts", "conclusion")


class Hypothesis(Record):
    __slots__ = ("id", "judgment")


class Branch(Record):
    __slots__ = ("name", "hypotheses", "node", "goal")
    _defaults = (None,)  # a version-1 certificate writes null; any other goal is refused


class Split(Record):
    __slots__ = ("kind", "params", "premises", "branches")  # kind: trichotomy | window


class Node(Record):
    __slots__ = ("steps", "split")
    _defaults = ((), None)


class Derivation(Record):
    __slots__ = ("name", "table", "goal", "root")  # goal: CONTRADICTION_GOAL in a valid statement

    def _nodes(self):
        """Every node of the tree, each before its branches' nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.split:
                stack.extend(br.node for br in node.split.branches)

    def count_steps(self) -> int:
        return sum(len(node.steps) for node in self._nodes())

    def count_branches(self) -> int:
        """The leaves: nodes that end in no split."""
        return sum(not node.split for node in self._nodes())


VALID = "valid"
INVALID = "invalid"
UNKNOWN_FACTS = "unknown_facts"


class Verdict(Record):
    __slots__ = ("status", "step_id", "reason", "path")  # path: branch names from the root, "/"-joined
    _defaults = ("", "", "")

    @property
    def is_valid(self) -> bool:
        return self.status == VALID

    def __str__(self):
        if self.is_valid:
            return "valid"
        where = f"{self.step_id} in {self.path}" if self.path else self.step_id
        return f"{self.status} at {where}: {self.reason}"


class _Failure(Exception):
    def __init__(self, status, step_id, reason):
        super().__init__(status, step_id, reason)
        self.names = []  # each branch it unwinds through, innermost first


def _fail(step_id, reason):
    raise _Failure(INVALID, step_id, reason)


def trichotomy_cases(w1: Word, w2: Word):
    """The canonical hypotheses of each branch of trichotomy(w1, w2), in order."""
    return (Less(w1, w2),), (WordEq(w1, w2),), (Less(w2, w1),)


def window_cases(v: Word, t, n1: int, n2: int):
    """The canonical hypotheses of each branch of window(v, t, n1, n2), in
    order, built one at a time as they are compared."""
    for n0 in range(n1, n2):
        yield Less(t_pow(t, n0), v), Less(v, t_pow(t, n0 + 1))
    for n0 in range(n1 + 1, n2):
        yield (WordEq(v, t_pow(t, n0)),)


def check_derivation(derivation: Derivation) -> Verdict:
    """Validate the goal, then every step, split, and leaf; deterministic first failure.
    Atoms are plane words, so a contradiction under no assumption refutes any left order."""
    try:
        if derivation.goal != CONTRADICTION_GOAL:
            _fail("<goal>", "statement mismatch: the goal is not 'contradiction'")
        _check_node(derivation.root, {}, derivation.table)
    except _Failure as failure:
        # untrusted names, and the path they make, are quoted by a prefix as in every reason
        status, step_id, reason = failure.args
        path = clip("/".join(map(clip, reversed(failure.names))))
        return Verdict(status, clip(step_id), reason, path)
    return Verdict(VALID)


def _lookup_facts(step: Step, table: AtomTable):
    cited = []
    for fid in step.facts:
        fact = table.facts.get(fid)
        if fact is None:
            raise _Failure(UNKNOWN_FACTS, step.id, f"unknown fact {clip(fid)!r}")
        outcome = table.outcome(fid)
        if outcome is False:
            raise _Failure(INVALID, step.id,
                           f"fact {clip(fid)!r}: statement is false in the realization")
        if outcome is None:
            raise _Failure(UNKNOWN_FACTS, step.id,
                           f"fact {clip(fid)!r}: algebra could not decide the statement")
        cited.append(fact)
    return cited


def _check_node(node: Node, env: dict, table: AtomTable):
    """Check ``node`` in scope ``env``: a fresh dict this call owns and extends."""
    for step in node.steps:
        if step.id in env:
            _fail(step.id, "duplicate judgment id")
        premises = []
        for pid in step.premises:
            if pid not in env:
                _fail(step.id, f"premise {clip(pid)!r} is not in scope")
            premises.append(env[pid])
        cited = _lookup_facts(step, table)
        try:
            conclusion = apply_rule(step.rule, step.params, premises, cited, table.conclusions)
        except RuleError as exc:
            _fail(step.id, str(exc))
        if conclusion != step.conclusion:
            _fail(step.id, f"stated conclusion differs from the rule's ('{conclusion}')")
        env[step.id] = conclusion

    if node.split is None:
        if not any(j is CONTRADICTION for j in env.values()):
            _fail("<leaf>", "branch does not derive a contradiction")
        return

    split = node.split
    split_id = f"split:{split.kind}"
    if not split.branches:
        _fail(split_id, "case split with no branches")

    if split.kind == "trichotomy":
        _check_cases(split, *_trichotomy_cases(split))
    elif split.kind == "window":
        _check_cases(split, *_window_cases(split, env))
    else:
        _fail(split_id, f"unknown split kind {clip(split.kind)!r}")

    for branch in split.branches:
        if branch.goal is not None:
            _fail(split_id, f"branch {clip(branch.name)!r} declares a goal")
        branch_env = dict(env)
        for hyp in branch.hypotheses:
            if hyp.id in branch_env:
                _fail(hyp.id, "duplicate judgment id")
            branch_env[hyp.id] = hyp.judgment
        try:
            _check_node(branch.node, branch_env, table)
        except _Failure as failure:
            failure.names.append(branch.name)
            raise


def _check_cases(split: Split, what: str, count: int, cases):
    """The split must have ``count`` branches, each with the hypotheses of the
    canonical case at its position; ``what`` names the split in the
    branch-count reason.  The count is checked first, so ``cases`` may be
    built lazily."""
    split_id = f"split:{split.kind}"
    if len(split.branches) != count:
        _fail(split_id, f"{what} needs {count} branches, got {len(split.branches)}")
    for branch, hyps in zip(split.branches, cases):
        got = tuple(h.judgment for h in branch.hypotheses)
        if got != hyps:
            _fail(
                split_id,
                f"branch {clip(branch.name)!r} hypotheses are not the canonical case "
                f"({' & '.join(str(h) for h in hyps)})",
            )


def _trichotomy_cases(split: Split):
    try:
        check_params(split.params, {"w1", "w2"}, "split", "trichotomy")
        w1, w2 = read_word(split.params, "w1"), read_word(split.params, "w2")
    except RuleError as exc:
        _fail("split:trichotomy", str(exc))
    return "trichotomy", 3, trichotomy_cases(w1, w2)


def _window_cases(split: Split, env: dict):
    """Check the window's parameters and cited premises; return its name,
    its number of cases and the cases."""
    split_id = "split:window"
    try:
        check_params(split.params, {"v", "t", "n1", "n2"}, "split", "window")
        v, t = read_word(split.params, "v"), read_base(split.params)
        n1, n2 = read_int(split.params, "n1"), read_int(split.params, "n2")
    except RuleError as exc:
        _fail(split_id, str(exc))
    if n1 >= n2:
        _fail(split_id, "window needs n1 < n2")
    if len(split.premises) != 3:
        _fail(split_id, "window split cites three premises (both bounds and 1 < t)")
    for pid, expected in zip(split.premises, window_premises(v, t, n1, n2)):
        if pid not in env:
            _fail(split_id, f"premise {clip(pid)!r} is not in scope")
        if env[pid] != expected:
            _fail(split_id, f"premise {clip(pid)!r} must be '{expected}' (got '{env[pid]}')")
    return f"window over [{n1}, {n2}]", 2 * (n2 - n1) - 1, window_cases(v, t, n1, n2)

"""The three benchmark workloads.

Each workload is a closed loop with one client: ``cycle`` runs one operation
of each of its four kinds in a fixed order, checks every output, and returns
one ``Outcome`` per operation.  The four kinds fill the end-to-end slots
``op1_s`` .. ``op4_s`` in that order.  ``ordercert`` is imported only in
``setup``, so the benchmark can time set-up in a fresh process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import traceback
from dataclasses import dataclass
from time import perf_counter

import speed
from inputs import NON_COMMUTING, PAIR_CLASSES, TRUTH, plane_pair, random_point, skew_word

# SHA-256 of `ordercert prove --no-timestamp` output.  Certificates are
# canonical JSON, so any byte change -- intended or not -- shows here.
THEOREM_CERT_SHA256 = "fd16d403f7717b5594f7490180459681f6b531e4a7958c03c316ac0d9292ae9d"

# Word lengths are stratified, not drawn.  Every algebra operation covers
# one word of each length 1-12, and every equality operation one pair of
# each length 2-8 (distinct_swap: one pair of each of the nine non-commuting
# letter pairs, lengths in turn), so the work in an operation hardly depends
# on the seed; a single word or pair would have a lumpy, seed-dependent
# distribution whose median and tail jump between runs.
SKEW_LENGTHS = range(1, 13)
BATCHES_PER_CYCLE = 5
PLANE_LENGTHS = range(2, 9)
POINTS_PER_WORD = 128
STEPWISE_CHECK_EVERY = 8  # one word in 8 has one of its points re-checked stepwise
SWEEP = (1, 2, 4, 8, 16, 32, 64, 128, 256)

# Smaller than the library default (max_denominator 24, 65,953 grid points,
# 10-20 s for an undecided pair): 225 grid points plus 16 random ones, so an
# exhausted search takes about 0.04 s and a run holds hundreds of them.
WITNESS_CONFIG = dict(max_denominator=3, coord_bound=2, random_count=16,
                      random_max_denominator=1000, seed=7302016)
EQUAL_CHECK_POINTS = 2


@dataclass
class Outcome:
    slot: int  # 0..3, the position of the operation kind in the cycle
    raw: float  # seconds
    kernel: float  # mean seconds of the calibration kernel runs around it
    ok: bool
    reason: str = ""

    @property
    def seconds(self) -> float:
        """Scaled seconds (see speed.py)."""
        return self.raw * speed.REFERENCE_S / self.kernel


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


# -- cert --------------------------------------------------------------------

def _all_steps(node, out):
    out.extend(node["steps"])
    if node.get("split"):
        for branch in node["split"]["branches"]:
            _all_steps(branch["node"], out)
    return out


def mutate_conclusion(cert_bytes: bytes, rng: random.Random) -> tuple[bytes, str]:
    """Alter the stated conclusion of one seeded step; return the mutant and
    the step id the checker must name."""
    cert = json.loads(cert_bytes)
    steps = _all_steps(cert["payload"]["root"], [])
    step = steps[rng.randrange(len(steps))]
    concl = step["conclusion"]
    if "less" in concl and concl["less"][0] != concl["less"][1]:
        step["conclusion"] = {"less": [concl["less"][1], concl["less"][0]]}
    elif "less" in concl:
        step["conclusion"] = {"eq": concl["less"]}
    elif "eq" in concl:
        step["conclusion"] = {"less": concl["eq"]}
    else:
        step["conclusion"] = {"less": [[], []]}
    return _canonical(cert), step["id"]


def run_cli(argv, root_name: str, trace: bool):
    """Run ``cli.main(argv)`` in a forked child and time it there.

    The fork is taken after ``import ordercert.cli`` and before any library
    call, so every command pays every cache fill, as a user's does.  Returns
    (exit code or "crash", seconds, kernel seconds, output, child trace
    export or None).
    """
    from ordercert import cli

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            os.close(read_end)
            tracer = None
            if trace:
                import tracer as tracer_mod

                tracer = tracer_mod.Tracer()
                tracer_mod.install(tracer)
            out, err = io.StringIO(), io.StringIO()
            calibration = speed.Calibration()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                frame = tracer.begin() if tracer else None
                t0 = perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a crash is an outcome to report, not to die of
                    code = "crash"
                    err.write(traceback.format_exc())
                seconds = perf_counter() - t0
                if tracer:
                    tracer.end(frame, root_name)
            kernel = calibration.next()
            payload = pickle.dumps((code, seconds, kernel, out.getvalue(),
                                    err.getvalue()[-2000:], tracer.export() if tracer else None))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, wait_status = os.waitpid(pid, 0)
    if not data or os.waitstatus_to_exitcode(wait_status) != 0:
        return "crash", 0.0, speed.REFERENCE_S, "", None
    code, seconds, kernel, stdout, stderr, trace_data = pickle.loads(data)
    return code, seconds, kernel, stdout + stderr, trace_data


class CertWorkload:
    name = "cert"
    why = ("the product: cold verify, prove and check-cert as a user runs them; the only "
           "workload that loads orderlogic (facts, checker) and certs (a 239 KB write and read)")
    kinds = ("verify_s", "prove_s", "check_cert_s", "reject_s")
    roots = ("cli.verify", "cli.prove", "cli.check_cert", "cli.reject")
    traces_in_children = True  # each forked command wraps the layers itself

    def __init__(self, work_dir: str):
        self.work = work_dir
        self.tamper = None  # tests may set a function(path) run before check-cert
        self.mutated_steps = set()

    def setup(self, seed: int) -> None:
        import ordercert.cli  # noqa: F401  (children fork after this import)

        os.makedirs(self.work, exist_ok=True)
        self.rng = random.Random(seed)
        self.relations = os.path.join(self.work, "relations.cert.json")
        self.cert = os.path.join(self.work, "theorem.cert.json")
        self.mutant = os.path.join(self.work, "mutant.cert.json")

    def cycle(self, tracer) -> list[Outcome]:
        outcomes = []

        def run(slot, argv, check):
            code, seconds, kernel, output, trace_data = run_cli(
                argv, self.roots[slot], tracer is not None)
            if tracer is not None and trace_data is not None:
                tracer.merge(trace_data, tracer.op)
                tracer.op += 1
            reason = check(code, output)
            outcomes.append(Outcome(slot, seconds, kernel, not reason, reason or ""))

        def check_verify(code, output):
            if code != 0 or "total: all identities hold" not in output:
                return f"verify exited {code}"
            with open(self.relations, "rb") as handle:
                payload = json.load(handle)["payload"]
            if not payload["all_hold"] or not all(f["holds"] for f in payload["facts"]):
                return "a relation fact does not hold"
            return None

        def check_prove(code, output):
            if code != 0:
                return f"prove exited {code}"
            with open(self.cert, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            if digest != THEOREM_CERT_SHA256:
                return f"certificate bytes changed (sha256 {digest})"
            return None

        def expect(code_wanted, text):
            def check(code, output):
                if code != code_wanted or text not in output:
                    return f"check-cert exited {code}, wanted {code_wanted}: {output[-300:]!r}"
                return None
            return check

        run(0, ["verify", "--no-timestamp", "--out", self.relations], check_verify)
        for path in (self.cert, self.mutant):
            if os.path.exists(path):
                os.remove(path)
        run(1, ["prove", "--no-timestamp", "--out", self.cert], check_prove)
        if self.tamper is not None and os.path.exists(self.cert):
            self.tamper(self.cert)
        run(2, ["check-cert", self.cert], expect(0, ": valid"))
        step_id = ""
        try:
            with open(self.cert, "rb") as handle:
                mutant, step_id = mutate_conclusion(handle.read(), self.rng)
            with open(self.mutant, "wb") as handle:
                handle.write(mutant)
            self.mutated_steps.add(step_id)
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            pass  # no mutant: check-cert exits 3 on the missing file and the check fails
        run(3, ["check-cert", self.mutant], expect(1, f"invalid at {step_id}"))
        return outcomes

    def describe(self) -> list[str]:
        return [
            "commands per cycle: verify --no-timestamp, prove --no-timestamp, check-cert on "
            "the certificate just written, check-cert on a one-step mutant",
            f"mutants: one altered step conclusion, {len(self.mutated_steps)} distinct steps "
            "chosen by the seed",
        ]


# -- algebra -----------------------------------------------------------------

class AlgebraWorkload:
    name = "algebra"
    why = ("warm in-process composition in exactpl/skew: realize seeded skew words, evaluate "
           "them exactly, and a d^n / c^(d^n) sweep over breakpoint count and denominator size")
    kinds = ("words_s", "evals_s", "wide_power_s", "wide_conjugate_s")
    roots = ("op.words", "op.evals", "op.wide_power", "op.wide_conjugate")
    traces_in_children = False

    def __init__(self, work_dir: str):
        self.work = work_dir
        self.lengths: dict[int, int] = {}
        self.max_breakpoints = 0
        self.max_denominator_bits = 0

    def setup(self, seed: int) -> None:
        from ordercert import skew

        self.skew = skew
        self.gens = skew.standard_generators()
        self.rng = random.Random(seed)

    def _size(self, element) -> None:
        for pl in (element.x_part, element.shift):
            self.max_breakpoints = max(self.max_breakpoints, len(pl.xs))
            bits = max(q.denominator.bit_length() for q in pl.xs + pl.ys)
            self.max_denominator_bits = max(self.max_denominator_bits, bits)

    def cycle(self, tracer) -> list[Outcome]:
        skew, rng = self.skew, self.rng
        outcomes = []
        calibration = speed.Calibration()
        for _ in range(BATCHES_PER_CYCLE):
            words = [skew_word(rng, n) for n in SKEW_LENGTHS]
            points = [[random_point(rng) for _ in range(POINTS_PER_WORD)] for _ in words]
            checked = [rng.randrange(POINTS_PER_WORD) if rng.randrange(STEPWISE_CHECK_EVERY) == 0
                       else None for _ in words]
            for n in SKEW_LENGTHS:
                self.lengths[n] = self.lengths.get(n, 0) + 1
            elements, realize_s, error = _timed(
                tracer, self.roots[0], lambda: [skew.word_to_element(w) for w in words])
            if error is None:
                images, eval_s, failure = _timed(
                    tracer, self.roots[1],
                    lambda: [[e.apply(p) for p in pts] for e, pts in zip(elements, points)])
            else:
                eval_s, failure = 0.0, "words were not realized"
            kernel = calibration.next()
            outcomes.append(Outcome(0, realize_s, kernel, error is None, error or ""))
            if failure is None:
                for word, pts, at, imgs in zip(words, points, checked, images):
                    if at is not None and imgs[at] != skew.stepwise_apply(word, pts[at], self.gens):
                        failure = f"{word!r} at {pts[at]} disagrees with stepwise_apply"
            outcomes.append(Outcome(1, eval_s, kernel, failure is None, failure or ""))
        d, c = self.gens["d"], self.gens["c"]
        powers, seconds, error = _timed(tracer, self.roots[2],
                                        lambda: [d.power(n) for n in SWEEP])
        kernel = calibration.next()
        if error is None:
            bad = [n for n, p in zip(SWEEP, powers) if len(p.x_part.xs) != 2 * n]
            error = f"d^n without 2n breakpoints for n in {bad}" if bad else None
        outcomes.append(Outcome(2, seconds, kernel, error is None, error or ""))
        if error is not None:
            outcomes.append(Outcome(3, 0.0, kernel, False, "no powers to conjugate"))
            return outcomes
        conjugates, seconds, error = _timed(tracer, self.roots[3],
                                            lambda: [c.conjugate(p) for p in powers])
        kernel = calibration.next()
        if error is None:
            for element in powers + conjugates:
                self._size(element)
        outcomes.append(Outcome(3, seconds, kernel, error is None, error or ""))
        return outcomes

    def describe(self) -> list[str]:
        hist = " ".join(f"{n}:{self.lengths[n]}" for n in sorted(self.lengths))
        return [
            f"per operation {len(SKEW_LENGTHS)} words, one of each length "
            f"{SKEW_LENGTHS.start}-{SKEW_LENGTHS.stop - 1}, each evaluated at {POINTS_PER_WORD} "
            f"points; {BATCHES_PER_CYCLE} operations per cycle; one word in "
            f"{STEPWISE_CHECK_EVERY} has a point re-checked with skew.stepwise_apply",
            f"word-length histogram (letters:count) {hist}",
            f"sweep n = {', '.join(map(str, SWEEP))}; max breakpoints {self.max_breakpoints}, "
            f"max denominator bits {self.max_denominator_bits}",
        ]


# -- equality ----------------------------------------------------------------

class EqualityWorkload:
    name = "equality"
    why = ("evaluation-heavy plane equality decisions: simplification decides equal pairs, "
           "exact point evaluation finds witnesses or exhausts a bounded search")
    kinds = tuple(f"{kind}_batch_s" for kind in PAIR_CLASSES)
    roots = tuple(f"op.{kind}_batch" for kind in PAIR_CLASSES)
    traces_in_children = False
    batch_sizes = tuple(len(NON_COMMUTING) if kind == "distinct_swap" else len(PLANE_LENGTHS)
                        for kind in PAIR_CLASSES)

    def __init__(self, work_dir: str):
        self.work = work_dir
        self.verdicts = {kind: {} for kind in PAIR_CLASSES}
        self.pairs_made = {kind: 0 for kind in PAIR_CLASSES}

    def setup(self, seed: int) -> None:
        from ordercert import plane

        self.plane = plane
        self.config = plane.WitnessSearchConfig(**WITNESS_CONFIG)
        self.rng = random.Random(seed)

    def cycle(self, tracer) -> list[Outcome]:
        rng = self.rng
        outcomes = []
        calibration = speed.Calibration()
        for slot, kind in enumerate(PAIR_CLASSES):
            pairs = []
            for _ in range(self.batch_sizes[slot]):
                made = self.pairs_made[kind]
                pairs.append(plane_pair(rng, kind, PLANE_LENGTHS[made % len(PLANE_LENGTHS)], made))
                self.pairs_made[kind] = made + 1
            checks = [[random_point(rng) for _ in range(EQUAL_CHECK_POINTS)] for _ in pairs]
            verdicts, seconds, reason = _timed(
                tracer, self.roots[slot], lambda: [self._decide(u, v) for u, v in pairs])
            kernel = calibration.next()
            for (u, v), verdict, pts in zip(pairs, verdicts or [], checks):
                counts = self.verdicts[kind]
                counts[verdict.status] = counts.get(verdict.status, 0) + 1
                reason = reason or self._check(kind, u, v, verdict, pts)
            outcomes.append(Outcome(slot, seconds, kernel, not reason, reason or ""))
        return outcomes

    def _decide(self, u, v):
        plane = self.plane
        return plane.equal_or_unknown(plane.plane_word(u), plane.plane_word(v), self.config)

    def _check(self, kind, u, v, verdict, pts):
        stepwise = self.plane.stepwise_apply_plane
        truth = TRUTH[kind]
        if verdict.status == "distinct":
            if truth == "equal":
                return f"equal {kind} pair called distinct: {u!r} vs {v!r}"
            if stepwise(u, verdict.witness) == stepwise(v, verdict.witness):
                return f"witness {verdict.witness} does not separate {u!r} and {v!r}"
        elif verdict.status == "equal":
            if truth == "distinct":
                return f"distinct {kind} pair called equal: {u!r} vs {v!r}"
            for p in pts:
                if stepwise(u, p) != stepwise(v, p):
                    return f"equal pair differs at {p}: {u!r} vs {v!r}"
        return None

    def unknown_share(self) -> float:
        total = sum(sum(c.values()) for c in self.verdicts.values())
        unknown = sum(c.get("unknown", 0) for c in self.verdicts.values())
        return unknown / total if total else 0.0

    def describe(self) -> list[str]:
        per_class = "; ".join(
            f"{kind} " + " ".join(f"{s}={n}" for s, n in sorted(self.verdicts[kind].items()))
            for kind in PAIR_CLASSES
        )
        config = ", ".join(f"{k}={v}" for k, v in WITNESS_CONFIG.items())
        return [
            "pairs per operation: " + ", ".join(
                f"{k} {n}" for k, n in zip(PAIR_CLASSES, self.batch_sizes))
            + f"; base word lengths {PLANE_LENGTHS.start}-{PLANE_LENGTHS.stop - 1} in turn; "
            "one operation per class per cycle",
            f"verdicts by class: {per_class}",
            f"WitnessSearchConfig({config})",
        ]


def _timed(tracer, root_name, fn, *args):
    """Run one operation as a root span; return (result, seconds, error)."""
    frame = tracer.begin() if tracer else None
    error = None
    t0 = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # counted as a failed operation; the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if tracer:
        tracer.end(frame, root_name)
        tracer.op += 1
    return result, seconds, error


WORKLOADS = {w.name: w for w in (CertWorkload, AlgebraWorkload, EqualityWorkload)}

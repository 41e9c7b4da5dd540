"""ordercert benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload cert --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced cycles: the traced ones give the per-layer
metrics, and the difference between the two halves is the tracing overhead.
Lines starting with "#" are the human-readable report; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
from workloads import POINTS_PER_WORD, SKEW_LENGTHS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5  # set-up runs per run: four in fresh forked children, one for real

FACT_IDS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7a", "F7b", "F7c", "F7d", "F8",
            "M2", "M3", "M4", "M5", "M6", "M7c", "M7d")


def percentile_tail(samples):
    """The highest sample with at least ten samples beyond it, its percentile
    rank, and the sample count.  With fewer than 21 samples this would fall
    below the median, so the median is reported instead (rank 50)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    i = n - 11
    return ordered[i], 100.0 * (i + 1) / n, n


# -- set-up ------------------------------------------------------------------

def _timed_setup(name: str, seed: int):
    """Set up once; return the workload and the scaled set-up seconds."""
    workload = WORKLOADS[name](str(WORK))
    calibration = speed.Calibration()
    t0 = perf_counter()
    workload.setup(seed)
    seconds = perf_counter() - t0
    return workload, seconds * speed.REFERENCE_S / calibration.next()


def measure_setup(name: str, seed: int):
    """Set up SETUP_REPEATS - 1 times in forked children that have not yet
    imported ordercert, then once in this process; return the workload and
    every scaled set-up time."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                _, seconds = _timed_setup(name, seed)
                os.write(write_end, repr(seconds).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
        _, wait_status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(wait_status) != 0 or not data:
            raise RuntimeError("set-up failed in a child process")
        times.append(float(data))
    workload, seconds = _timed_setup(name, seed)
    times.append(seconds)
    return workload, times


def check_library_location() -> None:
    import ordercert

    where = Path(ordercert.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: ordercert was imported from {where}, not from {SRC}")


# -- the measured loop ---------------------------------------------------------

def run_loop(workload, seconds: float, trace: bool):
    """Run whole cycles until ``seconds`` have passed (at least one cycle, two
    when tracing).  Returns (untraced outcomes, traced outcomes, tracer,
    number of traced cycles)."""
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.op = 0
    plain, traced = [], []
    traced_cycles = 0
    start = perf_counter()
    cycle = 0
    while True:
        trace_this = trace and cycle % 2 == 1
        wrap_here = trace_this and not workload.traces_in_children
        if wrap_here:
            tracer_mod.install(tracer)
        try:
            outcomes = workload.cycle(tracer if trace_this else None)
        finally:
            if wrap_here:
                tracer.uninstall()
        (traced if trace_this else plain).append(outcomes)
        traced_cycles += trace_this
        cycle += 1
        if perf_counter() - start >= seconds and (not trace or traced_cycles):
            break
    return plain, traced, tracer, traced_cycles


def slot_samples(cycles, slot):
    return [o.seconds for outcomes in cycles for o in outcomes if o.slot == slot]


# -- metrics -------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(workload, cycles, setup_times):
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    for slot in range(4):
        samples = slot_samples(cycles, slot)
        metrics[f"op{slot + 1}_s"] = (statistics.median(samples), "s")
        metrics[f"op{slot + 1}_s.tail"] = (percentile_tail(samples)[0], "s")
    return metrics


def report_lines(workload, cycles, all_ops, setup_times, seconds):
    """Every metric of this workload by the name ROADMAP.md uses, with its
    unit, sample count and tail percentile.  Timings come from ``cycles``;
    failures are counted over ``all_ops``."""
    ops = [o for outcomes in cycles for o in outcomes]
    failed = [o for o in all_ops if not o.ok]
    lines = [f"workload {workload.name}: {workload.why}",
             f"{len(cycles)} cycles in {seconds:.1f} s, one client, closed loop"]
    for slot, kind in enumerate(workload.kinds):
        samples = slot_samples(cycles, slot)
        tail, rank, n = percentile_tail(samples)
        raw = statistics.median(o.raw for outcomes in cycles for o in outcomes if o.slot == slot)
        lines.append(f"op{slot + 1}_s = {kind}: median {statistics.median(samples):.6f} s, "
                     f"{kind}.tail (p{rank:.1f} of {n}) {tail:.6f} s; raw median {raw:.6f} s")
    if workload.name == "algebra":
        words = len(SKEW_LENGTHS)
        for slot, name, per_op in ((0, "words_per_s", words),
                                   (1, "evals_per_s", words * POINTS_PER_WORD)):
            samples = slot_samples(cycles, slot)
            lines.append(f"{name} = {per_op * len(samples) / sum(samples):.2f} 1/s")
        wide = [sum(o.seconds for o in outcomes if o.slot >= 2) for outcomes in cycles]
        lines.append(f"wide_s = {statistics.median(wide):.6f} s (median of {len(wide)} passes)")
    if workload.name == "equality":
        decisions = sum(workload.batch_sizes[o.slot] for o in ops)
        lines.append(f"decisions_per_s = {decisions / sum(o.seconds for o in ops):.2f} 1/s")
        lines.append(f"unknown_share = {workload.unknown_share():.4f} ratio")
    lines.append(f"setup_s = {statistics.median(setup_times):.6f} s "
                 f"(median of {len(setup_times)}: {', '.join(f'{t:.4f}' for t in setup_times)})")
    lines.append(f"peak_rss_mb = {peak_rss_mb():.3f} MB")
    kernels = [o.kernel for o in ops]
    lines.append(f"calibration kernel: median {statistics.median(kernels) * 1e3:.3f} ms, "
                 f"range {min(kernels) * 1e3:.3f}-{max(kernels) * 1e3:.3f} ms "
                 f"(scaled seconds assume {speed.REFERENCE_S * 1e3:.3f} ms)")
    lines.append(f"failed_share = {len(failed) / len(all_ops):.4f} ratio "
                 f"({len(failed)} of {len(all_ops)})")
    for o in failed[:5]:
        lines.append(f"failed: {workload.kinds[o.slot]}: {o.reason}")
    lines.extend(workload.describe())
    return lines


def per_layer(plain, traced, tracer, traced_cycles):
    """Per-layer metrics from the traced cycles.  ``.calls`` and counters are
    per cycle, ``.self_s`` is mean self seconds per call."""
    agg, counters = tracer.agg, tracer.counters
    metrics = {}

    def calls_and_self(name):
        calls, self_s, _ = agg.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / traced_cycles, "1/cycle")
        metrics[f"{name}.self_s"] = (self_s / calls if calls else 0.0, "s")

    def per_cycle(name, unit="1/cycle"):
        metrics[name] = (counters.get(name, 0) / traced_cycles, unit)

    for op in ("compose", "invert", "pullback", "add", "negate", "from_points", "eval"):
        calls_and_self(f"exactpl.{op}")
    metrics["exactpl.breakpoints.max"] = (counters.get("exactpl.breakpoints.max", 0), "count")
    metrics["exactpl.denominator_bits.max"] = (
        counters.get("exactpl.denominator_bits.max", 0), "bit")
    for op in ("compose", "invert", "power", "conjugate", "apply", "word_to_element",
               "verify_relations"):
        calls_and_self(f"skew.{op}")
    calls_and_self("plane.word")
    per_cycle("plane.letters_in")
    per_cycle("plane.letters_out")
    calls_and_self("plane.apply")
    calls_and_self("plane.equal_or_unknown")
    calls_and_self("plane.verify_mirrored_relations")
    per_cycle("plane.points_tried")
    points = counters.get("plane.points_tried", 0)
    metrics["plane.decided_per_point"] = (
        counters.get("plane.decided_by_search", 0) / points if points else 0.0, "ratio")
    for status in ("equal", "distinct", "unknown"):
        per_cycle(f"plane.verdict.{status}")
    calls_and_self("orderlogic.verify_all")
    for fid in FACT_IDS:
        calls, _, total = agg.get(f"orderlogic.verify_fact.{fid}", (0, 0.0, 0.0))
        metrics[f"orderlogic.verify_fact.s.{fid}"] = (total / calls if calls else 0.0, "s")
    calls_and_self("orderlogic.script_theorem_main")
    calls_and_self("orderlogic.check_derivation")
    calls_and_self("orderlogic.apply_rule")
    checks = agg.get("orderlogic.check_derivation", (0,))[0]
    for name in ("orderlogic.steps", "orderlogic.branches"):
        metrics[name] = (counters.get(name, 0) / checks if checks else 0.0, "1/check")
    for op in ("serialize_derivation", "canonical_dumps", "write_certificate",
               "read_certificate", "parse_derivation"):
        calls_and_self(f"certs.{op}")
    per_cycle("certs.bytes_written", "B/cycle")
    calls_and_self("wordsyntax.parse_word")
    for command in ("verify", "prove", "check_cert", "reject"):
        calls, self_s, _ = agg.get(f"cli.{command}", (0, 0.0, 0.0))
        metrics[f"cli.{command}.self_s"] = (self_s / calls if calls else 0.0, "s")
    for slot in range(4):
        untraced = statistics.median(slot_samples(plain, slot))
        with_trace = statistics.median(slot_samples(traced, slot))
        metrics[f"trace.overhead.op{slot + 1}_s"] = (with_trace - untraced, "s")
    return metrics


def per_layer_lines(tracer, traced_cycles):
    """Self time per cycle by layer, then each root operation kind's time
    split over its direct children (inclusive)."""
    lines = [f"traced cycles {traced_cycles}; self time per cycle by layer:"]
    for name, (calls, self_s, _) in sorted(tracer.agg.items(), key=lambda kv: -kv[1][1])[:25]:
        lines.append(f"  {name:40s} {self_s / traced_cycles:10.6f} s/cycle "
                     f"{calls / traced_cycles:10.1f} calls/cycle")
    names = tracer.names
    root_of = {}  # root span id -> root name
    roots: dict[str, list] = {}  # root name -> [count, seconds]
    for sid, nid, start, end, parent in zip(tracer.span_id, tracer.span_name, tracer.span_start,
                                            tracer.span_end, tracer.span_parent):
        if parent < 0:
            root_of[sid] = names[nid]
            entry = roots.setdefault(names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
    children: dict[str, dict[str, float]] = {}
    for nid, start, end, parent in zip(tracer.span_name, tracer.span_start,
                                       tracer.span_end, tracer.span_parent):
        if parent in root_of:
            split = children.setdefault(root_of[parent], {})
            split[names[nid]] = split.get(names[nid], 0.0) + end - start
    for root, (count, seconds) in sorted(roots.items()):
        parts = sorted(children.get(root, {}).items(), key=lambda kv: -kv[1])
        shares = ", ".join(f"{name} {part / seconds:.0%}" for name, part in parts[:8])
        lines.append(f"{root}: {count} traced, mean {seconds / count:.6f} s; "
                     f"direct children: {shares or 'none traced'}")
    return lines


# -- main ----------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordercert" / "__init__.py").is_file():
        print(f"error: no ordercert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, setup_times = measure_setup(args.workload, args.seed)
    check_library_location()
    start = perf_counter()
    plain, traced, tracer, traced_cycles = run_loop(workload, args.seconds, bool(args.trace))
    elapsed = perf_counter() - start

    cycles = plain + traced
    ops = [o for outcomes in cycles for o in outcomes]
    failed = sum(not o.ok for o in ops)
    for line in report_lines(workload, plain, ops, setup_times, elapsed):
        print(f"# {line}")
    if args.trace:
        metrics = per_layer(plain, traced, tracer, traced_cycles)
        for line in per_layer_lines(tracer, traced_cycles):
            print(f"# {line}")
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        WORK.mkdir(exist_ok=True)
        tracer.write(trace_path)
        print(f"# spans written to {trace_path.relative_to(ROOT)} ({len(tracer.span_id)} spans)")
    else:
        metrics = end_to_end(workload, plain, setup_times)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the ncl command-line tool on three seeded workloads.

    python3 perfbench/run.py --workload tanner-analyze --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: ncl is imported from ``src/`` next to this
directory, never from an installed copy. Each op is one in-process call to
``ncl.cli.main(argv)`` on a document written during set-up, issued when the
previous one returns (one client, closed loop, no extra threads).

``--trace 0`` runs every op of a number of passes, each pass with documents
of its own, and measures the end-to-end metrics with tracing off, each timing
divided by the host speed that reference units run between the ops read
(see ``pace.py``). The number of passes depends only on the workload and
``--seconds`` (see ``passes_for``), never on how fast the program runs, so
the parent and a change always time the same ops. ``--trace 1`` runs the
first pass once untraced, then again traced (see ``spans.py``) as often as
fits, and reports the per-layer metrics per op.
Outputs are checked after the timed region; the last stdout line is the
JSON result. Documents are written under ``.perfbench_out/`` and removed at
exit; result and span files stay in ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import ncl, ncl.cli; print(time.perf_counter() - t)")
SPANS_WRITTEN_MAX = 200_000
TAIL_BEYOND = 10
WHOLE_SET = -1  # the slot of a failure that belongs to no single op
MIN_OPS = 2 * TAIL_BEYOND + 1  # keeps the tail percentile above the median
# Seconds of one untraced pass at full size, at nominal host speed (pace.py),
# on a 2-vCPU x86-64 VM (Python 3.11, numpy 2). They only turn --seconds
# into a pass count.
PASS_SECONDS = {"tanner-analyze": 5.5, "trellis-reduce": 7.0, "cli-small": 7.5}
COMMANDS = ("analyze", "reduce", "minimize", "dual", "verify", "components")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tanner-analyze", "trellis-reduce", "cli-small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small instances, for the benchmark's own tests")
    return ap.parse_args(argv)


def import_ncl() -> None:
    """Import ncl from this checkout's src/, never from an installed copy."""
    if not (SRC / "ncl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ncl sources at {SRC / 'ncl'}; "
                         "run from the root of an ncl checkout")
    sys.path.insert(0, str(SRC))
    import ncl
    import ncl.cli  # noqa: F401
    if Path(ncl.__file__).resolve().parent != (SRC / "ncl").resolve():
        raise SystemExit(f"perfbench: imported ncl from {ncl.__file__}, not from {SRC}")


def passes_for(workload: str, seconds: float, ops_per_pass: int) -> int:
    """Passes a run makes: about ``seconds`` of work on the reference VM, and
    at least MIN_OPS ops. A function of its arguments only, so a faster
    program makes the same passes and its tail percentile reads the same rank."""
    return max(round(seconds / PASS_SECONDS[workload]), -(-MIN_OPS // ops_per_pass))


def fresh_import_s() -> float:
    """Seconds to import ncl and its CLI in a new interpreter, as each ncl command pays."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


@dataclass
class Phase:
    """Everything one measured phase produced."""

    passes: int = 0
    durations: list[float] = field(default_factory=list)   # wall seconds, in op order
    cpu: list[float] = field(default_factory=list)         # CPU seconds, in op order
    slots: list[int] = field(default_factory=list)         # index of each op in w.ops
    # host slowness around each op, from the reference units (pace.py); 1 unpaced
    wall_factor: list[float] = field(default_factory=list)
    cpu_factor: list[float] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.durations)

    @property
    def ops_per_pass(self) -> int:
        return self.ops // self.passes

    def per_pass(self, xs: list[float]) -> list[float]:
        k = self.ops_per_pass
        return [sum(xs[i:i + k]) for i in range(0, len(xs), k)]


class Runner:
    """Runs a workload's ops in its working directory and keeps what they produced."""

    def __init__(self, workload, workdir: Path) -> None:
        import ncl.cli
        from checks import Outcome
        self.cli = ncl.cli
        self.Outcome = Outcome
        self.w = workload
        self.workdir = workdir
        self.first: dict[int, object] = {}        # slot -> Outcome of its first run
        self.digests: dict[int, str] = {}         # slot -> sha256 of that outcome
        self.mismatched: list[int] = []           # slots whose output changed between runs

    def run_op(self, op) -> tuple[object, float, float]:
        """(outcome, wall seconds, CPU seconds) of one op."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, cpu0 = time.perf_counter(), time.process_time()
            try:
                # looked up per call so the traced run sees the wrapped main
                code = self.cli.main(list(op.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception:  # an op that raises is a failed op, not a harness crash
                code = -1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu0
        written = {}
        for path in op.outputs:
            target = self.workdir / path
            if target.is_file():
                written[path] = target.read_bytes()
        return self.Outcome(code, out.getvalue(), err.getvalue(), written), elapsed, cpu

    def record(self, slot: int, op, outcome) -> None:
        h = hashlib.sha256()
        for part in (" ".join(op.argv), str(outcome.code), outcome.stdout):
            h.update(part.encode("utf-8") + b"\0")
        for path in op.outputs:
            h.update(outcome.written.get(path, b"<missing>") + b"\0")
        digest = h.hexdigest()
        if slot not in self.digests:
            self.digests[slot] = digest
            self.first[slot] = outcome
        elif self.digests[slot] != digest:
            self.mismatched.append(slot)

    def measure(self, repeats: int = 1, before_op=None, after_op=None, paced: bool = True
                ) -> Phase:
        """Closed loop over every op of the workload, ``repeats`` times.

        When ``paced``, reference units run between ops, outside their
        timing, and give the host speed around each op.
        """
        from pace import Pace
        phase = Phase(passes=repeats * self.w.passes)
        pace = Pace() if paced else None
        marks = []
        i = 0
        for _ in range(repeats):
            for slot, op in enumerate(self.w.ops):
                if before_op:
                    before_op(i)
                marks.append(pace.mark() if pace else 0)
                outcome, elapsed, cpu = self.run_op(op)
                if after_op:
                    after_op(i)
                if pace:
                    pace.keep_up(elapsed)
                self.record(slot, op, outcome)
                phase.durations.append(elapsed)
                phase.cpu.append(cpu)
                phase.slots.append(slot)
                i += 1
        if pace:
            pace.finish()
        factors = [pace.factors(m) if pace else (1.0, 1.0) for m in marks]
        phase.wall_factor = [f for f, _ in factors]
        phase.cpu_factor = [f for _, f in factors]
        return phase


def set_up(name: str, seed: int, tiny: bool, workdir: Path, passes: int = 1):
    import workloads
    w = workloads.build(name, seed, tiny, passes)
    w.write(workdir)
    return w


def set_up_repeatedly(args, workdir: Path, passes: int):
    """The workload, and the seconds of each of SETUP_REPEATS set-ups at
    nominal host speed and raw.

    A set-up imports ncl in a fresh interpreter, builds and writes the
    documents, and warms up; each of the three is paced like an op.
    """
    from pace import Pace
    pace = Pace()
    reps, raw_reps = [], []
    for _ in range(SETUP_REPEATS):
        parts = []

        def done(mark: int, seconds: float) -> None:
            pace.keep_up(seconds)
            parts.append((mark, seconds))

        mark = pace.mark()
        done(mark, fresh_import_s())
        mark, start = pace.mark(), time.perf_counter()
        w = set_up(args.workload, args.seed, args.tiny, workdir, passes)
        done(mark, time.perf_counter() - start)
        mark, start = pace.mark(), time.perf_counter()
        warm_up(args.workload, args.seed, workdir / "warm-up")
        done(mark, time.perf_counter() - start)
        pace.finish()
        reps.append(sum(s / pace.factors(m)[0] for m, s in parts))
        raw_reps.append(sum(s for _, s in parts))
    return w, reps, raw_reps


def warm_up(name: str, seed: int, directory: Path) -> None:
    """Run each command once on the workload's tiny instances, in their own directory.

    Small and of fixed size, so warming up costs about the same for every seed.
    """
    w = set_up(name, seed, True, directory)
    runner = Runner(w, directory)
    seen: set[str] = set()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for op in w.ops:
            if op.command not in seen:
                seen.add(op.command)
                runner.run_op(op)
    finally:
        os.chdir(cwd)


def quantile(xs: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, for 0 < q < 1.

    A mean of all order statistics, weighted by how likely each is to be
    the q-quantile. With a few dozen ops of spread-out sizes it moves far
    less from one draw of documents to the next than a single order
    statistic does.
    """
    import numpy as np
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64
    t = np.linspace(0.0, 1.0, steps * n + 1)
    # the Beta(a, b) density; a, b >= 1 wherever q is at least 1/(n+1) from 0 and 1
    log_pdf = ((a - 1) * np.log(np.maximum(t, 1e-300))
               + (b - 1) * np.log(np.maximum(1 - t, 1e-300)))
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ x)


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest rank with TAIL_BEYOND samples beyond."""
    n = len(durations)
    k = max(n - TAIL_BEYOND, 1)
    return quantile(durations, k / (n + 1)), 100.0 * k / n, n


def git_commit() -> str:
    """HEAD commit of the checkout; 'unknown' outside a git repository or without git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def environment(args, load_at_start, ops_per_pass, passes) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": ops_per_pass,
        "passes": passes,
    }


def check_outputs(runner: Runner) -> list[tuple[int, str]]:
    """(slot, reason) for every op whose first output is wrong or later changed."""
    from checks import Checker, step_kinds
    checker = Checker(runner.w)
    bad = []
    for slot, outcome in sorted(runner.first.items()):
        op = runner.w.ops[slot]
        try:
            reason = checker.check(op, outcome)
        except Exception as e:  # malformed output fails the check, with the reason kept
            reason = f"check raised {type(e).__name__}: {e}"
        if reason:
            bad.append((slot, reason))
    for slot in sorted(set(runner.mismatched)):
        bad.append((slot, "output differs from the first run of the same op"))
    if runner.w.name == "trellis-reduce":
        kinds = set()
        for slot, outcome in runner.first.items():
            if runner.w.ops[slot].command == "reduce" and outcome.code == 0:
                kinds |= step_kinds(outcome.stdout)
        missing = {"trim", "merge", "unobservability-trim"} - kinds
        if missing:
            bad.append((WHOLE_SET, f"document set produced no {sorted(missing)} steps"))
    return bad


def count_failed(phases: list[Phase], bad: list[tuple[int, str]]) -> int:
    bad_slots = {slot for slot, _ in bad}
    failed = sum(1 for ph in phases for s in ph.slots if s in bad_slots)
    return failed + (WHOLE_SET in bad_slots)


def output_digest(runner: Runner) -> str:
    h = hashlib.sha256()
    for slot in range(len(runner.w.ops)):
        h.update(runner.digests.get(slot, "missing").encode() + b"\n")
    return h.hexdigest()


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> dict:
    """Timings at nominal host speed: each op's divided by its pace factor.

    Rates are over the whole run: every pass has documents of its own, so
    a median over passes would pick one pass's draw of documents. The raw
    figures go beside them, not into the metrics.
    """
    wall = [d / f for d, f in zip(phase.durations, phase.wall_factor)]
    cpu = [c / f for c, f in zip(phase.cpu, phase.cpu_factor)]
    value, pct, n = tail(wall)
    return {
        "ops_per_s": (phase.ops / sum(wall), "1/s"),
        "op_p50_ms": (quantile(wall, 0.5) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "cpu_ms_per_op": (sum(cpu) * 1e3 / phase.ops, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"op_tail_percentile": pct, "op_tail_samples": n, "op_tail_beyond": TAIL_BEYOND,
        "passes": phase.passes, "raw_pass_wall_s": phase.per_pass(phase.durations),
        "mean_wall_factor": statistics.fmean(phase.wall_factor),
        "raw_ops_per_s": phase.ops / sum(phase.durations),
        "raw_op_p50_ms": statistics.median(phase.durations) * 1e3,
        "raw_cpu_ms_per_op": sum(phase.cpu) * 1e3 / phase.ops}


def command_p50s(runner: Runner, phase: Phase) -> dict[str, float]:
    """Median wall time of each command; 0 for a command the workload does not run."""
    by: dict[str, list[float]] = {c: [] for c in COMMANDS}
    for slot, d in zip(phase.slots, phase.durations):
        by[runner.w.ops[slot].command].append(d)
    return {f"cli.{c}.p50_ms": statistics.median(v) * 1e3 if v else 0.0
            for c, v in by.items()}


def traced_run(args, runner: Runner, workdir: Path) -> tuple[list[Phase], dict, dict]:
    """The first pass untraced, then traced as often as an untraced run makes
    passes, less one; per-op layer metrics, which repeat exactly for a seed."""
    import spans
    baseline = runner.measure(paced=False)
    tracer = spans.Tracer()
    totals = spans.LayerTotals(tracer, keep_spans=SPANS_WRITTEN_MAX)
    n_ops = len(runner.w.ops)

    setup_dir = workdir / "traced-setup"
    with tracer.installed():
        start = len(tracer.spans)
        set_up(args.workload, args.seed, args.tiny, setup_dir)
        build_ns = sum(s[2] - s[1] for s in tracer.spans[start:]
                       if spans.split_name(tracer.names[s[0]])[1] in spans.BUILDERS)
        tracer.counts.clear()
        tracer.maxima.clear()
        passes = max(passes_for(args.workload, args.seconds, n_ops) - 1, 1)
        traced = runner.measure(passes, before_op=totals.begin_op,
                                after_op=lambda i: totals.end_op(keep=i < n_ops),
                                paced=False)
    metrics = totals.per_op()
    metrics["constructions.build_s"] = build_ns / 1e9
    untraced_rate = baseline.ops / sum(baseline.durations)
    traced_rate = traced.ops / sum(traced.durations)
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    metrics.update(command_p50s(runner, baseline))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    span_file = results / f"{args.workload}-seed{args.seed}-spans.jsonl"
    written = tracer.write_jsonl(span_file)
    extra = {"traced_ops": traced.ops, "traced_passes": passes, "untraced_ops": baseline.ops,
             "spans_file": str(span_file.relative_to(ROOT)), "spans_written": written}
    return [baseline, traced], metrics, extra


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()[0]
    import_ncl()
    sys.path.insert(0, str(HERE))
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        import workloads
        passes = 1 if args.trace else passes_for(
            args.workload, args.seconds, workloads.ops_per_pass(args.workload, args.tiny))
        w, reps, raw_reps = set_up_repeatedly(args, workdir, passes)
        runner = Runner(w, workdir)
        setup_s = statistics.median(reps)

        if args.trace:
            phases, layer, extra = traced_run(args, runner, workdir)
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            phase = runner.measure()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            phases = [phase]
            e2e, extra = end_to_end(phase, setup_s, peak_rss_mb)
            wanted = [m["name"] for m in spec["end_to_end"]]
        check_start = time.perf_counter()
        bad = check_outputs(runner)
        extra["check_s"] = time.perf_counter() - check_start
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(ph.ops for ph in phases)
    failed = count_failed(phases, bad)
    env = environment(args, load_at_start, w.ops_per_pass, w.passes)
    extra.update(setup_reps_s=reps, raw_setup_reps_s=raw_reps)
    if args.trace:
        # self times of layers BENCHMARK.json does not list are in seconds
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        shown = {k: (v, units.get(k, "s")) for k, v in layer.items()}
    else:
        shown = e2e
    metrics = {k: {"value": shown[k][0], "unit": shown[k][1]} for k in wanted}
    result = {"correct": not bad, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"ncl benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {attempted} ops")
    print("env: " + json.dumps(env, sort_keys=True))
    for k, (v, unit) in sorted(shown.items()):
        tag = "" if k in metrics else "  (not in BENCHMARK.json)"
        print(f"  {k} = {v:.6g} {unit}{tag}")
    for k, v in extra.items():
        print(f"  {k}: {v}")
    print(f"  failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted} ops)")
    for slot, reason in bad[:20]:
        where = w.ops[slot].argv if slot != WHOLE_SET else "document set"
        print(f"  FAILED {where}: {reason}")
    print(f"  output_sha256 (every op, {len(w.ops)} ops): {output_digest(runner)}")

    record = dict(result, env=env, extra=extra, failed_frac=failed / attempted,
                  output_sha256=output_digest(runner),
                  all_metrics={k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                  failures=[[s, r] for s, r in bad])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ncl  # noqa: E402
import ncl.cli  # noqa: E402
import checks  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("fields.elim_calls", "realization.behavior_builds", "reduction.steps_trim",
          "reduction.steps_merge", "reduction.steps_unobs", "reduction.scans")


def snapshot() -> dict[tuple[str, str], object]:
    """Identity of every ncl module attribute and traced class attribute."""
    modules = spans.ncl_modules(ncl)
    out = {}
    for ns_name, ns in modules.items():
        for attr, value in vars(ns).items():
            out[(ns_name, attr)] = value
    for mod_name, cls_name in (*spans.METHODS, *((m, c) for m, c, _ in spans.COUNTED)):
        cls = getattr(modules[mod_name], cls_name)
        for attr, value in vars(cls).items():
            out[(f"{mod_name}.{cls_name}", attr)] = value
    return out


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", "0", "--tiny")
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert re.search(r"^  failed_frac = 0 frac \(0 of \d+ ops\)$", proc.stdout, re.M)
    for name, unit in want.items():
        assert re.search(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$", proc.stdout, re.M)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = [result_of(bench("--workload", workload, "--seed", "5", "--seconds", s,
                            "--trace", "1", "--tiny"))
            for s in ("0", "120")]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert res["correct"] is True and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert runs[0]["attempted"] != runs[1]["attempted"]
    for key in COUNTS:
        assert runs[0]["metrics"][key]["value"] == runs[1]["metrics"][key]["value"], key


def fake_clock_run(monkeypatch, tmp_path, speed: float, host: float) -> dict:
    """End-to-end metrics of a full trellis-reduce run on a fake clock.

    Op i costs (1 + i) / speed seconds and a reference unit its nominal
    time, both times ``host`` (the host's slowness).
    """
    passes = run.passes_for("trellis-reduce", 24, workloads.ops_per_pass("trellis-reduce"))
    w = workloads.build("trellis-reduce", 1, passes=passes)
    cost = {op.argv: 1.0 + i for i, op in enumerate(w.ops)}
    clock = [0.0]

    class Cli:
        @staticmethod
        def main(argv):
            clock[0] += cost[tuple(argv)] * host / speed
            return 0

    def unit():
        clock[0] += pace.NOMINAL_WALL_S * host

    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(pace, "unit", unit)
    runner = run.Runner(w, tmp_path)
    runner.cli = Cli
    phase = runner.measure()
    assert phase.ops == len(w.ops) == 3 * 8
    e2e, extra = run.end_to_end(phase, 1.0, 1.0)
    return {k: v for k, (v, _) in e2e.items()} | extra


def test_a_faster_program_times_the_same_ops(monkeypatch, tmp_path, capsys):
    slow = fake_clock_run(monkeypatch, tmp_path, 1.0, 1.0)
    fast = fake_clock_run(monkeypatch, tmp_path, 3.0, 1.0)
    assert fast["op_tail_percentile"] == slow["op_tail_percentile"]
    # the same op, three times faster
    assert fast["op_tail_ms"] * 3 == pytest.approx(slow["op_tail_ms"])
    assert fast["ops_per_s"] == pytest.approx(3 * slow["ops_per_s"])


def test_timings_read_the_same_on_a_slower_host(monkeypatch, tmp_path, capsys):
    calm = fake_clock_run(monkeypatch, tmp_path, 1.0, 1.0)
    slow = fake_clock_run(monkeypatch, tmp_path, 1.0, 2.5)
    assert slow["raw_ops_per_s"] == pytest.approx(calm["raw_ops_per_s"] / 2.5)
    assert slow["mean_wall_factor"] == pytest.approx(2.5)
    for key in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
        assert slow[key] == pytest.approx(calm[key]), key


def test_rates_are_over_the_whole_run_at_nominal_speed():
    phase = run.Phase(passes=3, durations=[0.1] * 4 + [1.0] * 4 + [0.125] * 4,
                      cpu=[0.075] * 4 + [0.05] * 4 + [0.75] * 4, slots=list(range(12)),
                      wall_factor=[1.0] * 12, cpu_factor=[1.0] * 12)
    e2e, extra = run.end_to_end(phase, 1.0, 1.0)
    assert e2e["ops_per_s"][0] == pytest.approx(12 / 4.9)
    assert e2e["cpu_ms_per_op"][0] == pytest.approx(3500 / 12)
    assert extra["passes"] == 3 and extra["raw_pass_wall_s"] == pytest.approx([0.4, 4.0, 0.5])
    # ops timed while the host ran at half speed count half their wall time
    phase.wall_factor = [2.0] * 4 + [1.0] * 8
    assert run.end_to_end(phase, 1.0, 1.0)[0]["ops_per_s"][0] == pytest.approx(12 / 4.7)


def test_quantiles_weight_the_order_statistics_near_their_rank():
    assert run.quantile([0.25] * 9, 0.5) == pytest.approx(0.25)
    xs = [float(i) for i in range(1, 29)]
    assert run.quantile(xs, 0.5) == pytest.approx(14.5)
    value, pct, n = run.tail(xs[::-1])
    assert (pct, n) == (100 * 18 / 28, 28) and value == pytest.approx(18, abs=0.2)
    assert run.tail([3 * x for x in xs])[0] == pytest.approx(3 * value)


def test_pass_count_depends_on_workload_and_seconds_only():
    assert run.passes_for("tanner-analyze", 20, 7) == 4
    assert run.passes_for("trellis-reduce", 20, 8) == 3
    assert run.passes_for("cli-small", 0, 1080) == 1
    assert run.passes_for("tanner-analyze", 0, 7) * 7 >= run.MIN_OPS


def test_trellis_documents_produce_every_step_kind():
    res = result_of(bench("--workload", "trellis-reduce", "--seed", "8", "--seconds", "0",
                          "--trace", "1", "--tiny"))
    m = res["metrics"]
    assert m["reduction.steps_trim"]["value"] > 0
    assert m["reduction.steps_merge"]["value"] > 0
    assert m["reduction.steps_unobs"]["value"] > 0


def test_refuses_to_run_without_ncl_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_covered_child_intervals():
    # root [0,100]; a [10,40] with grandchild [20,30]; b [50,70] and c [60,95]
    # overlap each other; d [90,120] runs past the root's end.
    spans_ = [(0, 100, -1), (10, 40, 0), (20, 30, 1), (50, 70, 0), (60, 95, 0),
              (90, 120, 0)]
    assert spans.self_times(spans_) == [100 - 30 - 50, 30 - 10, 10, 20, 35, 30]


def test_self_time_of_a_leaf_is_its_duration():
    assert spans.self_times([(5, 9, -1)]) == [4]


def test_span_names_split_into_layer_function_caller():
    assert spans.split_name("fields.kernel@realization") == ("fields", "kernel",
                                                              "realization")
    assert spans.split_name("blockcode.BlockedCode.project") == (
        "blockcode", "BlockedCode.project", None)


def test_every_wrapped_name_is_restored(tmp_path, capsys):
    before = snapshot()
    w = workloads.build("trellis-reduce", 1, tiny=True)
    w.write(tmp_path)
    op = next(o for o in w.ops if o.command == "reduce")
    argv = [str(tmp_path / op.argv[1]), str(tmp_path / op.argv[2])]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(ncl):
            assert ncl.realization.kernel is not before[("realization", "kernel")]
            assert ncl.fields.MatrixF.__init__ is not before[("fields.MatrixF", "__init__")]
            assert ncl.cli.main(["reduce", *argv]) == 0
            raise RuntimeError("leave the block by an exception")
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {"fields.kernel@realization", "realization.is_trim@reduction",
            "reduction.reduce_to_fixpoint@reduction", "cli.main@cli"} <= names


def test_layer_totals_count_pair_checks_and_behavior_builds(tmp_path, capsys):
    w = workloads.build("trellis-reduce", 2, tiny=True)
    w.write(tmp_path)
    tracer = spans.Tracer()
    totals = spans.LayerTotals(tracer, keep_spans=0)
    with tracer.installed(ncl):
        for i, op in enumerate(w.ops):
            totals.begin_op(i)
            argv = [a if not a.startswith(("docs/", "out/")) else str(tmp_path / a)
                    for a in op.argv]
            assert ncl.cli.main(argv) == 0
            totals.end_op(keep=False)
    m = totals.per_op()
    assert m["reduction.pairs_checked"] > 0 and m["reduction.scans"] > 0
    assert m["realization.behavior_builds"] >= 1
    assert 0 < m["reduction.useful_ratio"] < 1
    assert m["fields.elim_calls"] > m["realization.behavior_builds"]
    assert tracer.minimize_incidences == {} and tracer.spans == []


def test_independent_rank_matches_brute_force():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5):
        a = rng.integers(0, p, size=(4, 6))
        a[3] = (a[0] + 2 * a[1]) % p
        words = {tuple(int(x) for x in (np.array(c) @ a) % p)
                 for c in np.ndindex(*(p,) * 4)}
        assert p ** checks.rank_mod_p(a, p) == len(words)
        null = checks.nullspace_mod_p(a, 6, p)
        assert not ((a @ null.T) % p).any()
        assert checks.rank_mod_p(null, p) == 6 - checks.rank_mod_p(a, p)


def test_checks_reject_a_wrong_answer():
    w = workloads.build("tanner-analyze", 1, tiny=True)
    op = w.ops[0]
    meta = w.meta[op.doc]
    right = meta["n"] - checks.rank_mod_p(meta["checks"], 2)
    checker = checks.Checker(w)
    good = checks.Outcome(0, json.dumps({"realized_dim": right, "observable": True}), "", {})
    bad = checks.Outcome(0, json.dumps({"realized_dim": right + 1, "observable": True}),
                         "", {})
    assert checker.check(op, good) is None
    assert "realized_dim" in checker.check(op, bad)
    assert "exit code 2" in checker.check(op, checks.Outcome(2, "", "boom", {}))


def test_trellis_check_rejects_a_document_for_another_code():
    w = workloads.build("trellis-reduce", 4, tiny=True)
    op = next(o for o in w.ops if o.command == "reduce")
    other = next(o for o in w.ops if o.command == "reduce" and o.doc != op.doc)
    checker = checks.Checker(w)
    wrong = checks.Outcome(0, "", "", {op.outputs[0]: w.docs[other.doc].encode()})
    assert "row space" in checker.check(op, wrong)


def test_same_seed_same_documents():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 9, tiny=True), workloads.build(name, 9, tiny=True)
        assert a.docs == b.docs and a.ops == b.ops
        assert a.docs != workloads.build(name, 10, tiny=True).docs
        # more passes add documents of their own and keep the first pass's
        c = workloads.build(name, 9, tiny=True, passes=3)
        assert c.ops[:len(a.ops)] == a.ops and len(c.ops) == 3 * len(a.ops)
        assert len(set(c.ops)) == len(c.ops) == 3 * workloads.ops_per_pass(name, tiny=True)

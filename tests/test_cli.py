"""End-to-end CLI behavior: output text, JSON payloads, exit codes."""

import io
import itertools
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from ncl import (GF2, GF3, DocumentError, PrimeField, Span, SpannedGenerator, analyze,
                 behavior, dualize, emit_realization, export_dot, generator_realization,
                 oracle, parse_realization, product_trellis)
from ncl.cli import main
from fixtures import CRITERION12_DOCUMENT, DATA, chain_document, example1_document
from helpers import gallager_checks

EXPECTED_CODE = '{"field": 2, "generators": [[1, 1, 0], [1, 0, 1]]}\n'
WRONG_CODE = '{"field": 2, "generators": [[1, 1, 1]]}\n'


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(example1_document(), encoding="utf-8")
    return str(path)


@pytest.fixture
def conv_path(tmp_path, run):
    path = tmp_path / "conv.json"
    code, _, _ = run("build", "trellis", "--field", "2", "--n", "3",
                     "--gens", "110,011", "--spans", "0:2,1:2",
                     "--kind", "conventional", "-o", str(path))
    assert code == 0
    return str(path)


class TestBuild:
    def test_trellis_reproduces_pinned_document(self, run, tmp_path):
        out_path = tmp_path / "built.json"
        code, out, _ = run("build", "trellis", "--field", "2", "--n", "3",
                           "--gens", "110,011,101", "--spans", "0:1,1:2,2:0",
                           "-o", str(out_path))
        assert code == 0
        assert out == f"wrote {out_path}\n"
        assert out_path.read_text(encoding="utf-8") == example1_document()

    def test_trellis_to_stdout(self, run):
        code, out, _ = run("build", "trellis", "--field", "2", "--n", "3",
                           "--gens", "110,011,101", "--spans", "0:1,1:2,2:0")
        assert code == 0
        assert out == example1_document()

    def test_generator_build(self, run, tmp_path):
        path = tmp_path / "gen.json"
        code, _, _ = run("build", "generator", "--field", "2", "--n", "3",
                         "--gens", "110,011", "-o", str(path))
        assert code == 0
        rep = analyze(parse_realization(path.read_text(encoding="utf-8")))
        assert rep.observable and rep.controllable
        assert rep.realized_dim == 2

    def test_parity_check_build(self, run, tmp_path):
        path = tmp_path / "chk.json"
        code, _, _ = run("build", "parity-check", "--field", "2", "--n", "4",
                         "--checks", "1110,0111", "-o", str(path))
        assert code == 0
        rep = analyze(parse_realization(path.read_text(encoding="utf-8")))
        assert rep.observable and rep.controllable
        assert rep.realized_dim == 2

    def test_repeated_calls_do_not_share_appended_rows(self, run, tmp_path):
        # main reuses one parser, so --gens must start empty on every call
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        for path, gens in ((first, "110,011"), (second, "111")):
            code, _, _ = run("build", "generator", "--field", "2", "--n", "3",
                             "--gens", gens, "-o", str(path))
            assert code == 0
        rep = analyze(parse_realization(second.read_text(encoding="utf-8")))
        assert rep.realized_dim == 1

    def test_degenerate_span_spelled_deg(self, run, tmp_path):
        path = tmp_path / "tb.json"
        code, _, _ = run("build", "trellis", "--field", "2", "--n", "5",
                         "--gens", "10111,01100", "--spans", "2:0,deg",
                         "-o", str(path))
        assert code == 0
        rep = analyze(parse_realization(path.read_text(encoding="utf-8")))
        assert [d for _, d in rep.state_dims] == [2, 1, 1, 2, 2]

    def test_build_json_written_payload(self, run, tmp_path):
        path = tmp_path / "b.json"
        code, out, _ = run("build", "generator", "--field", "2", "--n", "2",
                           "--gens", "11", "-o", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"written": str(path)}

    def test_spans_are_checked_on_residues(self, run):
        # 103 over GF(3) is the generator 100
        got, want = (run("build", "trellis", "--field", "3", "--n", "3",
                         "--gens", gens, "--spans", "0:0") for gens in ("103", "100"))
        assert got == want
        assert want[0] == 0 and want[2] == ""

    def test_rejects_missing_spans(self, run):
        code, _, err = run("build", "trellis", "--field", "2", "--n", "3",
                           "--gens", "110")
        assert code == 2
        assert err.startswith("error:")

    def test_rejects_count_mismatch(self, run):
        code, _, err = run("build", "trellis", "--field", "2", "--n", "3",
                           "--gens", "110,011", "--spans", "0:1")
        assert code == 2
        assert "2 generators but 1 spans" in err

    def test_rejects_spans_on_generator_build(self, run):
        code, _, _ = run("build", "generator", "--field", "2", "--n", "3",
                         "--gens", "110", "--spans", "0:1")
        assert code == 2

    def test_rejects_bad_span_syntax(self, run):
        code, _, err = run("build", "trellis", "--field", "2", "--n", "3",
                           "--gens", "110", "--spans", "zap")
        assert code == 2
        assert "expected span" in err

    def test_rejects_non_digit_rows(self, run):
        code, _, err = run("build", "generator", "--field", "2", "--n", "3",
                           "--gens", "1x0")
        assert code == 2
        assert "digit string" in err

    @pytest.mark.parametrize("n", [960, 1200])
    def test_applies_the_cell_budget_of_the_parse(self, run, tmp_path, n):
        # a (3,6)-regular Tanner graph has 3.5n check rows over a frame of 4n:
        # 12,902,400 cells at n = 960; at n = 1200 the count passes the budget
        # at the 1,442nd constraint, as the parse of the document would
        rows = ",".join("".join(map(str, row)) for row in gallager_checks(random.Random(n), n))
        path = tmp_path / "tanner.json"
        code, out, err = run("build", "parity-check", "--field", "2", "--n", str(n),
                             "--checks", rows, "-o", str(path), "--json")
        if n == 960:
            assert (code, json.loads(out), err) == (0, {"written": str(path)}, "")
            parse_realization(path.read_text(encoding="utf-8"))
        else:
            assert (code, out, path.exists()) == (2, "", False)
            assert json.loads(err) == {"error": {"type": "document", "message": (
                "$.constraints[1441].generators: the behavior's system needs 15004800 "
                "cells, over the budget of 15000000")}}


class TestAnalyze:
    def test_text_report(self, run, ex1_path):
        code, out, err = run("analyze", ex1_path)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "field: GF(2)",
            "symbols: a0:1 a1:1 a2:1 (total 3)",
            "states: s0:1 s1:1 s2:1 (total 3)",
            "constraints: c0:2 c1:2 c2:2 (total 6)",
            "behavior dim: 3",
            "realized dim: 2",
            "unobservable dim: 1",
            "controllability defect: 0",
            "observable: false",
            "controllable: true",
            "state-trim: true",
            "branch-trim: true",
            "reduced: true",
            "cycle-free: false",
            "minimal: n/a (graph has cycles)",
            "trim-proper: true",
            "locally reducible: true",
            "constraint c0 (dim 2): trim s0: ok; trim s1: ok; proper: ok",
            "constraint c1 (dim 2): trim s1: ok; trim s2: ok; proper: ok",
            "constraint c2 (dim 2): trim s2: ok; trim s0: ok; proper: ok",
        ]

    def test_json_report(self, run, ex1_path):
        code, out, _ = run("analyze", ex1_path, "--json")
        assert code == 0
        payload = json.loads(out)
        want = analyze(parse_realization(example1_document())).to_dict()
        assert payload == want

    def test_witnesses_in_text(self, run, conv_path):
        code, out, _ = run("analyze", conv_path)
        assert code == 0
        assert "proper: FAIL (codeword 1,0,0 lives on s2)" in out

    def test_multiple_files_get_headers(self, run, ex1_path, conv_path):
        code, out, _ = run("analyze", ex1_path, conv_path)
        assert code == 0
        assert f"== {ex1_path}" in out and f"== {conv_path}" in out

    def test_multiple_files_json_get_file_keys(self, run, ex1_path, conv_path):
        code, out, _ = run("analyze", ex1_path, conv_path, "--json")
        assert code == 0
        assert out.count('"file":') == 2


class TestBehaviorCommand:
    def test_text(self, run, ex1_path):
        code, out, _ = run("behavior", ex1_path)
        assert code == 0
        lines = out.splitlines()
        assert "behavior dim: 3" in lines
        assert "behavior blocks: a0 a1 a2 s0 s1 s2" in lines
        assert "realized dim: 2" in lines
        assert "realized blocks: a0 a1 a2" in lines
        words = [ln.strip() for ln in lines if ln.startswith("  ")]
        assert len(words) == 5
        assert all(set(w) <= {"0", "1"} for w in words)

    def test_json(self, run, ex1_path):
        code, out, _ = run("behavior", ex1_path, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["behavior_dim"] == 3
        assert payload["realized_dim"] == 2
        assert len(payload["behavior_generators"]) == 3


class TestDualAndComponents:
    def test_dual_then_components(self, run, ex1_path, tmp_path):
        dual_path = tmp_path / "dual.json"
        code, out, _ = run("dual", ex1_path, str(dual_path))
        assert code == 0
        assert out == f"wrote {dual_path}\n"

        code, out, _ = run("components", str(dual_path))
        assert code == 0
        assert out.splitlines() == [
            "components: 2",
            "tail-biting: true",
            "reduced: true",
            "defect: 1",
            "uncontrollable: true",
            "component 0: s0=0 s1=0 s2=0",
            "component 1: s0=1 s1=1 s2=1",
        ]

    def test_components_on_controllable_primal(self, run, ex1_path):
        code, out, _ = run("components", ex1_path)
        assert code == 0
        assert "components: 1" in out
        assert "uncontrollable: false" in out

    def test_components_json(self, run, ex1_path, tmp_path):
        dual_path = tmp_path / "dual.json"
        run("dual", ex1_path, str(dual_path))
        code, out, _ = run("components", str(dual_path), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["components"] == 2
        assert payload["uncontrollable"] is True
        assert payload["warning"] is None
        assert {tuple(e["value"]) for e in payload["partition"]} == {(0,), (1,)}

    def test_dual_over_the_cell_budget_is_refused_unwritten(self, run, tmp_path):
        # the chain's full local codes have no check rows, so it parses; its
        # dual's check rows are their dims, and the parse of the dual's
        # document passes the budget at its 1,564th constraint
        text = chain_document(1600)
        with pytest.raises(DocumentError) as refused:
            parse_realization(emit_realization(dualize(parse_realization(text))))
        assert str(refused.value).startswith("$.constraints[1563].generators: ")
        path, out_path = tmp_path / "chain.json", tmp_path / "dual.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run("dual", str(path), str(out_path), "--json")
        assert (code, out, out_path.exists()) == (2, "", False)
        assert json.loads(err) == {"error": {"type": "document",
                                             "message": str(refused.value)}}

    def test_dual_of_dual_round_trips(self, run, ex1_path, tmp_path):
        d1 = tmp_path / "d1.json"
        d2 = tmp_path / "d2.json"
        run("dual", ex1_path, str(d1))
        run("dual", str(d1), str(d2))
        assert d2.read_text(encoding="utf-8") == example1_document()


class TestReduceAndMinimize:
    def test_reduce_steps(self, run, ex1_path, tmp_path):
        out_path = tmp_path / "reduced.json"
        code, out, _ = run("reduce", ex1_path, str(out_path), "--steps")
        assert code == 0
        assert out.splitlines() == [
            "unobservability-trim s0: 1 -> 0",
            f"wrote {out_path}",
        ]
        rep = analyze(parse_realization(out_path.read_text(encoding="utf-8")))
        assert rep.observable
        assert rep.realized_dim == 2

    def test_reduce_json_steps(self, run, ex1_path, tmp_path):
        out_path = tmp_path / "reduced.json"
        code, out, _ = run("reduce", ex1_path, str(out_path), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["written"] == str(out_path)
        assert payload["steps"] == [{
            "kind": "unobservability-trim", "state": "s0", "constraint": None,
            "old_dim": 1, "new_dim": 0, "basis_change": [],
        }]

    def test_minimize_conventional(self, run, conv_path, tmp_path):
        out_path = tmp_path / "minimal.json"
        code, out, _ = run("minimize", conv_path, str(out_path), "--steps")
        assert code == 0
        assert out.splitlines() == [
            "merge s2: 2 -> 1 at c2",
            f"wrote {out_path}",
        ]
        rep = analyze(parse_realization(out_path.read_text(encoding="utf-8")))
        assert [d for _, d in rep.state_dims] == [0, 1, 1, 0]
        assert rep.minimal is True

    def test_steps_name_an_empty_constraint_id(self, run, conv_path, tmp_path):
        # "" is a constraint id like any other: the text names it as --json does
        path, out_path = tmp_path / "empty_id.json", tmp_path / "minimal.json"
        text = Path(conv_path).read_text(encoding="utf-8").replace('"c2"', '""')
        path.write_text(text, encoding="utf-8")
        for command in ("reduce", "minimize"):
            code, out, _ = run(command, str(path), str(out_path), "--steps")
            assert (code, out.splitlines()) == (0, ["merge s2: 2 -> 1 at ", f"wrote {out_path}"])
            code, out, _ = run(command, str(path), str(out_path), "--json")
            assert json.loads(out)["steps"][0]["constraint"] == ""

    def test_minimize_rejects_cycles(self, run, ex1_path, tmp_path):
        code, _, err = run("minimize", ex1_path, str(tmp_path / "x.json"))
        assert code == 2
        assert "cycle-free" in err


class TestVerify:
    def test_behavior_against_brute_force(self, run, ex1_path):
        code, out, _ = run("verify", ex1_path)
        assert code == 0
        assert out == "ok: behavior matches brute force\n"

    def test_expected_code_match(self, run, ex1_path, tmp_path):
        exp = tmp_path / "code.json"
        exp.write_text(EXPECTED_CODE, encoding="utf-8")
        code, out, _ = run("verify", ex1_path, "--expect", str(exp))
        assert code == 0
        assert out == "ok: realized code matches the expected code\n"

    def test_expected_code_mismatch_exits_1(self, run, ex1_path, tmp_path):
        exp = tmp_path / "code.json"
        exp.write_text(WRONG_CODE, encoding="utf-8")
        code, out, _ = run("verify", ex1_path, "--expect", str(exp))
        assert code == 1
        assert out == "MISMATCH: word 011 separates the two\n"

    def test_verify_json(self, run, ex1_path, tmp_path):
        exp = tmp_path / "code.json"
        exp.write_text(WRONG_CODE, encoding="utf-8")
        code, out, _ = run("verify", ex1_path, "--expect", str(exp), "--json")
        assert code == 1
        assert json.loads(out) == {"ok": False, "counterexample": [0, 1, 1]}

    def test_budget_flag(self, run, ex1_path):
        code, _, err = run("verify", ex1_path, "--budget", "63")
        assert code == 2
        assert "exceed" in err

    def test_cap_error_before_the_oracle_budget_error(self, run, ex1_path):
        # ex1's behavior has 8 words and its frame 2^6 points
        code, _, err = run("verify", ex1_path, "--budget", "4")
        assert (code, err) == (2, "error: 8 codewords exceed the cap 4\n")

    @pytest.mark.parametrize("tamper", ["drop", "extra", "swap", "repeat", "repeat-for-one"])
    def test_oracle_disagreement_as_set_comparison(self, run, ex1_path, monkeypatch, tamper):
        # the verdict and counterexample of comparing the two word sets
        r = parse_realization(example1_document())
        words = sorted(behavior(r).enumerate())
        outside = next(w for w in itertools.product(range(2), repeat=len(words[0]))
                       if w not in set(words))
        told = {"drop": words[1:], "extra": words + [outside],
                "swap": words[:-1] + [outside], "repeat": words + words[:3],
                "repeat-for-one": words[:-1] + [words[0]]}[tamper]
        monkeypatch.setattr(oracle, "brute_behavior", lambda r, max_points: list(told))
        diff = set(words) ^ set(told)
        code, out, _ = run("verify", ex1_path, "--json")
        assert (code, json.loads(out)) == (
            (1, {"ok": False, "counterexample": list(min(diff))}) if diff else (0, {"ok": True}))

    def test_multiple_files_worst_exit(self, run, ex1_path, tmp_path):
        exp = tmp_path / "code.json"
        exp.write_text(EXPECTED_CODE, encoding="utf-8")
        code, out, _ = run("verify", ex1_path, ex1_path, "--expect", str(exp))
        assert code == 0
        assert out.count("ok:") == 2
        assert f"{ex1_path}: ok" in out


class TestBudgetEnv:
    """The budget has one source, --budget: the environment sets none."""

    def test_environment_sets_no_budget(self, run, ex1_path, monkeypatch):
        # ex1's 64 assignments fit the default budget, not a budget of 63
        monkeypatch.setenv("NCL_BUDGET", "63")
        code, out, _ = run("verify", ex1_path)
        assert (code, out) == (0, "ok: behavior matches brute force\n")

    def test_components_rejects_non_positive_budget(self, run, tmp_path):
        # rejected before any file is read, like verify's budget
        code, _, err = run("components", str(tmp_path / "nope.json"), "--budget", "-5",
                           "--json")
        assert code == 2
        assert json.loads(err) == {"error": {"type": "value",
                                             "message": "budget must be positive"}}


class TestOneBudget:
    """--budget counts the points of one command: verify's assignments (the
    transcript's ex1 rows at 63 and 64), and components' state values and
    branch words together."""

    def test_components_counts_every_projection_together(self, run, tmp_path):
        text = transcript_files()["tb3.json"]
        r = parse_realization(text)
        b, topo = behavior(r), r.topology
        branches = ([v for v in c.vars if topo.is_state(v)] for c in topo.constraints)
        sizes = [3 ** b.project([s.id]).dim for s in topo.states]
        sizes += [3 ** b.project(vs).dim for vs in branches if len(vs) > 1]
        total = sum(sizes)
        assert (max(sizes), total) == (9, 54)
        path = tmp_path / "tb3.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run("components", str(path), "--budget", str(total))
        assert (code, out.splitlines()[0]) == (0, "components: 3")
        code, out, err = run("components", str(path), "--budget", str(total - 1), "--json")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {"type": "budget", "message": (
            "54 state values and branch words exceed the budget of 53")}}


class TestExportDot:
    def test_stdout(self, run, ex1_path):
        code, out, _ = run("export-dot", ex1_path)
        assert code == 0
        assert out.startswith("graph realization {")
        assert out.rstrip().endswith("}")

    def test_stdout_json(self, run, ex1_path):
        code, out, _ = run("export-dot", ex1_path, "--json")
        assert code == 0
        assert json.loads(out) == {"dot": export_dot(parse_realization(example1_document()))}

    def test_to_file(self, run, ex1_path, tmp_path):
        path = tmp_path / "g.dot"
        code, out, _ = run("export-dot", ex1_path, "-o", str(path))
        assert code == 0
        assert out == f"wrote {path}\n"
        assert '"c2" -- "c0"' in path.read_text(encoding="utf-8")

    def test_to_file_json_written_payload(self, run, ex1_path, tmp_path):
        path = tmp_path / "g.dot"
        code, out, _ = run("export-dot", ex1_path, "-o", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"written": str(path)}
        assert path.read_text(encoding="utf-8").startswith("graph realization {")


class TestErrorMapping:
    def test_missing_file(self, run, tmp_path):
        code, _, err = run("analyze", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")

    def test_bad_json_document(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        code, _, err = run("analyze", str(path))
        assert code == 2
        assert "$" in err and "not valid JSON" in err

    def test_invalid_realization(self, run, tmp_path):
        doc = ('{"field": 2,'
               ' "symbols": [{"id": "a0", "dim": 1}, {"id": "a1", "dim": 1}],'
               ' "states": [],'
               ' "constraints": [{"id": "c0", "vars": ["a0"], "generators": [[1]]},'
               ' {"id": "c1", "vars": ["a1"], "generators": [[1]]}]}')
        path = tmp_path / "invalid.json"
        path.write_text(doc, encoding="utf-8")
        code, _, err = run("analyze", str(path))
        assert code == 2
        assert "disconnected" in err

    def test_json_error_envelope(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        code, _, err = run("analyze", str(path), "--json")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["type"] == "document"
        assert "not valid JSON" in payload["error"]["message"]

    @pytest.mark.parametrize("argv", [["analyze", "--help"], ["-h"]])
    def test_help_returns_zero_with_one_json_object(self, run, argv):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: ncl")
        code, json_out, err = run(*argv, "--json")
        assert (code, err) == (0, "")
        assert json.loads(json_out) == {"help": out}

    def test_huge_dimension_is_a_document_error(self, run, tmp_path):
        doc = json.dumps({"field": 3, "symbols": [{"id": "a0", "dim": 10 ** 29}],
                          "states": [],
                          "constraints": [{"id": "c0", "vars": ["a0"], "generators": []}]})
        path = tmp_path / "huge.json"
        path.write_text(doc, encoding="utf-8")
        code, _, err = run("analyze", str(path), "--json")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["type"] == "document"
        assert payload["error"]["message"].startswith("$.constraints[0].generators:")

    def test_huge_entries_are_read_mod_p(self, run, tmp_path):
        def doc(entry):
            return json.dumps({"field": 3, "symbols": [{"id": "a0", "dim": 2}],
                               "states": [],
                               "constraints": [{"id": "c0", "vars": ["a0"],
                                                "generators": [[entry, 1]]}]})
        huge, small = tmp_path / "huge.json", tmp_path / "small.json"
        huge.write_text(doc(10 ** 29), encoding="utf-8")
        small.write_text(doc(10 ** 29 % 3), encoding="utf-8")
        code, out, err = run("analyze", str(huge), "--json")
        assert (code, err) == (0, "")
        assert out == run("analyze", str(small), "--json")[1]

    def test_huge_entries_in_expected_code_are_read_mod_p(self, run, ex1_path, tmp_path):
        exp = tmp_path / "code.json"
        exp.write_text(json.dumps({"field": 2, "generators": [[1 + 2 * 10 ** 29, 1, 0],
                                                              [1, -10 ** 40, 1]]}),
                       encoding="utf-8")
        code, out, _ = run("verify", ex1_path, "--expect", str(exp))
        assert code == 0
        assert out == "ok: realized code matches the expected code\n"


# The CLI contract: every command in text and --json, on one file and on
# several, and the error paths, as exact stdout, stderr, exit code and
# written files. tests/data/cli_transcripts.json holds the expected rows; a
# row changes only when an output is meant to change. Rewrite it with
# `PYTHONPATH=src:tests python tests/test_cli.py --record`, which prints the
# keys of the rows it added, changed or removed.

TRANSCRIPTS = DATA / "cli_transcripts.json"
INVALID_DOC = ('{"field": 2,'
               ' "symbols": [{"id": "a0", "dim": 1}, {"id": "a1", "dim": 1}],'
               ' "states": [],'
               ' "constraints": [{"id": "c0", "vars": ["a0"], "generators": [[1]]},'
               ' {"id": "c1", "vars": ["a1"], "generators": [[1]]}]}')
# example1, the conv_path trellis, example1's dual, a GF(3) tail-biting
# trellis with a degenerate span, and a GF(11) generator realization;
# conv_dual.json is not trim, so its analyze rows carry trim witnesses;
# one.json holds one GF(2) symbol, against which code3.json is over
# another field and long.json has another length; crit12.json is the
# criterion-12 witness, whose components verdict is withheld; dim4000.json
# declares one symbol whose behavior system is over the cell budget,
# dim2000.json one whose system fits; chain1600.json parses, but its dual
# is over the budget
ONE_SYMBOL_DOC = ('{"field": 2, "symbols": [{"id": "a0", "dim": 1}], "states": [],'
                  ' "constraints": [{"id": "c0", "vars": ["a0"], "generators": [[1]]}]}\n')
WIDE_SYMBOL_DOC = ('{"field": 2, "symbols": [{"id": "a0", "dim": %d}], "states": [],'
                   ' "constraints": [{"id": "c0", "vars": ["a0"], "generators": []}]}\n')


DOCS = ("ex1.json", "conv.json", "dual.json", "tb3.json", "gf11.json")


@cache
def transcript_files() -> dict[str, str]:
    ex1 = parse_realization(example1_document())
    conv = product_trellis(GF2, 3, [SpannedGenerator((1, 1, 0), Span(0, 2)),
                                    SpannedGenerator((0, 1, 1), Span(1, 2))],
                           "conventional")
    tb3 = product_trellis(GF3, 4, [SpannedGenerator((1, 2, 1, 0), Span(0, 2)),
                                   SpannedGenerator((0, 1, 2, 0), Span(degenerate=True))])
    gf11 = generator_realization(PrimeField(11), 2, [[1, 10], [0, 3]])
    # its dual misses the dim-2 value (1, 0) at s2: a trim witness over p > 10
    gf11_conv = product_trellis(PrimeField(11), 3,
                                [SpannedGenerator((1, 10, 0), Span(0, 2)),
                                 SpannedGenerator((0, 1, 10), Span(1, 2))], "conventional")
    return {
        "ex1.json": example1_document(),
        "conv.json": emit_realization(conv),
        "dual.json": emit_realization(dualize(ex1)),
        "conv_dual.json": emit_realization(dualize(conv)),
        "tb3.json": emit_realization(tb3),
        "gf11.json": emit_realization(gf11),
        "gf11_conv_dual.json": emit_realization(dualize(gf11_conv)),
        "empty.json": "{}\n",
        "invalid.json": INVALID_DOC,
        "code.json": EXPECTED_CODE,
        "wrong.json": WRONG_CODE,
        "code11.json": '{"field": 11, "generators": [[1, 10], [0, 4]]}\n',
        "wrong11.json": '{"field": 11, "generators": [[1, 9]]}\n',
        "one.json": ONE_SYMBOL_DOC,
        "code3.json": '{"field": 3, "generators": [[1]]}\n',
        "long.json": '{"field": 2, "generators": [[1, 1]]}\n',
        "crit12.json": CRITERION12_DOCUMENT,
        "dim4000.json": WIDE_SYMBOL_DOC % 4000,
        "dim2000.json": WIDE_SYMBOL_DOC % 2000,
        "chain1600.json": chain_document(1600),
    }


def transcript_argvs() -> list[list[str]]:
    rows = []
    for cmd in ("analyze", "behavior", "components", "verify"):
        for doc in DOCS:
            rows += [[cmd, doc], [cmd, doc, "--json"]]
        rows += [[cmd, *DOCS], [cmd, *DOCS, "--json"],
                 [cmd, "ex1.json", "empty.json", "conv.json"],
                 [cmd, "ex1.json", "invalid.json", "--json"]]
    for cmd in ("dual", "reduce", "minimize"):
        for doc in DOCS:
            rows += [[cmd, doc, "out.json"], [cmd, doc, "out.json", "--json"]]
            if cmd != "dual":
                rows.append([cmd, doc, "out.json", "--steps"])
    for doc in DOCS:
        rows += [["export-dot", doc], ["export-dot", doc, "--json"],
                 ["export-dot", doc, "-o", "g.dot"],
                 ["export-dot", doc, "-o", "g.dot", "--json"]]
    ex1_build = ["build", "trellis", "--field", "2", "--n", "3",
                 "--gens", "110,011,101", "--spans", "0:1,1:2,2:0"]
    parity_spans = ["build", "parity-check", "--field", "2", "--n", "4",
                    "--checks", "1110,0111", "--spans", "0:1"]
    rows += [
        ex1_build, ex1_build + ["--json"], ex1_build + ["-o", "b.json"],
        ex1_build + ["-o", "b.json", "--json"],
        ["build", "trellis", "--field", "3", "--n", "4", "--gens", "1210,0120",
         "--spans", "0:2,deg", "-o", "b.json"],
        ["build", "trellis", "--field", "2", "--n", "3", "--gens", "110,011",
         "--spans", "0:2,1:2", "--kind", "conventional"],
        ["build", "generator", "--field", "11", "--n", "2",
         "--gens", "1,10", "--gens", "0,3"],
        ["build", "parity-check", "--field", "2", "--n", "4", "--checks", "1110,0111"],
        parity_spans, parity_spans + ["--json"],
        ["build", "trellis", "--field", "2", "--n", "3", "--gens", "110"],
        ["build", "trellis", "--field", "2", "--n", "3", "--gens", "110", "--json"],
        ["build", "generator", "--field", "4", "--n", "2", "--gens", "11", "--json"],
    ]
    for argv in (["verify", "ex1.json", "--expect", "code.json"],
                 ["verify", "ex1.json", "--expect", "wrong.json"],
                 ["verify", "gf11.json", "--expect", "code11.json"],
                 ["verify", "gf11.json", "--expect", "wrong11.json"],
                 ["verify", "one.json", "--expect", "code3.json"],
                 ["verify", "one.json", "--expect", "long.json"],
                 ["verify", "ex1.json", "dual.json", "--expect", "code.json"],
                 ["verify", "ex1.json", "--expect", "nope.json"],
                 ["verify", "ex1.json", "--budget", "63"],
                 ["verify", "ex1.json", "--budget", "0"],
                 ["components", "ex1.json", "--budget", "-5"],
                 ["components", "ex1.json", "dual.json", "--budget", "0"],
                 ["analyze", "ex1.json", "--nope"],
                 ["components", "ex1.json", "--budget", "x"],
                 ["analyze", "--help"]):
        rows += [argv, argv + ["--json"]]
    for bad in ("empty.json", "invalid.json", "nope.json"):
        for cmd in (["analyze", bad], ["verify", bad], ["dual", bad, "out.json"],
                    ["minimize", bad, "out.json"], ["export-dot", bad]):
            rows += [cmd, cmd + ["--json"]]
    rows += [["analyze", "conv_dual.json"], ["analyze", "conv_dual.json", "--json"]]
    rows += [["analyze", "gf11_conv_dual.json"], ["analyze", "gf11_conv_dual.json", "--json"]]
    rows += [["components", "crit12.json"], ["components", "crit12.json", "--json"]]
    for wide in ("dim4000.json", "dim2000.json"):
        rows += [["analyze", wide], ["analyze", wide, "--json"]]
    rows += [["dual", "chain1600.json", "out.json"],
             ["dual", "chain1600.json", "out.json", "--json"]]
    return rows


def run_transcript(argv: list[str], where: Path) -> dict:
    """Run main in a directory holding transcript_files(); report what it did."""
    for name, text in transcript_files().items():
        (where / name).write_text(text, encoding="utf-8")
    before = set(os.listdir(where))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    written = sorted(set(os.listdir(where)) - before)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": {name: (where / name).read_text(encoding="utf-8") for name in written}}


@cache
def expected_transcripts() -> dict:
    return json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", transcript_argvs(), ids=" ".join)
def test_transcript(argv, tmp_path, monkeypatch):
    # argparse wraps usage text to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    assert run_transcript(argv, tmp_path) == expected_transcripts()[" ".join(argv)]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    os.environ["COLUMNS"] = "80"
    old = json.loads(TRANSCRIPTS.read_text(encoding="utf-8")) if TRANSCRIPTS.exists() else {}
    table = {}
    for argv in transcript_argvs():
        with tempfile.TemporaryDirectory() as where:
            table[" ".join(argv)] = run_transcript(argv, Path(where))
    TRANSCRIPTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    report = [f"added: {key}" for key in table if key not in old]
    report += [f"changed: {key}" for key in table if key in old and table[key] != old[key]]
    report += [f"removed: {key}" for key in old if key not in table]
    print("\n".join(report) or "no row changed")

"""ncl.cli.main runs a command with the cyclic garbage collector paused.

That is safe because the command path makes no reference cycles: with the
collector off, a collection after any command, exit-2 paths included,
finds nothing to free. This holds of the code whether or not main pauses
the collector. main leaves the collector as it found it, and no other
code under src/ncl names gc (an ast check, like tests/test_settings.py).
"""

import argparse
import ast
import gc
import json
import random

import pytest

import ncl.cli
from ncl import (GF2, GF3, Span, SpannedGenerator, emit_realization, parity_check_realization,
                 parse_realization, product_trellis, realized_code)
from ncl.cli import main
from fixtures import DATA
from helpers import random_realization, scoped_hits, scoped_hits_in_src

WRONG_CODE = '{"field": 2, "generators": [[1, 1, 1]]}\n'
REALIZATIONS = ("example1", "tanner", "tail-biting", "conventional", "multi-cycle")


def multi_cycle_realization():
    """A valid random realization with two or more independent cycles that
    realizes a nonzero code."""
    rng = random.Random(37)
    while True:
        r = random_realization(rng, GF2, max_constraints=4, extra_edges=2)
        topo = r.topology
        if (not r._issues and len(topo.states) - len(topo.constraints) + 1 >= 2
                and realized_code(r).dim > 0):
            return r


def tanner_graph():
    checks = [[1, 1, 1, 0, 0, 0], [0, 0, 1, 1, 1, 0], [1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1]]
    return parity_check_realization(GF2, 6, checks)


def tail_biting_trellis():
    gens = [SpannedGenerator((1, 2, 1, 0, 0, 0), Span(0, 2)),
            SpannedGenerator((0, 0, 1, 1, 0, 0), Span(2, 3)),
            SpannedGenerator((1, 0, 0, 0, 2, 1), Span(4, 0))]
    return product_trellis(GF3, 6, gens, "tail-biting")


def conventional_trellis():
    gens = [SpannedGenerator((1, 1, 0, 0), Span(0, 1)),
            SpannedGenerator((0, 1, 0, 1), Span(1, 3))]
    return product_trellis(GF2, 4, gens, "conventional")


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """name -> path of each document; every realization also gets
    "<name>.code", a code document of what it realizes."""
    where = tmp_path_factory.mktemp("gc_docs")
    paths = {"example1": DATA / "example1.json", "wrong": where / "wrong.json",
             "bad": where / "bad.json", "field4": where / "field4.json",
             "missing": where / "nope.json"}
    paths["wrong"].write_text(WRONG_CODE, encoding="utf-8")
    paths["bad"].write_text("{nope", encoding="utf-8")
    paths["field4"].write_text(
        '{"field": 4, "symbols": [], "states": [], "constraints": []}', encoding="utf-8")
    for name, build in (("tanner", tanner_graph), ("tail-biting", tail_biting_trellis),
                        ("conventional", conventional_trellis),
                        ("multi-cycle", multi_cycle_realization)):
        paths[name] = where / f"{name}.json"
        paths[name].write_text(emit_realization(build()), encoding="utf-8")
    for name in REALIZATIONS:
        r = parse_realization(paths[name].read_text(encoding="utf-8"))
        code = {"field": r.field.p, "generators": realized_code(r).space.basis.tolist()}
        paths[f"{name}.code"] = where / f"{name}.code.json"
        paths[f"{name}.code"].write_text(json.dumps(code), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()} | {"out": str(where / "out")}


COMMANDS = {
    "analyze": ["analyze", "{doc}"], "analyze --json": ["analyze", "{doc}", "--json"],
    "behavior": ["behavior", "{doc}"],
    "reduce --steps": ["reduce", "{doc}", "{out}.json", "--steps"],
    "dual": ["dual", "{doc}", "{out}.json"], "verify": ["verify", "{doc}"],
    "verify --expect": ["verify", "{doc}", "--expect", "{code}", "--json"],
    "components": ["components", "{doc}"], "export-dot": ["export-dot", "{doc}"],
    "export-dot -o": ["export-dot", "{doc}", "-o", "{out}.dot"],
}
# (id, exit code, document, argv)
CASES = [(f"{name}: {label}", 0, name, argv)
         for name in REALIZATIONS for label, argv in COMMANDS.items()] + [
    ("conventional: minimize --steps", 0, "conventional",
     ["minimize", "{doc}", "{out}.json", "--steps", "--json"]),
    ("build generator", 0, None,
     ["build", "generator", "--field", "3", "--n", "4", "--gens", "1210,0111"]),
    ("build parity-check with a zero column", 0, None,
     ["build", "parity-check", "--field", "2", "--n", "4", "--checks", "1100,0110",
      "-o", "{out}.json"]),
    ("build trellis", 0, None,
     ["build", "trellis", "--field", "2", "--n", "3", "--gens", "110,011,101",
      "--spans", "0:1,1:2,2:0", "--json", "-o", "{out}.json"]),
    ("verify --expect, wrong code", 1, "example1", ["verify", "{doc}", "--expect", "{wrong}"]),
    ("bad JSON", 2, "bad", ["analyze", "{doc}", "--json"]),
    ("field 4", 2, "field4", ["analyze", "{doc}"]),
    ("build over field 4", 2, None, ["build", "generator", "--field", "4", "--n", "2",
                                     "--gens", "11", "--json"]),
    ("minimize on a cycle", 2, "example1", ["minimize", "{doc}", "{out}.json"]),
    ("verify --budget 0", 2, "example1", ["verify", "{doc}", "--budget", "0"]),
    ("components --budget 0", 2, "example1", ["components", "{doc}", "--budget", "0", "--json"]),
    ("missing file", 2, "missing", ["analyze", "{doc}"]),
    ("components over budget", 2, "example1", ["components", "{doc}", "--budget", "8"]),
]


def argv_for(argv, name, docs):
    fill = {"doc": docs.get(name, ""), "code": docs.get(f"{name}.code", ""),
            "wrong": docs["wrong"], "out": docs["out"]}
    return [arg.format(**fill) for arg in argv]


@pytest.mark.parametrize("want, name, argv", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_the_command_path_makes_no_cycles(docs, capsys, want, name, argv):
    argv = argv_for(argv, name, docs)
    ncl.cli._build_parser()  # cached after its first call; building it leaves garbage
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, found) == (want, 0)


RESTORE_CASES = {
    "exit 0": (0, ["analyze", "{doc}"]),
    "exit 1": (1, ["verify", "{doc}", "--expect", "{wrong}"]),
    "exit 2": (2, ["minimize", "{doc}", "{out}.json"]),
    "usage error": (2, ["analyze", "{doc}", "--nope"]),
    "help": (0, ["analyze", "--help"]),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", RESTORE_CASES)
def test_main_leaves_the_collector_as_it_found_it(docs, capsys, case, enabled):
    want, argv = RESTORE_CASES[case]
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(argv_for(argv, "example1", docs))
        after = gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, after) == (want, enabled)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_command_that_raises_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    def boom(args):
        assert not gc.isenabled()  # the command runs paused
        raise RuntimeError("boom")

    class OneCommand:
        def parse_args(self, argv):
            return argparse.Namespace(func=boom, json=False)

    monkeypatch.setattr(ncl.cli, "_build_parser", OneCommand)
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            main([])
        after = gc.isenabled()
    finally:
        gc.enable()
    assert after == enabled


def is_gc_name(node: ast.AST) -> bool:
    """The name gc, bare, imported or imported from."""
    return ((isinstance(node, ast.Name) and node.id == "gc")
            or (isinstance(node, ast.alias) and node.name == "gc")
            or (isinstance(node, ast.ImportFrom) and node.module == "gc"))


def test_only_cli_main_names_gc():
    uses = scoped_hits_in_src(is_gc_name)
    # the module-level import of cli, and main's pause and restore
    assert set(uses) == {"cli", "cli.main"}


def test_a_gc_name_elsewhere_is_reported():
    source = ("import gc\nfrom gc import disable\n"
              "def analyze(r):\n    gc.disable()\n"
              "class Topology:\n    def grow(self):\n        import gc as g\n"
              "        return g\n")
    assert scoped_hits("realization", source, is_gc_name) == [
        "realization", "realization", "realization.analyze", "realization.Topology.grow"]

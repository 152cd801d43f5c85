"""The traced benchmark run (perfbench/run.py --trace 1) wraps ncl's
functions and methods by name; every name it wraps must still exist."""

import importlib.util
from pathlib import Path

import ncl.cli
import ncl.reduction
from ncl import GF2, Span, SpannedGenerator, Subspace, product_trellis

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_traced_name():
    spans = load_spans()
    main, trim_state = ncl.cli.main, ncl.reduction.trim_state
    orthogonal = Subspace.__dict__["orthogonal"]
    with spans.Tracer().installed():
        assert ncl.cli.main is not main
        assert ncl.reduction.trim_state is not trim_state
    assert (ncl.cli.main, ncl.reduction.trim_state) == (main, trim_state)
    assert Subspace.__dict__["orthogonal"] is orthogonal


def test_minimizer_pair_checks_are_traced_under_its_span():
    # the benchmark counts reduction pair checks from these spans
    spans = load_spans()
    tracer = spans.Tracer()
    r = product_trellis(GF2, 3, [SpannedGenerator((1, 1, 0), Span(0, 2)),
                                 SpannedGenerator((0, 1, 1), Span(1, 2))], "conventional")
    with tracer.installed():
        ncl.reduction.minimize_cycle_free(r)
    names = [tracer.names[s[0]] for s in tracer.spans]
    minimizer = names.index("reduction.minimize_cycle_free@reduction")
    checks = [s for s, name in zip(tracer.spans, names)
              if name == "realization.is_trim@reduction"]
    assert checks and all(s[3] == minimizer for s in checks)

"""Correctness checks on every op's output, run outside the timed region.

The rank and row-space tests use their own GF(p) elimination below, not
``ncl.fields``, so a defect in ncl's linear algebra cannot hide itself.
The cli-small checks use ``ncl.oracle``, the repo's brute-force reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from workloads import Op, Workload

VERIFY_OK = "ok: behavior matches brute force\n"


def rref_mod_p(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p), one whole-matrix update per pivot."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        m[[r, i]] = m[[i, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        factors = m[:, c].copy()
        factors[r] = 0
        m = (m - np.outer(factors, m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank_mod_p(a, p: int) -> int:
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(rref_mod_p(a, p)[1])


def nullspace_mod_p(a: np.ndarray, cols: int, p: int) -> np.ndarray:
    """Rows spanning {x : a @ x = 0 mod p}."""
    red, pivots = rref_mod_p(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for j, f in enumerate(free):
        basis[j, f] = 1
        for i, c in enumerate(pivots):
            basis[j, c] = -red[i, f] % p
    return basis


def same_row_space(a, b, p: int) -> bool:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    ra, rb = rank_mod_p(a, p), rank_mod_p(b, p)
    return ra == rb == rank_mod_p(np.vstack([a, b]), p)


def realized_generators(doc: dict) -> np.ndarray:
    """Generators of the code a realization document realizes, symbols in order.

    Kernel of the stacked local parity checks over all symbol and state
    coordinates, projected onto the symbols.
    """
    p = doc["field"]
    variables = [(v["id"], v["dim"]) for v in doc["symbols"] + doc["states"]]
    offset, at = {}, 0
    for vid, dim in variables:
        offset[vid] = (at, dim)
        at += dim
    total = at
    n_sym = sum(v["dim"] for v in doc["symbols"])
    checks = [np.zeros((0, total), dtype=np.int64)]
    for c in doc["constraints"]:
        width = sum(offset[v][1] for v in c["vars"])
        gens = np.array(c["generators"], dtype=np.int64).reshape(len(c["generators"]), width)
        local = nullspace_mod_p(gens, width, p)
        emb = np.zeros((local.shape[0], total), dtype=np.int64)
        pos = 0
        for v in c["vars"]:
            start, dim = offset[v]
            emb[:, start:start + dim] = local[:, pos:pos + dim]
            pos += dim
        checks.append(emb)
    behavior = nullspace_mod_p(np.vstack(checks), total, p)
    return behavior[:, :n_sym]


@dataclass
class Outcome:
    """What one op produced: exit code, captured streams and written bytes."""

    code: int
    stdout: str
    stderr: str
    written: dict[str, bytes]


class Checker:
    """Checks the outputs of one workload's ops."""

    def __init__(self, w: Workload) -> None:
        self.w = w

    def check(self, op: Op, out: Outcome) -> str | None:
        """None when the op's output is correct, else the reason it is not."""
        if out.code != 0:
            return f"exit code {out.code}: {out.stderr.strip()[:200]}"
        if self.w.name == "tanner-analyze":
            return self._tanner(op, out)
        if self.w.name == "trellis-reduce":
            return self._trellis(op, out)
        return self._small(op, out)

    def _tanner(self, op: Op, out: Outcome) -> str | None:
        meta = self.w.meta[op.doc]
        report = json.loads(out.stdout)
        want = meta["n"] - rank_mod_p(meta["checks"], 2)
        if report["realized_dim"] != want:
            return f"realized_dim {report['realized_dim']} != n - rank(H) = {want}"
        if report["observable"] is not True:
            return "a parity-check realization must be observable"
        return None

    def _trellis(self, op: Op, out: Outcome) -> str | None:
        from ncl import analyze, parse_realization
        meta = self.w.meta[op.doc]
        text = out.written[op.outputs[0]].decode("utf-8")
        r = parse_realization(text)
        if not same_row_space(realized_generators(json.loads(text)), meta["generators"],
                              meta["p"]):
            return "written document does not realize the input generators' row space"
        rep = analyze(r)
        if not (rep.observable and rep.reduced):
            return f"result not observable and reduced: {rep.observable}, {rep.reduced}"
        if not all(c.fully_trim and c.proper.ok for c in rep.constraints):
            return "result is not trim and proper at every constraint"
        return None

    def _small(self, op: Op, out: Outcome) -> str | None:
        from ncl import parse_realization
        from ncl.oracle import brute_realized_words
        if op.command == "verify":
            return None if out.stdout == VERIFY_OK else f"verify said {out.stdout.strip()!r}"
        if op.command == "components":
            first = out.stdout.splitlines()[0]
            ok = first.startswith("components: ") and int(first.split()[1]) >= 1
            return None if ok else f"bad components output {first!r}"
        source = json.loads(self.w.docs[op.doc])
        p = source["field"]
        if op.command == "analyze":
            want = rank_mod_p(realized_generators(source), p)
            got = json.loads(out.stdout)["realized_dim"]
            return None if got == want else f"realized_dim {got}, independent rank {want}"
        text = out.written[op.outputs[0]].decode("utf-8")
        if op.command == "dual":
            # the dual realizes the dual code: orthogonal, of complementary dimension
            primal = realized_generators(source)
            dual = realized_generators(json.loads(text))
            if ((dual @ primal.T) % p).any():
                return "the dual realizes words not orthogonal to the primal code"
            if rank_mod_p(dual, p) + rank_mod_p(primal, p) != primal.shape[1]:
                return "the dual code has the wrong dimension"
            return None
        before = brute_realized_words(parse_realization(self.w.docs[op.doc]))
        if brute_realized_words(parse_realization(text)) != before:
            return f"{op.command} changed the realized code"
        return None


def step_kinds(stdout: str) -> set[str]:
    """Step kinds listed by ``reduce --steps`` (every line but the last)."""
    return {line.split()[0] for line in stdout.splitlines()[:-1]}

"""Linear block codes carried on named, ordered coordinate blocks.

A BlockedCode is a subspace together with a partition of its ambient
coordinates into named blocks (symbol and state variables, in this
package). Projection keeps a subset of blocks; cross-section keeps the
words that vanish off that subset, then drops the zeroed coordinates:
one `fields._vanishing` call each, with the other blocks skipped. Their
dimensions alone are the rank of the basis's columns on the blocks and
the dimension minus the rank off them, which the subspace answers for
every field (`Subspace._block_rank`).

Codes and subspaces are immutable, so a subspace keeps check rows read
off its RREF basis with no elimination, and builds the check matrix,
the dual's basis, at most once: those rows in RREF. Codes on one shared
subspace (every constraint with the same generator rows in a parsed
document), or kept by a derived realization, share both. A
realization's unobservable behavior is solved from the rows, and its
behavior from the check matrices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, EnumerationLimitError, UnknownBlockError
from .fields import PrimeField, Subspace, _vanishing

DEFAULT_MAX_POINTS = 1 << 22


def _trusted(cls: type, **fields) -> object:
    """Frozen dataclass or Realization `cls` with `fields` set, no checks run: for checked parts."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class BlockStructure:
    """Ordered (block id, dimension) pairs defining a coordinate frame."""

    blocks: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        norm = tuple((str(i), operator.index(d)) for i, d in self.blocks)
        object.__setattr__(self, "blocks", norm)
        seen = set()
        for bid, d in norm:
            if d < 0:
                raise ValueError(f"block {bid!r} has negative dim {d}")
            if bid in seen:
                raise ValueError(f"duplicate block id {bid!r}")
            seen.add(bid)

    @cached_property
    def total(self) -> int:
        return sum(d for _, d in self.blocks)

    @cached_property
    def _offsets(self) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        at = 0
        for bid, d in self.blocks:
            out[bid] = (at, d)
            at += d
        return out

    def ids(self) -> tuple[str, ...]:
        return tuple(bid for bid, _ in self.blocks)

    def dim(self, block_id: str) -> int:
        return self._entry(block_id)[1]

    def offset(self, block_id: str) -> int:
        return self._entry(block_id)[0]

    def _entry(self, block_id: str) -> tuple[int, int]:
        try:
            return self._offsets[block_id]
        except KeyError:
            raise UnknownBlockError(f"unknown block {block_id!r}") from None

    def positions(self, block_ids: Sequence[str]) -> np.ndarray:
        """Column indices of the given blocks, in the order given."""
        cols = [c for at, d in self._spans(block_ids) for c in range(at, at + d)]
        return np.asarray(cols, dtype=np.intp)

    def _spans(self, block_ids: Sequence[str]) -> list[tuple[int, int]]:
        """(offset, dim) of each given block, in the order given."""
        block_ids = list(block_ids)
        if len(set(block_ids)) != len(block_ids):
            raise ValueError(f"duplicate block ids in {block_ids!r}")
        return [self._entry(bid) for bid in block_ids]

    def restrict(self, block_ids: Sequence[str]) -> "BlockStructure":
        return BlockStructure(tuple((bid, self.dim(bid)) for bid in block_ids))


class BlockedCode:
    """A linear code whose ambient coordinates are grouped into blocks."""

    __slots__ = ("structure", "space")

    def __init__(self, structure: BlockStructure, space: Subspace) -> None:
        if space.ambient != structure.total:
            raise DimensionMismatchError(
                f"space ambient {space.ambient} != structure total {structure.total}")
        self.structure = structure
        self.space = space

    @classmethod
    def from_rows(cls, field: PrimeField, structure: BlockStructure, rows) -> "BlockedCode":
        return cls(structure, Subspace.spanned_by(field, structure.total, rows))

    @property
    def field(self) -> PrimeField:
        return self.space.field

    @property
    def dim(self) -> int:
        return self.space.dim

    def project(self, block_ids: Sequence[str]) -> "BlockedCode":
        """Image of coordinate dropping: keep the given blocks, in that order."""
        cols = self.structure.positions(block_ids)
        return BlockedCode(self.structure.restrict(block_ids),
                           _vanishing(self.field, self.space.basis.array[:, cols]))

    def projection_dim(self, block_ids: Sequence[str]) -> int:
        """dim of project(block_ids): the rank of the basis columns there."""
        return self.space._block_rank(self.structure._spans(block_ids))

    def cross_section_dim(self, block_ids: Sequence[str]) -> int:
        """dim of cross_section(block_ids): dim minus the rank off those blocks."""
        return self.dim - self.space._block_rank(self.structure._spans(block_ids), off=True)

    def cross_section(self, block_ids: Sequence[str]) -> "BlockedCode":
        """Subcode vanishing off the given blocks, seen on those blocks."""
        kept = set(block_ids)
        drop = self.structure.positions([b for b in self.structure.ids() if b not in kept])
        cols = np.concatenate([drop, self.structure.positions(block_ids)])
        return BlockedCode(self.structure.restrict(block_ids),
                           _vanishing(self.field, self.space.basis.array[:, cols], len(drop)))

    def dual(self) -> "BlockedCode":
        """The orthogonal code on the same blocks: its basis is this code's
        check matrix, which the subspace builds on the first call and keeps."""
        return BlockedCode(self.structure, self.space.orthogonal())

    def enumerate(self, max_points: int = DEFAULT_MAX_POINTS) -> Iterator[tuple[int, ...]]:
        """All codewords, most significant coefficient first."""
        p = self.field.p
        count = p ** self.dim
        if count > max_points:
            raise EnumerationLimitError(f"{count} codewords exceed the cap {max_points}")
        basis = self.space.basis.array
        powers = p ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        chunk = 1 << 13
        for lo in range(0, count, chunk):
            idx = np.arange(lo, min(lo + chunk, count), dtype=np.int64)
            coeffs = (idx[:, None] // powers) % p
            yield from map(tuple, ((coeffs @ basis) % p).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockedCode):
            return NotImplemented
        return self.structure == other.structure and self.space == other.space

    def __repr__(self) -> str:
        return f"<code dim {self.dim} on blocks {list(self.structure.ids())!r}>"


def format_word(field: PrimeField, word: Sequence[int]) -> str:
    """Residues as a digit string for p <= 10, comma-separated otherwise."""
    vals = [int(x) % field.p for x in word]
    if field.p <= 10:
        return "".join(str(x) for x in vals)
    return ",".join(str(x) for x in vals)


def parse_word(field: PrimeField, text: str) -> tuple[int, ...]:
    """Inverse of format_word; the empty string is the empty word."""
    text = text.strip()
    if not text:
        return ()
    if field.p <= 10 and "," not in text:
        if not text.isdigit():
            raise ValueError(f"not a digit string: {text!r}")
        return tuple(int(ch) % field.p for ch in text)
    return tuple(int(part) % field.p for part in text.split(","))

"""Formulas evaluated as value vectors over a finite algebra.

A value vector holds a formula's value under every valuation of a sorted
letter tuple, in `product(range(n), repeat=k)` order (the last letter
varies fastest).  Its entries are element indices, so a vector is `bytes`
when the algebra has at most 256 elements and a tuple of ints otherwise.
Each vector is built once from its children's vectors: conjunction and
disjunction are lookups in the meet and join tables, box and diamond in
unary tables.

Two users share this kernel: `proofs._VectorScreen` refutes pairs on
small modal lattices (the proof search's subgoals and the interpolant
search's candidate obligations), and `lframe.frame_validates` evaluates
a pair over a frame's filters.  The scalar evaluators
(`lattice.evaluate`, `lframe.truth_set`) stay the reference oracles.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from operator import getitem

from .errors import PreconditionViolated
from .formulas import BOT, TOP, And, Box, Dia, Formula, Letter, Or


class ValueVectors:
    """Value-vector evaluation over one finite algebra.

    Subclasses supply `n`, `top`, `bot` and the tables `meet`, `join`
    (rows of element indices), `box` and `diamond` (element indices; None
    on a plain lattice).  A table is read only when a formula first needs
    it, so a subclass may compute its tables lazily."""

    n: int
    top: int
    bot: int

    @cached_property
    def _pack(self):
        return bytes if self.n <= 256 else tuple

    @cached_property
    def _unary(self):
        """(box, diamond) as `bytes.translate` tables or tuples; None on a
        plain lattice."""
        if self.box is None:
            return None
        if self.n <= 256:
            pad = bytes(256 - self.n)
            return bytes(self.box) + pad, bytes(self.diamond) + pad
        return tuple(self.box), tuple(self.diamond)

    def seed(self, ls: tuple[str, ...]) -> dict[Formula, bytes | tuple]:
        """A fresh memo holding the vectors of the letters and constants."""
        n, k, pack = self.n, len(ls), self._pack
        size = n**k
        memo = {TOP: pack((self.top,)) * size, BOT: pack((self.bot,)) * size}
        for j, name in enumerate(ls):
            stride = n ** (k - 1 - j)
            block = pack(chain.from_iterable(repeat(d, stride) for d in range(n)))
            memo[Letter(name)] = block * n**j
        return memo

    def vector(self, memo: dict, f: Formula) -> bytes | tuple:
        """Value vector of f, built from its children's and memoized."""
        v = memo.get(f)
        if v is not None:
            return v
        if isinstance(f, (And, Or)):
            rows = self.meet if isinstance(f, And) else self.join
            left = self.vector(memo, f.lhs)
            right = self.vector(memo, f.rhs)
            v = self._pack(map(getitem, map(rows.__getitem__, left), right))
        elif isinstance(f, (Box, Dia)):
            unary = self._unary
            if unary is None:
                raise PreconditionViolated("modal formula on a plain lattice")
            table = unary[isinstance(f, Dia)]
            arg = self.vector(memo, f.arg)
            if self._pack is bytes:
                v = arg.translate(table)
            else:
                v = tuple(map(table.__getitem__, arg))
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[f] = v
        return v

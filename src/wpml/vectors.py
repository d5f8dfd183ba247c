"""Formulas evaluated as packed value vectors over finite algebras.

A value vector holds a formula's value under every valuation of a sorted
letter tuple, in `product(range(n), repeat=k)` order (the last letter
varies fastest).  Each vector is built once from its children's vectors.

`ScreenTables` packs a set of small lattices so that a formula is
evaluated on all of them at once: its packed vector is one `bytes`, the
per-algebra vectors concatenated in set order, whose entries are element
ids global to the set.  A pair of vectors becomes a vector of pair codes
by one big-integer addition, and meet, join, box, diamond and the order
test are each one `bytes.translate`.  A pair code must fit in a byte, so
each algebra has at most 16 elements and the sum of n**2 over the set is
at most 256; every screening set that `proofs` builds is well inside
that (at most 202).  The tables have two users.  `PackedScreen` holds
one search's budget and memo over a screening set of modal lattices,
evaluates a pair only on the screens within budget for its letters, and
never raises ResourceBound; `refutes` screens a candidate's obligations
and `stretch` serves the proof search (see `proofs`).  `entailment`
evaluates batches of relations of one L-frame on the tables of its
filter lattice, passing their box and diamond tables and offsets to
`vector`.

The scalar evaluators (`lattice.evaluate`, `lattice.algebra_validates`,
`lframe.truth_set`) stay the reference oracles.
"""

from __future__ import annotations

from typing import Optional

from .errors import PreconditionViolated
from .formulas import BOT, TOP, And, Box, Dia, Formula, Letter, Or


class ScreenTables:
    """The packed tables of a set of lattices, whose pair codes fit in
    one byte.  Raises PreconditionViolated for an algebra of more than 16
    elements, or when the sum of n**2 over the set passes 256.

    Element x of screen s has the global id `base_s + x` and the pair
    (x, y) of its elements the code `off_s + x * n_s + y`, where base_s
    and off_s are the sums of n and of n**2 over the screens before s.
    The code of the global ids (gx, gy) is `scale[gx] + local[gy]`;
    `meet`, `join` and `nleq` map it to the global id of x meet y, of
    x join y, and to 1 iff not x <= y.  `unary_tables` are box and
    diamond from global ids to global ids, the identity on a plain
    lattice; `first_plain` is the position of the first plain lattice,
    the number of algebras if there is none."""

    def __init__(self, algebras):
        algebras = tuple(algebras)
        sizes = self.sizes = tuple(a.n for a in algebras)
        for n in sizes:
            if n > 16:
                raise PreconditionViolated(
                    f"screen algebra of {n} elements (at most 16)"
                )
        area = sum(n * n for n in sizes)
        if area > 256:
            raise PreconditionViolated(
                f"screening set with a sum of n**2 of {area} (at most 256)"
            )
        plain = (s for s, a in enumerate(algebras) if getattr(a, "box", None) is None)
        self.first_plain = next(plain, len(sizes))
        scale, local, meet, join, nleq, box, dia = (bytearray(256) for _ in range(7))
        self.tops, self.bots, self.bases = [], [], []
        base = off = 0
        for a in algebras:
            n = a.n
            plain = getattr(a, "box", None) is None
            for x in range(n):
                scale[base + x] = off + x * n
                local[base + x] = x
                box[base + x] = base + (x if plain else a.box[x])
                dia[base + x] = base + (x if plain else a.diamond[x])
                for y in range(n):
                    meet[off + x * n + y] = base + a.meet[x][y]
                    join[off + x * n + y] = base + a.join[x][y]
                    nleq[off + x * n + y] = not a.leq[x][y]
            self.tops.append(base + a.top)
            self.bots.append(base + a.bot)
            self.bases.append(base)
            base += n
            off += n * n
        self.scale, self.local = bytes(scale), bytes(local)
        self.meet, self.join, self.nleq = bytes(meet), bytes(join), bytes(nleq)
        self.unary_tables = bytes(box), bytes(dia)

    def seeds(self, k: int, count: int) -> tuple[bytes, ...]:
        """Packed vectors of T, F and the k letters, in letter order, over
        the first `count` screens."""
        columns = []
        for s in range(count):
            n, base, size = self.sizes[s], self.bases[s], self.sizes[s] ** k
            column = [bytes((self.tops[s],)) * size, bytes((self.bots[s],)) * size]
            ids = [bytes((base + d,)) for d in range(n)]
            for j in range(k):
                stride = n ** (k - 1 - j)
                column.append(b"".join([d * stride for d in ids]) * n**j)
            columns.append(column)
        return tuple(b"".join(row) for row in zip(*columns))

    def vector(
        self,
        memo: dict[Formula, bytes],
        f: Formula,
        unary: Optional[tuple[bytes, bytes]] = None,
        offsets: int = 0,
    ) -> bytes:
        """Packed vector of f, built from its children's and memoized.
        Box and diamond translate through `unary`, the pair of box and
        diamond tables (these tables' own by default), after `offsets` is
        added to the argument's vector as one big integer (`entailment`
        batches relations of one L-frame that way)."""
        v = memo.get(f)
        if v is not None:
            return v
        if isinstance(f, (And, Or)):
            left = self.vector(memo, f.lhs, unary, offsets)
            right = self.vector(memo, f.rhs, unary, offsets)
            v = _pair_codes(self, left, right).translate(
                self.meet if isinstance(f, And) else self.join
            )
        elif isinstance(f, (Box, Dia)):
            arg = self.vector(memo, f.arg, unary, offsets)
            if offsets:
                arg = (int.from_bytes(arg, "big") + offsets).to_bytes(len(arg), "big")
            v = arg.translate((unary or self.unary_tables)[isinstance(f, Dia)])
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[f] = v
        return v

    def escape(self, left: bytes, right: bytes) -> int:
        """The first position whose left value is not below its right
        one, or -1."""
        return _pair_codes(self, left, right).translate(self.nleq).find(1)


def _pair_codes(tables: ScreenTables, left: bytes, right: bytes) -> bytes:
    """The pair code of each position: every sum is below 256, so the
    big-integer addition carries nothing from one byte to the next."""
    size = len(left)
    codes = int.from_bytes(left.translate(tables.scale), "big") + int.from_bytes(
        right.translate(tables.local), "big"
    )
    return codes.to_bytes(size, "big")


def _seeded(seeds: tuple[bytes, ...], ls: tuple[str, ...]) -> dict[Formula, bytes]:
    """A fresh memo from `ScreenTables.seeds` over the sorted letters `ls`."""
    top, bot, *vectors = seeds
    memo = {TOP: top, BOT: bot}
    memo.update(zip(map(Letter, ls), vectors))
    return memo


class PackedScreen:
    """One search's screen over a `ScreenTables` of modal lattices: its
    budget, and its packed vectors per sorted letter tuple, kept for as
    long as the screen lives.  Raises PreconditionViolated for a plain
    lattice in the set, on which a modal pair has no value.

    Over k letters, only the screens before the first one with
    n**k > budget are evaluated; a pair that none of them refutes is not
    screened out.  Screening is sound either way, so the budget changes
    what the screen costs, never a verdict, and no screen raises
    ResourceBound."""

    def __init__(self, tables: ScreenTables, budget: int):
        if tables.first_plain < len(tables.sizes):
            raise PreconditionViolated(
                f"screen {tables.first_plain} is a plain lattice (modal lattices only)"
            )
        self.tables, self.budget = tables, budget
        # sorted letters -> memo (formula -> packed vector)
        self.memo: dict[tuple[str, ...], dict[Formula, bytes]] = {}
        self._cuts: dict[int, tuple[int, int]] = {}
        # k -> the packed vectors of T, F and k letters; kept per search,
        # since wide candidate goals make them large
        self._seeds: dict[int, tuple[bytes, ...]] = {}

    def _cut(self, k: int) -> tuple[int, int]:
        """`(cut, end)` over k letters: the first screen with n**k > budget
        (the number of screens if none) and the length of the packed
        vectors of the screens before it."""
        found = self._cuts.get(k)
        if found is None:
            sizes = self.tables.sizes
            over = (s for s, n in enumerate(sizes) if n**k > self.budget)
            cut = next(over, len(sizes))
            found = self._cuts[k] = cut, sum(n**k for n in sizes[:cut])
        return found

    def stretch(
        self, ls: tuple[str, ...]
    ) -> tuple[Optional[dict[Formula, bytes]], int]:
        """`(memo, end)` for every pair over the sorted letters `ls`: the
        memo of their packed vectors, None when no screen is within
        budget, and the vectors' length.  The pair is refuted iff some
        position before `end` has its left value not below its right."""
        k = len(ls)
        cut, end = self._cut(k)
        if not end:
            return None, 0
        memo = self.memo.get(ls)
        if memo is None:
            seeds = self._seeds.get(k)
            if seeds is None:
                seeds = self._seeds[k] = self.tables.seeds(k, cut)
            memo = self.memo[ls] = _seeded(seeds, ls)
        return memo, end

    def refutes(self, goals) -> bool:
        """For (lhs, rhs, sorted letters) goals: whether some goal, left
        goal first, is refuted by a screen within budget for its
        letters."""
        vector = self.tables.vector
        for lhs, rhs, ls in goals:
            memo, end = self.stretch(ls)
            if end and self.tables.escape(vector(memo, lhs), vector(memo, rhs)) >= 0:
                return True
        return False

    @property
    def vector_entries(self) -> int:
        """Packed vectors held: one per formula and letter tuple."""
        return sum(map(len, self.memo.values()))

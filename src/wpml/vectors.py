"""Formulas evaluated as value vectors over finite algebras.

A value vector holds a formula's value under every valuation of a sorted
letter tuple, in `product(range(n), repeat=k)` order (the last letter
varies fastest).  Each vector is built once from its children's vectors.

`ValueVectors` evaluates over one algebra: its entries are element
indices, so a vector is `bytes` when the algebra has at most 256
elements and a tuple of ints otherwise; conjunction and disjunction are
lookups in the meet and join tables, box and diamond in unary tables.
`lframe.frame_validates` uses it only on frames of more than 16 filters.

`ScreenTables` packs a whole screening set of small lattices so that a
formula is evaluated on all of them at once: its packed vector is one
`bytes`, the per-algebra vectors concatenated in screen order, whose
entries are element ids global to the set.  A pair of vectors becomes a
vector of pair codes by one big-integer addition, and meet, join, box,
diamond and the order test are each one `bytes.translate`.  A pair code
must fit in a byte, so the set is one table only if each algebra has at
most 16 elements and the sum of n**2 over the set is at most 256; every
screening set that `proofs` builds is well inside that (at most 202).
`PackedScreen` holds one search's budget and memo over those tables; the
proof search screens its subgoals and the interpolant search its
candidates' obligations with it.  `lframe.frame_validates` runs the same
kernel on one table: the filter lattice of an L-frame of at most 16
filters, with the box and diamond tables of the modal L-frame it
searches.

The scalar evaluators (`lattice.evaluate`, `lattice.algebra_validates`,
`lframe.truth_set`) stay the reference oracles.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import getitem
from typing import Optional

from .errors import PreconditionViolated, ResourceBound
from .formulas import BOT, TOP, And, Box, Dia, Formula, Letter, Or, is_modality_free


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


class ScreenTables:
    """The packed tables of one screening set, whose pair codes fit in
    one byte.  Raises PreconditionViolated for an algebra of more than 16
    elements, or when the sum of n**2 over the set passes 256.

    Element x of screen s has the global id `base_s + x` and the pair
    (x, y) of its elements the code `off_s + x * n_s + y`, where base_s
    and off_s are the sums of n and of n**2 over the screens before s.
    The code of the global ids (gx, gy) is `scale[gx] + local[gy]`;
    `meet`, `join` and `nleq` map it to the global id of x meet y, of
    x join y, and to 1 iff not x <= y.  `unary_tables` are box and
    diamond from global ids to global ids (the identity on a plain
    lattice, whose stretch of a vector is never read for a modal pair).

    `lframe` keeps one table per L-frame of at most 16 filters, over its
    filter algebra, and passes each modal L-frame's own box and diamond
    tables to `vector`."""

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
        self._ends: dict[int, tuple[int, ...]] = {}

    def ends(self, k: int) -> tuple[int, ...]:
        """End of each screen's stretch of a packed vector over k letters."""
        ends = self._ends.get(k)
        if ends is None:
            ends = self._ends[k] = tuple(accumulate(n**k for n in self.sizes))
        return ends

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

    def vector(self, memo: dict[Formula, bytes], f: Formula, modal) -> bytes:
        """Packed vector of f, built from its children's and memoized.
        Box and diamond are `modal.unary_tables`, read at the first
        modal subformula: the tables themselves, or a modal L-frame over
        their filter algebra."""
        v = memo.get(f)
        if v is not None:
            return v
        if isinstance(f, (And, Or)):
            left = self.vector(memo, f.lhs, modal)
            right = self.vector(memo, f.rhs, modal)
            v = _pair_codes(self, left, right).translate(
                self.meet if isinstance(f, And) else self.join
            )
        elif isinstance(f, (Box, Dia)):
            arg = self.vector(memo, f.arg, modal)
            v = arg.translate(modal.unary_tables[isinstance(f, Dia)])
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[f] = v
        return v

    def escape(self, left: bytes, right: bytes, end: Optional[int] = None) -> int:
        """The first position before `end` whose left value is not below
        its right one, or -1."""
        return _pair_codes(self, left, right).translate(self.nleq).find(1, 0, end)


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
    """One search's screen over a `ScreenTables`: its budget, and its
    packed vectors per sorted letter tuple, kept for as long as the
    screen lives.

    Over k letters, only the screens before the first one with
    n**k > budget are evaluated; that screen is where the literal loop
    over the algebras would raise ResourceBound(n**k, budget)."""

    def __init__(self, tables: ScreenTables, budget: int):
        self.tables, self.budget = tables, budget
        # sorted letters -> memo (formula -> packed vector)
        self.memo: dict[tuple[str, ...], dict[Formula, bytes]] = {}
        self._cuts: dict[int, int] = {}
        # k -> the packed vectors of T, F and k letters; kept per search,
        # since wide candidate goals make them large
        self._seeds: dict[int, tuple[bytes, ...]] = {}

    def _cut(self, k: int) -> int:
        cut = self._cuts.get(k)
        if cut is None:
            sizes = self.tables.sizes
            over = (s for s, n in enumerate(sizes) if n**k > self.budget)
            cut = self._cuts[k] = next(over, len(sizes))
        return cut

    def _memo(self, ls: tuple[str, ...]) -> dict[Formula, bytes]:
        memo = self.memo.get(ls)
        if memo is None:
            k = len(ls)
            seeds = self._seeds.get(k)
            if seeds is None:
                seeds = self._seeds[k] = self.tables.seeds(k, self._cut(k))
            memo = self.memo[ls] = _seeded(seeds, ls)
        return memo

    def first_event(
        self, lhs: Formula, rhs: Formula, ls: tuple[str, ...], stop: int
    ) -> Optional[tuple[int, bool]]:
        """The first screen before `stop` at which the literal loop over
        the algebras stops on the pair lhs |- rhs over the sorted letters
        `ls`: `(s, True)` if screen s refutes it, `(s, False)` if screen
        s cannot evaluate it (over budget, or a modal pair on a plain
        lattice); None if no screen before `stop` does either."""
        tables, k = self.tables, len(ls)
        cut = self._cut(k)
        if tables.first_plain < cut and not (
            is_modality_free(lhs) and is_modality_free(rhs)
        ):
            cut = tables.first_plain
        last = min(cut, stop)
        if last:
            memo = self._memo(ls)
            left = tables.vector(memo, lhs, tables)
            right = tables.vector(memo, rhs, tables)
            ends = tables.ends(k)
            pos = tables.escape(left, right, ends[last - 1])
            if pos >= 0:
                return bisect_right(ends, pos), True
        return (cut, False) if cut < stop else None

    def refutes(self, goals) -> bool:
        """For (lhs, rhs, sorted letters) goals: the decision of the
        literal loop `any(algebra_validates(a, goal) is not None for a in
        algebras for goal in goals)`, raising what it raises first:
        ResourceBound(n**k, budget) at an algebra over budget for a
        goal's k letters, PreconditionViolated at a plain lattice for a
        modal goal."""
        stop, first = len(self.tables.sizes), None
        for lhs, rhs, ls in goals:
            event = self.first_event(lhs, rhs, ls, stop)
            if event is not None:
                stop, first = event[0], (event[1], len(ls))
        if first is None:
            return False
        refuted, k = first
        if refuted:
            return True
        needed = self.tables.sizes[stop] ** k
        if needed > self.budget:
            raise ResourceBound(needed, self.budget)
        raise PreconditionViolated("modal formula on a plain lattice")

    @property
    def vector_entries(self) -> int:
        """Packed vectors held: one per formula and letter tuple."""
        return sum(map(len, self.memo.values()))

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
at most 256; every screening set that `proofs` builds for a set of the
axiom tags is well inside that (at most 195, B's).  The tables have two
users.  `PackedScreen` holds one search's memo over a screening set of
modal lattices and takes pairs of at most three letters only, the one
rule of both semantic screens: `stretch` serves the proof search (see
`proofs`) and `refutes` screens a candidate's obligations.
`refuting_structures` evaluates a pair on many modal structures over the
one lattice of its tables (a table of `catalog.validating_structures`,
which `catalog` filters by the axioms with it, and which the countermodel
search of `entailment` and the distribution-law scan of `proofs` walk),
M = min(256 // f, budget // f**k) of an f-element lattice at a time for
a pair of k letters: one vector of M stretches of f**k positions,
stretch j shifted by j * f at each modal step (`batch_shape`'s offsets),
so that one translate through the batch's concatenated box or diamond
tables serves all M.  The tables keep their seed vectors (T, F and the
letters) and their batch shapes (the seeds widened to a batch, with its
offsets) for at most three letters, so a screen over a cached set, or a
batch of a lattice searched before, builds none; wider seeds and shapes
grow like n**k and are built afresh.

The scalar evaluators (`lattice.evaluate`, `lattice.algebra_validates`,
`lframe.truth_set`) stay the reference oracles.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .errors import PreconditionViolated, ResourceBound
from .formulas import BOT, TOP, And, Box, ConsequencePair, Dia, Formula, Letter, Or


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
        # k -> `seeds(k)`, and (k, width) -> `batch_shape(k, width)`, for
        # k <= 3 only
        self._seeds: dict[int, tuple[bytes, ...]] = {}
        self._shapes: dict[tuple[int, int], tuple[tuple[bytes, ...], int]] = {}

    def seeds(self, k: int) -> tuple[bytes, ...]:
        """Packed vectors of T, F and the k letters, in letter order, over
        every screen.  Kept on the tables for k <= 3, the most letters a
        screen takes; wider ones grow like n**k, so they are built afresh
        and live only as long as their caller keeps them."""
        found = self._seeds.get(k)
        if found is not None:
            return found
        columns = []
        for n, base, top, bot in zip(self.sizes, self.bases, self.tops, self.bots):
            size = n**k
            column = [bytes((top,)) * size, bytes((bot,)) * size]
            ids = [bytes((base + d,)) for d in range(n)]
            for j in range(k):
                stride = n ** (k - 1 - j)
                column.append(b"".join([d * stride for d in ids]) * n**j)
            columns.append(column)
        found = tuple(b"".join(row) for row in zip(*columns))
        if k <= 3:
            self._seeds[k] = found
        return found

    def batch_shape(self, k: int, width: int) -> tuple[tuple[bytes, ...], int]:
        """The seeds of k letters (`seeds`) repeated `width` times, and the
        offsets that shift copy j's entries by j times the number of
        global ids, as one big integer: with box and diamond tables that
        concatenate `width` tables over these ids, copy j then reads the
        j-th (see `refuting_structures`).  Kept on the tables for k <= 3,
        as the seeds are."""
        found = self._shapes.get((k, width))
        if found is not None:
            return found
        seeds = self.seeds(k)
        step, size = sum(self.sizes), len(seeds[0])
        stretches = b"".join([bytes((j * step,)) * size for j in range(width)])
        found = tuple(v * width for v in seeds), int.from_bytes(stretches, "big")
        if k <= 3:
            self._shapes[k, width] = found
        return found

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
        added to the argument's vector as one big integer (see
        `refuting_structures`)."""
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


def refuting_structures(
    tables: ScreenTables,
    boxes: bytes,
    diamonds: bytes,
    goal: ConsequencePair,
    ls: Sequence[str],
    budget: int,
) -> Iterator[tuple[int, int]]:
    """(j, i) for each modal structure j over the one lattice of `tables`
    on which a valuation of the sorted letters `ls` refutes `goal`, in
    order: i is the first such valuation's position in
    `product(range(f), repeat=len(ls))` order.  Structure j's box and
    diamond are the f local ids at j * f of `boxes` and `diamonds`.
    Batched as the module docstring says; ResourceBound when f**len(ls)
    passes `budget`, as `lframe.frame_validates` raises it."""
    (f,) = tables.sizes
    size = f ** len(ls)
    if size > budget:
        raise ResourceBound(size, budget)
    # batch width -> its shape, each built (or read from the tables) once
    shapes: dict[int, tuple[tuple[bytes, ...], int]] = {}
    count = len(boxes) // f
    width = min(256 // f, budget // size)
    for start in range(0, count, width):
        stop = min(start + width, count)
        shape = shapes.get(stop - start)
        if shape is None:
            shape = shapes[stop - start] = tables.batch_shape(len(ls), stop - start)
        vectors, offsets = shape
        pad = bytes(256 - (stop - start) * f)
        unary = boxes[start * f : stop * f] + pad, diamonds[start * f : stop * f] + pad
        memo = _seeded(vectors, ls)
        left = tables.vector(memo, goal.lhs, unary, offsets)
        right = tables.vector(memo, goal.rhs, unary, offsets)
        bad = _pair_codes(tables, left, right).translate(tables.nleq)
        pos = bad.find(1)
        while pos >= 0:
            j, i = divmod(pos, size)
            yield start + j, i
            pos = bad.find(1, (j + 1) * size)


class PackedScreen:
    """One search's screen over a `ScreenTables` of modal lattices: its
    packed vectors per sorted tuple of at most three letters, kept for as
    long as the screen lives.  Raises PreconditionViolated for a plain
    lattice in the set, on which a modal pair has no value.

    A pair over more than three letters is not screened: a refuted pair
    is not derivable, so the rule changes what the screen costs, never a
    verdict.  Over at most three letters a screening set of `proofs` for a
    set of the axiom tags has at most 879 positions (B's), so the screen
    takes no budget."""

    def __init__(self, tables: ScreenTables):
        if tables.first_plain < len(tables.sizes):
            raise PreconditionViolated(
                f"screen {tables.first_plain} is a plain lattice (modal lattices only)"
            )
        self.tables = tables
        # sorted letters -> memo (formula -> packed vector)
        self.memo: dict[tuple[str, ...], dict[Formula, bytes]] = {}

    def stretch(self, ls: tuple[str, ...]) -> Optional[dict[Formula, bytes]]:
        """The memo of packed vectors over the sorted letters `ls`, built
        once; None past three letters, which are not screened."""
        if len(ls) > 3:
            return None
        memo = self.memo.get(ls)
        if memo is None:
            memo = self.memo[ls] = _seeded(self.tables.seeds(len(ls)), ls)
        return memo

    def refutes(self, goals) -> bool:
        """For (lhs, rhs, sorted letters) goals: whether some goal of at
        most three letters, left goal first, is refuted on the set."""
        vector, escape = self.tables.vector, self.tables.escape
        for lhs, rhs, ls in goals:
            memo = self.stretch(ls)
            if memo is not None and escape(vector(memo, lhs), vector(memo, rhs)) >= 0:
                return True
        return False

    @property
    def vector_entries(self) -> int:
        """Packed vectors held: one per formula and letter tuple."""
        return sum(map(len, self.memo.values()))

"""Exhaustive catalogs of small structures, up to isomorphism.

Enumeration convention: candidate orders are generated with ids in a
linear extension (i below j implies i < j), with bot id 0 and top id n-1,
so only the pairs between 1 and n-2 are free; isomorphic duplicates are
removed by the least relabeling that fixes bot and top.

Every catalog is computed once per size, when first asked for, and
held as a tuple of its structures.

The modal structures over a lattice come from one kernel, `_modal_maps`:
it yields their (box, diamond) maps, keeping for each box the diamonds
that meet the one identity tying the two together as the AND of
precomputed bitmasks of diamonds.  `validating_table` packs them, and
`all_modal_lattices(n)` is a view of the `validating_structures(n, ())`
tables.  Modal frames come only as duals (`StructureTable.dual`).

`validating_structures(n, gamma)`, the one table of the countermodel
search and the distribution-law scan, keeps per lattice the modal
structures that validate gamma as packed box and diamond bytes.  By the
duality they stand for the modal L-frames of n points that meet gamma's
frame conditions, each by its tight dual (see `entailment`).  Each
lattice's table (`validating_table`) is built when first asked for, so
the distribution-law scan, which stops at its first hit, builds no table
past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Optional

from .duality import fil_l
from .errors import NotALattice
from .formulas import ConsequencePair, letters
from .lattice import (
    FiniteLattice,
    FiniteModalLattice,
    _order_tables,
    _table_maps,
    is_distributive,
    validate_lattice,
)
from .lframe import LFrame, ModalLFrame, lframe_from_leq
from .vectors import ScreenTables, refuting_structures


def _is_transitive(leq, n) -> bool:
    for i in range(n):
        row = leq[i]
        for j in range(i + 1, n):
            if row[j]:
                rj = leq[j]
                for k in range(j + 1, n):
                    if rj[k] and not row[k]:
                        return False
    return True


def _canonical(leq, n) -> tuple:
    """The least row-major encoding of leq under a relabeling p that fixes
    bot 0 and top n-1, as every isomorphism of bounded orders does.  It
    reads entry (i, j) at leq[p[i]][p[j]]; p runs over all of them, so no
    inverse is needed."""
    return min(
        tuple(leq[a][b] for a in p for b in p)
        for p in ((0, *q, n - 1) for q in permutations(range(1, n - 1)))
    )


@lru_cache(maxsize=None)
def all_lattice_orders(n: int) -> tuple[tuple[tuple[bool, ...], ...], ...]:
    """All order matrices of n-element lattices, one per isomorphism class."""
    if n <= 0:
        return ()
    if n == 1:
        return (((True,),),)
    # bot 0 and top n-1 are forced, so only the inner pairs are free
    pairs = list(combinations(range(1, n - 1), 2))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        leq = [[i == j or i == 0 or j == n - 1 for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                leq[i][j] = True
        if not _is_transitive(leq, n):
            continue
        try:
            _order_tables(leq)
        except NotALattice:
            continue
        canon = _canonical(leq, n)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(tuple(tuple(row) for row in leq))
    return tuple(out)


@lru_cache(maxsize=None)
def all_lattices(n: int) -> tuple[FiniteLattice, ...]:
    return tuple(
        validate_lattice(leq, 0, n - 1) for leq in all_lattice_orders(n)
    )


@lru_cache(maxsize=None)
def all_distributive_lattices(n: int) -> tuple[FiniteLattice, ...]:
    return tuple(lat for lat in all_lattices(n) if is_distributive(lat))


@lru_cache(maxsize=None)
def all_modal_lattices(n: int) -> tuple[FiniteModalLattice, ...]:
    """All modal structures over the size-n lattice catalog (small n
    only): those of the `validating_structures(n, ())` tables, table by
    table, each in `_modal_maps` order."""
    return tuple(
        t.structure(j) for t in validating_structures(n, ()) for j in range(len(t))
    )


def _modal_maps(
    lat: FiniteLattice,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (box, diamond) maps of the modal structures over `lat`, lazily,
    in lexicographic order.  The identities of
    `lattice.check_modal_identities` split three ways.  Those on box alone
    hold for exactly the top-fixing, meet-preserving boxes.  Those on
    diamond alone, `T = <>T` and `<>a v <>b <= <>(a v b)`, hold for
    exactly the top-fixing monotone diamonds (`_monotone_diamonds`).  Each
    box keeps those diamonds that meet `<>a & []b <= <>(a & b)`.

    Diamond d is bit d of a mask.  For x, y with x & y != x (elsewhere
    every diamond meets it), the identity at (x, y) asks
    `dia[x] & box[y] <= dia[x & y]`, so it depends on the box only through
    b = box[y]: the diamonds meeting it are the mask of (x, x & y, b), the
    union over the values u of dia[x] of those with dia[x] == u and
    dia[x & y] >= u & b.  A box's diamonds are the AND of its masks, read
    bit by bit from the lowest."""
    n, leq, meet, top = lat.n, lat.leq, lat.meet, lat.top
    diamonds = _monotone_diamonds(lat)
    # at[x][u]: the diamonds with dia[x] == u; above[x][c]: those with dia[x] >= c
    at = [[0] * n for _ in range(n)]
    for d, dia in enumerate(diamonds):
        bit = 1 << d
        for x in range(n):
            at[x][dia[x]] |= bit
    above = [
        [sum(row[w] for w in range(n) if leq[c][w]) for c in range(n)] for row in at
    ]
    pairs = [(x, meet[x][y], y) for x in range(n) for y in range(n) if meet[x][y] != x]
    masks: dict[tuple[int, int, int], int] = {}
    everything = (1 << len(diamonds)) - 1
    for box in _table_maps(n, n, [(top, top)], [(meet, meet)]):
        kept = everything
        for x, xy, y in pairs:
            b = box[y]
            mask = masks.get((x, xy, b))
            if mask is None:
                row, up = at[x], above[xy]
                mask = masks[x, xy, b] = sum(row[u] & up[meet[u][b]] for u in range(n))
            kept &= mask
            if not kept:
                break
        while kept:
            low = kept & -kept
            yield box, diamonds[low.bit_length() - 1]
            kept ^= low


@dataclass(frozen=True)
class StructureTable:
    """Modal structures over one catalog lattice, in `_modal_maps` order:
    structure j's box and diamond are the n element ids at j * n of
    `boxes` and `diamonds`, and `codes` are the lattice's pair-code
    tables, shared by every table over it, so its batch shapes are too.
    A structure's dual frame is computed once, when first asked for."""

    lattice: FiniteLattice
    codes: ScreenTables
    boxes: bytes
    diamonds: bytes
    _duals: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.boxes) // self.lattice.n

    def refuting(
        self, pair: ConsequencePair, budget: Optional[int] = None
    ) -> Iterator[tuple[int, int]]:
        """`vectors.refuting_structures` of pair over the table; by
        default in full batches, with no bound on the evaluations."""
        ls, n = sorted(letters(pair)), self.lattice.n
        budget = n ** len(ls) * (256 // n) if budget is None else budget
        return refuting_structures(
            self.codes, self.boxes, self.diamonds, pair, ls, budget
        )

    def structure(self, j: int) -> FiniteModalLattice:
        n = self.lattice.n
        box, dia = self.boxes[j * n : (j + 1) * n], self.diamonds[j * n : (j + 1) * n]
        return FiniteModalLattice.over(self.lattice, tuple(box), tuple(dia))

    def dual(self, j: int) -> ModalLFrame:
        """The frame of structure j's dual space, tight and of n points."""
        frame = self._duals.get(j)
        if frame is None:
            frame = self._duals[j] = fil_l(self.structure(j)).frame
        return frame

    def without(self, drop: set) -> "StructureTable":
        """The table less the structures in `drop`."""
        n = self.lattice.n
        keep = [j for j in range(len(self)) if j not in drop]
        boxes, diamonds = (
            b"".join([d[j * n : (j + 1) * n] for j in keep])
            for d in (self.boxes, self.diamonds)
        )
        return StructureTable(self.lattice, self.codes, boxes, diamonds)


@lru_cache(maxsize=None)
def validating_structures(n: int, gamma: tuple) -> tuple[StructureTable, ...]:
    """For each lattice of `all_lattices(n)`, in order, the table of its
    modal structures that validate every member of gamma
    (`validating_table`)."""
    return tuple(validating_table(n, i, gamma) for i in range(len(all_lattices(n))))


@lru_cache(maxsize=None)
def validating_table(n: int, i: int, gamma: tuple) -> StructureTable:
    """The table of the modal structures over lattice i of
    `all_lattices(n)` that validate every member of gamma, built once, when
    first asked for, so a scan that stops early builds no later lattice's
    table.  The table for a gamma is the empty one's, each member
    evaluated on all of its structures at once in full batches."""
    if gamma:
        t = validating_table(n, i, ())
        return t.without({j for g in gamma for j, _ in t.refuting(g)})
    lat = all_lattices(n)[i]
    boxes, diamonds = bytearray(), bytearray()
    for box, dia in _modal_maps(lat):
        boxes.extend(box)
        diamonds.extend(dia)
    return StructureTable(lat, ScreenTables((lat,)), bytes(boxes), bytes(diamonds))


def _monotone_diamonds(lat: FiniteLattice) -> list[tuple[int, ...]]:
    """The top-fixing monotone maps on `lat`, in lexicographic order.
    Backtracking checks each pair x < y once its larger position is
    assigned."""
    n, leq, top = lat.n, lat.leq, lat.top
    checks = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and leq[x][y]:
                checks[max(x, y)].append((x, y))
    out = []
    dia = [0] * n

    def extend(i: int) -> None:
        if i == n:
            out.append(tuple(dia))
            return
        for v in (top,) if i == top else range(n):
            dia[i] = v
            for x, y in checks[i]:
                if not leq[dia[x]][dia[y]]:
                    break
            else:
                extend(i + 1)

    extend(0)
    return out


@lru_cache(maxsize=None)
def all_lframes(n: int) -> tuple[LFrame, ...]:
    """Meet semilattices with top: same posets as the lattice catalog."""
    out = []
    for leq in all_lattice_orders(n):
        names = tuple(f"x{i}" for i in range(n))
        out.append(lframe_from_leq(names, leq, n - 1))
    return tuple(out)

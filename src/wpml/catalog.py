"""Exhaustive catalogs of small structures, up to isomorphism.

Enumeration convention: candidate orders are generated with ids in a
linear extension (i below j implies i < j), with bot id 0 and top id n-1,
so only the pairs between 1 and n-2 are free; isomorphic duplicates are
removed by the least relabeling that fixes bot and top.

Every catalog is computed once per size, when first asked for, and
held as a tuple of its structures.

`validating_structures(n, gamma)`, the one table of the countermodel
search and the distribution-law scan, keeps per lattice the modal
structures that validate gamma as packed box and diamond bytes.  By the
duality they stand for the modal L-frames of n points that meet gamma's
frame conditions, each by its tight dual (see `entailment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, permutations
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
from .lframe import (
    LFrame,
    ModalLFrame,
    _meet_gap,
    _meet_reach,
    _order_gap,
    lframe_from_leq,
)
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
    only), lattice by lattice in catalog order."""
    return tuple(chain.from_iterable(map(_modal_structures, all_lattices(n))))


def _modal_structures(lat: FiniteLattice) -> Iterator[FiniteModalLattice]:
    """The modal structures over `lat`, lazily, in lexicographic order of
    (box, diamond).  The identities of `lattice.check_modal_identities`
    split three ways.  Those on box alone hold for exactly the
    top-fixing, meet-preserving boxes.  Those on diamond alone, `T = <>T`
    and `<>a v <>b <= <>(a v b)`, hold for exactly the top-fixing
    monotone diamonds (`_monotone_diamonds`).  Each box keeps those
    diamonds that meet `<>a & []b <= <>(a & b)`."""
    n, leq, meet, top = lat.n, lat.leq, lat.meet, lat.top
    diamonds = _monotone_diamonds(lat)
    # (x, x & y, y) where x & y != x; where x & y == x any diamond meets it
    pairs = [(x, meet[x][y], y) for x in range(n) for y in range(n) if meet[x][y] != x]
    for box in _table_maps(n, n, [(top, top)], [(meet, meet)]):
        duality = [(x, xy, box[y]) for x, xy, y in pairs]
        for dia in diamonds:
            for x, xy, b in duality:
                if not leq[meet[dia[x]][b]][dia[xy]]:
                    break
            else:
                yield FiniteModalLattice.over(lat, box, dia)


@dataclass(frozen=True)
class StructureTable:
    """Modal structures over one catalog lattice, in `_modal_structures`
    order: structure j's box and diamond are the n element ids at j * n
    of `boxes` and `diamonds`, and `codes` are the lattice's pair-code
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
    modal structures that validate every member of gamma.  The tables for
    a gamma are those of the empty one, each member evaluated on all of
    their structures at once in full batches."""
    if gamma:
        return tuple(
            t.without({j for g in gamma for j, _ in t.refuting(g)})
            for t in validating_structures(n, ())
        )
    out = []
    for lat in all_lattices(n):
        boxes, diamonds = bytearray(), bytearray()
        for a in _modal_structures(lat):
            boxes += bytes(a.box)
            diamonds += bytes(a.diamond)
        codes = ScreenTables((lat,))
        out.append(StructureTable(lat, codes, bytes(boxes), bytes(diamonds)))
    return tuple(out)


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


def modal_relations(frame: LFrame) -> Iterator[tuple[int, ...]]:
    """All successor-mask tuples making the frame a valid modal L-frame,
    in lexicographic order of the mask tuple.

    Search assigns per-point successor sets (nonempty, meet closed; {1}
    for the top point, which is condition (v)) with partial pruning on
    conditions (i), (ii), (iv); a complete assignment has passed those on
    every pair of points, so only condition (iii) is left to check.  It is
    symmetric in the pair and holds at (x, x), so the pairs y < x do.
    """
    n = frame.n
    meet = frame.meet
    one = frame.one

    closed_sets = []
    for mask in range(1, 1 << n):
        members = [x for x in range(n) if mask >> x & 1]
        if all(mask >> meet[x][y] & 1 for x in members for y in members):
            closed_sets.append(mask)

    succ = [0] * n

    def partial_ok(i: int) -> bool:
        for j in range(i + 1):
            if _meet_gap(frame, succ, i, j) is not None:
                return False
            # (i)/(ii) for comparable pairs
            lo, hi = (j, i) if frame.le(j, i) else (i, j)
            if frame.le(lo, hi) and _order_gap(frame, succ, lo, hi) is not None:
                return False
        return True

    def backtrack(i: int):
        if i == n:
            if not any(
                succ[meet[x][y]] & ~_meet_reach(frame, succ[x], succ[y])
                for x in range(n)
                for y in range(x)
            ):
                yield tuple(succ)
            return
        options = (1 << one,) if i == one else closed_sets
        for s in options:
            succ[i] = s
            if partial_ok(i):
                yield from backtrack(i + 1)
        succ[i] = 0

    yield from backtrack(0)


@lru_cache(maxsize=None)
def _modal_lframes(n: int) -> tuple[ModalLFrame, ...]:
    return tuple(ModalLFrame(f, s) for f in all_lframes(n) for s in modal_relations(f))


def all_modal_lframes(n: int) -> Iterator[ModalLFrame]:
    """All valid modal L-frames of size exactly n (frames up to iso, all
    relations per frame), L-frame by L-frame in catalog order, each
    L-frame's relations in `modal_relations` order."""
    yield from _modal_lframes(n)

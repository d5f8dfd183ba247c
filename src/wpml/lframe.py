"""Finite L-frames and modal L-frames, the filter functor to (modal)
lattices, morphism condition checkers, and the relational semantics.

Point sets throughout are bitmasks over element ids; a filter is a point
set that is nonempty, upward closed under the frame order and closed
under the frame meet.  The improper filter (all points) is admitted and
the least filter is {1}.

An L-frame lists its filters, which are its principal up-sets, once
(`LFrame.filter_masks`) and builds the meet and join tables and the
filter lattice over them on first use (`LFrame.filter_lattice`, which
`fil_f_lattice` and `fil_f` share); a modal L-frame adds the box and
diamond of every filter (`ModalLFrame.filter_modalities`).
These caches live on the frame objects, so they go when the frame goes.
The L-morphism maps between two base L-frames depend on no relation, so
`enumerate_frame_morphisms` keeps them per (domain base, codomain base,
surjective_only) in `_l_maps`, an LRU cache of 1,024 pairs; kind
bounded-L checks only forth and back on each cached map.
`frame_validates` evaluates each side of a pair once, by
`_filter_vector`, as a vector over all filter-valued valuations, through
the frame's filter meet and join tables and box and diamond tables:
`bytes` and translate tables up to 256 filters, tuples past that.  The
pointwise `satisfies` and the recursive `truth_set` are its reference
oracles.  `entailment` takes the countervaluation on a refuting
structure's tight dual from `frame_validates`, the one per-frame search.

Each L-frame keeps three tables over point sets, filled one mask at a
time on first read (`_UnionTable`, `_ImageTable`): `up_closures[m]`,
`down_closures[m]` and `meet_images[u][m]`, the points u meet v for v in
m.  The kernels work on a whole successor set through them, one image
per point u instead of one meet per pair (u, v): `_meet_reach`, the
up-closure of the union of a set's images, is condition (iii) and
`filter_join`; `_order_gap` tests (i)/(ii) by one closure each and
`_meet_gap` tests (iv) by one image per u.  `up_closure`, `is_filter`
and `filter_closure` read the same tables.  The validator tests every
condition on the tables and calls a gap kernel only to name the witness
of the first failure; the tests' enumeration of modal relations prunes
with the gap kernels; `generators._modal_fixpoint` repairs with the
tables directly, since its repairs grow successor sets mid-scan and
read the grown sets at once.  tests/test_lframe.py and
tests/test_generators.py check the kernels against the per-pair loops
they replaced.

A point map is read a set at a time through two tables made per call,
`_fibres` (preimages) and `_ImageTable` (images): the morphism checks
here, and the morphism duals, the pullback and the space conditions
elsewhere; tests/conftest.py keeps the per-point loops they replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress, count, repeat
from operator import getitem
from typing import Iterator, Optional

from .errors import (
    InternalInconsistency,
    MorphismInvalid,
    NotALattice,
    NotAPoset,
    PreconditionViolated,
    ResourceBound,
    UndefinedLetter,
    resolve_budget,
)
from .formulas import (
    BOT,
    TOP,
    And,
    Bot,
    Box,
    ConsequencePair,
    Dia,
    Formula,
    Letter,
    Or,
    Top,
    letters as letters_of,
)
from .lattice import (
    FiniteLattice,
    FiniteModalLattice,
    _check_order,
    _order_tables,
    _table_maps,
)

FrameValuation = dict[str, int]  # letter -> filter, a bitmask over frame points


class _UnionTable(dict):
    """mask -> the union of rows[x] over the points x of the mask, each
    entry computed on its first read, so a frame pays only for the point
    sets it meets (2**n entries would not fit a frame of 256 points)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __missing__(self, mask: int) -> int:
        rows, out, m = self.rows, 0, mask
        while m:
            low = m & -m
            out |= rows[low.bit_length() - 1]
            m ^= low
        self[mask] = out
        return out


class _ImageTable(_UnionTable):
    """mask -> the mask of the points rows[x] over the points x of the
    mask, each entry computed on its first read."""

    __slots__ = ()

    def __missing__(self, mask: int) -> int:
        row, out, m = self.rows, 0, mask
        while m:
            low = m & -m
            out |= 1 << row[low.bit_length() - 1]
            m ^= low
        self[mask] = out
        return out


def _fibres(fmap, m: int) -> _UnionTable:
    """mask -> its preimage {x : fmap[x] in mask} under a map into m
    points: the union of the fibres of the mask's points."""
    rows = [0] * m
    for x, y in enumerate(fmap):
        rows[y] |= 1 << x
    return _UnionTable(rows)


@dataclass(frozen=True)
class LFrame:
    """Meet semilattice with top element `one`.

    The order is derived: x below y iff meet[x][y] == x.
    """

    elements: tuple[str, ...]
    meet: tuple[tuple[int, ...], ...]
    one: int

    @cached_property
    def n(self) -> int:
        return len(self.elements)

    def le(self, x: int, y: int) -> bool:
        return self.meet[x][y] == x

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """up_masks[x] = mask of {y : x below y}."""
        return tuple(
            sum(1 << y for y in range(self.n) if self.meet[x][y] == x)
            for x in range(self.n)
        )

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        return tuple(
            sum(1 << y for y in range(self.n) if self.meet[x][y] == y)
            for x in range(self.n)
        )

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def up_closures(self) -> _UnionTable:
        """up_closures[m] = mask of the points above some point of m."""
        return _UnionTable(self.up_masks)

    @cached_property
    def down_closures(self) -> _UnionTable:
        """down_closures[m] = mask of the points below some point of m."""
        return _UnionTable(self.down_masks)

    @cached_property
    def meet_images(self) -> tuple[_ImageTable, ...]:
        """meet_images[u][m] = mask of {u meet v : v in m}."""
        return tuple(map(_ImageTable, self.meet))

    @cached_property
    def filter_masks(self) -> tuple[int, ...]:
        """All filters, sorted by bitmask value.  Every filter of a finite
        meet semilattice is principal, the up-set of the meet of its
        points, and every up-set is a filter, so these are the up-sets."""
        return tuple(sorted(set(self.up_masks)))

    @cached_property
    def _filter_index(self) -> dict[int, int]:
        """Filter mask -> its position in `filter_masks`."""
        return {m: i for i, m in enumerate(self.filter_masks)}

    @cached_property
    def filter_meet_table(self) -> tuple[tuple[int, ...], ...]:
        """Meet (intersection) of filters, by position in `filter_masks`."""
        fs, idx = self.filter_masks, self._filter_index
        return tuple(tuple(idx[a & b] for b in fs) for a in fs)

    @cached_property
    def filter_join_table(self) -> tuple[tuple[int, ...], ...]:
        """Join (generated filter) of filters, by position in `filter_masks`."""
        fs, idx = self.filter_masks, self._filter_index
        return tuple(tuple(idx[filter_join(self, a, b)] for b in fs) for a in fs)

    @cached_property
    def filter_lattice(self) -> FiniteLattice:
        """The filters ordered by inclusion (see `fil_f_lattice`)."""
        fs, idx = self.filter_masks, self._filter_index
        return FiniteLattice(
            elements=tuple(hex(m) for m in fs),
            leq=tuple(tuple(a & ~b == 0 for b in fs) for a in fs),
            bot=idx[1 << self.one],
            top=idx[self.full_mask],
            meet=self.filter_meet_table,
            join=self.filter_join_table,
        )

    def __repr__(self):
        return f"LFrame(n={self.n})"


@dataclass(frozen=True)
class ModalLFrame:
    """L-frame with an accessibility relation satisfying the five
    interaction conditions (see `validate_modal_lframe`).  `succ[x]` is
    the bitmask of R-successors of x."""

    base: LFrame
    succ: tuple[int, ...]

    @cached_property
    def n(self) -> int:
        return self.base.n

    @property
    def one(self) -> int:
        return self.base.one

    @property
    def elements(self):
        return self.base.elements

    @property
    def meet(self):
        return self.base.meet

    def le(self, x: int, y: int) -> bool:
        return self.base.le(x, y)

    def rel(self, x: int, y: int) -> bool:
        return bool(self.succ[x] >> y & 1)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [
            (x, y) for x in range(self.n) for y in range(self.n) if self.rel(x, y)
        ]

    @cached_property
    def filter_modalities(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(box, diamond) on the base frame's filters, by position in
        `filter_masks`.  InternalInconsistency if the box or diamond of a
        filter is not a filter, which a valid modal L-frame rules out."""
        fs, idx = self.base.filter_masks, self.base._filter_index
        box = []
        dia = []
        for m in fs:
            bm = box_mask(self, m)
            dm = dia_mask(self, m)
            if bm not in idx or dm not in idx:
                raise InternalInconsistency(
                    f"box/diamond of filter {hex(m)} is not a filter"
                )
            box.append(idx[bm])
            dia.append(idx[dm])
        return tuple(box), tuple(dia)

    @cached_property
    def unary_tables(self) -> tuple[bytes, bytes]:
        """`filter_modalities` as `bytes.translate` tables over filter
        positions; they serve frames of up to 256 filters."""
        box, dia = self.filter_modalities
        pad = bytes(256 - len(box))
        return bytes(box) + pad, bytes(dia) + pad

    def __repr__(self):
        return f"ModalLFrame(n={self.n}, edges={sum(m.bit_count() for m in self.succ)})"


def validate_lframe(elements, meet, one: int) -> LFrame:
    """Check the meet-semilattice-with-top axioms; raise NotAPoset else."""
    names = tuple(str(x) for x in elements)
    n = len(names)
    table = tuple(tuple(int(v) for v in row) for row in meet)
    if len(table) != n or any(len(r) != n for r in table):
        raise NotAPoset("meet table is not square")
    if any(not 0 <= v < n for row in table for v in row):
        raise NotAPoset(f"meet entry out of range 0..{n - 1}")
    if not 0 <= one < n:
        raise NotAPoset("one out of range")
    for x in range(n):
        if table[x][x] != x:
            raise NotAPoset(f"meet not idempotent at {x}")
        if table[x][one] != x or table[one][x] != x:
            raise NotAPoset(f"one is not a unit at {x}")
        for y in range(n):
            if table[x][y] != table[y][x]:
                raise NotAPoset(f"meet not commutative at ({x}, {y})")
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise NotAPoset(f"meet not associative at ({x}, {y}, {z})")
    return LFrame(names, table, one)


def lframe_from_leq(elements, leq, one: int) -> LFrame:
    """Build an LFrame from an order matrix in which all binary meets
    exist; NotAPoset if the matrix is not a partial order or some pair
    has no meet."""
    _check_order(leq)
    try:
        (table,) = _order_tables(leq, ("meet",))
    except NotALattice as exc:
        raise NotAPoset(f"pair {exc.pair} has no meet")
    return validate_lframe(elements, table, one)


@dataclass(frozen=True)
class FrameViolation:
    """A failed modal-L-frame condition with the witnessing tuple."""

    condition: str
    witness: tuple[int, ...]


def _order_gap(base: LFrame, succ, x: int, y: int) -> Optional[tuple[str, int]]:
    """Conditions (i) and (ii) at x below y.  ("i", z) for the least z in
    R[y] with no w in R[x] below it; else ("ii", w) for the least w in R[x]
    with no z in R[y] above it; else None."""
    sx, sy = succ[x], succ[y]
    missed = sy & ~base.up_closures[sx]
    if missed:
        return "i", (missed & -missed).bit_length() - 1
    missed = sx & ~base.down_closures[sy]
    if missed:
        return "ii", (missed & -missed).bit_length() - 1
    return None


def _meet_gap(base: LFrame, succ, x: int, y: int) -> Optional[tuple[int, int]]:
    """Condition (iv) at (x, y): x R u and y R v imply (x meet y) R
    (u meet v).  The least (u, v) it fails for, or None."""
    meet, images = base.meet, base.meet_images
    tgt, sy = succ[meet[x][y]], succ[y]
    mu = succ[x]
    while mu:
        u = (mu & -mu).bit_length() - 1
        mu &= mu - 1
        if images[u][sy] & ~tgt:
            row = meet[u]
            v = next(v for v in range(base.n) if sy >> v & 1 and not tgt >> row[v] & 1)
            return u, v
    return None


def _meet_reach(base: LFrame, a: int, b: int) -> int:
    """The up-closure of {u meet v : u in a, v in b}.  Condition (iii) at
    (x, y), that (x meet y) R z needs u in R[x], v in R[y] with u meet v
    below z, holds iff R[x meet y] lies inside the reach of R[x], R[y]."""
    images = base.meet_images
    image = 0
    while a:
        u = (a & -a).bit_length() - 1
        a &= a - 1
        image |= images[u][b]
    return base.up_closures[image]


def _check_modal_conditions(base: LFrame, succ) -> Optional[FrameViolation]:
    """The first violation in the scan order: (v), nonempty successor
    sets, (i)/(ii) over the pairs x below y, then (iv) before (iii) over
    all pairs, each in lexicographic order of the pair.  Each pair is
    tested on the frame's tables; `_order_gap` and `_meet_gap` only name
    the witness of the first failure."""
    n = base.n
    meet = base.meet
    one = base.one
    # (v) 1 R x iff x = 1
    if succ[one] != 1 << one:
        return FrameViolation("v", (one,))
    for x in range(n):
        if succ[x] == 0:
            return FrameViolation("i", (x,))  # forced nonempty via x below 1, 1 R 1
    up, up_cl, down_cl = base.up_masks, base.up_closures, base.down_closures
    for x in range(n):
        sx = succ[x]
        above = up_cl[sx]
        m = up[x]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            sy = succ[y]
            if sy & ~above or sx & ~down_cl[sy]:
                kind, w = _order_gap(base, succ, x, y)
                return FrameViolation(kind, (x, y, w))
    images = base.meet_images
    for x in range(n):
        rows = []
        mu = succ[x]
        while mu:
            rows.append(images[(mu & -mu).bit_length() - 1])
            mu &= mu - 1
        mx = meet[x]
        for y in range(n):
            sy, tgt = succ[y], succ[mx[y]]
            image = 0
            for row in rows:
                image |= row[sy]
            if image & ~tgt:
                return FrameViolation("iv", (x, y) + _meet_gap(base, succ, x, y))
            missed = tgt & ~up_cl[image]
            if missed:
                z = (missed & -missed).bit_length() - 1
                return FrameViolation("iii", (x, y, z))
    return None


def validate_modal_lframe(base: LFrame, rel) -> ModalLFrame | FrameViolation:
    """Accept iff the five modal-L-frame conditions hold; otherwise the
    first violation with its witnesses.

    `rel` may be an iterable of (x, y) pairs or a sequence of successor
    bitmasks.
    """
    n = base.n
    rel = list(rel)
    if rel and all(isinstance(m, int) for m in rel):
        if len(rel) != n:
            raise NotAPoset("successor-mask list must have one mask per point")
        succ = tuple(int(m) for m in rel)
        if any(not 0 <= m < 1 << n for m in succ):
            raise NotAPoset(f"successor mask out of range 0..{(1 << n) - 1}")
    else:
        succ = [0] * n
        for x, y in rel:
            if not (0 <= x < n and 0 <= y < n):
                raise NotAPoset(f"relation pair ({x}, {y}) out of range")
            succ[x] |= 1 << y
        succ = tuple(succ)
    bad = _check_modal_conditions(base, succ)
    if bad is not None:
        return bad
    return ModalLFrame(base, succ)


# --- filters ----------------------------------------------------------------

def up_closure(frame: LFrame, mask: int) -> int:
    return frame.up_closures[mask]


def is_filter(frame: LFrame, mask: int) -> bool:
    """Nonempty, upward closed, meet closed: an up-set that the
    up-closure of its pairwise meets does not leave."""
    if mask == 0 or frame.up_closures[mask] != mask:
        return False
    return _meet_reach(frame, mask, mask) == mask


def filter_closure(frame: LFrame, mask: int) -> int:
    """Least filter containing the (nonempty) point set: the least fixed
    point above it of the up-closure of pairwise meets."""
    cur = mask | 1 << frame.one
    while True:
        nxt = _meet_reach(frame, cur, cur)
        if nxt == cur:
            return cur
        cur = nxt


def filters(frame: LFrame) -> list[int]:
    """All filters of the frame, sorted by bitmask value: a fresh list of
    `frame.filter_masks`, which is enumerated once per frame."""
    return list(frame.filter_masks)


def filter_join(frame: LFrame, a: int, b: int) -> int:
    """Filter generated by the union: up-closure of pairwise meets."""
    return _meet_reach(frame, a, b)


def box_mask(frame: ModalLFrame, u: int) -> int:
    """The points all of whose successors lie in u."""
    out = 0
    for x, s in enumerate(frame.succ):
        if not s & ~u:
            out |= 1 << x
    return out


def dia_mask(frame: ModalLFrame, u: int) -> int:
    """The points with a successor in u."""
    out = 0
    for x, s in enumerate(frame.succ):
        if s & u:
            out |= 1 << x
    return out


def fil_f_lattice(frame: LFrame) -> FiniteLattice:
    """Lattice of all filters ordered by inclusion.  Element i is the
    filter with the i-th smallest bitmask; names are hex bitmasks.  The
    frame's cached `filter_lattice`, shared by every caller."""
    return frame.filter_lattice


def fil_f(frame: ModalLFrame) -> FiniteModalLattice:
    """Filter lattice with box/diamond induced by the relation."""
    box, dia = frame.filter_modalities
    return FiniteModalLattice.over(frame.base.filter_lattice, box, dia)


# --- morphisms ---------------------------------------------------------------

@dataclass(frozen=True)
class FrameMorphism:
    """Point map between frames; kind is 'plain', 'L' or 'bounded-L'."""

    dom: LFrame | ModalLFrame
    cod: LFrame | ModalLFrame
    map: tuple[int, ...]
    kind: str = "plain"

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.cod.n

    def compose(self, inner: "FrameMorphism") -> "FrameMorphism":
        return FrameMorphism(
            inner.dom, self.cod, tuple(self.map[x] for x in inner.map), self.kind
        )


@dataclass(frozen=True)
class MorphismViolation:
    condition: str
    witness: tuple[int, ...]


def _base_of(x) -> LFrame:
    return x.base if isinstance(x, ModalLFrame) else x


def check_semilattice_hom(f: FrameMorphism) -> None:
    """Raise MorphismInvalid unless f preserves the meet and 1."""
    dom, cod = _base_of(f.dom), _base_of(f.cod)
    if len(f.map) != dom.n or any(not (0 <= v < cod.n) for v in f.map):
        raise MorphismInvalid("map array has wrong shape")
    if f.map[dom.one] != cod.one:
        raise MorphismInvalid("1 not preserved")
    for x in range(dom.n):
        for y in range(dom.n):
            if f.map[dom.meet[x][y]] != cod.meet[f.map[x]][f.map[y]]:
                raise MorphismInvalid(f"meet not preserved on ({x}, {y})")


def is_l_morphism(f: FrameMorphism) -> Optional[MorphismViolation]:
    """None iff both L-morphism conditions hold; otherwise the first
    violation: unit reflection at the least x, else the meet cover at the
    least x, with the first (y', z') in row-major order.  With above[y']
    the preimage of the up-set of y', the meet cover fails for (y', z')
    at the points of above[y' meet z'] outside the `_meet_reach` of
    above[y'] and above[z'], which is symmetric in the pair."""
    check_semilattice_hom(f)
    dom, cod = _base_of(f.dom), _base_of(f.cod)
    fibres = _fibres(f.map, cod.n)
    unreflected = fibres[1 << cod.one] & ~(1 << dom.one)
    if unreflected:
        x = (unreflected & -unreflected).bit_length() - 1
        return MorphismViolation("unit-reflection", (x,))
    above = [fibres[m] for m in cod.up_masks]
    found = None
    for yp in range(cod.n):
        for zp in range(yp, cod.n):
            bad = above[cod.meet[yp][zp]] & ~_meet_reach(dom, above[yp], above[zp])
            if bad:
                x = (bad & -bad).bit_length() - 1
                if found is None or x < found[0]:
                    found = (x, yp, zp)
    return None if found is None else MorphismViolation("meet-cover", found)


def is_bounded_l_morphism(f: FrameMorphism) -> Optional[MorphismViolation]:
    """Forth plus the two back conditions, on top of the L-morphism
    conditions."""
    bad = is_l_morphism(f)
    if bad is not None:
        return bad
    return _forth_back_violation(f)


def _forth_back_violation(f: FrameMorphism) -> Optional[MorphismViolation]:
    """The first failure of forth, back-below or back-above, or None;
    the relational half of `is_bounded_l_morphism`.  Per point x in
    order, R[x] must lie inside the preimage of R'[f(x)] (forth, at its
    least point outside), and every z in R'[f(x)] must lie in the
    up-closure (back-below) and the down-closure (back-above) of the
    image of R[x]; the least z outside either names the failure, below
    first."""
    dom, cod = f.dom, f.cod
    if not isinstance(dom, ModalLFrame) or not isinstance(cod, ModalLFrame):
        raise MorphismInvalid("bounded L-morphism needs modal frames")
    images, fibres = _ImageTable(f.map), _fibres(f.map, cod.n)
    up_cl, down_cl = cod.base.up_closures, cod.base.down_closures
    for x, sx in enumerate(dom.succ):
        target = cod.succ[f.map[x]]
        missed = sx & ~fibres[target]
        if missed:
            y = (missed & -missed).bit_length() - 1
            return MorphismViolation("forth", (x, y))
        image = images[sx]
        below, above = target & ~up_cl[image], target & ~down_cl[image]
        missed = below | above
        if missed:
            z = (missed & -missed).bit_length() - 1
            kind = "back-below" if below >> z & 1 else "back-above"
            return MorphismViolation(kind, (x, z))
    return None


def enumerate_frame_morphisms(
    dom: LFrame | ModalLFrame,
    cod: LFrame | ModalLFrame,
    kind: str = "L",
    surjective_only: bool = False,
) -> Iterator[FrameMorphism]:
    """All morphisms of the requested kind, lexicographic in the map array.
    Kinds L and bounded-L read the L-morphism maps of the two base frames
    from `_l_maps`; bounded-L then checks forth and back on each."""
    dbase, cbase = _base_of(dom), _base_of(cod)
    if kind in ("L", "bounded-L"):
        for f in _l_maps(dbase, cbase, surjective_only):
            cand = FrameMorphism(dom, cod, f, kind)
            if kind == "L" or _forth_back_violation(cand) is None:
                yield cand
        return
    for f in _base_maps(dbase, cbase):
        if surjective_only and len(set(f)) != cbase.n:
            continue
        yield FrameMorphism(dom, cod, f, kind)


def _base_maps(dom: LFrame, cod: LFrame) -> Iterator[tuple[int, ...]]:
    """The maps that preserve 1 and meets, in lexicographic order."""
    fixed = [(dom.one, cod.one)]
    return _table_maps(dom.n, cod.n, fixed, [(dom.meet, cod.meet)])


@lru_cache(maxsize=1024)
def _l_maps(
    dom: LFrame, cod: LFrame, surjective_only: bool
) -> tuple[tuple[int, ...], ...]:
    """The L-morphism maps from `dom` to `cod` (onto `cod` if asked), in
    lexicographic order: they depend on the two bases only, not on a
    relation, so `enumerate_frame_morphisms` computes them once per pair."""
    return tuple(
        f
        for f in _base_maps(dom, cod)
        if (not surjective_only or len(set(f)) == cod.n)
        and is_l_morphism(FrameMorphism(dom, cod, f, "L")) is None
    )


# --- semantics ---------------------------------------------------------------

def satisfies(frame: ModalLFrame, val: FrameValuation, x: int, f: Formula) -> bool:
    """Pointwise satisfaction; the seven clauses implemented literally."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return x == frame.one
    if isinstance(f, Letter):
        if f.name not in val:
            raise UndefinedLetter(f.name)
        return bool(val[f.name] >> x & 1)
    if isinstance(f, And):
        return satisfies(frame, val, x, f.lhs) and satisfies(frame, val, x, f.rhs)
    if isinstance(f, Or):
        for y in range(frame.n):
            if not satisfies(frame, val, y, f.lhs):
                continue
            for z in range(frame.n):
                if satisfies(frame, val, z, f.rhs) and frame.le(
                    frame.meet[y][z], x
                ):
                    return True
        return False
    if isinstance(f, Box):
        m = frame.succ[x]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if not satisfies(frame, val, y, f.arg):
                return False
        return True
    if isinstance(f, Dia):
        m = frame.succ[x]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if satisfies(frame, val, y, f.arg):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def truth_set(frame: ModalLFrame, val: FrameValuation, f: Formula) -> int:
    """Bitmask {x : x satisfies f}, computed recursively on point sets;
    the reference oracle for the vector path of `frame_validates`."""
    if isinstance(f, Top):
        return frame.base.full_mask
    if isinstance(f, Bot):
        return 1 << frame.one
    if isinstance(f, Letter):
        if f.name not in val:
            raise UndefinedLetter(f.name)
        return val[f.name]
    if isinstance(f, And):
        return truth_set(frame, val, f.lhs) & truth_set(frame, val, f.rhs)
    if isinstance(f, Or):
        return filter_join(
            frame.base, truth_set(frame, val, f.lhs), truth_set(frame, val, f.rhs)
        )
    if isinstance(f, Box):
        return box_mask(frame, truth_set(frame, val, f.arg))
    if isinstance(f, Dia):
        return dia_mask(frame, truth_set(frame, val, f.arg))
    raise TypeError(f"not a formula: {f!r}")


def _filter_vector(frame: ModalLFrame, memo: dict, f: Formula, pack) -> bytes | tuple:
    """Value vector of f over the filters of `frame`, built from its
    children's and memoized: entry i is the position in `filter_masks` of
    f's value under the i-th valuation, packed as `bytes` when there are
    at most 256 filters (`pack is bytes`) and as a tuple past that."""
    v = memo.get(f)
    if v is not None:
        return v
    if isinstance(f, (And, Or)):
        base = frame.base
        rows = base.filter_meet_table if isinstance(f, And) else base.filter_join_table
        left = _filter_vector(frame, memo, f.lhs, pack)
        right = _filter_vector(frame, memo, f.rhs, pack)
        v = pack(map(getitem, map(rows.__getitem__, left), right))
    elif isinstance(f, (Box, Dia)):
        arg = _filter_vector(frame, memo, f.arg, pack)
        dia = isinstance(f, Dia)
        if pack is bytes:
            v = arg.translate(frame.unary_tables[dia])
        else:
            v = tuple(map(frame.filter_modalities[dia].__getitem__, arg))
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[f] = v
    return v


def frame_validates(
    frame: ModalLFrame, pair: ConsequencePair, budget: Optional[int] = None
) -> Optional[FrameValuation]:
    """None iff V(lhs) is contained in V(rhs) for every filter-valued
    valuation on the occurring letters; otherwise the first countervaluation
    in bitmask-lexicographic order (`product(filters, repeat=k)` over the
    sorted letters).

    Each side is evaluated once, by `_filter_vector`, as a vector over
    all valuations, instead of one `truth_set` per valuation."""
    budget = resolve_budget(budget)
    ls = sorted(letters_of(pair))
    fs = filters(frame.base)
    k, last = len(fs), len(ls) - 1
    needed = k ** len(ls)
    if needed > budget:
        raise ResourceBound(needed, budget)
    pack = bytes if k <= 256 else tuple
    memo = {TOP: pack((k - 1,)) * needed, BOT: pack((0,)) * needed}
    for j, name in enumerate(ls):
        block = chain.from_iterable(repeat(d, k ** (last - j)) for d in range(k))
        memo[Letter(name)] = pack(block) * k**j
    left = _filter_vector(frame, memo, pair.lhs, pack)
    right = _filter_vector(frame, memo, pair.rhs, pack)
    outside = [~m for m in fs]
    escapes = map(
        int.__and__, map(fs.__getitem__, left), map(outside.__getitem__, right)
    )
    i = next(compress(count(), escapes), None)
    if i is None:
        return None
    return {name: fs[i // k ** (last - j) % k] for j, name in enumerate(ls)}


def successor_extrema(frame: ModalLFrame, x: int, y: int) -> tuple[int, int]:
    """Given x R y: (z, t) with z minimal and t maximal in R[x] and
    z below y below t.  Ties broken by least element id."""
    if not frame.rel(x, y):
        raise PreconditionViolated(f"{x} R {y} does not hold")
    base = frame.base
    succ = frame.succ[x]
    below = [w for w in range(frame.n) if succ >> w & 1 and base.le(w, y)]
    z = min(w for w in below if not any(base.le(u, w) and u != w for u in below))
    above = [w for w in range(frame.n) if succ >> w & 1 and base.le(y, w)]
    t = min(w for w in above if not any(base.le(w, u) and u != w for u in above))
    # minimality/maximality transfers from the restricted sets to all of R[x]
    for u in range(frame.n):
        if succ >> u & 1 and ((base.le(u, z) and u != z) or (base.le(t, u) and u != t)):
            raise InternalInconsistency(f"extrema not extremal in R[{x}]")
    return z, t


def frame_join(frame: LFrame, elems) -> int:
    """Least upper bound: generator of the intersection of the up-sets."""
    if isinstance(elems, int):
        members = [x for x in range(frame.n) if elems >> x & 1]
    else:
        members = list(elems)
    if not members:
        raise PreconditionViolated("join of the empty set")
    common = frame.full_mask
    for x in members:
        common &= frame.up_masks[x]
    acc = frame.one
    m = common
    while m:
        x = (m & -m).bit_length() - 1
        m &= m - 1
        acc = frame.meet[acc][x]
    return acc

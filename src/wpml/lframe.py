"""Finite L-frames and modal L-frames, the filter functor to (modal)
lattices, morphism condition checkers, and the relational semantics.

Point sets throughout are bitmasks over element ids; a FrameFilter is a
bitmask that is nonempty, upward closed under the frame order and closed
under the frame meet.  The improper filter (all points) is admitted and
the least filter is {1}.

An L-frame lists its filters, which are its principal up-sets, once
(`LFrame.filter_masks`) and builds the meet and join tables over them on
first use; a modal L-frame adds the box and diamond of every filter
(`ModalLFrame.filter_modalities`).  These caches live on the frame
objects, so they go when the frame goes.
`frame_validates` evaluates each side of a pair once, as a vector over
all filter-valued valuations (see `vectors`): on an L-frame of at most
16 filters, with the pair-code tables of its filter lattice
(`LFrame.filter_codes`) and the modal L-frame's box and diamond as
translate tables (`ModalLFrame.unary_tables`); on a larger one, with
`ValueVectors` over the same filter tables.  The pointwise `satisfies`
and the recursive `truth_set` are the reference oracles for both paths.

Each modal-L-frame condition is written once, as a kernel on one pair of
points: `_order_gap` for (i)/(ii), `_meet_gap` for (iv) and `_meet_reach`
for (iii), which is also `filter_join`.  The validator and
`catalog.modal_relations` use all three.  `generators._modal_fixpoint`
uses `_meet_reach` only: its (i)/(ii)/(iv) repairs grow successor sets
mid-scan and read the grown sets at once, which a per-pair kernel would
not reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
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
from .vectors import ScreenTables, ValueVectors, _seeded

FrameFilter = int  # bitmask over frame points
FrameValuation = dict[str, int]  # letter -> FrameFilter


@dataclass(frozen=True)
class LFrame:
    """Meet semilattice with top element `one`.

    The order is derived: x below y iff meet[x][y] == x.
    """

    elements: tuple[str, ...]
    meet: tuple[tuple[int, ...], ...]
    one: int

    @property
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
    def filter_codes(self) -> Optional[ScreenTables]:
        """The pair-code tables of the filter lattice (see `vectors`); None
        over 16 filters, whose pair codes do not fit in a byte."""
        if len(self.filter_masks) > 16:
            return None
        return ScreenTables((_filter_lattice(self, self.filter_masks),))

    def __repr__(self):
        return f"LFrame(n={self.n})"


@dataclass(frozen=True)
class ModalLFrame:
    """L-frame with an accessibility relation satisfying the five
    interaction conditions (see `validate_modal_lframe`).  `succ[x]` is
    the bitmask of R-successors of x."""

    base: LFrame
    succ: tuple[int, ...]

    @property
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
        """`filter_modalities` as `bytes.translate` tables over the
        positions of the base frame's `filter_codes`."""
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
    down, up = base.down_masks, base.up_masks
    m = sy
    while m:
        z = (m & -m).bit_length() - 1
        m &= m - 1
        if sx & down[z] == 0:
            return "i", z
    m = sx
    while m:
        w = (m & -m).bit_length() - 1
        m &= m - 1
        if sy & up[w] == 0:
            return "ii", w
    return None


def _meet_gap(base: LFrame, succ, x: int, y: int) -> Optional[tuple[int, int]]:
    """Condition (iv) at (x, y): x R u and y R v imply (x meet y) R
    (u meet v).  The least (u, v) it fails for, or None."""
    meet = base.meet
    tgt = succ[meet[x][y]]
    mu = succ[x]
    while mu:
        u = (mu & -mu).bit_length() - 1
        mu &= mu - 1
        row = meet[u]
        mv = succ[y]
        while mv:
            v = (mv & -mv).bit_length() - 1
            mv &= mv - 1
            if not tgt >> row[v] & 1:
                return u, v
    return None


def _meet_reach(base: LFrame, a: int, b: int) -> int:
    """The up-closure of {u meet v : u in a, v in b}.  Condition (iii) at
    (x, y), that (x meet y) R z needs u in R[x], v in R[y] with u meet v
    below z, holds iff R[x meet y] lies inside the reach of R[x], R[y]."""
    meet, up = base.meet, base.up_masks
    reach = 0
    while a:
        u = (a & -a).bit_length() - 1
        a &= a - 1
        row = meet[u]
        mv = b
        while mv:
            v = (mv & -mv).bit_length() - 1
            mv &= mv - 1
            reach |= up[row[v]]
    return reach


def _check_modal_conditions(base: LFrame, succ) -> Optional[FrameViolation]:
    """The first violation in the scan order: (v), nonempty successor
    sets, (i)/(ii) over the pairs x below y, then (iv) before (iii) over
    all pairs, each in lexicographic order of the pair."""
    n = base.n
    meet = base.meet
    one = base.one
    # (v) 1 R x iff x = 1
    if succ[one] != 1 << one:
        return FrameViolation("v", (one,))
    for x in range(n):
        if succ[x] == 0:
            return FrameViolation("i", (x,))  # forced nonempty via x below 1, 1 R 1
    for x in range(n):
        for y in range(n):
            if base.le(x, y):
                gap = _order_gap(base, succ, x, y)
                if gap is not None:
                    return FrameViolation(gap[0], (x, y, gap[1]))
    for x in range(n):
        for y in range(n):
            gap = _meet_gap(base, succ, x, y)
            if gap is not None:
                return FrameViolation("iv", (x, y) + gap)
            missed = succ[meet[x][y]] & ~_meet_reach(base, succ[x], succ[y])
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
    out = 0
    m = mask
    while m:
        x = (m & -m).bit_length() - 1
        m &= m - 1
        out |= frame.up_masks[x]
    return out


def is_filter(frame: LFrame, mask: int) -> bool:
    """Nonempty, upward closed, meet closed."""
    if mask == 0:
        return False
    if up_closure(frame, mask) != mask:
        return False
    members = []
    m = mask
    while m:
        x = (m & -m).bit_length() - 1
        m &= m - 1
        members.append(x)
    for x in members:
        for y in members:
            if not mask >> frame.meet[x][y] & 1:
                return False
    return True


def filter_closure(frame: LFrame, mask: int) -> int:
    """Least filter containing the (nonempty) point set."""
    cur = mask | 1 << frame.one
    while True:
        nxt = up_closure(frame, cur)
        members = []
        m = nxt
        while m:
            x = (m & -m).bit_length() - 1
            m &= m - 1
            members.append(x)
        for i, x in enumerate(members):
            for y in members[i:]:
                nxt |= 1 << frame.meet[x][y]
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
    filter with the i-th smallest bitmask; names are hex bitmasks."""
    return _filter_lattice(frame, filters(frame))


def _filter_lattice(frame: LFrame, fs) -> FiniteLattice:
    """`fil_f_lattice` over the frame's filters `fs`."""
    k = len(fs)
    idx = frame._filter_index
    leq = tuple(tuple(fs[i] & ~fs[j] == 0 for j in range(k)) for i in range(k))
    return FiniteLattice(
        elements=tuple(hex(m) for m in fs),
        leq=leq,
        bot=idx[1 << frame.one],
        top=idx[frame.full_mask],
        meet=frame.filter_meet_table,
        join=frame.filter_join_table,
    )


def fil_f(frame: ModalLFrame) -> FiniteModalLattice:
    """Filter lattice with box/diamond induced by the relation."""
    box, dia = frame.filter_modalities
    return FiniteModalLattice.over(fil_f_lattice(frame.base), box, dia)


# --- morphisms ---------------------------------------------------------------

@dataclass(frozen=True)
class FrameMorphism:
    """Point map between frames; kind is 'plain', 'L' or 'bounded-L'."""

    dom: LFrame | ModalLFrame
    cod: LFrame | ModalLFrame
    map: tuple[int, ...]
    kind: str = "plain"

    def __call__(self, x: int) -> int:
        return self.map[x]

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
    violation with witnesses."""
    check_semilattice_hom(f)
    dom, cod = _base_of(f.dom), _base_of(f.cod)
    for x in range(dom.n):
        if f.map[x] == cod.one and x != dom.one:
            return MorphismViolation("unit-reflection", (x,))
    # images, for the existential part of condition 2
    image_above = []  # image_above[y'] = mask of x in dom with y' below f(x)
    for yp in range(cod.n):
        image_above.append(
            sum(1 << x for x in range(dom.n) if cod.le(yp, f.map[x]))
        )
    for x in range(dom.n):
        fx = f.map[x]
        for yp in range(cod.n):
            for zp in range(cod.n):
                if not cod.le(cod.meet[yp][zp], fx):
                    continue
                found = False
                my = image_above[yp]
                while my and not found:
                    y = (my & -my).bit_length() - 1
                    my &= my - 1
                    mz = image_above[zp]
                    while mz:
                        z = (mz & -mz).bit_length() - 1
                        mz &= mz - 1
                        if dom.le(dom.meet[y][z], x):
                            found = True
                            break
                if not found:
                    return MorphismViolation("meet-cover", (x, yp, zp))
    return None


def is_bounded_l_morphism(f: FrameMorphism) -> Optional[MorphismViolation]:
    """Forth plus the two back conditions, on top of the L-morphism
    conditions."""
    bad = is_l_morphism(f)
    if bad is not None:
        return bad
    dom, cod = f.dom, f.cod
    if not isinstance(dom, ModalLFrame) or not isinstance(cod, ModalLFrame):
        raise MorphismInvalid("bounded L-morphism needs modal frames")
    cbase = cod.base
    for x in range(dom.n):
        fx = f.map[x]
        m = dom.succ[x]
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            if not cod.succ[fx] >> f.map[y] & 1:
                return MorphismViolation("forth", (x, y))
        m = cod.succ[fx]
        while m:
            z = (m & -m).bit_length() - 1
            m &= m - 1
            down_ok = any(
                cbase.le(f.map[y], z)
                for y in range(dom.n)
                if dom.succ[x] >> y & 1
            )
            if not down_ok:
                return MorphismViolation("back-below", (x, z))
            up_ok = any(
                cbase.le(z, f.map[y])
                for y in range(dom.n)
                if dom.succ[x] >> y & 1
            )
            if not up_ok:
                return MorphismViolation("back-above", (x, z))
    return None


def enumerate_frame_morphisms(
    dom: LFrame | ModalLFrame,
    cod: LFrame | ModalLFrame,
    kind: str = "L",
    surjective_only: bool = False,
) -> Iterator[FrameMorphism]:
    """All morphisms of the requested kind, lexicographic in the map array."""
    dbase, cbase = _base_of(dom), _base_of(cod)
    fixed = [(dbase.one, cbase.one)]
    for f in _table_maps(dbase.n, cbase.n, fixed, [(dbase.meet, cbase.meet)]):
        cand = FrameMorphism(dom, cod, f, kind)
        if surjective_only and not cand.is_surjective():
            continue
        if kind == "L" and is_l_morphism(cand) is not None:
            continue
        if kind == "bounded-L" and is_bounded_l_morphism(cand) is not None:
            continue
        yield cand


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


class _FilterVectors(ValueVectors):
    """The filter algebra of a modal L-frame of more than 16 filters for
    the value-vector kernel: element i is the filter with the i-th
    smallest bitmask.  The tables are the frame's cached ones, read on
    first use."""

    def __init__(self, frame: ModalLFrame):
        self.frame = frame
        self.n = len(frame.base.filter_masks)
        self.top, self.bot = self.n - 1, 0

    @property
    def meet(self):
        return self.frame.base.filter_meet_table

    @property
    def join(self):
        return self.frame.base.filter_join_table

    @property
    def box(self):
        return self.frame.filter_modalities[0]

    @property
    def diamond(self):
        return self.frame.filter_modalities[1]


def frame_validates(
    frame: ModalLFrame, pair: ConsequencePair, budget: Optional[int] = None
) -> Optional[FrameValuation]:
    """None iff V(lhs) is contained in V(rhs) for every filter-valued
    valuation on the occurring letters; otherwise the first countervaluation
    in bitmask-lexicographic order (`product(filters, repeat=k)` over the
    sorted letters).

    Each side is evaluated once, as a vector over all valuations, instead
    of one `truth_set` per valuation: on the base frame's `filter_codes`
    with the frame's `unary_tables` (see `vectors`), or with
    `ValueVectors` on a frame of more than 16 filters."""
    budget = resolve_budget(budget)
    ls = sorted(letters_of(pair))
    fs = filters(frame.base)
    k, last = len(fs), len(ls) - 1
    needed = k ** len(ls)
    if needed > budget:
        raise ResourceBound(needed, budget)
    codes = frame.base.filter_codes
    if codes is not None:
        memo = _seeded(codes.seeds(len(ls), 1), ls)
        left = codes.vector(memo, pair.lhs, frame)
        right = codes.vector(memo, pair.rhs, frame)
        i = codes.escape(left, right)
        if i < 0:
            return None
    else:
        vectors = _FilterVectors(frame)
        memo = vectors.seed(ls)
        left = vectors.vector(memo, pair.lhs)
        right = vectors.vector(memo, pair.rhs)
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

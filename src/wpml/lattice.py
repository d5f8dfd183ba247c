"""Finite bounded and modal lattices, their homomorphisms, and validity
of consequence pairs on a concrete algebra.

Elements are dense integer ids.  The order matrix is the source of truth;
meet/join tables are derived once at validation time and cached on the
structure.

Two private kernels serve both sides of the duality: `_order_tables`
derives bound tables from an order (lattices here, L-frames in
`lframe.lframe_from_leq`, the lattice catalog) and `_table_maps`
enumerates the maps that preserve given tables (lattice homomorphisms
here, L-frame maps in `lframe`, candidate boxes in `catalog`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .errors import (
    MorphismInvalid,
    NotALattice,
    NotAPoset,
    PreconditionViolated,
    ResourceBound,
    WrongBounds,
    resolve_budget,
)
from .formulas import And, Bot, Box, ConsequencePair, Dia, Formula, Letter, Or, Top, letters


@dataclass(frozen=True)
class FiniteLattice:
    """Bounded lattice on elements 0..n-1.

    `leq[i][j]` iff element i is below element j.  `meet`/`join` are total
    tables of element ids.  Instances are built through `validate_lattice`
    (or a trusted constructor such as `fil_f`) so the invariants hold.
    """

    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    bot: int
    top: int
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.elements)

    def le(self, i: int, j: int) -> bool:
        return self.leq[i][j]

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, elements={self.elements!r})"


@dataclass(frozen=True)
class FiniteModalLattice(FiniteLattice):
    """Bounded lattice with unary box/diamond satisfying the five
    modal-lattice identities (see `check_modal_identities`)."""

    box: tuple[int, ...]
    diamond: tuple[int, ...]

    @classmethod
    def over(cls, lat: FiniteLattice, box, diamond) -> "FiniteModalLattice":
        """`lat` with the given box and diamond tables."""
        return cls(
            lat.elements, lat.leq, lat.bot, lat.top, lat.meet, lat.join, box, diamond
        )

    def __repr__(self):
        return f"FiniteModalLattice(n={self.n})"


def with_identity_modalities(lat: FiniteLattice) -> FiniteModalLattice:
    """Identity box/diamond always satisfy the modal-lattice identities."""
    ident = tuple(range(lat.n))
    return FiniteModalLattice.over(lat, ident, ident)


@dataclass(frozen=True)
class LatticeMorphism:
    """Element map between two lattices, tagged whether it must also
    preserve the modal operators."""

    dom: FiniteLattice
    cod: FiniteLattice
    map: tuple[int, ...]
    modal: bool = False

    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.cod.n

    def compose(self, inner: "LatticeMorphism") -> "LatticeMorphism":
        """self after inner."""
        return LatticeMorphism(
            inner.dom,
            self.cod,
            tuple(self.map[i] for i in inner.map),
            self.modal and inner.modal,
        )


Valuation = dict[str, int]


def validate_lattice(raw_leq, bot: int, top: int, elements=None) -> FiniteLattice:
    """Check the order axioms and derive meet/join tables.

    Raises NotAPoset / NotALattice / WrongBounds with a witness for the
    first violated axiom.
    """
    n = len(raw_leq)
    for row in raw_leq:
        if len(row) != n:
            raise NotAPoset("order matrix is not square")
    leq = tuple(tuple(bool(x) for x in row) for row in raw_leq)
    if elements is None:
        elements = tuple(f"e{i}" for i in range(n))
    names = tuple(str(x) for x in elements)
    if len(names) != n:
        raise NotAPoset("element name list does not match matrix size")
    if n == 0:
        raise NotAPoset("empty carrier")

    _check_order(leq)
    meet, join = _order_tables(leq)

    if not (0 <= bot < n and 0 <= top < n):
        raise WrongBounds(f"bot={bot} or top={top} out of range")
    for x in range(n):
        if not leq[bot][x]:
            raise WrongBounds(f"bot={bot} is not below {x}")
        if not leq[x][top]:
            raise WrongBounds(f"top={top} is not above {x}")

    return FiniteLattice(
        elements=names,
        leq=leq,
        bot=bot,
        top=top,
        meet=meet,
        join=join,
    )


def _check_order(leq) -> None:
    """Raise NotAPoset with a witness unless the square boolean matrix
    is reflexive, antisymmetric and transitive."""
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            raise NotAPoset(f"not reflexive at {i}")
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise NotAPoset(f"not antisymmetric on pair ({i}, {j})")
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        raise NotAPoset(f"not transitive on ({i}, {j}, {k})")


def _order_tables(leq, ops=("meet", "join")) -> tuple:
    """The meet and/or join tables of a partial order, one per name in
    `ops`.  The bound of (i, j) is the k whose down-mask (meet) or
    up-mask (join) is the intersection of those of i and j; antisymmetry
    makes the masks distinct, so k is unique when it exists.  Pairs are
    checked in row-major order and the ops in the given order:
    NotALattice(pair, op) at the first pair with no such k."""
    ids = range(len(leq))
    down = [sum(1 << k for k in ids if leq[k][i]) for i in ids]
    up = [sum(1 << k for k in ids if leq[i][k]) for i in ids]
    masks = [down if op == "meet" else up for op in ops]
    indexes = [{m: k for k, m in enumerate(ms)} for ms in masks]
    tables = [[] for _ in ops]
    for i in ids:
        rows = [[] for _ in ops]
        for j in ids:
            for op, ms, index, row in zip(ops, masks, indexes, rows):
                k = index.get(ms[i] & ms[j])
                if k is None:
                    raise NotALattice((i, j), op)
                row.append(k)
        for table, row in zip(tables, rows):
            table.append(tuple(row))
    return tuple(tuple(table) for table in tables)


@dataclass(frozen=True)
class IdentityViolation:
    """A failed modal-lattice identity with its witnesses."""

    identity: str
    witness: tuple[int, ...]


_MODAL_IDENTITIES = (
    "T = []T",
    "T = <>T",
    "[]a & []b = [](a & b)",
    "<>a v <>b <= <>(a v b)",
    "<>a & []b <= <>(a & b)",
)


def check_modal_identities(a: FiniteModalLattice) -> list[IdentityViolation]:
    """Empty list iff all five modal-lattice identities hold."""
    out = []
    if a.box[a.top] != a.top:
        out.append(IdentityViolation(_MODAL_IDENTITIES[0], (a.top,)))
    if a.diamond[a.top] != a.top:
        out.append(IdentityViolation(_MODAL_IDENTITIES[1], (a.top,)))
    n, leq = a.n, a.leq
    meet, join = a.meet, a.join
    box, dia = a.box, a.diamond
    for x in range(n):
        for y in range(n):
            if meet[box[x]][box[y]] != box[meet[x][y]]:
                out.append(IdentityViolation(_MODAL_IDENTITIES[2], (x, y)))
            if not leq[join[dia[x]][dia[y]]][dia[join[x][y]]]:
                out.append(IdentityViolation(_MODAL_IDENTITIES[3], (x, y)))
            if not leq[meet[dia[x]][box[y]]][dia[meet[x][y]]]:
                out.append(IdentityViolation(_MODAL_IDENTITIES[4], (x, y)))
    return out


def validate_morphism(h: LatticeMorphism) -> None:
    """Raise MorphismInvalid unless h preserves bounds, meet, join (and the
    modal operators when h.modal)."""
    dom, cod, f = h.dom, h.cod, h.map
    if len(f) != dom.n or any(not (0 <= x < cod.n) for x in f):
        raise MorphismInvalid("map array has wrong shape")
    if f[dom.bot] != cod.bot:
        raise MorphismInvalid("bottom not preserved")
    if f[dom.top] != cod.top:
        raise MorphismInvalid("top not preserved")
    for i in range(dom.n):
        for j in range(dom.n):
            if f[dom.meet[i][j]] != cod.meet[f[i]][f[j]]:
                raise MorphismInvalid(f"meet not preserved on ({i}, {j})")
            if f[dom.join[i][j]] != cod.join[f[i]][f[j]]:
                raise MorphismInvalid(f"join not preserved on ({i}, {j})")
    if h.modal:
        if not isinstance(dom, FiniteModalLattice) or not isinstance(
            cod, FiniteModalLattice
        ):
            raise MorphismInvalid("modal morphism between non-modal lattices")
        for i in range(dom.n):
            if f[dom.box[i]] != cod.box[f[i]]:
                raise MorphismInvalid(f"box not preserved at {i}")
            if f[dom.diamond[i]] != cod.diamond[f[i]]:
                raise MorphismInvalid(f"diamond not preserved at {i}")


def enumerate_homs(
    a: FiniteLattice,
    b: FiniteLattice,
    modal: bool = False,
) -> Iterator[LatticeMorphism]:
    """All structure-preserving maps a -> b, in lexicographic order of the
    map array (see `_table_maps`)."""
    amod = isinstance(a, FiniteModalLattice)
    bmod = isinstance(b, FiniteModalLattice)
    if modal and not (amod and bmod):
        raise MorphismInvalid("modal hom enumeration needs modal lattices")
    fixed = [(a.bot, b.bot), (a.top, b.top)]
    binary = [(a.meet, b.meet), (a.join, b.join)]
    unary = [(a.box, b.box), (a.diamond, b.diamond)] if modal else []
    for f in _table_maps(a.n, b.n, fixed, binary, unary):
        yield LatticeMorphism(a, b, f, modal)


def _table_maps(n: int, m: int, fixed, binary, unary=()) -> Iterator[tuple[int, ...]]:
    """All maps f from 0..n-1 to 0..m-1 with f[i] == v for each (i, v)
    in `fixed`, f[dom[i][j]] == cod[f[i]][f[j]] for each (dom, cod) in
    `binary` (commutative tables) and f[dom[i]] == cod[f[i]] for each
    (dom, cod) in `unary`, in lexicographic order.  Backtracking checks
    each equation once its largest position is assigned."""
    values = [range(m)] * n
    for i, v in fixed:
        values[i] = [w for w in values[i] if w == v]
    # checks[p]: the (z, x, y, cod) with f[z] == cod[f[x]][f[y]] and
    # largest position p; a unary equation is one with x == y over a
    # table that ignores its second argument
    checks = [[] for _ in range(n)]
    for dom, cod in binary:
        for x in range(n):
            for y in range(x + 1):
                z = dom[x][y]
                checks[max(x, z)].append((z, x, y, cod))
    for dom, cod in unary:
        table = [(c,) * m for c in cod]
        for x in range(n):
            checks[max(x, dom[x])].append((dom[x], x, x, table))
    f = [0] * n

    def extend(i: int):
        if i == n:
            yield tuple(f)
            return
        for v in values[i]:
            f[i] = v
            for z, x, y, cod in checks[i]:
                if f[z] != cod[f[x]][f[y]]:
                    break
            else:
                yield from extend(i + 1)

    return extend(0)


def _eval_formula(
    a: FiniteLattice, f: Formula, val: Valuation
) -> int:
    if isinstance(f, Letter):
        return val[f.name]
    if isinstance(f, Top):
        return a.top
    if isinstance(f, Bot):
        return a.bot
    if isinstance(f, And):
        return a.meet[_eval_formula(a, f.lhs, val)][_eval_formula(a, f.rhs, val)]
    if isinstance(f, Or):
        return a.join[_eval_formula(a, f.lhs, val)][_eval_formula(a, f.rhs, val)]
    if isinstance(f, Box):
        if not isinstance(a, FiniteModalLattice):
            raise PreconditionViolated("modal formula on a plain lattice")
        return a.box[_eval_formula(a, f.arg, val)]
    if isinstance(f, Dia):
        if not isinstance(a, FiniteModalLattice):
            raise PreconditionViolated("modal formula on a plain lattice")
        return a.diamond[_eval_formula(a, f.arg, val)]
    raise TypeError(f"not a formula: {f!r}")


def evaluate(a, f: Formula, val: Valuation) -> int:
    """Value of f in a under the valuation (letter -> element id)."""
    return _eval_formula(a, f, val)


def algebra_validates(
    a: FiniteLattice,
    pair: ConsequencePair,
    budget: Optional[int] = None,
) -> Optional[Valuation]:
    """None iff sigma(lhs) <= sigma(rhs) for every valuation; otherwise the
    first countervaluation in lexicographic order (letters sorted, element
    ids ascending).  Raises ResourceBound if |A|^k exceeds the budget."""
    budget = resolve_budget(budget)
    ls = sorted(letters(pair))
    k = len(ls)
    needed = a.n**k
    if needed > budget:
        raise ResourceBound(needed, budget)
    for combo in product(range(a.n), repeat=k):
        val = dict(zip(ls, combo))
        if not a.leq[_eval_formula(a, pair.lhs, val)][_eval_formula(a, pair.rhs, val)]:
            return val
    return None


def is_distributive(a: FiniteLattice) -> bool:
    """Distributive law checked on all triples."""
    n = a.n
    meet, join = a.meet, a.join
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    return False
    return True


@dataclass(frozen=True)
class EpiReport:
    """Outcome of a bounded epimorphism check.  `epi` is relative to the
    stated codomain-size bound."""

    epi: bool
    bound: int
    distributive_only: bool
    separating: Optional[tuple] = None  # (candidate, g1, g2)


def is_epi_bounded(
    h: LatticeMorphism,
    bound: int,
    restrict_distributive: bool = False,
    budget: Optional[int] = None,
) -> EpiReport:
    """Search all candidate codomains M with |M| <= bound (up to
    isomorphism, distributive-only when flagged) for homs g1, g2 from
    cod(h) with g1 o h == g2 o h but g1 != g2."""
    from .catalog import all_lattices, all_modal_lattices

    budget = resolve_budget(budget)
    validate_morphism(h)
    cod = h.cod
    work = 0
    for m in range(1, bound + 1):
        candidates = all_modal_lattices(m) if h.modal else all_lattices(m)
        for cand in candidates:
            if restrict_distributive and not is_distributive(cand):
                continue
            homs = list(enumerate_homs(cod, cand, modal=h.modal))
            work += cod.n ** 2 * max(len(homs), 1)
            if work > budget:
                raise ResourceBound(work, budget)
            for i, g1 in enumerate(homs):
                comp1 = tuple(g1.map[x] for x in h.map)
                for g2 in homs[i + 1 :]:
                    if comp1 == tuple(g2.map[x] for x in h.map):
                        return EpiReport(
                            False, bound, restrict_distributive, (cand, g1, g2)
                        )
    return EpiReport(True, bound, restrict_distributive)

"""Finite instantiation of the duality between (modal) lattices and
(modal) L-spaces.

At finite scale every subset is clopen, so "clopen filter" means
"filter" and the space side of the duality is a tight modal L-frame.
Algebra filters and frame filters share the bitmask representation and
the closure-based enumeration engine from `lframe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalInconsistency, MorphismInvalid, PreconditionViolated
from .lattice import (
    FiniteLattice,
    FiniteModalLattice,
    LatticeMorphism,
    validate_morphism,
)
from .lframe import (
    FrameMorphism,
    LFrame,
    ModalLFrame,
    FrameViolation,
    box_mask,
    dia_mask,
    fil_f,
    fil_f_lattice,
    filters,
    is_bounded_l_morphism,
    is_filter,
    is_l_morphism,
    validate_lframe,
    validate_modal_lframe,
)


@dataclass(frozen=True)
class ModalLSpaceFin:
    """Finite modal L-space: a tight modal L-frame whose points carry
    provenance (the algebra filter each point came from)."""

    frame: ModalLFrame
    provenance: tuple[int, ...]
    source: Optional[FiniteModalLattice] = None

    @property
    def n(self) -> int:
        return self.frame.n


def algebra_filters(lat: FiniteLattice | FiniteModalLattice) -> list[int]:
    """All filters of the algebra (nonempty, upward closed, meet closed),
    sorted by bitmask; the improper filter is included."""
    base = lat.base if isinstance(lat, FiniteModalLattice) else lat
    view = LFrame(base.elements, base.meet, base.top)
    return filters(view)


def _algebra_frame(lat: FiniteLattice | FiniteModalLattice, points: list[int]) -> LFrame:
    """Meet semilattice of algebra filters: order is inclusion, meet is
    intersection, 1 is the improper filter."""
    idx = {m: i for i, m in enumerate(points)}
    k = len(points)
    meet = tuple(
        tuple(idx[points[i] & points[j]] for j in range(k)) for i in range(k)
    )
    names = tuple(hex(m) for m in points)
    base = lat.base if isinstance(lat, FiniteModalLattice) else lat
    return validate_lframe(names, meet, idx[(1 << base.n) - 1])


def fil_l_plain(lat: FiniteLattice) -> tuple[LFrame, tuple[int, ...]]:
    """Non-modal dual: the meet semilattice of algebra filters, with the
    filter masks as provenance."""
    points = algebra_filters(lat)
    return _algebra_frame(lat, points), tuple(points)


def plain_round_trip_ok(lat: FiniteLattice) -> bool:
    """a |-> {F : a in F} is an order isomorphism onto the filter lattice
    of the dual semilattice."""
    frame, points = fil_l_plain(lat)
    into = fil_f_lattice(frame)
    index = {m: i for i, m in enumerate(frame.filter_masks)}
    mapping = []
    for elt in range(lat.n):
        phi = sum(1 << p for p, fm in enumerate(points) if fm >> elt & 1)
        if phi not in index:
            return False
        mapping.append(index[phi])
    if len(set(mapping)) != lat.n or into.n != lat.n:
        return False
    return all(
        lat.leq[i][j] == into.leq[mapping[i]][mapping[j]]
        for i in range(lat.n)
        for j in range(lat.n)
    )


def fil_l(a: FiniteModalLattice) -> ModalLSpaceFin:
    """Dual space of a modal lattice: points are the algebra filters,
    F R G iff box(c) in F implies c in G and c in G implies dia(c) in F.
    The result is checked to be a valid, tight modal L-frame."""
    points = algebra_filters(a)
    frame = _algebra_frame(a, points)
    n = len(points)
    succ = []
    for i in range(n):
        fi = points[i]
        row = 0
        for j in range(n):
            gj = points[j]
            ok = True
            for c in range(a.n):
                if fi >> a.box[c] & 1 and not gj >> c & 1:
                    ok = False
                    break
                if gj >> c & 1 and not fi >> a.diamond[c] & 1:
                    ok = False
                    break
            if ok:
                row |= 1 << j
        succ.append(row)
    out = validate_modal_lframe(frame, tuple(succ))
    if isinstance(out, FrameViolation):
        raise InternalInconsistency(f"dual space is not a modal L-frame: {out}")
    if not is_tight(out):
        raise InternalInconsistency("dual space is not tight")
    return ModalLSpaceFin(out, tuple(points), a)


def clopfil(x: ModalLSpaceFin | ModalLFrame) -> FiniteModalLattice:
    """Lattice of clopen (= all) filters; delegates to fil_f."""
    frame = x.frame if isinstance(x, ModalLSpaceFin) else x
    return fil_f(frame)


def tightening(frame: ModalLFrame) -> tuple[int, ...]:
    """The relation determined by the box/diamond of all filters."""
    fs = filters(frame.base)
    n = frame.n
    boxes = [(u, box_mask(frame, u)) for u in fs]
    dias = [(u, dia_mask(frame, u)) for u in fs]
    succ = []
    for x in range(n):
        row = 0
        for y in range(n):
            ok = all(not bm >> x & 1 or u >> y & 1 for u, bm in boxes) and all(
                not u >> y & 1 or dm >> x & 1 for u, dm in dias
            )
            if ok:
                row |= 1 << y
        succ.append(row)
    return tuple(succ)


def is_tight(frame: ModalLFrame) -> bool:
    return frame.succ == tightening(frame)


def round_trip_iso(a: FiniteModalLattice) -> LatticeMorphism:
    """The unit a |-> phi(a) = {F : a in F}, verified to be a bijective
    modal-lattice isomorphism onto clopfil(fil_l(a)).  Failure falsifies
    the implementation, not the input."""
    space = fil_l(a)
    into = clopfil(space)
    point_filters = space.provenance
    filter_index = {m: i for i, m in enumerate(space.frame.base.filter_masks)}
    mapping = []
    for elt in range(a.n):
        phi = sum(1 << p for p, fm in enumerate(point_filters) if fm >> elt & 1)
        if phi not in filter_index:
            raise InternalInconsistency(
                f"phi({elt}) = {hex(phi)} is not a filter of the dual space"
            )
        mapping.append(filter_index[phi])
    if len(set(mapping)) != a.n or into.n != a.n:
        raise InternalInconsistency(
            f"round trip not bijective: |A| = {a.n}, |clopfil(fil_l(A))| = {into.n}"
        )
    iso = LatticeMorphism(a, into, tuple(mapping), modal=True)
    try:
        validate_morphism(iso)
    except MorphismInvalid as exc:
        raise InternalInconsistency(f"round trip is not a homomorphism: {exc}")
    return iso


def dual_of_hom(
    h: LatticeMorphism,
    dom_space: Optional[ModalLSpaceFin] = None,
    cod_space: Optional[ModalLSpaceFin] = None,
) -> FrameMorphism:
    """Preimage map between dual spaces: F |-> h^{-1}[F].

    For a modal hom the result is a bounded L-morphism; it is surjective
    whenever h is injective.  Precomputed duals of h.dom / h.cod may be
    passed to share space objects across calls."""
    validate_morphism(h)
    if not h.modal:
        raise MorphismInvalid("dual_of_hom expects a modal lattice hom")
    space_b = cod_space if cod_space is not None else fil_l(h.cod)
    space_a = dom_space if dom_space is not None else fil_l(h.dom)
    index_a = {m: i for i, m in enumerate(space_a.provenance)}
    mapping = []
    for fm in space_b.provenance:
        pre = sum(1 << c for c in range(h.dom.n) if fm >> h.map[c] & 1)
        if pre not in index_a:
            raise InternalInconsistency(f"preimage {hex(pre)} is not a filter")
        mapping.append(index_a[pre])
    out = FrameMorphism(space_b.frame, space_a.frame, tuple(mapping), "bounded-L")
    bad = is_bounded_l_morphism(out)
    if bad is not None:
        raise InternalInconsistency(f"dual of a hom is not bounded-L: {bad}")
    return out


def dual_of_frame_morphism(f: FrameMorphism) -> LatticeMorphism:
    """Preimage map between filter lattices: U |-> f^{-1}[U].

    Requires an L-morphism (bounded-L for the modal case); the dual of a
    surjective bounded L-morphism is injective."""
    modal = f.kind == "bounded-L"
    if modal:
        bad = is_bounded_l_morphism(f)
    else:
        bad = is_l_morphism(f)
    if bad is not None:
        raise MorphismInvalid(f"not an {f.kind} morphism: {bad}")
    dom_base = f.dom.base if isinstance(f.dom, ModalLFrame) else f.dom
    cod_base = f.cod.base if isinstance(f.cod, ModalLFrame) else f.cod
    if modal:
        cod_lat = fil_f(f.cod)
        dom_lat = fil_f(f.dom)
    else:
        cod_lat = fil_f_lattice(cod_base)
        dom_lat = fil_f_lattice(dom_base)
    dom_index = {m: i for i, m in enumerate(dom_base.filter_masks)}
    mapping = []
    for u in cod_base.filter_masks:
        pre = sum(1 << x for x in range(dom_base.n) if u >> f.map[x] & 1)
        if pre not in dom_index:
            raise InternalInconsistency(f"preimage {hex(pre)} is not a filter")
        mapping.append(dom_index[pre])
    out = LatticeMorphism(cod_lat, dom_lat, tuple(mapping), modal=modal)
    validate_morphism(out)
    return out


def separating_filter(frame: LFrame, u: int, v: int) -> int:
    """A filter W with u inside W and W disjoint from v, given that u is a
    filter, the complement of v is a filter, and u, v are disjoint.  The
    inclusion-least such W (namely the filter generated by u) is returned."""
    if not is_filter(frame, u):
        raise PreconditionViolated("U is not a filter")
    comp = frame.full_mask & ~v
    if not is_filter(frame, comp):
        raise PreconditionViolated("complement of V is not a filter")
    if u & v:
        raise PreconditionViolated("U and V intersect")
    return u

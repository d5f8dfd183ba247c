"""Finite instantiation of the duality between (modal) lattices and
(modal) L-spaces.

At finite scale every subset is clopen, so "clopen filter" means
"filter" and the space side of the duality is a tight modal L-frame.
Algebra filters and frame filters share the bitmask representation and
the closure-based enumeration engine from `lframe`.  A bounded lattice
dualizes as the modal lattice with identity box and diamond: its dual is
the base L-frame of that lattice's `fil_l`.

Shared kernels: `_canonical_relation`, the relation of `fil_l` and of
`tightening`; `_unit_masks`, the unit c |-> {F : c in F}; and
`_preimage_map`, the filter-preimage map of both morphism duals, read
from the map's fibres (`lframe._fibres`).
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
    _base_of,
    _fibres,
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


def algebra_filters(lat: FiniteLattice) -> list[int]:
    """All filters of the algebra (nonempty, upward closed, meet closed),
    sorted by bitmask; the improper filter is included."""
    view = LFrame(lat.elements, lat.meet, lat.top)
    return filters(view)


def _algebra_frame(lat: FiniteLattice, points: list[int]) -> LFrame:
    """Meet semilattice of algebra filters: order is inclusion, meet is
    intersection, 1 is the improper filter."""
    idx = {m: i for i, m in enumerate(points)}
    k = len(points)
    meet = tuple(
        tuple(idx[points[i] & points[j]] for j in range(k)) for i in range(k)
    )
    names = tuple(hex(m) for m in points)
    return validate_lframe(names, meet, idx[(1 << lat.n) - 1])


def _unit_masks(n: int, points) -> list[int]:
    """The unit phi(c) = {p : c in points[p]} of each element c < n, as a
    mask over the points (the algebra filters)."""
    return [sum(1 << p for p, fm in enumerate(points) if fm >> c & 1) for c in range(n)]


def _preimage_map(fmap, m: int, masks, index: dict[int, int]) -> tuple[int, ...]:
    """For each mask over the m points that `fmap` maps into, the
    position in `index` of its preimage {c : fmap[c] in mask};
    InternalInconsistency if a preimage is not there (not a filter)."""
    fibres = _fibres(fmap, m)
    mapping = []
    for mask in masks:
        pre = fibres[mask]
        if pre not in index:
            raise InternalInconsistency(f"preimage {hex(pre)} is not a filter")
        mapping.append(index[pre])
    return tuple(mapping)


def _canonical_relation(n: int, tests) -> tuple[int, ...]:
    """Successor masks of x R y iff, for each test (b, u, d) of point masks,
    x in b implies y in u and y in u implies x in d."""
    succ = []
    for x in range(n):
        row = (1 << n) - 1
        for b, u, d in tests:
            if b >> x & 1:
                row &= u
            if not d >> x & 1:
                row &= ~u
        succ.append(row)
    return tuple(succ)


def fil_l(a: FiniteModalLattice) -> ModalLSpaceFin:
    """Dual space of a modal lattice: points are the algebra filters,
    F R G iff box(c) in F implies c in G and c in G implies dia(c) in F.
    The result is checked to be a valid, tight modal L-frame."""
    points = algebra_filters(a)
    frame = _algebra_frame(a, points)
    phi = _unit_masks(a.n, points)
    tests = [(phi[a.box[c]], phi[c], phi[a.diamond[c]]) for c in range(a.n)]
    out = validate_modal_lframe(frame, _canonical_relation(len(points), tests))
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
    tests = [(box_mask(frame, u), u, dia_mask(frame, u)) for u in filters(frame.base)]
    return _canonical_relation(frame.n, tests)


def is_tight(frame: ModalLFrame) -> bool:
    return frame.succ == tightening(frame)


def round_trip_iso(a: FiniteModalLattice) -> LatticeMorphism:
    """The unit a |-> phi(a) = {F : a in F}, verified to be a bijective
    modal-lattice isomorphism onto clopfil(fil_l(a)).  Failure falsifies
    the implementation, not the input."""
    space = fil_l(a)
    into = clopfil(space)
    filter_index = space.frame.base._filter_index
    mapping = []
    for elt, phi in enumerate(_unit_masks(a.n, space.provenance)):
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
    mapping = _preimage_map(h.map, h.cod.n, space_b.provenance, index_a)
    out = FrameMorphism(space_b.frame, space_a.frame, mapping, "bounded-L")
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
    dom_base, cod_base = _base_of(f.dom), _base_of(f.cod)
    if modal:
        cod_lat = fil_f(f.cod)
        dom_lat = fil_f(f.dom)
    else:
        cod_lat = fil_f_lattice(cod_base)
        dom_lat = fil_f_lattice(dom_base)
    mapping = _preimage_map(
        f.map, cod_base.n, cod_base.filter_masks, dom_base._filter_index
    )
    out = LatticeMorphism(cod_lat, dom_lat, mapping, modal=modal)
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

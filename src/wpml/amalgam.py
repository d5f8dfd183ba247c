"""The dual pullback superamalgamation construction, its verification,
interpolant-witness extraction, and the glued-filter comparison
construction.

The superamalgam (the filter lattice of the pullback frame) is never
materialized: all comparisons p1(a) <= p2(b) are point-set inclusions
inside the pullback, which gives identical verdicts exponentially
cheaper.  Point sets move through the projections' preimages and the
legs' images (`lframe._fibres`, `_ImageTable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .duality import ModalLSpaceFin, _unit_masks, algebra_filters, dual_of_hom, fil_l
from .errors import (
    GluingMismatch,
    InternalInconsistency,
    MorphismInvalid,
    NotSurjective,
)
from .lattice import (
    FiniteLattice,
    FiniteModalLattice,
    LatticeMorphism,
    validate_morphism,
)
from .lframe import (
    FrameMorphism,
    FrameViolation,
    ModalLFrame,
    _fibres,
    _ImageTable,
    filters,
    is_bounded_l_morphism,
    is_filter,
    validate_lframe,
    validate_modal_lframe,
)


@dataclass(frozen=True)
class VFormation:
    """Span of modal-lattice embeddings h1: K -> L1, h2: K -> L2."""

    k: FiniteModalLattice
    l1: FiniteModalLattice
    l2: FiniteModalLattice
    h1: LatticeMorphism
    h2: LatticeMorphism


def validate_vformation(v: VFormation) -> None:
    for name, h, dom, cod in (("h1", v.h1, v.k, v.l1), ("h2", v.h2, v.k, v.l2)):
        if h.dom != dom or h.cod != cod:
            raise MorphismInvalid(f"{name} does not span K -> L")
        if not h.modal:
            raise MorphismInvalid(f"{name} must be a modal hom")
        validate_morphism(h)
        if not h.is_injective():
            raise MorphismInvalid(f"{name} is not an embedding")


@dataclass(frozen=True)
class PullbackFrame:
    """Pullback of two surjective bounded L-morphisms with componentwise
    meet and relation; projections are verified bounded L-morphisms."""

    frame: ModalLFrame
    points: tuple[tuple[int, int], ...]
    proj1: FrameMorphism
    proj2: FrameMorphism
    f1: FrameMorphism
    f2: FrameMorphism


def pullback(f1: FrameMorphism, f2: FrameMorphism) -> PullbackFrame:
    """Pb(f1, f2) = {(x, y) : f1(x) = f2(y)} for surjective bounded
    L-morphisms with a common codomain, related where both coordinates
    are: R[(a, b)] = proj1^-1[R1[a]] & proj2^-1[R2[b]].  Frame validity
    and both projection conditions are verified, not assumed."""
    if f1.cod != f2.cod:
        raise MorphismInvalid("legs have different codomains")
    for name, f in (("f1", f1), ("f2", f2)):
        if not isinstance(f.dom, ModalLFrame) or not isinstance(f.cod, ModalLFrame):
            raise MorphismInvalid(f"{name} must join modal L-frames")
        bad = is_bounded_l_morphism(f)
        if bad is not None:
            raise MorphismInvalid(f"{name} is not a bounded L-morphism: {bad}")
        if not f.is_surjective():
            raise NotSurjective(name)
    y1, y2 = f1.dom, f2.dom
    points = [
        (a, b)
        for a in range(y1.n)
        for b in range(y2.n)
        if f1.map[a] == f2.map[b]
    ]
    index = {p: i for i, p in enumerate(points)}
    meet = [
        [index[(y1.meet[a][c], y2.meet[b][d])] for (c, d) in points]
        for (a, b) in points
    ]
    one = index[(y1.one, y2.one)]
    names = tuple(f"({a},{b})" for a, b in points)
    base = validate_lframe(names, meet, one)
    map1 = tuple(a for a, _ in points)
    map2 = tuple(b for _, b in points)
    fibres1, fibres2 = _fibres(map1, y1.n), _fibres(map2, y2.n)
    succ = tuple(fibres1[y1.succ[a]] & fibres2[y2.succ[b]] for a, b in points)
    frame = validate_modal_lframe(base, succ)
    if isinstance(frame, FrameViolation):
        raise InternalInconsistency(f"pullback is not a modal L-frame: {frame}")
    proj1 = FrameMorphism(frame, y1, map1, "bounded-L")
    proj2 = FrameMorphism(frame, y2, map2, "bounded-L")
    for name, pr in (("proj1", proj1), ("proj2", proj2)):
        bad = is_bounded_l_morphism(pr)
        if bad is not None:
            raise InternalInconsistency(f"{name} is not bounded-L: {bad}")
        if not pr.is_surjective():
            raise InternalInconsistency(f"{name} is not onto")
    return PullbackFrame(frame, tuple(points), proj1, proj2, f1, f2)


@dataclass(frozen=True)
class AmalgamReport:
    commutes: bool
    p1_injective: bool
    p2_injective: bool
    p1_filters_ok: bool
    p2_filters_ok: bool
    witnesses: tuple[tuple[tuple[int, int], int], ...]
    missing: tuple[tuple[int, int], ...]
    verdict: str  # "pass" | "fail"


@dataclass(frozen=True)
class Superamalgamation:
    vformation: VFormation
    space_k: ModalLSpaceFin
    space1: ModalLSpaceFin
    space2: ModalLSpaceFin
    pb: PullbackFrame
    p1: tuple[int, ...]  # point-set of the pullback per element of L1
    p2: tuple[int, ...]
    report: AmalgamReport


def _point_embedding(space, pb: PullbackFrame, side: int) -> tuple[int, ...]:
    """Element a of L_i maps to the pullback point set
    proj_i^{-1}[phi(a)] = {t : a in provenance of the i-th coordinate}."""
    fibres = _fibres((pb.proj1, pb.proj2)[side].map, space.frame.n)
    return tuple(fibres[phi] for phi in _unit_masks(space.source.n, space.provenance))


def _dual_pullback(v: VFormation):
    """The dual spaces of K, L1 and L2, the pullback of the dual legs,
    and the embeddings p1, p2 of L1, L2 into its point sets."""
    validate_vformation(v)
    space_k = fil_l(v.k)
    space1 = fil_l(v.l1)
    space2 = fil_l(v.l2)
    f1 = dual_of_hom(v.h1, dom_space=space_k, cod_space=space1)
    f2 = dual_of_hom(v.h2, dom_space=space_k, cod_space=space2)
    pb = pullback(f1, f2)
    p1 = _point_embedding(space1, pb, 0)
    p2 = _point_embedding(space2, pb, 1)
    return space_k, space1, space2, pb, p1, p2


def superamalgamate(v: VFormation) -> Superamalgamation:
    """Run the dual pullback construction and verify commutativity,
    injectivity of both filter-level embeddings, and the witness
    condition on every ordered pair (a, b) with p1(a) inside p2(b)."""
    space_k, space1, space2, pb, p1, p2 = _dual_pullback(v)

    commutes = all(
        p1[v.h1.map[c]] == p2[v.h2.map[c]] for c in range(v.k.n)
    )
    p1_inj = len(set(p1)) == v.l1.n
    p2_inj = len(set(p2)) == v.l2.n
    p1_filters = all(is_filter(pb.frame.base, m) for m in p1)
    p2_filters = all(is_filter(pb.frame.base, m) for m in p2)

    witnesses = []
    missing = []
    for a in range(v.l1.n):
        for b in range(v.l2.n):
            if p1[a] & ~p2[b]:
                continue
            c = _least_witness(v, a, b)
            if c is None:
                missing.append((a, b))
            else:
                witnesses.append(((a, b), c))
    verdict = (
        "pass"
        if commutes and p1_inj and p2_inj and p1_filters and p2_filters and not missing
        else "fail"
    )
    report = AmalgamReport(
        commutes,
        p1_inj,
        p2_inj,
        p1_filters,
        p2_filters,
        tuple(witnesses),
        tuple(missing),
        verdict,
    )
    return Superamalgamation(v, space_k, space1, space2, pb, p1, p2, report)


def _least_witness(v: VFormation, a: int, b: int) -> Optional[int]:
    for c in range(v.k.n):
        if v.l1.leq[a][v.h1.map[c]] and v.l2.leq[v.h2.map[c]][b]:
            return c
    return None


@dataclass(frozen=True)
class InterpolantWitness:
    kind: str  # "witness" | "none-needed" | "no-witness"
    element: Optional[int] = None


def find_algebraic_interpolant(v: VFormation, a: int, b: int) -> InterpolantWitness:
    """Witness c in K for p1(a) <= p2(b), least by element id.  A missing
    witness falsifies the superamalgamation theorem and is reported as a
    hard inconsistency by callers."""
    _, _, _, _, p1, p2 = _dual_pullback(v)
    if p1[a] & ~p2[b]:
        return InterpolantWitness("none-needed")
    c = _least_witness(v, a, b)
    if c is None:
        return InterpolantWitness("no-witness")
    return InterpolantWitness("witness", c)


def check_supamal_claim(pb: PullbackFrame) -> list[str]:
    """Finite rendering of the two-part separation claim used in the
    superamalgamation proof, asserted over all filter pairs (U, V):

    - the up-closure of f1[U] is a filter of X;
    - the complement of the down-closure of f2[Y2 \\ V] is a filter of X;
    - when proj1^{-1}[U] is included in proj2^{-1}[V], the two sets above
      are disjoint.

    The second part is checked once per V, before the loop over U.
    """
    y1, y2 = pb.f1.dom, pb.f2.dom
    xbase = pb.f1.cod.base
    images1, images2 = _ImageTable(pb.f1.map), _ImageTable(pb.f2.map)
    fibres1, fibres2 = _fibres(pb.proj1.map, y1.n), _fibres(pb.proj2.map, y2.n)
    problems = []
    # per filter V of Y2: (V, proj2^{-1}[V], down(f2[Y2 \ V]))
    vs = []
    for vmask in filters(y2.base):
        rest = y2.base.full_mask & ~vmask
        comp = xbase.down_closures[images2[rest]]
        outside = xbase.full_mask & ~comp
        if not is_filter(xbase, outside) and outside != 0:
            problems.append(
                f"complement of down(f2[Y2 - {hex(vmask)}]) is not a filter"
            )
        if outside == 0 and rest != 0:
            problems.append(f"complement of down(f2[Y2 - {hex(vmask)}]) is empty")
        vs.append((vmask, fibres2[vmask], comp))
    for u in filters(y1.base):
        up_f1_u = xbase.up_closures[images1[u]]
        if not is_filter(xbase, up_f1_u):
            problems.append(f"up(f1[{hex(u)}]) is not a filter")
        for vmask, pre2, comp in vs:
            if fibres1[u] & ~pre2 == 0 and up_f1_u & comp:
                problems.append(
                    f"claim disjointness fails for U={hex(u)}, V={hex(vmask)}"
                )
    return problems


# --- glued-filter comparison -------------------------------------------------

@dataclass(frozen=True)
class JonssonComparison:
    glued_filters: tuple[int, ...]  # masks over the glued carrier
    pb_points: tuple[tuple[int, int], ...]  # pairs of algebra-filter masks
    bijection: tuple[int, ...]  # index into pb_points per glued filter
    anti_isomorphism: bool


def _check_inclusion_convention(k: FiniteLattice, l: FiniteLattice, which: str):
    nk = k.n
    if l.n < nk:
        raise GluingMismatch(f"{which} smaller than K")
    for a in range(nk):
        for b in range(nk):
            if l.leq[a][b] != k.leq[a][b]:
                raise GluingMismatch(f"{which} order disagrees with K on ({a},{b})")
            if l.meet[a][b] != k.meet[a][b] or l.join[a][b] != k.join[a][b]:
                raise GluingMismatch(
                    f"{which} meet/join leaves K or disagrees on ({a},{b})"
                )
    if l.bot != k.bot or l.top != k.top:
        raise GluingMismatch(f"{which} bounds differ from K's")


def jonsson_filters(
    k: FiniteLattice, l1: FiniteLattice, l2: FiniteLattice
) -> JonssonComparison:
    """Glued-filter construction for inclusion spans K <= L1, K <= L2
    sharing K's ids: builds all (L1, L2)-filters of the glued order,
    ordered by reverse inclusion, and the bijection F |-> (F & L1, F & L2)
    onto the pullback point set, verified to reverse the order.

    Non-modal only; the construction does not generalize to modalities.
    """
    _check_inclusion_convention(k, l1, "L1")
    _check_inclusion_convention(k, l2, "L2")
    nk, n1, n2 = k.n, l1.n, l2.n
    total = n1 + (n2 - nk)

    def global_of_l2(j: int) -> int:
        return j if j < nk else n1 + (j - nk)

    in_l1 = (1 << n1) - 1
    in_l2 = ((1 << nk) - 1) | (((1 << (n2 - nk)) - 1) << n1)

    # glued order per the two-step description; verified transitive below
    leq = [[False] * total for _ in range(total)]
    for a in range(n1):
        for b in range(n1):
            leq[a][b] = l1.leq[a][b]
    for a in range(n2):
        for b in range(n2):
            ga, gb = global_of_l2(a), global_of_l2(b)
            if l2.leq[a][b]:
                leq[ga][gb] = True
    for a in range(n1):
        for b in range(n2):
            gb = global_of_l2(b)
            if any(l1.leq[a][c] and l2.leq[c][b] for c in range(nk)):
                leq[a][gb] = True
            if any(l2.leq[b][c] and l1.leq[c][a] for c in range(nk)):
                leq[gb][a] = True
    for a in range(total):
        for b in range(total):
            if not leq[a][b]:
                continue
            for c in range(total):
                if leq[b][c] and not leq[a][c]:
                    raise InternalInconsistency(
                        f"glued order not transitive at ({a},{b},{c})"
                    )

    up = [sum(1 << b for b in range(total) if leq[a][b]) for a in range(total)]

    def is_glued_filter(mask: int) -> bool:
        if mask == 0:
            return False
        for a in range(total):
            if mask >> a & 1 and up[a] & ~mask:
                return False
        m1 = mask & in_l1
        for a in range(n1):
            for b in range(n1):
                if m1 >> a & 1 and m1 >> b & 1 and not m1 >> l1.meet[a][b] & 1:
                    return False
        for a in range(n2):
            for b in range(n2):
                ga, gb = global_of_l2(a), global_of_l2(b)
                if (
                    mask >> ga & 1
                    and mask >> gb & 1
                    and not mask >> global_of_l2(l2.meet[a][b]) & 1
                ):
                    return False
        return True

    glued = [m for m in range(1, 1 << total) if is_glued_filter(m)]

    fs1 = algebra_filters(l1)
    fs2 = algebra_filters(l2)
    kmask = (1 << nk) - 1
    pb_points = [
        (f1m, f2m) for f1m in fs1 for f2m in fs2 if f1m & kmask == f2m & kmask
    ]
    pb_index = {p: i for i, p in enumerate(pb_points)}

    bijection = []
    for mask in glued:
        f1m = mask & in_l1
        f2m = 0
        for b in range(n2):
            if mask >> global_of_l2(b) & 1:
                f2m |= 1 << b
        key = (f1m, f2m)
        if key not in pb_index:
            raise InternalInconsistency(
                f"glued filter {bin(mask)} restricts outside the pullback"
            )
        bijection.append(pb_index[key])

    anti = len(glued) == len(pb_points) and len(set(bijection)) == len(glued)
    if anti:
        # F included in G iff the image pairs are included componentwise;
        # with Fil ordered by reverse inclusion this reverses the order.
        for i, fi in enumerate(glued):
            for j, fj in enumerate(glued):
                lhs = fi & ~fj == 0
                pi, pj = pb_points[bijection[i]], pb_points[bijection[j]]
                rhs = pi[0] & ~pj[0] == 0 and pi[1] & ~pj[1] == 0
                if lhs != rhs:
                    anti = False
                    break
            if not anti:
                break
    return JonssonComparison(tuple(glued), tuple(pb_points), tuple(bijection), anti)

"""Seeded random generators for frames, lattices and V-formations.

Every sampler is a pure function of its rng stream, so one 64-bit seed
fully determines all randomized behavior.  Samplers repair candidates
toward validity and reject those that do not converge, keeping the
output distribution inside the valid class exactly.

`sample_lframe` draws from a few dozen semilattices, so it interns
them: `_family_lframe`, an LRU cache of 256 families keyed by the sorted
family and the ground set, validates each family once and returns the
same `LFrame` for an equal one, and with it the frame's cached filter
tables.  The cache sits after the last rng call of a draw, so draws and
the rng state are as without it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional

from .amalgam import VFormation, validate_vformation
from .catalog import all_lattices
from .correspondence import CONDITIONS, INCLUSIONS, _Y, _inclusion_gaps, frame_satisfies
from .duality import dual_of_frame_morphism
from .errors import PreconditionViolated, SizeCap
from .lattice import FiniteLattice, FiniteModalLattice, LatticeMorphism, enumerate_homs
from .lframe import (
    LFrame,
    ModalLFrame,
    enumerate_frame_morphisms,
    fil_f,
    filters,
    validate_lframe,
    validate_modal_lframe,
)

MAX_FRAME_POINTS = 8
MAX_GROUND = 5


def sample_lframe(rng: random.Random, size: int) -> LFrame:
    """Meet semilattice with `size` elements: a random intersection-closed
    family of subsets of a small ground set, plus the ground set itself."""
    if not 1 <= size <= MAX_FRAME_POINTS:
        raise SizeCap(f"frame size {size} outside 1..{MAX_FRAME_POINTS}")
    m = min(MAX_GROUND, max(2, size - 1))
    full = (1 << m) - 1
    for _ in range(200):
        family = {full}
        for _ in range(4 * size):
            if len(family) == size:
                break
            cand = rng.getrandbits(m)
            new = set(family)
            new.add(cand)
            # close under intersection
            frontier = [cand]
            while frontier:
                a = frontier.pop()
                for b in list(new):
                    c = a & b
                    if c not in new:
                        new.add(c)
                        frontier.append(c)
            if len(new) <= size:
                family = new
        if len(family) != size:
            continue
        return _family_lframe(tuple(sorted(family)), full)
    raise SizeCap(f"could not sample a {size}-element semilattice")


@lru_cache(maxsize=256)
def _family_lframe(members: tuple[int, ...], full: int) -> LFrame:
    """The L-frame of a sorted intersection-closed family, validated once
    per family: an equal family gets the same object, and with it the
    frame's cached tables."""
    idx = {s: i for i, s in enumerate(members)}
    meet = [[idx[a & b] for b in members] for a in members]
    names = tuple(f"s{bin(s)[2:]}" for s in members)
    return validate_lframe(names, meet, idx[full])


def _modal_fixpoint(frame: LFrame, succ: list[int], rounds: int) -> bool:
    """Grow the relation toward conditions (i)-(v); True when stable.
    Each round makes the (iv), (i)/(ii) and (iii) repairs in turn, each
    a pass over the pairs of points in lexicographic order that reads
    the successor sets as the earlier repairs left them, a successor set
    at a time on the frame's tables: (iv) ORs into R[x meet y] the meet
    image of R[y], read afresh, of each u in R[x]; (i) adds to R[x] the
    least point of R[y] above no point of R[x], then the least one above
    none of those added, and so on, and (ii) likewise into R[y],
    downward; (iii) adds to R[x] and R[y] what the up-closure of their
    meet images misses of R[x meet y].  tests/test_generators.py checks
    it against the per-pair repairs."""
    n = frame.n
    one = frame.one
    meet = frame.meet
    up = frame.up_masks
    down = frame.down_masks
    images = frame.meet_images
    up_cl = frame.up_closures
    down_cl = frame.down_closures
    succ[one] = 1 << one
    for _ in range(rounds):
        changed = False
        for x in range(n):
            if x != one and succ[x] == 0:
                succ[x] |= 1 << x
                changed = True
        for x in range(n):
            mx = meet[x]
            for y in range(n):
                xy = mx[y]
                mu = succ[x]
                while mu:
                    u = (mu & -mu).bit_length() - 1
                    mu &= mu - 1
                    added = images[u][succ[y]] & ~succ[xy]
                    if added:
                        succ[xy] |= added
                        changed = True
        for x in range(n):
            m = up[x]
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                missed = succ[y] & ~up_cl[succ[x]]
                while missed:
                    z = (missed & -missed).bit_length() - 1
                    succ[x] |= 1 << z
                    missed &= ~up[z]
                    changed = True
                if y == one:
                    continue
                missed = succ[x] & ~down_cl[succ[y]]
                while missed:
                    w = (missed & -missed).bit_length() - 1
                    succ[y] |= 1 << w
                    missed &= ~down[w]
                    changed = True
        for x in range(n):
            mx = meet[x]
            for y in range(n):
                sy = succ[y]
                image = 0
                mu = succ[x]
                while mu:
                    image |= images[(mu & -mu).bit_length() - 1][sy]
                    mu &= mu - 1
                missed = succ[mx[y]] & ~up_cl[image]
                if missed:
                    if x != one:
                        succ[x] |= missed
                    if y != one:
                        succ[y] |= missed
                    changed = True
        if not changed:
            return True
    return False


def _inclusion_closure(succ: list[int], one: int, row) -> bool:
    """Grow `succ` to the least relation closed under the inclusion `row`
    by OR-ing A into the successor set of B's point (B is R[x] or R[y]);
    False = reject, when the top point `one` would get a successor other
    than itself (condition (v))."""
    changed = True
    while changed:
        changed = False
        for x, y, gap in _inclusion_gaps(succ, row):
            p = y if row[1] & _Y else x
            if p == one and succ[p] | gap != 1 << one:
                return False
            succ[p] |= gap
            changed = True
    return True


def _condition_closure(frame: LFrame, succ: list[int], tag: str) -> bool:
    """Close the relation toward the named condition; False = reject.

    A Horn condition is closed by `_inclusion_closure` on its row of
    `correspondence.INCLUSIONS`: the least relation closed under the
    row, whatever the scan order, rejected when it would give the top
    point a successor other than itself.  Directedness is not Horn: for
    x R y, x R z with no common successor, y and z get the meet of their
    least successors, for at most 2n**2 + 4 rounds, and a pair that
    meets the top point is rejected."""
    row = INCLUSIONS.get(tag)
    if row is not None:
        return _inclusion_closure(succ, frame.one, row)
    if tag != "directedness":
        raise PreconditionViolated(f"unknown frame condition {tag!r}")
    n = frame.n
    one = frame.one
    meet = frame.meet
    for _ in range(2 * n * n + 4):
        changed = False
        for x in range(n):
            sx = succ[x]
            my = sx
            while my:
                y = (my & -my).bit_length() - 1
                my &= my - 1
                mz = sx
                while mz:
                    z = (mz & -mz).bit_length() - 1
                    mz &= mz - 1
                    if succ[y] & succ[z]:
                        continue
                    u = (succ[y] & -succ[y]).bit_length() - 1
                    v = (succ[z] & -succ[z]).bit_length() - 1
                    t = meet[u][v]
                    if y == one or z == one:
                        return False
                    succ[y] |= 1 << t
                    succ[z] |= 1 << t
                    changed = True
        if not changed:
            return True
    return False


def sample_modal_lframe(
    rng: random.Random,
    size: int,
    condition: Optional[str] = None,
) -> ModalLFrame:
    """Random valid modal L-frame; with `condition` set, the frame also
    satisfies that first-order property.  Rejection keeps validity exact."""
    for _ in range(400):
        frame = sample_lframe(rng, size)
        n = frame.n
        succ = [0] * n
        density = rng.choice((0.2, 0.35, 0.5))
        for x in range(n):
            for y in range(n):
                if rng.random() < density:
                    succ[x] |= 1 << y
        succ[frame.one] = 1 << frame.one
        for _ in range(3):
            if not _modal_fixpoint(frame, succ, rounds=4 * n * n + 4):
                break
            if condition is not None and not _condition_closure(frame, succ, condition):
                break
            out = validate_modal_lframe(frame, tuple(succ))
            if isinstance(out, ModalLFrame) and (
                condition is None or frame_satisfies(out, CONDITIONS[condition])[0]
            ):
                return out
            if condition is None:
                break
    raise SizeCap(f"could not sample a valid modal L-frame of size {size}")


def sample_modal_lattice(
    rng: random.Random, frame_size: int, condition: Optional[str] = None
) -> FiniteModalLattice:
    """Modal lattice guaranteed to satisfy the identities: the filter
    algebra of a random valid frame."""
    return fil_f(sample_modal_lframe(rng, frame_size, condition))


def _frame_with_filter_cap(
    rng: random.Random, max_points: int, max_filters: int, condition=None
) -> Optional[ModalLFrame]:
    for _ in range(60):
        size = rng.randint(1, max_points)
        try:
            x = sample_modal_lframe(rng, size, condition)
        except SizeCap:
            continue
        if len(filters(x.base)) <= max_filters:
            return x
    return None


def _pick_legs(rng: random.Random, draw) -> Optional[list]:
    """Two legs, each a random member of the first nonempty list among up
    to 12 calls of `draw()` (None counts as empty), picked with `rng`;
    None as soon as a leg gets none, before the next leg draws."""
    legs = []
    for _ in range(2):
        for _ in range(12):
            cands = draw()
            if cands:
                legs.append(cands[rng.randrange(len(cands))])
                break
        else:
            return None
    return legs


def sample_vformation(
    rng: random.Random, max_l: int = 5, condition: Optional[str] = None
) -> VFormation:
    """Span of modal-lattice embeddings, K of at most 4 elements and each
    L of at most `max_l`.

    Primary route: pick a small frame for K and two frames admitting
    surjective bounded L-morphisms onto it; the duals of those surjections
    are embeddings fil_f(K-frame) -> fil_f(L-frame).  Secondary route:
    search injective homs between independently sampled filter algebras.
    Spans without embeddings are discarded and the stream advances.
    """
    for _ in range(80):
        xk = _frame_with_filter_cap(rng, 3, 4, condition)
        if xk is None:
            continue
        k = fil_f(xk)
        if rng.random() < 0.7:

            def surjections():
                xi = _frame_with_filter_cap(rng, 4, max_l, condition)
                if xi is not None:
                    return list(
                        enumerate_frame_morphisms(
                            xi, xk, "bounded-L", surjective_only=True
                        )
                    )

            legs = _pick_legs(rng, surjections)
            if legs is None:
                continue
            h1 = dual_of_frame_morphism(legs[0])
            h2 = dual_of_frame_morphism(legs[1])
            v = VFormation(h1.dom, h1.cod, h2.cod, h1, h2)
        else:

            def embeddings():
                xi = _frame_with_filter_cap(rng, 4, max_l, condition)
                if xi is not None:
                    homs = enumerate_homs(k, fil_f(xi), modal=True)
                    return [e for e in homs if e.is_injective()]

            hs = _pick_legs(rng, embeddings)
            if hs is None:
                continue
            v = VFormation(k, hs[0].cod, hs[1].cod, hs[0], hs[1])
        validate_vformation(v)
        return v
    raise SizeCap("could not sample a V-formation within the attempt budget")


def sample_inclusion_span(rng: random.Random):
    """Non-modal span K <= L1, K <= L2 with K's ids shared (for the
    glued-filter comparison), |K| <= 4 and |Li| <= 6: finds
    bounded-lattice embeddings in the small catalog and relabels each L
    so the image of K is the id prefix."""
    for _ in range(100):
        nk = rng.randint(1, 4)
        ks = all_lattices(nk)
        k = ks[rng.randrange(len(ks))]

        def embeddings():
            cands = all_lattices(rng.randint(nk, 6))
            lat = cands[rng.randrange(len(cands))]
            return [(lat, e) for e in enumerate_homs(k, lat) if e.is_injective()]

        legs = _pick_legs(rng, embeddings)
        if legs is not None:
            l1, l2 = (_relabel_prefix(k, lat, e) for lat, e in legs)
            return k, l1, l2
    raise SizeCap("could not sample an inclusion span")


def _relabel_prefix(k: FiniteLattice, lat: FiniteLattice, emb: LatticeMorphism):
    """Permute lat's ids so emb(i) == i for all i < |K|."""
    nk, nl = k.n, lat.n
    perm = [-1] * nl  # old id -> new id
    for i in range(nk):
        perm[emb.map[i]] = i
    nxt = nk
    for old in range(nl):
        if perm[old] < 0:
            perm[old] = nxt
            nxt += 1
    inv = [0] * nl
    for old, new in enumerate(perm):
        inv[new] = old
    leq = tuple(
        tuple(lat.leq[inv[i]][inv[j]] for j in range(nl)) for i in range(nl)
    )
    meet = tuple(
        tuple(perm[lat.meet[inv[i]][inv[j]]] for j in range(nl)) for i in range(nl)
    )
    join = tuple(
        tuple(perm[lat.join[inv[i]][inv[j]]] for j in range(nl)) for i in range(nl)
    )
    names = tuple(lat.elements[inv[i]] for i in range(nl))
    return FiniteLattice(names, leq, perm[lat.bot], perm[lat.top], meet, join)

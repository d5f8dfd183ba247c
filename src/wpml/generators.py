"""Seeded random generators for frames, lattices and V-formations.

Every sampler is a pure function of its rng stream, so one 64-bit seed
fully determines all randomized behavior.  Samplers repair candidates
toward validity and reject those that do not converge, keeping the
output distribution inside the valid class exactly.
"""

from __future__ import annotations

import random
from typing import Optional

from .amalgam import VFormation, validate_vformation
from .correspondence import CONDITIONS, INCLUSIONS, _Y, _inclusion_gaps, frame_satisfies
from .duality import dual_of_frame_morphism
from .errors import PreconditionViolated, SizeCap
from .lattice import FiniteLattice, FiniteModalLattice, LatticeMorphism, enumerate_homs
from .lframe import (
    LFrame,
    ModalLFrame,
    _meet_reach,
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
        members = sorted(family)
        idx = {s: i for i, s in enumerate(members)}
        meet = [[idx[a & b] for b in members] for a in members]
        names = tuple(f"s{bin(s)[2:]}" for s in members)
        return validate_lframe(names, meet, idx[full])
    raise SizeCap(f"could not sample a {size}-element semilattice")


def _modal_fixpoint(frame: LFrame, succ: list[int], rounds: int) -> bool:
    """Grow the relation toward conditions (i)-(v); True when stable.  The
    (iv) and (i)/(ii) repairs are written out because they re-read the
    successor sets they grow; (iii) adds what `_meet_reach` misses."""
    n = frame.n
    one = frame.one
    meet = frame.meet
    up = frame.up_masks
    down = frame.down_masks
    succ[one] = 1 << one
    for _ in range(rounds):
        changed = False
        for x in range(n):
            if x != one and succ[x] == 0:
                succ[x] |= 1 << x
                changed = True
        for x in range(n):
            for y in range(n):
                xy = meet[x][y]
                mu = succ[x]
                while mu:
                    u = (mu & -mu).bit_length() - 1
                    mu &= mu - 1
                    mv = succ[y]
                    while mv:
                        v = (mv & -mv).bit_length() - 1
                        mv &= mv - 1
                        if not succ[xy] >> meet[u][v] & 1:
                            succ[xy] |= 1 << meet[u][v]
                            changed = True
        for x in range(n):
            for y in range(n):
                if not frame.le(x, y):
                    continue
                m = succ[y]
                while m:
                    z = (m & -m).bit_length() - 1
                    m &= m - 1
                    if succ[x] & down[z] == 0:
                        succ[x] |= 1 << z
                        changed = True
                m = succ[x]
                while m:
                    w = (m & -m).bit_length() - 1
                    m &= m - 1
                    if succ[y] & up[w] == 0 and y != one:
                        succ[y] |= 1 << w
                        changed = True
        for x in range(n):
            for y in range(n):
                missed = succ[meet[x][y]] & ~_meet_reach(frame, succ[x], succ[y])
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
            legs = []
            for _ in range(2):
                leg = None
                for _ in range(12):
                    xi = _frame_with_filter_cap(rng, 4, max_l, condition)
                    if xi is None:
                        continue
                    surjs = list(
                        enumerate_frame_morphisms(
                            xi, xk, "bounded-L", surjective_only=True
                        )
                    )
                    if surjs:
                        leg = surjs[rng.randrange(len(surjs))]
                        break
                if leg is None:
                    break
                legs.append(leg)
            if len(legs) != 2:
                continue
            h1 = dual_of_frame_morphism(legs[0])
            h2 = dual_of_frame_morphism(legs[1])
            v = VFormation(h1.dom, h1.cod, h2.cod, h1, h2)
        else:
            hs = []
            for _ in range(2):
                h = None
                for _ in range(12):
                    xi = _frame_with_filter_cap(rng, 4, max_l, condition)
                    if xi is None:
                        continue
                    li = fil_f(xi)
                    embeddings = [
                        e for e in enumerate_homs(k, li, modal=True) if e.is_injective()
                    ]
                    if embeddings:
                        h = embeddings[rng.randrange(len(embeddings))]
                        break
                if h is None:
                    break
                hs.append(h)
            if len(hs) != 2:
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
    from .catalog import all_lattices

    for _ in range(100):
        nk = rng.randint(1, 4)
        ks = all_lattices(nk)
        k = ks[rng.randrange(len(ks))]
        ls = []
        for _ in range(2):
            chosen = None
            for _ in range(12):
                nl = rng.randint(nk, 6)
                cands = all_lattices(nl)
                lat = cands[rng.randrange(len(cands))]
                embs = [e for e in enumerate_homs(k, lat) if e.is_injective()]
                if embs:
                    chosen = _relabel_prefix(k, lat, embs[rng.randrange(len(embs))])
                    break
            if chosen is None:
                break
            ls.append(chosen)
        if len(ls) == 2:
            return k, ls[0], ls[1]
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

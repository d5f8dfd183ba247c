from functools import lru_cache
from itertools import product

import pytest

from wpml.catalog import all_lframes
from wpml.correspondence import _R, _Y
from wpml.errors import (
    InternalInconsistency,
    MorphismInvalid,
    ResourceBound,
    WpmlError,
    resolve_budget,
)
from wpml.formulas import (
    BOT,
    TOP,
    And,
    Box,
    ConsequencePair,
    Dia,
    Letter,
    Or,
    letters,
    subformulas,
    substitute,
)
from wpml.lattice import validate_lattice, with_identity_modalities
from wpml.lframe import (
    ModalLFrame,
    MorphismViolation,
    _base_of,
    _meet_gap,
    _meet_reach,
    _order_gap,
    check_semilattice_hom,
    filters,
    is_filter,
    lframe_from_leq,
    truth_set,
    up_closure,
    validate_lframe,
    validate_modal_lframe,
)
from wpml.proofs import _KEY, ProofSearch, SearchSetup, _search_order


def chain_leq(n):
    return [[1 if i <= j else 0 for j in range(n)] for i in range(n)]


@pytest.fixture
def chain2():
    return validate_lattice(chain_leq(2), 0, 1)


@pytest.fixture
def chain3():
    return validate_lattice(chain_leq(3), 0, 2)


B4_LEQ = [
    [1, 1, 1, 1],
    [0, 1, 0, 1],
    [0, 0, 1, 1],
    [0, 0, 0, 1],
]

# diamond M3: bottom, three incomparable atoms, top
M3_LEQ = [
    [1, 1, 1, 1, 1],
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
]


@pytest.fixture
def b4():
    return validate_lattice(B4_LEQ, 0, 3)


@pytest.fixture
def m3():
    return validate_lattice(M3_LEQ, 0, 4)


@pytest.fixture
def chain2_modal(chain2):
    return with_identity_modalities(chain2)


@pytest.fixture
def chain3_modal(chain3):
    return with_identity_modalities(chain3)


@pytest.fixture
def b4_modal(b4):
    return with_identity_modalities(b4)


@pytest.fixture
def m2_frame():
    """Diamond-order meet semilattice: 0 < a, b < 1 (ids 0,1,2,3; one=3)."""
    leq = [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    return lframe_from_leq(("0", "a", "b", "1"), leq, 3)


@pytest.fixture
def chain2_frame():
    return lframe_from_leq(("x", "1"), chain_leq(2), 1)


@pytest.fixture
def chain3_frame():
    return lframe_from_leq(("0", "m", "1"), chain_leq(3), 2)


def identity_modal(frame):
    out = validate_modal_lframe(frame, [(i, i) for i in range(frame.n)])
    assert not isinstance(out, tuple)
    return out


def reference_frame_validates(frame, pair, budget=None):
    """The literal frame-validity loop: one `truth_set` per filter-valued
    valuation, in `product` order, first countervaluation returned."""
    budget = resolve_budget(budget)
    ls = sorted(letters(pair))
    fs = filters(frame.base)
    needed = len(fs) ** len(ls)
    if needed > budget:
        raise ResourceBound(needed, budget)
    for combo in product(fs, repeat=len(ls)):
        val = dict(zip(ls, combo))
        if truth_set(frame, val, pair.lhs) & ~truth_set(frame, val, pair.rhs):
            return val
    return None


def order_cuts(goal, pool):
    """Search order for transitivity cuts: goal subformulas first (small
    to large), then the remaining pool formulas.  `cut_pool` returns its
    pool in this order."""
    subs = subformulas(goal.lhs) | subformulas(goal.rhs)
    return _search_order(sorted(pool, key=_KEY), subs)


def literal_cut_pool(goal, gamma=(), instance_cap=256, pool_cap=512):
    """`cut_pool` with no set-up: every instance substituted in full and
    its subformulas taken, every closure formula built, on each call."""
    subs = subformulas(goal.lhs) | subformulas(goal.rhs)
    base = {TOP, BOT} | subs
    ground = sorted(base, key=_KEY)
    ground_keys = [f._key for f in ground]
    for member in gamma:
        vs = sorted(letters(member))
        combos = sorted(
            product(range(len(ground)), repeat=len(vs)),
            key=lambda c: (
                sum(ground_keys[i][0] for i in c),
                tuple(ground_keys[i][1] for i in c),
            ),
        )[:instance_cap]
        for combo in combos:
            m = {v: ground[i] for v, i in zip(vs, combo)}
            base |= subformulas(substitute(member.lhs, m))
            base |= subformulas(substitute(member.rhs, m))
    once = set(base)
    dia_top = Dia(TOP)
    for f in base:
        box = Box(f)
        once.add(box)
        once.add(Dia(f))
        # bridge for the forced seriality pattern: box f |- dia f goes
        # through dia T & box f |- dia(T & f) (the duality axiom at T)
        once.add(And(dia_top, box))
        once.add(Dia(And(TOP, f)))
    return _search_order(sorted(once, key=_KEY), subs)[:pool_cap]


def literal_derive_bounded(
    gamma, goal, depth, budget=200_000, pool=None, *, setup=None
):
    """`derive_bounded` with no root check and a fresh set-up (a caller's
    `setup` is ignored): the literal cut pool first, then the search,
    whose first expansion screens the root on a screen of its own."""
    gamma = tuple(gamma)
    pool = literal_cut_pool(goal, gamma) if pool is None else order_cuts(goal, pool)
    return ProofSearch(SearchSetup(gamma), pool, budget).prove(goal, depth)


# The frame-by-frame enumeration of modal L-frames: every valid relation
# on every L-frame of the catalog.  The library gets frames only as the
# tight duals of its modal structures (`catalog.validating_structures`);
# this enumeration, which reaches the frames that are not tight as well,
# is the duality's independent reference.


def modal_relations(frame):
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

    def partial_ok(i):
        for j in range(i + 1):
            if _meet_gap(frame, succ, i, j) is not None:
                return False
            # (i)/(ii) for comparable pairs
            lo, hi = (j, i) if frame.le(j, i) else (i, j)
            if frame.le(lo, hi) and _order_gap(frame, succ, lo, hi) is not None:
                return False
        return True

    def backtrack(i):
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


def literal_modal_lframes(n):
    """Every modal L-frame of size n, straight from `modal_relations`."""
    return [ModalLFrame(f, s) for f in all_lframes(n) for s in modal_relations(f)]


@lru_cache(maxsize=None)
def _modal_lframes(n):
    return tuple(literal_modal_lframes(n))


def all_modal_lframes(n):
    """All valid modal L-frames of size exactly n (frames up to iso, all
    relations per frame), L-frame by L-frame in catalog order, each
    L-frame's relations in `modal_relations` order; built once per size."""
    yield from _modal_lframes(n)


def random_formula(rng, names, depth):
    """A seeded formula over `names` using T, F, &, v, [] and <>."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.08:
            return TOP
        if r < 0.16:
            return BOT
        return Letter(rng.choice(names))
    op = rng.choice((And, Or, Box, Dia))
    if op in (Box, Dia):
        return op(random_formula(rng, names, depth - 1))
    return op(
        random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1)
    )


def random_pairs(rng, count, depth=3, names=("p", "q", "r")):
    """`count` distinct seeded pairs of at most three letters."""
    out = {}
    while len(out) < count:
        pair = ConsequencePair(
            random_formula(rng, names, depth), random_formula(rng, names, depth)
        )
        out[pair] = None
    return list(out)


# The modal-L-frame kernels as they were written before the frames kept
# closure and meet-image tables: one meet or one order test per pair of
# points.  The references for the table kernels of `lframe` and for
# `generators._modal_fixpoint`.


def _points(mask):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def pairwise_order_gap(base, succ, x, y):
    sx, sy = succ[x], succ[y]
    for z in _points(sy):
        if sx & base.down_masks[z] == 0:
            return "i", z
    for w in _points(sx):
        if sy & base.up_masks[w] == 0:
            return "ii", w
    return None


def pairwise_meet_gap(base, succ, x, y):
    tgt = succ[base.meet[x][y]]
    for u in _points(succ[x]):
        for v in _points(succ[y]):
            if not tgt >> base.meet[u][v] & 1:
                return u, v
    return None


def pairwise_meet_reach(base, a, b):
    reach = 0
    for u in _points(a):
        for v in _points(b):
            reach |= base.up_masks[base.meet[u][v]]
    return reach


def pairwise_violation(base, succ):
    """`(condition, witness)` of the first violation in the validator's
    scan order, or None."""
    n, meet, one = base.n, base.meet, base.one
    if succ[one] != 1 << one:
        return "v", (one,)
    for x in range(n):
        if succ[x] == 0:
            return "i", (x,)
    for x in range(n):
        for y in range(n):
            if base.le(x, y):
                gap = pairwise_order_gap(base, succ, x, y)
                if gap is not None:
                    return gap[0], (x, y, gap[1])
    for x in range(n):
        for y in range(n):
            gap = pairwise_meet_gap(base, succ, x, y)
            if gap is not None:
                return "iv", (x, y) + gap
            missed = succ[meet[x][y]] & ~pairwise_meet_reach(base, succ[x], succ[y])
            if missed:
                return "iii", (x, y, next(_points(missed)))
    return None


def pairwise_up_closure(base, mask):
    out = 0
    for x in _points(mask):
        out |= base.up_masks[x]
    return out


def pairwise_is_filter(base, mask):
    if mask == 0 or pairwise_up_closure(base, mask) != mask:
        return False
    members = list(_points(mask))
    return all(mask >> base.meet[x][y] & 1 for x in members for y in members)


def pairwise_filter_closure(base, mask):
    cur = mask | 1 << base.one
    while True:
        nxt = pairwise_up_closure(base, cur)
        members = list(_points(nxt))
        for i, x in enumerate(members):
            for y in members[i:]:
                nxt |= 1 << base.meet[x][y]
        if nxt == cur:
            return cur
        cur = nxt


def relabeled(frame, rng):
    """The frame with its points renamed by a seeded permutation, so the
    least point need not be point 0."""
    n = frame.n
    perm = list(range(n))
    rng.shuffle(perm)
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            meet[perm[x]][perm[y]] = perm[frame.meet[x][y]]
    names = [None] * n
    for x in range(n):
        names[perm[x]] = frame.elements[x]
    return validate_lframe(names, meet, perm[frame.one])


def pairwise_modal_fixpoint(frame, succ, rounds):
    """`generators._modal_fixpoint` with its repairs one pair of points
    at a time, each reading the successor sets as the earlier repairs
    left them."""
    n, one, meet = frame.n, frame.one, frame.meet
    up, down = frame.up_masks, frame.down_masks
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
                for u in _points(succ[x]):
                    for v in _points(succ[y]):
                        if not succ[xy] >> meet[u][v] & 1:
                            succ[xy] |= 1 << meet[u][v]
                            changed = True
        for x in range(n):
            for y in range(n):
                if not frame.le(x, y):
                    continue
                for z in _points(succ[y]):
                    if succ[x] & down[z] == 0:
                        succ[x] |= 1 << z
                        changed = True
                for w in _points(succ[x]):
                    if succ[y] & up[w] == 0 and y != one:
                        succ[y] |= 1 << w
                        changed = True
        for x in range(n):
            for y in range(n):
                reach = pairwise_meet_reach(frame, succ[x], succ[y])
                missed = succ[meet[x][y]] & ~reach
                if missed:
                    if x != one:
                        succ[x] |= missed
                    if y != one:
                        succ[y] |= missed
                    changed = True
        if not changed:
            return True
    return False


# The five frame conditions as literal first-order clauses over a relation
# `r` (r[a][b] iff a R b) on the points P: each lists, in lexicographic
# variable order, the tuples at which the clause's body holds and its head
# fails.  The reference for `frame_satisfies` and the sampler's closure.
LITERAL_FAILURES = {
    "reflexivity": lambda r, P: [(x,) for x in P if not r[x][x]],
    "transitivity": lambda r, P: [
        (x, y, z)
        for x in P for y in P if r[x][y]
        for z in P if r[y][z] and not r[x][z]
    ],
    "symmetry": lambda r, P: [
        (x, y) for x in P for y in P if r[x][y] and not r[y][x]
    ],
    "euclideanity": lambda r, P: [
        (x, y, z)
        for x in P for y in P if r[x][y]
        for z in P if r[x][z] and not r[y][z]
    ],
    "directedness": lambda r, P: [
        (x, y, z)
        for x in P for y in P if r[x][y]
        for z in P if r[x][z] and not any(r[y][t] and r[z][t] for t in P)
    ],
}

# The edge each Horn clause's head asks for.
LITERAL_HEAD_EDGES = {
    "reflexivity": lambda x: (x, x),
    "transitivity": lambda x, y, z: (x, z),
    "symmetry": lambda x, y: (y, x),
    "euclideanity": lambda x, y, z: (y, z),
}


def relation_matrix(succ):
    """The relation of successor masks as rows of booleans."""
    return [[bool(m >> b & 1) for b in range(len(succ))] for m in succ]


def literal_witness(tag, r):
    """`frame_satisfies` by quantifiers: (holds, least failing tuple)."""
    witness = min(LITERAL_FAILURES[tag](r, range(len(r))), default=None)
    return witness is None, witness


def literal_closure(tag, succ, one):
    """The least relation containing `succ` closed under the Horn clause
    of `tag`, adding every missing head edge until nothing changes: None
    when the top point `one` has a successor other than itself, else the
    successor masks."""
    r = relation_matrix(succ)
    points = range(len(r))
    while True:
        missing = {LITERAL_HEAD_EDGES[tag](*t) for t in LITERAL_FAILURES[tag](r, points)}
        if not missing:
            break
        for a, b in missing:
            r[a][b] = True
    if r[one] != [b == one for b in range(len(r))]:
        return None
    return [sum(1 << b for b, edge in enumerate(row) if edge) for row in r]


# The point-map kernels as they were written before the preimage and image
# tables (`lframe._fibres`, `lframe._ImageTable`): one membership or order
# test per point.  The references for the morphism checks, the morphism
# duals, the pullback and the space conditions.


def outcome(check, *args):
    """`check(*args)`, or the type name and message of the WpmlError it
    raises, so that a kernel and its reference compare on failures too."""
    try:
        return check(*args)
    except WpmlError as exc:
        return type(exc).__name__, str(exc)


def pointwise_is_l_morphism(f):
    check_semilattice_hom(f)
    dom, cod = _base_of(f.dom), _base_of(f.cod)
    for x in range(dom.n):
        if f.map[x] == cod.one and x != dom.one:
            return MorphismViolation("unit-reflection", (x,))
    # image_above[y'] = mask of x in dom with y' below f(x)
    image_above = [
        sum(1 << x for x in range(dom.n) if cod.le(yp, f.map[x])) for yp in range(cod.n)
    ]
    for x in range(dom.n):
        for yp in range(cod.n):
            for zp in range(cod.n):
                if not cod.le(cod.meet[yp][zp], f.map[x]):
                    continue
                if not any(
                    dom.le(dom.meet[y][z], x)
                    for y in _points(image_above[yp])
                    for z in _points(image_above[zp])
                ):
                    return MorphismViolation("meet-cover", (x, yp, zp))
    return None


def pointwise_forth_back_violation(f):
    dom, cod = f.dom, f.cod
    if not isinstance(dom, ModalLFrame) or not isinstance(cod, ModalLFrame):
        raise MorphismInvalid("bounded L-morphism needs modal frames")
    cbase = cod.base
    for x in range(dom.n):
        fx = f.map[x]
        for y in _points(dom.succ[x]):
            if not cod.succ[fx] >> f.map[y] & 1:
                return MorphismViolation("forth", (x, y))
        for z in _points(cod.succ[fx]):
            if not any(cbase.le(f.map[y], z) for y in _points(dom.succ[x])):
                return MorphismViolation("back-below", (x, z))
            if not any(cbase.le(z, f.map[y]) for y in _points(dom.succ[x])):
                return MorphismViolation("back-above", (x, z))
    return None


def pointwise_preimage_map(fmap, masks, index):
    mapping = []
    for m in masks:
        pre = sum(1 << c for c, fc in enumerate(fmap) if m >> fc & 1)
        if pre not in index:
            raise InternalInconsistency(f"preimage {hex(pre)} is not a filter")
        mapping.append(index[pre])
    return tuple(mapping)


def pointwise_pullback_relation(y1, y2, points):
    """The successor masks of the pullback points: (a, b) R (c, d) iff
    a R1 c and b R2 d."""
    index = {p: i for i, p in enumerate(points)}
    return tuple(
        sum(
            1 << index[(c, d)]
            for (c, d) in points
            if y1.succ[a] >> c & 1 and y2.succ[b] >> d & 1
        )
        for (a, b) in points
    )


def pointwise_point_embedding(space, pb, side):
    prov = space.provenance
    return tuple(
        sum(1 << t for t, pt in enumerate(pb.points) if prov[pt[side]] >> a & 1)
        for a in range(space.source.n)
    )


def pointwise_check_supamal_claim(pb):
    y1, y2 = pb.f1.dom, pb.f2.dom
    xbase = pb.f1.cod.base
    problems = []
    comps = {}
    for vmask in filters(y2.base):
        comp = 0
        rest = y2.base.full_mask & ~vmask
        for b in _points(rest):
            comp |= xbase.down_masks[pb.f2.map[b]]
        outside = xbase.full_mask & ~comp
        if not is_filter(xbase, outside) and outside != 0:
            problems.append(
                f"complement of down(f2[Y2 - {hex(vmask)}]) is not a filter"
            )
        if outside == 0 and rest != 0:
            problems.append(f"complement of down(f2[Y2 - {hex(vmask)}]) is empty")
        comps[vmask] = comp
    for u in filters(y1.base):
        img = 0
        for a in _points(u):
            img |= 1 << pb.f1.map[a]
        up_f1_u = up_closure(xbase, img)
        if not is_filter(xbase, up_f1_u):
            problems.append(f"up(f1[{hex(u)}]) is not a filter")
        pre1 = sum(1 << t for t, (a, _) in enumerate(pb.points) if u >> a & 1)
        for vmask, comp in comps.items():
            pre2 = sum(1 << t for t, (_, b) in enumerate(pb.points) if vmask >> b & 1)
            if pre1 & ~pre2 == 0 and up_f1_u & comp:
                problems.append(
                    f"claim disjointness fails for U={hex(u)}, V={hex(vmask)}"
                )
    return problems


def pointwise_space_gaps(axiom, row, x):
    """`correspondence._space_gaps` one point c and one side at a time."""
    sub, sup = row
    down, up, succ = x.base.down_masks, x.base.up_masks, x.succ
    over_y = (sub | sup) & _Y
    out = []
    for a, b in x.pairs if over_y else [(a, a) for a in range(x.n)]:
        terms = (1 << a, succ[a], 1 << b, succ[b])
        for c in range(x.n):
            if terms[sub] >> c & 1:
                w = (a, b, c) if sub & _R else (a, b) if over_y else (a,)
                for side, near in (("lower", down), ("upper", up)):
                    if not terms[sup] & near[c]:
                        out.append((f"{axiom}-{side}", w))
    return out


def pointwise_dot2_space(x):
    up, succ = x.base.up_masks, x.succ
    out = []
    for a, b in x.pairs:
        for c in range(x.n):
            if succ[a] >> c & 1 and not any(
                up[u] & succ[c] for u in range(x.n) if succ[b] >> u & 1
            ):
                out.append((".2-directed", (a, b, c)))
    return out

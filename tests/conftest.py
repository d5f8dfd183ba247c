from itertools import product

import pytest

from wpml.catalog import all_lframes, modal_relations
from wpml.errors import ResourceBound, resolve_budget
from wpml.formulas import BOT, TOP, And, Box, ConsequencePair, Dia, Letter, Or, letters
from wpml.lattice import validate_lattice, with_identity_modalities
from wpml.lframe import (
    ModalLFrame,
    filters,
    lframe_from_leq,
    truth_set,
    validate_modal_lframe,
)


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


def literal_modal_lframes(n):
    """Every modal L-frame of size n, straight from `modal_relations`."""
    return [ModalLFrame(f, s) for f in all_lframes(n) for s in modal_relations(f)]


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

"""The value-vector kernel on both sides of its 256-element switch."""

import random

import pytest

from wpml.errors import PreconditionViolated
from wpml.formulas import And, Box, Dia, Letter, Or, Top, parse_formula
from wpml.vectors import ValueVectors

from conftest import random_formula


class Chain(ValueVectors):
    """An n-element chain with arbitrary unary tables (the kernel only
    looks tables up, so they need not satisfy the modal identities)."""

    def __init__(self, n, seed, modal=True):
        rng = random.Random(seed)
        self.n, self.top, self.bot = n, n - 1, 0
        self.meet = tuple(tuple(min(a, b) for b in range(n)) for a in range(n))
        self.join = tuple(tuple(max(a, b) for b in range(n)) for a in range(n))
        self.box = tuple(rng.randrange(n) for _ in range(n)) if modal else None
        self.diamond = tuple(rng.randrange(n) for _ in range(n)) if modal else None

    def value(self, f, val):
        """Scalar reference: the value of f under one valuation."""
        if isinstance(f, Letter):
            return val[f.name]
        if isinstance(f, (And, Or)):
            rows = self.meet if isinstance(f, And) else self.join
            return rows[self.value(f.lhs, val)][self.value(f.rhs, val)]
        if isinstance(f, (Box, Dia)):
            table = self.box if isinstance(f, Box) else self.diamond
            return table[self.value(f.arg, val)]
        return self.top if isinstance(f, Top) else self.bot


@pytest.mark.parametrize("n,kind,letters", [(7, bytes, "pqr"), (300, tuple, "pq")])
def test_vectors_match_scalar_values(n, kind, letters):
    alg = Chain(n, seed=n)
    ls = tuple(letters)
    memo = alg.seed(ls)
    rng = random.Random(5)
    for _ in range(30):
        f = random_formula(rng, ls, 3)
        v = alg.vector(memo, f)
        assert isinstance(v, kind) and len(v) == n ** len(ls)
        for pos in rng.sample(range(len(v)), 40):
            val = {x: pos // n ** (len(ls) - 1 - j) % n for j, x in enumerate(ls)}
            assert v[pos] == alg.value(f, val), (str(f), pos)


def test_modal_formula_on_a_plain_algebra():
    alg = Chain(5, seed=1, modal=False)
    memo = alg.seed(("p",))
    assert alg.vector(memo, parse_formula("p v T")) == bytes((4,)) * 5
    with pytest.raises(PreconditionViolated):
        alg.vector(memo, parse_formula("[]p"))

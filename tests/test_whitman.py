import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from wpml.catalog import all_lattices
from wpml.errors import PreconditionViolated
from wpml.formulas import (
    BOT,
    TOP,
    And,
    ConsequencePair,
    Letter,
    Or,
    connectives,
    parse_formula,
)
from wpml.lattice import algebra_validates, with_identity_modalities
from wpml.proofs import check_proof
from wpml.whitman import free_lattice_leq, normalize_constants

from conftest import literal_derive_bounded


def leq(a, b):
    return free_lattice_leq(parse_formula(a), parse_formula(b))


class TestExamples:
    def test_left_conjunction(self):
        assert leq("p & q", "p")

    def test_right_disjunction(self):
        assert leq("p", "p v q")

    def test_distributivity_fails(self, m3):
        phi = parse_formula("p & (q v r)")
        psi = parse_formula("(p & q) v (p & r)")
        assert not free_lattice_leq(phi, psi)
        # countervaluation on M3, per the stated oracle
        cv = algebra_validates(with_identity_modalities(m3), ConsequencePair(phi, psi))
        assert cv is not None

    def test_constants(self):
        assert leq("F", "p")
        assert leq("p", "T")
        assert not leq("T", "p")
        assert not leq("p", "F")
        assert leq("p & F", "q")
        assert leq("q", "p v T")
        assert leq("T", "p v T")

    def test_modalities_rejected(self):
        with pytest.raises(PreconditionViolated):
            free_lattice_leq(parse_formula("[]p"), parse_formula("p"))

    def test_no_formula_outlives_the_call(self):
        # the memo is per call: no module-level table keeps the pairs
        assert leq("fresh_a & (fresh_b v fresh_c)", "fresh_a v fresh_d")
        assert not leq("fresh_a v fresh_b", "fresh_a & fresh_c")
        gc.collect()
        kept = [
            o
            for o in gc.get_objects()
            if isinstance(o, Letter) and o.name.startswith("fresh_")
        ]
        assert kept == []


class TestNormalization:
    def test_collapses(self):
        assert normalize_constants(parse_formula("p & F")) == BOT
        assert normalize_constants(parse_formula("p v T")) == TOP
        assert normalize_constants(parse_formula("p & T")) == Letter("p")
        assert normalize_constants(parse_formula("p v F")) == Letter("p")
        assert normalize_constants(parse_formula("(p & T) v (q & F)")) == Letter("p")


def random_lattice_formula(rng, depth, letters=("p", "q", "r")):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice(
            [Letter(x) for x in letters] + [TOP, BOT]
        )
    if roll < 0.7:
        return And(
            random_lattice_formula(rng, depth - 1, letters),
            random_lattice_formula(rng, depth - 1, letters),
        )
    return Or(
        random_lattice_formula(rng, depth - 1, letters),
        random_lattice_formula(rng, depth - 1, letters),
    )


def countermodel_exists(phi, psi, max_size=6):
    pair = ConsequencePair(phi, psi)
    for n in range(1, max_size + 1):
        for lat in all_lattices(n):
            if algebra_validates(lat, pair) is not None:
                return True
    return False


class TestCrossChecks:
    def test_true_implies_derivable_within_linear_depth(self):
        rng = random.Random(404)
        confirmed = 0
        for _ in range(120):
            phi = random_lattice_formula(rng, rng.randint(0, 3))
            psi = random_lattice_formula(rng, rng.randint(0, 3))
            if connectives(phi) + connectives(psi) > 7:
                continue
            if not free_lattice_leq(phi, psi):
                continue
            depth = 2 * (connectives(phi) + connectives(psi)) + 2
            # ungated: `derive_bounded`'s root check is Whitman itself
            proof = literal_derive_bounded((), ConsequencePair(phi, psi), depth)
            assert proof is not None, (str(phi), str(psi))
            assert check_proof(proof) is None
            confirmed += 1
        assert confirmed > 20

    def test_false_implies_countermodel_of_size_at_most_6(self):
        rng = random.Random(405)
        refuted = 0
        for _ in range(120):
            phi = random_lattice_formula(rng, rng.randint(0, 2))
            psi = random_lattice_formula(rng, rng.randint(0, 2))
            if connectives(phi) + connectives(psi) > 5:
                continue
            if free_lattice_leq(phi, psi):
                continue
            assert countermodel_exists(phi, psi), (str(phi), str(psi))
            refuted += 1
        assert refuted > 20

    def test_validity_on_every_small_lattice_when_true(self):
        rng = random.Random(406)
        for _ in range(60):
            phi = random_lattice_formula(rng, rng.randint(0, 2))
            psi = random_lattice_formula(rng, rng.randint(0, 2))
            if free_lattice_leq(phi, psi):
                assert not countermodel_exists(phi, psi, max_size=5)


_lattice_formula = st.recursive(
    st.sampled_from([TOP, BOT, Letter("p"), Letter("q")]),
    lambda inner: st.one_of(
        st.builds(And, inner, inner), st.builds(Or, inner, inner)
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(_lattice_formula)
def test_reflexivity(f):
    assert free_lattice_leq(f, f)


@settings(max_examples=60, deadline=None)
@given(_lattice_formula, _lattice_formula)
def test_meet_below_join(f, g):
    assert free_lattice_leq(And(f, g), f)
    assert free_lattice_leq(f, Or(f, g))
    assert free_lattice_leq(And(f, g), Or(f, g))


@settings(max_examples=40, deadline=None)
@given(_lattice_formula, _lattice_formula, _lattice_formula)
def test_transitivity_property(f, g, h):
    if free_lattice_leq(f, g) and free_lattice_leq(g, h):
        assert free_lattice_leq(f, h)

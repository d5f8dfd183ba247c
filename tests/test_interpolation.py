import pytest

from wpml.catalog import all_distributive_lattices
from wpml import interpolation
from wpml.errors import InternalInconsistency, PreconditionViolated, ResourceBound
from wpml.formulas import ConsequencePair, letters, parse_formula, pretty
from wpml.interpolation import (
    DISTRIBUTIVITY,
    InterpolationProblem,
    candidate_pool,
    craig_interpolant,
    distributive_fragment_interpolant,
    enumerate_candidates,
)
from wpml.lattice import algebra_validates
from wpml.proofs import BadNode, check_proof


def interpolate(phi, psi, tags=()):
    return craig_interpolant(
        InterpolationProblem(parse_formula(phi), parse_formula(psi), tags)
    )


def assert_obligations(res, phi, psi, tags=()):
    from wpml.entailment import gamma_pairs

    gamma = gamma_pairs(tags)
    shared = letters(parse_formula(phi)) & letters(parse_formula(psi))
    assert letters(res.interpolant) <= shared
    assert check_proof(res.proof_left, gamma) is None
    assert check_proof(res.proof_right, gamma) is None
    assert res.proof_left.conclusion == ConsequencePair(
        parse_formula(phi), res.interpolant
    )
    assert res.proof_right.conclusion == ConsequencePair(
        res.interpolant, parse_formula(psi)
    )


class TestCraig:
    def test_conjunction_disjunction(self):
        res = interpolate("p & q", "p v r")
        assert res.verdict == "interpolant"
        assert pretty(res.interpolant) == "p"
        assert_obligations(res, "p & q", "p v r")

    def test_modal_under_t(self):
        res = interpolate("[](p & q)", "<>p", ("T",))
        assert res.verdict == "interpolant"
        # the least candidate in canonical order is p itself (the worked
        # []p is also correct but later in the order)
        assert pretty(res.interpolant) == "p"
        assert_obligations(res, "[](p & q)", "<>p", ("T",))

    def test_no_shared_letters_no_entailment(self):
        res = interpolate("q", "r")
        assert res.verdict == "no-entailment"
        assert res.countermodel.kind == "frame"
        assert res.countermodel.structure.n <= 3

    def test_becker_interpolant(self):
        res = interpolate("[](p & q)", "[]p v r")
        assert res.verdict == "interpolant"
        assert_obligations(res, "[](p & q)", "[]p v r")

    def test_under_4(self):
        res = interpolate("[]p & q", "[][]p v r", ("4",))
        assert res.verdict == "interpolant"
        assert pretty(res.interpolant) == "[]p"
        assert_obligations(res, "[]p & q", "[][]p v r", ("4",))

    def test_under_dot2(self):
        res = interpolate("<>[]p & q", "[]<>p v r", (".2",))
        assert res.verdict == "interpolant"
        assert_obligations(res, "<>[]p & q", "[]<>p v r", (".2",))

    def test_letter_free_interpolant(self):
        res = interpolate("q", "<>T v r")
        assert res.verdict == "interpolant"
        assert letters(res.interpolant) == frozenset()


class TestCandidateEnumeration:
    def test_pool_respects_shared_letters(self):
        phi, psi = parse_formula("[](p & q)"), parse_formula("<>p")
        pool = candidate_pool(phi, psi, ("p",))
        for f in pool:
            assert letters(f) <= {"p"}
        from wpml.formulas import TOP, BOT

        assert TOP in pool and BOT in pool

    def test_candidates_in_weight_order_and_unique(self):
        phi, psi = parse_formula("p & q"), parse_formula("p v r")
        pool = candidate_pool(phi, psi, ("p",))
        cands = list(enumerate_candidates(pool, 3))
        assert len(cands) == len(set(cands))


class TestDistributiveFragment:
    def test_simple(self):
        res = distributive_fragment_interpolant(
            parse_formula("p & q"), parse_formula("p v r")
        )
        assert res.verdict == "interpolant"
        assert pretty(res.interpolant) == "p"

    def test_two_shared_letters(self):
        res = distributive_fragment_interpolant(
            parse_formula("(p1 & q) v (p2 & q)"), parse_formula("(p1 v p2) v r")
        )
        assert res.verdict == "interpolant"
        assert pretty(res.interpolant) == "p1 v p2"
        assert check_proof(res.proof_left, DISTRIBUTIVITY) is None
        assert check_proof(res.proof_right, DISTRIBUTIVITY) is None

    def test_no_entailment(self):
        res = distributive_fragment_interpolant(
            parse_formula("q"), parse_formula("r")
        )
        assert res.verdict == "no-entailment"
        assert res.countermodel.kind == "algebra"
        assert res.countermodel.structure.n == 2

    def test_needs_distributivity(self):
        res = distributive_fragment_interpolant(
            parse_formula("p & (q v s)"), parse_formula("(p & q) v (p & s) v r")
        )
        assert res.verdict == "interpolant"
        assert pretty(res.interpolant) == "p & q v p & s"

    def test_modalities_rejected(self):
        with pytest.raises(PreconditionViolated):
            distributive_fragment_interpolant(
                parse_formula("[]p"), parse_formula("p")
            )

    def test_too_many_shared_letters(self):
        phi = parse_formula("a & b & c & d & e")
        psi = parse_formula("a v b v c v d v e")
        with pytest.raises(ResourceBound):
            distributive_fragment_interpolant(phi, psi)


class TestFailedInvariants:
    """A derivation that does not check is a fault of the implementation,
    not of the input, so it raises InternalInconsistency."""

    @pytest.fixture
    def reject_proofs(self, monkeypatch):
        monkeypatch.setattr(
            interpolation, "check_proof", lambda proof, gamma=(): BadNode((), "x")
        )

    def test_craig_interpolant(self, reject_proofs):
        with pytest.raises(InternalInconsistency, match="left derivation"):
            interpolate("p & q", "p v r")

    def test_distributive_fragment(self, reject_proofs):
        with pytest.raises(InternalInconsistency, match="distributive derivation"):
            distributive_fragment_interpolant(
                parse_formula("p & q"), parse_formula("p v r")
            )


class TestCandidateSpaceIsFreeDistributiveLattice:
    """The DNF candidate space over k shared letters, counted up to
    semantic equivalence over distributive lattices, is the free bounded
    distributive lattice: 6 elements for 2 letters, 20 for 3 (Dedekind
    numbers, which the brute-force DNF canonicalization reproduces)."""

    @staticmethod
    def _distinct_candidates(shared):
        from wpml.interpolation import _dnf_candidates

        catalog = [
            lat for n in range(1, 5) for lat in all_distributive_lattices(n)
        ]

        def equivalent(f, g):
            return (
                algebra_validates(catalog[1], ConsequencePair(f, g)) is None
                and algebra_validates(catalog[1], ConsequencePair(g, f)) is None
            )

        reps = []
        for cand in _dnf_candidates(shared):
            if not any(equivalent(cand, r) for r in reps):
                reps.append(cand)
        return reps

    def test_two_letters(self):
        assert len(self._distinct_candidates(("p1", "p2"))) == 6

    def test_three_letters(self):
        assert len(self._distinct_candidates(("p1", "p2", "p3"))) == 20

import gc
import json
import random
from pathlib import Path

import pytest

from wpml.catalog import all_distributive_lattices
from wpml import interpolation
from wpml.entailment import decide_entailment, gamma_pairs
from wpml.errors import (
    InternalInconsistency,
    PreconditionViolated,
    ResourceBound,
    SizeCap,
)
from wpml.formulas import (
    And,
    Box,
    ConsequencePair,
    Dia,
    Letter,
    Or,
    is_modality_free,
    letters,
    parse_formula,
    pretty,
)
from wpml.interpolation import (
    DISTRIBUTIVITY,
    CounterModel,
    InterpolationProblem,
    InterpolationResult,
    candidate_pool,
    craig_interpolant,
    distributive_fragment_interpolant,
    enumerate_candidates,
)
from wpml.lattice import algebra_validates
from wpml.proofs import (
    BadNode,
    _screen_tables,
    _screening_algebras,
    check_proof,
    derivable,
    derive_bounded,
)
from wpml.vectors import PackedScreen

from conftest import literal_cut_pool, literal_derive_bounded, random_formula

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "golden.json"


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


def per_call_craig_interpolant(prob):
    """`craig_interpolant` in the entailment-first order, the literal
    oracle for the candidates-first one: the entailment check runs on
    every problem, before any candidate.  Nothing is shared between its
    searches: the entailment's and each obligation's `derive_bounded`
    build a screen and a cut pool of their own, the candidate screen is a
    `PackedScreen` of its own, and each obligation is screened on the
    sorted letters of the obligation itself."""
    goal = ConsequencePair(prob.phi, prob.psi)
    ent = decide_entailment(
        prob.tags,
        goal,
        proof_depth=prob.proof_depth,
        model_size=prob.model_size,
        proof_budget=prob.proof_budget,
    )
    if ent.refuted:
        cm = CounterModel("frame", ent.frame, ent.valuation)
        return InterpolationResult("no-entailment", countermodel=cm)
    if not ent.derivable:
        return InterpolationResult(
            "unknown", diagnostics={"entailment": ent.diagnostics}
        )
    gamma = gamma_pairs(prob.tags)
    pool = candidate_pool(prob.phi, prob.psi, prob.shared)
    screen = PackedScreen(_screen_tables(_screening_algebras(gamma)))
    tried = 0
    notes: dict = {}
    for chi in enumerate_candidates(pool, prob.cand_size):
        tried += 1
        left_goal = ConsequencePair(prob.phi, chi)
        right_goal = ConsequencePair(chi, prob.psi)
        goals = [
            (g.lhs, g.rhs, tuple(sorted(letters(g)))) for g in (left_goal, right_goal)
        ]
        if screen.refutes(goals):
            continue
        try:
            left = derive_bounded(gamma, left_goal, prob.proof_depth, prob.proof_budget)
            if left is None:
                continue
            right = derive_bounded(
                gamma, right_goal, prob.proof_depth, prob.proof_budget
            )
        except ResourceBound as exc:
            notes.setdefault("resource_bounds", []).append(str(exc))
            continue
        if right is None:
            continue
        return InterpolationResult("interpolant", chi, left, right)
    notes.update(
        {
            "entailment": "derivable",
            "candidates_tried": tried,
            "cand_size": prob.cand_size,
            "proof_depth": prob.proof_depth,
        }
    )
    return InterpolationResult("unknown", diagnostics=notes)


# (phi, psi) templates per axiom tag, the golden corpus's shapes, which
# entail under the tag: a is over p and q, b adds r on the left and c
# adds s on the right
AGREEMENT_TEMPLATES = {
    (): (
        lambda a, b, c: (And(a, b), Or(a, c)),
        lambda a, b, c: (And(Box(a), b), Or(Box(a), c)),
        lambda a, b, c: (Dia(And(a, b)), Or(Dia(a), c)),
    ),
    ("T",): (lambda a, b, c: (And(Box(a), b), Or(a, c)),),
    ("4",): (lambda a, b, c: (And(Box(a), b), Or(Box(Box(a)), c)),),
    ("B",): (lambda a, b, c: (And(a, b), Or(Box(Dia(a)), c)),),
    ("5",): (lambda a, b, c: (And(Dia(a), b), Or(Box(Dia(a)), c)),),
    (".2",): (lambda a, b, c: (And(Dia(Box(a)), b), Or(Box(Dia(a)), c)),),
}


def agreement_problems():
    """The golden corpus's in-pass problems, then per axiom set seeded
    problems: template ones, which entail, and seeded pairs, which mostly
    do not, then problems whose entailment search runs and finds no
    proof, ending `unknown` and `no-entailment` at 4 points."""
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    probs = [
        InterpolationProblem(
            parse_formula(p["phi"]), parse_formula(p["psi"]), tuple(p["tags"])
        )
        for p in data["problems"]
        if p["in_pass"]
    ]
    for tags, templates in AGREEMENT_TEMPLATES.items():
        rng = random.Random("agreement:" + "+".join(tags))
        for template in templates:
            for _ in range(3):
                a = random_formula(rng, ("p", "q"), 2)
                b = random_formula(rng, ("p", "q", "r"), 1)
                c = random_formula(rng, ("p", "q", "s"), 1)
                phi, psi = template(a, b, c)
                probs.append(InterpolationProblem(phi, psi, tags, proof_depth=5))
        for _ in range(3):
            phi = random_formula(rng, ("p", "q", "r"), 2)
            psi = random_formula(rng, ("p", "q", "s"), 2)
            probs.append(
                InterpolationProblem(phi, psi, tags, proof_depth=4, model_size=3)
            )
    for phi, psi, tags in (
        ("[]p & <>q", "<>(p & q)", ("T",)),
        ("[](q & []p)", "<>([]T & <>q)", ()),
        ("[](p & (q & p))", "[](p & F v []p)", ("T",)),
    ):
        probs.append(InterpolationProblem(parse_formula(phi), parse_formula(psi), tags))
    for tags in AGREEMENT_TEMPLATES:
        rng = random.Random("agreement-pairs:" + "+".join(tags))
        for i in range(9):
            names = ("p", "q", "r", "s") if i % 3 == 0 else ("p", "q", "r")
            phi = random_formula(rng, names, 2)
            psi = random_formula(rng, names[::-1], 2)
            probs.append(
                InterpolationProblem(phi, psi, tags, proof_depth=4, model_size=3)
            )
    return probs


def assert_interpolant_within_depth(res, prob):
    """`res` is an interpolant of `prob` whose two proofs check under its
    axioms with height at most its proof depth."""
    gamma = gamma_pairs(prob.tags)
    assert res.verdict == "interpolant"
    assert letters(res.interpolant) <= frozenset(prob.shared)
    for proof, conclusion in (
        (res.proof_left, ConsequencePair(prob.phi, res.interpolant)),
        (res.proof_right, ConsequencePair(res.interpolant, prob.psi)),
    ):
        assert proof.conclusion == conclusion
        assert check_proof(proof, gamma) is None
        assert proof.height() <= prob.proof_depth


def test_craig_interpolant_agrees_with_the_per_call_path():
    """One set-up per call, and the candidates before the entailment
    check, change no result but one kind: verdict, interpolant, both
    proofs, countermodel and diagnostics are those of the path that
    shares nothing between its searches and decides entailment first,
    except where that path's check finds no proof within its bounds and
    a candidate's two obligations have proofs within the depth, which
    turns its `unknown` into that interpolant.  A third of the seeded
    pairs are over four letters, past the root screen, so their goals
    reach the candidates whether they entail or not."""
    verdicts = set()
    changed = []
    for prob in agreement_problems():
        got = craig_interpolant(prob)
        want = per_call_craig_interpolant(prob)
        verdicts.add(got.verdict)
        if got == want:
            continue
        assert want.verdict == "unknown", (str(prob.phi), str(prob.psi))
        assert "entailment" in want.diagnostics
        assert_interpolant_within_depth(got, prob)
        changed.append((pretty(prob.phi), pretty(prob.psi), prob.tags))
    assert verdicts == {"interpolant", "no-entailment", "unknown"}
    assert changed == [("[](s & q)", "<>[]s", ("4",))]


@pytest.mark.parametrize(
    "phi, psi",
    [("(p v t) & []F", "<>[]u"), ("[](F & q)", "<>p")],
)
def test_interpolant_where_the_goal_has_no_proof_within_the_depth(phi, psi):
    """Under 4 at depth 4 and size 3, the goal's least proof is of height
    5, so the entailment check is `unknown` (the answer when it ran
    first), but `[]F` interpolates with proofs of height at most 4."""
    prob = InterpolationProblem(
        parse_formula(phi), parse_formula(psi), ("4",), proof_depth=4, model_size=3
    )
    goal = ConsequencePair(prob.phi, prob.psi)
    gamma = gamma_pairs(("4",))
    assert derivable(gamma, goal, 4) is None
    assert derivable(gamma, goal, 5).height() == 5
    assert per_call_craig_interpolant(prob).verdict == "unknown"
    res = craig_interpolant(prob)
    assert pretty(res.interpolant) == "[]F"
    assert_interpolant_within_depth(res, prob)


def test_a_goal_that_does_not_entail_is_checked_after_the_one_atom_candidates(
    monkeypatch,
):
    """The goal is over four letters, so the root screen passes it, and
    every candidate is screened out (each obligation is over at most
    three letters): the entailment check runs at the first candidate
    past the `len(pool)` one-atom ones, not after all 6,391."""
    prob = InterpolationProblem(
        parse_formula("<>r & (p & q)"),
        parse_formula("<>(s & r)"),
        ("B",),
        proof_depth=4,
        model_size=3,
    )
    pool = candidate_pool(prob.phi, prob.psi, prob.shared)
    enumerated = []

    def counted(pool, max_atoms):
        for chi in enumerate_candidates(pool, max_atoms):
            enumerated.append(chi)
            yield chi

    def no_search(*args, **kwargs):
        raise AssertionError("an obligation was searched")

    monkeypatch.setattr(interpolation, "enumerate_candidates", counted)
    monkeypatch.setattr(interpolation, "derive_bounded", no_search)
    res = craig_interpolant(prob)
    assert res.verdict == "no-entailment"
    assert res == per_call_craig_interpolant(prob)
    assert len(pool) == 11
    assert len(enumerated) == len(pool) + 1
    assert sum(1 for _ in enumerate_candidates(pool, prob.cand_size)) == 6391


def test_no_formula_outlives_the_call():
    # the set-up is per call: nothing keeps the problems' letters once the
    # results are dropped
    results = [
        interpolate(phi, psi, tags)
        for phi, psi, tags in (
            ("[](keep_a & keep_b) & keep_c", "[]keep_a v keep_d", ()),
            ("[]keep_a & keep_c", "<>keep_a v keep_d", ("T",)),
        )
    ]
    assert [r.verdict for r in results] == ["interpolant", "interpolant"]
    del results
    gc.collect()
    kept = [
        o
        for o in gc.get_objects()
        if isinstance(o, Letter) and o.name.startswith("keep_")
    ]
    assert kept == []


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

    def test_depth_past_the_cap_before_any_search(self):
        # a pair the two-element lattice refutes reaches no proof search
        with pytest.raises(SizeCap, match="proof depth 201 exceeds the cap of 200"):
            distributive_fragment_interpolant(
                parse_formula("q"), parse_formula("r"), proof_depth=201
            )

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

    def test_shared_setup_matches_prebuilt_pools(self, monkeypatch):
        """The obligations share one set-up at caps (64, 128); the results
        are those of searches on pools built before the root screen."""
        rng = random.Random("distributive-setup")
        pairs = [
            (parse_formula("p & (q v s)"), parse_formula("(p & q) v (p & s) v r")),
            (parse_formula("(p1 & q) v (p2 & q)"), parse_formula("(p1 v p2) v r")),
        ]
        while len(pairs) < 12:
            a = random_formula(rng, ("p", "q"), 2)
            b = random_formula(rng, ("p", "q", "r"), 2)
            c = random_formula(rng, ("p", "q", "s"), 2)
            if all(map(is_modality_free, (a, b, c))):
                pairs.append((And(a, b), Or(a, c)))

        def results():
            return [distributive_fragment_interpolant(phi, psi) for phi, psi in pairs]

        got = results()

        def prebuilt(gamma, goal, depth, budget, setup=None):
            pool = literal_cut_pool(goal, gamma, instance_cap=64, pool_cap=128)
            return literal_derive_bounded(gamma, goal, depth, budget, pool)

        monkeypatch.setattr(interpolation, "derive_bounded", prebuilt)
        assert got == results()
        assert sum(r.verdict == "interpolant" for r in got) >= 6

    def test_too_many_shared_letters(self):
        phi = parse_formula("a & b & c & d & e")
        psi = parse_formula("a v b v c v d v e")
        with pytest.raises(ResourceBound):
            distributive_fragment_interpolant(phi, psi)

    def test_valid_pair_over_nine_letters_is_reported(self):
        """The two-element lattice takes 2^9 valuations, well within the
        budget, so a valid pair over nine letters gets a report; the
        depth-8 search derives both obligations of its one candidate, as
        the cut pool keeps the conjunctions of the left side."""
        res = distributive_fragment_interpolant(
            parse_formula("a & b & c & d & e & f & g & h"), parse_formula("a v z")
        )
        assert res.verdict == "interpolant"
        assert res.interpolant == parse_formula("a")
        assert check_proof(res.proof_left, DISTRIBUTIVITY) is None
        assert check_proof(res.proof_right, DISTRIBUTIVITY) is None

    def test_two_element_decision_matches_the_catalog_walk(self, monkeypatch):
        """Seeded modality-free pairs give the same results as when each
        entailment is decided by the first refuter among the distributive
        lattices of at most six elements."""
        catalog = [lat for n in range(1, 7) for lat in all_distributive_lattices(n)]

        def catalog_walk(pair):
            for lat in catalog:
                cv = algebra_validates(lat, pair)
                if cv is not None:
                    return lat, cv
            return None

        rng = random.Random("distributive-decision")
        pairs = []
        while len(pairs) < 150:
            a, b, c = (random_formula(rng, names, 2) for names in ("pq", "pqr", "pqs"))
            if all(map(is_modality_free, (a, b, c))):
                pairs.append((And(a, b), Or(a, c)) if len(pairs) % 2 else (b, c))

        def results():
            return [distributive_fragment_interpolant(phi, psi) for phi, psi in pairs]

        got = results()
        monkeypatch.setattr(interpolation, "_dist_entails", catalog_walk)
        assert got == results()
        verdicts = {r.verdict for r in got}
        assert verdicts == {"interpolant", "no-entailment"}


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
        with pytest.raises(InternalInconsistency, match="left derivation"):
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

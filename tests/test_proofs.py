import random

import pytest

from wpml.correspondence import AXIOMS
from wpml.entailment import gamma_pairs
from wpml.errors import PreconditionViolated, ResourceBound
from wpml.formulas import (
    TOP,
    And,
    Box,
    ConsequencePair,
    Dia,
    Letter,
    Or,
    letters,
    parse_pair,
)
from wpml.generators import sample_modal_lattice, sample_modal_lframe
from wpml.lattice import algebra_validates, with_identity_modalities
from wpml.lframe import frame_validates
from wpml.proofs import (
    BadNode,
    Proof,
    ProofSearch,
    _screening_algebras,
    check_proof,
    cut_pool,
    derive_bounded,
    order_cuts,
)
from wpml.serialize import proof_from_json, proof_to_json


class TestCheckProof:
    def test_reflexivity_leaf(self):
        p = Proof("reflexivity", parse_pair("p |- p"))
        assert check_proof(p) is None

    def test_transitivity_node(self):
        a = Proof("reflexivity", parse_pair("p |- p"))
        chain = Proof(
            "transitivity",
            parse_pair("p |- r"),
            (
                Proof("top", parse_pair("p |- T")),
                Proof("bottom", parse_pair("T |- r")),
            ),
        )
        # premises chain but the second node is not a bottom instance
        bad = check_proof(chain)
        assert bad is not None and bad.path == (1,)
        del a

    def test_valid_transitivity(self):
        n = Proof(
            "transitivity",
            parse_pair("p & q |- p v r"),
            (
                Proof("left-conjunction", parse_pair("p & q |- p")),
                Proof("right-disjunction", parse_pair("p |- p v r")),
            ),
        )
        assert check_proof(n) is None

    def test_wrong_linearity_claim(self):
        bad = Proof("linearity", parse_pair("<>p & <>q |- <>(p & q)"))
        out = check_proof(bad)
        assert isinstance(out, BadNode) and out.path == ()

    def test_axiom_instance(self):
        node = Proof("axiom", parse_pair("[](a & b) |- a & b"))
        assert check_proof(node, AXIOMS["T"]) is None
        assert check_proof(node, AXIOMS["4"]) is not None

    def test_premise_mismatch_path(self):
        inner = Proof("reflexivity", parse_pair("p |- q"))  # broken leaf
        outer = Proof("becker-box", parse_pair("[]p |- []q"), (inner,))
        out = check_proof(outer)
        assert out is not None and out.path == (0,)


class TestDeriveBounded:
    def test_bottom_axiom(self):
        p = derive_bounded((), parse_pair("F |- []p"), 2)
        assert p is not None and p.rule == "bottom"
        assert check_proof(p) is None

    def test_becker(self):
        p = derive_bounded((), parse_pair("[](p & q) |- []p"), 3)
        assert p is not None and p.rule == "becker-box"
        assert p.height() <= 3
        assert check_proof(p) is None

    def test_no_proof_of_necessitation_collapse(self):
        assert derive_bounded((), parse_pair("p |- []p"), 6) is None

    def test_duality_axiom(self):
        p = derive_bounded((), parse_pair("<>p & []q |- <>(p & q)"), 2)
        assert p is not None and p.rule == "duality"

    def test_gamma_instance(self):
        p = derive_bounded(AXIOMS["T"], parse_pair("[](p v q) |- p v q"), 2)
        assert p is not None and p.rule == "axiom"
        assert dict(p.subst) == {"p": parse_pair("p v q |- p").lhs}

    def test_conclusion_matches_goal(self):
        goal = parse_pair("[]p & []q |- [](p & q)")
        p = derive_bounded((), goal, 4)
        assert p is not None and p.conclusion == goal

    def test_budget_raises(self):
        # more than three letters, so the semantic screen stands aside
        with pytest.raises(ResourceBound):
            derive_bounded(
                (), parse_pair("a1 & a2 & a3 & a4 |- b1 v b2"), 30, budget=3
            )

    def test_determinism(self):
        goal = parse_pair("[](p & q) & r |- <>p v s")
        a = derive_bounded(AXIOMS["T"], goal, 6)
        b = derive_bounded(AXIOMS["T"], goal, 6)
        assert a == b


class TestEmptyLogicBoxDiamond:
    """The pair []p |- <>p is derivable in the base calculus (via the
    duality axiom at T and the modal-top axiom), so no frame can refute
    it; bounded search with the subformula cut pool does not find this
    derivation, which is an admissible Unknown."""

    def hand_derivation(self):
        p = Letter("p")
        top_cut = Proof(
            "transitivity",
            ConsequencePair(Box(p), Dia(TOP)),
            (
                Proof("top", ConsequencePair(Box(p), TOP)),
                Proof("modal-top", ConsequencePair(TOP, Dia(TOP))),
            ),
        )
        pair_up = Proof(
            "right-conjunction",
            ConsequencePair(Box(p), And(Dia(TOP), Box(p))),
            (top_cut, Proof("reflexivity", ConsequencePair(Box(p), Box(p)))),
        )
        push = Proof(
            "transitivity",
            ConsequencePair(And(Dia(TOP), Box(p)), Dia(p)),
            (
                Proof(
                    "duality", ConsequencePair(And(Dia(TOP), Box(p)), Dia(And(TOP, p)))
                ),
                Proof(
                    "becker-dia",
                    ConsequencePair(Dia(And(TOP, p)), Dia(p)),
                    (
                        Proof(
                            "left-conjunction", ConsequencePair(And(TOP, p), p)
                        ),
                    ),
                ),
            ),
        )
        return Proof(
            "transitivity", ConsequencePair(Box(p), Dia(p)), (pair_up, push)
        )

    def test_hand_derivation_checks(self):
        assert check_proof(self.hand_derivation(), ()) is None

    def test_hand_derivation_is_semantically_valid_everywhere(self):
        rng = random.Random(99)
        goal = parse_pair("[]p |- <>p")
        for _ in range(25):
            a = sample_modal_lattice(rng, rng.randint(1, 4))
            assert algebra_validates(a, goal) is None
            x = sample_modal_lframe(rng, rng.randint(1, 4))
            assert frame_validates(x, goal) is None


class TestCutPool:
    def test_contains_goal_subformulas_constants_and_modal_closure(self):
        goal = parse_pair("p & q |- r")
        pool = set(cut_pool(goal))
        for text in ("p", "q", "r", "p & q", "T", "F", "[]p", "<>r", "[]T"):
            from wpml.formulas import parse_formula

            assert parse_formula(text) in pool

    def test_gamma_instances_included(self):
        goal = parse_pair("[]p |- <>p")
        pool = set(cut_pool(goal, AXIOMS["T"]))
        from wpml.formulas import parse_formula

        # T instantiated at []p contributes [][]p via subformulas+closure
        assert parse_formula("[][]p") in pool


class TestSoundness:
    def test_seeded_proofs_validate_on_algebras_and_frames(self):
        rng = random.Random(31)
        goals = [
            ("[]p & []q |- [](p & q)", ()),
            ("F |- q", ()),
            ("p & (q & r) |- q", ()),
            ("[](p & q) |- []p v s", ()),
            ("[]p |- <>p", ("T",)),
            ("[]p & q |- [][]p", ("4",)),
            ("<>p |- []<>p v r", ("5",)),
        ]
        algebras = [sample_modal_lattice(rng, rng.randint(1, 4)) for _ in range(50)]
        frames = [sample_modal_lframe(rng, rng.randint(1, 4)) for _ in range(50)]
        checked = 0
        for text, tags in goals:
            gamma = tuple(p for t in tags for p in AXIOMS[t])
            proof = derive_bounded(gamma, parse_pair(text), 6)
            assert proof is not None, text
            assert check_proof(proof, gamma) is None
            for a in algebras:
                if all(algebra_validates(a, g) is None for g in gamma):
                    assert algebra_validates(a, proof.conclusion) is None
                    checked += 1
            for x in frames:
                if all(frame_validates(x, g) is None for g in gamma):
                    assert frame_validates(x, proof.conclusion) is None
                    checked += 1
        assert checked > 300


class TestProofSerialization:
    def test_round_trip(self):
        p = derive_bounded(AXIOMS["T"], parse_pair("[](p & q) |- <>p"), 5)
        assert p is not None
        blob = proof_to_json(p)
        back = proof_from_json(blob)
        assert back == p
        assert check_proof(back, AXIOMS["T"]) is None

    def test_json_shape(self):
        p = Proof("reflexivity", parse_pair("p |- p"))
        blob = proof_to_json(p)
        assert blob == {"rule": "reflexivity", "conclusion": "p |- p", "premises": []}


class ScalarScreenSearch(ProofSearch):
    """Reference search: screens each pair through the scalar
    `algebra_validates` oracle, as the search did before value vectors."""

    def _screened_out(self, pair):
        if pair in self._screen_ok:
            return False
        if len(letters(pair)) > 3:
            self._screen_ok.add(pair)
            return False
        for a in self.screens:
            if algebra_validates(a, pair) is not None:
                return True
        self._screen_ok.add(pair)
        return False


class FormulaKeyedSearch(ProofSearch):
    """Reference search: the formula-keyed `prove` that the id-keyed one
    replaced, with memo tables keyed by `ConsequencePair`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.success = {}
        self.failed_at = {}

    def prove(self, pair, depth):
        if pair in self.success:
            return self.success[pair]
        if depth <= 0 or self.failed_at.get(pair, -1) >= depth:
            return None
        self.expansions += 1
        if self.expansions > self.budget:
            raise ResourceBound(self.expansions, self.budget)
        if self._screened_out(pair):
            self.failed_at[pair] = 10**9
            return None
        found = self._leaf(pair)
        lhs, rhs = pair.lhs, pair.rhs
        if found is None and depth < 2:
            self.failed_at[pair] = depth
            return None
        if found is None and isinstance(rhs, And):
            a = self.prove(ConsequencePair(lhs, rhs.lhs), depth - 1)
            if a is not None:
                b = self.prove(ConsequencePair(lhs, rhs.rhs), depth - 1)
                if b is not None:
                    found = Proof("right-conjunction", pair, (a, b))
        if found is None and isinstance(lhs, Or):
            a = self.prove(ConsequencePair(lhs.lhs, rhs), depth - 1)
            if a is not None:
                b = self.prove(ConsequencePair(lhs.rhs, rhs), depth - 1)
                if b is not None:
                    found = Proof("left-disjunction", pair, (a, b))
        if found is None and isinstance(lhs, Box) and isinstance(rhs, Box):
            a = self.prove(ConsequencePair(lhs.arg, rhs.arg), depth - 1)
            if a is not None:
                found = Proof("becker-box", pair, (a,))
        if found is None and isinstance(lhs, Dia) and isinstance(rhs, Dia):
            a = self.prove(ConsequencePair(lhs.arg, rhs.arg), depth - 1)
            if a is not None:
                found = Proof("becker-dia", pair, (a,))
        if found is None:
            for cut in self.pool:
                if cut == lhs or cut == rhs:
                    continue
                a = self.prove(ConsequencePair(lhs, cut), depth - 1)
                if a is None:
                    continue
                b = self.prove(ConsequencePair(cut, rhs), depth - 1)
                if b is not None:
                    found = Proof("transitivity", pair, (a, b))
                    break
        if found is not None:
            self.success[pair] = found
        else:
            self.failed_at[pair] = depth
        return found


def _assert_same_search(fast, slow):
    assert fast.expansions == slow.expansions
    assert fast.screen_calls == slow.screen_calls
    assert fast.screen_rejects == slow.screen_rejects
    assert len(fast.success) == len(slow.success)
    assert len(fast.failed_at) == len(slow.failed_at)
    assert fast.success == slow.success and fast.failed_at == slow.failed_at


# (goal, axiom tags) from the interpolation golden corpus
GOLDEN_SAMPLE = (
    ("[](p & q) |- <>p", ("T",)),
    ("[]p & q |- [][]p v r", ("4",)),
    ("<><>p & q |- <>p v r", ("4",)),
    ("[]p & []q |- [](p & q) v r", ()),
    ("<>p & []q |- <>(p & q) v r", ()),
    ("[](p & q) & s |- []p v r", ()),
)


class TestVectorScreen:
    """The memoized value-vector screen against the scalar oracle."""

    def test_verdicts_match_algebra_validates(self):
        rng = random.Random(4242)
        corpus = {}  # distinct pairs, in draw order
        for text, tags in GOLDEN_SAMPLE[:4]:
            pool = cut_pool(parse_pair(text), gamma_pairs(tags))
            target = len(corpus) + 150
            while len(corpus) < target:
                pair = ConsequencePair(rng.choice(pool), rng.choice(pool))
                if len(letters(pair)) <= 3:
                    corpus[pair] = None
        for gamma in [()] + [AXIOMS[tag] for tag in sorted(AXIOMS)]:
            screens = _screening_algebras(tuple(gamma))
            search = ProofSearch(gamma, (), screens=screens)
            verdicts = []
            for pair in corpus:
                expected = any(algebra_validates(a, pair) is not None for a in screens)
                assert search._screened_out(pair) == expected, (gamma, str(pair))
                verdicts.append(expected)
            assert any(verdicts) and not all(verdicts)
            assert search.screen_calls == len(corpus)
            assert search.screen_rejects == sum(verdicts)
            assert search.vector_entries > 0

    def test_plain_lattice_screen_rejects_modal_formulas(self, chain3):
        pair = parse_pair("[]p |- p")
        with pytest.raises(PreconditionViolated):
            algebra_validates(chain3, pair)
        with pytest.raises(PreconditionViolated):
            ProofSearch((), (), screens=(chain3,))._screened_out(pair)
        # a modality-free pair is screened on a plain lattice as before
        search = ProofSearch((), (), screens=(chain3,))
        assert search._screened_out(parse_pair("p v q |- p")) is True
        assert search._screened_out(parse_pair("p & q |- q v r")) is False

    @pytest.mark.parametrize(
        "text,tags,depth",
        [(text, tags, 6) for text, tags in GOLDEN_SAMPLE] + [("p |- []p", (), 4)],
    )
    def test_search_matches_scalar_screen_reference(self, text, tags, depth):
        gamma = gamma_pairs(tags)
        goal = parse_pair(text)
        cuts = order_cuts(goal, cut_pool(goal, gamma))
        fast = ProofSearch(gamma, cuts)
        slow = ScalarScreenSearch(gamma, cuts)
        formula_keyed = FormulaKeyedSearch(gamma, cuts)
        proof = fast.prove(goal, depth)
        assert proof == slow.prove(goal, depth)
        assert proof == formula_keyed.prove(goal, depth)
        assert proof == derive_bounded(gamma, goal, depth)
        assert fast.expansions == slow.expansions
        assert fast.success == slow.success and fast.failed_at == slow.failed_at
        _assert_same_search(fast, formula_keyed)

    def test_wpml_budget_raises_from_the_screen(self, monkeypatch):
        monkeypatch.setenv("WPML_BUDGET", "10")
        goal = parse_pair("p & q |- p v r")
        with pytest.raises(ResourceBound) as fast:
            derive_bounded((), goal, 6)
        with pytest.raises(ResourceBound) as slow:
            ScalarScreenSearch((), order_cuts(goal, cut_pool(goal))).prove(goal, 6)
        assert (fast.value.needed, fast.value.budget) == (27, 10)
        assert (slow.value.needed, slow.value.budget) == (27, 10)


class TestIdKeyedSearch:
    """The search on per-search formula ids against the formula-keyed
    reference: same proofs, counters and memo tables (the golden sample
    is compared in `TestVectorScreen`)."""

    @pytest.mark.parametrize("tags", [(), ("T",), ("4",), ("B",), ("5",), (".2",)])
    def test_seeded_pairs_share_one_search(self, tags):
        """Pairs drawn from a cut pool, proved one after another in one
        search, so later goals hit memo entries of earlier ones."""
        rng = random.Random(2024)
        gamma = gamma_pairs(tags)
        goal = parse_pair(GOLDEN_SAMPLE[0][0])
        pool = cut_pool(goal, gamma)
        cuts = order_cuts(goal, pool)
        fast, slow = ProofSearch(gamma, cuts), FormulaKeyedSearch(gamma, cuts)
        found = 0
        for _ in range(60):
            pair = ConsequencePair(rng.choice(pool), rng.choice(pool))
            depth = rng.randint(0, 3)
            proof = fast.prove(pair, depth)
            assert proof == slow.prove(pair, depth), str(pair)
            found += proof is not None
            assert fast.expansions == slow.expansions
        assert 0 < found < 60
        _assert_same_search(fast, slow)
        # a goal whose sides are not pool formulas
        goal = parse_pair("[](p & q) & s |- <>(p v s) v []r")
        assert fast.prove(goal, 4) == slow.prove(goal, 4)
        _assert_same_search(fast, slow)

    def test_duplicated_pool_formula(self):
        goal = parse_pair("[](p & q) & s |- []p v r")
        cuts = order_cuts(goal, cut_pool(goal))
        pool = cuts[:5] + cuts[3:4] + cuts[5:] + cuts[:1]
        fast, slow = ProofSearch((), pool), FormulaKeyedSearch((), pool)
        proof = fast.prove(goal, 6)
        assert proof is not None and proof == slow.prove(goal, 6)
        _assert_same_search(fast, slow)

    @pytest.mark.parametrize("budget", [0, 1, 7, 200])
    def test_same_resource_bound(self, budget):
        goal = parse_pair("[](p & q) & s |- []p v r")  # 1023 expansions
        cuts = order_cuts(goal, cut_pool(goal))
        fast = ProofSearch((), cuts, budget=budget)
        slow = FormulaKeyedSearch((), cuts, budget=budget)
        with pytest.raises(ResourceBound) as fast_exc:
            fast.prove(goal, 6)
        with pytest.raises(ResourceBound) as slow_exc:
            slow.prove(goal, 6)
        assert fast_exc.value.needed == slow_exc.value.needed == budget + 1
        _assert_same_search(fast, slow)

    def test_memo_views_decode_pairs(self):
        goal = parse_pair("[]p & []q |- [](p & q) v r")
        search = ProofSearch((), order_cuts(goal, cut_pool(goal)))
        proof = search.prove(goal, 6)
        assert search.success[goal] is proof and goal in search.success
        assert all(search.success[pair].conclusion == pair for pair in search.success)
        unseen = parse_pair("zz |- zz")
        assert unseen not in search.success and unseen not in search.failed_at
        assert search.failed_at.get(unseen) is None
        with pytest.raises(KeyError):
            search.failed_at[unseen]

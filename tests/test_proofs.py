import hashlib
import random
import sys
from bisect import bisect_right
from itertools import accumulate, combinations, takewhile

import pytest

from wpml.correspondence import AXIOM_TAGS, AXIOMS
from wpml.entailment import decide_entailment, gamma_pairs
from wpml.errors import (
    InternalInconsistency,
    PreconditionViolated,
    ResourceBound,
    SizeCap,
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
    match_pair,
    parse_formula,
    parse_pair,
    substitute,
)
from wpml.generators import sample_modal_lattice, sample_modal_lframe
from wpml.interpolation import InterpolationProblem, craig_interpolant
from wpml.lattice import (
    FiniteModalLattice,
    algebra_validates,
    validate_lattice,
    with_identity_modalities,
)
from wpml.lframe import frame_validates
from wpml.proofs import (
    _SHIFT,
    MAX_PROOF_DEPTH,
    BadNode,
    Proof,
    ProofSearch,
    _axiom_matches,
    _rule_matches,
    _screen_tables,
    _screening_algebras,
    check_proof,
    cut_pool,
    derive_bounded,
    order_cuts,
)
from wpml.serialize import proof_from_json, proof_to_json
from wpml.vectors import PackedScreen, ScreenTables

from conftest import chain_leq, random_formula


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

    def test_unknown_inference_rule_is_an_internal_inconsistency(self):
        """`check_proof` sends `_rule_matches` only inference rule names;
        another name must not fall through to None, which means valid."""
        with pytest.raises(InternalInconsistency, match="unknown inference rule 'cut'"):
            _rule_matches("cut", parse_pair("p |- p"), [parse_pair("p |- p")] * 2)


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

    def test_depth_above_the_cap_is_a_size_cap(self):
        goal = parse_pair("p & q |- r v s")
        over = MAX_PROOF_DEPTH + 1
        with pytest.raises(SizeCap, match=f"proof depth {over} exceeds the cap of 200"):
            derive_bounded((), goal, over)
        with pytest.raises(SizeCap):
            decide_entailment((), goal, proof_depth=over)
        with pytest.raises(SizeCap):
            craig_interpolant(InterpolationProblem(goal.lhs, goal.rhs, proof_depth=over))

    def test_search_at_the_cap_stays_inside_the_recursion_limit(self):
        """At the greatest depth: a failing search that recurses to the
        bottom, and a proof of height 100 over formulas nested 100 deep,
        checked, measured, compared and printed."""
        assert sys.getrecursionlimit() == 1000
        assert derive_bounded((), parse_pair("p & q |- r v s"), MAX_PROOF_DEPTH) is None
        goal = parse_pair("[]" * 99 + "(p & q) |- " + "[]" * 99 + "p")
        proof = derive_bounded((), goal, MAX_PROOF_DEPTH)
        assert proof.height() == 100 and check_proof(proof) is None
        assert proof_from_json(proof_to_json(proof)) == proof


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


# `cut_pool` and `order_cuts` outputs of `test_pools_and_cut_orders_are_pinned`
CUT_POOLS_SHA256 = "1ca672b847462e56c0ea95067d12bcb8623b3d0e3af1de72cf69ba32f14599c0"


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

    def test_pools_and_cut_orders_are_pinned(self):
        """`cut_pool` and `order_cuts` on the golden sample under every
        axiom set and two cap settings, as recorded before they computed
        each sort key once per call."""
        digest = hashlib.sha256()
        for text, _ in GOLDEN_SAMPLE:
            goal = parse_pair(text)
            for gamma in AXIOM_SETS:
                for caps in ({}, {"instance_cap": 5, "pool_cap": 40}):
                    pool = cut_pool(goal, gamma, **caps)
                    digest.update(repr((pool, order_cuts(goal, pool))).encode())
        assert digest.hexdigest() == CUT_POOLS_SHA256


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
    `algebra_validates` oracle on the screens within budget for its
    letters, and counts screen calls and rejects as the packed screen
    does."""

    def _screened_out(self, key):
        if key in self._screen_ok:
            return False
        pair = _pair_of(self, key)
        if len(letters(pair)) > 3:
            self._screen_ok.add(key)
            return False
        self.screen_calls += 1
        for a in within_budget(self.screens, pair):
            if algebra_validates(a, pair) is not None:
                self.screen_rejects += 1
                return True
        self._screen_ok.add(key)
        return False


def within_budget(algebras, goal):
    """The algebras before the first with n**k > WPML_BUDGET, for the k
    letters of the goal."""
    k, budget = len(letters(goal)), resolve_budget()
    return list(takewhile(lambda a: a.n**k <= budget, algebras))


def _pair_of(search, key):
    formulas = search._formulas
    return ConsequencePair(formulas[key >> _SHIFT], formulas[key & (1 << _SHIFT) - 1])


def screened_out(search, pair):
    """`search._screened_out` on a pair, through the search's ids."""
    return search._screened_out(search._id(pair.lhs) << _SHIFT | search._id(pair.rhs))


def outcome(thunk):
    """What a call returns, or the type and arguments of what it raises."""
    try:
        return "returns", thunk()
    except (ResourceBound, PreconditionViolated) as exc:
        return "raises", type(exc), exc.args


def literal_screen(algebras, goals):
    """The literal loop over the algebras (goals in order at each), each
    goal tried only on the algebras within budget for its letters: the
    index of the first refuting algebra, or None."""
    kept = [within_budget(algebras, goal) for goal in goals]
    for s, a in enumerate(algebras):
        for goal, within in zip(goals, kept):
            if s < len(within) and algebra_validates(a, goal) is not None:
                return s
    return None


def first_refuting(screen, pair):
    """The index of the first screen that refutes the pair, read off the
    escape position of its packed vectors and the screen sizes; None if
    none within budget does."""
    ls = tuple(sorted(letters(pair)))
    memo, end = screen.stretch(ls)
    if not end:
        return None
    tables = screen.tables
    pos = tables.escape(tables.vector(memo, pair.lhs), tables.vector(memo, pair.rhs))
    if pos < 0:
        return None
    assert pos < end
    return bisect_right(list(accumulate(n ** len(ls) for n in tables.sizes)), pos)


def packed_screen(algebras, goals):
    """The packed screen's decision, given as `literal_screen` gives it."""
    screen = PackedScreen(ScreenTables(algebras), resolve_budget())
    triples = [(g.lhs, g.rhs, tuple(sorted(letters(g)))) for g in goals]
    if not screen.refutes(triples):
        return None
    firsts = [first_refuting(screen, goal) for goal in goals]
    return min(s for s in firsts if s is not None)


def seeded_pairs(rng, count, max_letters=3):
    """Distinct pairs of cut-pool formulas of the golden sample, in draw
    order, with at most `max_letters` letters."""
    corpus = {}
    for text, tags in GOLDEN_SAMPLE[:4]:
        pool = cut_pool(parse_pair(text), gamma_pairs(tags))
        target = len(corpus) + count
        while len(corpus) < target:
            pair = ConsequencePair(rng.choice(pool), rng.choice(pool))
            if len(letters(pair)) <= max_letters:
                corpus[pair] = None
    return list(corpus)


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
        if screened_out(self, pair):
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


def decoded(search, table):
    """A memo table of `search` keyed by `ConsequencePair`: an id-keyed
    table decoded, a `FormulaKeyedSearch`'s as it is."""
    if isinstance(search, FormulaKeyedSearch):
        return table
    return {_pair_of(search, key): value for key, value in table.items()}


def _assert_same_search(fast, slow):
    assert fast.expansions == slow.expansions
    assert fast.screen_calls == slow.screen_calls
    assert fast.screen_rejects == slow.screen_rejects
    assert len(fast.success) == len(slow.success)
    assert len(fast.failed_at) == len(slow.failed_at)
    assert decoded(fast, fast.success) == decoded(slow, slow.success)
    assert decoded(fast, fast.failed_at) == decoded(slow, slow.failed_at)


# (goal, axiom tags) from the interpolation golden corpus
GOLDEN_SAMPLE = (
    ("[](p & q) |- <>p", ("T",)),
    ("[]p & q |- [][]p v r", ("4",)),
    ("<><>p & q |- <>p v r", ("4",)),
    ("[]p & []q |- [](p & q) v r", ()),
    ("<>p & []q |- <>(p & q) v r", ()),
    ("[](p & q) & s |- []p v r", ()),
)


AXIOM_SETS = [()] + [AXIOMS[tag] for tag in sorted(AXIOMS)]


class TestVectorScreen:
    """The packed screen against the scalar oracle: the literal loop of
    `algebra_validates` over the screen algebras."""

    def test_verdicts_match_algebra_validates(self):
        corpus = seeded_pairs(random.Random(4242), 150)
        for gamma in AXIOM_SETS:
            screens = _screening_algebras(tuple(gamma))
            search = ProofSearch(gamma, (), screens=screens)
            screen = PackedScreen(_screen_tables(screens), resolve_budget())
            firsts = []
            for pair in corpus:
                first = literal_screen(screens, [pair])
                assert first_refuting(screen, pair) == first, str(pair)
                assert screened_out(search, pair) == (first is not None), str(pair)
                firsts.append(first)
            assert None in firsts and len(set(firsts)) > 2
            assert search.screen_calls == len(corpus)
            assert search.screen_rejects == sum(f is not None for f in firsts)
            assert search.vector_entries > 0

    @pytest.mark.parametrize(
        "tags",
        [()] + [(tag,) for tag in AXIOM_TAGS] + [("T", "4")],
        ids=lambda tags: "+".join(tags) or "none",
    )
    def test_screening_sets_are_modal(self, tags):
        """The screen takes modal lattices only; every set the search
        builds is one."""
        screens = _screening_algebras(gamma_pairs(tags))
        assert screens and all(isinstance(a, FiniteModalLattice) for a in screens)

    def test_plain_lattice_screen_is_refused(self, chain3, chain3_modal):
        with pytest.raises(PreconditionViolated, match="plain lattice"):
            ProofSearch((), (), screens=(chain3,))
        with pytest.raises(PreconditionViolated, match="screen 1 is a plain"):
            PackedScreen(ScreenTables((chain3_modal, chain3)), resolve_budget())
        search = ProofSearch((), (), screens=(chain3_modal,))
        assert screened_out(search, parse_pair("[]p |- p")) is False
        assert screened_out(search, parse_pair("p v q |- p")) is True

    def test_pair_codes_fit_in_a_byte(self, chain3_modal):
        """A set whose sum of n**2 passes 256 is refused, as an algebra
        of more than 16 elements is; at 256 it is one table."""
        screens = _screening_algebras(()) + _screening_algebras(AXIOMS["B"])
        assert sum(a.n**2 for a in screens) == 272
        with pytest.raises(PreconditionViolated, match="sum of n\\*\\*2 of 272"):
            ScreenTables(screens)
        with pytest.raises(PreconditionViolated, match="272"):
            ProofSearch((), (), screens=screens)
        search = ProofSearch((), (), screens=screens[:-1] + (chain3_modal,))
        assert screened_out(search, parse_pair("p v q |- p")) is True

    def test_sixteen_elements_at_most(self):
        chain16 = with_identity_modalities(validate_lattice(chain_leq(16), 0, 15))
        chain17 = with_identity_modalities(validate_lattice(chain_leq(17), 0, 16))
        search = ProofSearch((), (), screens=(chain16,))
        assert screened_out(search, parse_pair("p v q |- p")) is True
        with pytest.raises(PreconditionViolated, match="17 elements"):
            ProofSearch((), (), screens=(chain16, chain17))

    @pytest.mark.parametrize("budget", [8, 9, 26, 27, 64, 124, 125])
    def test_budget_cuts_the_set_mid_way(self, budget, monkeypatch):
        """Under budgets that cut a screening set part way through for
        some letter counts, the packed screen refutes where the literal
        loop over the algebras within budget does, and raises nothing:
        one goal as the proof search screens it, two as the candidate
        screen does (left first at each algebra)."""
        monkeypatch.setenv("WPML_BUDGET", str(budget))
        rng = random.Random(budget)
        pairs = seeded_pairs(rng, 40)
        wide = seeded_pairs(rng, 10, max_letters=4)
        # valid, so no screen refutes them before the budget cuts in
        wide += [parse_pair("p & q & r & s |- s v t"), parse_pair("[]p & q |- []p v r")]
        kinds, candidate_kinds = set(), set()
        # whether the budget cut the set short for a pair or a goal
        cut, candidate_cut = set(), set()
        for gamma in (AXIOMS["B"], AXIOMS["5"], ()):
            screens = _screening_algebras(gamma)
            search = ProofSearch(gamma, (), screens=screens)
            scalar = ScalarScreenSearch(gamma, (), screens=screens)
            for pair in pairs:
                want = outcome(lambda: screened_out(scalar, pair))
                assert outcome(lambda: screened_out(search, pair)) == want, str(pair)
                kinds.add(want[0])
                cut.add(len(within_budget(screens, pair)) < len(screens))
            assert (search.screen_calls, search.screen_rejects) == (
                scalar.screen_calls,
                scalar.screen_rejects,
            )
            for left, right in zip(pairs + wide, wide + pairs):
                goals = [left, right]
                want = outcome(lambda: literal_screen(screens, goals))
                got = outcome(lambda: packed_screen(screens, goals))
                assert got == want, (str(left), str(right))
                candidate_kinds.add(want[0])
                candidate_cut.update(
                    len(within_budget(screens, g)) < len(screens) for g in goals
                )
        assert kinds == candidate_kinds == {"returns"}
        # the largest screen has 5 elements: 5**3 == 125
        assert cut == ({False, True} if budget < 125 else {False})
        assert candidate_cut == {False, True}

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
        _assert_same_search(fast, slow)
        _assert_same_search(fast, formula_keyed)

    def test_small_wpml_budget_keeps_the_proof(self, monkeypatch):
        """A budget of 10 is below 3**3, so the three-element screens are
        skipped for a subgoal over p, q and r, and the search finds the
        proof it finds at the default budget."""
        goal = parse_pair("p & q |- p v r")
        proof = derive_bounded((), goal, 6)
        assert proof is not None
        monkeypatch.setenv("WPML_BUDGET", "10")
        assert derive_bounded((), goal, 6) == proof
        slow = ScalarScreenSearch((), order_cuts(goal, cut_pool(goal)))
        assert slow.prove(goal, 6) == proof

    def test_small_wpml_budget_keeps_the_verdict(self, monkeypatch):
        """At WPML_BUDGET=7 the empty axiom set's screens stop at its first
        three-element lattice for a subgoal over two letters (3**2 > 7);
        the two-element ones before it still screen, and the verdict is
        the default budget's."""
        monkeypatch.setenv("WPML_BUDGET", "7")
        result = decide_entailment((), parse_pair("p & q |- p"))
        assert result.verdict == "derivable"


class RefutesScreenSearch(ProofSearch):
    """Reference search: screens each pair through `PackedScreen.refutes`
    on its sorted letters, as the search did before its per-mask slots,
    so that it builds the same packed vectors."""

    def _screened_out(self, key):
        if key in self._screen_ok:
            return False
        pair = _pair_of(self, key)
        ls = tuple(sorted(letters(pair)))
        if len(ls) > 3:
            self._screen_ok.add(key)
            return False
        self.screen_calls += 1
        if self._screen.refutes(((pair.lhs, pair.rhs, ls),)):
            self.screen_rejects += 1
            return True
        self._screen_ok.add(key)
        return False


def mask_shape_pairs(rng, count):
    """Pairs drawn from one bank of formulas over p, q, r, s, so that many
    share a side, with letters first met part way through; some repeat."""
    bank = [TOP, BOT]
    for k in (1, 2, 3):
        for names in combinations("pqrs", k):
            bank += [random_formula(rng, names, 3) for _ in range(2)]
    first = bank[:6]  # T, F and formulas over p alone or q alone
    pairs = [ConsequencePair(rng.choice(first), rng.choice(first)) for _ in range(10)]
    pairs += map(parse_pair, MASK_SHAPES)
    pairs += [ConsequencePair(rng.choice(bank), rng.choice(bank)) for _ in range(count)]
    return pairs + pairs[::7]


# one pair of each (letters in all, sides share a letter) shape
MASK_SHAPES = (
    "T |- F",
    "p |- T",
    "p |- <>p",
    "p |- q",
    "p & q |- q",
    "p & q |- []r",
    "p & q |- q v r",
    "p v q |- r & s",
    "[]p & q |- <>(q v r) v s",
)


def mask_shape(pair):
    """(letters in all, whether both sides have letters and share one)."""
    left, right = letters(pair.lhs), letters(pair.rhs)
    return len(left | right), bool(left & right)


def mask_slot_sets():
    """Each `_screening_algebras` set, and B's set with the two-element
    chain at index 1, before the cut of three letters under every budget
    the test sets."""
    chain2 = with_identity_modalities(validate_lattice(chain_leq(2), 0, 1))
    b = _screening_algebras(AXIOMS["B"])
    sets = [_screening_algebras(tuple(gamma)) for gamma in AXIOM_SETS]
    return sets + [b[:1] + (chain2,) + b[1:]]


class TestMaskSlotScreen:
    """The search's screen on per-mask slots and integer halves, warm in
    one search over many pairs and goals, against the scalar reference
    (`ScalarScreenSearch`) and the search that screens through
    `PackedScreen.refutes` (`RefutesScreenSearch`)."""

    @pytest.mark.parametrize("budget", [26, 27, 124, 125])
    def test_matches_scalar_screen_on_every_mask_shape(self, budget, monkeypatch):
        monkeypatch.setenv("WPML_BUDGET", str(budget))
        pairs = mask_shape_pairs(random.Random(budget), 150)
        shapes = set(map(mask_shape, pairs))
        every = {(n, shared) for n in (1, 2, 3, 4) for shared in (False, True)}
        assert shapes >= every | {(0, False)}
        goals = [parse_pair(text) for text, _ in GOLDEN_SAMPLE]
        goals += [parse_pair("p & q |- q v r"), parse_pair("p v q |- p")]
        cuts = order_cuts(goals[0], cut_pool(goals[0]))
        kinds = set()
        for screens in mask_slot_sets():
            fast, slow, packed = (
                cls((), cuts, screens=screens)
                for cls in (ProofSearch, ScalarScreenSearch, RefutesScreenSearch)
            )
            for pair in pairs:
                want = outcome(lambda: screened_out(slow, pair))
                assert outcome(lambda: screened_out(fast, pair)) == want, str(pair)
                assert outcome(lambda: screened_out(packed, pair)) == want
                kinds.add(want[1])
            for goal in goals:
                want = outcome(lambda: slow.prove(goal, 3))
                assert outcome(lambda: fast.prove(goal, 3)) == want, str(goal)
                assert outcome(lambda: packed.prove(goal, 3)) == want
            for search in (slow, packed):
                assert (fast.screen_calls, fast.screen_rejects) == (
                    search.screen_calls,
                    search.screen_rejects,
                )
            assert fast.expansions == slow.expansions
            assert fast.vector_entries == packed.vector_entries > 0
        assert kinds == {True, False}


class LegRecordingSearch(ProofSearch):
    """Counts the transitivity legs that enter `_prove` (its caller is in
    the cut loop, where `cut` is bound), and those of them whose memo
    entry decides them: a success, or a failure at that depth or deeper."""

    legs = decided_legs = 0

    def _prove(self, l, r, depth):
        if "cut" in sys._getframe(1).f_locals:
            key = l << _SHIFT | r
            self.legs += 1
            self.decided_legs += (
                key in self.success or self.failed_at.get(key, -1) >= depth
            )
        return super()._prove(l, r, depth)


def assert_live_cuts_exact(search):
    """Each left id's live cuts are the pool cuts other than itself whose
    first leg is a success, at their pool positions; every other one
    failed at the depth the list was made for, or deeper."""
    pool = search._pool_ids
    assert search._live
    for left, (dmax, cuts, positions) in search._live.items():
        assert positions == sorted(set(positions))
        assert cuts == [pool[at] for at in positions]
        for at, cut in enumerate(pool):
            key = left << _SHIFT | cut
            if at in positions:
                assert cut != left and key in search.success
            elif cut != left:
                assert key not in search.success
                assert search.failed_at.get(key, -1) >= dmax


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
        assert_live_cuts_exact(fast)
        # a goal whose sides are not pool formulas
        goal = parse_pair("[](p & q) & s |- <>(p v s) v []r")
        assert fast.prove(goal, 4) == slow.prove(goal, 4)
        _assert_same_search(fast, slow)
        assert_live_cuts_exact(fast)

    def test_duplicated_pool_formula(self):
        goal = parse_pair("[](p & q) & s |- []p v r")
        cuts = order_cuts(goal, cut_pool(goal))
        pool = cuts[:5] + cuts[3:4] + cuts[5:] + cuts[:1]
        fast, slow = ProofSearch((), pool), FormulaKeyedSearch((), pool)
        proof = fast.prove(goal, 6)
        assert proof is not None and proof == slow.prove(goal, 6)
        _assert_same_search(fast, slow)
        assert_live_cuts_exact(fast)

    def test_first_leg_revived_after_a_deeper_success(self):
        """A first leg that failed at depth 1 when its left id's live cuts
        were listed, and succeeds at depth 2 later, is put back at its pool
        position, and the next loop at depth 1 reuses it, as the full
        pool loop of the formula-keyed search does."""
        p_and_q, q_and_p = parse_formula("p & q"), parse_formula("q & p")
        pool = (*map(Letter, "pq"), q_and_p, Letter("r"), Letter("s"))
        fast, slow = ProofSearch((), pool), FormulaKeyedSearch((), pool)
        left, cut = fast._id(p_and_q), fast._id(q_and_p)
        steps = [
            (parse_formula("q & p v r"), 2, None),
            (q_and_p, 2, "right-conjunction"),
            (parse_formula("q & p v s"), 2, "transitivity"),
        ]
        live = []
        for right, depth, rule in steps:
            pair = ConsequencePair(p_and_q, right)
            proof = fast.prove(pair, depth)
            assert proof == slow.prove(pair, depth) and (proof and proof.rule) == rule
            _assert_same_search(fast, slow)
            assert_live_cuts_exact(fast)
            live.append(cut in fast._live[left][1])
        assert live == [False, True, True]
        assert proof.premises[0].conclusion.rhs == q_and_p

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

    @pytest.mark.parametrize("text,tags", GOLDEN_SAMPLE)
    def test_cut_legs_the_memo_decides_are_not_entered(self, text, tags):
        """The cut loop probes each leg's memo entry inline, by the rule of
        `_prove`'s prologue, so no leg the memo decides enters `_prove`,
        and the search is the formula-keyed one."""
        gamma = gamma_pairs(tags)
        goal = parse_pair(text)
        cuts = order_cuts(goal, cut_pool(goal, gamma))
        fast, slow = LegRecordingSearch(gamma, cuts), FormulaKeyedSearch(gamma, cuts)
        assert fast.prove(goal, 6) == slow.prove(goal, 6)
        _assert_same_search(fast, slow)
        assert fast.legs > 0 and fast.decided_legs == 0


def literal_leaf(gamma, pair):
    """The leaf check before the shape dispatch: every premise-less rule
    in order, then every axiom member."""
    for rule in (
        "reflexivity",
        "top",
        "bottom",
        "left-conjunction",
        "right-disjunction",
        "modal-top",
        "linearity",
        "duality",
    ):
        if _axiom_matches(rule, pair) is None:
            return Proof(rule, pair)
    for member in gamma:
        subst = match_pair(member, pair)
        if subst is not None:
            return Proof("axiom", pair, (), tuple(sorted(subst.items())))
    return None


def leaf_pairs(rng, count):
    """Seeded random pairs, each next to pairs built to match one
    premise-less rule and an instance of every axiom member."""
    members = [m for tag in sorted(AXIOMS) for m in AXIOMS[tag]]
    out = []
    for _ in range(count):
        a, b, c = (random_formula(rng, ("p", "q", "r"), 2) for _ in range(3))
        member = rng.choice(members)
        out += [
            ConsequencePair(a, b),
            ConsequencePair(a, a),
            ConsequencePair(a, TOP),
            ConsequencePair(BOT, b),
            ConsequencePair(And(a, b), rng.choice((a, b, c))),
            ConsequencePair(rng.choice((a, b, c)), Or(a, b)),
            ConsequencePair(TOP, rng.choice((Box(TOP), Dia(TOP), Box(a)))),
            ConsequencePair(And(Box(a), Box(b)), Box(And(a, rng.choice((b, c))))),
            ConsequencePair(And(Dia(a), Box(b)), Dia(And(a, rng.choice((b, c))))),
            ConsequencePair(substitute(member.lhs, {"p": a}), member.rhs),
            ConsequencePair(
                substitute(member.lhs, {"p": a}), substitute(member.rhs, {"p": a})
            ),
        ]
    return out


class TestLeafDispatch:
    @pytest.mark.parametrize("tags", [(), ("T",), ("4",), ("B",), ("5",), (".2",)])
    def test_matches_the_literal_loop(self, tags):
        gamma = gamma_pairs(tags)
        search = ProofSearch(gamma, ())
        rules = set()
        for pair in leaf_pairs(random.Random(7), 150):
            got = search._leaf(pair)
            assert got == literal_leaf(gamma, pair), str(pair)
            rules.add(got and got.rule)
        assert rules >= {
            None,
            "reflexivity",
            "top",
            "bottom",
            "left-conjunction",
            "right-disjunction",
            "modal-top",
            "linearity",
            "duality",
        }
        assert ("axiom" in rules) == bool(tags)

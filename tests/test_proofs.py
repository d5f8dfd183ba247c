import hashlib
import random
import sys
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from wpml import proofs
from wpml.catalog import (
    all_lattices,
    all_modal_lattices,
    validating_structures,
)
from wpml.correspondence import AXIOM_TAGS, AXIOMS
from wpml.entailment import decide_entailment, gamma_pairs
from wpml.errors import (
    InternalInconsistency,
    PreconditionViolated,
    ResourceBound,
    SizeCap,
)
from wpml.formulas import (
    BOT,
    MAX_HEIGHT,
    TOP,
    And,
    Box,
    ConsequencePair,
    Dia,
    Letter,
    Or,
    formula_key,
    is_modality_free,
    letters,
    match_pair,
    parse_formula,
    parse_pair,
    subformulas,
    substitute,
)
from wpml.generators import sample_modal_lattice, sample_modal_lframe
from wpml.interpolation import DISTRIBUTIVITY, InterpolationProblem, craig_interpolant
from wpml.lattice import (
    FiniteModalLattice,
    algebra_validates,
    validate_lattice,
    with_identity_modalities,
)
from wpml.lframe import fil_f, frame_validates
from wpml.proofs import (
    _DISTRIBUTION_LAWS,
    _SHIFT,
    MAX_PROOF_DEPTH,
    BadNode,
    Proof,
    ProofSearch,
    SearchSetup,
    _axiom_matches,
    _rule_matches,
    _screen_tables,
    _screening_algebras,
    _screening_candidates,
    check_proof,
    cut_pool,
    derivable,
    derive_bounded,
)
from wpml.serialize import proof_from_json, proof_to_json
from wpml.vectors import PackedScreen, ScreenTables
from wpml.whitman import free_lattice_leq

from conftest import (
    all_modal_lframes,
    chain_leq,
    literal_cut_pool,
    literal_derive_bounded,
    order_cuts,
    random_formula,
    random_pairs,
)


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
        # more than three letters, so the semantic screen stands aside, and
        # a box, so Whitman's root check does too
        with pytest.raises(ResourceBound):
            derive_bounded(
                (), parse_pair("[]a1 & a2 & a3 & a4 |- b1 v b2"), 30, budget=3
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
CUT_POOLS_SHA256 = "9b3aa0300ab69c2e9aad012b9768fe28f97954662b38b88cbecc2a3a926d26e3"


class TestCutPool:
    def test_contains_goal_subformulas_constants_and_modal_closure(self):
        goal = parse_pair("p & q |- r")
        pool = set(cut_pool(goal))
        for text in ("p", "q", "r", "p & q", "T", "F", "[]p", "<>r", "[]T"):
            from wpml.formulas import parse_formula

            assert parse_formula(text) in pool

    def test_gamma_instances_included(self):
        goal = parse_pair("[]p |- <>p")
        pool = set(cut_pool(goal, SearchSetup(AXIOMS["T"])))
        from wpml.formulas import parse_formula

        # T instantiated at []p contributes [][]p via subformulas+closure
        assert parse_formula("[][]p") in pool

    def test_pools_and_cut_orders_are_pinned(self):
        """`cut_pool` and `order_cuts` on the golden sample under every
        axiom set and two cap settings, as recorded before they computed
        each sort key once per call: each pool's formulas sorted by
        `formula_key`, then their search order.  `cut_pool` returns its
        pool in that search order, which `order_cuts` keeps."""
        digest = hashlib.sha256()
        for text, _ in GOLDEN_SAMPLE:
            goal = parse_pair(text)
            for gamma in AXIOM_SETS:
                for caps in ({}, {"instance_cap": 5, "pool_cap": 40}):
                    pool = cut_pool(goal, SearchSetup(gamma, **caps))
                    assert order_cuts(goal, pool) == pool
                    by_key = tuple(sorted(pool, key=formula_key))
                    digest.update(repr((by_key, order_cuts(goal, by_key))).encode())
        assert digest.hexdigest() == CUT_POOLS_SHA256

    def test_cap_keeps_the_goal_subformulas(self):
        """Under the distributive law the instances crowd the pool past
        `pool_cap`; the cap truncates after the goal's subformulas are put
        first, so the conjunctions of the left side stay, and the pair
        gets the proof of height 4 it gets with no axioms."""
        goal = parse_pair("a & b & c & d & e |- a")
        pool = cut_pool(goal, SearchSetup(DISTRIBUTIVITY))
        subs = subformulas(goal.lhs) | subformulas(goal.rhs)
        assert len(pool) == 512 and subs <= set(pool)
        assert set(pool[: len(subs)]) == subs
        assert pool == literal_cut_pool(goal, DISTRIBUTIVITY)
        proof = derive_bounded(DISTRIBUTIVITY, goal, 8)
        assert proof is not None and proof.height() == 4
        assert check_proof(proof, DISTRIBUTIVITY) is None
        assert derive_bounded((), goal, 8).height() == 4


# (name, gamma, caps) of `TestSearchSetup`: each axiom set and the
# duplicated T at the default caps and at caps that truncate both the
# instance grids and the pool, and distributivity at its fragment's caps
SETUP_SETTINGS = [
    (name, gamma_pairs(tags), caps)
    for name, tags in (
        ("none", ()),
        ("T", ("T",)),
        ("4", ("4",)),
        ("B", ("B",)),
        ("5", ("5",)),
        (".2", (".2",)),
        ("T+4", ("T", "4")),
        ("T,T", ("T", "T")),
    )
    for caps in ((256, 512), (5, 40))
] + [("distributivity", DISTRIBUTIVITY, (64, 128))]


class TestSearchSetup:
    """`cut_pool` takes its axiom set and caps from a `SearchSetup` and
    builds its instances and closure from the set-up's memos: with a
    fresh set-up on each call and with one set-up shared by all the goals
    of an axiom set and cap setting, it returns the pool of the literal
    build, which substitutes every instance in full."""

    @pytest.mark.parametrize(
        "name, gamma, caps",
        SETUP_SETTINGS,
        ids=[f"{name}-{caps[0]}-{caps[1]}" for name, _, caps in SETUP_SETTINGS],
    )
    def test_fresh_and_shared_setups_give_the_literal_pool(self, name, gamma, caps):
        rng = random.Random(f"setup:{name}")
        goals = random_pairs(rng, 10) + [parse_pair(text) for text, _ in GOLDEN_SAMPLE]
        shared = SearchSetup(gamma, *caps)
        truncated = set()
        for goal in goals:
            want = literal_cut_pool(goal, gamma, *caps)
            if not gamma and caps == (256, 512):
                assert cut_pool(goal) == want, str(goal)
            assert cut_pool(goal, SearchSetup(gamma, *caps)) == want, str(goal)
            assert cut_pool(goal, shared) == want, str(goal)
            ground = len({TOP, BOT} | subformulas(goal.lhs) | subformulas(goal.rhs))
            if any(ground ** len(letters(m)) > caps[0] for m in gamma):
                truncated.add("instances")
            if len(literal_cut_pool(goal, gamma)) > caps[1]:
                truncated.add("pool")
        if caps == (5, 40):
            assert truncated == ({"instances", "pool"} if gamma else {"pool"})

    def test_the_caps_reach_the_pool(self):
        """The set-up's caps are the pool's: under the distributive law
        the instances crowd the pool past 128 formulas, and at caps (64,
        128) it is the literal build's 128."""
        goal = parse_pair("a & b & c & d & e |- a")
        pool = cut_pool(goal, SearchSetup(DISTRIBUTIVITY, 64, 128))
        assert len(pool) == 128
        assert pool == literal_cut_pool(goal, DISTRIBUTIVITY, 64, 128)

    @pytest.mark.parametrize("caps", [(-1, 512), (256, -1), (256, -3), (-2, -2)])
    def test_a_negative_cap_is_refused(self, caps):
        """A negative cap would slice the pool from its end, so that
        `pool_cap` -1 kept all but the last formula: it is refused."""
        with pytest.raises(PreconditionViolated, match="negative cap"):
            SearchSetup((), *caps)

    def test_a_zero_cap_is_valid(self):
        """Caps of 0 keep no axiom instance and no cut formula: with no
        cut, `p & q |- q v r` has no proof, which the full pool gives."""
        goal = parse_pair("p & q |- q v r")
        gamma = AXIOMS["T"]
        assert cut_pool(goal, SearchSetup(gamma, 0, 512)) == literal_cut_pool(goal)
        assert literal_cut_pool(goal) != cut_pool(goal, SearchSetup(gamma))
        assert cut_pool(goal, SearchSetup((), 256, 0)) == ()
        assert derive_bounded((), goal, 6, setup=SearchSetup((), 256, 0)) is None
        assert derive_bounded((), goal, 6) is not None

    def test_a_setup_over_another_axiom_set_is_refused(self):
        goal = parse_pair("[]p |- p")
        setup = SearchSetup(AXIOMS["T"])
        with pytest.raises(PreconditionViolated, match="another axiom set"):
            derive_bounded((), goal, 3, setup=setup)
        assert derive_bounded(AXIOMS["T"], goal, 3, setup=setup) is not None


def small_formulas(names):
    """Formulas over `names`, T and F of at most four leaves."""
    leaves = st.sampled_from([*map(Letter, names), TOP, BOT])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(And, kids, kids),
            st.builds(Or, kids, kids),
            st.builds(Box, kids),
            st.builds(Dia, kids),
        ),
        max_leaves=4,
    )


@settings(max_examples=100, deadline=None)
@given(
    phi=small_formulas("pq"),
    psi=small_formulas("pr"),
    tags=st.sampled_from([(), ("T",), ("4",), ("B",), ("5",), (".2",)]),
    depth=st.integers(1, 5),
)
@example(
    phi=parse_formula("[](p & p) & q"), psi=parse_formula("<>p"), tags=("4",), depth=4
)
def test_returned_proofs_are_checked_and_within_the_depth(phi, psi, tags, depth):
    """Every proof that `derive_bounded`, `decide_entailment` or
    `craig_interpolant` returns passes `check_proof` and is no taller
    than the proof depth it was searched at.  The explicit example got a
    proof of height 6 at depth 4 while the memo reused a success at any
    depth."""
    gamma = gamma_pairs(tags)
    pair = ConsequencePair(phi, psi)
    entailment = decide_entailment(tags, pair, proof_depth=depth, model_size=2)
    problem = InterpolationProblem(phi, psi, tags, proof_depth=depth, model_size=2)
    interpolation = craig_interpolant(problem)
    found = [
        derive_bounded(gamma, pair, depth),
        entailment.proof,
        interpolation.proof_left,
        interpolation.proof_right,
    ]
    for proof in filter(None, found):
        assert proof.height() <= depth
        assert check_proof(proof, gamma) is None


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
    """Reference search: screens each pair of at most three letters
    through the scalar `algebra_validates` oracle on every screen of its
    set-up, and counts screen calls and rejects as the packed screen
    does."""

    def __init__(self, setup, *args, **kwargs):
        super().__init__(setup, *args, **kwargs)
        self.screens = setup.screens

    def _screened_out(self, key):
        if key in self._screen_ok:
            return False
        pair = _pair_of(self, key)
        if len(letters(pair)) > 3:
            self._screen_ok.add(key)
            return False
        self.screen_calls += 1
        for a in self.screens:
            # 16**3: the most positions a screen over three letters has,
            # so WPML_BUDGET does not reach the oracle either
            if algebra_validates(a, pair, 16**3) is not None:
                self.screen_rejects += 1
                return True
        self._screen_ok.add(key)
        return False


def screened(gamma, screens):
    """A set-up over gamma whose screen is built over `screens` instead
    of the axiom set's screening set."""
    setup = SearchSetup(gamma)
    setup.screens = tuple(screens)
    return setup


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
    goal of at most three letters tried on every algebra and a wider one
    on none: the index of the first refuting algebra, or None."""
    kept = [goal for goal in goals if len(letters(goal)) <= 3]
    for s, a in enumerate(algebras):
        for goal in kept:
            # 16**3 bounds a three-letter goal, as in `ScalarScreenSearch`
            if algebra_validates(a, goal, 16**3) is not None:
                return s
    return None


def first_refuting(screen, pair):
    """The index of the first screen that refutes the pair, read off the
    escape position of its packed vectors and the screen sizes; None if
    none does or the pair has more than three letters."""
    ls = tuple(sorted(letters(pair)))
    memo = screen.stretch(ls)
    if memo is None:
        return None
    tables = screen.tables
    pos = tables.escape(tables.vector(memo, pair.lhs), tables.vector(memo, pair.rhs))
    if pos < 0:
        return None
    return bisect_right(list(accumulate(n ** len(ls) for n in tables.sizes)), pos)


def packed_screen(algebras, goals):
    """The packed screen's decision, given as `literal_screen` gives it."""
    screen = PackedScreen(ScreenTables(algebras))
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
        pool = cut_pool(parse_pair(text), SearchSetup(gamma_pairs(tags)))
        target = len(corpus) + count
        while len(corpus) < target:
            pair = ConsequencePair(rng.choice(pool), rng.choice(pool))
            if len(letters(pair)) <= max_letters:
                corpus[pair] = None
    return list(corpus)


class FormulaKeyedSearch(ProofSearch):
    """Reference search: the formula-keyed `prove` that the id-keyed one
    replaced, with memo tables keyed by `ConsequencePair`.  A success is
    reused only if its recursive `Proof.height()` is within the depth,
    and a proof with premises takes them from the memo once its rule is
    complete, as the id-keyed search does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.success = {}
        self.failed_at = {}

    def prove(self, pair, depth):
        found = self.success.get(pair)
        if found is not None and found.height() <= depth:
            return found
        if depth <= 0 or self.failed_at.get(pair, -1) >= depth:
            return None
        self.expansions += 1
        if self.expansions > self.budget:
            raise ResourceBound(self.expansions, self.budget)
        if screened_out(self, pair):
            self.failed_at[pair] = 10**9
            return None
        found = self._leaf(pair)
        if found is None and depth < 2:
            self.failed_at[pair] = depth
            return None
        if found is None:
            step = self.premises(pair, depth - 1)
            if step is not None:
                rule, legs = step
                found = Proof(rule, pair, tuple(self.success[leg] for leg in legs))
        if found is not None:
            self.success[pair] = found
        else:
            self.failed_at[pair] = depth
        return found

    def premises(self, pair, depth):
        """The first rule with premises whose premises all succeed at
        `depth`, with the premises; None if none."""
        lhs, rhs = pair.lhs, pair.rhs
        steps = []
        if isinstance(rhs, And):
            steps.append(("right-conjunction", [(lhs, rhs.lhs), (lhs, rhs.rhs)]))
        if isinstance(lhs, Or):
            steps.append(("left-disjunction", [(lhs.lhs, rhs), (lhs.rhs, rhs)]))
        for kind, rule in ((Box, "becker-box"), (Dia, "becker-dia")):
            if isinstance(lhs, kind) and isinstance(rhs, kind):
                steps.append((rule, [(lhs.arg, rhs.arg)]))
        for cut in self.pool:
            if cut != lhs and cut != rhs:
                steps.append(("transitivity", [(lhs, cut), (cut, rhs)]))
        for rule, sides in steps:
            legs = tuple(ConsequencePair(*leg) for leg in sides)
            if all(self.prove(leg, depth) is not None for leg in legs):
                return rule, legs
        return None


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
    # the stored heights are the proofs' recursive heights
    assert fast.height.keys() == fast.success.keys()
    assert {k: p.height() for k, p in fast.success.items()} == fast.height


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
            search = ProofSearch(SearchSetup(gamma), ())
            screen = PackedScreen(_screen_tables(screens))
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
            ProofSearch(screened((), (chain3,)), ())
        with pytest.raises(PreconditionViolated, match="screen 1 is a plain"):
            PackedScreen(ScreenTables((chain3_modal, chain3)))
        search = ProofSearch(screened((), (chain3_modal,)), ())
        assert screened_out(search, parse_pair("[]p |- p")) is False
        assert screened_out(search, parse_pair("p v q |- p")) is True

    def test_pair_codes_fit_in_a_byte(self):
        """A set whose sum of n**2 passes 256 is refused, as an algebra
        of more than 16 elements is; at 256 it is one table."""
        chain4 = with_identity_modalities(validate_lattice(chain_leq(4), 0, 3))
        screens = (chain4,) * 17
        assert sum(a.n**2 for a in screens) == 272
        with pytest.raises(PreconditionViolated, match="sum of n\\*\\*2 of 272"):
            ScreenTables(screens)
        with pytest.raises(PreconditionViolated, match="272"):
            ProofSearch(screened((), screens), ())
        setup = screened((), screens[:-1])
        search = ProofSearch(setup, ())
        assert sum(a.n**2 for a in setup.screens) == 256
        assert screened_out(search, parse_pair("p v q |- p")) is True

    def test_sixteen_elements_at_most(self):
        chain16 = with_identity_modalities(validate_lattice(chain_leq(16), 0, 15))
        chain17 = with_identity_modalities(validate_lattice(chain_leq(17), 0, 16))
        search = ProofSearch(screened((), (chain16,)), ())
        assert screened_out(search, parse_pair("p v q |- p")) is True
        with pytest.raises(PreconditionViolated, match="17 elements"):
            ProofSearch(screened((), (chain16, chain17)), ())

    @pytest.mark.parametrize("budget", [8, 9, 26, 27, 64, 124, 125])
    def test_budget_cuts_the_set_mid_way(self, budget, monkeypatch):
        """Budgets that would cut a screening set part way through for
        some letter counts (the largest screen has 5 elements: 5**3 ==
        125) do not reach the screens. The packed screen refutes where
        the budget-free literal loop does, at the same first algebra, and
        raises nothing: one goal as the proof search screens it, two as
        the candidate screen does (left first at each algebra, wide goals
        skipped as the proof search skips a wide pair)."""
        monkeypatch.setenv("WPML_BUDGET", str(budget))
        rng = random.Random(budget)
        pairs = seeded_pairs(rng, 40)
        wide = seeded_pairs(rng, 10, max_letters=4)
        # over four and five letters: no screen takes them, refuted or not
        wide += [parse_pair("p & q & r & s |- F"), parse_pair("[]p & q |- []r v s v t")]
        assert max(len(letters(pair)) for pair in wide) == 5
        kinds, firsts = set(), set()
        for gamma in (AXIOMS["B"], AXIOMS["5"], ()):
            screens = _screening_algebras(gamma)
            search = ProofSearch(SearchSetup(gamma), ())
            scalar = ScalarScreenSearch(SearchSetup(gamma), ())
            for pair in pairs:
                want = outcome(lambda: screened_out(scalar, pair))
                assert outcome(lambda: screened_out(search, pair)) == want, str(pair)
                kinds.add(want[0])
            assert (search.screen_calls, search.screen_rejects) == (
                scalar.screen_calls,
                scalar.screen_rejects,
            )
            for left, right in zip(pairs + wide, wide + pairs):
                goals = [left, right]
                want = outcome(lambda: literal_screen(screens, goals))
                got = outcome(lambda: packed_screen(screens, goals))
                assert got == want, (str(left), str(right))
                kinds.add(want[0])
                firsts.add(want[1])
        assert kinds == {"returns"}
        assert None in firsts and len(firsts) > 2

    @pytest.mark.parametrize(
        "text,tags,depth",
        [(text, tags, 6) for text, tags in GOLDEN_SAMPLE] + [("p |- []p", (), 4)],
    )
    def test_search_matches_scalar_screen_reference(self, text, tags, depth):
        gamma = gamma_pairs(tags)
        goal = parse_pair(text)
        cuts = order_cuts(goal, cut_pool(goal, SearchSetup(gamma)))
        fast = ProofSearch(SearchSetup(gamma), cuts)
        slow = ScalarScreenSearch(SearchSetup(gamma), cuts)
        formula_keyed = FormulaKeyedSearch(SearchSetup(gamma), cuts)
        proof = fast.prove(goal, depth)
        assert proof == slow.prove(goal, depth)
        assert proof == formula_keyed.prove(goal, depth)
        assert proof == derive_bounded(gamma, goal, depth)
        _assert_same_search(fast, slow)
        _assert_same_search(fast, formula_keyed)

    def test_small_wpml_budget_keeps_the_proof(self, monkeypatch):
        """The screens take no budget, so at a WPML_BUDGET of 10, below
        3**3, the search screens a subgoal over p, q and r on every
        screen and finds the proof it finds at the default budget."""
        goal = parse_pair("p & q |- p v r")
        proof = derive_bounded((), goal, 6)
        assert proof is not None
        monkeypatch.setenv("WPML_BUDGET", "10")
        assert derive_bounded((), goal, 6) == proof
        slow = ScalarScreenSearch(SearchSetup(()), order_cuts(goal, cut_pool(goal)))
        assert slow.prove(goal, 6) == proof

    def test_small_wpml_budget_keeps_the_verdict(self, monkeypatch):
        """WPML_BUDGET=7 is below 3**2, and it does not reach the screens:
        the verdict is the default budget's."""
        monkeypatch.setenv("WPML_BUDGET", "7")
        result = decide_entailment((), parse_pair("p & q |- p"))
        assert result.verdict == "derivable"


def selected_screens(gamma):
    """The screening set without the distribution-law structures, by the
    literal frame walk: the first twelve distinct candidates that
    validate gamma, among the filter algebras of the 2- and 3-point modal
    L-frames, then the 2- to 5-element lattices with identity
    modalities."""
    candidates = []
    for n in (2, 3):
        for frame in all_modal_lframes(n):
            candidates.append(fil_f(frame))
    for n in (2, 3, 4, 5):
        for lat in all_lattices(n):
            candidates.append(with_identity_modalities(lat))
    out = []
    seen = set()
    for a in candidates:
        key = (a.leq, a.box, a.diamond)
        if key in seen:
            continue
        seen.add(key)
        if all(algebra_validates(a, g) is None for g in gamma):
            out.append(a)
        if len(out) >= 12:
            break
    return tuple(out)


def is_chain(a):
    return all(a.leq[x][y] or a.leq[y][x] for x in range(a.n) for y in range(a.n))


def keys(algebras):
    """The (leq, box, diamond) of each algebra, which ignores the element
    names: the frame walk names filters by their masks, the catalog its
    elements e0, e1, ..."""
    return [(a.leq, a.box, a.diamond) for a in algebras]


# the wide gamma: a member over four letters, which no screen takes
WIDE_GAMMA = (parse_pair("p & q & r & s |- p"), parse_pair("p |- <>p"))

# the 32 subsets of the axiom tags
TAG_SUBSETS = [
    c for k in range(len(AXIOM_TAGS) + 1) for c in combinations(AXIOM_TAGS, k)
]


# each set of at most two axiom tags, and the distribution laws each
# refutes (True) or not on the modal structures of at most five elements
# that validate it; the `<>` law is derivable under B
LAW_COVERAGE = {
    (): (True, True, True),
    ("T",): (True, True, True),
    ("4",): (True, True, True),
    ("B",): (True, False, True),
    ("5",): (True, True, True),
    (".2",): (True, True, True),
    ("T", "4"): (True, True, True),
    ("T", "B"): (True, False, True),
    ("T", "5"): (True, False, True),
    ("T", ".2"): (True, True, True),
    ("4", "B"): (True, False, True),
    ("4", "5"): (True, True, True),
    ("4", ".2"): (True, True, True),
    ("B", "5"): (True, False, True),
    ("B", ".2"): (True, False, True),
    ("5", ".2"): (True, True, True),
}

# the axiom sets on which whole searches are compared, with and without
# the appended structures: none, each tag, and T+4 (each search
# comparison takes about 1.5 s)
SEARCH_TAGS = ((), ("T",), ("4",), ("B",), ("5",), (".2",), ("T", "4"))

# the distinct (pair, axiom tags) of the countermodel benchmark's templates
COUNTERMODEL_TEMPLATES = (
    ("[]p & <>q |- <>(p & q)", ("T",)),
    ("<>(p v q) |- <>p v <>q", ("T",)),
    ("p & (q v r) |- (p & q) v (p & r)", ()),
    ("(p v q) & (p v r) |- p v (q & r)", ()),
    ("(p v q) & r |- p v (q & r)", ()),
    ("(p v q) & r |- p v (q & r)", ("5",)),
    ("(p v q) & r |- p v (q & r)", ("B",)),
    ("[](p v q) |- []p v []q", ()),
    ("<>(p v q) |- <>p v <>q", ()),
    ("<>p & <>q |- <>(p & q)", ()),
    ("[](p v q) |- []p v <>q", ()),
)


@lru_cache(maxsize=None)
def law_refuters():
    """The modal structures of four and five elements, in
    `all_modal_lattices` order, and per distribution law the positions of
    those that refute it, by the scalar `algebra_validates`."""
    structures = all_modal_lattices(4) + all_modal_lattices(5)
    return structures, [
        [s for s, a in enumerate(structures) if algebra_validates(a, law) is not None]
        for law in _DISTRIBUTION_LAWS
    ]


class TestDistributionScreens:
    """The structures of at most five elements appended to the screening
    sets for the modal distribution laws, against the scalar oracle and
    the selection without them."""

    def test_chains_validate_the_laws(self):
        """Every modal lattice of at most four elements on a chain
        validates the three laws; every candidate of the selection is a
        chain or carries identity modalities."""
        chains = [a for n in (1, 2, 3, 4) for a in all_modal_lattices(n) if is_chain(a)]
        assert len(chains) == 1 + 3 + 20 + 175
        for a in chains:
            for law in _DISTRIBUTION_LAWS:
                assert algebra_validates(a, law) is None, (a.box, a.diamond, str(law))
        for a in _screening_candidates():
            identity = a.box == a.diamond == tuple(range(a.n))
            assert is_chain(a) or identity

    def test_wide_gamma_gets_no_structures(self):
        """A gamma with a member over four letters, which no screen takes,
        gets the selection alone."""
        gamma = WIDE_GAMMA
        screens, selected = _screening_algebras(gamma), selected_screens(gamma)
        assert len(screens) == len(selected)
        assert set(keys(screens)) == set(keys(selected))
        assert len(_screening_algebras(gamma[1:])) > len(selected_screens(gamma[1:]))

    @pytest.mark.parametrize(
        "gamma",
        [gamma_pairs(tags) for tags in TAG_SUBSETS] + [DISTRIBUTIVITY, WIDE_GAMMA],
        ids=["+".join(tags) or "none" for tags in TAG_SUBSETS]
        + ["distributivity", "wide"],
    )
    def test_selection_matches_the_frame_walk(self, gamma):
        """The selection read from the algebra catalog holds the structures,
        at most twelve, that the literal frame walk selects, as (leq, box,
        diamond); their order within the selection may differ, and no
        screen verdict reads it."""
        selected = selected_screens(gamma)
        got = keys(_screening_algebras(gamma)[: len(selected)])
        assert 0 < len(selected) <= 12
        assert set(got) == set(keys(selected))

    @pytest.mark.parametrize(
        "tags", list(LAW_COVERAGE), ids=lambda tags: "+".join(tags) or "none"
    )
    def test_appended_structures_are_the_first_refuters(self, tags):
        """The selection is kept as it was, and refutes no law; after it
        comes, for each law, the first structure of at most five elements
        (in `all_modal_lattices` order; every smaller one is a chain) that
        validates gamma and refutes it, each once and in that order.  A
        set refutes a law exactly when a brute-force scan finds such a
        structure."""
        gamma = gamma_pairs(tags)
        screens = _screening_algebras(gamma)
        selected = selected_screens(gamma)
        assert set(keys(screens[: len(selected)])) == set(keys(selected))
        appended = screens[len(selected) :]
        structures, refuters = law_refuters()
        assert len(structures) == 275 + 4842
        firsts, coverage = [], []
        for law, positions in zip(_DISTRIBUTION_LAWS, refuters):
            assert all(algebra_validates(a, law) is None for a in selected)
            first = next(
                (
                    s
                    for s in positions
                    if all(algebra_validates(structures[s], g) is None for g in gamma)
                ),
                None,
            )
            firsts += [] if first is None else [first]
            coverage.append(any(algebra_validates(a, law) for a in screens))
            assert coverage[-1] == (first is not None)
        assert appended == tuple(structures[s] for s in sorted(set(firsts)))
        assert tuple(coverage) == LAW_COVERAGE[tags]
        for a in appended:
            assert all(algebra_validates(a, g) is None for g in gamma)

    def test_five_elements_only_for_the_diamond_law_under_t(self):
        """The one five-element structure appended to any set of at most
        two tags is `all_modal_lattices(5)[2078]`, T's refuter of the `<>`
        law, and it goes to T, T+4 and T+.2."""
        fives = {}
        for tags in LAW_COVERAGE:
            gamma = gamma_pairs(tags)
            appended = _screening_algebras(gamma)[len(selected_screens(gamma)) :]
            fives[tags] = [a for a in appended if a.n == 5]
        assert {tags for tags, got in fives.items() if got} == {
            ("T",),
            ("T", "4"),
            ("T", ".2"),
        }
        for got in fives.values():
            assert got in ([], [all_modal_lattices(5)[2078]])

    def test_kernel_matches_algebra_validates(self):
        """`refuting_structures` on the Boolean lattice's table of
        `validating_structures`, its 100 structures, in batches of 64, 1
        and 3 structures, yields exactly the structures on which
        `algebra_validates` finds a countervaluation, in order, each with
        that function's first countervaluation."""
        (table,) = [t for t in validating_structures(4, ()) if not is_chain(t.lattice)]
        structures = [table.structure(j) for j in range(len(table))]
        assert structures == [a for a in all_modal_lattices(4) if not is_chain(a)]
        members = [m for tag in sorted(AXIOMS) for m in AXIOMS[tag]]
        pairs = [*_DISTRIBUTION_LAWS, *members, parse_pair("p |- []p")]
        pairs.append(parse_pair("<>(p & r) v q |- [](q v r) & p"))
        pairs += seeded_pairs(random.Random(2031), 12)
        widths = set()
        for pair in pairs:
            ls = tuple(sorted(letters(pair)))
            k = len(ls)
            want = {}
            for j, a in enumerate(structures):
                cv = algebra_validates(a, pair)
                if cv is not None:
                    want[j] = cv
            widths.add((k, 0 < len(want) < 100))
            for budget in (None, 10**6, 4**k, 4 * 4**k - 1):
                got = {
                    j: {name: i // 4 ** (k - 1 - t) % 4 for t, name in enumerate(ls)}
                    for j, i in table.refuting(pair, budget)
                }
                assert list(got) == sorted(got)
                assert got == want, (str(pair), budget)
        assert {(1, True), (2, True), (3, True)} <= widths

    def test_each_set_is_one_table(self):
        """Every set packs into one `ScreenTables`; B's is the largest."""
        areas, positions = {}, {}
        for tags in LAW_COVERAGE:
            screens = _screening_algebras(gamma_pairs(tags))
            tables = _screen_tables(screens)
            assert tables.sizes == tuple(a.n for a in screens)
            areas[tags] = sum(n**2 for n in tables.sizes)
            positions[tags] = sum(n**3 for n in tables.sizes)
        assert max(areas.values()) == areas[("B",)] == 195
        assert areas[("T",)] == 155 and areas[("T", "4")] == areas[("T", ".2")] == 169
        assert max(positions.values()) == positions[("B",)] == 879
        assert positions[()] == 395

    @pytest.mark.parametrize(
        "tags", SEARCH_TAGS, ids=lambda tags: "+".join(tags) or "none"
    )
    def test_same_proofs_and_never_more_expansions(self, tags):
        """On seeded pairs and the countermodel templates, a search with
        the appended structures returns the proof a search with the
        selection alone returns, and never needs more expansions."""
        gamma = gamma_pairs(tags)
        selected = selected_screens(gamma)
        goal = parse_pair(GOLDEN_SAMPLE[1][0])
        cuts = order_cuts(goal, cut_pool(goal, SearchSetup(gamma)))
        pairs = seeded_pairs(random.Random(2027), 15)
        pairs += [parse_pair(text) for text, _ in COUNTERMODEL_TEMPLATES]
        found = saved = 0
        for pair in pairs:
            fast = ProofSearch(SearchSetup(gamma), cuts)
            slow = ProofSearch(screened(gamma, selected), cuts)
            proof = fast.prove(pair, 4)
            assert proof == slow.prove(pair, 4), str(pair)
            assert fast.expansions <= slow.expansions, str(pair)
            found += proof is not None
            saved += fast.expansions < slow.expansions
        assert 0 < found < len(pairs) and saved > 0

    def test_same_entailment_results(self, monkeypatch):
        """At model size 4, `decide_entailment` gives the verdict, proof,
        frame, valuation and diagnostics that it gives with the
        selection alone on every countermodel template."""

        def results():
            return [
                decide_entailment(tags, parse_pair(text), model_size=4)
                for text, tags in COUNTERMODEL_TEMPLATES
            ]

        new = results()
        monkeypatch.setattr(proofs, "_screening_algebras", selected_screens)
        old = results()
        assert {r.verdict for r in new} == {"refuted", "unknown"}
        for a, b in zip(new, old):
            assert (a.verdict, a.proof, a.frame, a.valuation, a.diagnostics) == (
                b.verdict,
                b.proof,
                b.frame,
                b.valuation,
                b.diagnostics,
            )

    @pytest.mark.parametrize(
        "text",
        [
            "[](p v q) |- []p v []q",
            "[](p v q) |- []p v <>q",
            "<>(p v q) |- <>p v <>q",
            "<>p & <>q |- <>(p & q)",
        ],
    )
    def test_axiom_free_templates_cost_one_expansion(self, text):
        """Each axiom-free countermodel template is refuted by a screen at
        the root, where the selection alone searches to depth 6."""
        goal = parse_pair(text)
        pool = cut_pool(goal)
        search = ProofSearch(SearchSetup(()), pool)
        assert search.prove(goal, 6) is None
        assert (search.expansions, search.screen_rejects) == (1, 1)
        slow = ProofSearch(screened((), selected_screens(())), pool)
        assert slow.prove(goal, 6) is None
        assert slow.expansions > 100


ROOT_TAGS = [(), ("T",), ("4",), ("B",), ("5",), (".2",), ("T", "4")]


def root_goals(tags):
    """Seeded pairs of at most three letters and of four letters, the
    countermodel templates and the distribution laws."""
    rng = random.Random("root:" + "+".join(tags))
    goals = random_pairs(rng, 8)
    wide = random_pairs(rng, 120, depth=2, names=("p", "q", "r", "s"))
    goals += [pair for pair in wide if len(letters(pair)) == 4][:3]
    goals += [parse_pair(text) for text, _ in COUNTERMODEL_TEMPLATES]
    return goals + list(_DISTRIBUTION_LAWS)


def whitman_refutes(gamma, goal):
    """Whitman's root rule, literally: no axioms, both sides modality
    free, and the pair not derivable in the free bounded lattice."""
    lhs, rhs = goal.lhs, goal.rhs
    return (
        not gamma
        and is_modality_free(lhs)
        and is_modality_free(rhs)
        and not free_lattice_leq(lhs, rhs)
    )


# the axiom-free lattice laws of the countermodel benchmark, which no
# screen refutes and Whitman's condition does
LATTICE_LAWS = tuple(
    pair
    for pair in (parse_pair(text) for text, tags in COUNTERMODEL_TEMPLATES if not tags)
    if is_modality_free(pair.lhs) and is_modality_free(pair.rhs)
)


class TestRootScreen:
    """`derive_bounded` checks the root before it builds a cut pool or a
    search, with the outcome of the literal path, which builds both and
    lets the search's first expansion screen the root, and, at budget
    >= 1, returns None for a root that Whitman's rule refutes."""

    @pytest.mark.parametrize("tags", ROOT_TAGS, ids=lambda t: "+".join(t) or "none")
    def test_same_outcome_as_the_literal_path(self, tags):
        gamma = gamma_pairs(tags)
        goals = root_goals(tags)
        at_root = gated = 0
        for goal in goals:
            for depth, budget in product((0, 1, 6), (0, 1, 200_000)):
                got = outcome(lambda: derive_bounded(gamma, goal, depth, budget))
                if budget >= 1 and whitman_refutes(gamma, goal):
                    want = "returns", None
                    gated += 1
                else:
                    want = outcome(
                        lambda: literal_derive_bounded(gamma, goal, depth, budget)
                    )
                assert got == want, (str(goal), depth, budget)
            search = ProofSearch(SearchSetup(gamma), cut_pool(goal, SearchSetup(gamma)))
            search.prove(goal, 6)
            at_root += (search.expansions, search.screen_rejects) == (1, 1)
        assert 3 <= at_root < len(goals)
        assert (gated > 0) == (not gamma)

    def test_caller_pool_path(self, monkeypatch):
        """A caller's caps come through its set-up, as on the distributive
        fragment's obligations: one set-up at caps (64, 128) shared by all
        the goals searches the literal pool at those caps, 128 formulas of
        the 512 at the default caps, with the outcome of the literal path
        on that pool."""
        goals = [parse_pair(text) for text, _ in COUNTERMODEL_TEMPLATES[2:5]]
        goals += [parse_pair("p & (q v r) |- (p & q) v r"), parse_pair("p |- q")]
        setup = SearchSetup(DISTRIBUTIVITY, instance_cap=64, pool_cap=128)
        capped = []

        def recorded(goal, setup):
            pool = cut_pool(goal, setup)
            capped.append(pool == literal_cut_pool(goal, DISTRIBUTIVITY, 64, 128))
            return pool

        monkeypatch.setattr(proofs, "cut_pool", recorded)
        proofs_found = 0
        for goal in goals:
            pool = literal_cut_pool(goal, DISTRIBUTIVITY, instance_cap=64, pool_cap=128)
            for depth, budget in product((0, 1, 6), (0, 1, 200_000)):
                got = outcome(
                    lambda: derive_bounded(
                        DISTRIBUTIVITY, goal, depth, budget, setup=setup
                    )
                )
                want = outcome(
                    lambda: literal_derive_bounded(
                        DISTRIBUTIVITY, goal, depth, budget, pool
                    )
                )
                assert got == want, (str(goal), depth, budget)
                proofs_found += got[0] == "returns" and got[1] is not None
        assert proofs_found > 0
        assert len(capped) > len(goals) and all(capped)

    @pytest.mark.parametrize("law", _DISTRIBUTION_LAWS + LATTICE_LAWS, ids=str)
    def test_refuted_root_builds_no_pool(self, law, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built for a refuted root")

        monkeypatch.setattr(proofs, "cut_pool", refuse)
        monkeypatch.setattr(proofs, "ProofSearch", refuse)
        assert derive_bounded((), law, 6) is None
        assert derive_bounded((), law, 6, setup=SearchSetup((), 5, 40)) is None

    def test_whitman_refutes_the_lattice_laws_that_pass_the_screen(self):
        """No screen refutes the axiom-free lattice laws, so the search
        runs to exhaustion on each; Whitman's rule refutes them."""
        assert len(LATTICE_LAWS) == 3
        for law in LATTICE_LAWS:
            search = ProofSearch(SearchSetup(()), cut_pool(law))
            assert search.prove(law, 6) is None
            assert search.expansions > 100 and whitman_refutes((), law)


class TestDerivable:
    """`derivable` finds by iterative deepening a proof where
    `derive_bounded` finds one depth-first, and falls back on
    `derive_bounded` where the deepening runs out of budget."""

    @pytest.mark.parametrize("tags", ROOT_TAGS[:6], ids=lambda t: "+".join(t) or "none")
    def test_agrees_with_derive_bounded(self, tags):
        """Same outcome; the deepening's proof checks, concludes the goal
        and is no taller than the depth-first one."""
        gamma = gamma_pairs(tags)
        verdicts = set()
        for goal in random_pairs(random.Random("derivable:" + "+".join(tags)), 50):
            for depth in range(1, 7):
                try:
                    got = derivable(gamma, goal, depth, 20_000)
                    want = derive_bounded(gamma, goal, depth, 20_000)
                except ResourceBound:
                    continue
                assert (got is None) == (want is None), (str(goal), depth)
                if got is not None:
                    assert got.conclusion == goal
                    assert check_proof(got, gamma) is None
                    assert got.height() <= want.height() <= depth
                verdicts.add(got is not None)
        assert verdicts == {True, False}

    def test_budget_falls_back_on_the_depth_first_search(self, monkeypatch):
        """Depth-first, the goal takes 9,368 expansions; deepening takes
        24,314, past the budget, so the result is `derive_bounded`'s,
        found with the same axiom tuple and set-up."""
        gamma = gamma_pairs(("4",))
        goal = parse_pair("[]((p v p) & (T v T)) |- <>(q v p & p)")
        searches, calls = [], []

        class Recorded(ProofSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searches.append(self)

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return derive_bounded(*args, **kwargs)

        monkeypatch.setattr(proofs, "ProofSearch", Recorded)
        low = derivable(gamma, goal, 6, 200_000)
        assert [s.expansions for s in searches] == [24_314]
        searches.clear()
        monkeypatch.setattr(proofs, "derive_bounded", recorded)
        setup = SearchSetup(gamma)
        got = derivable(list(gamma), goal, 6, 20_000, setup=setup)
        assert [s.expansions for s in searches] == [20_001, 9_368]
        assert calls == [((gamma, goal, 6, 20_000), {"setup": setup})]
        assert got == derive_bounded(gamma, goal, 6, 200_000)
        assert low.height() <= got.height()
        # a one-shot iterable reaches the fallback whole
        searches.clear()
        assert derivable(iter(gamma), goal, 6, 20_000) == got
        assert [s.expansions for s in searches][-1] == 9_368
        with pytest.raises(ResourceBound):
            derivable(gamma, goal, 6, 9_000)

    def test_depth_bounds(self):
        goal = parse_pair("[](p & q) |- []p")
        with pytest.raises(SizeCap):
            derivable((), goal, MAX_PROOF_DEPTH + 1)
        assert all(derivable((), goal, depth) is None for depth in (-1, 0, 1))
        assert derivable((), goal, 2).height() == 2

    def test_depth_at_most_zero_builds_no_pool(self, monkeypatch):
        """A search at depth <= 0 returns None before its first expansion,
        so neither function builds a cut pool or a search for one, at any
        budget, and neither raises ResourceBound."""

        def refuse(*args, **kwargs):
            raise AssertionError("built at depth <= 0")

        monkeypatch.setattr(proofs, "cut_pool", refuse)
        monkeypatch.setattr(proofs, "ProofSearch", refuse)
        goal = parse_pair("[](p & q) |- []p")
        for depth in (0, -3):
            for budget in (0, 1, 200_000):
                assert derive_bounded((), goal, depth, budget) is None
                assert derivable((), goal, depth, budget) is None

    @pytest.mark.parametrize("law", _DISTRIBUTION_LAWS + LATTICE_LAWS, ids=str)
    def test_refuted_root_builds_no_pool(self, law, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built for a refuted root")

        monkeypatch.setattr(proofs, "cut_pool", refuse)
        monkeypatch.setattr(proofs, "ProofSearch", refuse)
        assert derivable((), law, 6) is None


def lattice_formula(rng, names, depth):
    """A seeded modality-free formula over `names`."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        return TOP if r < 0.05 else BOT if r < 0.1 else Letter(rng.choice(names))
    op = rng.choice((And, Or))
    return op(
        lattice_formula(rng, names, depth - 1), lattice_formula(rng, names, depth - 1)
    )


class TestWhitmanRootCheck:
    """Whitman's rule at `derive_bounded`'s root is sound: where it says
    no, a search that does not use it finds no proof."""

    def test_no_proof_where_whitman_says_no(self):
        """200 seeded modality-free pairs that Whitman rejects, half over
        at most three letters and half over exactly four, which no screen
        takes: an ungated `ProofSearch` finds no proof at any depth up to
        8, and `derive_bounded` returns None."""
        rng = random.Random(2029)
        pairs = []
        while len(pairs) < 200:
            names = ("p", "q", "r", "s") if len(pairs) % 2 else ("p", "q", "r")
            pair = ConsequencePair(
                lattice_formula(rng, names, 3), lattice_formula(rng, names, 3)
            )
            if len(names) == 4 and len(letters(pair)) < 4:
                continue
            if not free_lattice_leq(pair.lhs, pair.rhs):
                pairs.append(pair)
        searched = 0
        for pair in pairs:
            search = ProofSearch(SearchSetup(()), cut_pool(pair))
            for depth in range(1, 9):
                assert search.prove(pair, depth) is None, (str(pair), depth)
            # a root the screen refutes is expanded once, at depth 1
            searched += search.expansions > 1
            assert derive_bounded((), pair, 8) is None
        assert searched >= 50

    def test_pair_nested_max_height_deep(self, monkeypatch):
        """Modality-free sides nested `MAX_HEIGHT` deep, which the parser
        accepts, go through the check with no RecursionError, and a
        rejected one builds no pool."""
        assert sys.getrecursionlimit() == 1000
        conj = " & ".join(["p", "q", "r", "s"] * 25 + ["p"])
        disj = "(t v " * MAX_HEIGHT + "u" + ")" * MAX_HEIGHT
        meet = "(p & " * MAX_HEIGHT + "q" + ")" * MAX_HEIGHT
        join = " v ".join(["r", "s", "t", "u"] * 25 + ["r"])
        goals = [parse_pair(f"{conj} |- {disj}"), parse_pair(f"{join} |- {meet}")]

        def refuse(*args, **kwargs):
            raise AssertionError("built for a refuted root")

        monkeypatch.setattr(proofs, "cut_pool", refuse)
        for goal in goals:
            assert whitman_refutes((), goal)
            assert derive_bounded((), goal, MAX_PROOF_DEPTH) is None


def literal_seeds(tables, k):
    """The packed vectors of T, F and k letters over every screen, one
    valuation at a time in `product` order."""
    rows = [bytearray() for _ in range(k + 2)]
    for s in range(len(tables.sizes)):
        n, base = tables.sizes[s], tables.bases[s]
        for valuation in product(range(n), repeat=k):
            rows[0].append(tables.tops[s])
            rows[1].append(tables.bots[s])
            for j, x in enumerate(valuation):
                rows[2 + j].append(base + x)
    return tuple(map(bytes, rows))


class TestSeedCache:
    """`ScreenTables.seeds` is kept on the tables for at most three
    letters, and built afresh for more."""

    @pytest.mark.parametrize("gamma", AXIOM_SETS)
    def test_cached_seeds_are_fresh_builds(self, gamma):
        screens = _screening_algebras(tuple(gamma))
        tables = _screen_tables(screens)
        for k in range(5):
            seeds = tables.seeds(k)
            assert seeds == ScreenTables(screens).seeds(k)
            assert seeds == literal_seeds(tables, k)
            assert (tables.seeds(k) is seeds) == (k <= 3)


def test_wide_phi_screens_on_three_letters_at_most(monkeypatch):
    """`a0 & ... & a11 |- a0 v z`: the candidate screen and the proof
    searches screen no pair or obligation over more than three letters,
    so no screen holds vectors over all twelve letters of phi, which
    grow like n**12 on a lattice of n elements; the interpolant is a0.
    The call builds one screen, its `SearchSetup`'s, which all of them
    share."""
    built = []

    class RecordedScreen(PackedScreen):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(proofs, "PackedScreen", RecordedScreen)
    phi = parse_formula(" & ".join(f"a{i}" for i in range(12)))
    prob = InterpolationProblem(phi, parse_formula("a0 v z"), model_size=2)
    result = craig_interpolant(prob)
    assert result.verdict == "interpolant" and result.interpolant == Letter("a0")
    assert len(built) == 1 and built[0].memo
    assert max(len(ls) for screen in built for ls in screen.memo) <= 3
    tables = _screen_tables(_screening_algebras(()))
    assert max(tables._seeds) == 3


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
    chain at index 1."""
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
        # budgets about the sizes of three-letter screens (3**3, 5**3),
        # which no longer reach the screens
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
                cls(screened((), screens), cuts)
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
    """Counts the transitivity legs that enter the expansion `_expand`
    (its caller is in the cut loop, where `cut` is bound), those of them
    whose memo entry decides them (a success within that depth, or a
    failure at that depth or deeper), and the legs that enter `_prove`'s
    memo prologue after the cut loop has probed their memo entry inline."""

    legs = decided_legs = reprobed_legs = 0

    def _expand(self, l, r, depth):
        if "cut" in sys._getframe(1).f_locals:
            key = l << _SHIFT | r
            self.legs += 1
            self.decided_legs += (
                self.height.get(key, depth + 1) <= depth
                or self.failed_at.get(key, -1) >= depth
            )
        return super()._expand(l, r, depth)

    def _prove(self, l, r, depth):
        self.reprobed_legs += "cut" in sys._getframe(1).f_locals
        return super()._prove(l, r, depth)


def assert_live_cuts_exact(search):
    """Each left id's live cuts are pool cuts other than itself, in pool
    order, whose first leg is a success, and they include every cut whose
    first leg has a proof within the depth the list was made for; every
    other cut's first leg failed at that depth or deeper.  A first leg
    that succeeds after the list is made is taller than that depth."""
    pool = search._pool_ids
    assert search._live
    for left, (dmax, cuts) in search._live.items():
        rest = iter(pool)
        assert all(cut in rest for cut in cuts)
        for cut in pool:
            key = left << _SHIFT | cut
            if cut in cuts:
                assert cut != left and key in search.success
            elif cut != left:
                assert search.height.get(key, dmax + 1) > dmax
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
        pool = cut_pool(goal, SearchSetup(gamma))
        cuts = order_cuts(goal, pool)
        fast = ProofSearch(SearchSetup(gamma), cuts)
        slow = FormulaKeyedSearch(SearchSetup(gamma), cuts)
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
        fast = ProofSearch(SearchSetup(()), pool)
        slow = FormulaKeyedSearch(SearchSetup(()), pool)
        proof = fast.prove(goal, 6)
        assert proof is not None and proof == slow.prove(goal, 6)
        _assert_same_search(fast, slow)
        assert_live_cuts_exact(fast)

    def test_a_success_is_reused_within_its_height_only(self):
        """`p & q |- q & p` has a proof of height 2 and none lower.  Once
        it is in the memo, a cut loop at depth 1 for left `p & q` refuses
        it, so `p & q |- q & p v s`, whose proofs cut through it, has none
        at depth 2 and one of height 3 at depth 3, as in the formula-keyed
        search at every step."""
        p_and_q, q_and_p = parse_formula("p & q"), parse_formula("q & p")
        pool = (*map(Letter, "pq"), q_and_p, Letter("r"), Letter("s"))
        fast = ProofSearch(SearchSetup(()), pool)
        slow = FormulaKeyedSearch(SearchSetup(()), pool)
        steps = [
            (parse_formula("q & p v r"), 2, None),
            (q_and_p, 2, "right-conjunction"),
            (parse_formula("q & p v s"), 2, None),
            (parse_formula("q & p v s"), 3, "transitivity"),
        ]
        for right, depth, rule in steps:
            pair = ConsequencePair(p_and_q, right)
            proof = fast.prove(pair, depth)
            assert proof == slow.prove(pair, depth) and (proof and proof.rule) == rule
            _assert_same_search(fast, slow)
            assert_live_cuts_exact(fast)
        assert proof.height() == 3 and check_proof(proof) is None
        assert proof.premises[0].conclusion.rhs == q_and_p

    def test_depth_bounds_the_height(self):
        """Under 4, `[](p & p) & q |- <>p` has no proof at depth 4 (one
        of height 6 was returned there while the memo reused a success at
        any depth) and one at depth 6."""
        gamma, goal = gamma_pairs(("4",)), parse_pair("[](p & p) & q |- <>p")
        assert derive_bounded(gamma, goal, 4) is None
        proof = derive_bounded(gamma, goal, 6)
        assert proof.height() == 6 and check_proof(proof, gamma) is None

    @pytest.mark.parametrize("budget", [0, 1, 7, 200])
    def test_same_resource_bound(self, budget):
        goal = parse_pair("[](p & q) & s |- []p v r")  # 1023 expansions
        cuts = order_cuts(goal, cut_pool(goal))
        fast = ProofSearch(SearchSetup(()), cuts, budget=budget)
        slow = FormulaKeyedSearch(SearchSetup(()), cuts, budget=budget)
        with pytest.raises(ResourceBound) as fast_exc:
            fast.prove(goal, 6)
        with pytest.raises(ResourceBound) as slow_exc:
            slow.prove(goal, 6)
        assert fast_exc.value.needed == slow_exc.value.needed == budget + 1
        _assert_same_search(fast, slow)

    @pytest.mark.parametrize("text,tags", GOLDEN_SAMPLE)
    def test_cut_legs_the_memo_decides_are_not_entered(self, text, tags):
        """The cut loop probes each leg's memo entry inline, by the rule of
        `_prove`'s prologue, so no leg the memo decides is expanded, an
        open leg enters the expansion without a second memo probe, and
        the search is the formula-keyed one."""
        gamma = gamma_pairs(tags)
        goal = parse_pair(text)
        cuts = order_cuts(goal, cut_pool(goal, SearchSetup(gamma)))
        fast = LegRecordingSearch(SearchSetup(gamma), cuts)
        slow = FormulaKeyedSearch(SearchSetup(gamma), cuts)
        assert fast.prove(goal, 6) == slow.prove(goal, 6)
        _assert_same_search(fast, slow)
        assert fast.legs > 0 and fast.decided_legs == fast.reprobed_legs == 0


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
        search = ProofSearch(SearchSetup(gamma), ())
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

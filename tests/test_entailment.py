import dataclasses
import gc
import random
from itertools import chain

import pytest

from wpml import entailment, proofs
from wpml.catalog import all_lframes, all_modal_lframes
from wpml.entailment import (
    EntailmentResult,
    decide_entailment,
    gamma_conditions,
    gamma_pairs,
)
from wpml.errors import PreconditionViolated, ResourceBound
from wpml.formulas import (
    ConsequencePair,
    Letter,
    letters,
    parse_formula,
    parse_pair,
    substitute,
)
from wpml.interpolation import InterpolationProblem, craig_interpolant
from wpml.lframe import ModalLFrame, frame_validates, truth_set
from wpml.proofs import check_proof, derive_bounded
from wpml.correspondence import (
    AXIOMS,
    CONDITION_OF_AXIOM,
    correspondence_check,
    frame_satisfies,
)
from wpml.sweeps import closure_sweep
from wpml.vectors import refuting_structures

from conftest import (
    literal_derive_bounded,
    literal_modal_lframes,
    random_pairs,
    reference_frame_validates,
)


class TestDerivableVerdicts:
    def test_t_forces_box_below_diamond(self):
        r = decide_entailment(("T",), parse_pair("[]p |- <>p"), 3, 3)
        assert r.derivable
        assert check_proof(r.proof, AXIOMS["T"]) is None
        assert r.proof.height() <= 3

    def test_duality_axiom_direct(self):
        r = decide_entailment((), parse_pair("<>p & []q |- <>(p & q)"), 2, 2)
        assert r.derivable

    def test_four_axiom(self):
        r = decide_entailment(("4",), parse_pair("[]p |- [][]p"), 2, 2)
        assert r.derivable


class TestRefutedVerdicts:
    def test_p_below_box_p_refuted_at_three_points(self):
        r = decide_entailment((), parse_pair("p |- []p"), 4, 3)
        assert r.refuted
        assert r.frame.n == 3
        pair = parse_pair("p |- []p")
        lhs = truth_set(r.frame, r.valuation, pair.lhs)
        rhs = truth_set(r.frame, r.valuation, pair.rhs)
        assert lhs & ~rhs

    def test_no_two_point_frame_refutes_p_below_box_p(self):
        # filters are upward closed, so on two points R[x] inside V(p)
        # forces x into V(p); the least countermodel needs 3 points
        pair = parse_pair("p |- []p")
        for x in all_modal_lframes(2):
            assert frame_validates(x, pair) is None

    def test_disjoint_letters_refuted_small(self):
        r = decide_entailment((), parse_pair("q |- r"), 3, 3)
        assert r.refuted and r.frame.n <= 3

    def test_refutation_respects_gamma_conditions(self):
        # under T the countermodel search is restricted to reflexive
        # frames, so []p |- p cannot be refuted, and p |- []p still can
        from wpml.correspondence import frame_satisfies

        r = decide_entailment(("T",), parse_pair("p |- []p"), 3, 3)
        assert r.refuted
        assert frame_satisfies(r.frame, "reflexivity")[0]


def test_no_formula_outlives_the_decision():
    # the frame tables are cached per frame and the search memos per
    # call: nothing keeps the goal's letters once the results are dropped
    results = [
        decide_entailment(tags, parse_pair(text), 3, 3)
        for text, tags in (
            ("leak_a |- []leak_a", ()),
            ("[]leak_a & <>leak_b |- <>(leak_a & leak_b)", ("T",)),
            ("leak_a & leak_b |- leak_b v leak_c", ()),
        )
    ]
    assert [r.verdict for r in results] == ["refuted", "unknown", "derivable"]
    del results
    gc.collect()
    kept = [
        o
        for o in gc.get_objects()
        if isinstance(o, Letter) and o.name.startswith("leak_")
    ]
    assert kept == []


class TestUnknownVerdicts:
    def test_box_below_diamond_in_empty_logic_is_not_refuted(self):
        # semantically valid on every modal L-frame (successor sets are
        # nonempty); derivable via the duality axiom at T, which the
        # bounded cut pool does not reach, so the two-sided search is
        # allowed to return unknown but never refuted
        r = decide_entailment((), parse_pair("[]p |- <>p"), 6, 3)
        assert not r.refuted
        if not r.derivable:
            assert r.verdict == "unknown"
            assert r.diagnostics["frames_searched"] > 0

    def test_diagnostics_carry_bounds(self):
        r = decide_entailment((), parse_pair("[]p |- <>p"), 2, 2)
        if r.verdict == "unknown":
            assert r.diagnostics["proof_depth"] == 2
            assert r.diagnostics["model_size"] == 2
            assert r.diagnostics["largest_frame_size"] <= 2


@pytest.mark.parametrize(
    "name, call",
    [
        ("Z", lambda: decide_entailment(("Z",), parse_pair("p |- p"))),
        (
            "Z",
            lambda: craig_interpolant(
                InterpolationProblem(parse_formula("p"), parse_formula("p"), ("Z",))
            ),
        ),
        ("Z", lambda: correspondence_check(next(all_modal_lframes(1)), "Z")),
        ("nope", lambda: frame_satisfies(next(all_modal_lframes(1)), "nope")),
        ("nope", lambda: closure_sweep("nope", 0, 2)),
    ],
    ids=[
        "decide_entailment",
        "craig_interpolant",
        "correspondence_check",
        "frame_satisfies",
        "closure_sweep",
    ],
)
def test_unknown_name_is_a_precondition_violation(name, call):
    with pytest.raises(PreconditionViolated, match=repr(name)):
        call()


class TestAgreementWithAlgebraSemantics:
    def test_frame_and_algebra_verdicts_agree(self):
        # semantics agreement: a frame validates a pair iff its filter
        # algebra does (valuations correspond exactly)
        from wpml.lattice import algebra_validates
        from wpml.lframe import fil_f

        pairs = [
            parse_pair(s)
            for s in (
                "[]p |- p",
                "p |- []p",
                "p |- <>p",
                "[]p |- <>p",
                "p & q |- p",
                "<>p & []q |- <>(p & q)",
                "<>(p v q) |- <>p v <>q",
            )
        ]
        for n in range(1, 4):
            for x in all_modal_lframes(n):
                a = fil_f(x)
                for pair in pairs:
                    assert (frame_validates(x, pair) is None) == (
                        algebra_validates(a, pair) is None
                    ), (n, x.succ, str(pair))


# goals of `test_same_result` searched past size 4: refuted only at 5
MODEL_SIZES = {"(p v q) & r |- p v (q & r)": 5}

# the tag sets of the seeded comparison
SEEDED_TAGS = [(), ("T",), ("4",), ("B",), ("5",), (".2",), ("T", "4")]


def reference_decide(tags, goal, proof_depth, model_size, model_budget=10**6):
    """`decide_entailment` written out literally: the same proof search,
    then every modal L-frame straight from `modal_relations`, filtered by
    `frame_satisfies` per condition and checked by the literal
    frame-validity loop, one frame at a time."""
    notes = {"proof_depth": proof_depth, "model_size": model_size, "axioms": list(tags)}
    try:
        proof = derive_bounded(gamma_pairs(tags), goal, proof_depth, 200_000)
    except ResourceBound as exc:
        proof = None
        notes["proof_search"] = f"resource bound: {exc}"
    if proof is not None:
        return EntailmentResult("derivable", proof=proof)
    conditions = [CONDITION_OF_AXIOM[tag] for tag in tags]
    seen = largest = 0
    for n in range(1, model_size + 1):
        for frame in literal_modal_lframes(n):
            if not all(frame_satisfies(frame, c)[0] for c in conditions):
                continue
            seen += 1
            largest = n
            try:
                cv = reference_frame_validates(frame, goal, model_budget)
            except ResourceBound as exc:
                notes["model_search"] = f"resource bound: {exc}"
                continue
            if cv is not None:
                return EntailmentResult("refuted", frame=frame, valuation=cv)
    notes["frames_searched"] = seen
    notes["largest_frame_size"] = largest
    return EntailmentResult("unknown", diagnostics=notes)


def assert_same_result(fast, slow):
    assert fast.verdict == slow.verdict
    assert fast.frame == slow.frame
    assert fast.valuation == slow.valuation
    if fast.valuation is not None:
        assert list(fast.valuation) == list(slow.valuation)
    assert fast.diagnostics == slow.diagnostics
    if fast.diagnostics is not None:
        assert list(fast.diagnostics) == list(slow.diagnostics)


class TestAgainstLiteralFrameSearch:
    """Verdict, frame, countervaluation and diagnostics equal those of a
    test-local search over the literal catalog with the literal
    frame-validity loop."""

    @pytest.mark.parametrize(
        "text,tags",
        [
            ("[]p & <>q |- <>(p & q)", ("T",)),
            ("p |- []p", ()),
            ("<>p |- []p", ("4",)),
            ("p v q |- p", ()),
            ("[](p v q) |- []p v <>q", ("B",)),
            ("<>(p & q) & []r |- <>(q & r)", (".2",)),
            ("[]p |- <>p", ()),
            ("(p v q) & r |- p v (q & r)", ("5",)),
        ],
    )
    def test_same_result(self, text, tags):
        goal = parse_pair(text)
        size = MODEL_SIZES.get(text, 4)
        fast = decide_entailment(tags, goal, 3, size)
        assert_same_result(fast, reference_decide(tags, goal, 3, size))

    @pytest.mark.parametrize("tags", SEEDED_TAGS, ids=lambda t: "+".join(t) or "none")
    def test_seeded_pairs(self, tags):
        verdicts = set()
        rng = random.Random("entailment:" + "+".join(tags))
        for i, goal in enumerate(random_pairs(rng, 16)):
            size = 1 + i % 4
            fast = decide_entailment(tags, goal, 3, size)
            assert_same_result(fast, reference_decide(tags, goal, 3, size))
            verdicts.add(fast.verdict)
        assert "refuted" in verdicts

    @pytest.mark.parametrize(
        "text,tags,size,budget,frames,note",
        [
            ("[]p & <>q |- <>(p & q)", ("T",), 5, 20, 2540, 25),
            ("p & (q v r) |- (p & q) v (p & r)", (), 4, 10, 575, 64),
        ],
    )
    def test_budget_limited(self, text, tags, size, budget, frames, note):
        goal = parse_pair(text)
        fast = decide_entailment(tags, goal, 3, size, model_budget=budget)
        assert_same_result(fast, reference_decide(tags, goal, 3, size, budget))
        assert fast.verdict == "unknown"
        assert fast.diagnostics["frames_searched"] == frames
        assert fast.diagnostics["model_search"] == (
            f"resource bound: sweep needs {note} evaluations, budget is {budget}"
        )


def kernel_pairs(seed, count):
    """Seeded pairs of one to three letters."""
    pairs = random_pairs(random.Random(seed), 2 * count)
    return [pair for pair in pairs if letters(pair)][:count]


def kept_relations(n):
    """Every size-n catalog L-frame with all its relations."""
    kept = entailment._kept_relations(n, ())
    assert [k.base for k in kept] == list(all_lframes(n))
    return kept


def relation_count(kept):
    return len(kept.succ) // kept.base.n


def relation(kept, j):
    """Relation j of `kept` as a `ModalLFrame`."""
    n = kept.base.n
    return ModalLFrame(kept.base, tuple(kept.succ[j * n:(j + 1) * n]))


def kept_subset(kept, indices):
    """`kept` holding only its relations `indices`, in that order."""
    n, f = kept.base.n, len(kept.base.filter_masks)

    def pick(data, width):
        return bytes(
            chain.from_iterable(data[i * width:(i + 1) * width] for i in indices)
        )

    return entailment._KeptRelations(
        kept.base, pick(kept.succ, n), pick(kept.box, f), pick(kept.diamond, f)
    )


def fresh(kept):
    """`kept` with pair-code tables of its own, which hold no seeds and
    no batch shapes yet."""
    return dataclasses.replace(kept)


def shapes(kept):
    """The batch shapes `kept`'s tables hold."""
    return dict(kept.codes._shapes)


def per_frame(kept, pair):
    """(j, valuation) for the first relation of `kept` on which
    `frame_validates` finds a countervaluation, or None."""
    for j in range(relation_count(kept)):
        cv = frame_validates(relation(kept, j), pair)
        if cv is not None:
            return j, cv
    return None


def batch(kept, pair, budget):
    """The first answer of `refuting_structures` on `kept`, with its
    valuation position decoded as `frame_validates` decodes a position:
    (j, valuation) or None."""
    ls = sorted(letters(pair))
    found = refuting_structures(kept.codes, kept.box, kept.diamond, pair, ls, budget)
    got = next(found, None)
    if got is None:
        return None
    j, i = got
    fs, k = kept.base.filter_masks, len(ls)
    f = len(fs)
    return j, {name: fs[i // f ** (k - 1 - t) % f] for t, name in enumerate(ls)}


def assert_same_first(got, want):
    assert got == want
    if want is not None:
        assert list(got[1]) == list(want[1])


class TestBatchKernel:
    """The batched search of one L-frame's relations
    (`vectors.refuting_structures`) against `frame_validates` on one
    relation at a time."""

    @staticmethod
    def budgets(kept, pair):
        """The default budget, and budgets capping a batch at 1 and at 3
        relations (f**k * M <= budget)."""
        size = len(kept.base.filter_masks) ** len(letters(pair))
        return (10**6, size, 3 * size + size - 1)

    def test_matches_per_frame_kernel(self):
        """On tables of their own, run twice, cold and then warm with the
        budgets in the opposite order: the same answers, and the warm run
        builds no batch shape (`ScreenTables.batch_shape`)."""
        cases = [
            (fresh(kept), kernel_pairs(n, 16))
            for n in range(1, 5)
            for kept in kept_relations(n)
        ]
        cases += [(fresh(kept), kernel_pairs(5, 3)) for kept in kept_relations(5)]
        assert len(cases) == 1 + 1 + 1 + 2 + 5
        assert not any(shapes(kept) for kept, _ in cases)
        wants = [[per_frame(kept, pair) for pair in pairs] for kept, pairs in cases]
        held_shapes = []
        for order in (1, -1):
            for (kept, pairs), want in zip(cases, wants):
                for pair, first in zip(pairs, want):
                    for budget in self.budgets(kept, pair)[::order]:
                        assert_same_first(batch(kept, pair, budget), first)
            held_shapes.append([shapes(kept) for kept, _ in cases])
        cold, warm = held_shapes
        assert cold == warm and all(cold) and any(len(h) > 3 for h in cold)
        for before, after in zip(cold, warm):
            assert all(after[key] is shape for key, shape in before.items())
        firsts = [first for want in wants for first in want]
        assert sum(f is not None for f in firsts) > 20
        assert sum(f is None for f in firsts) > 5

    def test_refuting_relation_at_batch_edges(self):
        """A refuting relation placed after t relations that hold the pair:
        first, last in a batch, first of the next batch, and last of all,
        with and without refuting relations after it."""
        placed = set()
        for n in (3, 4):
            for kept in kept_relations(n):
                for pair in kernel_pairs(10 + n, 8):
                    first = [
                        frame_validates(relation(kept, j), pair)
                        for j in range(relation_count(kept))
                    ]
                    holds = [j for j, cv in enumerate(first) if cv is None]
                    fails = [j for j, cv in enumerate(first) if cv is not None]
                    if not holds or not fails:
                        continue
                    f = len(kept.base.filter_masks)
                    for budget in self.budgets(kept, pair):
                        size = f ** len(letters(pair))
                        width = max(1, min(256 // f, budget // size))
                        for t in sorted({0, width - 1, width, 2 * width - 1}):
                            if t > len(holds):
                                continue
                            for tail in ([], fails[1:3] + holds[t:t + 2]):
                                order = holds[:t] + [fails[0]] + tail
                                sub = kept_subset(kept, order)
                                got = batch(sub, pair, budget)
                                assert_same_first(got, (t, first[fails[0]]))
                                placed.add(
                                    "first" if t == 0 else
                                    "last slot" if t % width == width - 1 else
                                    "next batch" if t % width == 0 else "inside"
                                )
                                if not tail:
                                    placed.add("last relation")
                    # no refuting relation at all
                    assert batch(kept_subset(kept, holds), pair, 10**6) is None
        assert {"first", "last slot", "next batch", "last relation"} <= placed


class TestBatchShapes:
    """The batch shapes (`ScreenTables.batch_shape`) kept on an L-frame's
    tables change no answer of the batch kernel; `TestBatchKernel` runs
    its cases on cold and then warm tables."""

    def test_partial_last_batch(self):
        """At size 5 with T, an L-frame of 173 relations and 5 filters is
        searched in batches of 51, the last of 20: both shapes are kept,
        and the answers are `frame_validates`'s."""
        tags = tuple(sorted({c.tag for c in gamma_conditions(("T",))}))
        (kept,) = [
            fresh(k)
            for k in entailment._kept_relations(5, tags)
            if relation_count(k) == 173
        ]
        assert len(kept.base.filter_masks) == 5
        last = 0
        for pair in kernel_pairs(173, 24):
            want = per_frame(kept, pair)
            assert_same_first(batch(kept, pair, 10**6), want)
            if want is None or want[0] >= 153:
                last += 1
                assert {(len(letters(pair)), 51), (len(letters(pair)), 20)} <= set(
                    shapes(kept)
                )
        assert last > 0

    def test_no_shape_kept_past_three_letters(self):
        """A four-letter goal gets the answers of `frame_validates`, and
        leaves no seeds and no shape for four letters on the tables."""
        goals = [parse_pair("p & q |- r v s"), parse_pair("[](p v q) & r |- <>s v p")]
        for n in (2, 3):
            for kept in map(fresh, kept_relations(n)):
                for goal in goals:
                    want = per_frame(kept, goal)
                    for budget in TestBatchKernel.budgets(kept, goal):
                        assert_same_first(batch(kept, goal, budget), want)
                assert all(k <= 3 for k, _ in shapes(kept))
                assert all(k <= 3 for k in kept.codes._seeds)
        decide_entailment((), goals[1], model_size=3)
        for n in (1, 2, 3):
            for kept in entailment._kept_relations(n, ()):
                assert all(k <= 3 for k, _ in shapes(kept))


# the axiom-free modal distribution templates of the countermodel
# benchmark, each of which it runs four times, renamed
AXIOM_FREE_DISTRIBUTION = (
    "[](p v q) |- []p v []q",
    "<>(p v q) |- <>p v <>q",
    "<>p & <>q |- <>(p & q)",
    "[](p v q) |- []p v <>q",
)


def test_axiom_free_distribution_items_build_no_search(monkeypatch):
    """The 16 axiom-free distribution items at model size 5 (four
    order-preserving renamings of each template): the screen refutes each
    root, so no cut pool and no `ProofSearch` is built, and the verdict,
    frame and valuation are those of the literal proof path."""
    renamings = [("p", "q"), ("a", "b"), ("x1", "y"), ("m", "n2")]
    goals = []
    for text in AXIOM_FREE_DISTRIBUTION:
        pair = parse_pair(text)
        for a, b in renamings:
            m = {"p": Letter(a), "q": Letter(b)}
            goals.append(ConsequencePair(substitute(pair.lhs, m), substitute(pair.rhs, m)))
    assert len(set(goals)) == 16

    def results():
        return [decide_entailment((), goal, model_size=5) for goal in goals]

    with monkeypatch.context() as patch:
        patch.setattr(entailment, "derive_bounded", literal_derive_bounded)
        want = results()
    built = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            built.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(proofs, "cut_pool", counted(proofs.cut_pool))
    monkeypatch.setattr(proofs, "ProofSearch", counted(proofs.ProofSearch))
    got = results()
    assert built == []
    for a, b in zip(got, want):
        assert a.verdict == b.verdict == "refuted"
        assert (a.frame, a.valuation) == (b.frame, b.valuation)
        assert list(a.valuation) == list(b.valuation)

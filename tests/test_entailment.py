import dataclasses
import gc
import random

import pytest

from wpml import entailment, proofs
from wpml.catalog import (
    all_lattices,
    all_modal_lattices,
    validating_structures,
)
from wpml.duality import algebra_filters, fil_l, is_tight
from wpml.entailment import (
    EntailmentResult,
    decide_entailment,
    gamma_pairs,
)
from wpml.errors import PreconditionViolated, ResourceBound, SizeCap
from wpml.formulas import (
    ConsequencePair,
    Letter,
    letters,
    parse_formula,
    parse_pair,
    substitute,
)
from wpml.interpolation import InterpolationProblem, craig_interpolant
from wpml.lattice import algebra_validates
from wpml.lframe import (
    frame_validates,
    satisfies,
    truth_set,
    validate_modal_lframe,
)
from wpml.proofs import check_proof, derive_bounded
from wpml.correspondence import (
    AXIOMS,
    CONDITION_OF_AXIOM,
    correspondence_check,
    frame_satisfies,
)
from wpml.sweeps import closure_sweep
from wpml.vectors import ScreenTables

from conftest import (
    all_modal_lframes,
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

    def test_deepening_gives_the_depth_first_verdict(self):
        """With `deepening` the result is the default's, except that a
        `derivable` one carries a proof of least height, which checks."""
        verdicts = set()
        for tags in ((), ("T",), ("4",)):
            gamma = gamma_pairs(tags)
            for goal in random_pairs(random.Random("deepening:" + "+".join(tags)), 20):
                want = decide_entailment(tags, goal, 4, 3)
                got = decide_entailment(tags, goal, 4, 3, deepening=True)
                verdicts.add(got.verdict)
                if not got.derivable:
                    assert got == want, str(goal)
                    continue
                assert want.derivable and got.proof.conclusion == goal
                assert check_proof(got.proof, gamma) is None
                assert got.proof.height() <= want.proof.height()
        assert verdicts == {"derivable", "refuted", "unknown"}


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


def test_model_size_above_the_cap_is_a_size_cap(monkeypatch):
    """A model size above `MAX_MODEL_SIZE` raises SizeCap before any
    search: neither the proof search nor the catalog is reached.  At the
    cap, a derivable pair is decided by the proof search alone."""
    assert entailment.MAX_MODEL_SIZE == 7
    goal = parse_pair("p & q |- p")
    assert decide_entailment((), goal, model_size=7).derivable

    def no_search(*args, **kwargs):
        raise AssertionError("searched past the model-size cap")

    monkeypatch.setattr(entailment, "derive_bounded", no_search)
    monkeypatch.setattr(entailment, "validating_structures", no_search)
    with pytest.raises(SizeCap, match="model size 8 exceeds the cap of 7"):
        decide_entailment((), goal, model_size=8)
    with pytest.raises(SizeCap):
        craig_interpolant(InterpolationProblem(goal.lhs, goal.rhs, model_size=8))


class TestAgreementWithAlgebraSemantics:
    def test_frame_and_algebra_verdicts_agree(self):
        # semantics agreement: a frame validates a pair iff its filter
        # algebra does (valuations correspond exactly)
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
    """`decide_entailment` written out literally over frames: the same
    proof search, then every modal L-frame straight from
    `modal_relations`, filtered by `frame_satisfies` per condition and
    checked by the literal frame-validity loop, one frame at a time."""
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


def validating(n, tags):
    """The members of `all_modal_lattices(n)` on which the scalar
    `algebra_validates` refutes no axiom of the tags, in order."""
    gamma = gamma_pairs(tags)
    return [
        a
        for a in all_modal_lattices(n)
        if all(algebra_validates(a, g) is None for g in gamma)
    ]


def assert_agrees(fast, slow, tags, goal, size):
    """`fast` has the verdict of the literal frame search `slow`; a
    countermodel has `slow`'s size and passes every frame oracle; an
    unknown has `slow`'s notes, but counts the structures of at most
    `size` elements that validate the axioms."""
    assert fast.verdict == slow.verdict
    if fast.refuted:
        frame, cv = fast.frame, fast.valuation
        assert frame.n == slow.frame.n
        assert validate_modal_lframe(frame.base, frame.succ) == frame
        assert is_tight(frame)
        for tag in tags:
            assert frame_satisfies(frame, CONDITION_OF_AXIOM[tag])[0]
        want = reference_frame_validates(frame, goal)
        assert frame_validates(frame, goal) == want == cv
        assert list(cv) == list(want)
        assert any(
            satisfies(frame, cv, x, goal.lhs) and not satisfies(frame, cv, x, goal.rhs)
            for x in range(frame.n)
        )
    else:
        assert fast.frame is fast.valuation is None
    if fast.diagnostics is None:
        assert slow.diagnostics is None
        return
    structures = sum(len(validating(n, tags)) for n in range(1, size + 1))
    assert fast.diagnostics == {**slow.diagnostics, "frames_searched": structures}
    assert list(fast.diagnostics) == list(slow.diagnostics)


class TestAgainstLiteralFrameSearch:
    """Verdict, countermodel size and diagnostics agree with a test-local
    search over the literal frame catalog with the literal frame-validity
    loop; `frames_searched` counts the structures searched."""

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
        assert_agrees(fast, reference_decide(tags, goal, 3, size), tags, goal, size)

    @pytest.mark.parametrize("tags", SEEDED_TAGS, ids=lambda t: "+".join(t) or "none")
    def test_seeded_pairs(self, tags):
        verdicts = set()
        rng = random.Random("entailment:" + "+".join(tags))
        for i, goal in enumerate(random_pairs(rng, 16)):
            size = 1 + i % 4
            fast = decide_entailment(tags, goal, 3, size)
            assert_agrees(fast, reference_decide(tags, goal, 3, size), tags, goal, size)
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
        """The literal search walks `frames` frames; the structure search
        walks the distinct structures they induce (ROADMAP item 11's
        table), and notes the same bound."""
        goal = parse_pair(text)
        fast = decide_entailment(tags, goal, 3, size, model_budget=budget)
        slow = reference_decide(tags, goal, 3, size, budget)
        assert_agrees(fast, slow, tags, goal, size)
        assert fast.verdict == "unknown"
        assert slow.diagnostics["frames_searched"] == frames
        assert fast.diagnostics["frames_searched"] == STRUCTURES_SEARCHED[text]
        assert fast.diagnostics["model_search"] == (
            f"resource bound: sweep needs {note} evaluations, budget is {budget}"
        )


# the structures behind `test_budget_limited`'s frames: 1 + 2 + 10 + 95 +
# 1,158 under T at sizes 1 to 5, 1 + 3 + 20 + 275 with no axioms at 1 to 4
STRUCTURES_SEARCHED = {
    "[]p & <>q |- <>(p & q)": 1266,
    "p & (q v r) |- (p & q) v (p & r)": 299,
}

# per tag set, the structures kept at n = 4 and n = 5 (ROADMAP item 11)
TABLE_COUNTS = {
    (): (275, 4842),
    ("T",): (95, 1158),
    ("4",): (136, 1445),
    ("B",): (10, 48),
    ("5",): (39, 292),
    (".2",): (188, 2699),
}


@pytest.mark.parametrize(
    "tags", list(TABLE_COUNTS), ids=lambda t: "+".join(t) or "none"
)
def test_structure_tables_are_the_scalar_filter(tags):
    """For n <= 5 the tables of `validating_structures(n, gamma)` hold, in
    order, exactly the members of `all_modal_lattices(n)` that the scalar
    `algebra_validates` finds valid for gamma, one table per catalog
    lattice; their counts at 4 and 5 are item 11's."""
    counts = []
    for n in range(1, 6):
        tables = validating_structures(n, gamma_pairs(tags))
        assert [t.lattice for t in tables] == list(all_lattices(n))
        got = [t.structure(j) for t in tables for j in range(len(t))]
        assert got == validating(n, tags)
        counts.append(len(got))
    assert tuple(counts[3:]) == TABLE_COUNTS[tags]


def test_each_dual_is_computed_once():
    """A table computes a structure's dual when first asked for and then
    keeps it; a refutation returns that frame, the tight dual of the
    first refuting structure, with elements named by filter masks."""
    goal = parse_pair("p |- []p")
    first = decide_entailment((), goal, 3, 3)
    (table,) = [t for t in validating_structures(3, ()) if len(t)]
    j = next(
        j for j in range(len(table)) if algebra_validates(table.structure(j), goal)
    )
    assert first.frame is table.dual(j) is decide_entailment((), goal, 3, 3).frame
    assert first.frame == fil_l(table.structure(j)).frame
    assert first.frame.base.elements == tuple(map(hex, algebra_filters(table.lattice)))


def kernel_pairs(seed, count):
    """Seeded pairs of one to three letters."""
    pairs = random_pairs(random.Random(seed), 2 * count)
    return [pair for pair in pairs if letters(pair)][:count]


def structure_tables(n):
    """The tables of every size-n catalog lattice with all its structures."""
    tables = validating_structures(n, ())
    assert [t.lattice for t in tables] == list(all_lattices(n))
    return tables


def table_subset(table, indices):
    """`table` holding only its structures `indices`, in that order."""
    n = table.lattice.n

    def pick(data):
        return b"".join(data[i * n:(i + 1) * n] for i in indices)

    return dataclasses.replace(
        table, boxes=pick(table.boxes), diamonds=pick(table.diamonds)
    )


def fresh(table):
    """`table` with pair-code tables of its own, which hold no seeds and
    no batch shapes yet."""
    return dataclasses.replace(table, codes=ScreenTables((table.lattice,)))


def shapes(table):
    """The batch shapes `table`'s pair-code tables hold."""
    return dict(table.codes._shapes)


def per_structure(table, pair):
    """(j, valuation) for the first structure of `table` on which
    `algebra_validates` finds a countervaluation, or None."""
    for j in range(len(table)):
        cv = algebra_validates(table.structure(j), pair)
        if cv is not None:
            return j, cv
    return None


def batch(table, pair, budget):
    """The first answer of `refuting_structures` on `table`, with its
    valuation position decoded as `algebra_validates` orders valuations:
    (j, valuation) or None."""
    got = next(table.refuting(pair, budget), None)
    if got is None:
        return None
    j, i = got
    ls, n = sorted(letters(pair)), table.lattice.n
    k = len(ls)
    return j, {name: i // n ** (k - 1 - t) % n for t, name in enumerate(ls)}


def assert_same_first(got, want):
    assert got == want
    if want is not None:
        assert list(got[1]) == list(want[1])


class TestBatchKernel:
    """The batched search of one lattice's structures
    (`vectors.refuting_structures`) against `algebra_validates` on one
    structure at a time."""

    @staticmethod
    def budgets(table, pair):
        """The default budget, and budgets capping a batch at 1 and at 3
        structures (n**k * M <= budget)."""
        size = table.lattice.n ** len(letters(pair))
        return (10**6, size, 3 * size + size - 1)

    def test_matches_per_frame_kernel(self):
        """On tables of their own, run twice, cold and then warm with the
        budgets in the opposite order: the same answers, and the warm run
        builds no batch shape (`ScreenTables.batch_shape`)."""
        cases = [
            (fresh(table), kernel_pairs(n, 16))
            for n in range(1, 5)
            for table in structure_tables(n)
        ]
        cases += [(fresh(table), kernel_pairs(5, 3)) for table in structure_tables(5)]
        assert len(cases) == 1 + 1 + 1 + 2 + 5
        assert not any(shapes(table) for table, _ in cases)
        wants = [
            [per_structure(table, pair) for pair in pairs] for table, pairs in cases
        ]
        held_shapes = []
        for order in (1, -1):
            for (table, pairs), want in zip(cases, wants):
                for pair, first in zip(pairs, want):
                    for budget in self.budgets(table, pair)[::order]:
                        assert_same_first(batch(table, pair, budget), first)
            held_shapes.append([shapes(table) for table, _ in cases])
        cold, warm = held_shapes
        assert cold == warm and all(cold) and any(len(h) > 3 for h in cold)
        for before, after in zip(cold, warm):
            assert all(after[key] is shape for key, shape in before.items())
        firsts = [first for want in wants for first in want]
        assert sum(f is not None for f in firsts) > 20
        assert sum(f is None for f in firsts) > 5

    def test_refuting_relation_at_batch_edges(self):
        """A refuting structure placed after t structures that validate the
        pair: first, last in a batch, first of the next batch, and last of
        all, with and without refuting structures after it."""
        placed = set()
        for n in (3, 4):
            for table in structure_tables(n):
                for pair in kernel_pairs(10 + n, 8):
                    first = [
                        algebra_validates(table.structure(j), pair)
                        for j in range(len(table))
                    ]
                    holds = [j for j, cv in enumerate(first) if cv is None]
                    fails = [j for j, cv in enumerate(first) if cv is not None]
                    if not holds or not fails:
                        continue
                    for budget in self.budgets(table, pair):
                        size = n ** len(letters(pair))
                        width = max(1, min(256 // n, budget // size))
                        for t in sorted({0, width - 1, width, 2 * width - 1}):
                            if t > len(holds):
                                continue
                            for tail in ([], fails[1:3] + holds[t:t + 2]):
                                order = holds[:t] + [fails[0]] + tail
                                sub = table_subset(table, order)
                                got = batch(sub, pair, budget)
                                assert_same_first(got, (t, first[fails[0]]))
                                placed.add(
                                    "first" if t == 0 else
                                    "last slot" if t % width == width - 1 else
                                    "next batch" if t % width == 0 else "inside"
                                )
                                if not tail:
                                    placed.add("last structure")
                    # no refuting structure at all
                    assert batch(table_subset(table, holds), pair, 10**6) is None
        assert {"first", "last slot", "next batch", "last structure"} <= placed


class TestBatchShapes:
    """The batch shapes (`ScreenTables.batch_shape`) kept on a lattice's
    pair-code tables change no answer of the batch kernel;
    `TestBatchKernel` runs its cases on cold and then warm tables."""

    def test_partial_last_batch(self):
        """At size 5 with T, a lattice's table of 185 structures is
        searched in batches of 51, the last of 32: both shapes are kept,
        and the answers are `algebra_validates`'s."""
        (table,) = [
            fresh(t)
            for t in validating_structures(5, gamma_pairs(("T",)))
            if len(t) == 185
        ]
        last = 0
        for pair in kernel_pairs(185, 24):
            want = per_structure(table, pair)
            assert_same_first(batch(table, pair, 10**6), want)
            if want is None or want[0] >= 153:
                last += 1
                assert {(len(letters(pair)), 51), (len(letters(pair)), 32)} <= set(
                    shapes(table)
                )
        assert last > 0

    def test_no_shape_kept_past_three_letters(self):
        """A four-letter goal gets the answers of `algebra_validates`, and
        leaves no seeds and no shape for four letters on the tables."""
        goals = [parse_pair("p & q |- r v s"), parse_pair("[](p v q) & r |- <>s v p")]
        for n in (2, 3):
            for table in map(fresh, structure_tables(n)):
                for goal in goals:
                    want = per_structure(table, goal)
                    for budget in TestBatchKernel.budgets(table, goal):
                        assert_same_first(batch(table, goal, budget), want)
                assert all(k <= 3 for k, _ in shapes(table))
                assert all(k <= 3 for k in table.codes._seeds)
        decide_entailment((), goals[1], model_size=3)
        for n in (1, 2, 3):
            for table in validating_structures(n, ()):
                assert all(k <= 3 for k, _ in shapes(table))


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

import gc

import pytest

from wpml import entailment
from wpml.catalog import all_modal_lframes
from wpml.entailment import decide_entailment
from wpml.errors import PreconditionViolated
from wpml.formulas import Letter, parse_formula, parse_pair
from wpml.interpolation import InterpolationProblem, craig_interpolant
from wpml.lframe import frame_validates, truth_set
from wpml.proofs import check_proof
from wpml.correspondence import AXIOMS, correspondence_check, frame_satisfies
from wpml.sweeps import closure_sweep

from conftest import literal_modal_lframes, reference_frame_validates


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


class TestAgainstLiteralFrameSearch:
    """Verdict, frame and countervaluation equal those of a search over the
    literal catalog with the literal frame-validity loop."""

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
    def test_same_result(self, monkeypatch, text, tags):
        goal = parse_pair(text)
        size = MODEL_SIZES.get(text, 4)
        fast = decide_entailment(tags, goal, 3, size)
        monkeypatch.setattr(entailment, "frame_validates", reference_frame_validates)
        monkeypatch.setattr(
            entailment, "all_modal_lframes", lambda n: iter(literal_modal_lframes(n))
        )
        slow = decide_entailment(tags, goal, 3, size)
        assert fast.verdict == slow.verdict
        assert fast.frame == slow.frame
        assert fast.valuation == slow.valuation
        if fast.valuation is not None:
            assert list(fast.valuation) == list(slow.valuation)
        assert fast.diagnostics == slow.diagnostics

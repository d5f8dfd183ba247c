import random

import pytest

from wpml.catalog import all_lframes
from wpml.correspondence import (
    AXIOM_TAGS,
    AXIOMS,
    CONDITION_OF_AXIOM,
    CONDITIONS,
    INCLUSIONS,
    SPACE_CONDITIONS,
    correspondence_check,
    frame_satisfies,
    pullback_preserves,
)
from wpml.duality import dual_of_hom, fil_l, is_tight
from wpml.errors import PreconditionViolated, ResourceBound, WpmlError
from wpml.formulas import parse_pair
from wpml.generators import sample_modal_lattice, sample_modal_lframe, sample_vformation
from wpml.lframe import ModalLFrame, frame_validates, validate_modal_lframe

from conftest import (
    all_modal_lframes,
    identity_modal,
    literal_witness,
    pointwise_dot2_space,
    pointwise_space_gaps,
    relation_matrix,
)


class TestFrameSatisfies:
    def test_identity_relation_satisfies_everything(self):
        for n in range(1, 4):
            for frame in all_lframes(n):
                x = identity_modal(frame)
                for tag in CONDITIONS:
                    holds, witness = frame_satisfies(x, tag)
                    assert holds and witness is None

    def test_transitivity_witness_is_least(self):
        # 3-chain x0 < x1 < x2, successors {0, 1, 2}, {0, 2}, {2}: 1 R 0 R 1
        # but not 1 R 1
        x = validate_modal_lframe(all_lframes(3)[0], (0b111, 0b101, 0b100))
        assert isinstance(x, ModalLFrame)
        points = range(x.n)
        least = next(
            (a, b, c)
            for a in points
            for b in points
            for c in points
            if x.rel(a, b) and x.rel(b, c) and not x.rel(a, c)
        )
        assert frame_satisfies(x, "transitivity") == (False, (1, 0, 1)) == (False, least)

    def test_total_relation_is_directed(self):
        # any frame whose every point reaches a common successor set
        frame = all_lframes(2)[0]
        x = validate_modal_lframe(frame, [(0, 0), (0, 1), (1, 1)])
        assert isinstance(x, ModalLFrame)
        assert frame_satisfies(x, "directedness")[0]

    def test_exhaustive_scan_matches_definitions(self):
        # holds and the least failing tuple, in lexicographic variable
        # order, by literal quantifiers on every catalog frame of <= 5 points
        failing = dict.fromkeys(CONDITIONS, 0)
        for n in range(1, 6):
            for x in all_modal_lframes(n):
                r = relation_matrix(x.succ)
                for tag in CONDITIONS:
                    got = frame_satisfies(x, tag)
                    assert got == literal_witness(tag, r), (tag, x.succ)
                    failing[tag] += not got[0]
        assert all(failing.values()), failing

    def test_witnesses_match_the_literal_quantifiers_on_samples(self):
        # the same on sampled frames of 6 to 8 points, per sampler condition
        rng = random.Random(2718)
        sizes = set()
        for condition in (None,) + tuple(CONDITIONS):
            for _ in range(12):
                x = sample_modal_lframe(rng, rng.randint(6, 8), condition)
                sizes.add(x.n)
                r = relation_matrix(x.succ)
                for tag in CONDITIONS:
                    assert frame_satisfies(x, tag) == literal_witness(tag, r), tag
        assert sizes == {6, 7, 8}


class TestCorrespondenceCheck:
    def test_identity_frame_validates_t(self, chain3_frame):
        x = identity_modal(chain3_frame)
        rep = correspondence_check(x, "T")
        assert rep.condition_holds and rep.all_pairs_valid and rep.sound

    def test_soundness_on_all_small_frames(self):
        # condition holds => axiom pairs frame-valid, tight or not
        for n in range(1, 4):
            for x in all_modal_lframes(n):
                for tag in AXIOM_TAGS:
                    rep = correspondence_check(x, tag)
                    assert rep.sound, (n, x.succ, tag)

    def test_tight_equivalence_on_duals(self):
        rng = random.Random(13)
        for _ in range(25):
            a = sample_modal_lattice(rng, rng.randint(1, 4))
            space = fil_l(a)
            assert is_tight(space.frame)
            for tag in AXIOM_TAGS:
                rep = correspondence_check(space.frame, tag)
                assert rep.tight
                assert rep.condition_holds == rep.all_pairs_valid, (tag, a)
                if rep.condition_holds:
                    assert rep.space_condition_failures == ()

    def test_dot2_pair_valid_on_directed_tight_frame(self):
        rng = random.Random(29)
        found = 0
        for _ in range(40):
            a = sample_modal_lattice(rng, rng.randint(1, 4), condition="directedness")
            space = fil_l(a)
            holds, _ = frame_satisfies(space.frame, "directedness")
            if not holds:
                continue
            assert frame_validates(space.frame, parse_pair("<>[]p |- []<>p")) is None
            found += 1
        assert found > 10


# The four Horn space conditions as they were written out by hand, kept as
# the literal reference for the kernel that reads them from the rows.

def _t_space(x):
    down, up = x.base.down_masks, x.base.up_masks
    out = []
    for a, sa in enumerate(x.succ):
        if not sa & down[a]:
            out.append(("T-lower", (a,)))
        if not sa & up[a]:
            out.append(("T-upper", (a,)))
    return out


def _4_space(x):
    down, up, succ = x.base.down_masks, x.base.up_masks, x.succ
    out = []
    for a, b in x.pairs:
        for c in range(x.n):
            if not succ[b] >> c & 1:
                continue
            if not succ[a] & down[c]:
                out.append(("4-lower", (a, b, c)))
            if not succ[a] & up[c]:
                out.append(("4-upper", (a, b, c)))
    return out


def _b_space(x):
    down, up, succ = x.base.down_masks, x.base.up_masks, x.succ
    out = []
    for a, b in x.pairs:
        if not succ[b] & up[a]:
            out.append(("B-upper", (a, b)))
        if not succ[b] & down[a]:
            out.append(("B-lower", (a, b)))
    return out


def _5_space(x):
    down, up, succ = x.base.down_masks, x.base.up_masks, x.succ
    out = []
    for a, b in x.pairs:
        for c in range(x.n):
            if not succ[a] >> c & 1:
                continue
            if not succ[b] & up[c]:
                out.append(("5-upper", (a, c, b)))
            if not succ[b] & down[c]:
                out.append(("5-lower", (a, b, c)))
    return out


REFERENCE_SPACE = {"T": _t_space, "4": _4_space, "B": _b_space, "5": _5_space}


def _in_kernel_order(tag, failures):
    """A reference list in the kernel's order: per witness, lower before
    upper, and the 5-upper witness (x, c, y) written as (x, y, c)."""
    out = []
    for name, w in failures:
        if name == "5-upper":
            w = (w[0], w[2], w[1])
        out.append((w, name != f"{tag}-lower", name))
    return [(name, w) for w, _, name in sorted(out)]


class TestSpaceConditions:
    def test_kernel_matches_the_written_out_conditions(self):
        # every modal L-frame of at most 4 points, tight or not
        failing = dict.fromkeys(REFERENCE_SPACE, 0)
        for n in range(1, 5):
            for x in all_modal_lframes(n):
                for tag, reference in REFERENCE_SPACE.items():
                    got = SPACE_CONDITIONS[tag](x)
                    assert got == _in_kernel_order(tag, reference(x)), (tag, x.succ)
                    failing[tag] += bool(got)
        assert all(failing.values()), failing

    def test_tables_match_the_per_point_loops(self):
        """Every space condition on the closure tables against the loop it
        replaced (see conftest): on every modal L-frame of at most 4
        points, tight or not, and on seeded ones of 5 to 8 points."""
        rng = random.Random(37)
        frames = [x for n in range(1, 5) for x in all_modal_lframes(n)]
        frames += [sample_modal_lframe(rng, rng.randint(5, 8)) for _ in range(40)]
        failing = dict.fromkeys(SPACE_CONDITIONS, 0)
        for x in frames:
            for tag, check in SPACE_CONDITIONS.items():
                if tag == ".2":
                    want = pointwise_dot2_space(x)
                else:
                    row = INCLUSIONS[CONDITION_OF_AXIOM[tag]]
                    want = pointwise_space_gaps(tag, row, x)
                got = check(x)
                assert got == want, (tag, x.succ)
                failing[tag] += bool(got)
        assert all(failing.values()), failing

    def test_tight_frames_meeting_a_condition_meet_its_space_condition(self):
        # the theorem, exhaustively on the tight frames of at most 4 points
        tight = cases = 0
        for n in range(1, 5):
            for x in all_modal_lframes(n):
                if not is_tight(x):
                    continue
                tight += 1
                for tag in AXIOM_TAGS:
                    if frame_satisfies(x, CONDITION_OF_AXIOM[tag])[0]:
                        cases += 1
                        assert SPACE_CONDITIONS[tag](x) == [], (tag, x.succ)
        assert (tight, cases) == (299, 534)


class TestPullbackPreserves:
    def test_identity_legs(self, chain3_frame):
        from wpml.lframe import FrameMorphism

        x = identity_modal(chain3_frame)
        ident = FrameMorphism(x, x, (0, 1, 2), "bounded-L")
        for tag in CONDITIONS:
            holds, witness = pullback_preserves(tag, ident, ident)
            assert holds and witness is None

    def test_condition_legs_must_satisfy(self, chain2_frame, chain3_frame):
        from wpml.lframe import FrameMorphism

        x = identity_modal(chain3_frame)
        ident = FrameMorphism(x, x, (0, 1, 2), "bounded-L")
        # identity relation is not... it is reflexive; craft a failing leg
        frame = all_lframes(2)[0]
        y = validate_modal_lframe(frame, [(0, 1), (1, 1)])
        assert isinstance(y, ModalLFrame)
        ident2 = FrameMorphism(y, y, (0, 1), "bounded-L")
        assert not frame_satisfies(y, "reflexivity")[0]
        with pytest.raises(PreconditionViolated, match="leg domain fails"):
            pullback_preserves("reflexivity", ident2, ident2)

    def test_codomain_must_satisfy(self, chain2_frame):
        from wpml.lframe import FrameMorphism

        # reflexive leg domains over a non-reflexive codomain: the legs
        # are not bounded morphisms, but the check comes first
        x = identity_modal(chain2_frame)
        y = validate_modal_lframe(chain2_frame, [(0, 1), (1, 1)])
        assert isinstance(y, ModalLFrame)
        leg = FrameMorphism(x, y, (0, 1), "bounded-L")
        with pytest.raises(PreconditionViolated, match="common codomain fails") as exc:
            pullback_preserves("reflexivity", leg, leg)
        assert isinstance(exc.value, WpmlError)

    def test_seeded_closure_per_condition(self):
        rng = random.Random(41)
        for tag in CONDITIONS:
            done = 0
            while done < 5:
                v = sample_vformation(rng, condition=tag)
                space_k = fil_l(v.k)
                f1 = dual_of_hom(v.h1, dom_space=space_k)
                f2 = dual_of_hom(v.h2, dom_space=space_k)
                if not all(
                    frame_satisfies(leg.dom, tag)[0] for leg in (f1, f2)
                ):
                    continue
                holds, witness = pullback_preserves(tag, f1, f2)
                assert holds, (tag, witness)
                done += 1


class TestAxiomTables:
    def test_axiom_shapes(self):
        assert [str(p) for p in AXIOMS["T"]] == ["[]p |- p", "p |- <>p"]
        assert [str(p) for p in AXIOMS["5"]] == ["<>p |- []<>p", "<>[]p |- []p"]
        assert [str(p) for p in AXIOMS[".2"]] == ["<>[]p |- []<>p"]
        assert CONDITION_OF_AXIOM == {
            "T": "reflexivity",
            "4": "transitivity",
            "B": "symmetry",
            "5": "euclideanity",
            ".2": "directedness",
        }


def test_correspondence_check_honours_wpml_budget(monkeypatch):
    frame = identity_modal(next(iter(all_lframes(2))))
    assert correspondence_check(frame, "T").sound
    monkeypatch.setenv("WPML_BUDGET", "1")
    with pytest.raises(ResourceBound):
        correspondence_check(frame, "T")
    assert correspondence_check(frame, "T", budget=100).sound

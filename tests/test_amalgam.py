import random
from dataclasses import replace

import pytest

from wpml.amalgam import (
    VFormation,
    check_supamal_claim,
    find_algebraic_interpolant,
    jonsson_filters,
    pullback,
    superamalgamate,
    validate_vformation,
)
from wpml.catalog import all_lframes
from wpml.duality import dual_of_hom, fil_l, is_tight
from wpml.errors import GluingMismatch, MorphismInvalid, NotSurjective
from wpml.generators import sample_inclusion_span, sample_vformation
from wpml.lattice import LatticeMorphism
from wpml.lframe import FrameMorphism, enumerate_frame_morphisms, is_bounded_l_morphism

from conftest import (
    all_modal_lframes,
    identity_modal,
    pointwise_check_supamal_claim,
    pointwise_point_embedding,
    pointwise_pullback_relation,
)


def embed_chain3_in_b4(chain3_modal, b4_modal):
    return LatticeMorphism(chain3_modal, b4_modal, (0, 1, 3), modal=True)


class TestPullback:
    def test_identity_legs_give_diagonal(self, chain3_frame):
        x = identity_modal(chain3_frame)
        ident = FrameMorphism(x, x, (0, 1, 2), "bounded-L")
        pb = pullback(ident, ident)
        assert pb.points == ((0, 0), (1, 1), (2, 2))
        assert pb.frame.base.meet == x.base.meet
        assert pb.frame.succ == x.succ

    def test_one_point_codomain_with_trivial_legs(self):
        pt = identity_modal(all_lframes(1)[0])
        ident = FrameMorphism(pt, pt, (0,), "bounded-L")
        pb = pullback(ident, ident)
        assert pb.points == ((0, 0),)

    def test_duals_of_chain_into_b4(self, chain3_modal, b4_modal):
        h = embed_chain3_in_b4(chain3_modal, b4_modal)
        space_k = fil_l(chain3_modal)
        f1 = dual_of_hom(h, dom_space=space_k)
        f2 = dual_of_hom(h, dom_space=space_k)
        pb = pullback(f1, f2)
        # brute-force pairing of the 4x4 filter grid under f1 = f2
        want = [
            (a, b)
            for a in range(4)
            for b in range(4)
            if f1.map[a] == f2.map[b]
        ]
        assert list(pb.points) == want
        assert len(pb.points) == 6

    def test_non_surjective_leg_rejected(self, chain2_frame, chain3_frame):
        x2 = identity_modal(chain2_frame)
        x3 = identity_modal(chain3_frame)
        # embed the 2-chain into the 3-chain: not onto
        f = FrameMorphism(x2, x3, (0, 2), "bounded-L")
        if is_bounded_l_morphism(f) is None:
            with pytest.raises(NotSurjective):
                pullback(f, f)

    def test_mismatched_codomain_rejected(self, chain2_frame, chain3_frame):
        x2 = identity_modal(chain2_frame)
        x3 = identity_modal(chain3_frame)
        f = FrameMorphism(x2, x2, (0, 1), "bounded-L")
        g = FrameMorphism(x3, x3, (0, 1, 2), "bounded-L")
        with pytest.raises(MorphismInvalid):
            pullback(f, g)

    def test_projections_verified(self, chain3_modal, b4_modal):
        h = embed_chain3_in_b4(chain3_modal, b4_modal)
        space_k = fil_l(chain3_modal)
        pb = pullback(
            dual_of_hom(h, dom_space=space_k), dual_of_hom(h, dom_space=space_k)
        )
        for proj in (pb.proj1, pb.proj2):
            assert is_bounded_l_morphism(proj) is None
            assert proj.is_surjective()


class TestPointMapTables:
    """The pullback relation, the point embeddings and the separation
    claim on the preimage and image tables against the per-point loops
    they replaced (see conftest)."""

    def test_seeded_vformations(self):
        rng = random.Random(35)
        for _ in range(40):
            res = superamalgamate(sample_vformation(rng))
            pb = res.pb
            want = pointwise_pullback_relation(pb.f1.dom, pb.f2.dom, pb.points)
            assert pb.frame.succ == want
            assert res.p1 == pointwise_point_embedding(res.space1, pb, 0)
            assert res.p2 == pointwise_point_embedding(res.space2, pb, 1)
            assert check_supamal_claim(pb) == pointwise_check_supamal_claim(pb)

    def test_catalog_legs_tight_or_not(self):
        """Every pair of surjective bounded L-morphisms between catalog
        frames of at most 3 points; the claim is checked also with the
        second leg's map replaced by a seeded arbitrary one, so that its
        failures compare too, and no failure is reported twice."""
        frames = [x for n in range(1, 4) for x in all_modal_lframes(n)]
        rng = random.Random(36)
        pairs = failing = loose = 0
        for cod in frames:
            legs = [
                f
                for dom in frames
                for f in enumerate_frame_morphisms(dom, cod, "bounded-L", True)
            ]
            for f1 in legs:
                for f2 in legs:
                    pb = pullback(f1, f2)
                    want = pointwise_pullback_relation(f1.dom, f2.dom, pb.points)
                    assert pb.frame.succ == want
                    arbitrary = tuple(rng.randrange(cod.n) for _ in f2.map)
                    for g2 in (f2, FrameMorphism(f2.dom, cod, arbitrary)):
                        claim = replace(pb, f2=g2)
                        got = check_supamal_claim(claim)
                        assert got == pointwise_check_supamal_claim(claim)
                        assert len(set(got)) == len(got), got
                        failing += bool(got)
                    pairs += 1
                    loose += not (is_tight(f1.dom) and is_tight(f2.dom))
        assert pairs > 100 and failing > 10 and loose > 10


class TestSuperamalgamate:
    def test_identity_span_of_two_chain(self, chain2_modal):
        ident = LatticeMorphism(chain2_modal, chain2_modal, (0, 1), modal=True)
        res = superamalgamate(VFormation(chain2_modal, chain2_modal, chain2_modal, ident, ident))
        assert res.report.verdict == "pass"
        # witnesses c = a work on the diagonal
        table = dict(res.report.witnesses)
        assert table[(0, 0)] == 0
        assert table[(0, 1)] == 0
        assert table[(1, 1)] == 1

    def test_two_chain_into_three_chains(self, chain2_modal, chain3_modal):
        emb = LatticeMorphism(chain2_modal, chain3_modal, (0, 2), modal=True)
        res = superamalgamate(
            VFormation(chain2_modal, chain3_modal, chain3_modal, emb, emb)
        )
        assert res.report.verdict == "pass"
        # every (a, b) with inclusion got a witness; the mid elements of
        # the two copies are not comparable in the superamalgam
        pairs = {p for p, _ in res.report.witnesses}
        assert (1, 1) not in pairs
        assert res.report.missing == ()

    def test_chain_into_b4_span(self, chain3_modal, b4_modal):
        h = embed_chain3_in_b4(chain3_modal, b4_modal)
        res = superamalgamate(VFormation(chain3_modal, b4_modal, b4_modal, h, h))
        assert res.report.verdict == "pass"
        assert check_supamal_claim(res.pb) == []

    def test_seeded_sweep(self):
        rng = random.Random(1234)
        for _ in range(20):
            v = sample_vformation(rng)
            res = superamalgamate(v)
            assert res.report.verdict == "pass", res.report
            assert check_supamal_claim(res.pb) == []

    def test_exhaustive_small_identity_modality_spans(self):
        # every span of embeddings between catalog lattices of size <= 3
        # (identity modalities), all embedding pairs
        from wpml.catalog import all_lattices
        from wpml.lattice import enumerate_homs, with_identity_modalities

        algebras = [
            with_identity_modalities(lat)
            for n in range(1, 5)
            for lat in all_lattices(n)
        ]
        spans = 0
        for k in algebras:
            for l1 in algebras:
                embs1 = [
                    h for h in enumerate_homs(k, l1, modal=True) if h.is_injective()
                ]
                if not embs1:
                    continue
                for l2 in algebras:
                    embs2 = [
                        h
                        for h in enumerate_homs(k, l2, modal=True)
                        if h.is_injective()
                    ]
                    for h1 in embs1:
                        for h2 in embs2:
                            res = superamalgamate(VFormation(k, l1, l2, h1, h2))
                            assert res.report.verdict == "pass"
                            spans += 1
        assert spans > 25

    def test_commutativity_is_pointwise_equality(self, chain2_modal, chain3_modal):
        emb = LatticeMorphism(chain2_modal, chain3_modal, (0, 2), modal=True)
        res = superamalgamate(
            VFormation(chain2_modal, chain3_modal, chain3_modal, emb, emb)
        )
        for c in range(chain2_modal.n):
            assert res.p1[emb.map[c]] == res.p2[emb.map[c]]

    def test_rejects_non_embedding(self, chain3_modal, chain2_modal):
        squash = LatticeMorphism(chain3_modal, chain2_modal, (0, 0, 1), modal=True)
        with pytest.raises(MorphismInvalid):
            validate_vformation(
                VFormation(chain3_modal, chain2_modal, chain2_modal, squash, squash)
            )


class TestFindAlgebraicInterpolant:
    def test_bottom_left_operand(self, chain2_modal, chain3_modal):
        emb = LatticeMorphism(chain2_modal, chain3_modal, (0, 2), modal=True)
        v = VFormation(chain2_modal, chain3_modal, chain3_modal, emb, emb)
        out = find_algebraic_interpolant(v, chain3_modal.bot, 1)
        assert out.kind == "witness" and out.element == chain2_modal.bot

    def test_top_right_operand(self, chain2_modal, chain3_modal):
        emb = LatticeMorphism(chain2_modal, chain3_modal, (0, 2), modal=True)
        v = VFormation(chain2_modal, chain3_modal, chain3_modal, emb, emb)
        out = find_algebraic_interpolant(v, 1, chain3_modal.top)
        assert out.kind == "witness"
        a, c = 1, out.element
        assert chain3_modal.le(a, emb.map[c])
        assert chain3_modal.le(emb.map[c], chain3_modal.top)

    def test_none_needed(self, chain2_modal, chain3_modal):
        emb = LatticeMorphism(chain2_modal, chain3_modal, (0, 2), modal=True)
        v = VFormation(chain2_modal, chain3_modal, chain3_modal, emb, emb)
        # the two mid elements are incomparable in the amalgam
        out = find_algebraic_interpolant(v, 1, 1)
        assert out.kind == "none-needed"

    def test_agrees_with_report_table(self):
        rng = random.Random(77)
        v = sample_vformation(rng)
        res = superamalgamate(v)
        table = dict(res.report.witnesses)
        for a in range(v.l1.n):
            for b in range(v.l2.n):
                out = find_algebraic_interpolant(v, a, b)
                if (a, b) in table:
                    assert out.kind == "witness" and out.element == table[(a, b)]
                else:
                    assert out.kind == "none-needed"


class TestJonsson:
    def test_trivial_span(self, chain2):
        cmp = jonsson_filters(chain2, chain2, chain2)
        assert len(cmp.glued_filters) == 2
        assert len(cmp.pb_points) == 2
        assert cmp.anti_isomorphism

    def test_chain_inside_two_b4s(self, chain3, b4):
        from wpml.generators import _relabel_prefix
        from wpml.lattice import enumerate_homs

        emb = next(h for h in enumerate_homs(chain3, b4) if h.is_injective())
        l1 = _relabel_prefix(chain3, b4, emb)
        l2 = _relabel_prefix(chain3, b4, emb)
        cmp = jonsson_filters(chain3, l1, l2)
        assert cmp.anti_isomorphism
        # matches the modal pullback point count for the same span
        assert len(cmp.glued_filters) == len(cmp.pb_points) == 6

    def test_gluing_mismatch(self, chain3, b4):
        with pytest.raises(GluingMismatch):
            jonsson_filters(b4, chain3, chain3)  # K bigger than L1

    def test_seeded_spans(self):
        rng = random.Random(55)
        for _ in range(10):
            k, l1, l2 = sample_inclusion_span(rng)
            cmp = jonsson_filters(k, l1, l2)
            assert cmp.anti_isomorphism
            # reverse-inclusion order versus componentwise inclusion
            for i, fi in enumerate(cmp.glued_filters):
                for j, fj in enumerate(cmp.glued_filters):
                    pi = cmp.pb_points[cmp.bijection[i]]
                    pj = cmp.pb_points[cmp.bijection[j]]
                    lhs = fi & ~fj == 0
                    rhs = pi[0] & ~pj[0] == 0 and pi[1] & ~pj[1] == 0
                    assert lhs == rhs

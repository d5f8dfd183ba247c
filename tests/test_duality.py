import random
from itertools import product

import pytest

from wpml.catalog import all_lattices, all_lframes
from wpml.duality import (
    _preimage_map,
    algebra_filters,
    clopfil,
    dual_of_frame_morphism,
    dual_of_hom,
    fil_l,
    is_tight,
    round_trip_iso,
    separating_filter,
    tightening,
)
from wpml.errors import PreconditionViolated
from wpml.generators import sample_modal_lattice, sample_vformation
from wpml.lattice import (
    LatticeMorphism,
    enumerate_homs,
    validate_morphism,
    with_identity_modalities,
)
from wpml.lframe import (
    ModalLFrame,
    box_mask,
    dia_mask,
    fil_f,
    filters,
    is_bounded_l_morphism,
    is_l_morphism,
)

from conftest import (
    all_modal_lframes,
    identity_modal,
    outcome,
    pointwise_preimage_map,
)


class TestFilL:
    def test_trivial_algebra(self):
        a = with_identity_modalities(all_lattices(1)[0])
        space = fil_l(a)
        assert space.frame.n == 1 and space.provenance == (1,)

    def test_three_chain_identity_modalities(self, chain3_modal):
        space = fil_l(chain3_modal)
        # filters of the 3-chain: {top}, {mid, top}, everything
        assert space.provenance == (0b100, 0b110, 0b111)
        # identity-tightened relation
        assert space.frame.succ == (1, 2, 4)

    def test_b4_has_four_filters(self, b4_modal):
        space = fil_l(b4_modal)
        assert space.frame.n == 4

    def test_algebra_filters_against_subset_scan(self):
        for n in range(1, 6):
            for lat in all_lattices(n):
                got = algebra_filters(lat)
                brute = []
                for mask in range(1, 1 << n):
                    members = [i for i in range(n) if mask >> i & 1]
                    up_ok = all(
                        mask >> j & 1
                        for i in members
                        for j in range(n)
                        if lat.leq[i][j]
                    )
                    meet_ok = all(
                        mask >> lat.meet[i][j] & 1 for i in members for j in members
                    )
                    if up_ok and meet_ok:
                        brute.append(mask)
                assert got == brute

    def test_output_is_always_tight(self):
        rng = random.Random(5)
        for _ in range(50):
            a = sample_modal_lattice(rng, rng.randint(1, 4))
            assert is_tight(fil_l(a).frame)


class TestClopfil:
    def test_delegates_to_fil_f(self, chain3_modal):
        space = fil_l(chain3_modal)
        assert clopfil(space) == fil_f(space.frame)

    def test_one_point(self):
        a = with_identity_modalities(all_lattices(1)[0])
        assert clopfil(fil_l(a)).n == 1


class TestRoundTrip:
    def test_trivial(self):
        a = with_identity_modalities(all_lattices(1)[0])
        iso = round_trip_iso(a)
        assert iso.map == (0,)

    def test_three_chain_order_preserved(self, chain3_modal):
        iso = round_trip_iso(chain3_modal)
        assert sorted(iso.map) == [0, 1, 2]
        validate_morphism(iso)

    def test_all_small_lattices_identity_modalities(self):
        for n in range(1, 6):
            for lat in all_lattices(n):
                round_trip_iso(with_identity_modalities(lat))

    def test_seeded_fil_f_lattices(self):
        rng = random.Random(17)
        for _ in range(60):
            frame_size = rng.randint(1, 4)
            a = sample_modal_lattice(rng, frame_size)
            iso = round_trip_iso(a)
            assert iso.is_injective() and iso.cod.n == a.n


class TestDualOfHom:
    def test_identity_dualizes_to_identity(self, chain3_modal):
        h = LatticeMorphism(chain3_modal, chain3_modal, (0, 1, 2), modal=True)
        f = dual_of_hom(h)
        assert f.map == tuple(range(f.dom.n))

    def test_three_chain_into_b4_dualizes_onto(self, chain3_modal, b4_modal):
        h = LatticeMorphism(chain3_modal, b4_modal, (0, 1, 3), modal=True)
        f = dual_of_hom(h)
        # 4 filters of B4 onto 3 filters of the chain
        assert f.dom.n == 4 and f.cod.n == 3
        assert f.is_surjective()
        assert is_bounded_l_morphism(f) is None
        # explicit preimage enumeration oracle
        space_b = fil_l(b4_modal)
        space_a = fil_l(chain3_modal)
        for i, fm in enumerate(space_b.provenance):
            pre = sum(1 << c for c in range(3) if fm >> h.map[c] & 1)
            assert space_a.provenance[f.map[i]] == pre

    def test_injective_hom_gives_surjective_dual(self):
        rng = random.Random(23)
        for _ in range(20):
            a = sample_modal_lattice(rng, rng.randint(1, 3))
            b = sample_modal_lattice(rng, rng.randint(1, 4))
            for h in enumerate_homs(a, b, modal=True):
                if h.is_injective():
                    assert dual_of_hom(h).is_surjective()

    def test_non_injective_hom_with_non_surjective_dual(
        self, chain3_modal, chain2_modal
    ):
        squash = LatticeMorphism(chain3_modal, chain2_modal, (0, 0, 1), modal=True)
        assert not squash.is_injective()
        f = dual_of_hom(squash)
        assert not f.is_surjective()
        assert f.dom.n == 2 and f.cod.n == 3

    def test_contravariant_functoriality(self, chain2_modal, chain3_modal, b4_modal):
        for h in enumerate_homs(chain2_modal, chain3_modal, modal=True):
            for g in enumerate_homs(chain3_modal, b4_modal, modal=True):
                lhs = dual_of_hom(g.compose(h))
                rhs = dual_of_hom(h).compose(dual_of_hom(g))
                assert lhs.map == rhs.map


class TestDualOfFrameMorphism:
    def test_identity(self, chain3_frame):
        x = identity_modal(chain3_frame)
        from wpml.lframe import FrameMorphism

        f = FrameMorphism(x, x, (0, 1, 2), "bounded-L")
        h = dual_of_frame_morphism(f)
        assert h.map == tuple(range(h.dom.n))

    def test_surjective_dualizes_to_injective(self):
        from wpml.lframe import enumerate_frame_morphisms

        frames = [x for n in range(1, 4) for x in all_modal_lframes(n)]
        rng = random.Random(3)
        sample = rng.sample(frames, 8)
        for x in sample:
            for y in sample[:4]:
                for f in enumerate_frame_morphisms(
                    x, y, "bounded-L", surjective_only=True
                ):
                    h = dual_of_frame_morphism(f)
                    assert h.is_injective()
                    assert h.modal

    def test_one_point_codomain(self, chain2_frame):
        # unit reflection forbids collapsing a larger frame onto the
        # one-point frame; only the one-point identity maps into it, and
        # its dual is the unique hom of the trivial lattice
        from wpml.lframe import FrameMorphism

        pt = identity_modal(all_lframes(1)[0])
        big = identity_modal(chain2_frame)
        collapse = FrameMorphism(big, pt, (0, 0), "L")
        bad = is_l_morphism(collapse)
        assert bad is not None and bad.condition == "unit-reflection"
        ident = FrameMorphism(pt, pt, (0,), "bounded-L")
        h = dual_of_frame_morphism(ident)
        assert h.dom.n == 1 and h.map == (0,)


class TestPreimageMap:
    def test_matches_the_per_point_loop(self):
        """The preimage table of both morphism duals against the loop it
        replaced: every map between catalog frames of at most 3 points,
        most of them not morphisms, so their preimages are often not
        filters; and the seeded legs of V-formations, as `dual_of_hom` maps them."""
        frames = [x for n in range(1, 4) for x in all_lframes(n)]
        failed = checked = 0
        for dom in frames:
            for cod in frames:
                for fmap in product(range(cod.n), repeat=dom.n):
                    args = (cod.filter_masks, dom._filter_index)
                    got = outcome(_preimage_map, fmap, cod.n, *args)
                    assert got == outcome(pointwise_preimage_map, fmap, *args)
                    failed += got[0] == "InternalInconsistency"
                    checked += 1
        assert 0 < failed < checked
        rng = random.Random(34)
        for _ in range(20):
            v = sample_vformation(rng)
            index = {m: i for i, m in enumerate(algebra_filters(v.k))}
            for h in (v.h1, v.h2):
                masks = algebra_filters(h.cod)
                got = _preimage_map(h.map, h.cod.n, masks, index)
                assert got == pointwise_preimage_map(h.map, masks, index)


class TestDualityCharacterizations:
    """Exhaustive finite checks that the morphism conditions are exactly
    the dual-side characterizations: a semilattice hom between small
    frames is an L-morphism iff its preimage map is a bounded-lattice
    hom; on tight frames it is bounded-L iff the preimage additionally
    preserves box and diamond (one direction holds on all frames)."""

    @staticmethod
    def _preimage_is_hom(x, y, mapping, modal):
        from itertools import product as _p

        from wpml.errors import MorphismInvalid
        from wpml.lframe import fil_f, fil_f_lattice

        if modal:
            ax, ay = fil_f(x), fil_f(y)
        else:
            ax, ay = fil_f_lattice(x), fil_f_lattice(y)
        # element i of a filter lattice is the frame's i-th filter mask
        xbase, ybase = (x.base, y.base) if modal else (x, y)
        idx = {m: i for i, m in enumerate(xbase.filter_masks)}
        pre = []
        for u in ybase.filter_masks:
            mask = sum(1 << p for p in range(x.n if modal else x.n) if u >> mapping[p] & 1)
            if mask not in idx:
                return False
            pre.append(idx[mask])
        try:
            validate_morphism(LatticeMorphism(ay, ax, tuple(pre), modal=modal))
        except MorphismInvalid:
            return False
        return True

    def test_l_morphism_iff_dual_lattice_hom(self):
        from itertools import product as _p

        from wpml.errors import MorphismInvalid
        from wpml.lframe import FrameMorphism, check_semilattice_hom

        checked = 0
        for n1 in range(1, 4):
            for x in all_lframes(n1):
                for n2 in range(1, 4):
                    for y in all_lframes(n2):
                        for mapping in _p(range(n2), repeat=n1):
                            f = FrameMorphism(x, y, mapping, "L")
                            try:
                                check_semilattice_hom(f)
                            except MorphismInvalid:
                                continue
                            is_l = is_l_morphism(f) is None
                            assert is_l == self._preimage_is_hom(
                                x, y, mapping, modal=False
                            ), (n1, n2, mapping)
                            checked += 1
        assert checked > 15

    def test_bounded_l_vs_modal_dual(self):
        from itertools import product as _p

        from wpml.errors import MorphismInvalid
        from wpml.lframe import FrameMorphism, check_semilattice_hom

        frames = [f for n in range(1, 4) for f in all_modal_lframes(n)]
        tight_checked = forward_checked = 0
        for x in frames:
            for y in frames:
                both_tight = is_tight(x) and is_tight(y)
                for mapping in _p(range(y.n), repeat=x.n):
                    f = FrameMorphism(x, y, mapping, "bounded-L")
                    try:
                        check_semilattice_hom(f)
                    except MorphismInvalid:
                        continue
                    if is_l_morphism(f) is not None:
                        continue
                    bounded = is_bounded_l_morphism(f) is None
                    dual_ok = self._preimage_is_hom(x, y, mapping, modal=True)
                    if bounded:
                        assert dual_ok, (x.succ, y.succ, mapping)
                        forward_checked += 1
                    if both_tight:
                        assert bounded == dual_ok, (x.succ, y.succ, mapping)
                        tight_checked += 1
        assert forward_checked > 100 and tight_checked > 1000


class TestTightness:
    def test_one_point(self):
        x = identity_modal(all_lframes(1)[0])
        assert is_tight(x)

    def test_identity_two_chain_is_tight(self, chain2_frame):
        assert is_tight(identity_modal(chain2_frame))

    def test_tightening_is_idempotent_and_grows(self):
        for n in range(1, 4):
            for x in all_modal_lframes(n):
                t = tightening(x)
                for a in range(n):
                    assert x.succ[a] & ~t[a] == 0  # only grows


def reference_dual_relation(a, points):
    """The relation of `fil_l` pair by pair, as first written: F R G iff
    box(c) in F implies c in G and c in G implies dia(c) in F."""
    succ = []
    for fi in points:
        row = 0
        for j, gj in enumerate(points):
            if all(
                (not fi >> a.box[c] & 1 or gj >> c & 1)
                and (not gj >> c & 1 or fi >> a.diamond[c] & 1)
                for c in range(a.n)
            ):
                row |= 1 << j
        succ.append(row)
    return tuple(succ)


def reference_tightening(frame):
    """`tightening` pair by pair, as first written: x R y iff for every
    filter u, x in box(u) implies y in u and y in u implies x in dia(u)."""
    fs = filters(frame.base)
    boxes = [(u, box_mask(frame, u)) for u in fs]
    dias = [(u, dia_mask(frame, u)) for u in fs]
    succ = []
    for x in range(frame.n):
        row = 0
        for y in range(frame.n):
            if all(not bm >> x & 1 or u >> y & 1 for u, bm in boxes) and all(
                not u >> y & 1 or dm >> x & 1 for u, dm in dias
            ):
                row |= 1 << y
        succ.append(row)
    return tuple(succ)


class TestCanonicalRelation:
    """The one mask pass behind `fil_l` and `tightening` against the
    pair-by-pair definitions."""

    def test_fil_l_matches_definition(self):
        frames = [x for n in range(1, 5) for x in all_modal_lframes(n)]
        algebras = [fil_f(x) for x in frames]
        rng = random.Random(9)
        algebras += [sample_modal_lattice(rng, rng.randint(1, 5)) for _ in range(40)]
        for a in algebras:
            space = fil_l(a)
            assert space.frame.succ == reference_dual_relation(a, space.provenance)

    def test_tightening_matches_definition(self):
        rng = random.Random(4)
        for n in range(1, 5):
            for x in all_modal_lframes(n):
                assert tightening(x) == reference_tightening(x)
            # any relation, valid or not, has a tightening
            for frame in all_lframes(n):
                for _ in range(40):
                    x = ModalLFrame(frame, tuple(rng.getrandbits(n) for _ in range(n)))
                    assert tightening(x) == reference_tightening(x)


class TestSeparatingFilter:
    def test_least_filter_and_empty_v(self, chain3_frame):
        one_only = 1 << chain3_frame.one
        assert separating_filter(chain3_frame, one_only, 0) == one_only

    def test_up_a_in_chain(self, chain3_frame):
        # U = up(m) = {m, 1}; V = down(0) = {0}
        w = separating_filter(chain3_frame, 0b110, 0b001)
        assert w == 0b110

    def test_overlap_rejected(self, chain3_frame):
        with pytest.raises(PreconditionViolated):
            separating_filter(chain3_frame, 0b110, 0b010)

    def test_non_filter_u_rejected(self, chain3_frame):
        with pytest.raises(PreconditionViolated):
            separating_filter(chain3_frame, 0b011, 0)

    def test_separator_separates(self, m2_frame):
        from wpml.lframe import is_filter

        full = m2_frame.full_mask
        for u in filters(m2_frame):
            for comp in filters(m2_frame):
                v = full & ~comp
                if u & v:
                    continue
                w = separating_filter(m2_frame, u, v)
                assert w is not None and is_filter(m2_frame, w)
                assert u & ~w == 0 and w & v == 0

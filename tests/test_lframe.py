import random
from itertools import islice, product, repeat

import pytest

from wpml.catalog import all_lframes, all_modal_lattices
from wpml.duality import is_tight
from wpml.errors import (
    InternalInconsistency,
    NotAPoset,
    PreconditionViolated,
    ResourceBound,
    UndefinedLetter,
)
from wpml.formulas import (
    And,
    Bot,
    Box,
    Dia,
    Or,
    Top,
    parse_formula,
    parse_pair,
    subformulas,
)
from wpml.generators import sample_modal_lframe
from wpml.lattice import check_modal_identities, validate_lattice
from wpml.lframe import (
    FrameMorphism,
    FrameViolation,
    LFrame,
    ModalLFrame,
    MorphismViolation,
    _base_maps,
    _forth_back_violation,
    _l_maps,
    enumerate_frame_morphisms,
    fil_f,
    fil_f_lattice,
    filter_closure,
    filters,
    frame_join,
    frame_validates,
    is_bounded_l_morphism,
    is_filter,
    is_l_morphism,
    lframe_from_leq,
    satisfies,
    _meet_reach,
    successor_extrema,
    truth_set,
    up_closure,
    validate_lframe,
    validate_modal_lframe,
)

from conftest import (
    all_modal_lframes,
    chain_leq,
    identity_modal,
    outcome,
    pairwise_filter_closure,
    pairwise_is_filter,
    pairwise_meet_reach,
    pairwise_modal_fixpoint,
    pairwise_up_closure,
    pairwise_violation,
    pointwise_forth_back_violation,
    pointwise_is_l_morphism,
    random_pairs,
    reference_frame_validates,
    relabeled,
)


class TestOutOfRangeIds:
    """The validators name an id outside the frame with a typed error
    instead of failing on an index or reading from the end of a row."""

    @pytest.mark.parametrize("entry", [9, -1])
    def test_meet_entry(self, entry):
        meet = [[0, entry, 0], [entry, 1, 1], [0, 1, 2]]
        with pytest.raises(NotAPoset, match="out of range"):
            validate_lframe(["a", "b", "c"], meet, 2)

    @pytest.mark.parametrize("succ", [[4, 2], [-1, 2]])
    def test_successor_mask(self, chain2_frame, succ):
        with pytest.raises(NotAPoset, match="out of range"):
            validate_modal_lframe(chain2_frame, succ)


class TestValidateModalLFrame:
    def test_identity_relation_always_accepted(self):
        for n in range(1, 5):
            for frame in all_lframes(n):
                out = validate_modal_lframe(frame, [(i, i) for i in range(n)])
                assert isinstance(out, ModalLFrame)

    def test_missing_successors_rejected(self, chain2_frame):
        out = validate_modal_lframe(chain2_frame, [(1, 1)])
        assert isinstance(out, FrameViolation)
        assert out.condition == "i" and out.witness == (0,)

    def test_full_two_chain_relation_accepted(self, chain2_frame):
        out = validate_modal_lframe(chain2_frame, [(1, 1), (0, 0), (0, 1)])
        assert isinstance(out, ModalLFrame)

    def test_exhaustive_two_chain(self, chain2_frame):
        # direct condition scan over all 16 relations: exactly three valid
        valid = []
        for bits in range(16):
            rel = [
                (x, y)
                for k, (x, y) in enumerate(product(range(2), repeat=2))
                if bits >> k & 1
            ]
            if isinstance(validate_modal_lframe(chain2_frame, rel), ModalLFrame):
                valid.append(bits)
        assert len(valid) == 3
        assert sorted(m.succ for m in all_modal_lframes(2)) == sorted(
            [(1, 2), (2, 2), (3, 2)]
        )

    def test_matches_literal_scan(self):
        """Condition name and witness equal a literal scan in the checker's
        documented order: every successor tuple on L-frames of up to 3
        points, then seeded tuples and one-edge edits of catalog frames on
        4 and 5 points."""
        cases = [
            (frame, succ)
            for n in range(1, 4)
            for frame in all_lframes(n)
            for succ in product(range(1 << n), repeat=n)
        ]
        rng = random.Random(6)
        for n in (4, 5):
            for frame in all_lframes(n):
                for _ in range(30):
                    succ = [rng.randrange(1, 1 << n) for _ in range(n)]
                    succ[frame.one] = 1 << frame.one
                    cases.append((frame, tuple(succ)))
            valid = list(all_modal_lframes(n))
            for x in rng.sample(valid, 300):
                succ = list(x.succ)
                succ[rng.randrange(n)] ^= 1 << rng.randrange(n)
                cases.append((x.base, tuple(succ)))
        seen = set()
        for frame, succ in cases:
            out = validate_modal_lframe(frame, succ)
            want = self.literal_violation(frame, succ)
            if want is None:
                assert isinstance(out, ModalLFrame) and out.succ == succ
            else:
                assert (out.condition, out.witness) == want, (frame.meet, succ)
                seen.add((want[0], len(want[1])))
        assert seen == {("v", 1), ("i", 1), ("i", 3), ("ii", 3), ("iv", 4), ("iii", 3)}

    @staticmethod
    def literal_violation(frame, succ):
        """(v), nonempty successor sets, (i)/(ii) over the pairs x below y,
        then (iv) before (iii) over all pairs, each straight from its
        definition."""
        points = range(frame.n)
        le, meet, one = frame.le, frame.meet, frame.one

        def r(x):
            return [u for u in points if succ[x] >> u & 1]

        if r(one) != [one]:
            return "v", (one,)
        for x in points:
            if not r(x):
                return "i", (x,)
        for x in points:
            for y in points:
                if not le(x, y):
                    continue
                for z in r(y):
                    if not any(le(w, z) for w in r(x)):
                        return "i", (x, y, z)
                for w in r(x):
                    if not any(le(w, z) for z in r(y)):
                        return "ii", (x, y, w)
        for x in points:
            for y in points:
                for u in r(x):
                    for v in r(y):
                        if meet[u][v] not in r(meet[x][y]):
                            return "iv", (x, y, u, v)
                for z in r(meet[x][y]):
                    if not any(le(meet[u][v], z) for u in r(x) for v in r(y)):
                        return "iii", (x, y, z)
        return None


class TestFilters:
    def brute(self, frame):
        return sorted(m for m in range(1, 1 << frame.n) if is_filter(frame, m))

    def test_three_chain(self, chain3_frame):
        assert filters(chain3_frame) == [0b100, 0b110, 0b111]

    def test_m2_diamond(self, m2_frame):
        # {1}, up(a), up(b), everything
        assert filters(m2_frame) == [0b1000, 0b1010, 0b1100, 0b1111]

    def test_one_point(self):
        frame = all_lframes(1)[0]
        assert filters(frame) == [1]

    def test_against_brute_force(self):
        for n in range(1, 6):
            for frame in all_lframes(n):
                assert filters(frame) == self.brute(frame)

    @staticmethod
    def closure_enumeration(frame):
        """Filters grown from {1} by repeated `filter_closure`, the
        enumeration that the principal up-sets replaced."""
        start = 1 << frame.one
        seen = {start}
        stack = [start]
        while stack:
            f = stack.pop()
            rest = frame.full_mask & ~f
            while rest:
                e = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                g = filter_closure(frame, f | 1 << e)
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return tuple(sorted(seen))

    def test_principal_up_sets_match_closure_enumeration(self):
        frames = [frame for n in range(1, 7) for frame in all_lframes(n)]
        rng = random.Random(77)
        frames += [sample_modal_lframe(rng, rng.randint(1, 7)).base for _ in range(200)]
        for frame in frames:
            assert frame.filter_masks == self.closure_enumeration(frame), frame.meet


class TestFilF:
    def test_identity_relation_gives_identity_operators(self, m2_frame):
        x = identity_modal(m2_frame)
        a = fil_f(x)
        assert a.box == tuple(range(a.n))
        assert a.diamond == tuple(range(a.n))

    def test_one_point_frame(self):
        x = identity_modal(all_lframes(1)[0])
        assert fil_f(x).n == 1

    def test_m2_filter_lattice_is_b4_shaped(self, m2_frame):
        from conftest import B4_LEQ

        a = fil_f(identity_modal(m2_frame))
        assert a.n == 4
        want = validate_lattice(B4_LEQ, 0, 3)
        assert a.leq == want.leq  # two incomparable mid elements

    def test_lattice_structure_revalidates(self):
        for n in range(1, 5):
            for frame in all_lframes(n):
                a = fil_f(identity_modal(frame))
                validate_lattice(a.leq, a.bot, a.top)

    def test_identities_on_seeded_sample(self):
        # frames of size <= 5: exhaustive for <= 4, seeded relations for 5
        rng = random.Random(11)
        from wpml.generators import sample_modal_lframe

        for _ in range(100):
            x = sample_modal_lframe(rng, rng.randint(1, 5))
            assert check_modal_identities(fil_f(x)) == []

    def test_filter_lattice_matches_definition(self):
        # filters by inclusion; meet is intersection, join the generated
        # filter; the lattice is built once per frame and shared
        frames = [x for n in range(1, 6) for x in all_lframes(n)]
        for frame in frames:
            fs = filters(frame)
            pos = {m: i for i, m in enumerate(fs)}
            lat = fil_f_lattice(frame)
            assert lat.elements == tuple(hex(m) for m in fs)
            assert lat.leq == tuple(tuple(a & b == a for b in fs) for a in fs)
            assert (lat.bot, lat.top) == (pos[1 << frame.one], pos[frame.full_mask])
            assert lat.meet == tuple(tuple(pos[a & b] for b in fs) for a in fs)
            assert lat.join == tuple(
                tuple(pos[filter_closure(frame, a | b)] for b in fs) for a in fs
            )
            assert fil_f_lattice(frame) is lat
            a = fil_f(identity_modal(frame))
            assert (a.elements, a.leq, a.meet, a.join) == (
                lat.elements, lat.leq, lat.meet, lat.join
            )


class TestMorphismCheckers:
    def test_identity_is_l_morphism(self, chain3_frame):
        f = FrameMorphism(chain3_frame, chain3_frame, (0, 1, 2), "L")
        assert is_l_morphism(f) is None

    def test_constant_to_one_violates_unit_reflection(self, chain2_frame):
        f = FrameMorphism(chain2_frame, chain2_frame, (1, 1), "L")
        bad = is_l_morphism(f)
        assert bad is not None and bad.condition == "unit-reflection"

    def test_meet_cover_violation(self, m2_frame, chain2_frame):
        # embed the 2-chain as {0, 1} inside the diamond: a meet b lands
        # on the image of x but neither a nor b is below any image point
        # except 1, and 1 meet 1 is not below x
        f = FrameMorphism(chain2_frame, m2_frame, (0, 3), "L")
        bad = is_l_morphism(f)
        assert bad is not None and bad.condition == "meet-cover"
        assert bad.witness == (0, 1, 2)  # x, a, b

    def test_identity_bounded(self, chain3_frame):
        x = identity_modal(chain3_frame)
        f = FrameMorphism(x, x, (0, 1, 2), "bounded-L")
        assert is_bounded_l_morphism(f) is None

    def test_back_below_is_named_before_back_above(self):
        # the diamond with its points named a, 0, b, 1: R'[b] = {a, 0, b},
        # and a is neither below nor above b, the image of R[x], so both
        # back conditions fail at a, the least point where one fails
        meet = [[0, 1, 1, 0], [1, 1, 1, 1], [1, 1, 2, 2], [0, 1, 2, 3]]
        diamond = validate_lframe(["a", "0", "b", "1"], meet, 3)
        cod = validate_modal_lframe(diamond, (2, 2, 7, 8))
        point = identity_modal(all_lframes(1)[0])
        f = FrameMorphism(point, cod, (2,), "bounded-L")
        assert _forth_back_violation(f) == MorphismViolation("back-below", (0, 0))

    def test_forth_violation(self, chain2_frame):
        x = validate_modal_lframe(chain2_frame, [(0, 0), (1, 1)])
        y = validate_modal_lframe(chain2_frame, [(0, 1), (1, 1)])
        f = FrameMorphism(x, y, (0, 1), "bounded-L")
        bad = is_bounded_l_morphism(f)
        assert bad is not None and bad.condition in ("forth", "back-below", "back-above")

    def test_enumerate_frame_morphisms_matches_checkers(self, chain3_frame, chain2_frame):
        x3 = identity_modal(chain3_frame)
        x2 = identity_modal(chain2_frame)
        got = list(enumerate_frame_morphisms(x3, x2, "bounded-L"))
        for f in got:
            assert is_bounded_l_morphism(f) is None
        # oracle: filter all maps
        oracle = []
        for mapping in product(range(2), repeat=3):
            f = FrameMorphism(x3, x2, mapping, "bounded-L")
            try:
                ok = is_bounded_l_morphism(f) is None
            except Exception:
                ok = False
            if ok:
                oracle.append(mapping)
        assert [f.map for f in got] == oracle

    def test_plain_enumeration_matches_brute_force(self):
        # oracle: every map preserving 1 and the meet, in lexicographic order
        frames = [x for n in range(1, 5) for x in all_lframes(n)]
        for x in frames:
            for y in frames:
                got = [f.map for f in enumerate_frame_morphisms(x, y, "plain")]
                oracle = [
                    mapping
                    for mapping in product(range(y.n), repeat=x.n)
                    if mapping[x.one] == y.one
                    and all(
                        mapping[x.meet[a][b]] == y.meet[mapping[a]][mapping[b]]
                        for a in range(x.n)
                        for b in range(x.n)
                    )
                ]
                assert got == oracle


def reference_frame_morphisms(dom, cod, kind, surjective_only=False):
    """The enumeration without a cache: every map that preserves 1 and
    the meet, in lexicographic order, filtered one map at a time by
    `is_l_morphism` or `is_bounded_l_morphism`."""
    dbase = dom.base if isinstance(dom, ModalLFrame) else dom
    cbase = cod.base if isinstance(cod, ModalLFrame) else cod
    out = []
    for mapping in product(range(cbase.n), repeat=dbase.n):
        if mapping[dbase.one] != cbase.one or any(
            mapping[dbase.meet[a][b]] != cbase.meet[mapping[a]][mapping[b]]
            for a in range(dbase.n)
            for b in range(dbase.n)
        ):
            continue
        cand = FrameMorphism(dom, cod, mapping, kind)
        if surjective_only and not cand.is_surjective():
            continue
        if kind == "L" and is_l_morphism(cand) is not None:
            continue
        if kind == "bounded-L" and is_bounded_l_morphism(cand) is not None:
            continue
        out.append(cand)
    return out


def morphism_frame_pairs():
    """Every pair of catalog modal L-frames of at most 3 points, and
    seeded pairs of sampled ones of at most 4."""
    small = [x for n in range(1, 4) for x in all_modal_lframes(n)]
    pairs = [(x, y) for x in small for y in small]
    rng = random.Random(31)
    for _ in range(80):
        pairs.append(
            (
                sample_modal_lframe(rng, rng.randint(1, 4)),
                sample_modal_lframe(rng, rng.randint(1, 4)),
            )
        )
    return pairs


class TestMorphismCache:
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_per_map_checkers(self, warm):
        # cold: the cache is cleared before each enumeration; warm: each
        # enumeration runs twice, and bounded-L reads what L filled
        found = {kind: 0 for kind in ("plain", "L", "bounded-L")}
        for dom, cod in morphism_frame_pairs():
            for surjective_only in (False, True):
                for kind in ("plain", "L", "bounded-L"):
                    want = reference_frame_morphisms(dom, cod, kind, surjective_only)
                    for _ in range(2 if warm else 1):
                        if not warm:
                            _l_maps.cache_clear()
                        got = list(
                            enumerate_frame_morphisms(dom, cod, kind, surjective_only)
                        )
                        assert got == want, (dom, cod, kind, surjective_only)
                    found[kind] += len(want)
        assert all(found.values()), found

    def test_bounded_violation_matches_literal_definition(self):
        # the first violation in the literal scan order: the L-morphism
        # conditions, then per point x forth over R[x], then back-below
        # and back-above per z in R'[f(x)]
        def literal(f):
            bad = is_l_morphism(f)
            if bad is not None:
                return bad
            dom, cod = f.dom, f.cod
            for x in range(dom.n):
                rx = [y for y in range(dom.n) if dom.rel(x, y)]
                for y in rx:
                    if not cod.rel(f.map[x], f.map[y]):
                        return MorphismViolation("forth", (x, y))
                for z in range(cod.n):
                    if not cod.rel(f.map[x], z):
                        continue
                    if not any(cod.le(f.map[y], z) for y in rx):
                        return MorphismViolation("back-below", (x, z))
                    if not any(cod.le(z, f.map[y]) for y in rx):
                        return MorphismViolation("back-above", (x, z))
            return None

        seen = set()
        for dom, cod in morphism_frame_pairs():
            for f in reference_frame_morphisms(dom, cod, "plain"):
                got = is_bounded_l_morphism(f)
                assert got == literal(f), f
                seen.add(got and got.condition)
        assert {"forth", "back-below", "back-above", None} <= seen

    def test_maps_depend_on_the_bases_only(self, chain3_frame, chain2_frame):
        x3, x2 = identity_modal(chain3_frame), identity_modal(chain2_frame)
        full = validate_modal_lframe(chain2_frame, [(0, 0), (0, 1), (1, 1)])
        _l_maps.cache_clear()
        assert [f.map for f in enumerate_frame_morphisms(x3, x2, "L")] == [
            f.map for f in enumerate_frame_morphisms(chain3_frame, chain2_frame, "L")
        ]
        assert _l_maps.cache_info().currsize == 1
        bounded = [f.map for f in enumerate_frame_morphisms(x3, full, "bounded-L")]
        assert bounded == [
            f.map for f in reference_frame_morphisms(x3, full, "bounded-L")
        ]
        assert _l_maps.cache_info().currsize == 1


class TestPointMapTables:
    """The morphism checks on the preimage and image tables against the
    per-point loops they replaced (see conftest): up to 40 maps that
    preserve 1 and meets and 10 arbitrary ones per pair of frames, on the
    frame pairs above, from the one-point frame into every 4-point one,
    and on seeded pairs of 5 to 8 points, renamed."""

    @staticmethod
    def frame_pairs(rng):
        # a one-point domain maps R[x] onto any one point, which on a
        # 4-point frame can have successors incomparable with it
        point = identity_modal(all_lframes(1)[0])
        pairs = morphism_frame_pairs() + [(point, y) for y in all_modal_lframes(4)]
        for _ in range(40):
            dom, cod = (sample_modal_lframe(rng, rng.randint(5, 8)) for _ in range(2))
            base = relabeled(dom.base, rng)
            # the renaming leaves the relation as it was, so `dom` need not
            # be a modal L-frame: the checks read the relation all the same
            pairs.append((ModalLFrame(base, dom.succ), cod))
        return pairs

    def test_morphism_checks_match_the_per_point_loops(self):
        rng = random.Random(33)
        seen = set()
        for dom, cod in self.frame_pairs(rng):
            maps = list(islice(_base_maps(dom.base, cod.base), 40))
            maps += [tuple(rng.randrange(cod.n) for _ in dom.succ) for _ in range(10)]
            for fmap in maps:
                f = FrameMorphism(dom, cod, fmap, "bounded-L")
                got = outcome(is_l_morphism, f)
                assert got == outcome(pointwise_is_l_morphism, f), f
                seen.add(getattr(got, "condition", got))
                got = _forth_back_violation(f)
                assert got == pointwise_forth_back_violation(f), f
                seen.add(got and got.condition)
        assert {None, "unit-reflection", "meet-cover", "forth"} <= seen
        assert {"back-below", "back-above"} <= seen
        assert ("MorphismInvalid", "1 not preserved") in seen


class TestSatisfaction:
    def test_top_always(self, m2_frame):
        x = identity_modal(m2_frame)
        for point in range(x.n):
            assert satisfies(x, {}, point, parse_formula("T"))

    def test_bottom_only_at_one(self, chain3_frame):
        x = identity_modal(chain3_frame)
        f = parse_formula("F")
        assert satisfies(x, {}, x.one, f)
        for point in range(x.n):
            if point != x.one:
                assert not satisfies(x, {}, point, f)

    def test_box_under_identity_relation(self, m2_frame):
        x = identity_modal(m2_frame)
        val = {"p": 0b1010}
        for point in range(x.n):
            assert satisfies(x, val, point, parse_formula("[]p")) == satisfies(
                x, val, point, parse_formula("p")
            )

    def test_undefined_letter(self, chain2_frame):
        x = identity_modal(chain2_frame)
        with pytest.raises(UndefinedLetter):
            satisfies(x, {}, 0, parse_formula("p"))

    def test_truth_sets_agree_with_pointwise_and_are_filters(self):
        # every valid frame of size <= 3, formulas of depth <= 2 over two
        # letters, all filter-valued valuations
        forms = [
            parse_formula(s)
            for s in (
                "p", "q", "T", "F", "p & q", "p v q", "[]p", "<>p",
                "[](p v q)", "<>(p & q)", "[]p & <>q", "p v []q",
            )
        ]
        for n in range(1, 4):
            for x in all_modal_lframes(n):
                fs = filters(x.base)
                for vp in fs:
                    for vq in fs:
                        val = {"p": vp, "q": vq}
                        for f in forms:
                            ts = truth_set(x, val, f)
                            assert ts == sum(
                                1 << pt
                                for pt in range(x.n)
                                if satisfies(x, val, pt, f)
                            )
                            assert is_filter(x.base, ts)

    def test_truth_set_filter_invariant_size_4_depth_3(self):
        # seeded slice of the size-4, depth-3 grid
        from wpml.generators import sample_modal_lframe

        forms = [
            parse_formula(s)
            for s in (
                "[](p v q)", "<>([]p & q)", "[]<>p", "<>(p v <>q)",
                "[](p & q) v <>q", "([]p v q) & <>p", "F v []q",
            )
        ]
        rng = random.Random(8)
        for _ in range(25):
            x = sample_modal_lframe(rng, 4)
            fs = filters(x.base)
            for vp in fs:
                for vq in fs:
                    val = {"p": vp, "q": vq}
                    for f in forms:
                        ts = truth_set(x, val, f)
                        assert is_filter(x.base, ts)
                        assert ts == sum(
                            1 << pt
                            for pt in range(x.n)
                            if satisfies(x, val, pt, f)
                        )


class TestFrameValidates:
    def test_reflexive_frame_validates_t(self, chain3_frame):
        x = identity_modal(chain3_frame)
        assert frame_validates(x, parse_pair("[]p |- p")) is None

    def test_some_nonreflexive_frame_refutes_t(self):
        # exhaustive sweep: the least frame with a non-reflexive tight
        # point refuting []p |- p
        from wpml.correspondence import frame_satisfies

        pair = parse_pair("[]p |- p")
        found = None
        for n in range(1, 4):
            for x in all_modal_lframes(n):
                cv = frame_validates(x, pair)
                if cv is not None:
                    found = (x, cv)
                    break
            if found:
                break
        assert found is not None
        x, cv = found
        assert not frame_satisfies(x, "reflexivity")[0]
        lhs = truth_set(x, cv, parse_formula("[]p"))
        rhs = truth_set(x, cv, parse_formula("p"))
        assert lhs & ~rhs

    def test_bottom_axiom(self):
        for n in range(1, 4):
            for x in all_modal_lframes(n):
                assert frame_validates(x, parse_pair("F |- p")) is None

    def test_budget(self, m2_frame):
        x = identity_modal(m2_frame)
        with pytest.raises(ResourceBound):
            frame_validates(x, parse_pair("a & b & c |- d"), budget=7)


class TestVectorFrameValidates:
    """The value-vector `frame_validates` against the literal loop."""

    def test_matches_literal_loop_on_every_small_frame(self):
        pairs = random_pairs(random.Random(2024), 36) + [
            parse_pair(s)
            for s in ("[]p & <>q |- <>(p & q)", "p v q |- [](p & r)", "T |- F")
        ]
        kinds = {
            type(g)
            for pair in pairs
            for side in (pair.lhs, pair.rhs)
            for g in subformulas(side)
        }
        assert {Top, Bot, And, Or, Box, Dia} <= kinds
        refuted = held = 0
        for n in range(1, 5):
            for x in all_modal_lframes(n):
                for pair in pairs:
                    got = frame_validates(x, pair)
                    want = reference_frame_validates(x, pair)
                    assert got == want, (n, x.succ, str(pair))
                    if want is None:
                        held += 1
                    else:
                        assert list(got) == list(want)
                        refuted += 1
        assert refuted > 1000 and held > 1000

    def test_same_resource_bound(self, m2_frame):
        x = identity_modal(m2_frame)
        pair = parse_pair("a & b & c |- d")
        with pytest.raises(ResourceBound) as fast:
            frame_validates(x, pair, budget=7)
        with pytest.raises(ResourceBound) as slow:
            reference_frame_validates(x, pair, budget=7)
        assert (fast.value.needed, fast.value.budget) == (256, 7)
        assert (slow.value.needed, slow.value.budget) == (256, 7)

    @pytest.mark.parametrize("n", [16, 17])
    def test_chains_of_sixteen_and_seventeen_filters(self, n):
        # a chain has one filter per point
        base = lframe_from_leq(tuple(map(str, range(n))), chain_leq(n), n - 1)
        pairs = random_pairs(random.Random(n), 20, names=("p", "q"))
        step = [(x, min(x + 1, n - 1)) for x in range(n)]
        refuted = 0
        for rel in ([(x, x) for x in range(n)], step):
            x = validate_modal_lframe(base, rel)
            assert isinstance(x, ModalLFrame)
            for pair in pairs:
                got = frame_validates(x, pair)
                want = reference_frame_validates(x, pair)
                assert got == want, (n, rel, str(pair))
                if want is not None:
                    assert list(got) == list(want)
                    refuted += 1
        assert 0 < refuted < 2 * len(pairs)

    @pytest.mark.parametrize("n", [256, 257])
    def test_both_sides_of_the_byte_switch(self, n):
        # 256 filters take bytes and the translate tables, 257 tuples; the
        # chain is trusted, and no pair has a join, whose filter table
        # would be slow to build at this size.  Box and diamond differ only
        # under the last relation, the one with two successors per point.
        meet = tuple(tuple(map(min, repeat(x), range(n))) for x in range(n))
        base = LFrame(tuple(map(str, range(n))), meet, n - 1)
        texts = (
            "[]p |- p",
            "<>p |- p",
            "p |- []<>p",
            "<>p & []T |- <>[]p",
            "[][]p |- <>F",
        )
        pairs = [parse_pair(s) for s in texts]
        identity = [(x, x) for x in range(n)]
        step = [(x, min(x + 1, n - 1)) for x in range(n)]
        refuted = 0
        for rel in (identity, step, identity + step):
            x = validate_modal_lframe(base, rel)
            assert isinstance(x, ModalLFrame)
            for pair in pairs:
                got = frame_validates(x, pair)
                assert got == reference_frame_validates(x, pair), (n, str(pair))
                refuted += got is not None
            assert ("unary_tables" in vars(x)) == (n <= 256)
        assert 0 < refuted < 3 * len(pairs)
        assert "filter_join_table" not in vars(base)

    @pytest.mark.parametrize("n", [16, 17])
    def test_resource_bound_before_any_table(self, n):
        base = lframe_from_leq(tuple(map(str, range(n))), chain_leq(n), n - 1)
        x = validate_modal_lframe(base, [(x, min(x + 1, n - 1)) for x in range(n)])
        pair = parse_pair("[]p & q |- <>r")
        for check in (frame_validates, reference_frame_validates):
            with pytest.raises(ResourceBound) as exc:
                check(x, pair, budget=n**3 - 1)
            assert (exc.value.needed, exc.value.budget) == (n**3, n**3 - 1)
        assert "filter_meet_table" not in vars(base)
        assert "filter_modalities" not in vars(x)
        got = frame_validates(x, pair, budget=n**3)
        assert got == reference_frame_validates(x, pair, budget=n**3)
        assert got is not None

    def test_box_of_a_filter_not_a_filter(self, chain2_frame):
        # 1 R x breaks condition (v); box{1} = {x} is not up-closed
        x = ModalLFrame(chain2_frame, (0b10, 0b01))
        assert isinstance(validate_modal_lframe(chain2_frame, x.succ), FrameViolation)
        with pytest.raises(InternalInconsistency):
            frame_validates(x, parse_pair("[]p |- p"))
        with pytest.raises(InternalInconsistency):
            fil_f(x)
        # a modality-free pair needs no box/diamond table
        assert frame_validates(x, parse_pair("p & q |- p")) is None

    def test_filters_are_cached_but_returned_fresh(self, m2_frame):
        first = filters(m2_frame)
        first.append(0)
        assert filters(m2_frame) == [0b1000, 0b1010, 0b1100, 0b1111]
        assert filters(m2_frame) is not filters(m2_frame)


class TestModalCatalog:
    def test_sizes_and_tight_frames_are_pinned(self):
        """The catalog of each size up to 5, and its tight frames: by the
        duality, as many as the modal lattices of that size."""
        sizes, tight = [], []
        for n in range(1, 6):
            frames = list(all_modal_lframes(n))
            sizes.append(len(frames))
            tight.append(sum(map(is_tight, frames)))
        assert sizes == [1, 3, 25, 546, 21_627]
        assert tight == [len(all_modal_lattices(n)) for n in range(1, 6)]
        assert tight == [1, 3, 20, 275, 4_842]

    def test_matches_brute_force_validation(self):
        """Every tuple of meet-closed successor sets, in lexicographic
        order, kept when the full `validate_modal_lframe` accepts it.  The
        condition (iii) kernel it shares with the catalog is checked
        against the literal definition on the way."""
        rejected_by_iii = 0
        for n in range(1, 5):
            want = []
            for frame in all_lframes(n):
                closed = [
                    mask
                    for mask in range(1 << n)
                    if all(
                        mask >> frame.meet[x][y] & 1
                        for x in range(n)
                        for y in range(n)
                        if mask >> x & mask >> y & 1
                    )
                ]
                for succ in product(closed, repeat=n):
                    x = validate_modal_lframe(frame, succ)
                    if isinstance(x, ModalLFrame):
                        assert self.literal_iii(frame, succ)
                        want.append(x)
                    elif x.condition == "iii":
                        assert not self.literal_iii(frame, succ)
                        rejected_by_iii += 1
            assert list(all_modal_lframes(n)) == want
        assert rejected_by_iii > 0

    @staticmethod
    def literal_iii(frame, succ):
        """(x meet y) R z needs u in R[x], v in R[y] with u meet v below z."""
        points = range(frame.n)

        def r(x):
            return [u for u in points if succ[x] >> u & 1]

        return all(
            any(frame.le(frame.meet[u][v], z) for u in r(x) for v in r(y))
            for x in points
            for y in points
            for z in r(frame.meet[x][y])
        )


def boolean_frame(k):
    """The 2**k subsets of k bits under intersection, top the full set."""
    n = 1 << k
    meet = tuple(tuple(a & b for b in range(n)) for a in range(n))
    return LFrame(tuple(map(str, range(n))), meet, n - 1)


def near_modal_relations(rng, frame, count):
    """Seeded successor tuples near the modal L-frames on `frame`: a
    random relation grown by the pairwise fixpoint, then none, one or two
    edges flipped."""
    n = frame.n
    out = []
    while len(out) < count:
        density = rng.choice((0.2, 0.4))
        succ = [
            sum(1 << y for y in range(n) if rng.random() < density) for _ in range(n)
        ]
        pairwise_modal_fixpoint(frame, succ, rounds=4 * n * n + 4)
        for _ in range(rng.randint(0, 2)):
            succ[rng.randrange(n)] ^= 1 << rng.randrange(n)
        out.append(tuple(succ))
    return out


class TestTableKernels:
    """The kernels on the frames' closure and meet-image tables against
    the per-pair loops they replaced (see conftest): on catalog frames of
    up to 4 points, on sampled frames of 5-8 points with their points
    renamed and on the Boolean frame of 256 points."""

    @staticmethod
    def assert_kernels_agree(frame, succ, masks):
        out = validate_modal_lframe(frame, succ)
        want = pairwise_violation(frame, succ)
        if want is None:
            assert isinstance(out, ModalLFrame) and out.succ == tuple(succ)
        else:
            assert (out.condition, out.witness) == want, (frame.meet, succ)
        for a, b in zip(masks, masks[1:]):
            assert _meet_reach(frame, a, b) == pairwise_meet_reach(frame, a, b)
            assert up_closure(frame, a) == pairwise_up_closure(frame, a)
            assert filter_closure(frame, a) == pairwise_filter_closure(frame, a)
            assert is_filter(frame, a) == pairwise_is_filter(frame, a)
        return want

    def test_catalog_frames_up_to_four_points(self):
        rng = random.Random(30)
        seen = set()
        for n in range(1, 5):
            for frame in all_lframes(n):
                cases = [x.succ for x in all_modal_lframes(n) if x.base == frame]
                cases += near_modal_relations(rng, frame, 12)
                cases += [
                    tuple(rng.randrange(1 << n) for _ in range(n)) for _ in range(12)
                ]
                masks = list(range(1 << n))
                for succ in cases:
                    want = self.assert_kernels_agree(frame, succ, masks)
                    seen.add(want and want[0])
        assert seen == {None, "v", "i", "ii", "iii", "iv"}

    def test_sampled_frames_of_five_to_eight_points(self):
        rng = random.Random(31)
        seen = set()
        for _ in range(120):
            frame = relabeled(sample_modal_lframe(rng, rng.randint(5, 8)).base, rng)
            masks = [rng.getrandbits(frame.n) for _ in range(6)]
            for succ in near_modal_relations(rng, frame, 3):
                want = self.assert_kernels_agree(frame, succ, masks)
                seen.add(want and want[0])
        assert seen >= {None, "i", "ii", "iv"}

    def test_boolean_frame_of_256_points(self):
        frame = boolean_frame(8)
        n, rng = frame.n, random.Random(32)
        identity = [1 << x for x in range(n)]
        cases = [identity]
        for _ in range(4):
            succ = list(identity)
            for _ in range(rng.randint(1, 3)):
                succ[rng.randrange(n - 1)] |= 1 << rng.randrange(n)
            cases.append(succ)
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(5)]
        masks += [sum(1 << rng.randrange(n) for _ in range(3)) for _ in range(5)]
        seen = {
            self.assert_kernels_agree(frame, succ, masks) is None for succ in cases
        }
        assert seen == {True, False}
        # the tables hold only what was read
        assert len(frame.up_closures) < 1 << 10


class TestSuccessorStructure:
    def test_extrema_identity(self, m2_frame):
        x = identity_modal(m2_frame)
        for point in range(x.n):
            assert successor_extrema(x, point, point) == (point, point)

    def test_extrema_in_chain_successors(self):
        # frame: 3-chain with R[0] = {0, m, 1} (a 3-chain inside)
        frames = all_lframes(3)
        x = validate_modal_lframe(
            frames[0], [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        )
        assert isinstance(x, ModalLFrame)
        assert successor_extrema(x, 0, 1) == (0, 2)

    def test_extrema_requires_edge(self, chain2_frame):
        x = identity_modal(chain2_frame)
        with pytest.raises(PreconditionViolated):
            successor_extrema(x, 0, 1)

    def test_successor_sets_nonempty_and_meet_closed(self):
        for n in range(1, 5):
            for x in all_modal_lframes(n):
                for pt in range(x.n):
                    s = x.succ[pt]
                    assert s != 0
                    members = [w for w in range(x.n) if s >> w & 1]
                    for a in members:
                        for b in members:
                            assert s >> x.meet[a][b] & 1

    def test_non_convex_successor_set_exists_on_valid_non_tight_frame(self):
        # R[m] = {0, 1} on the 3-chain is valid per the five conditions but
        # not convex; tightening adds (m, m).  Convexity is a property of
        # tight frames (spaces), not of all valid frames.
        from wpml.duality import is_tight, tightening

        frames = all_lframes(3)
        x = validate_modal_lframe(
            frames[0], [(0, 0), (0, 2), (1, 0), (1, 2), (2, 2)]
        )
        assert isinstance(x, ModalLFrame)
        assert x.succ[1] == 0b101  # 0 and 1(=top id 2)... mask {0, 2}
        assert not is_tight(x)
        assert tightening(x)[1] & 0b010  # (m, m) appears after tightening

    def test_convexity_holds_on_tight_frames(self):
        from wpml.duality import is_tight

        for n in range(1, 5):
            for x in all_modal_lframes(n):
                if not is_tight(x):
                    continue
                for pt in range(x.n):
                    members = [w for w in range(x.n) if x.succ[pt] >> w & 1]
                    for a in members:
                        for b in members:
                            for c in range(x.n):
                                if x.le(a, c) and x.le(c, b):
                                    assert x.succ[pt] >> c & 1


class TestFrameJoin:
    def test_singleton(self, m2_frame):
        for point in range(m2_frame.n):
            assert frame_join(m2_frame, [point]) == point

    def test_incomparable_pair_joins_to_one(self, m2_frame):
        assert frame_join(m2_frame, [1, 2]) == 3

    def test_everything_joins_to_one(self, m2_frame):
        assert frame_join(m2_frame, list(range(4))) == m2_frame.one

    def test_join_is_least_upper_bound(self):
        for n in range(1, 5):
            for frame in all_lframes(n):
                for a in range(n):
                    for b in range(n):
                        j = frame_join(frame, [a, b])
                        assert frame.le(a, j) and frame.le(b, j)
                        for c in range(n):
                            if frame.le(a, c) and frame.le(b, c):
                                assert frame.le(j, c)

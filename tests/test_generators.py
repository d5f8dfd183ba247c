import random

import pytest

from wpml.amalgam import validate_vformation
from wpml.errors import SizeCap
from wpml.generators import (
    _condition_closure,
    _family_lframe,
    _modal_fixpoint,
    sample_inclusion_span,
    sample_lframe,
    sample_modal_lattice,
    sample_modal_lframe,
    sample_vformation,
)
from wpml.lattice import check_modal_identities, validate_lattice
from wpml.lframe import ModalLFrame, _l_maps, validate_lframe, validate_modal_lframe
from wpml.correspondence import CONDITIONS, INCLUSIONS, frame_satisfies

from wpml.catalog import all_lframes

from conftest import literal_closure, pairwise_modal_fixpoint, relabeled


class TestDeterminism:
    def test_same_seed_same_frames(self):
        a = [sample_modal_lframe(random.Random(5), s) for s in (2, 3, 4)]
        b = [sample_modal_lframe(random.Random(5), s) for s in (2, 3, 4)]
        assert a == b

    def test_same_seed_same_vformation(self):
        va = sample_vformation(random.Random(9))
        vb = sample_vformation(random.Random(9))
        assert va == vb

    def test_stream_advances(self):
        rng = random.Random(9)
        va = sample_vformation(rng)
        vb = sample_vformation(rng)
        assert va != vb or (va.k.n == vb.k.n and va == vb)


class TestPostValidation:
    def test_frames_revalidate(self):
        rng = random.Random(100)
        for _ in range(40):
            x = sample_modal_lframe(rng, rng.randint(1, 5))
            base = validate_lframe(x.elements, x.meet, x.one)
            assert isinstance(validate_modal_lframe(base, x.succ), ModalLFrame)

    def test_lattices_satisfy_identities(self):
        rng = random.Random(101)
        for _ in range(30):
            a = sample_modal_lattice(rng, rng.randint(1, 5))
            validate_lattice(a.leq, a.bot, a.top)
            assert check_modal_identities(a) == []

    def test_vformations_validate(self):
        rng = random.Random(102)
        for _ in range(15):
            v = sample_vformation(rng)
            validate_vformation(v)
            assert v.k.n <= 4 and v.l1.n <= 5 and v.l2.n <= 5

    def test_conditioned_frames_satisfy_condition(self):
        rng = random.Random(103)
        for tag in CONDITIONS:
            for _ in range(5):
                x = sample_modal_lframe(rng, rng.randint(2, 4), tag)
                assert frame_satisfies(x, tag)[0]

    def test_size_cap(self):
        with pytest.raises(SizeCap):
            sample_lframe(random.Random(0), 99)

    def test_inclusion_spans_share_prefix(self):
        rng = random.Random(104)
        for _ in range(10):
            k, l1, l2 = sample_inclusion_span(rng)
            for lat in (l1, l2):
                for a in range(k.n):
                    for b in range(k.n):
                        assert lat.leq[a][b] == k.leq[a][b]
                        assert lat.meet[a][b] == k.meet[a][b]
                        assert lat.join[a][b] == k.join[a][b]
                assert lat.bot == k.bot and lat.top == k.top


def fixpoint_states(rng, count):
    """(L-frame, successor masks) as the sampler holds them after
    `_modal_fixpoint`: a random relation grown toward (i)-(v)."""
    states = []
    while len(states) < count:
        frame = sample_lframe(rng, rng.randint(2, 8))
        n = frame.n
        density = rng.choice((0.2, 0.35, 0.5))
        succ = [sum(1 << y for y in range(n) if rng.random() < density) for _ in range(n)]
        if _modal_fixpoint(frame, succ, rounds=4 * n * n + 4):
            states.append((frame, succ))
    return states


def test_fixpoint_matches_the_pairwise_repairs():
    """`_modal_fixpoint` on the frames' tables grows the same relation and
    returns the same verdict as its per-pair loops, on catalog frames of
    up to 4 points and sampled frames of 5-8 points with their points
    renamed, at round limits that stop some relations short."""
    rng = random.Random(2030)
    frames = [frame for n in range(1, 5) for frame in all_lframes(n)]
    for _ in range(150):
        frames.append(relabeled(sample_lframe(rng, rng.randint(5, 8)), rng))
    verdicts = set()
    for frame in frames:
        n = frame.n
        for _ in range(4):
            density = rng.choice((0.2, 0.35, 0.5))
            start = [
                sum(1 << y for y in range(n) if rng.random() < density)
                for _ in range(n)
            ]
            rounds = rng.choice((1, 2, 4 * n * n + 4))
            got, want = list(start), list(start)
            verdict = _modal_fixpoint(frame, got, rounds)
            assert verdict == pairwise_modal_fixpoint(frame, want, rounds)
            assert got == want, (frame.meet, start, rounds)
            verdicts.add((verdict, rounds > 2))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_horn_closure_is_the_literal_least_fixpoint():
    # accepted: the least relation closed under the clause; rejected
    # exactly when that relation gives the top point another successor,
    # which reflexivity and transitivity never do from R[top] = {top}
    outcomes = {tag: set() for tag in INCLUSIONS}
    for frame, succ in fixpoint_states(random.Random(1984), 300):
        for tag in INCLUSIONS:
            got = list(succ)
            accepted = _condition_closure(frame, got, tag)
            want = literal_closure(tag, succ, frame.one)
            assert accepted == (want is not None), (tag, succ)
            if accepted:
                assert got == want, (tag, succ)
            outcomes[tag].add(accepted)
    assert outcomes == {
        "reflexivity": {True},
        "transitivity": {True},
        "symmetry": {True, False},
        "euclideanity": {True, False},
    }


def reference_sample_lframe(rng, size):
    """`sample_lframe` without interning: one fresh, validated `LFrame`
    per draw."""
    m = min(5, max(2, size - 1))
    full = (1 << m) - 1
    for _ in range(200):
        family = {full}
        for _ in range(4 * size):
            if len(family) == size:
                break
            cand = rng.getrandbits(m)
            new = set(family)
            new.add(cand)
            frontier = [cand]
            while frontier:
                a = frontier.pop()
                for b in list(new):
                    c = a & b
                    if c not in new:
                        new.add(c)
                        frontier.append(c)
            if len(new) <= size:
                family = new
        if len(family) != size:
            continue
        members = sorted(family)
        idx = {s: i for i, s in enumerate(members)}
        meet = [[idx[a & b] for b in members] for a in members]
        names = tuple(f"s{bin(s)[2:]}" for s in members)
        return validate_lframe(names, meet, idx[full])
    raise SizeCap(f"could not sample a {size}-element semilattice")


CACHES = (_family_lframe, _l_maps)

SAMPLERS = {
    "lframe": lambda rng: sample_lframe(rng, rng.randint(1, 8)),
    "modal_lattice": lambda rng: sample_modal_lattice(rng, rng.randint(1, 5)),
    "vformation": lambda rng: sample_vformation(rng, rng.randint(1, 5)),
    **{
        f"modal_lframe:{tag}": (
            lambda rng, tag=tag: sample_modal_lframe(rng, rng.randint(1, 5), tag)
        )
        for tag in (None, *CONDITIONS)
    },
}


class TestSamplerCaches:
    @staticmethod
    def draws(sampler, seed, cold, count):
        """(output, rng state) after each of `count` draws from one stream;
        with `cold`, every cache is cleared before each draw."""
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            if cold:
                for cache in CACHES:
                    cache.cache_clear()
            out.append((sampler(rng), rng.getstate()))
        return out

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_cleared_caches_change_no_draw(self, name):
        count = 6 if name == "vformation" else 12
        for seed in (0, 41):
            warm = self.draws(SAMPLERS[name], seed, False, count)
            assert warm == self.draws(SAMPLERS[name], seed, True, count)
            assert warm == self.draws(SAMPLERS[name], seed, False, count)

    def test_lframe_matches_uninterned_sampler(self):
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            for size in (1, 2, 3, 4, 5, 6, 7, 8):
                assert sample_lframe(rng, size) == reference_sample_lframe(ref, size)
                assert rng.getstate() == ref.getstate()

    def test_equal_families_share_one_frame(self):
        a = sample_lframe(random.Random(8), 5)
        b = sample_lframe(random.Random(8), 5)
        assert a is b
        fam = (0b001, 0b011, 0b101, 0b111)
        assert _family_lframe(fam, 0b111) is _family_lframe(tuple(list(fam)), 0b111)
        want = validate_lframe(
            ("s1", "s11", "s101", "s111"),
            ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)),
            3,
        )
        assert _family_lframe(fam, 0b111) == want

    def test_every_cache_is_bounded(self):
        for cache in CACHES:
            assert isinstance(cache.cache_info().maxsize, int)

import random

import pytest

from wpml.amalgam import validate_vformation
from wpml.errors import SizeCap
from wpml.generators import (
    _condition_closure,
    _modal_fixpoint,
    sample_inclusion_span,
    sample_lframe,
    sample_modal_lattice,
    sample_modal_lframe,
    sample_vformation,
)
from wpml.lattice import check_modal_identities, validate_lattice
from wpml.lframe import ModalLFrame, validate_lframe, validate_modal_lframe
from wpml.correspondence import CONDITIONS, INCLUSIONS, frame_satisfies

from conftest import literal_closure


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

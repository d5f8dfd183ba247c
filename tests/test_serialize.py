import json
import random

import pytest

from wpml.errors import WpmlError
from wpml.generators import sample_modal_lattice, sample_modal_lframe, sample_vformation
from wpml.serialize import (
    PayloadError,
    dumps,
    frame_from_json,
    frame_to_json,
    lattice_from_json,
    lattice_to_json,
    load_artifact,
    unwrap,
    vformation_from_json,
    vformation_to_json,
    wrap,
)


class TestEnvelope:
    def test_wrap_unwrap(self):
        obj = wrap("lattice", {"kind": "lattice"})
        kind, payload = unwrap(obj)
        assert kind == "lattice"

    def test_bad_format(self):
        with pytest.raises(PayloadError):
            unwrap({"format": "other/9", "kind": "lattice", "payload": {}})

    def test_kind_mismatch(self):
        with pytest.raises(PayloadError):
            unwrap(
                {"format": "wpml/1", "kind": "lattice", "payload": {"kind": "lframe"}}
            )

    def test_dumps_is_stable(self):
        obj = wrap("x", {"b": 1, "a": 2})
        assert dumps(obj) == dumps(json.loads(dumps(obj)))


class TestLatticeCodec:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(10):
            a = sample_modal_lattice(rng, rng.randint(1, 4))
            back = lattice_from_json(lattice_to_json(a))
            assert back.leq == a.leq
            assert back.box == a.box and back.diamond == a.diamond

    def test_identity_check_on_load(self, b4):
        payload = lattice_to_json(b4)
        payload["kind"] = "modal_lattice"
        payload["box"] = [3, 3, 3, 3]
        payload["diamond"] = [0, 0, 0, 0]  # breaks T = <>T
        with pytest.raises(WpmlError):
            lattice_from_json(payload)

    def test_plain_lattice(self, chain3):
        back = lattice_from_json(lattice_to_json(chain3))
        assert back.leq == chain3.leq and back.meet == chain3.meet


class TestFrameCodec:
    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(10):
            x = sample_modal_lframe(rng, rng.randint(1, 4))
            back = frame_from_json(frame_to_json(x))
            assert back == x

    def test_invalid_relation_rejected(self, chain2_frame):
        payload = frame_to_json(chain2_frame)
        payload["kind"] = "modal_lframe"
        payload["R"] = [[1, 1]]  # missing successors below
        with pytest.raises(WpmlError):
            frame_from_json(payload)


class TestVFormationCodec:
    def test_round_trip(self):
        v = sample_vformation(random.Random(3))
        back = vformation_from_json(vformation_to_json(v))
        assert back.h1.map == v.h1.map and back.h2.map == v.h2.map
        assert back.k.leq == v.k.leq

    def test_non_embedding_rejected(self):
        v = None
        for seed in range(20):
            cand = sample_vformation(random.Random(seed))
            if cand.k.n >= 2:
                v = cand
                break
        assert v is not None
        payload = vformation_to_json(v)
        payload["h1"]["map"] = [0] * v.k.n  # collapses top, not a hom
        with pytest.raises(WpmlError):
            vformation_from_json(payload)


class TestLoadArtifact:
    def test_dispatch(self):
        rng = random.Random(5)
        x = sample_modal_lframe(rng, 3)
        kind, obj = load_artifact(wrap("modal_lframe", frame_to_json(x)))
        assert kind == "modal_lframe" and obj == x

    def test_unknown_kind(self):
        with pytest.raises(PayloadError):
            load_artifact(wrap("mystery", {"kind": "mystery"}))

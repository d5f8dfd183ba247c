import copy
import json
import random

import pytest

from wpml.correspondence import AXIOMS
from wpml.errors import WpmlError
from wpml.formulas import parse_pair
from wpml.generators import sample_modal_lattice, sample_modal_lframe, sample_vformation
from wpml.lattice import FiniteModalLattice
from wpml.lframe import ModalLFrame
from wpml.proofs import MAX_PROOF_DEPTH, Proof, derive_bounded
from wpml.serialize import (
    PayloadError,
    dumps,
    frame_from_json,
    frame_to_json,
    lattice_from_json,
    lattice_to_json,
    load_artifact,
    proof_from_json,
    proof_to_json,
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

    def test_envelope_kind_decides_modality(self, b4_modal):
        """A payload without its own kind is of the envelope's kind: a
        modal one without its modal key is malformed, never loaded as the
        plain kind, and a plain one ignores a modal key."""
        x = sample_modal_lframe(random.Random(5), 3)
        frame = {k: v for k, v in frame_to_json(x).items() if k != "kind"}
        lattice = {k: v for k, v in lattice_to_json(b4_modal).items() if k != "kind"}
        assert isinstance(load_artifact(wrap("lframe", frame))[1], type(x.base))
        assert isinstance(load_artifact(wrap("modal_lframe", frame))[1], ModalLFrame)
        del frame["R"]
        with pytest.raises(WpmlError):
            load_artifact(wrap("modal_lframe", frame))
        _, plain = load_artifact(wrap("lattice", lattice))
        assert not isinstance(plain, FiniteModalLattice)
        del lattice["box"]
        with pytest.raises(PayloadError):
            load_artifact(wrap("modal_lattice", lattice))


def proof_nodes(blob, path=()):
    """The path of each node of a `proof_to_json` tree, root first."""
    yield path
    for i, premise in enumerate(blob["premises"]):
        yield from proof_nodes(premise, path + (i,))


def node_at(blob, path):
    for i in path:
        blob = blob["premises"][i]
    return blob


# (field, value) mutations of one node; a None field replaces the node
NODE_MUTATIONS = (
    (None, [1]),
    (None, 5),
    (None, None),
    (None, "p |- p"),
    ("premises", [3]),
    ("premises", [[]]),
    ("premises", 5),
    ("premises", {"rule": "top"}),
    ("conclusion", 5),
    ("conclusion", None),
    ("conclusion", ["p |- p"]),
    ("rule", 5),
    ("rule", None),
    ("subst", [1]),
    ("subst", "p"),
    ("subst", {"p": 5}),
    ("subst", {"p": ["q"]}),
    ("subst", {5: "q"}),
)

# mutations whose node is well formed but whose text does not parse
TEXT_MUTATIONS = (
    ("conclusion", ""),
    ("conclusion", "p |-"),
    ("conclusion", "p & q"),
    ("subst", {"p": "q &"}),
)


_DELETE = object()


def mutated(blob, path, field, value):
    out = copy.deepcopy(blob)
    if field is None:
        if not path:
            return value
        node_at(out, path[:-1])["premises"][path[-1]] = value
    elif value is _DELETE:
        del node_at(out, path)[field]
    else:
        node_at(out, path)[field] = value
    return out


class TestProofCodec:
    @pytest.fixture(scope="class")
    def blob(self):
        proof = derive_bounded(AXIOMS["T"], parse_pair("[](p & q) |- <>p v r"), 6)
        assert proof is not None
        return proof_to_json(proof)

    def test_damaged_nodes_raise_payload_error(self, blob):
        """Each shape mutation of each node of a `proof_to_json` tree, and
        each deleted key the loader needs: a PayloadError, never a bare
        TypeError, AttributeError or KeyError."""
        paths = list(proof_nodes(blob))
        assert len(paths) > 3
        mutations = NODE_MUTATIONS + (("rule", _DELETE), ("conclusion", _DELETE))
        for path in paths:
            for field, value in mutations:
                with pytest.raises(PayloadError):
                    proof_from_json(mutated(blob, path, field, value))

    def test_unparsable_text_raises_its_syntax_error(self, blob):
        for path in proof_nodes(blob):
            for field, value in TEXT_MUTATIONS:
                with pytest.raises(WpmlError) as exc:
                    proof_from_json(mutated(blob, path, field, value))
                assert not isinstance(exc.value, PayloadError)

    def test_optional_keys_may_be_left_out(self, blob):
        """A leaf may omit `premises`, and a node without axiom
        substitution omits `subst`; the round trip is exact."""
        proof = proof_from_json(blob)
        assert proof_to_json(proof) == blob
        leaf = {"rule": "reflexivity", "conclusion": "p |- p"}
        assert proof_from_json(leaf) == Proof("reflexivity", parse_pair("p |- p"))

    @staticmethod
    def chain(height):
        """A proof node over `p |- p` with one premise per level, `height`
        levels in all, as JSON, built without recursion."""
        node = {"rule": "reflexivity", "conclusion": "p |- p", "premises": []}
        for _ in range(height - 1):
            node = {"rule": "becker-box", "conclusion": "p |- p", "premises": [node]}
        return node

    def test_nesting_past_the_depth_cap_is_a_payload_error(self):
        """A chain 3,000 levels deep, far past the recursion limit, and
        one level past `MAX_PROOF_DEPTH`: a PayloadError, raised before
        the loader recurses past the cap."""
        for height in (3_000, MAX_PROOF_DEPTH + 1):
            with pytest.raises(PayloadError, match=f"deeper than {MAX_PROOF_DEPTH}"):
                proof_from_json(self.chain(height))

    def test_a_chain_at_the_depth_cap_loads(self):
        blob = self.chain(MAX_PROOF_DEPTH)
        proof = proof_from_json(blob)
        assert proof.height() == MAX_PROOF_DEPTH
        assert proof_to_json(proof) == blob

import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wpml.cli import build_parser, main
from wpml.correspondence import AXIOM_TAGS, SPACE_CONDITIONS
from wpml.duality import fil_l
from wpml.lattice import validate_lattice, with_identity_modalities
from wpml.serialize import dumps, frame_to_json, wrap
from wpml.sweeps import FUZZ_TARGETS

from conftest import chain_leq


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj))
    return str(path)


@pytest.fixture
def lattice_file(tmp_path):
    payload = {
        "kind": "lattice",
        "elements": ["bot", "mid", "top"],
        "leq": [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        "bot": 0,
        "top": 2,
    }
    return write(tmp_path, "chain3.json", wrap("lattice", payload))


class TestValidate:
    def test_valid_lattice(self, lattice_file, capsys):
        code, out, err = run(["validate", lattice_file], capsys)
        assert code == 0 and "valid lattice" in out

    def test_broken_transitivity(self, tmp_path, capsys):
        payload = {
            "kind": "lattice",
            "elements": ["a", "b", "c"],
            "leq": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
            "bot": 0,
            "top": 2,
        }
        path = write(tmp_path, "bad.json", wrap("lattice", payload))
        code, out, err = run(["validate", path], capsys)
        assert code == 1 and "transitive" in err

    def test_missing_file(self, capsys):
        code, out, err = run(["validate", "/nonexistent/nothing.json"], capsys)
        assert code == 2

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 3


class TestGenerateAndRoundTrips:
    def test_generate_validates(self, tmp_path, capsys):
        for kind in ("lattice", "modal_lattice", "modal_lframe", "vformation"):
            path = str(tmp_path / f"{kind}.json")
            code, _, err = run(
                ["generate", kind, "--seed", "7", "--size", "3", "--out", path],
                capsys,
            )
            assert code == 0, err
            code, out, _ = run(["validate", path], capsys)
            assert code == 0 and kind in out

    def test_generate_deterministic(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run(["generate", "modal_lframe", "--seed", "3", "--size", "4", "--out", a], capsys)
        run(["generate", "modal_lframe", "--seed", "3", "--size", "4", "--out", b], capsys)
        assert Path(a).read_text() == Path(b).read_text()

    def test_vformation_size_one_gives_one_element_spans(self, capsys):
        for seed in range(5):
            code, out, err = run(
                ["generate", "vformation", "--seed", str(seed), "--size", "1"], capsys
            )
            assert code == 0, err
            payload = json.loads(out)["payload"]
            assert [len(payload[k]["elements"]) for k in ("K", "L1", "L2")] == [1, 1, 1]

    @pytest.mark.parametrize("size", ["5", "8"])
    def test_vformation_sizes_past_the_legs_unchanged(self, size, capsys):
        # sha256 of stdout at --size 5 as first recorded; the legs never
        # exceed 4 elements, so every size from 5 up gives these bytes
        recorded = {
            0: "d478cb00636d13411e527a14af5a7f40ea2e06cd7c98fbf00c6cd5921e0814f6",
            5: "0f9121218e99d4fb48959d04a83c8415f6f58a71de6249b91a7e7403c09ea740",
            7: "ba3da9e392910147b3175e0ea22ed2dbbe006bc5c57799a5ef6c173036340dc3",
        }
        for seed, want in recorded.items():
            code, out, _ = run(
                ["generate", "vformation", "--seed", str(seed), "--size", size], capsys
            )
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_dualize_plain_lattice(self, lattice_file, capsys):
        # 3-chain dualizes to a 3-point space; round-trip verified
        code, out, _ = run(["dualize", lattice_file, "--round-trip"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["kind"] == "lframe"
        assert len(blob["payload"]["elements"]) == 3
        assert blob["round_trip"] == {"isomorphic": True}

    def test_dualize_round_trip_flag(self, tmp_path, capsys):
        frame = str(tmp_path / "f.json")
        run(["generate", "modal_lframe", "--seed", "11", "--size", "4", "--out", frame], capsys)
        alg = str(tmp_path / "a.json")
        code, _, _ = run(["dualize", frame, "--out", alg], capsys)
        assert code == 0
        code, out, _ = run(["dualize", alg, "--round-trip"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["round_trip"] == {"isomorphic": True}
        assert blob["kind"] == "modal_lframe"
        assert "provenance" in blob["payload"]

    def test_amalgamate_pass(self, tmp_path, capsys):
        v = str(tmp_path / "v.json")
        run(["generate", "vformation", "--seed", "5", "--out", v], capsys)
        rep = str(tmp_path / "rep.json")
        code, _, _ = run(["amalgamate", "--vformation", v, "--out", rep], capsys)
        assert code == 0
        blob = json.loads(Path(rep).read_text())
        assert blob["payload"]["verdict"] == "pass"
        assert blob["payload"]["claim_checks"] == []

    def test_correspond(self, tmp_path, capsys):
        frame = str(tmp_path / "f.json")
        run(["generate", "modal_lframe", "--seed", "2", "--size", "3", "--out", frame], capsys)
        code, out, _ = run(["correspond", "--frame", frame, "--axiom", "T"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["payload"]["sound"] is True

    def test_interpolate(self, capsys):
        code, out, _ = run(["interpolate", "p & q", "p v r"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["payload"]["verdict"] == "interpolant"
        assert blob["payload"]["interpolant"] == "p"

    def test_interpolate_parse_error(self, capsys):
        code, _, err = run(["interpolate", "p &", "q"], capsys)
        assert code == 3

    @pytest.mark.parametrize(
        "phi,psi",
        [("(" * 330 + "p" + ")" * 330, "p"), (" & ".join(["p"] * 1500), "p v q")],
    )
    def test_interpolate_too_deep_is_a_parse_error(self, phi, psi, capsys):
        code, out, err = run(["interpolate", phi, psi], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("parse error:") and "more than 100 deep" in err

    def test_interpolate_at_the_nesting_cap(self, capsys):
        phi = " & ".join(["p"] * 101)
        code, out, _ = run(["interpolate", phi, "p v q"], capsys)
        assert code == 0
        assert json.loads(out)["payload"]["interpolant"] == "p"

    def test_fuzz_deterministic_and_green(self, tmp_path, capsys):
        a = str(tmp_path / "fa.json")
        b = str(tmp_path / "fb.json")
        code, _, _ = run(
            ["fuzz", "duality", "--seed", "7", "--count", "5", "--out", a], capsys
        )
        assert code == 0
        run(["fuzz", "duality", "--seed", "7", "--count", "5", "--out", b], capsys)
        assert Path(a).read_text() == Path(b).read_text()

    def test_fuzz_count_zero_usage_error(self, capsys):
        code, _, err = run(["fuzz", "duality", "--count", "0"], capsys)
        assert code == 2 and "count" in err

    def test_fuzz_choices_are_the_sweep_targets(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command")
        target = next(a for a in commands.choices["fuzz"]._actions if a.dest == "target")
        assert target.choices == sorted(FUZZ_TARGETS)

    def test_correspond_fails_on_a_space_condition(self, tmp_path, monkeypatch, capsys):
        # a tight reflexive frame: the dual of a chain with identity modalities
        x = fil_l(with_identity_modalities(validate_lattice(chain_leq(3), 0, 2))).frame
        frame = write(tmp_path, "tight.json", wrap("modal_lframe", frame_to_json(x)))
        code, out, _ = run(["correspond", "--frame", frame, "--axiom", "T"], capsys)
        assert code == 0
        assert json.loads(out)["payload"]["tight"] is True
        monkeypatch.setitem(SPACE_CONDITIONS, "T", lambda x: [("T-lower", (0,))])
        code, out, _ = run(["correspond", "--frame", frame, "--axiom", "T"], capsys)
        payload = json.loads(out)["payload"]
        assert (code, payload["condition_holds"], payload["sound"]) == (1, True, True)
        assert payload["space_condition_failures"] == [["T-lower", [0]]]


@pytest.mark.parametrize(
    "argv, option, least",
    [
        (["interpolate", "p", "q", "--proof-depth", "-1"], "--proof-depth", 0),
        (["interpolate", "p", "q", "--cand-depth", "-3"], "--cand-depth", 0),
        (["interpolate", "p", "q", "--model-size", "0"], "--model-size", 1),
        (["interpolate", "p", "q", "--model-size", "-2"], "--model-size", 1),
        (["generate", "modal_lframe", "--size", "0"], "--size", 1),
        (["generate", "lattice", "--size", "-1"], "--size", 1),
        (["fuzz", "duality", "--count", "0"], "--count", 1),
        (["fuzz", "duality", "--count", "-1"], "--count", 1),
    ],
)
def test_numeric_option_below_its_least_value_is_a_usage_error(
    capsys, argv, option, least
):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {option} must be at least {least}\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        # no proof of height 0; p & q |- p holds on every frame
        (["interpolate", "p & q", "p", "--proof-depth", "0"], 4),
        (["interpolate", "p", "q", "--proof-depth", "0", "--cand-depth", "0"], 0),
        # a one-point frame has one filter, so it refutes nothing
        (["interpolate", "p", "q", "--model-size", "1"], 4),
        (["generate", "modal_lframe", "--size", "1"], 0),
        (["fuzz", "duality", "--count", "1"], 0),
        (["generate", "modal_lframe", "--size", "9"], 4),
        # the greatest proof depth, and one past it
        (["interpolate", "p & q", "r v s", "--proof-depth", "200"], 0),
        (["interpolate", "p & q", "r v s", "--proof-depth", "201"], 4),
    ],
)
def test_numeric_option_at_its_least_value_or_past_a_cap(capsys, argv, code):
    got, _, err = run(argv, capsys)
    assert got == code
    assert "must be at least" not in err and "Traceback" not in err


def test_proof_depth_past_its_cap_is_a_resource_exit(capsys):
    code, out, err = run(["interpolate", "p & q", "r v s", "--proof-depth", "1000"], capsys)
    assert (code, out) == (4, "")
    assert err == "size cap: proof depth 1000 exceeds the cap of 200\n"


@pytest.mark.parametrize("text", ["abc", "-5"])
def test_invalid_wpml_budget_exits_with_parse_code(monkeypatch, capsys, text):
    monkeypatch.setenv("WPML_BUDGET", text)
    code, out, err = run(["interpolate", "p & q", "p v r"], capsys)
    assert code == 3 and out == ""
    assert "WPML_BUDGET" in err and "Traceback" not in err


def test_small_wpml_budget_still_finds_the_interpolant(monkeypatch, capsys):
    """A screen over the budget for a goal's letters is skipped, so a
    small budget leaves the search's answer as it is."""
    monkeypatch.setenv("WPML_BUDGET", "10")
    code, out, err = run(["interpolate", "p & q", "p v r"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["interpolant"] == "p"


CHAIN2_MODAL = {
    "kind": "modal_lattice",
    "elements": ["0", "1"],
    "leq": [[1, 1], [0, 1]],
    "bot": 0,
    "top": 1,
    "box": [0, 1],
    "diamond": [0, 1],
}


CHAIN2_FRAME = {
    "kind": "modal_lframe",
    "elements": ["0", "1"],
    "meet": [[0, 0], [0, 1]],
    "one": 1,
    "R": [[0, 0], [0, 1], [1, 1]],
}

IDENTITY_SPAN = {
    "kind": "vformation",
    "K": CHAIN2_MODAL,
    "L1": CHAIN2_MODAL,
    "L2": CHAIN2_MODAL,
    "h1": {"dom": "K", "cod": "L1", "map": [0, 1]},
    "h2": {"dom": "K", "cod": "L2", "map": [0, 1]},
}

WELL_FORMED = {
    "modal_lattice": CHAIN2_MODAL,
    "modal_lframe": CHAIN2_FRAME,
    "vformation": IDENTITY_SPAN,
}


def test_correspond_past_the_budget_is_a_resource_exit(tmp_path, monkeypatch, capsys):
    # two filters and one letter: 2 valuations against a budget of 1
    path = write(tmp_path, "frame.json", wrap("modal_lframe", CHAIN2_FRAME))
    monkeypatch.setenv("WPML_BUDGET", "1")
    code, out, err = run(["correspond", "--frame", path, "--axiom", "T"], capsys)
    assert (code, out) == (4, "") and err.startswith("resource bound:")


def test_distributive_interpolant_past_the_budget_is_a_resource_exit(capsys):
    phi = "a & b & c & d & e"
    code, out, err = run(["interpolate", phi, phi, "--distributive"], capsys)
    assert (code, out) == (4, "") and err.startswith("resource bound:")


@pytest.mark.parametrize("kind", sorted(WELL_FORMED))
def test_well_formed_payload_validates(tmp_path, capsys, kind):
    path = write(tmp_path, "good.json", wrap(kind, WELL_FORMED[kind]))
    assert run(["validate", path], capsys) == (0, f"valid {kind}\n", "")


@pytest.mark.parametrize(
    "kind,change",
    [
        ("modal_lattice", {"leq": 5}),
        ("modal_lattice", {"leq": [[1, 1], 5]}),
        ("modal_lattice", {"leq": [[1, 1], [0, 2]]}),
        ("modal_lattice", {"bot": "x"}),
        ("modal_lattice", {"top": True}),
        ("modal_lattice", {"elements": ["0"]}),
        ("modal_lattice", {"box": [1, 7]}),
        ("modal_lattice", {"diamond": "01"}),
        ("modal_lframe", {"meet": 5}),
        ("modal_lframe", {"R": 5}),
        ("modal_lframe", {"one": "x"}),
        ("modal_lframe", {"R": [[0, 9]]}),
        ("vformation", {"h1": {"dom": "K", "cod": "L1", "map": 5}}),
    ],
    ids=[
        "leq-int",
        "leq-row",
        "leq-entry",
        "bot-str",
        "top-bool",
        "elements-length",
        "box-range",
        "diamond-str",
        "frame-meet-int",
        "frame-R-int",
        "frame-one-str",
        "frame-R-range",
        "vformation-map-int",
    ],
)
def test_malformed_lattice_payload_exits_with_parse_code(tmp_path, capsys, kind, change):
    path = write(tmp_path, "bad.json", wrap(kind, {**WELL_FORMED[kind], **change}))
    code, out, err = run(["validate", path], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("axioms", ["Z", "T,Z"])
def test_unknown_axiom_exits_with_parse_code(capsys, axioms):
    code, out, err = run(["interpolate", "p", "p", "--axioms", axioms], capsys)
    assert (code, out, err) == (3, "", "error: unknown axiom 'Z'\n")


def _paths(obj, prefix=()):
    """Every path to a value inside a JSON object, the root first."""
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(sorted(WELL_FORMED) + ["lattice", "lframe", "K", "L1"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=3), kids, max_size=3),
    ),
    max_leaves=10,
)


def _mutate(data, obj):
    """Replace, delete or add one value somewhere in `obj`, in place."""
    path = data.draw(st.sampled_from(list(_paths(obj))))
    value = data.draw(_json_values)
    if not path:
        return value
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    op = data.draw(st.sampled_from(("replace", "delete", "add")))
    if op == "replace":
        parent[path[-1]] = value
    elif isinstance(parent, dict):
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[data.draw(st.text(max_size=3))] = value
    elif op == "delete":
        del parent[path[-1]]
    else:
        parent.insert(path[-1], value)
    return obj


# the subcommands that read an artifact of each kind, besides `validate`
# and `dualize`
READERS = {"modal_lframe": ("correspond",), "vformation": ("amalgamate",)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_artifacts_end_in_an_exit_code(data):
    # the loaders and the subcommands meet any JSON shape: every mutation
    # ends in a documented exit code, never an exception or a traceback
    kind = data.draw(st.sampled_from(sorted(WELL_FORMED)))
    obj = wrap(kind, copy.deepcopy(WELL_FORMED[kind]))
    for _ in range(data.draw(st.integers(1, 3))):
        obj = _mutate(data, obj)
    command = data.draw(st.sampled_from(("validate", "dualize") + READERS.get(kind, ())))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        if command == "correspond":
            axiom = data.draw(st.sampled_from(AXIOM_TAGS))
            argv = [command, "--frame", path, "--axiom", axiom]
        elif command == "amalgamate":
            argv = [command, "--vformation", path]
        else:
            argv = [command, path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(5), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()

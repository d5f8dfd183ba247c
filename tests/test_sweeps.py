"""A sweep records an instance that raises as a failure and goes on, and
seeded sweep reports keep their bytes."""

import hashlib

import pytest

from wpml import sweeps
from wpml.errors import InternalInconsistency, PreconditionViolated, SizeCap
from wpml.serialize import dumps, wrap


def raise_once(monkeypatch, name, at_call):
    """Replace `sweeps.<name>` by a wrapper whose `at_call`-th call raises."""
    original = getattr(sweeps, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == at_call:
            raise InternalInconsistency("forced")
        return original(*args, **kwargs)

    monkeypatch.setattr(sweeps, name, wrapper)


FORCED = repr(InternalInconsistency("forced"))


@pytest.mark.parametrize(
    "run,patched,at_call,failure",
    [
        (
            lambda: sweeps.closure_sweep("reflexivity", 3, 4),
            "pullback_preserves",
            2,
            {"reason": FORCED},
        ),
        (lambda: sweeps.jonsson_sweep(3, 4), "jonsson_filters", 2, {"reason": FORCED}),
        (
            lambda: sweeps.correspondence_sweep(3, 4),
            "correspondence_check",
            7,
            {"axiom": "4", "reason": FORCED},
        ),
        (lambda: sweeps.correspondence_sweep(3, 4), "fil_l", 2, {"reason": FORCED}),
    ],
)
def test_raising_instance_is_reported(monkeypatch, run, patched, at_call, failure):
    clean = run()
    assert clean["ok"] and clean["passes"] == 4
    raise_once(monkeypatch, patched, at_call)
    rep = run()
    assert not rep["ok"]
    assert rep["passes"] == 3
    assert [{k: v for k, v in f.items() if k != "instance"} for f in rep["failures"]] == [
        failure
    ]
    # the other instances are unchanged, so only that instance is named
    assert len({f["instance"] for f in rep["failures"]}) == 1


@pytest.mark.parametrize(
    "run,sampler",
    [
        (lambda: sweeps.duality_sweep(3, 4), "sample_modal_lattice"),
        (lambda: sweeps.correspondence_sweep(3, 4), "sample_modal_lattice"),
        (lambda: sweeps.superamalgamation_sweep(3, 4), "sample_vformation"),
        (lambda: sweeps.closure_sweep("symmetry", 3, 4), "sample_vformation"),
        (lambda: sweeps.jonsson_sweep(3, 4), "sample_inclusion_span"),
    ],
    ids=["duality", "correspondence", "superamalgamation", "closure", "jonsson"],
)
def test_sampler_size_cap_is_reported(monkeypatch, run, sampler):
    original = getattr(sweeps, sampler)
    calls = [0]

    def capped(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 2:
            raise SizeCap("forced")
        return original(*args, **kwargs)

    monkeypatch.setattr(sweeps, sampler, capped)
    rep = run()
    assert (rep["ok"], rep["passes"]) == (False, 3)
    assert rep["failures"] == [{"instance": 1, "reason": "sampler: forced"}]


def test_passes_count_instances_not_failure_records(monkeypatch):
    # both dual legs fail on every instance: two records, one failed instance
    monkeypatch.setattr(sweeps, "frame_satisfies", lambda frame, cond: (False, (0,)))
    rep = sweeps.closure_sweep("reflexivity", 3, 4)
    assert (rep["ok"], rep["passes"], len(rep["failures"])) == (False, 0, 8)
    assert [f["reason"] for f in rep["failures"][:2]] == [
        "f1 dual leg fails",
        "f2 dual leg fails",
    ]


def test_claim_failure_is_filed_apart(monkeypatch):
    clean = sweeps.superamalgamation_sweep(3, 4)
    monkeypatch.setattr(sweeps, "check_supamal_claim", lambda pb: ["forced"])
    rep = sweeps.superamalgamation_sweep(3, 4)
    assert (rep["ok"], rep["passes"], rep["failures"]) == (False, 0, [])
    assert rep["claim_failures"] == [
        {"instance": i, "reason": ["forced"]} for i in range(4)
    ]
    assert rep["witness_pairs_checked"] == clean["witness_pairs_checked"] > 0


# sha256 of the key-sorted reports as first recorded; a refactor of the
# kernels under the sweeps (frame conditions, duality maps, samplers)
# must not change a byte of them
FUZZ_DIGESTS = {
    "duality": "39b93a52f38398f076ccca3337c8c2e99dd208178df28291e4d1e5427cc0b5f9",
    "superamalgamation": "60100dfaefd1d9ec8a0dc735aeb3c0a8b40cacf489fc49a1944108796cad1aa6",
    "correspondence": "a99bb020ccbd35124ffae27febf1fbc3d9e08cb565b25d8d1ec4054436ff7abd",
    "jonsson": "245987062d620a5b887a6d531d9f501ed0aee5e21580da2e18d835f6822ec441",
}
CLOSURE_DIGESTS = {
    "directedness": "c5a45daf0fdeb78a1a8d6302463e7e0e5430d6fb4f8bc115379ebf69326f95d7",
    "euclideanity": "03360848d2f4bd5f06ede1932da6456f3ebf5d2374731b15df87ce69e8230427",
    "reflexivity": "6961741e12430b6d9edef701ad542f634f10dfaac56c534413322888d423661d",
    "symmetry": "23f438d03629d5e2e63af899f4d93f5bdd64e3849372cb719e26821c8eb86510",
    "transitivity": "f1afeaf5308cb8792daf73b0772f308548daee88c1e86e6ae28bebae431247d2",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("target", sorted(FUZZ_DIGESTS))
def test_fuzz_report_digest(target):
    report = wrap("fuzz_report", sweeps.run_fuzz(target, 0, 20))
    assert sha256(dumps(report)) == FUZZ_DIGESTS[target]


@pytest.mark.parametrize("condition", sorted(CLOSURE_DIGESTS))
def test_closure_sweep_digest(condition):
    report = sweeps.closure_sweep(condition, 0, 10)
    assert sha256(dumps(report)) == CLOSURE_DIGESTS[condition]


def test_unknown_fuzz_target_is_a_precondition_violation():
    with pytest.raises(PreconditionViolated, match="unknown fuzz target 'nope'"):
        sweeps.run_fuzz("nope", 0, 1)

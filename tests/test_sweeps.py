"""A sweep records an instance that raises as a failure and goes on."""

import pytest

from wpml import sweeps
from wpml.errors import InternalInconsistency


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

"""Seeded theorem sweeps: the engine behind `wpml fuzz` and the
acceptance suite.  Every sweep returns a JSON-ready report that is a
pure function of (seed, count), so reruns are byte-identical."""

from __future__ import annotations

import random

from .amalgam import check_supamal_claim, jonsson_filters, superamalgamate
from .correspondence import (
    AXIOM_TAGS,
    _named,
    correspondence_check,
    frame_satisfies,
    pullback_preserves,
)
from .duality import dual_of_hom, fil_l, is_tight, round_trip_iso
from .errors import SizeCap
from .generators import (
    sample_inclusion_span,
    sample_modal_lattice,
    sample_vformation,
)
from .lattice import check_modal_identities


def _histogram(values) -> dict:
    out: dict[str, int] = {}
    for v in values:
        key = str(v)
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def duality_sweep(seed: int, count: int) -> dict:
    """Round-trip isomorphism on seeded filter algebras of random frames
    of at most 5 points; also re-checks the modal identities and
    tightness of the dual."""
    rng = random.Random(seed)
    failures = []
    sizes = []
    for i in range(count):
        a = sample_modal_lattice(rng, rng.randint(1, 5))
        sizes.append(a.n)
        try:
            if check_modal_identities(a):
                failures.append({"instance": i, "reason": "identities"})
                continue
            round_trip_iso(a)
            if not is_tight(fil_l(a).frame):
                failures.append({"instance": i, "reason": "dual not tight"})
        except Exception as exc:  # a sweep must report, not crash
            failures.append({"instance": i, "reason": repr(exc)})
    return {
        "target": "duality",
        "seed": seed,
        "count": count,
        "passes": count - len(failures),
        "ok": not failures,
        "failures": failures,
        "size_histogram": _histogram(sizes),
    }


def superamalgamation_sweep(seed: int, count: int) -> dict:
    """Seeded V-formations through the dual pullback construction; checks
    the full report and the separation-claim assertions.
    Construction failures and claim failures are reported separately."""
    rng = random.Random(seed)
    failures = []
    claim_failures = []
    sizes = []
    witness_total = 0
    for i in range(count):
        try:
            v = sample_vformation(rng)
        except SizeCap as exc:
            failures.append({"instance": i, "reason": f"sampler: {exc}"})
            continue
        sizes.append((v.k.n, v.l1.n, v.l2.n))
        try:
            res = superamalgamate(v)
        except Exception as exc:
            failures.append({"instance": i, "reason": repr(exc)})
            continue
        if res.report.verdict != "pass":
            failures.append(
                {
                    "instance": i,
                    "reason": "report failed",
                    "commutes": res.report.commutes,
                    "p1_injective": res.report.p1_injective,
                    "p2_injective": res.report.p2_injective,
                    "missing": [list(t) for t in res.report.missing],
                }
            )
            continue
        witness_total += len(res.report.witnesses)
        problems = check_supamal_claim(res.pb)
        if problems:
            claim_failures.append({"instance": i, "reason": problems})
    return {
        "target": "superamalgamation",
        "seed": seed,
        "count": count,
        "passes": count - len(failures) - len(claim_failures),
        "failures": failures,
        "claim_failures": claim_failures,
        "ok": not failures and not claim_failures,
        "witness_pairs_checked": witness_total,
        "size_histogram": _histogram(sizes),
    }


def correspondence_sweep(seed: int, count: int) -> dict:
    """On tight frames (duals of seeded algebras of random frames of at
    most 4 points): the frame condition
    must hold exactly when every axiom pair is frame-valid; on all frames
    the condition must imply validity."""
    rng = random.Random(seed)
    failures = []
    sizes = []
    for i in range(count):
        a = sample_modal_lattice(rng, rng.randint(1, 4))
        try:
            space = fil_l(a)
        except Exception as exc:  # a sweep must report, not crash
            failures.append({"instance": i, "reason": repr(exc)})
            continue
        sizes.append(space.frame.n)
        for tag in AXIOM_TAGS:
            try:
                rep = correspondence_check(space.frame, tag)
            except Exception as exc:
                failures.append({"instance": i, "axiom": tag, "reason": repr(exc)})
                continue
            if not rep.sound:
                failures.append({"instance": i, "axiom": tag, "reason": "soundness"})
            if rep.tight and rep.condition_holds != rep.all_pairs_valid:
                failures.append(
                    {
                        "instance": i,
                        "axiom": tag,
                        "reason": "tight equivalence",
                        "condition": rep.condition_holds,
                        "pairs": rep.all_pairs_valid,
                    }
                )
            if rep.tight and rep.condition_holds and rep.space_condition_failures:
                failures.append(
                    {
                        "instance": i,
                        "axiom": tag,
                        "reason": "space conditions",
                        "detail": [list(map(str, t)) for t in rep.space_condition_failures],
                    }
                )
    return {
        "target": "correspondence",
        "seed": seed,
        "count": count,
        "passes": count - len({f["instance"] for f in failures}),
        "ok": not failures,
        "failures": failures,
        "size_histogram": _histogram(sizes),
    }


def _closure_instance(i: int, v, condition: str, sizes: list) -> list[dict]:
    """The failures of one closure instance; records its sizes once both
    dual legs satisfy the condition."""
    space_k = fil_l(v.k)
    f1 = dual_of_hom(v.h1, dom_space=space_k)
    f2 = dual_of_hom(v.h2, dom_space=space_k)
    failures = []
    for name, leg in (("f1", f1), ("f2", f2)):
        holds, w = frame_satisfies(leg.dom, condition)
        if not holds:
            failures.append(
                {"instance": i, "reason": f"{name} dual leg fails", "witness": list(w)}
            )
    if failures:
        return failures
    sizes.append((f1.dom.n, f2.dom.n, f1.cod.n))
    holds, w = pullback_preserves(condition, f1, f2)
    if not holds:
        failures.append(
            {"instance": i, "reason": "pullback fails condition", "witness": list(w)}
        )
    return failures


def closure_sweep(condition: str, seed: int, count: int) -> dict:
    """Pullbacks of condition-satisfying co-V-formations (duals of
    condition-axiom-validating spans) must satisfy the condition."""
    rng = random.Random(seed)
    failures = []
    sizes = []
    for i in range(count):
        try:
            v = sample_vformation(rng, condition=condition)
        except SizeCap as exc:
            failures.append({"instance": i, "reason": f"sampler: {exc}"})
            continue
        try:
            failures.extend(_closure_instance(i, v, condition, sizes))
        except Exception as exc:  # a sweep must report, not crash
            failures.append({"instance": i, "reason": repr(exc)})
    return {
        "target": "closure",
        "condition": condition,
        "seed": seed,
        "count": count,
        "passes": count - len(failures),
        "ok": not failures,
        "failures": failures,
        "size_histogram": _histogram(sizes),
    }


def jonsson_sweep(seed: int, count: int) -> dict:
    """Glued-filter lattice versus pullback point poset: the bijection
    must reverse the order on every seeded non-modal inclusion span."""
    rng = random.Random(seed)
    failures = []
    sizes = []
    for i in range(count):
        try:
            k, l1, l2 = sample_inclusion_span(rng)
        except SizeCap as exc:
            failures.append({"instance": i, "reason": f"sampler: {exc}"})
            continue
        sizes.append((k.n, l1.n, l2.n))
        try:
            cmp = jonsson_filters(k, l1, l2)
        except Exception as exc:  # a sweep must report, not crash
            failures.append({"instance": i, "reason": repr(exc)})
            continue
        if not cmp.anti_isomorphism:
            failures.append(
                {
                    "instance": i,
                    "reason": "not an order anti-isomorphism",
                    "filters": len(cmp.glued_filters),
                    "pb_points": len(cmp.pb_points),
                }
            )
    return {
        "target": "jonsson",
        "seed": seed,
        "count": count,
        "passes": count - len(failures),
        "ok": not failures,
        "failures": failures,
        "size_histogram": _histogram(sizes),
    }


FUZZ_TARGETS = {
    "duality": duality_sweep,
    "superamalgamation": superamalgamation_sweep,
    "correspondence": correspondence_sweep,
    "jonsson": jonsson_sweep,
}


def run_fuzz(target: str, seed: int, count: int) -> dict:
    """The sweep named `target`; PreconditionViolated naming an unknown
    one."""
    return _named(FUZZ_TARGETS, target, "fuzz target")(seed, count)

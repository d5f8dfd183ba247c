"""Seeded theorem sweeps: the engine behind `wpml fuzz` and the
acceptance suite.  Each sweep is a sampler and a per-instance check run
by one skeleton, `_sweep`, which owns the rng, the failure records and
the report.  Every report is JSON-ready and a pure function of (seed,
count), so reruns are byte-identical."""

from __future__ import annotations

import random
from functools import partial

from .amalgam import check_supamal_claim, jonsson_filters, superamalgamate
from .correspondence import (
    AXIOM_TAGS,
    _named,
    correspondence_check,
    frame_satisfies,
    pullback_preserves,
)
from .duality import dual_of_hom, fil_l, round_trip_iso
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


def _guarded(check, *args, **tags) -> list[dict]:
    """`check(*args)`'s failure records, or, when it raises, one record
    of the exception tagged with `tags`: a sweep must report, not crash."""
    try:
        return check(*args)
    except Exception as exc:
        return [{**tags, "reason": repr(exc)}]


def _sweep(target: str, seed: int, count: int, sample, check, **extra) -> dict:
    """The report on `count` instances drawn by `sample(rng)`.
    `check(instance, sizes)` appends the instance's sizes to `sizes` and
    returns its failure records; each is tagged with the instance and
    filed under the report key its "into" entry names ("failures" when
    it has none).  An instance passes when it files no record.  `extra`
    adds report keys; a callable one is read after the last instance."""
    rng = random.Random(seed)
    filed = {"failures": [], **extra}
    sizes = []
    passes = 0
    for i in range(count):
        try:
            instance = sample(rng)
        except SizeCap as exc:
            found = [{"reason": f"sampler: {exc}"}]
        else:
            found = _guarded(check, instance, sizes)
        passes += not found
        for record in found:
            into = filed[record.pop("into", "failures")]
            into.append({"instance": i, **record})
    return {
        "target": target,
        "seed": seed,
        "count": count,
        "passes": passes,
        "ok": passes == count,
        **{key: v() if callable(v) else v for key, v in filed.items()},
        "size_histogram": _histogram(sizes),
    }


def duality_sweep(seed: int, count: int) -> dict:
    """Round-trip isomorphism on seeded filter algebras of random frames
    of at most 5 points; also re-checks the modal identities.  The dual's
    tightness is checked by `fil_l` inside `round_trip_iso`, which raises
    on a dual that is not tight."""

    def check(a, sizes):
        sizes.append(a.n)
        if check_modal_identities(a):
            return [{"reason": "identities"}]
        round_trip_iso(a)
        return []

    sample = lambda rng: sample_modal_lattice(rng, rng.randint(1, 5))
    return _sweep("duality", seed, count, sample, check)


def superamalgamation_sweep(seed: int, count: int) -> dict:
    """Seeded V-formations through the dual pullback construction; checks
    the full report and the separation-claim assertions.
    Construction failures and claim failures are reported separately."""
    witnesses = []

    def check(v, sizes):
        sizes.append((v.k.n, v.l1.n, v.l2.n))
        res = superamalgamate(v)
        rep = res.report
        if rep.verdict != "pass":
            return [
                {
                    "reason": "report failed",
                    "commutes": rep.commutes,
                    "p1_injective": rep.p1_injective,
                    "p2_injective": rep.p2_injective,
                    "missing": [list(t) for t in rep.missing],
                }
            ]
        witnesses.append(len(rep.witnesses))
        problems = check_supamal_claim(res.pb)
        return [{"into": "claim_failures", "reason": problems}] if problems else []

    return _sweep(
        "superamalgamation",
        seed,
        count,
        sample_vformation,
        check,
        claim_failures=[],
        witness_pairs_checked=lambda: sum(witnesses),
    )


def _axiom_problems(frame, tag: str) -> list[dict]:
    return [{"axiom": tag, **p} for p in correspondence_check(frame, tag).problems()]


def correspondence_sweep(seed: int, count: int) -> dict:
    """On tight frames (duals of seeded algebras of random frames of at
    most 4 points): the frame condition
    must hold exactly when every axiom pair is frame-valid; on all frames
    the condition must imply validity."""

    def check(a, sizes):
        frame = fil_l(a).frame
        sizes.append(frame.n)
        return [
            p
            for tag in AXIOM_TAGS
            for p in _guarded(_axiom_problems, frame, tag, axiom=tag)
        ]

    sample = lambda rng: sample_modal_lattice(rng, rng.randint(1, 4))
    return _sweep("correspondence", seed, count, sample, check)


def closure_sweep(condition: str, seed: int, count: int) -> dict:
    """Pullbacks of condition-satisfying co-V-formations (duals of
    condition-axiom-validating spans) must satisfy the condition."""

    def check(v, sizes):
        space_k = fil_l(v.k)
        f1 = dual_of_hom(v.h1, dom_space=space_k)
        f2 = dual_of_hom(v.h2, dom_space=space_k)
        failures = []
        for name, leg in (("f1", f1), ("f2", f2)):
            holds, w = frame_satisfies(leg.dom, condition)
            if not holds:
                reason = f"{name} dual leg fails"
                failures.append({"reason": reason, "witness": list(w)})
        if failures:
            return failures
        sizes.append((f1.dom.n, f2.dom.n, f1.cod.n))
        holds, w = pullback_preserves(condition, f1, f2)
        if holds:
            return []
        return [{"reason": "pullback fails condition", "witness": list(w)}]

    sample = partial(sample_vformation, condition=condition)
    return _sweep("closure", seed, count, sample, check, condition=condition)


def jonsson_sweep(seed: int, count: int) -> dict:
    """Glued-filter lattice versus pullback point poset: the bijection
    must reverse the order on every seeded non-modal inclusion span."""

    def check(span, sizes):
        sizes.append(tuple(lat.n for lat in span))
        cmp = jonsson_filters(*span)
        if cmp.anti_isomorphism:
            return []
        return [
            {
                "reason": "not an order anti-isomorphism",
                "filters": len(cmp.glued_filters),
                "pb_points": len(cmp.pb_points),
            }
        ]

    return _sweep("jonsson", seed, count, sample_inclusion_span, check)


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

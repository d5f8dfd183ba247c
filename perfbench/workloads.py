"""The benchmark's workloads: seeded inputs, the calls through the public
wpml API, and the expected-answer check of every item.

Every workload hands out passes.  A pass is a list of items; pass `i` of
seed `s` is a pure function of (s, i).  Golden and countermodel items are
recorded problems with their letters renamed by an order-preserving map
drawn from (s, i): the search on a renamed problem is isomorphic to the
recorded one, so its cost and expected answer are known, yet no two
passes repeat an input.  Sweep items are single seeded sweep instances
drawn one per cost stratum of a recorded pool.  See README.md for why
each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from wpml import (
    catalog,
    correspondence,
    entailment,
    formulas,
    interpolation,
    lframe,
    proofs,
    sweeps,
    whitman,
)

DATA = Path(__file__).resolve().parent / "data"

# Letter names for renaming: lowercase stems without "v" (the join
# symbol), optionally followed by one digit.
NAMES = tuple(
    sorted(c + d for c in "abcdefghijklmnopqrstuwxyz" for d in ("", *"0123456789"))
)


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], object]
    # result -> (correct, decided, reason)
    check: Callable[[object], tuple[bool, bool, str]]


def _load(name: str) -> dict:
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def _renaming(rng: random.Random, pair) -> dict:
    """Order-preserving map from the pair's letters to fresh names."""
    old = sorted(formulas.letters(pair))
    new = sorted(rng.sample(NAMES, len(old)))
    return {a: formulas.Letter(b) for a, b in zip(old, new)}


def _rename_pair(pair, mapping):
    return formulas.ConsequencePair(
        formulas.substitute(pair.lhs, mapping), formulas.substitute(pair.rhs, mapping)
    )


def report_digest(report: dict) -> str:
    """First 12 hex digits of the sha256 of the key-sorted report JSON."""
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _warm_screening(tag_sets) -> None:
    """Pay the per-axiom-set screening build the first proof search of a
    process would otherwise pay."""
    trivial = formulas.parse_pair("p |- p")
    for tags in sorted(set(tag_sets)):
        proofs.derive_bounded(entailment.gamma_pairs(tags), trivial, 1)


class Golden:
    """The interpolation golden corpus through `craig_interpolant` at
    default bounds."""

    name = "golden"
    traced_passes = 1

    def __init__(self, seed: int):
        self.seed = seed
        data = _load("golden.json")
        self.problems = [
            (
                formulas.ConsequencePair(
                    formulas.parse_formula(p["phi"]), formulas.parse_formula(p["psi"])
                ),
                tuple(p["tags"]),
                formulas.parse_formula(p["interpolant"]),
            )
            for p in data["problems"]
            if p["in_pass"]
        ]

    def warm(self) -> None:
        _warm_screening(tags for _, tags, _ in self.problems)

    def pass_items(self, index: int) -> list[Item]:
        rng = random.Random(f"golden:{self.seed}:{index}")
        items = []
        for pair, tags, chi in self.problems:
            mapping = _renaming(rng, pair)
            goal = _rename_pair(pair, mapping)
            expected = formulas.substitute(chi, mapping)
            prob = interpolation.InterpolationProblem(goal.lhs, goal.rhs, tags)
            items.append(
                Item(
                    f"{goal} [{' '.join(tags)}]",
                    lambda prob=prob: interpolation.craig_interpolant(prob),
                    lambda res, goal=goal, tags=tags, expected=expected: _check_golden(
                        res, goal, tags, expected
                    ),
                )
            )
        rng.shuffle(items)
        return items


def _check_golden(res, goal, tags, expected) -> tuple[bool, bool, str]:
    if res.verdict != "interpolant":
        return False, False, f"verdict {res.verdict}"
    chi = res.interpolant
    if str(chi) != str(expected):
        return False, False, f"interpolant {chi} != {expected}"
    gamma = entailment.gamma_pairs(tags)
    for proof, conclusion in (
        (res.proof_left, formulas.ConsequencePair(goal.lhs, chi)),
        (res.proof_right, formulas.ConsequencePair(chi, goal.rhs)),
    ):
        if proof is None or proof.conclusion != conclusion:
            return False, False, f"proof does not conclude {conclusion}"
        bad = proofs.check_proof(proof, gamma)
        if bad is not None:
            return False, False, f"proof of {conclusion} rejected: {bad}"
    return True, True, ""


class Countermodel:
    """Non-derivable pairs through `decide_entailment` at model size 5."""

    name = "countermodel"
    traced_passes = 1

    def __init__(self, seed: int):
        self.seed = seed
        data = _load("countermodel.json")
        self.model_size = data["model_size"]
        self.templates = [
            (
                formulas.parse_pair(t["pair"]),
                tuple(t["tags"]),
                t["copies"],
                t["verdict"],
                t["size"],
            )
            for t in data["templates"]
        ]

    def warm(self) -> None:
        for n in range(1, self.model_size + 1):
            catalog.all_lframes(n)
        _warm_screening(tags for _, tags, *_ in self.templates)

    def pass_items(self, index: int) -> list[Item]:
        rng = random.Random(f"countermodel:{self.seed}:{index}")
        items = []
        for pair, tags, copies, verdict, size in self.templates:
            for _ in range(copies):
                goal = _rename_pair(pair, _renaming(rng, pair))
                items.append(
                    Item(
                        f"{goal} [{' '.join(tags)}]",
                        lambda goal=goal, tags=tags: entailment.decide_entailment(
                            tags, goal, model_size=self.model_size
                        ),
                        lambda res, goal=goal, tags=tags, verdict=verdict, size=size: (
                            _check_countermodel(res, goal, tags, verdict, size)
                        ),
                    )
                )
        rng.shuffle(items)
        return items


def _check_countermodel(res, goal, tags, verdict, size) -> tuple[bool, bool, str]:
    if res.verdict != verdict:
        return False, False, f"verdict {res.verdict}, expected {verdict}"
    if not tags and formulas.is_modality_free(goal.lhs) and formulas.is_modality_free(
        goal.rhs
    ):
        if whitman.free_lattice_leq(goal.lhs, goal.rhs):
            return False, False, "whitman says the pair holds in free lattices"
    if verdict != "refuted":
        return True, False, ""
    frame, val = res.frame, res.valuation
    if frame.n != size:
        return False, False, f"countermodel has {frame.n} points, expected {size}"
    if not isinstance(lframe.validate_modal_lframe(frame.base, frame.succ), lframe.ModalLFrame):
        return False, False, "countermodel is not a modal L-frame"
    for tag in tags:
        cond = correspondence.CONDITION_OF_AXIOM[tag]
        if not correspondence.frame_satisfies(frame, cond)[0]:
            return False, False, f"countermodel fails {cond}"
    if set(val) != set(formulas.letters(goal)):
        return False, False, "valuation does not cover the letters"
    if not all(lframe.is_filter(frame.base, mask) for mask in val.values()):
        return False, False, "valuation is not filter-valued"
    if not any(
        lframe.satisfies(frame, val, x, goal.lhs)
        and not lframe.satisfies(frame, val, x, goal.rhs)
        for x in range(frame.n)
    ):
        return False, False, "valuation does not refute the pair pointwise"
    return True, True, ""


def sweep_call(variant: str, subseed: int):
    """A thunk running one instance (count 1) of a sweep variant such as
    "jonsson" or "closure:symmetry"."""
    target, _, condition = variant.partition(":")
    if target == "closure":
        return lambda: sweeps.closure_sweep(condition, subseed, 1)
    return lambda: getattr(sweeps, f"{target}_sweep")(subseed, 1)


class Sweeps:
    """Single instances of the five theorem sweeps (closure once per
    frame condition), one per cost stratum of a recorded pool."""

    name = "sweeps"
    traced_passes = 10  # a pass is ~0.3 s; ten make the overhead readable

    def __init__(self, seed: int):
        self.seed = seed
        data = _load("sweeps.json")
        self.max_lattice = data["max_lattice"]
        self.strata = []  # (variant, [(subseed, digest), ...])
        for variant, spec in sorted(data["variants"].items()):
            ranked = spec["ranked"]
            width = len(ranked) // spec["per_pass"]
            for s in range(spec["per_pass"]):
                stratum = [
                    (int(subseed), digest)
                    for subseed, _, digest in (
                        x.partition(":") for x in ranked[s * width:(s + 1) * width]
                    )
                ]
                random.Random(f"sweeps:{seed}:{variant}:{s}").shuffle(stratum)
                self.strata.append((variant, stratum))

    def warm(self) -> None:
        for n in range(1, self.max_lattice + 1):
            catalog.all_lattices(n)

    def pass_items(self, index: int) -> list[Item]:
        items = []
        for variant, stratum in self.strata:
            subseed, digest = stratum[index % len(stratum)]
            items.append(
                Item(
                    f"{variant} seed {subseed}",
                    sweep_call(variant, subseed),
                    lambda rep, digest=digest: _check_sweep(rep, digest),
                )
            )
        random.Random(f"sweeps:{self.seed}:pass:{index}").shuffle(items)
        return items


def _check_sweep(report, digest) -> tuple[bool, bool, str]:
    if not report.get("ok"):
        return False, False, "sweep instance failed"
    got = report_digest(report)
    if got != digest:
        return False, False, f"report digest {got} != {digest}"
    return True, True, ""


WORKLOADS = {w.name: w for w in (Golden, Countermodel, Sweeps)}

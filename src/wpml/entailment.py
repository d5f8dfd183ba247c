"""Two-sided decision for consequence pairs: bounded proof search against
bounded countermodel search over modal L-frames satisfying the frame
conditions of the named axioms.

Unknown is an admissible verdict: no completeness claim is made beyond
the stated bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .catalog import all_modal_lframes
from .correspondence import (
    AXIOMS,
    CONDITION_OF_AXIOM,
    CONDITIONS,
    _named,
    frame_satisfies,
)
from .errors import ResourceBound
from .formulas import ConsequencePair
from .lframe import FrameValuation, ModalLFrame, frame_validates
from .proofs import Proof, derive_bounded

DEFAULT_PROOF_DEPTH = 6
DEFAULT_MODEL_SIZE = 4


@dataclass(frozen=True)
class EntailmentResult:
    verdict: str  # "derivable" | "refuted" | "unknown"
    proof: Optional[Proof] = None
    frame: Optional[ModalLFrame] = None
    valuation: Optional[FrameValuation] = None
    diagnostics: Optional[dict] = None

    @property
    def derivable(self) -> bool:
        return self.verdict == "derivable"

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"


def gamma_pairs(tags) -> tuple[ConsequencePair, ...]:
    out = []
    for tag in tags:
        out.extend(_named(AXIOMS, tag, "axiom tag"))
    return tuple(out)


def gamma_conditions(tags):
    return tuple(
        CONDITIONS[_named(CONDITION_OF_AXIOM, tag, "axiom tag")] for tag in tags
    )


def decide_entailment(
    tags,
    goal: ConsequencePair,
    proof_depth: int = DEFAULT_PROOF_DEPTH,
    model_size: int = DEFAULT_MODEL_SIZE,
    proof_budget: int = 200_000,
    model_budget: int = 10**6,
) -> EntailmentResult:
    """Proof search first; otherwise exhaustive frame search (up to
    isomorphism) over the class carved out by the axioms' frame
    conditions.  Resource exhaustion is folded into Unknown with
    diagnostics."""
    tags = tuple(tags)
    unknown_notes: dict = {
        "proof_depth": proof_depth,
        "model_size": model_size,
        "axioms": list(tags),
    }
    pairs = gamma_pairs(tags)
    conds = gamma_conditions(tags)
    try:
        proof = derive_bounded(pairs, goal, proof_depth, proof_budget)
    except ResourceBound as exc:
        proof = None
        unknown_notes["proof_search"] = f"resource bound: {exc}"
    if proof is not None:
        return EntailmentResult("derivable", proof=proof)

    frames_seen = 0
    largest = 0
    for n in range(1, model_size + 1):
        for frame in all_modal_lframes(n):
            if any(frame_satisfies(frame, c)[1] is not None for c in conds):
                continue
            frames_seen += 1
            largest = n
            try:
                cv = frame_validates(frame, goal, model_budget)
            except ResourceBound as exc:
                unknown_notes["model_search"] = f"resource bound: {exc}"
                continue
            if cv is not None:
                return EntailmentResult("refuted", frame=frame, valuation=cv)
    unknown_notes["frames_searched"] = frames_seen
    unknown_notes["largest_frame_size"] = largest
    return EntailmentResult("unknown", diagnostics=unknown_notes)

"""Two-sided decision for consequence pairs: bounded proof search against
bounded countermodel search over the modal structures of the lattice
catalog that validate the axioms.

Unknown is an admissible verdict: no completeness claim is made beyond
the stated bounds.

A caller that expects the pair to entail with a proof of small height
may ask for iterative deepening (`deepening=True`, `proofs.derivable`),
which finds a proof where the depth-first search does, one of least
height, at less cost where that height is small.

The countermodel search reads `catalog.validating_structures(n, gamma)`,
one table per catalog lattice, built once per (size, gamma), and
evaluates the goal on each table in batches with
`vectors.refuting_structures`.  By the duality a frame refutes a pair
iff its filter structure does, and on tight frames the axioms' frame
conditions hold iff the axioms are valid in the dual algebra, so the
search answers for the modal L-frames that meet the conditions.  The
first refuting structure's dual, a tight frame of as many points as the
lattice has elements, is the countermodel, with the countervaluation
that `frame_validates` finds on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .catalog import validating_structures
from .correspondence import AXIOMS, _named
from .errors import InternalInconsistency, ResourceBound, SizeCap
from .formulas import ConsequencePair
from .lframe import FrameValuation, ModalLFrame, frame_validates
from .proofs import Proof, SearchSetup, derivable, derive_bounded

DEFAULT_PROOF_DEPTH = 6
DEFAULT_MODEL_SIZE = 4
# the catalog's modal structures number 2.4 million at seven elements
MAX_MODEL_SIZE = 7


@dataclass(frozen=True)
class EntailmentResult:
    """A verdict with its evidence: the proof of a `derivable` verdict,
    the frame and countervaluation of a `refuted` one, and the
    diagnostics of an `unknown` one."""

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


def decide_entailment(
    tags,
    goal: ConsequencePair,
    proof_depth: int = DEFAULT_PROOF_DEPTH,
    model_size: int = DEFAULT_MODEL_SIZE,
    proof_budget: int = 200_000,
    model_budget: int = 10**6,
    *,
    setup: Optional[SearchSetup] = None,
    deepening: bool = False,
) -> EntailmentResult:
    """Proof search first; otherwise exhaustive countermodel search (up
    to isomorphism) over the modal structures of 1 to `model_size` elements
    that validate the axioms.  Resource exhaustion is folded into Unknown
    with diagnostics.

    The structures are the catalog's, lattice by lattice in catalog order
    (see the module docstring), bounded by `model_budget` alone
    (WPML_BUDGET does not reach it).  A lattice of f elements with f**k over
    `model_budget` for the goal's k letters counts its structures as
    searched and notes the bound, as a frame-by-frame search does.  The
    countervaluation comes from `frame_validates` on the first refuting
    structure's dual frame, the function the batches must agree with; if it
    finds none, that is an InternalInconsistency.

    The proof search takes `setup` (see `proofs.SearchSetup`), which
    must be over the tags' axioms, or a fresh one.  It is
    `derive_bounded`'s depth-first search, or with `deepening` on
    `proofs.derivable`'s iterative deepening, which finds a proof iff
    the depth-first search does (one of least height) and costs less
    where a proof of small height exists, more where none does.  Only
    where the depth-first search runs out of budget can the verdicts
    differ, from unknown to decided.  A `model_size` above
    `MAX_MODEL_SIZE` raises SizeCap before any search."""
    if model_size > MAX_MODEL_SIZE:
        raise SizeCap(f"model size {model_size} exceeds the cap of {MAX_MODEL_SIZE}")
    tags = tuple(tags)
    unknown_notes: dict = {
        "proof_depth": proof_depth,
        "model_size": model_size,
        "axioms": list(tags),
    }
    pairs = gamma_pairs(tags)
    search = derivable if deepening else derive_bounded
    try:
        proof = search(pairs, goal, proof_depth, proof_budget, setup=setup)
    except ResourceBound as exc:
        proof = None
        unknown_notes["proof_search"] = f"resource bound: {exc}"
    if proof is not None:
        return EntailmentResult("derivable", proof=proof)

    structures_seen = 0
    largest = 0
    for n in range(1, model_size + 1):
        for table in validating_structures(n, pairs):
            if not table:
                continue
            structures_seen += len(table)
            largest = n
            try:
                first = next(table.refuting(goal, model_budget), None)
            except ResourceBound as exc:
                unknown_notes["model_search"] = f"resource bound: {exc}"
                continue
            if first is None:
                continue
            frame = table.dual(first[0])
            cv = frame_validates(frame, goal, model_budget)
            if cv is None:
                raise InternalInconsistency(
                    f"batch search refutes {goal} on {frame}, frame_validates"
                    " finds no countervaluation"
                )
            return EntailmentResult("refuted", frame=frame, valuation=cv)
    unknown_notes["frames_searched"] = structures_seen
    unknown_notes["largest_frame_size"] = largest
    return EntailmentResult("unknown", diagnostics=unknown_notes)

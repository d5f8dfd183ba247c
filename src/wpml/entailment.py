"""Two-sided decision for consequence pairs: bounded proof search against
bounded countermodel search over modal L-frames satisfying the frame
conditions of the named axioms.

Unknown is an admissible verdict: no completeness claim is made beyond
the stated bounds.

Which catalog frames meet the conditions depends only on (size,
conditions), so the countermodel search reads them from a private cache
built once per (size, conditions) by one walk of `all_modal_lframes` and
`frame_satisfies`.  Per catalog L-frame it keeps only the relations
that meet the conditions, packed: their successor masks as
`catalog._packed_relations` keeps them, and their box and diamond over
the L-frame's f filters as local filter ids, f bytes each.  No
`ModalLFrame` is held (see `catalog`).

A goal is evaluated on the kept relations of one L-frame in batches, on
the pair-code tables of its filter lattice (`_KeptRelations.codes`), by
`vectors.refuting_structures`.  The first refuting relation's
countervaluation is then taken from `frame_validates` on that relation's
`ModalLFrame`, so the result is the one a frame-by-frame search returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .catalog import all_modal_lframes
from .correspondence import (
    AXIOMS,
    CONDITION_OF_AXIOM,
    CONDITIONS,
    _named,
    frame_satisfies,
)
from .errors import InternalInconsistency, ResourceBound
from .formulas import ConsequencePair, letters
from .lframe import FrameValuation, LFrame, ModalLFrame, frame_validates
from .proofs import Proof, SearchSetup, derive_bounded
from .vectors import ScreenTables, refuting_structures

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


@dataclass(frozen=True)
class _KeptRelations:
    """The relations of one catalog L-frame that meet a set of frame
    conditions, in catalog order: n successor masks per relation in
    `succ`, and f local filter ids per relation in `box` and `diamond`
    (its `ModalLFrame.filter_modalities`)."""

    base: LFrame
    succ: bytes | tuple[int, ...]
    box: bytes
    diamond: bytes

    @cached_property
    def codes(self) -> ScreenTables:
        """The pair-code tables of the filter lattice (see `vectors`)."""
        return ScreenTables((self.base.filter_lattice,))


@lru_cache(maxsize=None)
def _kept_relations(n: int, conds: tuple[str, ...]) -> tuple[_KeptRelations, ...]:
    """The size-n catalog L-frames with at least one relation meeting the
    frame conditions `conds` (sorted tags), each with those relations."""
    groups: list[tuple[LFrame, list[int], bytearray, bytearray]] = []
    for x in all_modal_lframes(n):
        if any(frame_satisfies(x, c)[1] is not None for c in conds):
            continue
        if not groups or groups[-1][0] is not x.base:
            groups.append((x.base, [], bytearray(), bytearray()))
        _, succ, box, diamond = groups[-1]
        succ.extend(x.succ)
        box += bytes(x.filter_modalities[0])
        diamond += bytes(x.filter_modalities[1])
    pack = bytes if n <= 8 else tuple
    return tuple(
        _KeptRelations(base, pack(succ), bytes(box), bytes(diamond))
        for base, succ, box, diamond in groups
    )


def decide_entailment(
    tags,
    goal: ConsequencePair,
    proof_depth: int = DEFAULT_PROOF_DEPTH,
    model_size: int = DEFAULT_MODEL_SIZE,
    proof_budget: int = 200_000,
    model_budget: int = 10**6,
    *,
    setup: Optional[SearchSetup] = None,
) -> EntailmentResult:
    """Proof search first; otherwise exhaustive frame search (up to
    isomorphism) over the class carved out by the axioms' frame
    conditions.  Resource exhaustion is folded into Unknown with
    diagnostics.

    The frames are the catalog's, in catalog order, read from the cache
    kept per (size, conditions) and searched in batches of relations
    per L-frame (see the module docstring), bounded by `model_budget`
    alone (WPML_BUDGET does not reach it).  An L-frame of f filters with
    f**k over `model_budget` for the goal's k letters counts its
    relations as searched and notes the bound, as a frame-by-frame
    search does.  The first refuting relation's countervaluation comes
    from `frame_validates` on that frame, the function the batches must
    agree with; if it finds none, that is an InternalInconsistency.

    The proof search takes `setup` (see `proofs.SearchSetup`), which
    must be over the tags' axioms, or a fresh one."""
    tags = tuple(tags)
    unknown_notes: dict = {
        "proof_depth": proof_depth,
        "model_size": model_size,
        "axioms": list(tags),
    }
    pairs = gamma_pairs(tags)
    conds = gamma_conditions(tags)
    try:
        proof = derive_bounded(pairs, goal, proof_depth, proof_budget, setup=setup)
    except ResourceBound as exc:
        proof = None
        unknown_notes["proof_search"] = f"resource bound: {exc}"
    if proof is not None:
        return EntailmentResult("derivable", proof=proof)

    ls = sorted(letters(goal))
    condition_tags = tuple(sorted({c.tag for c in conds}))
    frames_seen = 0
    largest = 0
    for n in range(1, model_size + 1):
        for kept in _kept_relations(n, condition_tags):
            frames_seen += len(kept.succ) // n
            largest = n
            try:
                first = next(
                    refuting_structures(
                        kept.codes, kept.box, kept.diamond, goal, ls, model_budget
                    ),
                    None,
                )
            except ResourceBound as exc:
                unknown_notes["model_search"] = f"resource bound: {exc}"
                continue
            if first is None:
                continue
            j, _ = first
            frame = ModalLFrame(kept.base, tuple(kept.succ[j * n:(j + 1) * n]))
            cv = frame_validates(frame, goal, model_budget)
            if cv is None:
                raise InternalInconsistency(
                    f"batch search refutes {goal} on {frame}, frame_validates"
                    " finds no countervaluation"
                )
            return EntailmentResult("refuted", frame=frame, valuation=cv)
    unknown_notes["frames_searched"] = frames_seen
    unknown_notes["largest_frame_size"] = largest
    return EntailmentResult("unknown", diagnostics=unknown_notes)

"""Named axioms T, 4, B, 5, .2, their first-order frame conditions,
bidirectional correspondence checks, and closure of pullbacks under each
condition.  Four conditions are universal Horn, "for all x, and all y with
x R y when a term names y, A <= B" over the terms {x}, R[x], {y}, R[y]:
their `INCLUSIONS` rows are walked by one gap scan, `_inclusion_gaps`,
which the least-witness evaluator here and the sampler's closure in
`generators` share, and read by one space-condition kernel.
Directedness (for all, exists) is not Horn, so it and the `.2` space
condition stay written out.  The space conditions read the frame's
closure tables (`LFrame.up_closures`, `down_closures`)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .amalgam import pullback
from .duality import is_tight
from .errors import PreconditionViolated, resolve_budget
from .formulas import ConsequencePair, parse_pair
from .lframe import ModalLFrame, frame_validates

AXIOM_TAGS = ("T", "4", "B", "5", ".2")

AXIOMS: dict[str, tuple[ConsequencePair, ...]] = {
    "T": (parse_pair("[]p |- p"), parse_pair("p |- <>p")),
    "4": (parse_pair("[]p |- [][]p"), parse_pair("<><>p |- <>p")),
    "B": (parse_pair("p |- []<>p"), parse_pair("<>[]p |- p")),
    "5": (parse_pair("<>p |- []<>p"), parse_pair("<>[]p |- []p")),
    ".2": (parse_pair("<>[]p |- []<>p"),),
}

CONDITION_OF_AXIOM = {
    "T": "reflexivity",
    "4": "transitivity",
    "B": "symmetry",
    "5": "euclideanity",
    ".2": "directedness",
}

CONDITION_TAGS = tuple(CONDITION_OF_AXIOM[t] for t in AXIOM_TAGS)


def _named(table: dict, name: str, what: str):
    """`table[name]`; PreconditionViolated naming an unknown `what`."""
    try:
        return table[name]
    except KeyError:
        known = ", ".join(table)
        raise PreconditionViolated(
            f"unknown {what} {name!r} (known: {known})"
        ) from None


# A term of an inclusion row (A, B): bit _Y names y rather than x, bit _R
# the successor set rather than the singleton.
_R, _Y = 1, 2
_X, _RX, _RY = 0, _R, _Y | _R

INCLUSIONS = {
    "reflexivity": (_X, _RX),
    "transitivity": (_RY, _RX),
    "symmetry": (_X, _RY),
    "euclideanity": (_RX, _RY),
}


def _inclusion_gaps(succ, row: tuple[int, int]):
    """(x, y, A minus B) wherever `row` fails, x ascending and then y
    (y = x when no term mentions y).  Reads `succ` as it goes, so a
    caller may grow it between steps."""
    sub, sup = row
    over_y = (sub | sup) & _Y
    for x in range(len(succ)):
        ys = succ[x] if over_y else 1 << x
        while ys:
            y = (ys & -ys).bit_length() - 1
            ys &= ys - 1
            terms = (1 << x, succ[x], 1 << y, succ[y])
            gap = terms[sub] & ~terms[sup]
            if gap:
                yield x, y, gap


def _inclusion_witness(row: tuple[int, int], x: ModalLFrame):
    """The least failure of `row`: (x,) for a row over x alone, else
    (x, y), with the least point of A minus B when A is a successor
    set."""
    sub, sup = row
    for a, b, gap in _inclusion_gaps(x.succ, row):
        if not (sub | sup) & _Y:
            return (a,)
        return (a, b, (gap & -gap).bit_length() - 1) if sub & _R else (a, b)
    return None


def _space_gaps(axiom: str, row: tuple[int, int], x: ModalLFrame):
    """The existential space conditions that a tight frame meeting the
    Horn `row` must also exhibit (with the convexity of successor sets,
    in the frame-side proofs): wherever the row's quantifier prefix
    holds, each point c of A has a point of B below it (`-lower`), so
    lies in the up-closure of B, and one above it (`-upper`), in the
    down-closure of B.  Failures are witnessed as in
    `_inclusion_witness`, with c added when A is a successor set, each
    c's lower before its upper."""
    sub, sup = row
    up_cl, down_cl, succ = x.base.up_closures, x.base.down_closures, x.succ
    over_y = (sub | sup) & _Y
    out = []
    for a, b in x.pairs if over_y else [(a, a) for a in range(x.n)]:
        terms = (1 << a, succ[a], 1 << b, succ[b])
        a_set, b_set = terms[sub], terms[sup]
        gaps = (("lower", a_set & ~up_cl[b_set]), ("upper", a_set & ~down_cl[b_set]))
        for c in range(x.n):
            for side, missed in gaps:
                if missed >> c & 1:
                    w = (a, b, c) if sub & _R else (a, b) if over_y else (a,)
                    out.append((f"{axiom}-{side}", w))
    return out


def _dot2_space(x: ModalLFrame):
    """The space condition of `.2`, which is not Horn: for x R y and
    x R c, some point of R[c] lies above some point of R[y], that is,
    in the up-closure of R[y]."""
    up_cl, succ = x.base.up_closures, x.succ
    out = []
    for a, b in x.pairs:
        above = up_cl[succ[b]]
        for c in range(x.n):
            if succ[a] >> c & 1 and not succ[c] & above:
                out.append((".2-directed", (a, b, c)))
    return out


SPACE_CONDITIONS = {
    tag: partial(_space_gaps, tag, INCLUSIONS[CONDITION_OF_AXIOM[tag]])
    for tag in AXIOM_TAGS
    if CONDITION_OF_AXIOM[tag] in INCLUSIONS
}
SPACE_CONDITIONS[".2"] = _dot2_space


def _directedness(x: ModalLFrame):
    succ = x.succ
    for a, sa in enumerate(succ):
        for b in range(len(succ)):
            if sa >> b & 1:
                for c in range(len(succ)):
                    if sa >> c & 1 and not succ[b] & succ[c]:
                        return (a, b, c)
    return None


@dataclass(frozen=True)
class FrameCondition:
    """A first-order relational property with an exhaustive evaluator
    returning the least failure witness, or None when the frame
    satisfies it."""

    tag: str
    evaluator: Callable[[ModalLFrame], Optional[tuple]]


CONDITIONS: dict[str, FrameCondition] = {
    tag: FrameCondition(tag, partial(_inclusion_witness, row))
    for tag, row in INCLUSIONS.items()
}
CONDITIONS["directedness"] = FrameCondition("directedness", _directedness)


def frame_satisfies(x: ModalLFrame, cond: FrameCondition | str):
    """(holds, witness): witness is the least failing tuple or None."""
    if isinstance(cond, str):
        cond = _named(CONDITIONS, cond, "frame condition")
    witness = cond.evaluator(x)
    return witness is None, witness


@dataclass(frozen=True)
class CorrespondenceReport:
    axiom: str
    condition: str
    condition_holds: bool
    condition_witness: Optional[tuple]
    pair_results: tuple[tuple[str, bool], ...]
    countervaluations: tuple
    tight: bool
    space_condition_failures: tuple
    sound: bool  # condition implies all axiom pairs valid

    @property
    def all_pairs_valid(self) -> bool:
        return all(ok for _, ok in self.pair_results)

    def problems(self) -> list[dict]:
        """What contradicts the correspondence theorem, as failure
        records: an unsound report; on a tight frame, a condition that
        disagrees with the pairs' validity, or that holds while a space
        condition fails.  Empty when the report passes."""
        out = []
        if not self.sound:
            out.append({"reason": "soundness"})
        if self.tight and self.condition_holds != self.all_pairs_valid:
            out.append(
                {
                    "reason": "tight equivalence",
                    "condition": self.condition_holds,
                    "pairs": self.all_pairs_valid,
                }
            )
        if self.tight and self.condition_holds and self.space_condition_failures:
            detail = [list(map(str, t)) for t in self.space_condition_failures]
            out.append({"reason": "space conditions", "detail": detail})
        return out


def correspondence_check(
    x: ModalLFrame, axiom: str, budget: Optional[int] = None
) -> CorrespondenceReport:
    """Evaluate the frame condition, frame validity of the axiom's pairs,
    and (on tight frames) the derived existential space conditions.  The
    budget defaults through `resolve_budget`, so WPML_BUDGET applies."""
    budget = resolve_budget(budget)
    cond_tag = _named(CONDITION_OF_AXIOM, axiom, "axiom tag")
    holds, witness = frame_satisfies(x, cond_tag)
    pair_results = []
    cvs = []
    for pair in AXIOMS[axiom]:
        cv = frame_validates(x, pair, budget)
        pair_results.append((str(pair), cv is None))
        cvs.append(cv)
    tight = is_tight(x)
    space_failures = tuple(SPACE_CONDITIONS[axiom](x)) if tight else ()
    sound = (not holds) or all(ok for _, ok in pair_results)
    return CorrespondenceReport(
        axiom=axiom,
        condition=cond_tag,
        condition_holds=holds,
        condition_witness=witness,
        pair_results=tuple(pair_results),
        countervaluations=tuple(cvs),
        tight=tight,
        space_condition_failures=space_failures,
        sound=sound,
    )


def pullback_preserves(cond: FrameCondition | str, f1, f2):
    """True iff the pullback of two condition-satisfying surjective
    bounded L-morphisms satisfies the condition; returns (ok, witness).
    A False outcome falsifies the closure theorem for these inputs.
    PreconditionViolated if a leg domain or the common codomain fails
    the condition."""
    if isinstance(cond, str):
        cond = _named(CONDITIONS, cond, "frame condition")
    for leg in (f1, f2):
        holds, w = frame_satisfies(leg.dom, cond)
        if not holds:
            raise PreconditionViolated(f"leg domain fails {cond.tag} at {w}")
    holds, w = frame_satisfies(f1.cod, cond)
    if not holds:
        raise PreconditionViolated(f"common codomain fails {cond.tag} at {w}")
    pb = pullback(f1, f2)
    return frame_satisfies(pb.frame, cond)

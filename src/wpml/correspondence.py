"""Named axioms T, 4, B, 5, .2, their first-order frame conditions,
bidirectional correspondence checks, and closure of pullbacks under each
condition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import PreconditionViolated, resolve_budget
from .formulas import ConsequencePair, parse_pair
from .lframe import ModalLFrame, frame_validates
from .duality import is_tight

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


def _reflexivity(x: ModalLFrame):
    for a in range(x.n):
        if not x.succ[a] >> a & 1:
            return (a,)
    return None


def _transitivity(x: ModalLFrame):
    for a in range(x.n):
        sa = x.succ[a]
        for b in range(x.n):
            if not sa >> b & 1:
                continue
            if x.succ[b] & ~sa:
                c = (x.succ[b] & ~sa & -(x.succ[b] & ~sa)).bit_length() - 1
                return (a, b, c)
    return None


def _symmetry(x: ModalLFrame):
    for a in range(x.n):
        for b in range(x.n):
            if x.succ[a] >> b & 1 and not x.succ[b] >> a & 1:
                return (a, b)
    return None


def _euclideanity(x: ModalLFrame):
    for a in range(x.n):
        sa = x.succ[a]
        for b in range(x.n):
            if not sa >> b & 1:
                continue
            if sa & ~x.succ[b]:
                c = (sa & ~x.succ[b] & -(sa & ~x.succ[b])).bit_length() - 1
                return (a, b, c)
    return None


def _directedness(x: ModalLFrame):
    for a in range(x.n):
        sa = x.succ[a]
        for b in range(x.n):
            if not sa >> b & 1:
                continue
            for c in range(x.n):
                if sa >> c & 1 and not x.succ[b] & x.succ[c]:
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
    "reflexivity": FrameCondition("reflexivity", _reflexivity),
    "transitivity": FrameCondition("transitivity", _transitivity),
    "symmetry": FrameCondition("symmetry", _symmetry),
    "euclideanity": FrameCondition("euclideanity", _euclideanity),
    "directedness": FrameCondition("directedness", _directedness),
}


def frame_satisfies(x: ModalLFrame, cond: FrameCondition | str):
    """(holds, witness): witness is the least failing tuple or None."""
    if isinstance(cond, str):
        cond = _named(CONDITIONS, cond, "frame condition")
    witness = cond.evaluator(x)
    return witness is None, witness


# Existential conditions that tight frames satisfying the axioms must
# additionally exhibit (used with the convexity of successor sets in the
# frame-side proofs).

def _t_space(x: ModalLFrame):
    out = []
    for a in range(x.n):
        below = any(x.succ[a] >> y & 1 and x.le(y, a) for y in range(x.n))
        above = any(x.succ[a] >> y & 1 and x.le(a, y) for y in range(x.n))
        if not below:
            out.append(("T-lower", (a,)))
        if not above:
            out.append(("T-upper", (a,)))
    return out


def _4_space(x: ModalLFrame):
    out = []
    for a in range(x.n):
        for b in range(x.n):
            if not x.succ[a] >> b & 1:
                continue
            for c in range(x.n):
                if not x.succ[b] >> c & 1:
                    continue
                lo = any(x.succ[a] >> t & 1 and x.le(t, c) for t in range(x.n))
                hi = any(x.succ[a] >> t & 1 and x.le(c, t) for t in range(x.n))
                if not lo:
                    out.append(("4-lower", (a, b, c)))
                if not hi:
                    out.append(("4-upper", (a, b, c)))
    return out


def _b_space(x: ModalLFrame):
    out = []
    for a in range(x.n):
        for b in range(x.n):
            if not x.succ[a] >> b & 1:
                continue
            hi = any(x.succ[b] >> z & 1 and x.le(a, z) for z in range(x.n))
            lo = any(x.succ[b] >> z & 1 and x.le(z, a) for z in range(x.n))
            if not hi:
                out.append(("B-upper", (a, b)))
            if not lo:
                out.append(("B-lower", (a, b)))
    return out


def _5_space(x: ModalLFrame):
    out = []
    for a in range(x.n):
        for b in range(x.n):
            if not x.succ[a] >> b & 1:
                continue
            for c in range(x.n):
                if not x.succ[a] >> c & 1:
                    continue
                hi = any(x.succ[b] >> t & 1 and x.le(c, t) for t in range(x.n))
                lo = any(x.succ[b] >> t & 1 and x.le(t, c) for t in range(x.n))
                if not hi:
                    out.append(("5-upper", (a, c, b)))
                if not lo:
                    out.append(("5-lower", (a, b, c)))
    return out


def _dot2_space(x: ModalLFrame):
    out = []
    for a in range(x.n):
        for b in range(x.n):
            if not x.succ[a] >> b & 1:
                continue
            for c in range(x.n):
                if not x.succ[a] >> c & 1:
                    continue
                ok = any(
                    x.succ[b] >> u & 1 and x.succ[c] >> v & 1 and x.le(u, v)
                    for u in range(x.n)
                    for v in range(x.n)
                )
                if not ok:
                    out.append((".2-directed", (a, b, c)))
    return out


SPACE_CONDITIONS = {
    "T": _t_space,
    "4": _4_space,
    "B": _b_space,
    "5": _5_space,
    ".2": _dot2_space,
}


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
    from .amalgam import pullback

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

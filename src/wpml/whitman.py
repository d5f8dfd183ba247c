"""Order decision for the free bounded lattice on the letters.

Constants are normalized away first (a meet with F collapses, a join
with T collapses, units drop out), leaving T, F or a constant-free term;
the constant-free fragment is decided by Whitman's condition.  The
procedure is cross-checked against proof search and finite-lattice
countermodel search rather than trusted axiomatically.
"""

from __future__ import annotations

from .errors import PreconditionViolated
from .formulas import (
    BOT,
    TOP,
    And,
    Bot,
    Formula,
    Letter,
    Or,
    Top,
    is_modality_free,
)


def normalize_constants(f: Formula) -> Formula:
    """Collapse T/F through meets and joins, bottom-up."""
    if isinstance(f, And):
        a = normalize_constants(f.lhs)
        b = normalize_constants(f.rhs)
        if isinstance(a, Bot) or isinstance(b, Bot):
            return BOT
        if isinstance(a, Top):
            return b
        if isinstance(b, Top):
            return a
        return And(a, b)
    if isinstance(f, Or):
        a = normalize_constants(f.lhs)
        b = normalize_constants(f.rhs)
        if isinstance(a, Top) or isinstance(b, Top):
            return TOP
        if isinstance(a, Bot):
            return b
        if isinstance(b, Bot):
            return a
        return Or(a, b)
    return f


def _whitman(a: Formula, b: Formula, memo: dict) -> bool:
    """Whitman's condition on constant-free terms.  `memo` holds the
    answers for subterm pairs of one `free_lattice_leq` call."""
    key = (a, b)
    if key not in memo:
        memo[key] = _whitman_step(a, b, memo)
    return memo[key]


def _whitman_step(a: Formula, b: Formula, memo: dict) -> bool:
    if isinstance(a, Or):
        return _whitman(a.lhs, b, memo) and _whitman(a.rhs, b, memo)
    if isinstance(b, And):
        return _whitman(a, b.lhs, memo) and _whitman(a, b.rhs, memo)
    if isinstance(a, Letter):
        if isinstance(b, Letter):
            return a.name == b.name
        # b is a join
        return _whitman(a, b.lhs, memo) or _whitman(a, b.rhs, memo)
    # a is a meet
    if _whitman(a.lhs, b, memo) or _whitman(a.rhs, b, memo):
        return True
    if isinstance(b, Or):
        return _whitman(a, b.lhs, memo) or _whitman(a, b.rhs, memo)
    return False


def free_lattice_leq(phi: Formula, psi: Formula) -> bool:
    """True iff phi |- psi is derivable in the pure bounded-lattice
    calculus.  Both formulas must be modality free."""
    if not (is_modality_free(phi) and is_modality_free(psi)):
        raise PreconditionViolated("free_lattice_leq needs modality-free formulas")
    a = normalize_constants(phi)
    b = normalize_constants(psi)
    if isinstance(a, Bot) or isinstance(b, Top):
        return True
    if isinstance(a, Top):
        return isinstance(b, Top)
    if isinstance(b, Bot):
        return isinstance(a, Bot)
    return _whitman(a, b, {})

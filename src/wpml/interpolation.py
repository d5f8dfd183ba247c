"""Craig interpolant search, tying together proof search, countermodel
search, and the distributive-fragment decision.

Candidates are joins of meets over a pool of shared-letter subformulas
(with the constants, closed once under box/diamond), enumerated by
increasing total pool-atom count; the returned interpolant is the least
candidate in that canonical order for which both derivations are found.

Before any proof search, a candidate is dropped when a modal lattice of
the proof search's screening set (`proofs._screening_algebras`) refutes
one of its obligations.  Each obligation, left first, is evaluated on the
set at once by a packed screen (`vectors.PackedScreen`) by the proof
search's rule: an obligation over more than three letters is not
screened, which keeps a candidate, never drops one, and leaves it to the
proof search.  A candidate has shared letters only, so the letters of
its left obligation are phi's and those of its right one psi's, found
once per call.

`craig_interpolant` tries the candidates before it decides the goal: an
interpolant's two proofs entail the goal, so the entailment check
(`entailment.decide_entailment` with `proofs.derivable`'s iterative
deepening) runs only for a goal that the root checks refute, at the
first candidate whose obligations are searched and fail, at the first
candidate screened out past the one-atom ones, or after the last
candidate, and only a refuted or unknown verdict of it is returned.  It
makes one `proofs.SearchSetup` per call: the entailment search, the
candidate screen and the obligation searches (depth-first) share its
screen, so each formula's packed vectors are built once per call, and
its memo of axiom instances and modal closures, which their cut pools
draw on.  It is dropped with the call.  The distributive fragment's
obligations share one set-up at caps (64, 128).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from typing import Optional

from .catalog import all_distributive_lattices
from .entailment import (
    DEFAULT_MODEL_SIZE,
    DEFAULT_PROOF_DEPTH,
    MAX_MODEL_SIZE,
    decide_entailment,
    gamma_pairs,
)
from .errors import InternalInconsistency, PreconditionViolated, ResourceBound, SizeCap
from .formulas import (
    BOT,
    TOP,
    And,
    Box,
    ConsequencePair,
    Dia,
    Formula,
    Letter,
    Or,
    _size_key,
    formula_key,
    is_modality_free,
    letters,
    parse_pair,
    size,
    subformulas,
)
from .lattice import FiniteLattice, Valuation, algebra_validates
from .proofs import (
    MAX_PROOF_DEPTH,
    Proof,
    SearchSetup,
    _root_refuted,
    check_proof,
    derive_bounded,
)

DISTRIBUTIVITY = (parse_pair("p & (q v r) |- p & q v p & r"),)
DISTRIBUTIVE_PROOF_DEPTH = 8


@dataclass(frozen=True)
class InterpolationProblem:
    phi: Formula
    psi: Formula
    tags: tuple[str, ...] = ()
    proof_depth: int = DEFAULT_PROOF_DEPTH
    cand_size: int = 4
    model_size: int = DEFAULT_MODEL_SIZE
    proof_budget: int = 100_000

    @property
    def shared(self) -> tuple[str, ...]:
        return tuple(sorted(letters(self.phi) & letters(self.psi)))


@dataclass(frozen=True)
class CounterModel:
    kind: str  # "frame" | "algebra"
    structure: object
    valuation: dict


@dataclass(frozen=True)
class InterpolationResult:
    verdict: str  # "interpolant" | "no-entailment" | "unknown"
    interpolant: Optional[Formula] = None
    proof_left: Optional[Proof] = None
    proof_right: Optional[Proof] = None
    countermodel: Optional[CounterModel] = None
    diagnostics: dict = field(default_factory=dict)


def _fold_and(atoms) -> Formula:
    return reduce(And, atoms)


def _fold_or(parts) -> Formula:
    return reduce(Or, parts)


def candidate_pool(phi: Formula, psi: Formula, shared) -> tuple[Formula, ...]:
    """Shared-letter subformulas of both sides plus the constants, closed
    once under the modalities; sorted by (size, structural key)."""
    shared = frozenset(shared)
    base = {TOP, BOT}
    for sub in subformulas(phi) | subformulas(psi):
        if letters(sub) <= shared:
            base.add(sub)
    once = set(base)
    for f in base:
        once.add(Box(f))
        once.add(Dia(f))
    return tuple(sorted(once, key=_size_key))


def enumerate_candidates(pool, max_atoms: int):
    """Joins of meets of distinct pool atoms, by increasing total atom
    count, then by structural order.  Buckets are generated lazily per
    weight, so cheap candidates never pay for the heavy tail.  Joins in
    which one meet absorbs another are skipped (they are equivalent to a
    lighter candidate already emitted)."""
    n = len(pool)
    seen = set()
    for total in range(1, max_atoms + 1):
        meets = [
            combo
            for r in range(1, total + 1)
            for combo in combinations(range(n), r)
        ]
        sets = [frozenset(c) for c in meets]

        def rec(start: int, left: int, acc):
            if left == 0 and acc:
                yield tuple(acc)
                return
            for i in range(start, len(meets)):
                if len(meets[i]) > left:
                    continue
                if any(
                    sets[i] <= sets[j] or sets[j] <= sets[i] for j in acc
                ):
                    continue
                acc.append(i)
                yield from rec(i + 1, left - len(meets[i]), acc)
                acc.pop()

        bucket = []
        for join_combo in rec(0, total, []):
            parts = [_fold_and([pool[i] for i in meets[mi]]) for mi in join_combo]
            cand = _fold_or(parts)
            if cand in seen:
                continue
            seen.add(cand)
            bucket.append((sum(size(p) for p in parts), formula_key(cand), cand))
        bucket.sort(key=lambda t: t[:2])
        for item in bucket:
            yield item[2]


def _assert_obligations(result: InterpolationResult, shared, gamma) -> None:
    """InternalInconsistency unless the interpolant has only `shared`
    letters and both derivations check against `gamma`."""
    if not letters(result.interpolant) <= frozenset(shared):
        raise InternalInconsistency("interpolant uses non-shared letters")
    if check_proof(result.proof_left, gamma) is not None:
        raise InternalInconsistency("left derivation does not check")
    if check_proof(result.proof_right, gamma) is not None:
        raise InternalInconsistency("right derivation does not check")


def _entailment_verdict(
    prob: InterpolationProblem, setup: SearchSetup
) -> Optional[InterpolationResult]:
    """The result for a goal the entailment check does not derive: its
    frame countermodel as `no-entailment`, or `unknown` with its
    diagnostics; None where it derives the goal."""
    ent = decide_entailment(
        prob.tags,
        ConsequencePair(prob.phi, prob.psi),
        proof_depth=prob.proof_depth,
        model_size=prob.model_size,
        proof_budget=prob.proof_budget,
        setup=setup,
        deepening=True,
    )
    if ent.refuted:
        cm = CounterModel("frame", ent.frame, ent.valuation)
        return InterpolationResult("no-entailment", countermodel=cm)
    if not ent.derivable:
        return InterpolationResult(
            "unknown", diagnostics={"entailment": ent.diagnostics}
        )
    return None


def craig_interpolant(prob: InterpolationProblem) -> InterpolationResult:
    """Least-candidate interpolant search; the entailment check
    (`decide_entailment(..., deepening=True)`) runs only where a
    candidate cannot answer for it.  An interpolant comes with proofs of
    phi |- chi and chi |- psi, which entail the goal by transitivity, so
    the candidates come first, and the first whose two obligations are
    derived is returned.  The check runs at most once: before any
    candidate, for a goal that the root checks refute
    (`proofs._root_refuted`); else at the first candidate whose
    obligations are searched and not both derived, or at the first
    candidate screened out after the one-atom candidates (the first
    `len(pool)`), or after the candidates run out.  Its refuted or
    unknown verdict is the result.  Where it derives the goal, the
    candidates go on, and nothing of the check reaches the result.

    So every interpolant and every countermodel of the entailment-first
    order is kept, and so are its `unknown`s, except where a candidate's
    obligations are derived although the check derives no proof of the
    goal within `proof_depth` and the budget: there the result is that
    interpolant.  Before the check, a goal that does not entail has at
    most `len(pool) + 1` candidates screened (the two-atom bucket is
    built for the last), and one candidate's obligations searched: no
    candidate of such a goal has both obligations derived, so the first
    search runs the check.

    A `model_size` above `entailment.MAX_MODEL_SIZE` or a `proof_depth`
    above `proofs.MAX_PROOF_DEPTH` raises SizeCap before any search.  The
    check, the candidate screen and the (depth-first) obligation searches
    share one `proofs.SearchSetup`, made for the call."""
    if prob.model_size > MAX_MODEL_SIZE:
        raise SizeCap(
            f"model size {prob.model_size} exceeds the cap of {MAX_MODEL_SIZE}"
        )
    if prob.proof_depth > MAX_PROOF_DEPTH:
        raise SizeCap(
            f"proof depth {prob.proof_depth} exceeds the cap of {MAX_PROOF_DEPTH}"
        )
    gamma = gamma_pairs(prob.tags)
    setup = SearchSetup(gamma)
    # a goal the root checks refute has no proof, so no candidate has two
    checked = _root_refuted(setup, ConsequencePair(prob.phi, prob.psi))
    if checked and (verdict := _entailment_verdict(prob, setup)):
        return verdict
    screen = setup.screen
    pool = candidate_pool(prob.phi, prob.psi, prob.shared)
    # a candidate's letters are shared ones, so each obligation's letters
    # are those of its other side
    left_ls = tuple(sorted(letters(prob.phi)))
    right_ls = tuple(sorted(letters(prob.psi)))
    tried = 0
    notes: dict = {}
    for chi in enumerate_candidates(pool, prob.cand_size):
        tried += 1
        screened_out = screen.refutes(
            ((prob.phi, chi, left_ls), (chi, prob.psi, right_ls))
        )
        if not screened_out:
            left_goal = ConsequencePair(prob.phi, chi)
            right_goal = ConsequencePair(chi, prob.psi)
            try:
                left = derive_bounded(
                    gamma, left_goal, prob.proof_depth, prob.proof_budget, setup=setup
                )
                right = None if left is None else derive_bounded(
                    gamma, right_goal, prob.proof_depth, prob.proof_budget, setup=setup
                )
            except ResourceBound as exc:
                notes.setdefault("resource_bounds", []).append(str(exc))
                right = None
            if right is not None:
                result = InterpolationResult("interpolant", chi, left, right)
                _assert_obligations(result, prob.shared, gamma)
                return result
        if not checked and (not screened_out or tried > len(pool)):
            checked = True
            if verdict := _entailment_verdict(prob, setup):
                return verdict
    if not checked and (verdict := _entailment_verdict(prob, setup)):
        return verdict
    notes.update(
        {
            "entailment": "derivable",
            "candidates_tried": tried,
            "cand_size": prob.cand_size,
            "proof_depth": prob.proof_depth,
        }
    )
    return InterpolationResult("unknown", diagnostics=notes)


# --- distributive fragment ---------------------------------------------------

def _dist_entails(pair: ConsequencePair) -> Optional[tuple[FiniteLattice, Valuation]]:
    """The two-element lattice with its first countervaluation of the
    modality-free pair, or None when the pair holds on it.  That decides
    the pair on every distributive lattice: the one-element lattice
    refutes nothing, and a prime filter that separates the two sides of
    a refutation elsewhere maps it onto the two-element one (Birkhoff)."""
    lat = all_distributive_lattices(2)[0]
    cv = algebra_validates(lat, pair)
    return None if cv is None else (lat, cv)


def _dnf_candidates(shared):
    """Canonical DNF candidates over the shared letters: the constants,
    then joins of antichains of letter sets, by increasing atom count."""
    yield BOT
    yield TOP
    shared = tuple(shared)
    k = len(shared)
    meets = []
    for r in range(1, k + 1):
        for combo in combinations(range(k), r):
            meets.append(frozenset(combo))
    ranked = []
    for count in range(1, len(meets) + 1):
        for sel in combinations(range(len(meets)), count):
            sets = [meets[i] for i in sel]
            if any(a < b or b < a for a in sets for b in sets):
                continue  # not an antichain: absorbed term
            total = sum(len(s) for s in sets)
            parts = [
                _fold_and([Letter(shared[i]) for i in sorted(s)]) for s in sets
            ]
            cand = _fold_or(sorted(parts, key=formula_key))
            ranked.append((total, formula_key(cand), cand))
    ranked.sort(key=lambda t: t[:2])
    for item in ranked:
        yield item[2]


def distributive_fragment_interpolant(
    phi: Formula,
    psi: Formula,
    proof_depth: int = DISTRIBUTIVE_PROOF_DEPTH,
    proof_budget: int = 300_000,
) -> InterpolationResult:
    """Interpolation for the modality-free fragment over distributive
    lattices.  Entailment is decided on the two-element lattice, which
    refutes every pair that some distributive lattice refutes
    (`_dist_entails`); candidates are canonical DNFs over the shared
    letters and the accepted one comes with derivations using the
    distributivity axiom.  A `proof_depth` above `MAX_PROOF_DEPTH`
    raises SizeCap before any search, as `derive_bounded` does."""
    if not (is_modality_free(phi) and is_modality_free(psi)):
        raise PreconditionViolated("distributive fragment is modality free")
    if proof_depth > MAX_PROOF_DEPTH:
        raise SizeCap(
            f"proof depth {proof_depth} exceeds the cap of {MAX_PROOF_DEPTH}"
        )
    shared = tuple(sorted(letters(phi) & letters(psi)))
    if len(shared) > 4:
        raise ResourceBound(2 ** (2 ** len(shared)), 2**16)
    refutation = _dist_entails(ConsequencePair(phi, psi))
    if refutation is not None:
        lat, cv = refutation
        return InterpolationResult(
            "no-entailment", countermodel=CounterModel("algebra", lat, cv)
        )
    notes: dict = {"entailment": "valid-on-distributive-catalog"}
    setup = SearchSetup(DISTRIBUTIVITY, instance_cap=64, pool_cap=128)
    for chi in _dnf_candidates(shared):
        if _dist_entails(ConsequencePair(phi, chi)) is not None:
            continue
        if _dist_entails(ConsequencePair(chi, psi)) is not None:
            continue
        try:
            left_goal = ConsequencePair(phi, chi)
            right_goal = ConsequencePair(chi, psi)
            left = derive_bounded(
                DISTRIBUTIVITY, left_goal, proof_depth, proof_budget, setup=setup
            )
            right = (
                derive_bounded(
                    DISTRIBUTIVITY, right_goal, proof_depth, proof_budget, setup=setup
                )
                if left is not None
                else None
            )
        except ResourceBound as exc:
            notes.setdefault("resource_bounds", []).append(str(exc))
            continue
        if left is None or right is None:
            notes.setdefault("semantic_only", []).append(str(chi))
            continue
        result = InterpolationResult("interpolant", chi, left, right)
        _assert_obligations(result, shared, DISTRIBUTIVITY)
        return result
    return InterpolationResult("unknown", diagnostics=notes)

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

`craig_interpolant` makes one `proofs.SearchSetup` per call: the
entailment search, the candidate screen and the obligation searches
share its screen, so each formula's packed vectors are built once per
call, and its memo of axiom instances and modal closures, which their
cut pools draw on.  It is dropped with the call.  The entailment search
is `proofs.derivable`'s iterative deepening, the obligation searches
depth-first.  The distributive fragment's obligations share one set-up
at caps (64, 128).
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
from .proofs import MAX_PROOF_DEPTH, Proof, SearchSetup, check_proof, derive_bounded

DISTRIBUTIVITY = (parse_pair("p & (q v r) |- p & q v p & r"),)


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


def craig_interpolant(prob: InterpolationProblem) -> InterpolationResult:
    """Entailment first (so no-entailment never spends the candidate
    budget); then least-candidate interpolant search.  The entailment
    search, the candidate screen and the obligation searches share one
    `proofs.SearchSetup`, made for the call.  The entailment search is
    iterative deepening (`decide_entailment(..., deepening=True)`), which
    gives the depth-first verdict: the problems this serves mostly entail
    with a proof of small height, found at less cost than depth-first
    (the golden corpus's, of height 2 to 4 at depth 6).  On a problem that
    does not entail it searches again at each depth, and where it runs
    out of the proof budget the depth-first search runs as well."""
    goal = ConsequencePair(prob.phi, prob.psi)
    gamma = gamma_pairs(prob.tags)
    setup = SearchSetup(gamma)
    ent = decide_entailment(
        prob.tags,
        goal,
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
    pool = candidate_pool(prob.phi, prob.psi, prob.shared)
    screen = setup.screen
    # a candidate's letters are shared ones, so each obligation's letters
    # are those of its other side
    left_ls = tuple(sorted(letters(prob.phi)))
    right_ls = tuple(sorted(letters(prob.psi)))
    tried = 0
    notes: dict = {}
    for chi in enumerate_candidates(pool, prob.cand_size):
        tried += 1
        if screen.refutes(((prob.phi, chi, left_ls), (chi, prob.psi, right_ls))):
            continue
        left_goal = ConsequencePair(prob.phi, chi)
        right_goal = ConsequencePair(chi, prob.psi)
        try:
            left = derive_bounded(
                gamma, left_goal, prob.proof_depth, prob.proof_budget, setup=setup
            )
            if left is None:
                continue
            right = derive_bounded(
                gamma, right_goal, prob.proof_depth, prob.proof_budget, setup=setup
            )
        except ResourceBound as exc:
            notes.setdefault("resource_bounds", []).append(str(exc))
            continue
        if right is None:
            continue
        result = InterpolationResult("interpolant", chi, left, right)
        _assert_obligations(result, prob.shared, gamma)
        return result
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
    phi: Formula, psi: Formula, proof_depth: int = 8, proof_budget: int = 300_000
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

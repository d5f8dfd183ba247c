"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest -s tests/test_acceptance.py -v` to see the
per-criterion lines.  Shared corpora are module-scoped fixtures, so the
criteria stay order-independent.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from wpml import proofs
from wpml.catalog import all_lattices
from wpml.correspondence import AXIOM_TAGS, AXIOMS, CONDITION_OF_AXIOM, frame_satisfies
from wpml.duality import fil_l, is_tight, round_trip_iso
from wpml.entailment import gamma_pairs
from wpml.formulas import (
    And,
    Box,
    ConsequencePair,
    Dia,
    Or,
    connectives,
    letters,
    match,
    match_pair,
    parse_formula,
    parse_pair,
    pretty,
)
from wpml.generators import sample_modal_lattice, sample_modal_lframe
from wpml.interpolation import (
    InterpolationProblem,
    candidate_pool,
    craig_interpolant,
    enumerate_candidates,
)
from wpml.lattice import (
    LatticeMorphism,
    algebra_validates,
    is_epi_bounded,
    with_identity_modalities,
)
from wpml.lframe import fil_f, frame_validates
from wpml.proofs import (
    RULES,
    _screen_tables,
    _screening_algebras,
    check_proof,
    derive_bounded,
)
from wpml.serialize import (
    dumps,
    interpolation_report_to_json,
    load_artifact,
    proof_to_json,
    wrap,
)
from wpml.sweeps import (
    closure_sweep,
    correspondence_sweep,
    duality_sweep,
    jonsson_sweep,
    superamalgamation_sweep,
)
from wpml.vectors import PackedScreen
from wpml.whitman import free_lattice_leq

from conftest import all_modal_lframes, literal_derive_bounded

SEEDS = {
    "duality": 1001,
    "superamalgamation": 2002,
    "closure": 3003,
    "jonsson": 4004,
    "logic": 5005,
    "soundness": 6006,
}


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# --- shared corpora -----------------------------------------------------------

@pytest.fixture(scope="module")
def catalog_corpus():
    """All bounded lattices of size <= 6 up to isomorphism, with identity
    modalities."""
    return [
        with_identity_modalities(lat)
        for n in range(1, 7)
        for lat in all_lattices(n)
    ]


@pytest.fixture(scope="module")
def seeded_corpus():
    """500 modal lattices built as filter algebras of random valid frames
    of size <= 5."""
    rng = random.Random(SEEDS["duality"])
    return [sample_modal_lattice(rng, rng.randint(1, 5)) for _ in range(500)]


@pytest.fixture(scope="module")
def superamalgamation_report():
    return superamalgamation_sweep(SEEDS["superamalgamation"], 200)


def golden_corpus():
    """50 entailing pairs built from axiom instances composed with
    shared-letter substitutions, including the worked examples."""
    return [
        ("p & q", "p v r", ()),
        ("q & p", "r v p", ()),
        ("(p1 & p2) & q", "(p1 & p2) v r", ()),
        ("[]p & q", "[]p v r", ()),
        ("<>p & q", "<>p v r", ()),
        ("p & (q & s)", "p v r", ()),
        ("p & q", "(p v r) v s", ()),
        ("[](p & q)", "[]p v r", ()),
        ("<>(p & q)", "<>p v r", ()),
        ("[](p & q) & s", "[]p v r", ()),
        ("[]((p1 & p2) & q)", "[](p1 & p2) v r", ()),
        ("[]p & []q", "[](p & q) v r", ()),
        ("<>p & []q", "<>(p & q) v r", ()),
        ("([]p & []q) & s", "[](p & q) v r", ()),
        ("F", "r", ()),
        ("q & F", "r", ()),
        ("q", "r v T", ()),
        ("q", "<>T v r", ()),
        ("q", "[]T v r", ()),
        ("[](p & q)", "<>p", ("T",)),
        ("[]p & q", "p v r", ("T",)),
        ("p & q", "<>p v r", ("T",)),
        ("[](p1 & p2) & q", "(p1 & p2) v r", ("T",)),
        ("[]p & q", "<>p v r", ("T",)),
        ("[]p & q", "[][]p v r", ("4",)),
        ("<><>p & q", "<>p v r", ("4",)),
        ("[](p & s) & q", "[][]p v r", ("4",)),
        ("p & q", "[]<>p v r", ("B",)),
        ("<>[]p & q", "p v r", ("B",)),
        ("(p & s) & q", "[]<>p v r", ("B",)),
        ("<>p & q", "[]<>p v r", ("5",)),
        ("<>[]p & q", "[]p v r", ("5",)),
        ("<>p & (q & s)", "[]<>p v r", ("5",)),
        ("<>[]p & q", "[]<>p v r", (".2",)),
        ("<>[](p1 & p2) & q", "[]<>(p1 & p2) v r", (".2",)),
        ("(p & q) & s", "p v (r v s2)", ()),
        ("<>(p1 & p2) & s", "<>p1 v r", ()),
        ("p1 & (p2 & q)", "(p1 & p2) v r", ()),
        ("<>(p & q) & s", "<>p v r", ()),
        ("[](p & q)", "[]p", ()),
        ("p & q", "p", ()),
        ("p & q", "q v r", ()),
        ("[](p & q) & <>s", "[]q v r", ()),
        ("(q & p) & s", "r v p", ()),
        ("[]p & []q", "[]p v r", ()),
        ("<>p & []q", "<>p v r", ()),
        ("[](p1 & (p2 & q))", "[]p1 v r", ()),
        ("((p & q) & s) & s2", "p v r", ()),
        ("F & q", "[]r v s", ()),
        ("[]((p & q) & s)", "[]p v ([]q v r)", ()),
    ]


@pytest.fixture(scope="module")
def golden_run():
    """The golden problems through `craig_interpolant`, with the summed
    work counters of every proof search they make (recorded the way
    `perfbench/tracing.py` records them, by wrapping `ProofSearch`)."""
    counters = dict.fromkeys(
        ("expansions", "screen_calls", "screen_rejects", "memo_entries"), 0
    )
    searches = []

    def harvest():
        # searches run one after another, so every recorded one is done
        for search in searches:
            counters["expansions"] += search.expansions
            counters["screen_calls"] += search.screen_calls
            counters["screen_rejects"] += search.screen_rejects
            counters["memo_entries"] += len(search.success) + len(search.failed_at)
        searches.clear()

    class RecordedProofSearch(proofs.ProofSearch):
        def __init__(self, *args, **kwargs):
            harvest()
            super().__init__(*args, **kwargs)
            searches.append(self)

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proofs, "ProofSearch", RecordedProofSearch)
        for phi, psi, tags in golden_corpus():
            prob = InterpolationProblem(parse_formula(phi), parse_formula(psi), tags)
            out.append((prob, craig_interpolant(prob)))
    harvest()
    return out, counters


@pytest.fixture(scope="module")
def golden_results(golden_run):
    return golden_run[0]


def test_golden_search_counters_are_pinned(golden_run):
    """The work of the golden corpus's proof searches; screening changes
    cost, never the search.  The candidate screen takes obligations of at
    most three letters only, so candidate F for `((p & q) & s) & s2 |-
    p v r` reaches `derive_bounded` with `p & q & s & s2 |- F`; Whitman's
    root check refutes it there, so no search runs for it.  A memoized
    success is reused only within its height, and a root that
    `derive_bounded` screened is not screened again by its search.
    `craig_interpolant` tries the candidates first and runs its
    entailment check, `proofs.derivable`'s iterative deepening, only
    after a candidate's obligations fail, as for that F; where the check
    ran first on every problem, the counters read 29,229 expansions,
    20,924 screen calls, 12,279 rejects and 22,500 memo entries."""
    assert golden_run[1] == {
        "expansions": 23_096,
        "screen_calls": 15_710,
        "screen_rejects": 9_355,
        "memo_entries": 16_753,
    }


def _random_lattice_formula(rng, depth, letters=("p", "q", "r")):
    from wpml.formulas import BOT, TOP, And, Letter, Or

    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice([Letter(x) for x in letters] + [TOP, BOT])
    ctor = And if roll < 0.7 else Or
    return ctor(
        _random_lattice_formula(rng, depth - 1, letters),
        _random_lattice_formula(rng, depth - 1, letters),
    )


@pytest.fixture(scope="module")
def logic_cross_check_results():
    """500 modality-free pairs with <= 5 connectives: whitman verdict,
    bounded derivation, and exhaustive countermodel search over all
    lattices of size <= 6.  The derivation is an ungated search:
    `derive_bounded` itself rejects such a root by Whitman's condition."""
    rng = random.Random(SEEDS["logic"])
    rows = []
    while len(rows) < 500:
        phi = _random_lattice_formula(rng, rng.randint(0, 3))
        psi = _random_lattice_formula(rng, rng.randint(0, 3))
        total = connectives(phi) + connectives(psi)
        if total > 5:
            continue
        whitman = free_lattice_leq(phi, psi)
        depth = 2 * max(total, 1)
        proof = literal_derive_bounded((), ConsequencePair(phi, psi), depth)
        counter = None
        for n in range(1, 7):
            for lat in all_lattices(n):
                cv = algebra_validates(lat, ConsequencePair(phi, psi))
                if cv is not None:
                    counter = (lat, cv)
                    break
            if counter:
                break
        rows.append((phi, psi, whitman, proof, counter))
    return rows


# --- criteria ------------------------------------------------------------------

def test_criterion_01_duality_round_trip(catalog_corpus, seeded_corpus):
    from wpml.lattice import check_modal_identities

    failures = []
    for a in catalog_corpus + seeded_corpus:
        try:
            if check_modal_identities(a):
                failures.append((a.n, "identities"))
                continue
            round_trip_iso(a)
        except Exception as exc:
            failures.append((a.n, repr(exc)))
    report(
        1,
        not failures,
        f"{len(catalog_corpus)} catalog + {len(seeded_corpus)} seeded round trips, "
        f"{len(failures)} failures",
    )


def test_criterion_02_superamalgamation_sweep(superamalgamation_report):
    rep = superamalgamation_report
    report(
        2,
        rep["count"] == 200 and not rep["failures"],
        f"{rep['passes']}/200 spans pass, {rep['witness_pairs_checked']} witness "
        f"pairs, construction failures: {rep['failures']}",
    )


def test_criterion_03_separation_claim(superamalgamation_report):
    rep = superamalgamation_report
    report(
        3,
        not rep["claim_failures"],
        f"claim assertions on all {rep['count']} sweep instances, "
        f"failures: {rep['claim_failures']}",
    )


def test_criterion_04_correspondence_on_tight_frames(catalog_corpus, seeded_corpus):
    spaces = {}
    for a in catalog_corpus + seeded_corpus:
        space = fil_l(a)
        if space.frame.n <= 4:
            spaces[space.frame] = True
    mismatches = []
    for frame in spaces:
        assert is_tight(frame)
        for tag in AXIOM_TAGS:
            cond_holds, _ = frame_satisfies(frame, CONDITION_OF_AXIOM[tag])
            pairs_valid = all(
                frame_validates(frame, p) is None for p in AXIOMS[tag]
            )
            if cond_holds != pairs_valid:
                mismatches.append((frame.succ, tag, cond_holds, pairs_valid))
    report(
        4,
        len(spaces) > 0 and not mismatches,
        f"{len(spaces)} tight frames x {len(AXIOM_TAGS)} axioms, "
        f"mismatches: {mismatches[:3]}",
    )


def test_criterion_05_pullback_closure():
    bad = []
    total = 0
    for tag in ("reflexivity", "transitivity", "symmetry", "euclideanity", "directedness"):
        rep = closure_sweep(tag, SEEDS["closure"], 100)
        total += rep["count"]
        if not rep["ok"]:
            bad.append((tag, rep["failures"]))
    report(5, not bad, f"{total} co-V-formations over 5 conditions, failures: {bad}")


def test_criterion_06_epi_not_surjective():
    chain3 = all_lattices(3)[0]
    b4 = next(
        lat
        for lat in all_lattices(4)
        if not all(lat.leq[i][j] or lat.leq[j][i] for i in range(4) for j in range(4))
    )
    h = LatticeMorphism(chain3, b4, (0, 1, 3))
    rep = is_epi_bounded(h, 5, restrict_distributive=True)
    ok = rep.epi and rep.bound == 5 and not h.is_surjective()
    report(6, ok, f"3-chain into B4: epi(bound=5, distributive)={rep.epi}, "
                  f"surjective={h.is_surjective()}")


def test_criterion_07_logic_cross_checks(logic_cross_check_results):
    inconsistencies = []
    for phi, psi, whitman, proof, counter in logic_cross_check_results:
        if proof is not None and counter is not None:
            inconsistencies.append((str(phi), str(psi), "proof+countermodel"))
        if whitman and counter is not None:
            inconsistencies.append((str(phi), str(psi), "whitman-true+countermodel"))
        if not whitman and proof is not None:
            inconsistencies.append((str(phi), str(psi), "whitman-false+proof"))
        if whitman and proof is None:
            inconsistencies.append((str(phi), str(psi), "whitman-true+no-proof"))
        if not whitman and counter is None:
            inconsistencies.append((str(phi), str(psi), "whitman-false+no-countermodel"))
    report(
        7,
        len(logic_cross_check_results) == 500 and not inconsistencies,
        f"500 pairs, inconsistencies: {inconsistencies[:3]}",
    )


def test_criterion_08_soundness_of_all_proofs(
    logic_cross_check_results, golden_results
):
    rng = random.Random(SEEDS["soundness"])
    algebras = [sample_modal_lattice(rng, rng.randint(1, 4)) for _ in range(50)]
    frames = [sample_modal_lframe(rng, rng.randint(1, 4)) for _ in range(50)]
    collected = {}
    for _, _, _, proof, _ in logic_cross_check_results:
        if proof is not None:
            collected[(proof.conclusion, ())] = proof
    for prob, res in golden_results:
        gamma = gamma_pairs(prob.tags)
        for proof in (res.proof_left, res.proof_right):
            if proof is not None:
                collected[(proof.conclusion, gamma)] = proof
    failures = []
    checked = 0
    for (conclusion, gamma), proof in collected.items():
        assert check_proof(proof, gamma) is None
        for a in algebras:
            if all(algebra_validates(a, g) is None for g in gamma):
                checked += 1
                if algebra_validates(a, conclusion) is not None:
                    failures.append(("algebra", str(conclusion)))
        for x in frames:
            if all(frame_validates(x, g) is None for g in gamma):
                checked += 1
                if frame_validates(x, conclusion) is not None:
                    failures.append(("frame", str(conclusion)))
    report(
        8,
        len(collected) > 100 and checked > 5000 and not failures,
        f"{len(collected)} distinct proof conclusions x structures "
        f"({checked} validations), failures: {failures[:3]}",
    )


def test_criterion_09_interpolation_golden_corpus(golden_results):
    problems = []
    for prob, res in golden_results:
        if res.verdict != "interpolant":
            problems.append((str(prob.phi), str(prob.psi), res.verdict))
            continue
        shared = frozenset(prob.shared)
        gamma = gamma_pairs(prob.tags)
        if not letters(res.interpolant) <= shared:
            problems.append((str(prob.phi), "non-shared letters"))
        if check_proof(res.proof_left, gamma) is not None:
            problems.append((str(prob.phi), "left proof rejected"))
        if check_proof(res.proof_right, gamma) is not None:
            problems.append((str(prob.phi), "right proof rejected"))
    refut = craig_interpolant(
        InterpolationProblem(parse_formula("q"), parse_formula("r"))
    )
    if refut.verdict != "no-entailment" or refut.countermodel.structure.n > 3:
        problems.append(("q |- r", refut.verdict))
    report(
        9,
        len(golden_results) == 50 and not problems,
        f"50 golden pairs all interpolated, q/r refuted with "
        f"{refut.countermodel.structure.n if refut.countermodel else '?'} points, "
        f"problems: {problems[:3]}",
    )


# The thirteen schemata as text, each (conclusion, premises) with the
# letters schematic: the literal reference for `check_proof`.
SCHEMATA = {
    "top": [("p |- T", ())],
    "bottom": [("F |- p", ())],
    "reflexivity": [("p |- p", ())],
    "transitivity": [("p |- r", ("p |- q", "q |- r"))],
    "left-conjunction": [("p & q |- p", ()), ("p & q |- q", ())],
    "right-conjunction": [("p |- q & r", ("p |- q", "p |- r"))],
    "left-disjunction": [("p v q |- r", ("p |- r", "q |- r"))],
    "right-disjunction": [("p |- p v q", ()), ("q |- p v q", ())],
    "modal-top": [("T |- []T", ()), ("T |- <>T", ())],
    "becker-box": [("[]p |- []q", ("p |- q",))],
    "becker-dia": [("<>p |- <>q", ("p |- q",))],
    "linearity": [("[]p & []q |- [](p & q)", ())],
    "duality": [("<>p & []q |- <>(p & q)", ())],
}


def schema_instance(node, gamma) -> bool:
    """Whether one proof node, its premises' own derivations aside, is an
    instance of its rule: one substitution takes the schema's conclusion
    and premises, in order, to the node's; an axiom node has no premises
    and its conclusion is an instance of a member of gamma."""
    if node.rule == "axiom":
        return not node.premises and any(
            match_pair(m, node.conclusion) is not None for m in gamma
        )
    targets = (node.conclusion, *(p.conclusion for p in node.premises))
    for conclusion, premises in SCHEMATA.get(node.rule, ()):
        patterns = tuple(map(parse_pair, (conclusion, *premises)))
        if len(patterns) != len(targets):
            continue
        subst = {}
        for pattern, target in zip(patterns, targets):
            if match(pattern.lhs, target.lhs, subst) is None:
                break
            if match(pattern.rhs, target.rhs, subst) is None:
                break
        else:
            return True
    return False


def _children(f):
    if isinstance(f, (And, Or)):
        return (f.lhs, f.rhs)
    return (f.arg,) if isinstance(f, (Box, Dia)) else ()


def node_mutants(node):
    """One mutation each: the rule relabelled (also to an unknown name),
    a premise dropped or duplicated, the two premises swapped, or one side
    of the conclusion replaced by the other side or by a child of either."""
    for rule in RULES + ("weakening",):
        if rule != node.rule:
            yield dataclasses.replace(node, rule=rule)
    prems = node.premises
    for i in range(len(prems)):
        yield dataclasses.replace(node, premises=prems[:i] + prems[i + 1 :])
        yield dataclasses.replace(node, premises=prems[: i + 1] + prems[i:])
    if len(prems) == 2:
        yield dataclasses.replace(node, premises=prems[::-1])
    lhs, rhs = node.conclusion.lhs, node.conclusion.rhs
    relatives = {lhs, rhs, *_children(lhs), *_children(rhs)}
    for f in relatives - {lhs}:
        yield dataclasses.replace(node, conclusion=ConsequencePair(f, rhs))
    for f in relatives - {rhs}:
        yield dataclasses.replace(node, conclusion=ConsequencePair(lhs, f))


def test_check_proof_rejects_every_mutant_that_is_no_schema_instance(golden_results):
    """Every node of every golden proof, mutated once: `check_proof`
    accepts the mutant exactly when the literal schema table does (the
    premises' derivations are the golden ones, so they check)."""
    proofs_by_gamma = [
        (gamma_pairs(prob.tags), (res.proof_left, res.proof_right))
        for prob, res in golden_results
    ]
    # the golden proofs have no left-disjunction node
    extra = (derive_bounded((), parse_pair(t), 4) for t in LEFT_DISJUNCTIONS)
    proofs_by_gamma.append(((), tuple(extra)))
    nodes = {}
    for gamma, roots in proofs_by_gamma:
        stack = list(roots)
        while stack:
            node = stack.pop()
            nodes[node, gamma] = None
            stack.extend(node.premises)
    reasons, accepted = set(), 0
    for node, gamma in nodes:
        assert check_proof(node, gamma) is None and schema_instance(node, gamma)
        for mutant in node_mutants(node):
            bad = check_proof(mutant, gamma)
            assert (bad is None) == schema_instance(mutant, gamma), (
                mutant.rule,
                str(mutant.conclusion),
                [str(p.conclusion) for p in mutant.premises],
            )
            if bad is None:
                accepted += 1
            else:
                assert bad.path == ()
                reasons.add(bad.reason)
    assert accepted > 0
    assert reasons == CHECKER_REASONS


LEFT_DISJUNCTIONS = ("p v q |- q v p", "<>p v <>q |- <>(p v q)")

# every reason `check_proof` gives, but the unknown inference rule of
# `_rule_matches`, which it never asks about
CHECKER_REASONS = {
    "axiom nodes take no premises",
    "not an instance of any axiom in the set",
    "unknown premise-less rule 'weakening'",
    "weakening takes no premises",
    "top takes no premises",
    "bottom takes no premises",
    "reflexivity takes no premises",
    "left-conjunction takes no premises",
    "right-disjunction takes no premises",
    "modal-top takes no premises",
    "linearity takes no premises",
    "duality takes no premises",
    "right side must be T",
    "left side must be F",
    "sides differ",
    "needs a & b |- a or a & b |- b",
    "needs a |- a v b or b |- a v b",
    "needs T |- []T or T |- <>T",
    "needs []a & []b |- [](a & b)",
    "needs <>a & []b |- <>(a & b)",
    "transitivity takes two premises",
    "premises do not chain",
    "right-conjunction takes two premises",
    "conclusion right side must be a conjunction",
    "premises must derive both conjuncts",
    "left-disjunction takes two premises",
    "conclusion left side must be a disjunction",
    "premises must cover both disjuncts",
    "becker-box takes one premise",
    "needs a |- b deriving []a |- []b",
    "becker-dia takes one premise",
    "needs a |- b deriving <>a |- <>b",
}


# sha256 of [verdict, interpolant, left proof, right proof] for the 50
# golden problems, recorded before the candidate screen moved to the
# proof search's screening set
GOLDEN_ANSWERS_SHA256 = (
    "d5e36cf2da5f232714376110ca0169c0b7f151a8a2a4ffa259a6e448876d07b5"
)


def test_golden_answers_are_pinned(golden_results):
    rows = [
        [res.verdict, pretty(res.interpolant)]
        + [proof_to_json(p) for p in (res.proof_left, res.proof_right)]
        for _, res in golden_results
    ]
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ANSWERS_SHA256


def test_golden_answers_survive_a_report_round_trip(golden_results):
    """Each golden answer, written as `wpml interpolate` writes it, loads
    back through the report loader's re-check as the same result."""
    for prob, res in golden_results:
        report = interpolation_report_to_json(
            res,
            prob.phi,
            prob.psi,
            axioms=prob.tags,
            proof_depth=prob.proof_depth,
            model_size=prob.model_size,
        )
        blob = json.loads(dumps(wrap("interpolation_report", report)))
        assert load_artifact(blob) == ("interpolation_report", res)


def _frame_screen_algebras(tags):
    """The former candidate screen: the filter algebras of the modal
    L-frames of at most 3 points that satisfy the axioms' conditions,
    without repeats, at most 16."""
    conds = [CONDITION_OF_AXIOM[tag] for tag in tags]
    out = []
    for n in range(1, 4):
        for frame in all_modal_lframes(n):
            if any(frame_satisfies(frame, c)[1] is not None for c in conds):
                continue
            a = fil_f(frame)
            key = (a.leq, a.box, a.diamond)
            if all((b.leq, b.box, b.diamond) != key for b in out):
                out.append(a)
            if len(out) >= 16:
                return out
    return out


def test_candidate_screen_matches_frame_screen_oracle(golden_results):
    """Every candidate up to each golden interpolant is screened out by
    the packed screen on the proof search's screening set exactly when
    the former screen refutes an obligation of at most three letters
    through the scalar `algebra_validates`: neither screen takes a wider
    one."""
    checked = 0
    for prob, res in golden_results:
        tables = _screen_tables(_screening_algebras(gamma_pairs(prob.tags)))
        screen = PackedScreen(tables)
        oracle = _frame_screen_algebras(prob.tags)
        pool = candidate_pool(prob.phi, prob.psi, prob.shared)
        for chi in enumerate_candidates(pool, prob.cand_size):
            goals = [ConsequencePair(prob.phi, chi), ConsequencePair(chi, prob.psi)]
            got = screen.refutes(
                [(g.lhs, g.rhs, tuple(sorted(letters(g)))) for g in goals]
            )
            narrow = [g for g in goals if len(letters(g)) <= 3]
            want = any(
                algebra_validates(a, g) is not None for a in oracle for g in narrow
            )
            assert got == want, (str(prob.phi), str(prob.psi), str(chi))
            checked += 1
            if chi == res.interpolant:
                break
    assert checked == 332


def test_criterion_10_jonsson_equivalence():
    rep = jonsson_sweep(SEEDS["jonsson"], 50)
    report(
        10,
        rep["count"] == 50 and rep["ok"],
        f"{rep['passes']}/50 glued-filter comparisons, failures: {rep['failures']}",
    )


def test_criterion_11_determinism():
    mismatches = []
    runs = (
        ("duality", lambda: duality_sweep(SEEDS["duality"], 60)),
        (
            "superamalgamation",
            lambda: superamalgamation_sweep(SEEDS["superamalgamation"], 200),
        ),
        ("correspondence", lambda: correspondence_sweep(7, 30)),
        ("closure", lambda: closure_sweep("directedness", SEEDS["closure"], 40)),
        ("jonsson", lambda: jonsson_sweep(SEEDS["jonsson"], 50)),
    )
    for name, thunk in runs:
        first = json.dumps(thunk(), sort_keys=True)
        second = json.dumps(thunk(), sort_keys=True)
        if first != second:
            mismatches.append(name)
    report(11, not mismatches, f"byte-identical reruns for {len(runs)} sweeps, "
                               f"mismatches: {mismatches}")

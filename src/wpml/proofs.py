"""The consequence-pair calculus: proof trees, the checker, and bounded
backward proof search.

Thirteen schemata: top, bottom, reflexivity, transitivity, left/right
conjunction, left/right disjunction, modal top, the two Becker rules,
linearity and duality; plus substitution instances of the members of an
axiom set.  Transitivity is searched over a bounded cut-formula pool
(subformulas of the goal and of axiom instances, the constants, all
closed once under box/diamond), so completeness is only relative to the
bounds.  `cut_pool` returns the pool in search order (goal subformulas
first, each part by size key) after one sort.

Search set-up: a `SearchSetup` is the one carrier of a search's inputs,
the axiom set, the two caps of its cut pools and the screen:
`cut_pool(goal, setup)` and `ProofSearch(setup, pool, budget)` read them
from it, and `derive_bounded` and `derivable` resolve the one they are
given (a fresh one over gamma at the default caps when the caller passes
none) once per call.  The searches of one caller over one axiom set may
share one (one per `interpolation.craig_interpolant` call, whose
entailment search, candidate screen and obligation searches share it).
It holds the screening set's one `PackedScreen`, the axiom instances of
each tuple of ground formulas (a member's non-letter subformulas,
substituted; the subformulas of the ground formulas are in the pool
already) and each base formula's four modal-closure formulas.  Each pool
ranks and truncates its instance grids itself, so the caps stay exact,
and the pool is the one a fresh set-up gives.  A set-up lives only as
long as its caller keeps it: nothing is kept process-wide, so no formula
outlives the call.  tests/test_proofs.py checks pools from fresh and
shared set-ups against a literal build.

Semantic screening: before expanding a subgoal of at most three letters,
the search refutes it on a fixed set of small modal lattices that
validate the axioms (`_screening_algebras`, cached per axiom set;
`interpolation.craig_interpolant` screens candidates on the same set, by
the same rule).  A refuted pair is not derivable at all, so the screen
changes what the search costs, never a verdict; over at most three
letters it is a small fixed cost, and it takes no budget.  The set's
first part is mostly chains, read from the algebra catalog
(`catalog.all_modal_lattices` of two and three elements, in the order of
their tight duals' relations, then lattices with identity modalities),
so no frame is enumerated.  On a chain every monotone box and diamond
commutes with join and meet, so no chain refutes a modal distribution
law such as `[](p v q) |- []p v []q`, though the laws fail in the
variety.  So the set ends with, per law, the first structure of at most
five elements, in `catalog.all_modal_lattices` order, that validates the
axioms and refutes it (`_distribution_refuters`, by
`vectors.refuting_structures`; five-element structures are read only for
a law that no four-element one refutes, today T's `<>` law), and a
search on such a law is refuted at its root instead of run to
exhaustion.  The set is packed once (`_screen_tables`, see `vectors`),
and a formula's packed vector over it is built once per set-up from its
children's.  A pair's letter set, the union of the sets its two sides
keep from construction, picks a slot, built once per set from the vector
memo of its sorted letters (`PackedScreen.stretch`), or "not screened"
past three letters.
In its slot each formula id keeps its vector's two pair-code halves as
big integers, the scale half for a left side and the local half for a
right side, so screening a pair is one addition, one `to_bytes`, one
`translate` and one `find`.  The set holds modal lattices only, as
`PackedScreen` requires.  The scalar `lattice.algebra_validates` stays
the reference oracle: tests/test_proofs.py checks the screen's verdicts
and first refuting screens against the literal loop over the algebras,
and whole searches against a search that screens through
`algebra_validates`.

Root checks: `derive_bounded` checks the root before anything else.  It
screens it, and with no axioms it decides a modality-free root in the
free bounded lattice by Whitman's condition (`whitman.free_lattice_leq`),
whose "no" is sound for the calculus (see `derive_bounded`).  The two
checks are `_root_refuted`, which `interpolation.craig_interpolant` also
calls on its goal.  A refuted root builds no cut pool and no
`ProofSearch`; a root that passes hands its set-up's screen on to the
search, marked as screened there, so the search's first expansion does
not screen it again.  Whitman stays an oracle as well:
tests/test_proofs.py checks its "no" against an ungated `ProofSearch`.

Iterative deepening: `derivable` finds a proof where `derive_bounded`
finds one, for a caller that expects a proof of small height
(`interpolation.craig_interpolant`'s entailment check, through
`entailment.decide_entailment`, which that function runs only where its
candidates do not answer for the goal).  After the same root checks (one
helper, `_root_search`, serves both), one `ProofSearch` over the same
pool runs at depths 1, 2, ... up to the depth and returns the proof of
the first that finds one.  A success is reused only within its height
and a failure at depth d means no proof of height d or less, so a search
at depth d finds a proof iff the pool holds one of height at most d,
however its memo was filled: the deepening finds one iff the depth-first
search at the full depth does, and its proof is of least height.  Where
such a proof is low, it is found without the depth-first search's walk
through tall subgoals: on the 44 problems of a golden-corpus pass at
depth 6, each of which entails with a proof of height 2 to 4, checks
took 3,742 expansions instead of 20,530 (when every problem was checked;
one of them is now).  Where there is no low proof, or none at all, each
depth searches again what the one before failed on, so it costs more:
under 4, `[]((p v p) & (T v T)) |- <>(q v p & p)` takes 24,314
expansions instead of 9,368.  Where it runs out of budget, `derivable`
returns what `derive_bounded` returns at the same budget, so it may run
two searches, each within the budget (up to twice the budget in all),
and where the depth-first search runs out too, it raises as that search
does.  tests/test_proofs.py checks it against `derive_bounded` on seeded
pairs under each axiom set.

Memo tables: a search numbers the formulas it meets with small ints of
its own and keys its memo tables by the ids of a pair's two sides, so
the memo probes that make up most `prove` calls are int-keyed dict hits
instead of hashing and comparing formula pairs.  Each success is stored
with its height, taken from its premises' stored heights, so the depth
bounds the height of every proof returned.  The transitivity loop
probes each leg's entry inline, by the rule of `_prove`'s memo prologue
(a success of height at most the depth, or a failure at that depth or
deeper, decides the leg), and sends the legs the memo leaves open
straight to the expansion, `_expand`, which counts, screens and tries
the rules.  Once a loop for a left id has walked the whole pool at depth
d without finding a cut, the search keeps that id's live cuts, the pool
cuts whose first leg succeeded: every other first leg has no proof of
height d or less, which decides it in any loop at depth d or less, so
such loops walk the live cuts alone, in pool order
(`ProofSearch._live_cuts`).  No table is shared between searches: an id
means nothing outside the search that gave it.
tests/test_proofs.py checks the search against a literal copy of the
formula-keyed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Optional

from .catalog import all_lattices, all_modal_lattices, validating_table
from .duality import fil_l
from .errors import InternalInconsistency, PreconditionViolated, ResourceBound, SizeCap
from .formulas import (
    BOT,
    TOP,
    And,
    Bot,
    Box,
    ConsequencePair,
    Dia,
    Formula,
    Letter,
    Or,
    Top,
    _size_key,
    is_modality_free,
    letters,
    match_pair,
    parse_pair,
    subformulas,
    substitute,
)
from .lattice import algebra_validates, with_identity_modalities
from .vectors import PackedScreen, ScreenTables
from .whitman import free_lattice_leq

RULES = (
    "top",
    "bottom",
    "reflexivity",
    "transitivity",
    "left-conjunction",
    "right-conjunction",
    "left-disjunction",
    "right-disjunction",
    "modal-top",
    "becker-box",
    "becker-dia",
    "linearity",
    "duality",
    "axiom",
)


@dataclass(frozen=True)
class Proof:
    rule: str
    conclusion: ConsequencePair
    premises: tuple["Proof", ...] = ()
    subst: tuple[tuple[str, Formula], ...] = ()

    def height(self) -> int:
        return 1 + max((p.height() for p in self.premises), default=0)


@dataclass(frozen=True)
class BadNode:
    path: tuple[int, ...]
    reason: str


def _axiom_matches(rule: str, c: ConsequencePair) -> Optional[str]:
    """None if the premise-less schema matches the conclusion, else why not."""
    lhs, rhs = c.lhs, c.rhs
    if rule == "top":
        return None if isinstance(rhs, Top) else "right side must be T"
    if rule == "bottom":
        return None if isinstance(lhs, Bot) else "left side must be F"
    if rule == "reflexivity":
        return None if lhs == rhs else "sides differ"
    if rule == "left-conjunction":
        if isinstance(lhs, And) and rhs in (lhs.lhs, lhs.rhs):
            return None
        return "needs a & b |- a or a & b |- b"
    if rule == "right-disjunction":
        if isinstance(rhs, Or) and lhs in (rhs.lhs, rhs.rhs):
            return None
        return "needs a |- a v b or b |- a v b"
    if rule == "modal-top":
        if isinstance(lhs, Top) and rhs in (Box(TOP), Dia(TOP)):
            return None
        return "needs T |- []T or T |- <>T"
    if rule == "linearity":
        if (
            isinstance(lhs, And)
            and isinstance(lhs.lhs, Box)
            and isinstance(lhs.rhs, Box)
            and rhs == Box(And(lhs.lhs.arg, lhs.rhs.arg))
        ):
            return None
        return "needs []a & []b |- [](a & b)"
    if rule == "duality":
        if (
            isinstance(lhs, And)
            and isinstance(lhs.lhs, Dia)
            and isinstance(lhs.rhs, Box)
            and rhs == Dia(And(lhs.lhs.arg, lhs.rhs.arg))
        ):
            return None
        return "needs <>a & []b |- <>(a & b)"
    return f"unknown premise-less rule {rule!r}"


# The premise-less rules in the order the search tries them, each with the
# top-level constructors (left, right) a conclusion needs to match it.
_LEAF_RULES = (
    ("reflexivity", lambda l, r: l is r),
    ("top", lambda l, r: r is Top),
    ("bottom", lambda l, r: l is Bot),
    ("left-conjunction", lambda l, r: l is And),
    ("right-disjunction", lambda l, r: r is Or),
    ("modal-top", lambda l, r: l is Top and r in (Box, Dia)),
    ("linearity", lambda l, r: l is And and r is Box),
    ("duality", lambda l, r: l is And and r is Dia),
)


def _fits(pattern: Formula, kind: type) -> bool:
    """Whether a pattern side can match a formula of constructor `kind`:
    a schematic letter matches anything."""
    return type(pattern) is Letter or type(pattern) is kind


def _rule_matches(rule: str, c: ConsequencePair, prems) -> Optional[str]:
    """Check an inference node whose premises are already-checked pairs."""
    lhs, rhs = c.lhs, c.rhs
    if rule == "transitivity":
        if len(prems) != 2:
            return "transitivity takes two premises"
        p, q = prems
        if p.lhs == lhs and p.rhs == q.lhs and q.rhs == rhs:
            return None
        return "premises do not chain"
    if rule == "right-conjunction":
        if len(prems) != 2:
            return "right-conjunction takes two premises"
        if not isinstance(rhs, And):
            return "conclusion right side must be a conjunction"
        p, q = prems
        if p == ConsequencePair(lhs, rhs.lhs) and q == ConsequencePair(lhs, rhs.rhs):
            return None
        return "premises must derive both conjuncts"
    if rule == "left-disjunction":
        if len(prems) != 2:
            return "left-disjunction takes two premises"
        if not isinstance(lhs, Or):
            return "conclusion left side must be a disjunction"
        p, q = prems
        if p == ConsequencePair(lhs.lhs, rhs) and q == ConsequencePair(lhs.rhs, rhs):
            return None
        return "premises must cover both disjuncts"
    if rule == "becker-box":
        if len(prems) != 1:
            return "becker-box takes one premise"
        if (
            isinstance(lhs, Box)
            and isinstance(rhs, Box)
            and prems[0] == ConsequencePair(lhs.arg, rhs.arg)
        ):
            return None
        return "needs a |- b deriving []a |- []b"
    if rule == "becker-dia":
        if len(prems) != 1:
            return "becker-dia takes one premise"
        if (
            isinstance(lhs, Dia)
            and isinstance(rhs, Dia)
            and prems[0] == ConsequencePair(lhs.arg, rhs.arg)
        ):
            return None
        return "needs a |- b deriving <>a |- <>b"
    # `check_proof` sends only the names in `_INFERENCE_RULES` here; any
    # other name is a caller's bug, and falling through would mean "accepted"
    raise InternalInconsistency(f"unknown inference rule {rule!r}")


_INFERENCE_RULES = (
    "transitivity",
    "right-conjunction",
    "left-disjunction",
    "becker-box",
    "becker-dia",
)


def check_proof(proof: Proof, gamma=()) -> Optional[BadNode]:
    """None iff every node instantiates one of the thirteen schemata or a
    substitution instance of a member of gamma, with matching premises."""

    def check_node(node: Proof, path) -> Optional[BadNode]:
        if node.rule == "axiom":
            if node.premises:
                return BadNode(path, "axiom nodes take no premises")
            for member in gamma:
                if match_pair(member, node.conclusion) is not None:
                    return None
            return BadNode(path, "not an instance of any axiom in the set")
        if node.rule in _INFERENCE_RULES:
            why = _rule_matches(
                node.rule, node.conclusion, [p.conclusion for p in node.premises]
            )
            return None if why is None else BadNode(path, why)
        if node.premises:
            return BadNode(path, f"{node.rule} takes no premises")
        why = _axiom_matches(node.rule, node.conclusion)
        return None if why is None else BadNode(path, why)

    def walk(node: Proof, path) -> Optional[BadNode]:
        bad = check_node(node, path)
        if bad is not None:
            return bad
        for i, prem in enumerate(node.premises):
            bad = walk(prem, path + (i,))
            if bad is not None:
                return bad
        return None

    return walk(proof, ())


class SearchSetup:
    """The one carrier of a search's inputs: the axiom set gamma, the caps
    of every pool built with it (`instance_cap`, `pool_cap`: see
    `cut_pool`; PreconditionViolated for a negative one), and the screen,
    `screen`, the one `PackedScreen` over the screening set `screens`,
    both built when first asked for (a caller may assign `screens` before
    `screen` is first read).  `cut_pool` and `ProofSearch` read all of
    them from it.  The searches of one caller over gamma may share it
    (see the module docstring), and with it the memos: per member of
    gamma, what its instance at each tuple of ground formulas adds to a
    pool's base; and each base formula's modal closure."""

    def __init__(self, gamma=(), instance_cap: int = 256, pool_cap: int = 512):
        if instance_cap < 0 or pool_cap < 0:
            raise PreconditionViolated(
                f"negative cap (instance_cap {instance_cap}, pool_cap {pool_cap})"
            )
        self.gamma = tuple(gamma)
        self.instance_cap = instance_cap
        self.pool_cap = pool_cap
        # per member: its sorted letters, its non-letter subformulas, and
        # the memo from a tuple of ground formulas to their instances
        self._members = []
        for member in self.gamma:
            parts = subformulas(member.lhs) | subformulas(member.rhs)
            self._members.append(
                (
                    sorted(letters(member)),
                    [f for f in parts if type(f) is not Letter],
                    {},
                )
            )
        # base formula -> [] f, <> f, <> T & [] f, <> (T & f)
        self._closures: dict[Formula, tuple[Formula, ...]] = {}

    @cached_property
    def screens(self) -> tuple:
        return _screening_algebras(self.gamma)

    @cached_property
    def screen(self) -> PackedScreen:
        return PackedScreen(_screen_tables(self.screens))


def _setup_for(gamma: tuple, setup: Optional[SearchSetup]) -> SearchSetup:
    """`setup`, which must be over gamma, or a fresh one."""
    if setup is None:
        return SearchSetup(gamma)
    if setup.gamma != gamma:
        raise PreconditionViolated("the search set-up is over another axiom set")
    return setup


def cut_pool(
    goal: ConsequencePair, setup: Optional[SearchSetup] = None
) -> tuple[Formula, ...]:
    """Deterministic cut-formula pool over `setup`'s axiom set gamma (an
    axiom-free `SearchSetup` at the default caps when there is none):
    subformulas of the goal and of axiom instances over them, plus
    constants, closed once under the modalities.

    Axiom instantiation grids are ranked by total substituted size and
    truncated at the set-up's `instance_cap` per member; the final pool
    keeps its first `pool_cap` formulas in search order, the goal's
    subformulas before any other formula.  Both caps only bound the
    search, they never affect soundness.  The instances and the closure
    come from the set-up's memos, so a shared set-up gives the pool a
    fresh one gives.
    """
    if setup is None:
        setup = SearchSetup()
    subs = subformulas(goal.lhs) | subformulas(goal.rhs)
    base: set[Formula] = {TOP, BOT} | subs
    ground = sorted(base, key=_size_key)
    ground_keys = [f._key for f in ground]
    for vs, parts, instances in setup._members:
        combos = sorted(
            product(range(len(ground)), repeat=len(vs)),
            key=lambda c: (
                sum(ground_keys[i][0] for i in c),
                tuple(ground_keys[i][1] for i in c),
            ),
        )[: setup.instance_cap]
        for combo in combos:
            # ground is closed under subformulas, so an instance adds to
            # the base only the images of the member's non-letter parts
            key = tuple([ground[i] for i in combo])
            new = instances.get(key)
            if new is None:
                m = dict(zip(vs, key))
                new = instances[key] = [substitute(f, m) for f in parts]
            base.update(new)
    once = set(base)
    closures = setup._closures
    dia_top = Dia(TOP)
    for f in base:
        closure = closures.get(f)
        if closure is None:
            box = Box(f)
            # bridge for the forced seriality pattern: box f |- dia f goes
            # through dia T & box f |- dia(T & f) (the duality axiom at T)
            closure = closures[f] = (box, Dia(f), And(dia_top, box), Dia(And(TOP, f)))
        once.update(closure)
    return _search_order(sorted(once, key=_size_key), subs)[: setup.pool_cap]


def _search_order(ranked, subs) -> tuple[Formula, ...]:
    """The formulas of `ranked`, sorted by size key, with those in `subs`
    first: a stable partition, so each part stays sorted."""
    return tuple([f for f in ranked if f in subs] + [f for f in ranked if f not in subs])


_NEVER = 10**9

# the Becker rule of a pair whose two sides are both of the key's type
_BECKER = {Box: "becker-box", Dia: "becker-dia"}


@lru_cache(maxsize=None)
def _screening_candidates() -> tuple:
    """The candidates of `_screening_algebras`' first part, in order: the
    modal lattices of two and three elements (chains), each size sorted by
    its tight dual's relation, the order in which a frame-by-frame walk
    meets the duals, then the 4- and 5-element lattices with identity
    modalities."""
    out = []
    for n in (2, 3):
        out += sorted(all_modal_lattices(n), key=lambda a: fil_l(a).frame.succ)
    out += [with_identity_modalities(lat) for n in (4, 5) for lat in all_lattices(n)]
    return tuple(out)


@lru_cache(maxsize=64)
def _screening_algebras(gamma):
    """Small modal lattices validating every member of gamma.  A subgoal
    refuted on one of them is not derivable (soundness), so the search
    may discard it without exploring; this changes no verdicts, only
    cost.

    The set is the first twelve `_screening_candidates` that validate
    gamma, then `_distribution_refuters(gamma)`.  Each candidate is a
    chain or carries identity modalities; on either, every monotone box
    and diamond commutes with join and meet, so no candidate refutes a
    modal distribution law (`_DISTRIBUTION_LAWS`), though the laws fail
    in the variety."""
    out = []
    for a in _screening_candidates():
        if all(algebra_validates(a, g) is None for g in gamma):
            out.append(a)
            if len(out) == 12:
                break
    return tuple(out) + _distribution_refuters(gamma)


# The modal distribution laws: each fails in the variety, and no chain
# refutes it.
_DISTRIBUTION_LAWS = tuple(
    map(
        parse_pair,
        ("[](p v q) |- []p v []q", "<>(p v q) |- <>p v <>q", "<>p & <>q |- <>(p & q)"),
    )
)


def _distribution_refuters(gamma) -> tuple:
    """For each of `_DISTRIBUTION_LAWS`, the first modal structure of at
    most five elements, in `catalog.all_modal_lattices` order, that
    validates every member of gamma and refutes the law; each such
    structure once, in that order.  They are read from the tables of
    `catalog.validating_table`, those of five elements only for a
    law that no four-element structure refutes (under T, `<>(p v q) |-
    <>p v <>q`; under B it is derivable).  Chains are skipped, as no chain
    refutes a law, and with them every lattice of three elements or
    fewer.  Nothing for a law that no such structure refutes, and nothing
    at all for a gamma with a member over more than three letters, which
    no screen takes."""
    if any(len(letters(g)) > 3 for g in gamma):
        return ()
    # (size, lattice index, structure index) -> the structure's table
    firsts = {}
    for law in _DISTRIBUTION_LAWS:
        for n in (4, 5):
            first = _first_refuter(law, n, gamma)
            if first is not None:
                i, j, table = first
                firsts[n, i, j] = table
                break
    return tuple(firsts[key].structure(key[2]) for key in sorted(firsts))


def _first_refuter(law, n: int, gamma):
    """(i, j, table): the first structure j, over the first lattice i of
    `all_lattices(n)` that is not a chain, that validates gamma and
    refutes the law, with its table; None if there is none.  No table
    past lattice i is built."""
    for i, lat in enumerate(all_lattices(n)):
        if not _is_chain(lat):
            table = validating_table(n, i, gamma)
            for j, _ in table.refuting(law):
                return i, j, table
    return None


def _is_chain(lat) -> bool:
    # a total order of n elements has n (n + 1) / 2 pairs x <= y, any
    # other order fewer
    n = lat.n
    return sum(map(sum, lat.leq)) == n * (n + 1) // 2


@lru_cache(maxsize=64)
def _screen_tables(screens: tuple) -> ScreenTables:
    """The packed tables of a screening set, built once per set."""
    return ScreenTables(screens)


# memo key of the pair of formula ids (l, r): l << _SHIFT | r
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


class ProofSearch:
    """Backward search context with memoization that persists across
    goals sharing the same axiom set and cut pool.  Deterministic: rules
    are tried in a fixed order and cut formulas in structural order, so
    the returned proof is the first in that order.

    The search gives each formula a small int id, private to it, when it
    first meets the formula: pool formulas in pool order at construction,
    the children of a subgoal when the subgoal is expanded.  The memo
    tables are keyed by the ids of a pair's two sides, so a memo probe is
    an int-keyed dict hit; a `ConsequencePair` is built only when a
    subgoal is expanded.  They are `success` (key -> proof), `height`
    (key -> that proof's height) and `failed_at` (key -> largest depth
    that failed), where the key of the pair of ids (l, r) is
    `l << 32 | r`.

    The axiom set and the screen come from `setup`, a `SearchSetup`:
    its `PackedScreen` over its `screens`, which the caller may have used
    already (`derive_bounded` screened the root with it, and the other
    searches of that set-up share it), is taken over, vectors and all.
    Its slots are keyed by a pair's letter set, read off the letter sets
    the two formulas keep from construction, so letters get no ids.

    `expansions`, `screen_calls` (pairs checked against the screen set)
    and `screen_rejects` (pairs a screen refuted) are deterministic work
    counters of the search.  `vector_entries` counts the packed vectors
    the screen holds, so with a shared screen it counts those of every
    search and candidate screen that shared it.
    """

    def __init__(self, setup: SearchSetup, pool, budget: int = 200_000):
        self.gamma = setup.gamma
        self.pool = tuple(pool)
        self.budget = budget
        self._screen = setup.screen
        ids: dict[Formula, int] = {}
        self._ids = ids
        self._pool_ids = tuple(ids.setdefault(f, len(ids)) for f in self.pool)
        self._formulas: list[Formula] = list(ids)
        # left id -> its live cuts `(dmax, cuts)`; see `_live_cuts`
        self._live: dict[int, tuple[int, list[int]]] = {}
        self.success: dict[int, Proof] = {}
        self.height: dict[int, int] = {}
        self.failed_at: dict[int, int] = {}
        # a pair's letter set -> its slot (see `_slot`), None past 3 letters
        self._slots: dict[frozenset[str], Optional[tuple]] = {}
        self._screen_ok: set[int] = set()
        # (type(lhs), type(rhs)) -> the leaf rules and axiom members that
        # can match a pair of that shape
        self._leaf_plans: dict[tuple[type, type], tuple[tuple, tuple]] = {}
        self.expansions = 0
        self.screen_calls = 0
        self.screen_rejects = 0

    @property
    def vector_entries(self) -> int:
        return self._screen.vector_entries

    def _slot(self, names: frozenset[str]) -> Optional[tuple]:
        """The slot of the pairs whose letters are `names`, built once per
        set: `(memo, end, lefts, rights)`, with the screen's `stretch` of
        the sorted letters, the length of its vectors, and each formula
        id's two pair-code halves as big integers, filled as ids meet the
        screen; None where the screen takes no pair over those letters."""
        slot = self._slots.get(names, False)
        if slot is False:
            memo = self._screen.stretch(tuple(sorted(names)))
            slot = None if memo is None else (memo, len(memo[TOP]), {}, {})
            self._slots[names] = slot
        return slot

    def _screened_out(self, key: int) -> bool:
        """True iff some screen algebra refutes the pair of formula ids
        `key`, of at most three letters: the same decision as
        `algebra_validates(a, pair) is not None` for some `a` in the
        set-up's `screens`, but all of them are tried at once.  The pair's
        codes are the sum of its left id's left half and its right id's
        right half in the slot of its letters, and one translate marks the
        positions whose left value is not below the right one."""
        if key in self._screen_ok:
            return False
        l, r = key >> _SHIFT, key & _LOW
        formulas = self._formulas
        slot = self._slot(formulas[l]._letters | formulas[r]._letters)
        if slot is None:
            self._screen_ok.add(key)
            return False
        self.screen_calls += 1
        memo, end, lefts, rights = slot
        tables = self._screen.tables
        left = lefts.get(l)
        if left is None:
            v = tables.vector(memo, formulas[l])
            left = lefts[l] = int.from_bytes(v.translate(tables.scale), "big")
        right = rights.get(r)
        if right is None:
            v = tables.vector(memo, formulas[r])
            right = rights[r] = int.from_bytes(v.translate(tables.local), "big")
        codes = (left + right).to_bytes(end, "big")
        if codes.translate(tables.nleq).find(1) >= 0:
            self.screen_rejects += 1
            return True
        self._screen_ok.add(key)
        return False

    def _leaf(self, pair: ConsequencePair) -> Optional[Proof]:
        """The first premise-less rule, then the first axiom member, that
        matches the pair; only those that fit its shape are tried."""
        shape = type(pair.lhs), type(pair.rhs)
        plan = self._leaf_plans.get(shape)
        if plan is None:
            l, r = shape
            plan = self._leaf_plans[shape] = (
                tuple(rule for rule, fits in _LEAF_RULES if fits(l, r)),
                tuple(m for m in self.gamma if _fits(m.lhs, l) and _fits(m.rhs, r)),
            )
        rules, members = plan
        for rule in rules:
            if _axiom_matches(rule, pair) is None:
                return Proof(rule, pair)
        for member in members:
            subst = match_pair(member, pair)
            if subst is not None:
                return Proof("axiom", pair, (), tuple(sorted(subst.items())))
        return None

    def _id(self, f: Formula) -> int:
        i = self._ids.get(f)
        if i is None:
            i = self._ids[f] = len(self._formulas)
            self._formulas.append(f)
        return i

    def prove(self, pair: ConsequencePair, depth: int) -> Optional[Proof]:
        return self._prove(self._id(pair.lhs), self._id(pair.rhs), depth)

    def _prove(self, l: int, r: int, depth: int) -> Optional[Proof]:
        """The memo prologue: a success of height at most `depth`, or a
        failure at `depth` or deeper, decides the pair of ids (l, r); any
        other pair is expanded."""
        key = l << _SHIFT | r
        h = self.height.get(key)
        if h is not None and h <= depth:
            return self.success[key]
        if depth <= 0 or self.failed_at.get(key, -1) >= depth:
            return None
        return self._expand(l, r, depth)

    def _expand(self, l: int, r: int, depth: int) -> Optional[Proof]:
        """The expansion of the pair of ids (l, r), which the memo leaves
        open at `depth` >= 1: it is counted against the budget and
        screened, then the rules are tried in order and the outcome is
        stored, a success with its height.  A proof with premises is
        built from the memo's successes for the premises' keys, and its
        height is one more than the greatest of their stored heights:
        both are read once the rule is complete, because a later
        premise's search may have replaced an earlier one's success by a
        lower proof."""
        key = l << _SHIFT | r
        self.expansions += 1
        if self.expansions > self.budget:
            raise ResourceBound(self.expansions, self.budget)
        if self._screened_out(key):
            self.failed_at[key] = _NEVER
            return None
        lhs, rhs = self._formulas[l], self._formulas[r]
        pair = ConsequencePair(lhs, rhs)
        found = self._leaf(pair)
        h = 1
        if found is None:
            if depth < 2:
                # no room for premises: only leaves fit
                self.failed_at[key] = depth
                return None
            step = self._premises(l, r, lhs, rhs, depth - 1)
            if step is not None:
                rule, keys = step
                found = Proof(rule, pair, tuple(map(self.success.__getitem__, keys)))
                h += max(map(self.height.__getitem__, keys))
        if found is not None:
            self.success[key] = found
            self.height[key] = h
        else:
            self.failed_at[key] = depth
        return found

    def _premises(
        self, l: int, r: int, lhs: Formula, rhs: Formula, d: int
    ) -> Optional[tuple[str, tuple[int, ...]]]:
        """The first rule with premises, in rule order, whose premises all
        succeed at depth d, with the premises' memo keys; None if none."""
        prove, fid, ll = self._prove, self._id, l << _SHIFT
        if isinstance(rhs, And):
            a = fid(rhs.lhs)
            if prove(l, a, d) is not None:
                b = fid(rhs.rhs)
                if prove(l, b, d) is not None:
                    return "right-conjunction", (ll | a, ll | b)
        if isinstance(lhs, Or):
            a = fid(lhs.lhs)
            if prove(a, r, d) is not None:
                b = fid(lhs.rhs)
                if prove(b, r, d) is not None:
                    return "left-disjunction", (a << _SHIFT | r, b << _SHIFT | r)
        rule = _BECKER.get(type(lhs))
        if rule is not None and type(rhs) is type(lhs):
            a, b = fid(lhs.arg), fid(rhs.arg)
            if prove(a, b, d) is not None:
                return rule, (a << _SHIFT | b,)
        # each leg's memo probe is `_prove`'s prologue, inline: a success of
        # height at most d, or a failure at depth d or deeper, needs no
        # call, and a leg the memo leaves open is expanded directly
        height, failed_at, expand = self.height, self.failed_at, self._expand
        live = self._live.get(l)
        full = live is None or live[0] < d
        for cut in self._pool_ids if full else live[1]:
            if cut == l or cut == r:
                continue
            key1 = ll | cut
            h = height.get(key1)
            if h is None or h > d:
                if failed_at.get(key1, -1) >= d or expand(l, cut, d) is None:
                    continue
            key2 = cut << _SHIFT | r
            h = height.get(key2)
            if h is None or h > d:
                if failed_at.get(key2, -1) >= d or expand(cut, r, d) is None:
                    continue
            return "transitivity", (key1, key2)
        if full:
            self._live[l] = self._live_cuts(l, d)
        return None

    def _live_cuts(self, l: int, d: int) -> tuple[int, list[int]]:
        """The live cuts of left id `l` after a full cut loop at depth `d`
        that found no cut: the pool cuts other than `l` whose first leg
        `(l, cut)` is a success, in pool order.

        Every other cut's first leg then failed at depth d or deeper (the
        loop probed or proved it, and the loop's own pair is stored as
        failed at d + 1 next).  The search at a depth finds a proof iff
        the pool gives one of at most that height, since a success is
        reused only within its height, so such a leg has no proof of
        height d or less, and a later success of it, at a greater depth,
        is taller than d.  So any later loop for `l` at depth d or less
        refuses the leg, and it may walk the live cuts instead of the
        pool and visit the same legs in the same order."""
        ll, success = l << _SHIFT, self.success
        return d, [cut for cut in self._pool_ids if cut != l and ll | cut in success]


# The greatest proof depth `derive_bounded` accepts.  The search recurses
# once per depth level, and the walks over a proof (checking, comparing,
# printing) recurse once or twice per level of its height, so at this
# depth they stay well inside Python's default recursion limit, under a
# test runner too, even on formulas nested `formulas.MAX_HEIGHT` deep.
MAX_PROOF_DEPTH = 200


def _root_refuted(setup: SearchSetup, goal: ConsequencePair) -> bool:
    """Whether the root checks (see `derive_bounded`) refute the goal,
    so that it has no proof at any depth: the set-up's screen over the
    goal's letters, and, with no axioms, Whitman's condition for a
    modality-free goal."""
    lhs, rhs = goal.lhs, goal.rhs
    return setup.screen.refutes(((lhs, rhs, tuple(sorted(letters(goal)))),)) or (
        not setup.gamma
        and is_modality_free(lhs)
        and is_modality_free(rhs)
        and not free_lattice_leq(lhs, rhs)
    )


def _root_search(
    setup: SearchSetup, goal: ConsequencePair, depth: int, budget: int
) -> Optional[tuple[ProofSearch, int, int]]:
    """The checks and the search that `derive_bounded` and `derivable`
    share, over the set-up each of them resolved: SizeCap for a depth
    above `MAX_PROOF_DEPTH`, None for a depth <= 0 (where the search
    would return None before its first expansion), then the root checks
    (`_root_refuted`), which give None for a refuted root; else a
    `ProofSearch` over the cut pool, with the root's two ids."""
    if depth > MAX_PROOF_DEPTH:
        raise SizeCap(f"proof depth {depth} exceeds the cap of {MAX_PROOF_DEPTH}")
    if depth <= 0:
        return None
    if budget >= 1 and _root_refuted(setup, goal):
        return None
    search = ProofSearch(setup, cut_pool(goal, setup), budget)
    l, r = search._id(goal.lhs), search._id(goal.rhs)
    # the root has passed the screen above, so the search does not screen
    # it again (at budget < 1 its first expansion raises before it would)
    search._screen_ok.add(l << _SHIFT | r)
    return search, l, r


def derive_bounded(
    gamma,
    goal: ConsequencePair,
    depth: int,
    budget: int = 200_000,
    *,
    setup: Optional[SearchSetup] = None,
) -> Optional[Proof]:
    """One-shot bounded search; returns a proof whose conclusion is the
    goal, or None when the bounded space is exhausted.  Raises
    ResourceBound when the expansion budget is exceeded, and SizeCap
    for a depth above `MAX_PROOF_DEPTH`; a depth <= 0 gives None, with no
    cut pool built and no `ProofSearch`.

    The root is checked first, at budget >= 1 (below, the search raises
    ResourceBound(1, budget) before it screens): a root the screening set
    refutes, as the search's first expansion would refute it, and, with
    no axioms, a modality-free root that `whitman.free_lattice_leq`
    rejects, return None with no cut pool built and no `ProofSearch`.  A
    derivable pair holds in every modal lattice, so in every lattice with
    identity modalities, so in the free bounded lattice: Whitman's "no"
    means no proof at any depth.  So where the search would have run out
    of budget on such a root, the check returns None instead of raising.
    Any other root is searched with the same screen, which does not
    check it a second time.  The screen and the cut pool come from
    `setup` (a `SearchSetup` over gamma, or a fresh one), the pool at its
    caps."""
    found = _root_search(_setup_for(tuple(gamma), setup), goal, depth, budget)
    if found is None:
        return None
    search, l, r = found
    return search._prove(l, r, depth)


def derivable(
    gamma,
    goal: ConsequencePair,
    depth: int,
    budget: int = 200_000,
    *,
    setup: Optional[SearchSetup] = None,
) -> Optional[Proof]:
    """A proof of `goal` from gamma of height at most `depth`, found by
    iterative deepening, or None where `derive_bounded(gamma, goal,
    depth, budget, setup=setup)` finds none: after the same root checks,
    one `ProofSearch` over the same cut pool runs at depths 1, 2, ...,
    `depth` and returns the proof of the first that finds one, a proof of
    least height (see the module docstring).  The budget bounds the
    expansions of all depths together; where they exceed it, the result
    is `derive_bounded`'s at the same budget, which raises ResourceBound
    where it too runs out.  SizeCap for a depth above `MAX_PROOF_DEPTH`;
    None for a depth <= 0."""
    gamma = tuple(gamma)
    setup = _setup_for(gamma, setup)
    found = _root_search(setup, goal, depth, budget)
    if found is None:
        return None
    search, l, r = found
    del found
    try:
        for d in range(1, depth + 1):
            proof = search._prove(l, r, d)
            if proof is not None:
                return proof
        return None
    except ResourceBound:
        pass
    # the first search's memo is dropped before the second search runs
    del search
    return derive_bounded(gamma, goal, depth, budget, setup=setup)

"""The consequence-pair calculus: proof trees, the checker, and bounded
backward proof search.

Thirteen schemata: top, bottom, reflexivity, transitivity, left/right
conjunction, left/right disjunction, modal top, the two Becker rules,
linearity and duality; plus substitution instances of the members of an
axiom set.  Transitivity is searched over a bounded cut-formula pool
(subformulas of the goal and of axiom instances, the constants, all
closed once under box/diamond), so completeness is only relative to the
bounds.

Semantic screening: before expanding a subgoal of at most three letters,
the search refutes it on a fixed set of small modal lattices that
validate the axioms (`_screening_algebras`, cached per axiom set;
`interpolation.craig_interpolant` screens candidates on the same set).
The set is packed once (`_screen_tables`, a `vectors.ScreenTables`), so
that a formula's value under every valuation of the pair's sorted
letters, on every screen algebra, is one packed `bytes` vector, built
once per search from its children's vectors.  Each formula id has a
bitmask of its letters; a pair's mask picks a slot, built once per mask:
the vector memo of its sorted letters, whose length ends the stretch of
screens within budget for them, or "not screened" past three letters.
In its slot each formula id keeps its vector's two pair-code halves as
big integers, the scale half for a left side and the local half for a
right side, so screening a pair is one addition, one `to_bytes`, one
`translate` and one `find`.  A screen with n**k > budget for a pair of
k letters is skipped, never raised on: a refuted pair is not derivable
at all, so the budget changes what screening costs, never a verdict.
The set holds modal lattices only, as `PackedScreen` requires: a plain
lattice gives a modal pair no value.  The scalar
`lattice.algebra_validates` and `lattice.evaluate` stay the reference
oracles: tests/test_proofs.py checks the screen's verdicts and first
refuting screens against the literal loop over the algebras within
budget, and whole searches against a search that screens through
`algebra_validates`.

Memo tables: a search numbers the formulas it meets with small ints of
its own and keys its memo tables by the ids of a pair's two sides, so
the memo probes that make up most `prove` calls are int-keyed dict hits
instead of hashing and comparing formula pairs.  The transitivity loop
probes each leg's entry inline, by the rule of `_prove`'s prologue (a
success at any depth, or a failure at that depth or deeper, decides the
leg), and calls `_prove` only for the legs the memo leaves open.  Once a
loop for a left id has walked the whole pool at depth d without finding
a cut, the search keeps that id's live cuts, the pool cuts whose first
leg succeeded: every other first leg failed at depth d or deeper, which
decides it in any loop at depth d or less, so such loops walk the live
cuts alone, in pool order (`ProofSearch._live_cuts`).  No table is
shared between searches: an id means nothing outside the search that
gave it.
tests/test_proofs.py checks the search against a literal copy of the
formula-keyed one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

from .errors import InternalInconsistency, ResourceBound, SizeCap, resolve_budget
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
    formula_key,
    letters,
    match_pair,
    subformulas,
    substitute,
)
from .vectors import PackedScreen, ScreenTables

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


def cut_pool(
    goal: ConsequencePair,
    gamma=(),
    instance_cap: int = 256,
    pool_cap: int = 512,
) -> tuple[Formula, ...]:
    """Deterministic cut-formula pool: subformulas of the goal and of
    axiom instances over them, plus constants, closed once under the
    modalities.

    Axiom instantiation grids are ranked by total substituted size and
    truncated at `instance_cap` per member; the final pool keeps the
    `pool_cap` smallest formulas.  Both caps only bound the search, they
    never affect soundness.
    """
    base: set[Formula] = {TOP, BOT}
    base |= subformulas(goal.lhs) | subformulas(goal.rhs)
    ground = sorted(base, key=_size_key)
    ground_keys = [_size_key(f) for f in ground]
    for member in gamma:
        vs = sorted(letters(member))
        combos = sorted(
            product(range(len(ground)), repeat=len(vs)),
            key=lambda c: (
                sum(ground_keys[i][0] for i in c),
                tuple(ground_keys[i][1] for i in c),
            ),
        )[:instance_cap]
        for combo in combos:
            m = {v: ground[i] for v, i in zip(vs, combo)}
            base |= subformulas(substitute(member.lhs, m))
            base |= subformulas(substitute(member.rhs, m))
    once = set(base)
    for f in base:
        once.add(Box(f))
        once.add(Dia(f))
        # bridge for the forced seriality pattern: box f |- dia f goes
        # through dia T & box f |- dia(T & f) (the duality axiom at T)
        once.add(And(Dia(TOP), Box(f)))
        once.add(Dia(And(TOP, f)))
    ranked = sorted(once, key=_size_key)[:pool_cap]
    return tuple(sorted(ranked, key=formula_key))


_NEVER = 10**9


@lru_cache(maxsize=64)
def _screening_algebras(gamma):
    """Small modal lattices validating every member of gamma.  A subgoal
    refuted on one of them is not derivable (soundness), so the search
    may discard it without exploring; this changes no verdicts, only
    cost."""
    from .catalog import all_lattices, all_modal_lframes
    from .lattice import algebra_validates, with_identity_modalities
    from .lframe import fil_f

    candidates = []
    for n in (2, 3):
        for frame in all_modal_lframes(n):
            candidates.append(fil_f(frame))
    for n in (2, 3, 4, 5):
        for lat in all_lattices(n):
            candidates.append(with_identity_modalities(lat))
    out = []
    seen = set()
    for a in candidates:
        key = (a.leq, a.box, a.diamond)
        if key in seen:
            continue
        seen.add(key)
        if all(algebra_validates(a, g) is None for g in gamma):
            out.append(a)
        if len(out) >= 12:
            break
    return tuple(out)


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
    subgoal is expanded.  They are `success` (key -> proof) and
    `failed_at` (key -> largest depth that failed), where the key of the
    pair of ids (l, r) is `l << 32 | r`.

    `expansions`, `screen_calls` (pairs checked against the screen set),
    `screen_rejects` (pairs a screen refuted) and `vector_entries`
    (packed vectors held by the search's screen) are deterministic work
    counters.
    """

    def __init__(self, gamma, pool, budget: int = 200_000, screens=None):
        self.gamma = tuple(gamma)
        self.pool = tuple(pool)
        self.budget = budget
        self.screens = (
            _screening_algebras(self.gamma) if screens is None else tuple(screens)
        )
        ids: dict[Formula, int] = {}
        self._ids = ids
        self._pool_ids = tuple(ids.setdefault(f, len(ids)) for f in self.pool)
        self._formulas: list[Formula] = list(ids)
        # pool id -> its positions in the pool (a formula may occur twice)
        self._pool_at: dict[int, list[int]] = {}
        for at, cut in enumerate(self._pool_ids):
            self._pool_at.setdefault(cut, []).append(at)
        # left id -> its live cuts `(dmax, cuts, positions)`; see `_prove`
        self._live: dict[int, tuple[int, list[int], list[int]]] = {}
        self.success: dict[int, Proof] = {}
        self.failed_at: dict[int, int] = {}
        # letter bitmask of each formula id the screen has met, one bit per
        # letter in the order the search met them
        self._masks: dict[int, int] = {}
        self._bits: dict[str, int] = {}
        # pair mask -> its slot (see `_slot`), or None past three letters
        self._slots: dict[int, Optional[tuple]] = {}
        self._screen_ok: set[int] = set()
        self._screen = PackedScreen(_screen_tables(self.screens), resolve_budget())
        # (type(lhs), type(rhs)) -> the leaf rules and axiom members that
        # can match a pair of that shape
        self._leaf_plans: dict[tuple[type, type], tuple[tuple, tuple]] = {}
        self.expansions = 0
        self.screen_calls = 0
        self.screen_rejects = 0

    @property
    def vector_entries(self) -> int:
        return self._screen.vector_entries

    def _mask(self, i: int) -> int:
        mask = self._masks.get(i)
        if mask is None:
            bits, mask = self._bits, 0
            for name in letters(self._formulas[i]):
                mask |= bits.setdefault(name, 1 << len(bits))
            self._masks[i] = mask
        return mask

    def _slot(self, mask: int) -> Optional[tuple]:
        """The slot of the pairs whose letters are `mask`, built once per
        mask: `(memo, end, lefts, rights)`, with the screen's `stretch` of
        the sorted letters and each formula id's two pair-code halves as
        big integers, filled as ids meet the screen; None past three
        letters, which are not screened."""
        slot = self._slots.get(mask, False)
        if slot is False:
            names = [name for name, bit in self._bits.items() if mask & bit]
            slot = None
            if len(names) <= 3:
                slot = (*self._screen.stretch(tuple(sorted(names))), {}, {})
            self._slots[mask] = slot
        return slot

    def _screened_out(self, key: int) -> bool:
        """True iff some screen algebra within budget for its letters
        refutes the pair of formula ids `key`: the same decision as
        `algebra_validates(a, pair) is not None` for some such `a` in
        `screens`, but all of them are tried at once.  The pair's codes
        are the sum of its left id's left half and its right id's right
        half in the slot of its letters, and one translate marks the
        positions whose left value is not below the right one."""
        if key in self._screen_ok:
            return False
        l, r = key >> _SHIFT, key & _LOW
        slot = self._slot(self._mask(l) | self._mask(r))
        if slot is None:
            self._screen_ok.add(key)
            return False
        self.screen_calls += 1
        memo, end, lefts, rights = slot
        formulas, tables = self._formulas, self._screen.tables
        if end:
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
        key = l << _SHIFT | r
        found = self.success.get(key)
        if found is not None:
            return found
        if depth <= 0 or self.failed_at.get(key, -1) >= depth:
            return None
        self.expansions += 1
        if self.expansions > self.budget:
            raise ResourceBound(self.expansions, self.budget)
        if self._screened_out(key):
            self.failed_at[key] = _NEVER
            return None
        lhs, rhs = self._formulas[l], self._formulas[r]
        pair = ConsequencePair(lhs, rhs)
        found = self._leaf(pair)
        if found is None and depth < 2:
            # no room for premises: only leaves fit
            self.failed_at[key] = depth
            return None
        prove, fid, d = self._prove, self._id, depth - 1
        if found is None and isinstance(rhs, And):
            a = prove(l, fid(rhs.lhs), d)
            if a is not None:
                b = prove(l, fid(rhs.rhs), d)
                if b is not None:
                    found = Proof("right-conjunction", pair, (a, b))
        if found is None and isinstance(lhs, Or):
            a = prove(fid(lhs.lhs), r, d)
            if a is not None:
                b = prove(fid(lhs.rhs), r, d)
                if b is not None:
                    found = Proof("left-disjunction", pair, (a, b))
        if found is None and isinstance(lhs, Box) and isinstance(rhs, Box):
            a = prove(fid(lhs.arg), fid(rhs.arg), d)
            if a is not None:
                found = Proof("becker-box", pair, (a,))
        if found is None and isinstance(lhs, Dia) and isinstance(rhs, Dia):
            a = prove(fid(lhs.arg), fid(rhs.arg), d)
            if a is not None:
                found = Proof("becker-dia", pair, (a,))
        if found is None:
            # each leg's memo probe is `_prove`'s own, inline: a success at
            # any depth, or a failure at depth d or deeper, needs no call
            success, failed_at, ll = self.success, self.failed_at, l << _SHIFT
            live = self._live.get(l)
            full = live is None or live[0] < d
            for cut in self._pool_ids if full else live[1]:
                if cut == l or cut == r:
                    continue
                a = success.get(ll | cut)
                if a is None:
                    if failed_at.get(ll | cut, -1) >= d:
                        continue
                    a = prove(l, cut, d)
                    if a is None:
                        continue
                key2 = cut << _SHIFT | r
                b = success.get(key2)
                if b is None:
                    if failed_at.get(key2, -1) >= d:
                        continue
                    b = prove(cut, r, d)
                    if b is None:
                        continue
                found = Proof("transitivity", pair, (a, b))
                break
            else:
                if full:
                    self._live[l] = self._live_cuts(l, d)
        if found is not None:
            self.success[key] = found
            # l is never a cut of its own loop, and (l, l) may succeed
            # while a loop for l walks its live cuts
            live = self._live.get(l)
            if live is not None and r != l and r in self._pool_at:
                self._revive(live, r)
        else:
            self.failed_at[key] = depth
        return found

    def _live_cuts(self, l: int, d: int) -> tuple[int, list[int], list[int]]:
        """The live cuts of left id `l` after a full cut loop at depth `d`
        that found no cut: the pool cuts other than `l` whose first leg
        `(l, cut)` is a success, in pool order, with their positions.

        Every other cut's first leg then failed at depth d or deeper (the
        loop probed or proved it, and the loop's own pair is stored as
        failed at d + 1 next).  Such a failure stays decided in any later
        loop for `l` at depth d or less: calls nested in that loop are at
        depth d or less, so `_prove`'s prologue refuses the leg.  So that
        loop may walk the live cuts instead of the pool and visit the same
        legs in the same order, as long as a first leg that succeeds later
        (at a depth above its failure) is put back (`_revive`)."""
        ll, success, pool = l << _SHIFT, self.success, self._pool_ids
        at = [i for i, cut in enumerate(pool) if cut != l and ll | cut in success]
        return d, [pool[i] for i in at], at

    def _revive(self, live, cut: int) -> None:
        """Put pool cut `cut`, whose first leg from `live`'s left id has
        just succeeded, into the live cuts at each of its pool positions."""
        _, cuts, positions = live
        for at in self._pool_at[cut]:
            i = bisect_left(positions, at)
            if i == len(positions) or positions[i] != at:
                positions.insert(i, at)
                cuts.insert(i, cut)


def order_cuts(goal: ConsequencePair, pool) -> tuple[Formula, ...]:
    """Search order for transitivity cuts: goal subformulas first (small
    to large), then the remaining pool formulas.  The pool order is the
    search order inside ProofSearch."""
    subs = subformulas(goal.lhs) | subformulas(goal.rhs)
    return tuple(sorted(pool, key=lambda f: (f not in subs, _size_key(f))))


# The greatest proof depth `derive_bounded` accepts.  The search recurses
# once per depth level, and the walks over a proof (checking, comparing,
# printing) recurse once or twice per level of its height, so at this
# depth they stay well inside Python's default recursion limit, under a
# test runner too, even on formulas nested `formulas.MAX_HEIGHT` deep.
MAX_PROOF_DEPTH = 200


def derive_bounded(
    gamma,
    goal: ConsequencePair,
    depth: int,
    budget: int = 200_000,
    pool: Optional[tuple[Formula, ...]] = None,
) -> Optional[Proof]:
    """One-shot bounded search; returns a proof whose conclusion is the
    goal, or None when the bounded space is exhausted.  Raises
    ResourceBound when the expansion budget is exceeded, and SizeCap
    for a depth above `MAX_PROOF_DEPTH`."""
    if depth > MAX_PROOF_DEPTH:
        raise SizeCap(f"proof depth {depth} exceeds the cap of {MAX_PROOF_DEPTH}")
    gamma = tuple(gamma)
    if pool is None:
        pool = cut_pool(goal, gamma)
    return ProofSearch(gamma, order_cuts(goal, pool), budget).prove(goal, depth)

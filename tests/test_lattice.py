import hashlib
import random
from itertools import combinations, permutations, product

import pytest

from wpml.catalog import (
    _canonical,
    _is_transitive,
    _modal_maps,
    _monotone_diamonds,
    all_distributive_lattices,
    all_lattice_orders,
    all_lattices,
    all_modal_lattices,
)
from wpml.errors import (
    DEFAULT_BUDGET,
    InvalidBudget,
    NotALattice,
    NotAPoset,
    ResourceBound,
    WrongBounds,
    resolve_budget,
)
from wpml.formulas import parse_pair
from wpml.lattice import (
    FiniteModalLattice,
    LatticeMorphism,
    _order_tables,
    _table_maps,
    algebra_validates,
    check_modal_identities,
    enumerate_homs,
    is_distributive,
    is_epi_bounded,
    validate_lattice,
    validate_morphism,
    with_identity_modalities,
)
from wpml.lframe import fil_f, lframe_from_leq

from conftest import all_modal_lframes, chain_leq


class TestValidateLattice:
    def test_trivial(self):
        lat = validate_lattice([[1]], 0, 0)
        assert lat.n == 1 and lat.meet == ((0,),) and lat.join == ((0,),)

    def test_three_chain(self):
        lat = validate_lattice(chain_leq(3), 0, 2)
        # meet = min, join = max on a total order
        for i in range(3):
            for j in range(3):
                assert lat.meet[i][j] == min(i, j)
                assert lat.join[i][j] == max(i, j)

    def test_n_poset_is_not_a_lattice(self):
        # N-shaped order: a < c, b < c, b < d; c and d are maximal and
        # incomparable, so some pair has no join
        leq = [
            [1, 0, 1, 0],
            [0, 1, 1, 1],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        # independent brute-force scan confirms a pair without a unique lub
        def has_unique_lub(i, j):
            ups = [k for k in range(4) if leq[i][k] and leq[j][k]]
            return len([k for k in ups if all(leq[k][m] for m in ups)]) == 1

        assert not all(has_unique_lub(i, j) for i in range(4) for j in range(4))
        # the first pair in row-major order lacking a bound, meet before join
        with pytest.raises(NotALattice) as info:
            validate_lattice(leq, 1, 2)
        assert (info.value.pair, info.value.which) == ((0, 1), "meet")

    def test_not_a_poset(self):
        with pytest.raises(NotAPoset):
            validate_lattice([[1, 1], [1, 1]], 0, 1)  # antisymmetry
        with pytest.raises(NotAPoset):
            validate_lattice([[0, 0], [0, 0]], 0, 1)  # reflexivity
        bad_trans = [
            [1, 1, 0],
            [0, 1, 1],
            [0, 0, 1],
        ]
        with pytest.raises(NotAPoset):
            validate_lattice(bad_trans, 0, 2)
        with pytest.raises(NotAPoset):
            lframe_from_leq(("a", "b"), [[1, 1], [1, 1]], 1)  # masks collide

    def test_wrong_bounds(self):
        with pytest.raises(WrongBounds):
            validate_lattice(chain_leq(2), 1, 0)


class TestModalIdentities:
    def test_identity_operators_always_pass(self):
        for n in range(1, 5):
            for lat in all_lattices(n):
                assert check_modal_identities(with_identity_modalities(lat)) == []

    def test_constant_bottom_diamond_breaks_modal_top(self, b4):
        top_const = tuple(b4.top for _ in range(4))
        bot_const = tuple(b4.bot for _ in range(4))
        a = FiniteModalLattice.over(b4, top_const, bot_const)
        violated = {v.identity for v in check_modal_identities(a)}
        assert "T = <>T" in violated

    def test_fil_f_outputs_pass(self):
        count = 0
        for n in range(1, 5):
            for frame in all_modal_lframes(n):
                assert check_modal_identities(fil_f(frame)) == []
                count += 1
        assert count > 500


def _brute_force_homs(a, b, modal=False):
    """Oracle: scan all element maps."""
    found = []
    for mapping in product(range(b.n), repeat=a.n):
        ok = mapping[a.bot] == b.bot and mapping[a.top] == b.top
        for i in range(a.n):
            if not ok:
                break
            for j in range(a.n):
                if mapping[a.meet[i][j]] != b.meet[mapping[i]][mapping[j]]:
                    ok = False
                    break
                if mapping[a.join[i][j]] != b.join[mapping[i]][mapping[j]]:
                    ok = False
                    break
        if ok and modal:
            for i in range(a.n):
                if mapping[a.box[i]] != b.box[mapping[i]]:
                    ok = False
                    break
                if mapping[a.diamond[i]] != b.diamond[mapping[i]]:
                    ok = False
                    break
        if ok:
            found.append(mapping)
    return found


class TestEnumerateHoms:
    def test_two_chain_endos(self, chain2):
        homs = list(enumerate_homs(chain2, chain2))
        assert [h.map for h in homs] == [(0, 1)]

    def test_three_chain_to_two_chain(self, chain3, chain2):
        homs = list(enumerate_homs(chain3, chain2))
        assert [h.map for h in homs] == [(0, 0, 1), (0, 1, 1)]
        assert [h.map for h in homs] == _brute_force_homs(chain3, chain2)

    def test_two_chain_into_b4(self, chain2, b4):
        homs = list(enumerate_homs(chain2, b4))
        assert [h.map for h in homs] == [(0, 3)]

    def test_matches_brute_force_up_to_size_4(self):
        lats = [lat for n in range(1, 5) for lat in all_lattices(n)]
        for a in lats:
            for b in lats:
                got = [h.map for h in enumerate_homs(a, b)]
                assert got == _brute_force_homs(a, b)
                # output is lexicographically sorted and duplicate-free
                assert got == sorted(set(got))
        modal = [a for n in range(1, 4) for a in all_modal_lattices(n)]
        for a in modal:
            for b in modal:
                got = [h.map for h in enumerate_homs(a, b, modal=True)]
                assert got == _brute_force_homs(a, b, modal=True)

    def test_injective_filter_matches_brute_force(self, chain3, b4):
        got = [h.map for h in enumerate_homs(chain3, b4) if h.is_injective()]
        oracle = [
            m for m in _brute_force_homs(chain3, b4) if len(set(m)) == 3
        ]
        assert got == oracle

    def test_every_output_validates(self, chain3, b4):
        for h in enumerate_homs(chain3, b4):
            validate_morphism(h)


class TestAlgebraValidates:
    def test_top_axiom_everywhere(self):
        pair = parse_pair("p |- T")
        for n in range(1, 5):
            for lat in all_lattices(n):
                assert algebra_validates(with_identity_modalities(lat), pair) is None

    def test_b4_distributivity_valid(self, b4_modal):
        pair = parse_pair("p & (q v r) |- (p & q) v (p & r)")
        # oracle: exhaust all 4^3 valuations directly
        from wpml.lattice import evaluate

        for combo in product(range(4), repeat=3):
            val = dict(zip(("p", "q", "r"), combo))
            assert b4_modal.le(
                evaluate(b4_modal, pair.lhs, val), evaluate(b4_modal, pair.rhs, val)
            )
        assert algebra_validates(b4_modal, pair) is None

    def test_m3_distributivity_countervaluation(self, m3):
        a = with_identity_modalities(m3)
        pair = parse_pair("p & (q v r) |- (p & q) v (p & r)")
        cv = algebra_validates(a, pair)
        assert cv is not None
        from wpml.lattice import evaluate

        assert not a.le(evaluate(a, pair.lhs, cv), evaluate(a, pair.rhs, cv))
        # first countervaluation in lexicographic order: atoms 1, 2, 3
        assert cv == {"p": 1, "q": 2, "r": 3}

    def test_reflexivity_axiom(self, b4_modal):
        assert algebra_validates(b4_modal, parse_pair("p & <>q |- p & <>q")) is None

    def test_budget(self, b4_modal):
        with pytest.raises(ResourceBound):
            algebra_validates(b4_modal, parse_pair("a & b & c |- d v e"), budget=10)


class TestDistributive:
    def test_examples(self, chain2, m3, b4):
        assert is_distributive(chain2)
        assert not is_distributive(m3)
        assert is_distributive(b4)

    def test_catalog_counts(self):
        # OEIS A006966 and A006982
        assert [len(all_lattices(n)) for n in range(1, 8)] == [1, 1, 1, 2, 5, 15, 53]
        assert [len(all_distributive_lattices(n)) for n in range(1, 8)] == [
            1,
            1,
            1,
            2,
            3,
            5,
            8,
        ]


def _reference_canonical(leq, n):
    # the least encoding over all n! relabelings
    return min(tuple(leq[a][b] for a in p for b in p) for p in permutations(range(n)))


def _reference_lattice_orders(n):
    # the full walk over every upper-triangular relation, kept literally
    if n <= 0:
        return ()
    if n == 1:
        return (((True,),),)
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for b, (i, j) in enumerate(pairs):
            if bits >> b & 1:
                leq[i][j] = True
        if not _is_transitive(leq, n):
            continue
        if not all(leq[0][x] for x in range(n)):
            continue
        if not all(leq[x][n - 1] for x in range(n)):
            continue
        try:
            _order_tables(leq)
        except NotALattice:
            continue
        canon = _reference_canonical(leq, n)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(tuple(tuple(row) for row in leq))
    return tuple(out)


def _random_linear_extension(leq, n, rng):
    # repeatedly take a random minimal element of what is left
    left = set(range(n))
    order = []
    while left:
        x = rng.choice(sorted(x for x in left if not any(leq[y][x] for y in left - {x})))
        order.append(x)
        left.remove(x)
    return order


class TestLatticeOrderCatalog:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_literal_full_walk(self, n):
        assert all_lattice_orders(n) == _reference_lattice_orders(n)

    def test_canonical_is_invariant_under_bounded_relabelings(self):
        rng = random.Random(0)
        moved = 0
        for n in range(2, 7):
            orders = all_lattice_orders(n)
            for leq in orders:
                want = _canonical(leq, n)
                for _ in range(8):
                    p = _random_linear_extension(leq, n, rng)
                    assert p[0] == 0 and p[-1] == n - 1
                    relabeled = [[leq[a][b] for b in p] for a in p]
                    assert all(
                        i <= j for i in range(n) for j in range(n) if relabeled[i][j]
                    )
                    moved += relabeled != [list(row) for row in leq]
                    assert _canonical(relabeled, n) == want
            # one value per class: 15 distinct values at n = 6
            assert len({_canonical(leq, n) for leq in orders}) == len(orders)
        assert moved


def literal_modal_maps(lat):
    """The (box, diamond) maps of the modal structures over `lat` by the
    nested loop: every catalog box against every top-fixing monotone
    diamond, checking `<>a & []b <= <>(a & b)` pair by pair."""
    n, leq, meet, top = lat.n, lat.leq, lat.meet, lat.top
    diamonds = _monotone_diamonds(lat)
    pairs = [(x, meet[x][y], y) for x in range(n) for y in range(n) if meet[x][y] != x]
    out = []
    for box in _table_maps(n, n, [(top, top)], [(meet, meet)]):
        for dia in diamonds:
            if all(leq[meet[dia[x]][box[y]]][dia[xy]] for x, xy, y in pairs):
                out.append((box, dia))
    return out


class TestModalCatalog:
    def test_bitmask_kernel_matches_the_nested_loop(self):
        """`_modal_maps` gives the nested loop's maps in the same order on
        every lattice of at most five elements, and the 101,010 modal
        structures of six elements."""
        for n in range(1, 6):
            for lat in all_lattices(n):
                assert list(_modal_maps(lat)) == literal_modal_maps(lat)
        counts = [len(all_modal_lattices(n)) for n in range(1, 6)]
        assert counts == [1, 3, 20, 275, 4842]
        assert sum(1 for lat in all_lattices(6) for _ in _modal_maps(lat)) == 101_010

    def test_modal_two_chains_match_brute_force(self, chain2):
        got = sorted((a.box, a.diamond) for a in all_modal_lattices(2))
        brute = sorted(
            (b, d)
            for b in product(range(2), repeat=2)
            for d in product(range(2), repeat=2)
            if not check_modal_identities(FiniteModalLattice.over(chain2, b, d))
        )
        assert got == brute
        assert len(got) == 3

    def test_modal_structures_match_brute_force(self):
        """For each catalog box, the diamonds kept are exactly the arrays
        on which `check_modal_identities` finds no violation, in
        lexicographic order."""
        for n in range(1, 5):
            for lat in all_lattices(n):
                got = list(_modal_maps(lat))
                boxes = _table_maps(n, n, [(lat.top, lat.top)], [(lat.meet, lat.meet)])
                over = FiniteModalLattice.over
                brute = [
                    (box, dia)
                    for box in boxes
                    for dia in product(range(n), repeat=n)
                    if not check_modal_identities(over(lat, box, dia))
                ]
                assert got == brute

    def test_box_candidates_match_brute_force(self):
        # the catalog's boxes: every top-fixing, meet-preserving array
        for n in range(1, 6):
            for lat in all_lattices(n):
                got = list(
                    _table_maps(n, n, [(lat.top, lat.top)], [(lat.meet, lat.meet)])
                )
                brute = [
                    box
                    for box in product(range(n), repeat=n)
                    if box[lat.top] == lat.top
                    and all(
                        box[lat.meet[x][y]] == lat.meet[box[x]][box[y]]
                        for x in range(n)
                        for y in range(n)
                    )
                ]
                assert got == brute

    def test_catalog_digests(self):
        # sha256 of the catalogs as first recorded; they must not change
        orders = {
            1: "bf297da11c7214e3c3ab40bbfb70eb80282b7a1d03090b90ba59343c658eb288",
            2: "b4bd30d29df64da45e27a1e7da0b63039163b0a72326aed6e663776d9050f95d",
            3: "c076c5b6b4b0c84e21231c50e8f88307fc28d6f1c95f5bfde0feb2ebd136d130",
            4: "84081f82e020b340563fa5990b7088dd9a2b9db17ae933167ef446e5b8b736fd",
            5: "2f1bc9025ce4dd51ddc922dbca1eac1b27c37d676219f32b3248c1feb8db13ab",
            6: "0d2e7af12d5c8440c35551ec31728986015f5ae933f107bfafef7e2a93ff7d10",
            7: "8840f538ef0fc7beeecc4ea881015a6f1b3d5249bec7bebc06ef89975473fb98",
        }
        modal = {
            1: "a2cb5029566e2f5f88a63369de48a1652a77994407ea5d993f389db3ec2f7bd7",
            2: "d42d2a8caa78235ead78e2ae421754e9ed460d1310a75802c6017e1ec6e31f12",
            3: "9d78d9e2edc742b174aa1cd26d5c16b175ca5672b8371b3507e9a70a04fc0510",
            4: "c12fe8d39e73ed78811e18cded62e96271038b0fca940b97c59aee920994a4fa",
        }
        frames = {
            1: "c5f1df50d129f60a1c57c317125bba0e9b07123890bd7dc9feb983ebcc5e8f65",
            2: "e1fc32dac5da95a478fa0bff0c13893a9d85d17f326b5af29fc6977d2ccdfec2",
            3: "9b9932fd27f9f233cebe57cebb66e24e034dec2494b0a784d529270f6bf8bc51",
            4: "f16afb72ca8fcfc6ddc15943880ceb4215751d4941b3b7602b5a023025fef2d5",
        }

        def digest(obj):
            return hashlib.sha256(repr(obj).encode()).hexdigest()

        for n, want in orders.items():
            assert digest(all_lattice_orders(n)) == want
        for n, want in modal.items():
            entries = [(a.leq, a.box, a.diamond) for a in all_modal_lattices(n)]
            assert digest(entries) == want
        for n, want in frames.items():
            entries = [(x.base.meet, x.succ) for x in all_modal_lframes(n)]
            assert digest(entries) == want

    def test_all_entries_satisfy_identities(self):
        for n in (1, 2, 3, 4):
            for a in all_modal_lattices(n):
                assert check_modal_identities(a) == []


class TestBudgetEnv:
    def test_wpml_budget_overrides_default(self, b4_modal, monkeypatch):
        pair = parse_pair("a & b |- c v d")
        monkeypatch.setenv("WPML_BUDGET", "10")
        with pytest.raises(ResourceBound):
            algebra_validates(b4_modal, pair)
        monkeypatch.setenv("WPML_BUDGET", "1000")
        algebra_validates(b4_modal, pair)

    @pytest.mark.parametrize("text", ["abc", "-5", "", "1e6"])
    def test_invalid_wpml_budget_is_rejected(self, monkeypatch, text):
        monkeypatch.setenv("WPML_BUDGET", text)
        with pytest.raises(InvalidBudget):
            resolve_budget()

    def test_resolve_budget_sources(self, monkeypatch):
        monkeypatch.delenv("WPML_BUDGET", raising=False)
        assert resolve_budget() == DEFAULT_BUDGET
        monkeypatch.setenv("WPML_BUDGET", "0")
        assert resolve_budget() == 0
        assert resolve_budget(7) == 7


class TestEpiBounded:
    def test_identity_is_epi(self, chain3):
        h = LatticeMorphism(chain3, chain3, (0, 1, 2))
        rep = is_epi_bounded(h, 3)
        assert rep.epi and rep.bound == 3

    def test_surjection_is_epi(self, chain3, chain2):
        h = LatticeMorphism(chain3, chain2, (0, 0, 1))
        assert is_epi_bounded(h, 3).epi

    def test_three_chain_into_b4_distributive(self, chain3, b4):
        # the inclusion hitting bottom, one atom, top
        h = LatticeMorphism(chain3, b4, (0, 1, 3))
        assert not h.is_surjective()
        rep = is_epi_bounded(h, 5, restrict_distributive=True)
        assert rep.epi and rep.bound == 5 and rep.distributive_only

    def test_three_chain_into_b4_fails_without_distributivity(self, chain3, b4):
        # M3 has two complements for an atom, which separates
        h = LatticeMorphism(chain3, b4, (0, 1, 3))
        rep = is_epi_bounded(h, 5, restrict_distributive=False)
        assert not rep.epi
        cand, g1, g2 = rep.separating
        assert tuple(g1.map[x] for x in h.map) == tuple(g2.map[x] for x in h.map)
        assert g1.map != g2.map

    def test_modal_identity_is_epi(self, chain2_modal):
        h = LatticeMorphism(chain2_modal, chain2_modal, (0, 1), modal=True)
        assert is_epi_bounded(h, 2).epi

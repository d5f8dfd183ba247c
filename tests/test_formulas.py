import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import wpml
from wpml.errors import FormulaSyntaxError
from wpml.formulas import (
    BOT,
    TOP,
    And,
    Bot,
    Box,
    ConsequencePair,
    Dia,
    Letter,
    Or,
    MAX_HEIGHT,
    Top,
    _size_key,
    formula_key,
    letters,
    match_pair,
    parse,
    parse_formula,
    parse_pair,
    pretty,
    size,
    substitute,
)


def test_parse_linearity_shape():
    pair = parse("[]p & []q |- [](p & q)")
    assert pair == ConsequencePair(
        And(Box(Letter("p")), Box(Letter("q"))),
        Box(And(Letter("p"), Letter("q"))),
    )


def test_parse_modal_top():
    assert parse("T |- []T") == ConsequencePair(TOP, Box(TOP))


def test_precedence_or_binds_weaker():
    assert parse("p v q & r") == Or(Letter("p"), And(Letter("q"), Letter("r")))


def test_left_associativity():
    assert parse_formula("p & q & r") == And(And(Letter("p"), Letter("q")), Letter("r"))
    assert parse_formula("p v q v r") == Or(Or(Letter("p"), Letter("q")), Letter("r"))


def test_unary_binds_tightest():
    assert parse_formula("[]p & q") == And(Box(Letter("p")), Letter("q"))
    assert parse_formula("<><>p") == Dia(Dia(Letter("p")))


def test_parens():
    assert parse_formula("[](p & q)") == Box(And(Letter("p"), Letter("q")))


def test_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p & ")
    assert err.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p q")
    with pytest.raises(FormulaSyntaxError):
        parse_pair("p |- q |- r")


# texts of n levels: each nests exactly n deep
NESTED = {
    "parentheses": lambda n: "(" * n + "p" + ")" * n,
    "flat conjunction": lambda n: " & ".join(["p"] * (n + 1)),
    "flat disjunction": lambda n: " v ".join(["p"] * (n + 1)),
    "modal prefix": lambda n: "[]<>" * (n // 2) + "[]" * (n % 2) + "p",
    "right-nested": lambda n: "(p & " * n + "q" + ")" * n,
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_cap_is_exact(shape):
    text = NESTED[shape](MAX_HEIGHT)
    f = parse_formula(text)
    assert parse_pair(f"{text} |- {text}") == ConsequencePair(f, f)
    assert parse_formula(pretty(f)) == f
    with pytest.raises(FormulaSyntaxError, match=f"more than {MAX_HEIGHT} deep"):
        parse_formula(NESTED[shape](MAX_HEIGHT + 1))
    with pytest.raises(FormulaSyntaxError, match=f"more than {MAX_HEIGHT} deep"):
        parse_pair(f"p |- {NESTED[shape](MAX_HEIGHT + 1)}")


@pytest.mark.parametrize(
    "text",
    ["(" * 330 + "p" + ")" * 330, " & ".join(["p"] * 1500), "[]" * 1500 + "p"],
)
def test_deep_formulas_are_syntax_errors_not_recursion_errors(text):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert err.value.position < len(text)
    with pytest.raises(FormulaSyntaxError):
        parse_pair(f"{text} |- p v q")


def test_reserved_words_are_not_letters():
    assert parse_formula("T") == TOP
    assert parse_formula("F") == BOT
    # bare 'v' is the disjunction token, never an identifier
    with pytest.raises(FormulaSyntaxError):
        parse_formula("v")


def test_substitute_examples():
    p, q, r = Letter("p"), Letter("q"), Letter("r")
    assert substitute(And(p, q), {"p": Dia(r), "q": q}) == And(Dia(r), q)
    assert substitute(TOP, {"p": q}) == TOP
    assert substitute(Box(p), {"p": Or(p, q)}) == Box(Or(p, q))


def test_substitution_is_simultaneous():
    p, q = Letter("p"), Letter("q")
    out = substitute(And(p, q), {"p": q, "q": p})
    assert out == And(q, p)


def test_match_pair():
    pat = parse_pair("[]p |- p")
    target = parse_pair("[](a & b) |- a & b")
    subst = match_pair(pat, target)
    assert subst == {"p": And(Letter("a"), Letter("b"))}
    assert match_pair(pat, parse_pair("[]a |- b")) is None


def _random_formula(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice(
            [TOP, BOT, Letter("p"), Letter("q"), Letter("r"), Letter("p1")]
        )
    if roll < 0.55:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if roll < 0.8:
        return Or(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if roll < 0.9:
        return Box(_random_formula(rng, depth - 1))
    return Dia(_random_formula(rng, depth - 1))


def test_round_trip_on_1000_random_formulas():
    rng = random.Random(2024)
    for _ in range(1000):
        f = _random_formula(rng, rng.randint(0, 5))
        text = pretty(f)
        assert parse_formula(text) == f
        # printing is normalization stable
        assert pretty(parse_formula(text)) == text


_formula_strategy = st.recursive(
    st.sampled_from([TOP, BOT, Letter("p"), Letter("q"), Letter("zz_1")]),
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Box, inner),
        st.builds(Dia, inner),
    ),
    max_leaves=12,
)


@given(_formula_strategy)
def test_round_trip_property(f):
    assert parse_formula(pretty(f)) == f


@given(_formula_strategy, _formula_strategy)
def test_formula_key_is_total_order(f, g):
    assert (formula_key(f) == formula_key(g)) == (f == g)


def test_size_key_memo_matches_size_and_formula_key():
    rng = random.Random(77)
    for _ in range(300):
        f = _random_formula(rng, rng.randint(0, 5))
        assert _size_key(f) == (size(f), formula_key(f))


_TAGS = {Top: 0, Bot: 1, Letter: 2, And: 3, Or: 4, Box: 5, Dia: 6}


def literal_size_key(f):
    """`(size, formula_key)` by recursion over the syntax tree, as both
    were computed before formulas kept them."""
    tag = _TAGS[type(f)]
    if isinstance(f, Letter):
        return 1, (tag, f.name)
    if isinstance(f, (And, Or)):
        (m, a), (n, b) = literal_size_key(f.lhs), literal_size_key(f.rhs)
        return 1 + m + n, (tag, a, b)
    if isinstance(f, (Box, Dia)):
        m, a = literal_size_key(f.arg)
        return 1 + m, (tag, a)
    return 1, (tag,)


@given(_formula_strategy, _formula_strategy)
def test_size_key_kept_at_construction_matches_recursion(f, g):
    """The key each formula keeps from its construction is the recursive
    one, on copies and on substitution results too; the hash is still
    that of (class, fields)."""
    for h in (f, copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert _size_key(h) == literal_size_key(f)
        assert (size(h), formula_key(h)) == literal_size_key(f)
    for name in ("p", "zz_1"):
        h = substitute(f, {name: g})
        assert _size_key(h) == literal_size_key(h)
        if not isinstance(h, (Top, Bot)):
            fields = tuple(getattr(h, n) for n in h.__match_args__)
            assert hash(h) == hash((type(h), fields))


def test_letters_of_pair():
    pair = parse_pair("p & q |- <>r v p")
    assert letters(pair) == frozenset({"p", "q", "r"})


class TestCachedHash:
    def test_equal_formulas_built_separately_have_equal_hashes(self):
        rng = random.Random(77)
        for _ in range(300):
            f = _random_formula(rng, rng.randint(0, 5))
            g = parse_formula(pretty(f))
            assert g == f and hash(g) == hash(f)
        a, b = parse_formula("[](p & q) v <>r"), parse_formula("[](p & q) v <>r")
        assert a is not b and a == b and hash(a) == hash(b)

    def test_constants_hash_apart(self):
        assert Top() == TOP and hash(Top()) == hash(TOP)
        assert hash(TOP) != hash(BOT)
        texts = ("[]<>T", "[]<>F", "<>(T & F)", "<>(F & T)")
        variants = [parse_formula(t) for t in texts]
        assert len({hash(f) for f in variants}) == 4

    def test_equality_per_arity(self):
        """Each constructor's equality compares its own fields: equal
        formulas built apart are equal and hash equal, one differing field
        at any depth makes them unequal, and T and F differ."""
        rng = random.Random(78)
        for _ in range(200):
            f = _random_formula(rng, rng.randint(0, 5))
            for a in (f, And(f, TOP), Or(BOT, f), Box(f), Dia(f)):
                b = parse_formula(pretty(a))
                assert a == b and b == a and hash(a) == hash(b)
        p, q = Letter("p"), Letter("q")
        assert TOP != BOT and Top() == TOP and Bot() == BOT
        assert And(p, TOP) != And(p, BOT) and Or(TOP, q) != Or(BOT, q)
        assert Box(Dia(p)) != Box(Dia(q)) and Dia(Box(p)) != Dia(Dia(p))
        assert And(p, Or(q, p)) != And(p, Or(p, q))
        assert Letter("p") == Letter("p") and Letter("p") != Letter("pp")

    def test_same_children_different_connective(self):
        p, q = Letter("p"), Letter("q")
        assert And(p, q) != Or(p, q)
        assert Box(p) != Dia(p)
        assert Letter("p") != Letter("q")
        assert And(p, q) != And(q, p)
        assert len({And(p, q), Or(p, q), And(p, q)}) == 2

    def test_repr_and_fields_unchanged(self):
        f = parse_formula("[](p & q) v <>r")
        assert repr(f) == (
            "Or(lhs=Box(arg=And(lhs=Letter(name='p'), rhs=Letter(name='q'))), "
            "rhs=Dia(arg=Letter(name='r')))"
        )
        names = {
            cls: [fld.name for fld in dataclasses.fields(cls)]
            for cls in (Letter, And, Or, Box, Dia)
        }
        assert names == {
            Letter: ["name"],
            And: ["lhs", "rhs"],
            Or: ["lhs", "rhs"],
            Box: ["arg"],
            Dia: ["arg"],
        }

    def test_deepcopy_and_pickle(self):
        for text in ("p |- p", "[](p & q) v <>T |- F v r"):
            pair = parse_pair(text)
            for clone in (
                copy.deepcopy(pair),
                copy.copy(pair),
                pickle.loads(pickle.dumps(pair)),
            ):
                assert clone == pair and hash(clone) == hash(pair)
                assert repr(clone) == repr(pair)
                assert {clone: 1}[pair] == 1

    def test_unpickled_hash_is_recomputed(self):
        # str hashes differ between processes: a hash copied from the
        # pickling process would not match this one's
        root = os.path.dirname(os.path.dirname(os.path.abspath(wpml.__file__)))
        code = (
            "import pickle, sys; from wpml.formulas import parse_pair; "
            "sys.stdout.write(pickle.dumps(parse_pair('[](p & q) |- <>r v p')).hex())"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=root)
        blob = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        pair = pickle.loads(bytes.fromhex(blob))
        fresh = parse_pair("[](p & q) |- <>r v p")
        assert pair == fresh and hash(pair.lhs) == hash(fresh.lhs)
        assert hash(pair) == hash(fresh)

"""Formula syntax for weak positive modal logic.

Grammar (text form):

    phi ::= 'T' | 'F' | ident | phi '&' phi | phi 'v' phi
          | '[]' phi | '<>' phi | '(' phi ')'

`|-` separates the two sides of a consequence pair.  Precedence is
unary > '&' > 'v', binary operators associate to the left.  `T`, `F`
and `v` are reserved words and cannot be used as letters.

A parsed formula nests at most `MAX_HEIGHT` (100) deep: no root-to-leaf
path holds more than 100 connectives, and no more than 100 parentheses
and modal operators are open at once.  Past that the parser raises
FormulaSyntaxError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaSyntaxError


class Formula:
    __slots__ = ()

    def __str__(self):
        return pretty(self)

    def __reduce__(self):
        # Rebuild through the constructor, so copies and unpickled formulas
        # compute their own hash: str hashes differ between processes.
        return (self.__class__, tuple(getattr(self, n) for n in self.__match_args__))


class _Node(Formula):
    """A formula whose hash and size key are computed once, at construction.

    `_hash` and `_key` are slots, not dataclass fields, so `repr`,
    `fields()` and everything derived from them are those of the plain
    dataclass.  `_hash` is the hash of `(class, fields)`; `_key` is
    `(size, formula_key)`, built from the children's keys.  Each subclass
    sets both in its `__post_init__`, and its `__eq__`, written per arity
    too: equality returns at once on identity or on a hash mismatch, and
    only then compares the fields.  A class that sets `__eq__` must set
    `__hash__` as well, or Python clears it, so each names this one.
    Subclasses pass `eq=False` so the dataclass decorator keeps these
    methods.
    """

    __slots__ = ("_hash", "_key")

    def __hash__(self):
        return self._hash


# The generated hash of a field-less dataclass is hash(()), the same for
# both constants, so every two formulas that differ only in T against F
# would collide.  Fixed distinct values keep them apart.  Their size keys
# are constants too: size 1 and their tag in `_TAG_ORDER`.
@dataclass(frozen=True)
class Top(Formula):
    __slots__ = ()
    _key = (1, (0,))

    def __hash__(self):
        return 1


@dataclass(frozen=True)
class Bot(Formula):
    __slots__ = ()
    _key = (1, (1,))

    def __hash__(self):
        return 2


def _letter_eq(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._hash == other._hash and self.name == other.name


def _binary_eq(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._hash == other._hash and self.lhs == other.lhs and self.rhs == other.rhs


def _unary_eq(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._hash == other._hash and self.arg == other.arg


def _binary_keys(self):
    lhs, rhs = self.lhs, self.rhs
    (m, a), (n, b) = lhs._key, rhs._key
    cls = self.__class__
    object.__setattr__(self, "_hash", hash((cls, (lhs, rhs))))
    object.__setattr__(self, "_key", (1 + m + n, (_TAG_ORDER[cls], a, b)))


def _unary_keys(self):
    arg = self.arg
    m, a = arg._key
    cls = self.__class__
    object.__setattr__(self, "_hash", hash((cls, (arg,))))
    object.__setattr__(self, "_key", (1 + m, (_TAG_ORDER[cls], a)))


@dataclass(frozen=True, eq=False)
class Letter(_Node):
    __slots__ = ("name",)
    name: str

    def __post_init__(self):
        name = self.name
        object.__setattr__(self, "_hash", hash((Letter, (name,))))
        object.__setattr__(self, "_key", (1, (_TAG_ORDER[Letter], name)))

    __eq__ = _letter_eq
    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=False)
class And(_Node):
    __slots__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula
    __post_init__ = _binary_keys
    __eq__ = _binary_eq
    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=False)
class Or(_Node):
    __slots__ = ("lhs", "rhs")
    lhs: Formula
    rhs: Formula
    __post_init__ = _binary_keys
    __eq__ = _binary_eq
    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=False)
class Box(_Node):
    __slots__ = ("arg",)
    arg: Formula
    __post_init__ = _unary_keys
    __eq__ = _unary_eq
    __hash__ = _Node.__hash__


@dataclass(frozen=True, eq=False)
class Dia(_Node):
    __slots__ = ("arg",)
    arg: Formula
    __post_init__ = _unary_keys
    __eq__ = _unary_eq
    __hash__ = _Node.__hash__


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class ConsequencePair:
    """An expression `lhs |- rhs` (one consequence judgment)."""

    lhs: Formula
    rhs: Formula

    def __str__(self):
        return f"{pretty(self.lhs)} |- {pretty(self.rhs)}"


_TAG_ORDER = {Top: 0, Bot: 1, Letter: 2, And: 3, Or: 4, Box: 5, Dia: 6}


def formula_key(f: Formula):
    """Total structural order on formulas (constructor tag, then children).

    Used everywhere a deterministic formula ordering is needed.
    """
    return f._key[1]


def _size_key(f: Formula) -> tuple[int, tuple]:
    """`(size(f), formula_key(f))`, kept on the formula since its
    construction: the sort key of the cut and candidate pools."""
    return f._key


def size(f: Formula) -> int:
    """Node count of the syntax tree."""
    return f._key[0]


def connectives(f: Formula) -> int:
    """Number of connective nodes (everything except leaves)."""
    if isinstance(f, (And, Or)):
        return 1 + connectives(f.lhs) + connectives(f.rhs)
    if isinstance(f, (Box, Dia)):
        return 1 + connectives(f.arg)
    return 0


def letters(f) -> frozenset[str]:
    """Set of proposition letters occurring in a formula or pair."""
    if isinstance(f, ConsequencePair):
        return letters(f.lhs) | letters(f.rhs)
    if isinstance(f, Letter):
        return frozenset((f.name,))
    if isinstance(f, (And, Or)):
        return letters(f.lhs) | letters(f.rhs)
    if isinstance(f, (Box, Dia)):
        return letters(f.arg)
    return frozenset()


def subformulas(f: Formula) -> set[Formula]:
    """All subformulas of f, including f itself."""
    out = {f}
    if isinstance(f, (And, Or)):
        out |= subformulas(f.lhs)
        out |= subformulas(f.rhs)
    elif isinstance(f, (Box, Dia)):
        out |= subformulas(f.arg)
    return out


def is_modality_free(f: Formula) -> bool:
    if isinstance(f, (Box, Dia)):
        return False
    if isinstance(f, (And, Or)):
        return is_modality_free(f.lhs) and is_modality_free(f.rhs)
    return True


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for letters."""
    if isinstance(f, Letter):
        return mapping.get(f.name, f)
    if isinstance(f, And):
        return And(substitute(f.lhs, mapping), substitute(f.rhs, mapping))
    if isinstance(f, Or):
        return Or(substitute(f.lhs, mapping), substitute(f.rhs, mapping))
    if isinstance(f, Box):
        return Box(substitute(f.arg, mapping))
    if isinstance(f, Dia):
        return Dia(substitute(f.arg, mapping))
    return f


def match(pattern: Formula, target: Formula, subst: dict[str, Formula] | None = None):
    """One-sided matching: a substitution s with substitute(pattern, s) == target,
    or None.  Letters in the pattern are the schematic variables."""
    if subst is None:
        subst = {}
    if isinstance(pattern, Letter):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = target
            return subst
        return subst if bound == target else None
    if type(pattern) is not type(target):
        return None
    if isinstance(pattern, (And, Or)):
        s = match(pattern.lhs, target.lhs, subst)
        if s is None:
            return None
        return match(pattern.rhs, target.rhs, s)
    if isinstance(pattern, (Box, Dia)):
        return match(pattern.arg, target.arg, subst)
    return subst  # Top / Bot


def match_pair(pattern: ConsequencePair, target: ConsequencePair):
    """Match both sides of a pair with one consistent substitution."""
    s = match(pattern.lhs, target.lhs, {})
    if s is None:
        return None
    return match(pattern.rhs, target.rhs, s)


# --- parsing ----------------------------------------------------------------

_PUNCT = (("|-", "TURNSTILE"), ("[]", "BOX"), ("<>", "DIA"),
          ("&", "AND"), ("(", "LP"), (")", "RP"))


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                tokens.append((kind, lit, i))
                i += len(lit)
                break
        else:
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word == "T":
                    tokens.append(("TOP", word, i))
                elif word == "F":
                    tokens.append(("BOT", word, i))
                elif word == "v":
                    tokens.append(("OR", word, i))
                else:
                    tokens.append(("IDENT", word, i))
                i = j
            else:
                raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


# The parser refuses a formula with more than MAX_HEIGHT connectives on
# one root-to-leaf path, or more than MAX_HEIGHT parentheses and modal
# operators open at once: the library's walks over formulas recurse once
# per level, and at this cap they all stay far inside Python's default
# recursion limit.
MAX_HEIGHT = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def capped(self, level: int, pos: int) -> int:
        if level > MAX_HEIGHT:
            raise FormulaSyntaxError(f"formula nested more than {MAX_HEIGHT} deep", pos)
        return level

    # each parse_* returns (formula, height)

    def parse_or(self):
        f, h = self.parse_and()
        while self.peek()[0] == "OR":
            pos = self.advance()[2]
            g, hg = self.parse_and()
            f, h = Or(f, g), self.capped(max(h, hg) + 1, pos)
        return f, h

    def parse_and(self):
        f, h = self.parse_unary()
        while self.peek()[0] == "AND":
            pos = self.advance()[2]
            g, hg = self.parse_unary()
            f, h = And(f, g), self.capped(max(h, hg) + 1, pos)
        return f, h

    def parse_unary(self):
        kind, value, pos = self.peek()
        if kind in ("BOX", "DIA", "LP"):
            self.advance()
            self.open = self.capped(self.open + 1, pos)
            if kind == "LP":
                f, h = self.parse_or()
                self.expect("RP")
            else:
                f, h = self.parse_unary()
                f, h = (Box if kind == "BOX" else Dia)(f), self.capped(h + 1, pos)
            self.open -= 1
            return f, h
        if kind == "TOP":
            self.advance()
            return TOP, 0
        if kind == "BOT":
            self.advance()
            return BOT, 0
        if kind == "IDENT":
            self.advance()
            return Letter(value), 0
        raise FormulaSyntaxError(f"expected a formula, found {value!r}", pos)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.parse_or()[0]
    kind, value, pos = p.peek()
    if kind != "EOF":
        raise FormulaSyntaxError(f"trailing input {value!r}", pos)
    return f


def parse_pair(text: str) -> ConsequencePair:
    p = _Parser(text)
    lhs = p.parse_or()[0]
    p.expect("TURNSTILE")
    rhs = p.parse_or()[0]
    kind, value, pos = p.peek()
    if kind != "EOF":
        raise FormulaSyntaxError(f"trailing input {value!r}", pos)
    return ConsequencePair(lhs, rhs)


def parse(text: str):
    """Parse a formula, or a consequence pair if `|-` occurs."""
    if "|-" in text:
        return parse_pair(text)
    return parse_formula(text)


# --- printing ---------------------------------------------------------------

def _pretty(f: Formula, parent: int) -> str:
    # parent precedence: 0 = or-context, 1 = and-context, 2 = unary-context.
    # Left operands of a binary op use the op's own level, right operands a
    # stricter one, so left-associative chains print without parentheses.
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bot):
        return "F"
    if isinstance(f, Letter):
        return f.name
    if isinstance(f, Box):
        return "[]" + _pretty(f.arg, 2)
    if isinstance(f, Dia):
        return "<>" + _pretty(f.arg, 2)
    if isinstance(f, And):
        s = f"{_pretty(f.lhs, 1)} & {_pretty(f.rhs, 2)}"
        return f"({s})" if parent >= 2 else s
    if isinstance(f, Or):
        s = f"{_pretty(f.lhs, 0)} v {_pretty(f.rhs, 1)}"
        return f"({s})" if parent >= 1 else s
    raise TypeError(f"not a formula: {f!r}")


def pretty(f) -> str:
    """Round-tripping printer: parse(pretty(f)) == f."""
    if isinstance(f, ConsequencePair):
        return f"{_pretty(f.lhs, 0)} |- {_pretty(f.rhs, 0)}"
    return _pretty(f, 0)

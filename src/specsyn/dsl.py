"""Rule language for configuration specifications.

A specification is one or more rules joined by ``and`` / ``or``.  Each rule
constrains a single configuration keyword.  Canonical surface forms:

    user_port > 1500
    max_rows in [2, 7]
    log_level in {1, 2, 3}
    have_ssl == true and have_open_ssl == true
    use(sync)
    with(ssl_ca, ssl_cert)
    prefer(innodb, myisam)
    format(datadir, "absolute path")
    recommend(ssl_ca)

Numbers may carry an opaque unit token (``timeout < 30 s``).  Printing is
deterministic (single canonical form) and ``parse_spec(print_spec(s)) == s``
for every valid specification.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Union

from .files import InputError, content_lines, write_output


class DslError(ValueError):
    """Base class for rule-language errors."""


class DslSyntaxError(DslError):
    """Input does not match the canonical grammar."""

    def __init__(self, message, position):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class ArityError(DslError):
    """Number of values does not match what the relation requires."""


class IntervalOrderError(DslError):
    """Interval bounds are not in non-decreasing order."""


class UnitMismatchError(DslError):
    """Interval bounds carry different units."""


class ValidationError(DslError):
    """A type invariant was violated during construction."""


class Relation(enum.Enum):
    """Closed set of rule relations; bare recommendations are ``RECOMMEND``."""

    EQ = "=="
    NEQ = "!="
    GT = ">"
    LT = "<"
    INTERVAL = "interval"
    SET_MEMBERSHIP = "set"
    USE = "use"
    WITH = "with"
    PREFER = "prefer"
    STRING_FORMAT = "format"
    RECOMMEND = "recommend"


class Connective(enum.Enum):
    AND = "and"
    OR = "or"


class Category(enum.Enum):
    QUANTITATIVE = "quantitative"
    UTILIZATION = "utilization"
    INTERRELATION = "interrelation"
    ATTRIBUTE = "attribute"
    GENERIC = "generic"


# configuration keywords, in rules and as config-file keys alike
_KEYWORD = r"-{0,2}[A-Za-z_][A-Za-z0-9_.\-]*"
KEYWORD_RE = re.compile(_KEYWORD)
# units after a number, in rules and after observed config values alike
UNIT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|%")
_RESERVED = frozenset(
    {"and", "or", "in", "true", "false", "use", "with", "prefer", "format", "recommend"}
)
# Reserved words that the grammar can still disambiguate as keywords (a
# functional form always has "(" right after the name).
_KEYWORD_FORBIDDEN = frozenset({"and", "or", "in", "true", "false"})


def is_rule_keyword(name: str) -> bool:
    """Whether a rule can name `name` as its keyword; keyword files and
    rules share this grammar."""
    return KEYWORD_RE.fullmatch(name) is not None and name not in _KEYWORD_FORBIDDEN


def _check_keyword_token(name: str, what: str) -> None:
    if not is_rule_keyword(name):
        problem = ("collides with a reserved word" if name in _KEYWORD_FORBIDDEN
                   else "is not a valid keyword token")
        raise ValidationError(f"{what} {name!r} {problem}")


def format_number(magnitude: float) -> str:
    """Canonical rendering of a numeric magnitude (no superfluous zeros)."""
    if magnitude == int(magnitude) and abs(magnitude) < 1e16:
        return str(int(magnitude))
    return repr(float(magnitude))


@dataclass(frozen=True)
class Number:
    magnitude: float
    unit: str | None = None

    def __post_init__(self):
        m = float(self.magnitude)
        # a whole magnitude below 1e16 is finite and prints as an integer;
        # any other prints by repr, which may need an exponent
        if not (m.is_integer() and -1e16 < m < 1e16):
            if not math.isfinite(m):
                raise ValidationError("number magnitude must be finite")
            if "e" in repr(m):
                raise ValidationError(f"magnitude {m!r} has no canonical decimal form")
        object.__setattr__(self, "magnitude", m)
        unit = self.unit
        if unit is not None:
            if not UNIT_RE.fullmatch(unit):
                raise ValidationError(f"unit {unit!r} is not a valid unit token")
            if unit in _RESERVED:
                raise ValidationError(f"unit {unit!r} collides with a reserved word")


@dataclass(frozen=True)
class Boolean:
    flag: bool


@dataclass(frozen=True)
class KeywordRef:
    name: str

    def __post_init__(self):
        _check_keyword_token(self.name, "keyword reference")


@dataclass(frozen=True)
class FormatClass:
    name: str

    def __post_init__(self):
        if not self.name or '"' in self.name or "\n" in self.name:
            raise ValidationError(f"format class {self.name!r} must be a non-empty quotable string")


@dataclass(frozen=True)
class Text:
    content: str

    def __post_init__(self):
        if '"' in self.content or "\n" in self.content:
            raise ValidationError(f"text value {self.content!r} is not quotable")


Value = Union[Number, Boolean, KeywordRef, FormatClass, Text]

# a relation's value kinds, and the message for a value of another kind
_NUMERIC = ((Number,), "{relation} requires numeric values, got {value!r}")
_GENERAL = ((Number, Boolean, KeywordRef, Text), "{relation} does not accept {kind} values")
_KEYWORD_PAYLOAD = ((KeywordRef,), "{relation} requires a keyword-valued payload")
_FORMAT_PAYLOAD = ((FormatClass,), "{relation} requires a format-class payload")

# relation -> (min values, max values, value kinds); None max = unbounded
_SHAPE = {
    Relation.EQ: (1, 1, _GENERAL),
    Relation.NEQ: (1, 1, _GENERAL),
    Relation.GT: (1, 1, _NUMERIC),
    Relation.LT: (1, 1, _NUMERIC),
    Relation.INTERVAL: (2, 2, _NUMERIC),
    Relation.SET_MEMBERSHIP: (2, None, _GENERAL),
    Relation.USE: (0, 0, _GENERAL),
    Relation.RECOMMEND: (0, 0, _GENERAL),
    Relation.WITH: (1, 1, _KEYWORD_PAYLOAD),
    Relation.PREFER: (1, 1, _KEYWORD_PAYLOAD),
    Relation.STRING_FORMAT: (1, 1, _FORMAT_PAYLOAD),
}


@dataclass(frozen=True)
class Rule:
    keyword: str
    relation: Relation
    values: tuple = field(default=())

    def __post_init__(self):
        values = self.values
        if type(values) is not tuple:
            values = tuple(values)
            object.__setattr__(self, "values", values)
        _check_keyword_token(self.keyword, "rule keyword")
        relation = self.relation
        lo, hi, (kinds, wrong_kind) = _SHAPE[relation]
        n = len(values)
        if n < lo or (hi is not None and n > hi):
            want = str(lo) if lo == hi else (f">= {lo}" if hi is None else f"{lo}..{hi}")
            raise ArityError(f"{relation.name} takes {want} value(s), got {n}")
        for v in values:
            if not isinstance(v, kinds):
                raise ValidationError(
                    wrong_kind.format(relation=relation.name, value=v, kind=type(v).__name__)
                )
        if relation is Relation.INTERVAL:
            lo_v, hi_v = values
            lo_unit = (lo_v.unit or "").lower()
            hi_unit = (hi_v.unit or "").lower()
            if lo_unit != hi_unit:
                raise UnitMismatchError(
                    f"interval units differ: {lo_v.unit!r} vs {hi_v.unit!r}"
                )
            if lo_v.magnitude > hi_v.magnitude:
                raise IntervalOrderError(
                    f"interval [{format_number(lo_v.magnitude)}, "
                    f"{format_number(hi_v.magnitude)}] is out of order"
                )


@dataclass(frozen=True)
class Specification:
    rules: tuple
    connectives: tuple = field(default=())

    def __post_init__(self):
        rules, connectives = self.rules, self.connectives
        if type(rules) is not tuple:
            rules = tuple(rules)
            object.__setattr__(self, "rules", rules)
        if type(connectives) is not tuple:
            connectives = tuple(connectives)
            object.__setattr__(self, "connectives", connectives)
        if not rules:
            raise ValidationError("a specification needs at least one rule")
        if len(connectives) != len(rules) - 1:
            raise ValidationError(
                f"{len(rules)} rule(s) need {len(rules) - 1} connective(s), "
                f"got {len(connectives)}"
            )


def single(rule: Rule) -> Specification:
    """Wrap one rule into a specification."""
    return Specification((rule,))


# ---------------------------------------------------------------------------
# tokenizer

# Each match skips whitespace and reads one token into one of four groups:
# a word (a keyword, a reserved word or a unit), a number, any other token
# (punctuation, an operator, a quoted string, or "" where the text ends), or,
# from a character that starts no token, the rest of the text. No two kinds
# of token can start at the same character.
_TOKEN_RE = re.compile(
    rf"""\s*(?:({_KEYWORD})
      | (-?\d+(?:\.\d+)?)
      | ([()\[\]{{}},%] | == | != | > | < | "[^"\n]*" | \Z)
      | (.+))
    """,
    re.VERBOSE,
)


class _Unexpected(Exception):
    """The parser met token `i` where it expected one of `expected`."""


def _fail(i, expected: Iterable[str]):
    raise _Unexpected(i, expected)


# The parser walks the list of (word, number, other, rest) tuples that
# `_TOKEN_RE.findall` gives by index: each function takes the index of its
# first token and returns what it read with the index after it. The last
# tuple is the end of the text, and no tuple before it holds a rest.

_CONNECTIVES = {c.value: c for c in Connective}
_COMPARISONS = {r.value: r for r in (Relation.EQ, Relation.NEQ, Relation.GT, Relation.LT)}
_FUNCTIONAL = {
    "use": Relation.USE,
    "recommend": Relation.RECOMMEND,
    "with": Relation.WITH,
    "prefer": Relation.PREFER,
    "format": Relation.STRING_FORMAT,
}


def _keyword(tokens, i) -> str:
    word = tokens[i][0]
    if not word or word in _KEYWORD_FORBIDDEN:
        _fail(i, ["<keyword>"])
    return word


def _specification(tokens) -> Specification:
    rule, i = _rule(tokens, 0)
    rules = [rule]
    connectives = []
    word = tokens[i][0]
    while word == "and" or word == "or":
        connectives.append(_CONNECTIVES[word])
        rule, i = _rule(tokens, i + 1)
        rules.append(rule)
        word = tokens[i][0]
    if i != len(tokens) - 1:
        _fail(i, ["and", "or", "end of input"])
    return Specification(tuple(rules), tuple(connectives))


def _rule(tokens, i) -> tuple[Rule, int]:
    key = _keyword(tokens, i)
    word, _, other, _ = tokens[i + 1]
    if other == "(" and key in _FUNCTIONAL:
        return _functional_rule(tokens, i)
    if other in _COMPARISONS:
        value, i = _value(tokens, i + 2)
        return Rule(key, _COMPARISONS[other], (value,)), i
    if word == "in":
        return _interval_or_set(tokens, i + 2, key)
    _fail(i + 1, ["==", "!=", ">", "<", "in"])


def _functional_rule(tokens, i) -> tuple[Rule, int]:
    relation = _FUNCTIONAL[tokens[i][0]]
    key = _keyword(tokens, i + 2)
    if relation is Relation.USE or relation is Relation.RECOMMEND:
        if tokens[i + 3][2] != ")":
            _fail(i + 3, [")"])
        return Rule(key, relation, ()), i + 4
    if tokens[i + 3][2] != ",":
        _fail(i + 3, [","])
    if relation is Relation.STRING_FORMAT:
        other = tokens[i + 4][2]
        if other[:1] != '"':
            _fail(i + 4, ['"<format class>"'])
        payload = FormatClass(other[1:-1])
    else:
        payload = KeywordRef(_keyword(tokens, i + 4))
    if tokens[i + 5][2] != ")":
        _fail(i + 5, [")"])
    return Rule(key, relation, (payload,)), i + 6


def _interval_or_set(tokens, i, key: str) -> tuple[Rule, int]:
    other = tokens[i][2]
    if other == "[":
        lo, i = _number(tokens, i + 1)
        if tokens[i][2] != ",":
            _fail(i, [","])
        hi, i = _number(tokens, i + 1)
        if tokens[i][2] != "]":
            _fail(i, ["]"])
        return Rule(key, Relation.INTERVAL, (lo, hi)), i + 1
    if other == "{":
        value, i = _value(tokens, i + 1)
        members = [value]
        if tokens[i][2] != ",":
            _fail(i, [","])
        while tokens[i][2] == ",":
            value, i = _value(tokens, i + 1)
            members.append(value)
        if tokens[i][2] != "}":
            _fail(i, ["}"])
        return Rule(key, Relation.SET_MEMBERSHIP, tuple(members)), i + 1
    _fail(i, ["[", "{"])


def _value(tokens, i) -> tuple[Value, int]:
    word, number, other, _ = tokens[i]
    if number:
        return _number(tokens, i)
    if other[:1] == '"':
        return Text(other[1:-1]), i + 1
    if word == "true":
        return Boolean(True), i + 1
    if word == "false":
        return Boolean(False), i + 1
    if word and word not in _KEYWORD_FORBIDDEN:
        return KeywordRef(word), i + 1
    _fail(i, ["<number>", "<string>", "true", "false", "<keyword>"])


def _number(tokens, i) -> tuple[Number, int]:
    number = tokens[i][1]
    if not number:
        _fail(i, ["<number>"])
    word, _, other, _ = tokens[i + 1]
    if word and word not in _RESERVED:
        return Number(float(number), word), i + 2
    if other == "%":
        return Number(float(number), other), i + 2
    return Number(float(number)), i + 1


def parse_spec(text: str) -> Specification:
    """Parse one canonical-form specification line. A `DslSyntaxError`'s
    position indexes `text` as given, surrounding whitespace included."""
    line = text.strip()
    start = 0 if line is text else len(text) - len(text.lstrip())
    if "\n" in line:
        raise DslSyntaxError("a specification must be a single line", start + line.index("\n"))
    end = start + len(line)
    tokens = _TOKEN_RE.findall(text, start, end)
    rest = tokens[-2][3] if len(tokens) > 1 else ""
    if rest:
        raise DslSyntaxError(f"unexpected character {rest[0]!r}", end - len(rest))
    try:
        return _specification(tokens)
    except _Unexpected as exc:
        i, expected = exc.args
    # positions are only needed for an error, so only then are they found
    match = next(itertools.islice(_TOKEN_RE.finditer(text, start, end), i, None))
    found = "".join(tokens[i]) or "end of input"
    exp = " or ".join(sorted(expected))
    raise DslSyntaxError(f"expected {exp}, found {found!r}", match.start(match.lastindex))


# ---------------------------------------------------------------------------
# printing

def _print_value(value: Value) -> str:
    if isinstance(value, Number):
        text = format_number(value.magnitude)
        return f"{text} {value.unit}" if value.unit else text
    if isinstance(value, Boolean):
        return "true" if value.flag else "false"
    if isinstance(value, KeywordRef):
        return value.name
    if isinstance(value, FormatClass):
        return f'"{value.name}"'
    if isinstance(value, Text):
        return f'"{value.content}"'
    raise TypeError(f"not a value: {value!r}")


def print_rule(rule: Rule) -> str:
    """Canonical form of one rule, as `print_spec` prints it."""
    r = rule.relation
    if r in (Relation.EQ, Relation.NEQ, Relation.GT, Relation.LT):
        return f"{rule.keyword} {r.value} {_print_value(rule.values[0])}"
    if r is Relation.INTERVAL:
        lo, hi = rule.values
        return f"{rule.keyword} in [{_print_value(lo)}, {_print_value(hi)}]"
    if r is Relation.SET_MEMBERSHIP:
        inner = ", ".join(_print_value(v) for v in rule.values)
        return f"{rule.keyword} in {{{inner}}}"
    if r in (Relation.USE, Relation.RECOMMEND):
        return f"{r.value}({rule.keyword})"
    if r in (Relation.WITH, Relation.PREFER):
        return f"{r.value}({rule.keyword}, {rule.values[0].name})"
    if r is Relation.STRING_FORMAT:
        return f'format({rule.keyword}, "{rule.values[0].name}")'
    raise ValidationError(f"relation {r.name} has no canonical form")


def print_spec(spec: Specification) -> str:
    """Render the single canonical form; inverse of :func:`parse_spec`."""
    parts = [print_rule(spec.rules[0])]
    for connective, rule in zip(spec.connectives, spec.rules[1:]):
        parts.append(connective.value)
        parts.append(print_rule(rule))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# categorization

_CATEGORY_BY_RELATION = {
    Relation.EQ: Category.QUANTITATIVE,
    Relation.NEQ: Category.QUANTITATIVE,
    Relation.GT: Category.QUANTITATIVE,
    Relation.LT: Category.QUANTITATIVE,
    Relation.INTERVAL: Category.QUANTITATIVE,
    Relation.SET_MEMBERSHIP: Category.QUANTITATIVE,
    Relation.USE: Category.UTILIZATION,
    Relation.WITH: Category.INTERRELATION,
    Relation.PREFER: Category.INTERRELATION,
    Relation.STRING_FORMAT: Category.ATTRIBUTE,
    Relation.RECOMMEND: Category.GENERIC,
}


def infer_category(spec: Specification) -> Category:
    """Structural category of a specification; the first rule decides."""
    return _CATEGORY_BY_RELATION[spec.rules[0].relation]


# ---------------------------------------------------------------------------
# spec files: one specification per line, '#' comments, blanks ignored

def load_spec_file(path) -> list[Specification]:
    specs = []
    for lineno, line in content_lines(path):
        try:
            specs.append(parse_spec(line))
        except DslError as exc:
            raise InputError(path, lineno, exc) from exc
    return specs


def save_spec_file(path, specs: Iterable[Specification]) -> None:
    write_output(path, "".join(print_spec(spec) + "\n" for spec in specs))

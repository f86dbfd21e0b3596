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
import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Union

from .files import InputError, content_lines


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
        if m != m or m in (float("inf"), float("-inf")):
            raise ValidationError("number magnitude must be finite")
        object.__setattr__(self, "magnitude", m)
        if "e" in format_number(m):
            raise ValidationError(f"magnitude {m!r} has no canonical decimal form")
        if self.unit is not None and not UNIT_RE.fullmatch(self.unit):
            raise ValidationError(f"unit {self.unit!r} is not a valid unit token")
        if self.unit in _RESERVED:
            raise ValidationError(f"unit {self.unit!r} collides with a reserved word")


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

# relation -> (min values, max values); None max = unbounded
_ARITY = {
    Relation.EQ: (1, 1),
    Relation.NEQ: (1, 1),
    Relation.GT: (1, 1),
    Relation.LT: (1, 1),
    Relation.INTERVAL: (2, 2),
    Relation.SET_MEMBERSHIP: (2, None),
    Relation.USE: (0, 0),
    Relation.RECOMMEND: (0, 0),
    Relation.WITH: (1, 1),
    Relation.PREFER: (1, 1),
    Relation.STRING_FORMAT: (1, 1),
}

_GENERAL_VALUE_KINDS = (Number, Boolean, KeywordRef, Text)


def _check_value_kinds(relation: Relation, values: tuple) -> None:
    if relation in (Relation.GT, Relation.LT, Relation.INTERVAL):
        for v in values:
            if not isinstance(v, Number):
                raise ValidationError(f"{relation.name} requires numeric values, got {v!r}")
    elif relation in (Relation.WITH, Relation.PREFER):
        if not isinstance(values[0], KeywordRef):
            raise ValidationError(f"{relation.name} requires a keyword-valued payload")
    elif relation is Relation.STRING_FORMAT:
        if not isinstance(values[0], FormatClass):
            raise ValidationError("STRING_FORMAT requires a format-class payload")
    else:
        for v in values:
            if not isinstance(v, _GENERAL_VALUE_KINDS):
                raise ValidationError(f"{relation.name} does not accept {type(v).__name__} values")


@dataclass(frozen=True)
class Rule:
    keyword: str
    relation: Relation
    values: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        _check_keyword_token(self.keyword, "rule keyword")
        lo, hi = _ARITY[self.relation]
        n = len(self.values)
        if n < lo or (hi is not None and n > hi):
            want = str(lo) if lo == hi else (f">= {lo}" if hi is None else f"{lo}..{hi}")
            raise ArityError(f"{self.relation.name} takes {want} value(s), got {n}")
        _check_value_kinds(self.relation, self.values)
        if self.relation is Relation.INTERVAL:
            lo_v, hi_v = self.values
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
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "connectives", tuple(self.connectives))
        if not self.rules:
            raise ValidationError("a specification needs at least one rule")
        if len(self.connectives) != len(self.rules) - 1:
            raise ValidationError(
                f"{len(self.rules)} rule(s) need {len(self.rules) - 1} connective(s), "
                f"got {len(self.connectives)}"
            )


def single(rule: Rule) -> Specification:
    """Wrap one rule into a specification."""
    return Specification((rule,))


# ---------------------------------------------------------------------------
# tokenizer

# each match skips whitespace and reads one token; the text ends in "eof", and
# a character that starts no token is "bad"
_TOKEN_RE = re.compile(
    rf"""\s*(?:(?P<number>-?\d+(?:\.\d+)?)
      | (?P<ident>{_KEYWORD})
      | (?P<string>"[^"\n]*")
      | (?P<op>==|!=|>|<)
      | (?P<punct>[()\[\]{{}},%])
      | (?P<eof>\Z)
      | (?P<bad>.))
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # number | ident | string | op | punct | eof
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = [_Token(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in _TOKEN_RE.finditer(text)]
    for token in tokens:
        if token.kind == "bad":
            raise DslSyntaxError(f"unexpected character {token.text!r}", token.pos)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: Iterable[str]):
        tok = self.peek()
        found = tok.text or "end of input"
        exp = " or ".join(sorted(expected))
        raise DslSyntaxError(f"expected {exp}, found {found!r}", tok.pos)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.fail([text if text is not None else f"<{kind}>"])
        return self.next()

    # grammar ---------------------------------------------------------

    def specification(self) -> Specification:
        rules = [self.rule()]
        connectives = []
        while self.peek().kind == "ident" and self.peek().text in ("and", "or"):
            connectives.append(Connective(self.next().text))
            rules.append(self.rule())
        if self.peek().kind != "eof":
            self.fail(["and", "or", "end of input"])
        return Specification(tuple(rules), tuple(connectives))

    def rule(self) -> Rule:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORD_FORBIDDEN:
            self.fail(["<keyword>"])
        if tok.text in ("use", "recommend", "with", "prefer", "format"):
            after = self.tokens[self.i + 1]
            if after.kind == "punct" and after.text == "(":
                return self.functional_rule()
        return self.comparison_rule()

    def functional_rule(self) -> Rule:
        name = self.next().text
        self.expect("punct", "(")
        key = self.keyword_token()
        if name in ("use", "recommend"):
            self.expect("punct", ")")
            relation = Relation.USE if name == "use" else Relation.RECOMMEND
            return Rule(key, relation, ())
        self.expect("punct", ",")
        if name == "format":
            tok = self.peek()
            if tok.kind != "string":
                self.fail(['"<format class>"'])
            payload = FormatClass(self.next().text[1:-1])
            self.expect("punct", ")")
            return Rule(key, Relation.STRING_FORMAT, (payload,))
        other = self.keyword_token()
        self.expect("punct", ")")
        relation = Relation.WITH if name == "with" else Relation.PREFER
        return Rule(key, relation, (KeywordRef(other),))

    def comparison_rule(self) -> Rule:
        key = self.keyword_token()
        tok = self.peek()
        if tok.kind == "op":
            op = self.next().text
            value = self.value()
            return Rule(key, Relation(op), (value,))
        if tok.kind == "ident" and tok.text == "in":
            self.next()
            return self.interval_or_set(key)
        self.fail(["==", "!=", ">", "<", "in"])

    def interval_or_set(self, key: str) -> Rule:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "[":
            self.next()
            lo = self.number_value()
            self.expect("punct", ",")
            hi = self.number_value()
            self.expect("punct", "]")
            return Rule(key, Relation.INTERVAL, (lo, hi))
        if tok.kind == "punct" and tok.text == "{":
            self.next()
            members = [self.value()]
            self.expect("punct", ",")
            members.append(self.value())
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.next()
                members.append(self.value())
            self.expect("punct", "}")
            return Rule(key, Relation.SET_MEMBERSHIP, tuple(members))
        self.fail(["[", "{"])

    def keyword_token(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORD_FORBIDDEN:
            self.fail(["<keyword>"])
        return self.next().text

    def value(self) -> Value:
        tok = self.peek()
        if tok.kind == "number":
            return self.number_value()
        if tok.kind == "string":
            return Text(self.next().text[1:-1])
        if tok.kind == "ident":
            if tok.text == "true":
                self.next()
                return Boolean(True)
            if tok.text == "false":
                self.next()
                return Boolean(False)
            if tok.text not in _KEYWORD_FORBIDDEN:
                return KeywordRef(self.next().text)
        self.fail(["<number>", "<string>", "true", "false", "<keyword>"])

    def number_value(self) -> Number:
        tok = self.peek()
        if tok.kind != "number":
            self.fail(["<number>"])
        magnitude = float(self.next().text)
        unit = None
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.text not in _RESERVED:
            unit = self.next().text
        elif nxt.kind == "punct" and nxt.text == "%":
            unit = self.next().text
        return Number(magnitude, unit)


def parse_spec(text: str) -> Specification:
    """Parse one canonical-form specification line."""
    if "\n" in text.strip():
        raise DslSyntaxError("a specification must be a single line", text.index("\n"))
    return _Parser(text.strip()).specification()


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


def _print_rule(rule: Rule) -> str:
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
    parts = [_print_rule(spec.rules[0])]
    for connective, rule in zip(spec.connectives, spec.rules[1:]):
        parts.append(connective.value)
        parts.append(_print_rule(rule))
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
    with open(path, "w", encoding="utf-8") as fh:
        for spec in specs:
            fh.write(print_spec(spec) + "\n")

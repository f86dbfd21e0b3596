"""The spec-line parser and the config reader that `specsyn.dsl.parse_spec`
and `specsyn.conformance.parse_config` replaced, kept as the references
they are compared against.

The parser tokenizes the stripped line into `_Token` tuples, scans them
again for a bad character, and walks them with a method call per token.
It builds its rules through the public, validating constructors of
`specsyn.dsl`. The config reader files every key under the last good header,
even after a bad one, and indexes keys with the `ConfigMap.put` it had.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from specsyn import conformance
from specsyn.conformance import ConfigEntry, ConfigFormat, MalformedLine
from specsyn.dsl import (
    _KEYWORD,
    _KEYWORD_FORBIDDEN,
    _RESERVED,
    KEYWORD_RE,
    Boolean,
    Connective,
    DslSyntaxError,
    FormatClass,
    KeywordRef,
    Number,
    Relation,
    Rule,
    Specification,
    Text,
    Value,
)

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


class ConfigMap(conformance.ConfigMap):
    """`conformance.ConfigMap` with the `put` it had, so that `lookup` reads
    the index that `put` built."""

    def put(self, key: str, value: str, line: int) -> None:
        entry = self.entries.get(key)
        if entry is not None:
            entry.earlier_lines += (entry.line,)
            entry.value, entry.line = value, line
            return
        entry = self.entries[key] = ConfigEntry(key, value, line)
        lowered = key.lower()
        normal = lowered.lstrip("-")
        if normal != key:
            self._folded.setdefault(normal, []).append(entry)
        dot = lowered.find(".")
        while dot != -1:
            suffix = lowered[dot + 1:]
            # one entry is stored bare: most names belong to a single key
            known = self._suffix.setdefault(suffix, entry)
            if known is not entry:
                if type(known) is ConfigEntry:
                    self._suffix[suffix] = [known, entry]
                else:
                    known.append(entry)
            dot = lowered.find(".", dot + 1)


def parse_config(text: str, format: ConfigFormat = ConfigFormat.KEY_VALUE) -> ConfigMap:
    """Parse `key = value` / `key value` lines; INI adds `[section]`
    headers whose keys flatten to `section.key`. `#` and `;` start
    comments; malformed lines are collected, not fatal. Lines end at
    `\\n` alone, the form `files.read_text` gives every line end in."""
    config = ConfigMap()
    section = None
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if format is ConfigFormat.INI and line.startswith("["):
            name = line[1:-1].strip() if line.endswith("]") else ""
            if name:
                section = name
            else:
                config.malformed.append(
                    MalformedLine(number, raw, "bad section header")
                )
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
        else:
            parts = line.split(None, 1)
            key = parts[0]
            value = parts[1].strip() if len(parts) > 1 else ""
        if not KEYWORD_RE.fullmatch(key):
            config.malformed.append(MalformedLine(number, raw, "bad key"))
            continue
        full = f"{section}.{key}" if section else key
        config.put(full, value, number)
    return config

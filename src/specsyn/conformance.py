"""Checking configuration files against synthesized specifications.

A config file is parsed into an ordered key -> value map, then every
specification is evaluated against it. Quantitative rules coerce the
observed string with the same number and boolean conventions the tagger
uses on text, so specs mined from prose apply to files directly.
Magnitudes are compared as written; units are never converted, and a
value whose unit differs from the rule's is reported, not compared.

Connectives compose left to right: an AND node is violated when either
side is, an OR node only when both sides are. Advisory rules (use,
recommend, prefer) and unit mismatches report findings but never make a
spec "violated".
"""

from __future__ import annotations

import enum
import ipaddress
import re
from dataclasses import dataclass, field
from operator import attrgetter
from urllib.parse import urlparse

from .corpus import fold_ascii
from .dsl import (
    KEYWORD_RE,
    UNIT_RE,
    Boolean,
    Connective,
    KeywordRef,
    Number,
    Relation,
    Rule,
    Specification,
    Text,
    print_rule,
)
from .tagger import NUMBER_RE, Lexicons, bool_polarity, load_lexicons


_UNIT_TAIL_RE = re.compile(rf"\s*({UNIT_RE.pattern})?\s*$")


class ConfigFormat(enum.Enum):
    KEY_VALUE = "kv"
    INI = "ini"


@dataclass(frozen=True)
class MalformedLine:
    line: int
    text: str
    reason: str


@dataclass(slots=True)
class ConfigEntry:
    key: str
    value: str
    line: int
    earlier_lines: tuple[int, ...] = ()


_LINE = attrgetter("line")


@dataclass
class ConfigMap:
    """Parsed configuration: unique keys, later duplicates override.

    `put` indexes each new key once, so `lookup` costs a few dict probes
    instead of a scan of the file: a key already in normal form (lower
    case, no leading `-`) is found through `entries` itself, any other
    key through `_folded`, and every key through each of its dotted
    suffixes in `_suffix`. A name that several keys share maps to the
    list of their entries, in file order.
    """

    entries: dict[str, ConfigEntry] = field(default_factory=dict)
    malformed: list[MalformedLine] = field(default_factory=list)
    _folded: dict[str, list[ConfigEntry]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _suffix: dict[str, ConfigEntry | list[ConfigEntry]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def put(self, key: str, value: str, line: int) -> None:
        entry = ConfigEntry(key, value, line)
        known = self.entries.setdefault(key, entry)
        if known is not entry:
            known.earlier_lines += (known.line,)
            known.value, known.line = value, line
            return
        lowered = key.lower()
        normal = lowered.lstrip("-")
        if normal != key:
            self._folded.setdefault(normal, []).append(entry)
        suffixes = self._suffix
        dot = lowered.find(".")
        while dot != -1:
            suffix = lowered[dot + 1:]
            # one entry is stored bare: most names belong to a single key
            known = suffixes.setdefault(suffix, entry)
            if known is not entry:
                if type(known) is ConfigEntry:
                    suffixes[suffix] = [known, entry]
                else:
                    known.append(entry)
            dot = lowered.find(".", dot + 1)

    def lookup(self, keyword: str) -> list[ConfigEntry]:
        """Every entry a rule keyword names, in line order; empty if none.

        Exact matches win: case-insensitive, with a leading option prefix
        `--` ignored on both sides. Otherwise every key ending in
        `.keyword` matches, so `max_rows` finds `mysqld.max_rows` and
        `client.max_rows` alike.
        """
        wanted = keyword.lower().lstrip("-")
        exact = self.entries.get(wanted)
        folded = self._folded.get(wanted)
        if folded is not None:
            return sorted(folded if exact is None else [exact, *folded], key=_LINE)
        if exact is not None:
            return [exact]
        found = self._suffix.get(wanted)
        if found is None:
            return []
        return [found] if type(found) is ConfigEntry else sorted(found, key=_LINE)


def _section_name(line: str) -> str:
    """The name in a `[name]` header line, with no `]` inside the name,
    which may end in a `#` or `;` comment; empty when the header is
    malformed."""
    close = line.find("]")
    if close < 0 or line[close + 1:].lstrip()[:1] not in ("", "#", ";"):
        return ""
    return line[1:close].strip()


def parse_config(text: str, format: ConfigFormat = ConfigFormat.KEY_VALUE) -> ConfigMap:
    """Parse `key = value` / `key value` lines; INI adds `[section]`
    headers whose keys flatten to `section.key`. `#` and `;` start
    comments; malformed lines are collected, not fatal, and so is every
    key under a malformed header, up to the next good one. Lines end at
    `\\n` alone, the form `files.read_text` gives every line end in."""
    config = ConfigMap()
    put = config.put
    malformed = config.malformed.append
    is_key = KEYWORD_RE.fullmatch
    ini = format is ConfigFormat.INI
    prefix = ""  # "section." under a good header
    bad_header = False
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if ini and line[0] == "[":
            name = _section_name(line)
            bad_header = not name
            if bad_header:
                malformed(MalformedLine(number, raw, "bad section header"))
            else:
                prefix = name + "."
            continue
        key, eq, value = line.partition("=")
        if eq:
            key, value = key.strip(), value.strip()
        else:
            parts = line.split(None, 1)
            key = parts[0]
            value = parts[1].strip() if len(parts) > 1 else ""
        if not is_key(key):
            malformed(MalformedLine(number, raw, "bad key"))
        elif bad_header:
            malformed(MalformedLine(number, raw, "key under a bad section header"))
        else:
            put(prefix + key, value, number)
    return config


# ---------------------------------------------------------------------------
# value coercion

def read_number(raw: str) -> tuple[float, str | None] | None:
    """(magnitude, unit) of the observed string, or None.

    Thousands separators are stripped, and the unit is the trailing unit
    token or None ("512 MB" -> (512.0, "MB")).
    """
    text = raw.strip()
    m = NUMBER_RE.match(text)
    tail = None if m is None else _UNIT_TAIL_RE.fullmatch(text, m.end())
    if tail is None:
        return None
    return float(m.group().replace(",", "")), tail.group(1)


def coerce_bool(raw: str, lexicons: Lexicons) -> bool | None:
    """The polarity of a lexicon bool surface, or None for any other value."""
    surface = fold_ascii(raw.strip())
    if surface not in lexicons.bool_surfaces:
        return None
    return bool_polarity(surface)


def _matches(observed: str, number, value, lexicons: Lexicons) -> bool | None:
    """Equality of an observed string, whose `read_number` is `number`,
    against one rule value.

    None means the observed string cannot be read as the value's type.
    """
    if isinstance(value, Number):
        return None if number is None else number[0] == value.magnitude
    if isinstance(value, Boolean):
        b = coerce_bool(observed, lexicons)
        return None if b is None else b == value.flag
    if isinstance(value, KeywordRef):
        return fold_ascii(observed.strip()) == fold_ascii(value.name)
    if isinstance(value, Text):
        return observed.strip() == value.content
    raise TypeError(f"unsupported rule value {value!r}")


# ---------------------------------------------------------------------------
# format checkers

def _check_absolute_path(value: str) -> bool:
    return value.startswith("/")


def _check_relative_path(value: str) -> bool:
    return bool(value) and not value.startswith("/") and not re.search(r"\s", value)


def _check_email(value: str) -> bool:
    head, sep, tail = value.partition("@")
    return bool(sep) and bool(head) and bool(tail) and "@" not in tail


_DOMAIN_RE = re.compile(
    r"(?!-)[A-Za-z0-9-]{1,63}(?<!-)(?:\.(?!-)[A-Za-z0-9-]{1,63}(?<!-))*"
)


def _check_domain(value: str) -> bool:
    return bool(_DOMAIN_RE.fullmatch(value))


def _check_url(value: str) -> bool:
    parsed = urlparse(value)
    return bool(parsed.scheme) and bool(parsed.netloc)


def _check_ip(value: str) -> bool:
    try:
        ipaddress.ip_address(value)
    except ValueError:
        return False
    return True


_FORMAT_CHECKERS = {
    "absolute path": _check_absolute_path,
    "relative path": _check_relative_path,
    "email address": _check_email,
    "domain name": _check_domain,
    "url": _check_url,
    "ip address": _check_ip,
}


# ---------------------------------------------------------------------------
# rule evaluation

class Verdict(enum.Enum):
    VALUE_OUT_OF_RANGE = "ValueOutOfRange"
    WRONG_TYPE = "WrongType"
    MISSING_KEY = "MissingKey"
    FORMAT_MISMATCH = "FormatMismatch"
    ADVISORY_ONLY = "AdvisoryOnly"
    UNIT_MISMATCH = "UnitMismatch"


# findings that are reported but never make a specification violated
_SOFT = frozenset({Verdict.ADVISORY_ONLY, Verdict.UNIT_MISMATCH})


@dataclass(frozen=True)
class Violation:
    rule: Rule
    key: str
    observed: str | None
    line: int | None
    verdict: Verdict

    @property
    def hard(self) -> bool:
        return self.verdict not in _SOFT

    def to_dict(self) -> dict:
        return {
            "rule": print_rule(self.rule),
            "key": self.key,
            "observed": self.observed,
            "line": self.line,
            "verdict": self.verdict.value,
        }


def _units_clash(rule: Rule, unit: str | None) -> bool:
    """The observed unit is none of the rule's, and both sides name one.

    A rule names a unit only when each of its numbers does; a rule or a
    value without a unit compares magnitudes alone.
    """
    if unit is None:
        return False
    units = {v.unit and v.unit.lower() for v in rule.values if isinstance(v, Number)}
    return bool(units) and None not in units and unit.lower() not in units


def _quantitative(rule: Rule, entry, lexicons) -> Violation | None:
    observed = entry.value
    rel = rule.relation

    def bad(verdict):
        return Violation(rule, entry.key, observed, entry.line, verdict)

    number = read_number(observed)
    if number is not None and _units_clash(rule, number[1]):
        return bad(Verdict.UNIT_MISMATCH)

    if rel in (Relation.GT, Relation.LT, Relation.INTERVAL):
        if number is None:
            return bad(Verdict.WRONG_TYPE)
        x = number[0]
        if rel is Relation.GT:
            ok = x > rule.values[0].magnitude
        elif rel is Relation.LT:
            ok = x < rule.values[0].magnitude
        else:
            lo, hi = rule.values
            ok = lo.magnitude <= x <= hi.magnitude
        return None if ok else bad(Verdict.VALUE_OUT_OF_RANGE)

    results = [_matches(observed, number, value, lexicons) for value in rule.values]
    if rel is Relation.EQ:
        ok = results[0]
    elif rel is Relation.NEQ:
        ok = None if results[0] is None else not results[0]
    else:  # SET_MEMBERSHIP: any alternative satisfied
        if any(r is True for r in results):
            ok = True
        elif all(r is None for r in results):
            ok = None
        else:
            ok = False
    if ok is None:
        return bad(Verdict.WRONG_TYPE)
    return None if ok else bad(Verdict.VALUE_OUT_OF_RANGE)


def evaluate_rule(rule: Rule, config: ConfigMap, lexicons: Lexicons) -> list[Violation]:
    """Every finding of one rule, in line order; empty when it holds.

    A keyword that names several entries (the same key in several INI
    sections) is checked at each of them, so no verdict depends on the
    order of the sections.
    """
    entries = config.lookup(rule.keyword)
    rel = rule.relation

    if rel in (Relation.USE, Relation.RECOMMEND):
        return [] if entries else [Violation(rule, rule.keyword, None, None, Verdict.ADVISORY_ONLY)]
    if rel is Relation.WITH:
        partner = rule.values[0].name
        if entries and not config.lookup(partner):
            return [Violation(rule, partner, None, None, Verdict.MISSING_KEY)]
        return []
    if rel is Relation.PREFER:
        # the disfavored alternative is set while the preferred key is not
        others = [] if entries else config.lookup(rule.values[0].name)
        return [
            Violation(rule, rule.keyword, other.value, other.line, Verdict.ADVISORY_ONLY)
            for other in others
        ]
    if rel is Relation.STRING_FORMAT:
        checker = _FORMAT_CHECKERS.get(rule.values[0].name.strip().lower())
        if checker is None:
            return []
        return [
            Violation(rule, entry.key, entry.value, entry.line, Verdict.FORMAT_MISMATCH)
            for entry in entries
            if not checker(entry.value)
        ]

    if not entries:
        return [Violation(rule, rule.keyword, None, None, Verdict.MISSING_KEY)]
    findings = (_quantitative(rule, entry, lexicons) for entry in entries)
    return [finding for finding in findings if finding is not None]


def check_spec(
    spec: Specification, config: ConfigMap, lexicons: Lexicons | None = None
) -> tuple[bool, list[Violation]]:
    """Evaluate one specification: (violated, findings).

    Hard findings fold through the connectives (AND keeps either side's,
    OR keeps them only when both sides are violated); advisory and unit
    mismatch findings are always reported and never affect the violated
    flag.
    """
    if lexicons is None:
        lexicons = load_lexicons()
    soft: list[Violation] = []

    def hard_findings(rule: Rule) -> list[Violation]:
        hard = []
        for finding in evaluate_rule(rule, config, lexicons):
            (hard if finding.hard else soft).append(finding)
        return hard

    # a node is violated exactly when it keeps a hard finding
    findings = hard_findings(spec.rules[0])
    for connective, rule in zip(spec.connectives, spec.rules[1:]):
        more = hard_findings(rule)
        if connective is Connective.AND:
            findings = findings + more
        else:
            findings = findings + more if findings and more else []
    return bool(findings), findings + soft


def check(
    config: ConfigMap, specs, lexicons: Lexicons | None = None
) -> list[Violation]:
    """All findings for a list of specifications, in spec order."""
    if lexicons is None:
        lexicons = load_lexicons()
    out: list[Violation] = []
    for spec in specs:
        _, findings = check_spec(spec, config, lexicons)
        out.extend(findings)
    return out


def has_hard_violations(violations) -> bool:
    return any(v.hard for v in violations)


def render_violations(violations) -> str:
    """Human-readable table, one finding per line; each column is as wide
    as its widest cell plus a gap."""
    if not violations:
        return "no violations"
    rows = [("verdict", "key", "observed", "line")]
    rows += [
        (
            v.verdict.value,
            v.key,
            "-" if v.observed is None else v.observed,
            "-" if v.line is None else str(v.line),
        )
        for v in violations
    ]
    w1, w2, w3 = (max(map(len, column)) + 2 for column in list(zip(*rows))[:3])
    return "\n".join([f"  {a.ljust(w1)}{b.ljust(w2)}{c.ljust(w3)}{d}" for a, b, c, d in rows])

"""Pattern tagging: concrete literals in candidate text become abstract tags.

Tagging turns a candidate sentence into the tuple ⟨C, T⟩ where C is the
lowercased text with literals replaced by tag tokens (``<num1>``,
``<keyword1>``, ...) and T maps each tag id back to the surface string it
replaced.  ``detag`` is the inverse direction: it substitutes surfaces into a
generated token sequence and parses the result into a ``dsl.Specification``.
"""

from __future__ import annotations

import enum
import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import dsl
from .corpus import KeywordSet, _keyword_pattern
from .files import content_lines


class TagError(ValueError):
    pass


class UnknownTagError(TagError):
    """A generated tag token has no entry in the tag map."""


class NonParsingOutput(TagError):
    """Reconstructed text is not a valid specification."""


class TagClass(enum.Enum):
    # declaration order fixes the model's reserved tag-token ids
    KEYWORD = "keyword"
    NUM = "num"
    BOOL = "bool"
    UNIT = "unit"
    FORMAT = "format"


# tie-break when two matches have equal length
_PRIORITY = {
    TagClass.KEYWORD: 4,
    TagClass.FORMAT: 3,
    TagClass.BOOL: 2,
    TagClass.UNIT: 1,
    TagClass.NUM: 0,
}

# A tag id is a class name and a slot number ("num1"); its token is the id in
# angle brackets ("<num1>"). The model's tokenizer splits on TAG_TOKEN_RE.
TAG_ID_RE = re.compile(rf"({'|'.join(cls.value for cls in TagClass)})(\d+)")
TAG_TOKEN_RE = re.compile(rf"<{TAG_ID_RE.pattern}>")

# integers and decimals, optional sign and thousands separators; the config
# checker reads observed values with the same grammar
NUMBER_RE = re.compile(r"-?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?")

_WORD = set("abcdefghijklmnopqrstuvwxyz0123456789_")


@dataclass(frozen=True)
class Lexicons:
    bool_surfaces: tuple
    unit_surfaces: tuple
    format_surfaces: tuple

    def surfaces(self, cls: TagClass) -> tuple:
        return {
            TagClass.BOOL: self.bool_surfaces,
            TagClass.UNIT: self.unit_surfaces,
            TagClass.FORMAT: self.format_surfaces,
        }[cls]


def _read_lexicon(path: Path) -> tuple:
    return tuple(dict.fromkeys(line.lower() for _, line in content_lines(path)))


def load_lexicons() -> Lexicons:
    """Load tag lexicons from the SPECSYN_LEXICON_DIR directory, else the
    packaged defaults."""
    default = resources.files("specsyn").joinpath("data")
    directory = Path(os.environ.get("SPECSYN_LEXICON_DIR", str(default)))
    return Lexicons(
        bool_surfaces=_read_lexicon(directory / "bool.lex"),
        unit_surfaces=_read_lexicon(directory / "unit.lex"),
        format_surfaces=_read_lexicon(directory / "format.lex"),
    )


@dataclass(frozen=True, eq=True)
class TaggedCandidate:
    text: str  # C: lowercased, literals replaced by tag tokens
    tags: dict  # T: tag id -> surface, in order of first occurrence


def _boundary_ok(text: str, start: int, end: int, surface: str) -> bool:
    """Word-boundary guard applied only at alphanumeric lexeme edges."""
    if surface[0] in _WORD and start > 0 and text[start - 1] in _WORD:
        return False
    if surface[-1] in _WORD and end < len(text) and text[end] in _WORD:
        return False
    return True


def _number_guard_ok(text: str, start: int, end: int) -> bool:
    # never split a dotted version like 11.7.8 into separate numbers
    if start > 0 and (text[start - 1] in _WORD or
                      (text[start - 1] == "." and start > 1 and text[start - 2].isdigit())):
        return False
    if end < len(text) and (text[end] in _WORD or
                            (text[end] == "." and end + 1 < len(text) and text[end + 1].isdigit())):
        return False
    return True


def _match_number(text: str, i: int):
    m = NUMBER_RE.match(text, i)
    if m is None:
        return None
    lexeme = m.group()
    if _number_guard_ok(text, i, i + len(lexeme)):
        return lexeme
    # retry without the fractional part (guards against version strings)
    integral = lexeme.split(".")[0]
    if integral != lexeme and _number_guard_ok(text, i, i + len(integral)):
        return integral
    return None


class _Matcher:
    def __init__(self, keywords, lexicons: Lexicons):
        if isinstance(keywords, KeywordSet):
            keywords = keywords.keywords
        self.keyword_pattern = _keyword_pattern(tuple(keywords)) if keywords else None
        self.lexicons = lexicons
        self._sorted = {
            cls: sorted(lexicons.surfaces(cls), key=len, reverse=True)
            for cls in (TagClass.FORMAT, TagClass.BOOL, TagClass.UNIT)
        }

    def best_at(self, text: str, i: int):
        """Longest match at position i; ties break on class priority."""
        candidates = []
        if self.keyword_pattern is not None:
            m = self.keyword_pattern.match(text, i)
            if m:
                candidates.append((TagClass.KEYWORD, m.group()))
        for cls, surfaces in self._sorted.items():
            for surface in surfaces:
                if text.startswith(surface, i) and _boundary_ok(
                    text, i, i + len(surface), surface
                ):
                    candidates.append((cls, surface))
                    break  # surfaces sorted longest first
        lexeme = _match_number(text, i)
        if lexeme is not None:
            candidates.append((TagClass.NUM, lexeme))
        if not candidates:
            return None
        return max(candidates, key=lambda c: (len(c[1]), _PRIORITY[c[0]]))


def tag_text(text: str, keywords, lexicons: Lexicons | None = None) -> TaggedCandidate:
    """Replace literal patterns in (lowercased) text with numbered tags."""
    if lexicons is None:
        lexicons = load_lexicons()
    matcher = _Matcher(keywords, lexicons)
    low = text.lower()
    ids: dict = {}  # (class, surface) -> tag id
    counters = {cls: 0 for cls in TagClass}
    tags: dict = {}
    out = []
    i = 0
    while i < len(low):
        found = matcher.best_at(low, i)
        if found is None:
            out.append(low[i])
            i += 1
            continue
        cls, surface = found
        key = (cls, surface)
        if key not in ids:
            counters[cls] += 1
            tag_id = f"{cls.value}{counters[cls]}"
            ids[key] = tag_id
            tags[tag_id] = surface
        out.append(f"<{ids[key]}>")
        i += len(surface)
    return TaggedCandidate("".join(out), tags)


def tag_class_of(tag_id: str) -> TagClass:
    m = TAG_ID_RE.fullmatch(tag_id)
    if m is None:
        raise TagError(f"not a tag id: {tag_id!r}")
    return TagClass(m.group(1))


def bool_polarity(surface: str) -> bool:
    s = surface.lower()
    return not (s in ("false", "off", "no", "0") or s.startswith("disab"))


def spec_token(cls: TagClass, surface: str) -> str:
    """Rule-language token for a tagged surface string."""
    if cls is TagClass.NUM:
        return surface.replace(",", "")
    if cls is TagClass.BOOL:
        return "true" if bool_polarity(surface) else "false"
    if cls is TagClass.FORMAT:
        return f'"{surface}"'
    return surface


_SUPPRESS_SPACE_BEFORE = {")", ",", "]", "}", "("}
_SUPPRESS_SPACE_AFTER = {"(", "[", "{"}


def render_tokens(tokens) -> str:
    """Join rule-language tokens with canonical spacing."""
    parts = []
    previous = None
    for token in tokens:
        if parts and token not in _SUPPRESS_SPACE_BEFORE and previous not in _SUPPRESS_SPACE_AFTER:
            parts.append(" ")
        parts.append(token)
        previous = token
    return "".join(parts)


def detag(tokens, tags: dict) -> dsl.Specification:
    """Substitute tag surfaces into generated tokens and parse the result:
    the `dsl.Specification` the tokens spell. Callers keep it as one and
    print it only where text is due (a spec file, a report, a message).

    Raises UnknownTagError for tags missing from the map and NonParsingOutput
    when the reconstruction is not a valid specification.
    """
    substituted = []
    for token in tokens:
        if TAG_TOKEN_RE.fullmatch(token):
            tag_id = token[1:-1]
            if tag_id not in tags:
                raise UnknownTagError(f"tag {token} has no surface in the tag map")
            substituted.append(spec_token(tag_class_of(tag_id), tags[tag_id]))
        else:
            substituted.append(token)
    text = render_tokens(substituted)
    try:
        return dsl.parse_spec(text)
    except dsl.DslError as exc:
        raise NonParsingOutput(f"{text!r}: {exc}") from exc

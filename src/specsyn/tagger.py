"""Pattern tagging: concrete literals in candidate text become abstract tags.

Tagging turns a candidate sentence into the tuple ⟨C, T⟩ where C is the
ASCII-lowercased text with literals replaced by tag tokens (``<num1>``,
``<keyword1>``, ...) and T maps each tag id back to the surface string it
replaced.  ``detag`` is the inverse direction: it substitutes surfaces into a
generated token sequence and parses the result into a ``dsl.Specification``.

Literals are found by lookup, not by pattern search: the lowercased text is
split into words and single symbols (``corpus.TOKEN_RE``), and only a token
that a keyword or lexicon surface starts with, a "-" or a token that starts
with a decimal digit is looked at. Keywords come from ``KeywordSet.match``,
the matcher ``KeywordSet.find`` uses, and lexicon surfaces from a table keyed
by first token that is built once per keyword set and lexicons.
"""

from __future__ import annotations

import enum
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from . import dsl
from .corpus import TOKEN_RE, WORD_CHARS, KeywordSet, fold_ascii
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
# The model reserves a token for slots 1..TAG_SLOTS of each class; a literal
# tagged in a higher slot reaches it as [UNK].
TAG_SLOTS = 8

# integers and decimals, optional sign and thousands separators; the config
# checker reads observed values with the same grammar
NUMBER_RE = re.compile(r"-?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?")


@dataclass(frozen=True)
class Lexicons:
    bool_surfaces: tuple
    unit_surfaces: tuple
    format_surfaces: tuple

    def __post_init__(self):
        for cls in (TagClass.BOOL, TagClass.UNIT, TagClass.FORMAT):
            for surface in self.surfaces(cls):
                if not surface or surface != surface.strip():
                    raise TagError(f"{cls.value} surface {surface!r} is empty or "
                                   "has whitespace at an edge")

    def surfaces(self, cls: TagClass) -> tuple:
        return {
            TagClass.BOOL: self.bool_surfaces,
            TagClass.UNIT: self.unit_surfaces,
            TagClass.FORMAT: self.format_surfaces,
        }[cls]


def _read_lexicon(path: Path) -> tuple:
    return tuple(dict.fromkeys(fold_ascii(line) for _, line in content_lines(path)))


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
    text: str  # C: ASCII-lowercased, literals replaced by tag tokens
    tags: dict  # T: tag id -> surface, in order of first occurrence


def _number_guard_ok(text: str, start: int, end: int) -> bool:
    # never split a dotted version like 11.7.8 into separate numbers; kept in
    # Python because str.isdigit, unlike a regex \d, counts "²" as a digit
    if start > 0 and (text[start - 1] in WORD_CHARS or
                      (text[start - 1] == "." and start > 1 and text[start - 2].isdigit())):
        return False
    if end < len(text) and (text[end] in WORD_CHARS or
                            (text[end] == "." and end + 1 < len(text) and text[end + 1].isdigit())):
        return False
    return True


@lru_cache(maxsize=64)
def _lookup(keywords: KeywordSet, lexicons: Lexicons):
    """The lexicon table and the tokens worth a look.

    The table maps the first token of each lexicon surface to its (surface,
    class, tail guard) triples, longest first. A token is worth a look when
    a keyword or a surface starts with it or it is a "-"; tokens that start
    with a decimal digit are looked at too."""
    # ascending priority, so a surface in two classes keeps the higher one
    classes = {surface: cls for cls in (TagClass.UNIT, TagClass.BOOL, TagClass.FORMAT)
               for surface in lexicons.surfaces(cls)}
    table: dict = {}
    for surface in sorted(classes, key=len, reverse=True):
        table.setdefault(TOKEN_RE.match(surface).group(), []).append(
            (surface, classes[surface], surface[-1] in WORD_CHARS))
    return table, {*table, *keywords.by_first_token, "-"}


def tag_text(text: str, keywords: KeywordSet, lexicons: Lexicons) -> TaggedCandidate:
    """Replace literal patterns in text, lowercased over ASCII, with numbered tags.

    The scan splits the text into words and single symbols and looks only
    at tokens that a keyword, a lexicon surface or a number can start with.
    There the keyword comes from `KeywordSet.match`, the longest fitting
    surface from a table keyed by first token, and the number from
    `NUMBER_RE`; the longest of the three wins, and equal lengths go to the
    class with the higher priority. Text between literals is copied as it
    stands."""
    lexicon, worth_a_look = _lookup(keywords, lexicons)
    low = fold_ascii(text)
    ids: dict = {}  # (class, surface) -> tag id
    counters: dict = {}  # class -> tags so far
    tags: dict = {}
    out = []
    i = 0
    for token in TOKEN_RE.finditer(low):
        word = token.group()
        if not (word in worth_a_look or word[0].isdecimal()) or (at := token.start()) < i:
            continue
        found = []
        if hit := keywords.match(low, at, word):
            found.append((TagClass.KEYWORD, low[at:hit[0]]))
        for surface, cls, tail_guard in lexicon.get(word, ()):
            end = at + len(surface)
            if low.startswith(surface, at) and not (
                    tail_guard and end < len(low) and low[end] in WORD_CHARS):
                found.append((cls, surface))
                break
        if (m := NUMBER_RE.match(low, at)) and _number_guard_ok(low, at, m.end()):
            found.append((TagClass.NUM, m.group()))
        if not found:
            continue
        key = cls, surface = max(found, key=lambda c: (len(c[1]), _PRIORITY[c[0]]))
        if key not in ids:
            counters[cls] = counters.get(cls, 0) + 1
            tag_id = f"{cls.value}{counters[cls]}"
            ids[key] = tag_id
            tags[tag_id] = surface
        out.append(low[i:at])
        out.append(f"<{ids[key]}>")
        i = at + len(surface)
    out.append(low[i:])
    return TaggedCandidate("".join(out), tags)


# the tag tokens the model reserves, slots 1..TAG_SLOTS of each class in
# class order, each with its class ("<num1>" -> NUM); `detag` looks a token
# up here before it tries TAG_TOKEN_RE
RESERVED_TAG_CLASSES = {
    f"<{cls.value}{slot}>": cls for cls in TagClass for slot in range(1, TAG_SLOTS + 1)
}


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
        cls = RESERVED_TAG_CLASSES.get(token)
        if cls is None and token.startswith("<") and (m := TAG_TOKEN_RE.fullmatch(token)):
            cls = TagClass(m.group(1))  # a tag past the reserved slots
        if cls is None:
            substituted.append(token)
            continue
        tag_id = token[1:-1]
        if tag_id not in tags:
            raise UnknownTagError(f"tag {token} has no surface in the tag map")
        substituted.append(spec_token(cls, tags[tag_id]))
    text = render_tokens(substituted)
    try:
        return dsl.parse_spec(text)
    except dsl.DslError as exc:
        raise NonParsingOutput(f"{text!r}: {exc}") from exc

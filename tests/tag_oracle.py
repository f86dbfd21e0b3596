"""The per-position tagger that `specsyn.tagger.tag_text` replaced, kept as
the reference its output is compared against.

At every character it asks each literal class for its longest match there
and takes the best by (length, class priority). Keywords are found with the
keyword alternation that `specsyn.corpus.KeywordSet.find` used before it
moved to a word lookup, so the reference shares no matcher with the code it
checks.
"""

from __future__ import annotations

import re

from specsyn.corpus import ASCII_LOWER, KeywordSet
from specsyn.tagger import (
    _PRIORITY,
    NUMBER_RE,
    Lexicons,
    TagClass,
    TaggedCandidate,
    load_lexicons,
)

_WORD = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def keyword_pattern(keywords: tuple) -> re.Pattern:
    """Keywords at word boundaries, with an optional --flag prefix, folding
    case over ASCII only; alternatives are tried longest first."""
    alternatives = "|".join(
        re.escape(kw) for kw in sorted(keywords, key=len, reverse=True)
    )
    return re.compile(
        rf"(?<![A-Za-z0-9_-])(?:--)?(?:{alternatives})(?![A-Za-z0-9_-])",
        re.IGNORECASE | re.ASCII,
    )


def find_keywords(text: str, keywords: tuple) -> list:
    """The keywords `keyword_pattern` finds in text, in order of first
    occurrence, each named as in `keywords`. A match names the keyword the
    alternation took: the one after a "--" when there is one, else the one
    it spells, the earlier of two that differ only in case."""
    names: dict = {}
    for kw in keywords:
        names.setdefault(kw.translate(ASCII_LOWER), kw)
    found = []
    for m in keyword_pattern(tuple(keywords)).finditer(text):
        surface = m.group().translate(ASCII_LOWER)
        name = names.get(surface[2:]) if surface.startswith("--") else None
        name = name or names[surface]
        if name not in found:
            found.append(name)
    return found


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
        self.keyword_pattern = keyword_pattern(tuple(keywords)) if keywords else None
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
    """Replace literal patterns in text, lowercased over ASCII, with numbered tags."""
    if lexicons is None:
        lexicons = load_lexicons()
    matcher = _Matcher(keywords, lexicons)
    low = text.translate(ASCII_LOWER)
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

"""Document ingestion and keyword-filtered candidate extraction.

Raw documents (plain text, stripped HTML, or source code comments) are split
into sentences; sentences that mention a configuration keyword become
candidate texts, either alone (Simple) or with a short window of following
sentences (Complex).
"""

from __future__ import annotations

import enum
import html.parser
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import dsl
from .files import InputError, content_lines, write_jsonl


class CorpusError(ValueError):
    pass


class EmptyDocument(CorpusError):
    """No sentences survived ingestion."""


class DocumentFormat(enum.Enum):
    PLAIN_TEXT = "plain"
    HTML_STRIPPED = "html"
    SOURCE_COMMENTS = "comments"


class ExtractionType(enum.Enum):
    SIMPLE = "simple"
    COMPLEX_SINGLE = "complex_single"
    COMPLEX_MULTI = "complex_multi"


@dataclass(frozen=True)
class KeywordSet:
    """Configuration parameter names for one piece of software."""

    software: str
    keywords: tuple

    def __post_init__(self):
        object.__setattr__(self, "keywords", tuple(self.keywords))
        if not self.keywords:
            raise CorpusError("keyword set must not be empty")
        if bad := _bad_keyword(self.keywords):
            raise CorpusError(bad[1])

    def pattern(self) -> re.Pattern:
        return _keyword_pattern(self.keywords)

    def find(self, text: str) -> list:
        """Canonical names of keywords present, in order of first occurrence."""
        found = []
        for m in self.pattern().finditer(text):
            name = _canonical_keyword(self.keywords, m.group())
            if name not in found:
                found.append(name)
        return found


def _bad_keyword(keywords):
    """(index, reason) of the first keyword that a rule cannot name once
    lowercased, or that repeats an earlier one; None when all are fine."""
    seen = set()
    for i, kw in enumerate(keywords):
        if not dsl.is_rule_keyword(kw.lower()):
            return i, f"bad keyword {kw!r}"
        if kw in seen:
            return i, f"keyword {kw!r} is repeated"
        seen.add(kw)
    return None


@lru_cache(maxsize=64)
def _keyword_pattern(keywords: tuple) -> re.Pattern:
    # word-boundary match, optional --flag prefix, case folded over ASCII
    # only: full Unicode folding would let "ſ", "ı" or the Kelvin sign stand
    # for "s", "i" or "k" in a keyword (and in its edge guards)
    alternatives = "|".join(
        re.escape(kw) for kw in sorted(keywords, key=len, reverse=True)
    )
    return re.compile(
        rf"(?<![A-Za-z0-9_-])(?:--)?(?:{alternatives})(?![A-Za-z0-9_-])",
        re.IGNORECASE | re.ASCII,
    )


def _canonical_keyword(keywords: tuple, surface: str) -> str:
    lowered = surface.lower().lstrip("-")
    for kw in keywords:
        if kw.lower() == lowered:
            return kw
    return surface


@dataclass(frozen=True)
class CandidateText:
    text: str
    source: str
    type: ExtractionType
    keywords: tuple

    def __post_init__(self):
        object.__setattr__(self, "keywords", tuple(self.keywords))
        if not self.keywords:
            raise CorpusError("candidate must mention at least one keyword")


# ---------------------------------------------------------------------------
# sentence splitting

_ABBREVIATIONS = frozenset({"e.g", "i.e", "etc", "cf", "vs", "fig", "eq", "sec"})


def _is_sentence_boundary(text: str, i: int) -> bool:
    ch = text[i]
    if ch == ".":
        m = re.search(r"[A-Za-z][A-Za-z.]*$", text[:i])
        if m and m.group().lower() in _ABBREVIATIONS:
            return False
    j = i + 1
    if j >= len(text):
        return True
    if not text[j].isspace():
        return False
    while j < len(text) and text[j].isspace():
        j += 1
    return j >= len(text) or text[j].isupper()


def split_sentences(text: str) -> list:
    """Split on ., ? or ! followed by whitespace and a capital (or text end)."""
    sentences = []
    start = 0
    for i, ch in enumerate(text):
        if ch in ".?!" and _is_sentence_boundary(text, i):
            sentences.append(text[start : i + 1])
            start = i + 1
    sentences.append(text[start:])
    return [" ".join(s.split()) for s in sentences if s.strip()]


# ---------------------------------------------------------------------------
# document formats

class _TextExtractor(html.parser.HTMLParser):
    _SKIP = {"script", "style"}
    _BLOCK = {
        "p", "div", "br", "li", "ul", "ol", "tr", "td", "th", "table",
        "h1", "h2", "h3", "h4", "h5", "h6", "section", "article", "header",
        "footer", "pre", "blockquote", "dt", "dd", "hr", "title",
    }

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in self._SKIP:
            self._skip_depth += 1
        elif tag in self._BLOCK:
            self.parts.append("\n\n")

    def handle_endtag(self, tag):
        if tag in self._SKIP:
            self._skip_depth = max(0, self._skip_depth - 1)
        elif tag in self._BLOCK:
            self.parts.append("\n\n")

    def handle_data(self, data):
        if not self._skip_depth:
            self.parts.append(data)


def strip_html(markup: str) -> str:
    parser = _TextExtractor()
    parser.feed(markup)
    parser.close()
    return "".join(parser.parts)


_CODE_PUNCT = set("{}()[];=<>+-*/&|!%,:'\"\\^~@#$?.")


def _looks_like_code(line: str) -> bool:
    chars = [c for c in line if not c.isspace()]
    if not chars:
        return False
    punct = sum(1 for c in chars if c in _CODE_PUNCT)
    return punct / len(chars) > 0.4


def comment_bodies(code: str) -> list:
    """Raw comment bodies: /* */ blocks plus // and # line comments.

    Comment markers inside string literals are ignored.
    """
    comments = []
    i, n = 0, len(code)
    state = "code"  # code | block | line | string
    quote = ""
    buf = []
    while i < n:
        c = code[i]
        if state == "code":
            if c in "\"'":
                state, quote = "string", c
            elif c == "/" and code[i : i + 2] == "/*":
                state = "block"
                i += 1
            elif c == "/" and code[i : i + 2] == "//":
                state = "line"
                i += 1
            elif c == "#":
                state = "line"
        elif state == "string":
            if c == "\\":
                i += 1
            elif c == quote or c == "\n":
                state = "code"
        elif state == "block":
            if c == "*" and code[i : i + 2] == "*/":
                comments.append("".join(buf))
                buf = []
                state = "code"
                i += 1
            else:
                buf.append(c)
        elif state == "line":
            if c == "\n":
                comments.append("".join(buf))
                buf = []
                state = "code"
            else:
                buf.append(c)
        i += 1
    if state in ("block", "line") and buf:
        comments.append("".join(buf))
    return comments


def extract_comments(code: str) -> list:
    """Comment text with commented-out code lines dropped."""
    cleaned = []
    for body in comment_bodies(code):
        lines = [line.strip().lstrip("*").strip() for line in body.split("\n")]
        kept = [line for line in lines if line and not _looks_like_code(line)]
        if kept:
            cleaned.append(" ".join(kept))
    return cleaned


def _paragraphs(text: str) -> list:
    return [p for p in re.split(r"\n\s*\n", text) if p.strip()]


def ingest(text: str, format: DocumentFormat = DocumentFormat.PLAIN_TEXT) -> list:
    """The ordered sentence list of a document's text."""
    if format is DocumentFormat.HTML_STRIPPED:
        blocks = _paragraphs(strip_html(text))
    elif format is DocumentFormat.SOURCE_COMMENTS:
        blocks = extract_comments(text)
    else:
        blocks = _paragraphs(text)

    sentences = []
    for block in blocks:
        sentences.extend(split_sentences(block))
    if not sentences:
        raise EmptyDocument("document contains no sentences")
    return sentences


# ---------------------------------------------------------------------------
# candidate extraction

def extract_candidates(
    sentences: list,
    keywords: KeywordSet,
    window: int = 3,
    doc_id: str = "doc",
) -> list:
    """Simple and Complex candidates for every keyword-bearing sentence."""
    if window < 1:
        raise CorpusError("window must be >= 1")
    candidates = []
    for i, sentence in enumerate(sentences):
        matched = keywords.find(sentence)
        if not matched:
            continue
        candidates.append(
            CandidateText(sentence, f"{doc_id}:{i}", ExtractionType.SIMPLE, tuple(matched))
        )
        span = sentences[i : i + window]
        if len(span) >= 2:
            text = " ".join(span)
            span_matched = keywords.find(text)
            kind = (
                ExtractionType.COMPLEX_SINGLE
                if len(span_matched) == 1
                else ExtractionType.COMPLEX_MULTI
            )
            candidates.append(
                CandidateText(
                    text, f"{doc_id}:{i}-{i + len(span) - 1}", kind, tuple(span_matched)
                )
            )
    return candidates


# ---------------------------------------------------------------------------
# serialization

def load_keyword_file(path) -> KeywordSet:
    """One keyword per line; blank lines and '#' comments ignored."""
    lines = content_lines(path)
    if not lines:
        raise InputError(path, None, "no keywords")
    keywords = tuple(line for _, line in lines)
    if bad := _bad_keyword(keywords):
        raise InputError(path, lines[bad[0]][0], bad[1])
    return KeywordSet("unknown", keywords)


def candidate_to_dict(candidate: CandidateText) -> dict:
    return {
        "text": candidate.text,
        "source": candidate.source,
        "type": candidate.type.value,
        "keywords": list(candidate.keywords),
    }


def save_candidates(path, candidates: Iterable[CandidateText]) -> None:
    write_jsonl(path, map(candidate_to_dict, candidates))

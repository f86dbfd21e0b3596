"""Document ingestion and keyword-filtered candidate extraction.

Raw documents (plain text, stripped HTML, or source code comments) are split
into sentences; sentences that mention a configuration keyword become
candidate texts, alone and with a window of following sentences, each
typed by `extraction_type`. No reader loops over characters in Python, and
each takes time linear in its text: `comment_bodies` is one compiled pattern,
`split_sentences` one for sentence ends and one for abbreviations, and
`extract_candidates` runs `KeywordSet.find` once per sentence.
"""

from __future__ import annotations

import enum
import html.parser
import re
import string
from dataclasses import dataclass
from functools import cached_property
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


def extraction_type(n_keywords: int, n_sentences: int) -> ExtractionType:
    """A text that names two keywords or more is Complex-Multi, else one of
    two sentences or more is Complex-Single, else it is Simple."""
    if n_keywords >= 2:
        return ExtractionType.COMPLEX_MULTI
    if n_sentences >= 2:
        return ExtractionType.COMPLEX_SINGLE
    return ExtractionType.SIMPLE


# Keyword matching and tagging fold case over ASCII only: str.lower would
# turn the Kelvin sign into "k" and "İ" into two characters, and full
# Unicode folding would let "ſ" or "ı" stand for "s" or "i" in a keyword.
ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def fold_ascii(text: str) -> str:
    """text with A-Z folded to a-z and every other character kept;
    str.lower does that to ASCII text, and faster than str.translate."""
    return text.lower() if text.isascii() else text.translate(ASCII_LOWER)


WORD_CHARS = frozenset(string.ascii_lowercase + string.digits + "_")
# no keyword may touch one of these on either side
_KEYWORD_EDGE = WORD_CHARS | {"-"}

# The words and single symbols of ASCII-lowered text. Every keyword,
# lexicon surface and number starts where one of these tokens does, so
# matchers look only there, and only at tokens a literal can start with.
TOKEN_RE = re.compile(r"[a-z0-9_]+|[^\sa-z0-9_]")


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

    @cached_property
    def by_first_token(self) -> dict:
        """First token of each ASCII-lowered keyword -> (lowered, keyword)
        pairs, longest first; among equal spellings the earlier keyword."""
        table = {}
        for kw in sorted(self.keywords, key=len, reverse=True):
            low = fold_ascii(kw)
            table.setdefault(TOKEN_RE.match(low).group(), []).append((low, kw))
        return table

    def match(self, low: str, at: int, token: str):
        """(end, keyword) of the keyword spelled at `at` of ASCII-lowered
        `low`, where a `TOKEN_RE` token `token` starts; None if there is none.

        A keyword may carry a "--" flag prefix and may not touch a letter,
        digit, "_" or "-" on either side. The prefix is taken whenever a
        keyword follows it; then the longest keyword that fits wins."""
        if at and low[at - 1] in _KEYWORD_EDGE:
            return None
        if (low.startswith("--", at) and (after := TOKEN_RE.match(low, at + 2))
                and (hit := self._longest(low, at + 2, after.group()))):
            return hit
        return self._longest(low, at, token)

    def _longest(self, low: str, at: int, token: str):
        for spelled, kw in self.by_first_token.get(token, ()):
            end = at + len(spelled)
            if low.startswith(spelled, at) and (end == len(low) or low[end] not in _KEYWORD_EDGE):
                return end, kw
        return None

    def find(self, text: str) -> list:
        """Keywords present, spelled as in the set, in order of first occurrence."""
        low = fold_ascii(text)
        starts = self.by_first_token
        found = {}
        end = 0
        for token in TOKEN_RE.finditer(low):
            word = token.group()
            if ((word in starts or word == "-") and token.start() >= end
                    and (hit := self.match(low, token.start(), word))):
                end, kw = hit
                found[kw] = None
        return list(found)


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
# An abbreviation in any ASCII case that is the whole dotted word before a
# ".": only dots stand between it and the last character before it that is
# neither an ASCII letter nor a dot, and the "." follows it at once or after
# one newline. Each match ends at such a ".", which ends no sentence.
_ABBREVIATION_RE = re.compile(
    rf"(?<![A-Za-z.])\.*(?:{'|'.join(map(re.escape, sorted(_ABBREVIATIONS)))})\n?(?=\.)",
    re.ASCII | re.IGNORECASE,
)
# ., ? or ! that ends the text or is followed by whitespace; a sentence ends
# there when that whitespace reaches the text's end or an uppercase character
_SENTENCE_END_RE = re.compile(r"[.?!](?:\s+|\Z)")


def split_sentences(text: str) -> list:
    """Split after each ., ? or ! that ends the text or is followed by
    whitespace and then an uppercase character or the text's end; a "."
    ending an abbreviation such as "e.g" or "etc", in any case, splits
    nothing. Each sentence's whitespace runs become single spaces."""
    abbreviated = {m.end() for m in _ABBREVIATION_RE.finditer(text)}
    sentences = []
    start = 0
    for end in _SENTENCE_END_RE.finditer(text):
        at, after = end.start(), end.end()
        if at in abbreviated or (after < len(text) and not text[after].isupper()):
            continue
        sentences.append(text[start : at + 1])
        start = at + 1
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


# A string runs to its quote or a newline, a backslash escaping any
# character; a /* */ block or a // or # line comment left open runs to the
# end of the input. Only comments fill the groups: (block body, "*/",
# line body, "\n").
_COMMENT_RE = re.compile(
    r""""(?:\\.|[^"\\\n])*"?|'(?:\\.|[^'\\\n])*'?"""
    r"|/\*(.*?)(\*/|\Z)|(?://|#)([^\n]*)(\n?)",
    re.DOTALL,
)


def comment_bodies(code: str) -> list:
    """Raw comment bodies: /* */ blocks plus // and # line comments.

    Comment markers inside string literals are ignored. An empty body is
    kept only when its comment was closed."""
    return [block + line for block, shut, line, eol in _COMMENT_RE.findall(code)
            if block or shut or line or eol]


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
    """Candidates for every keyword-bearing sentence: the sentence alone,
    then, unless it is the last, the up to `window` sentences from it
    joined by spaces, each typed by `extraction_type`."""
    if window < 1:
        raise CorpusError("window must be >= 1")
    found = [keywords.find(sentence) for sentence in sentences]
    candidates = []
    for i, matched in enumerate(found):
        if not matched:
            continue
        candidates.append(CandidateText(
            sentences[i], f"{doc_id}:{i}", extraction_type(len(matched), 1), tuple(matched)))
        span = sentences[i : i + window]
        if len(span) >= 2:
            text = " ".join(span)
            # no keyword holds whitespace, and the joining space is a keyword
            # edge as a text end is, so the window's keywords are its
            # sentences' keywords in order of first occurrence
            span_matched = list(dict.fromkeys(kw for kws in found[i : i + window] for kw in kws))
            kind = extraction_type(len(span_matched), len(span))
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

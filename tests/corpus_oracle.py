"""The document readers that `specsyn.corpus` replaced, kept as the
references their output is compared against.

`comment_bodies` walks the code one character at a time through a state
machine; `split_sentences` tests every ".", "?" and "!" with a search over
the text before it; `extract_candidates` finds a window's keywords by
scanning the joined window again. It types candidates as
`corpus.extraction_type` does, written out on its own.
"""

from __future__ import annotations

import re

from specsyn.corpus import (
    _ABBREVIATIONS,
    CandidateText,
    CorpusError,
    ExtractionType,
    KeywordSet,
)


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
        kind = ExtractionType.SIMPLE if len(matched) == 1 else ExtractionType.COMPLEX_MULTI
        candidates.append(CandidateText(sentence, f"{doc_id}:{i}", kind, tuple(matched)))
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

"""Token vocabulary with fixed control and tag-token ids.

Ids 0..4 are control tokens, ids 5..44 are the tag tokens for eight slots
of each tag class in `tagger.TagClass` order, and everything after that is
learned from the training split in sorted order so vocabulary construction
is deterministic.
"""

import re
from collections.abc import Iterable, Sequence

from ..tagger import RESERVED_TAG_CLASSES, TAG_TOKEN_RE


class ModelError(Exception):
    """Base error for the model package."""


PAD, UNK, CLS, BOS, EOS = "[PAD]", "[UNK]", "[CLS]", "[BOS]", "[EOS]"
PAD_ID, UNK_ID, CLS_ID, BOS_ID, EOS_ID = 0, 1, 2, 3, 4


def reserved_tokens() -> tuple[str, ...]:
    return (PAD, UNK, CLS, BOS, EOS) + tuple(RESERVED_TAG_CLASSES)


# tag id ("keyword1") -> the fixed id of its reserved token ("<keyword1>")
TAG_TOKEN_IDS = {
    token[1:-1]: i for i, token in enumerate(reserved_tokens()) if i > EOS_ID
}


# TAG_TOKEN_RE as the one group of a pattern, so that `split` returns the
# text between tag tokens and the tag tokens themselves, in order
_TAG_SPLIT_RE = re.compile("(" + TAG_TOKEN_RE.pattern.replace("(", "(?:") + ")")


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization that keeps tag tokens as atoms.

    Tag tokens glued to punctuation ("<keyword1>." or "<num1><unit1>")
    are separated first; no other normalization happens. Joining the
    pieces of `_TAG_SPLIT_RE.split` with spaces gives the text with a space
    on each side of every tag token.
    """
    return " ".join(_TAG_SPLIT_RE.split(text)).split()


class Vocab:
    """Bijective token<->id map whose prefix is the reserved table."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        reserved = reserved_tokens()
        if tokens[: len(reserved)] != reserved:
            raise ModelError("vocabulary must begin with the reserved token table")
        ids = dict(zip(tokens, range(len(tokens))))
        if len(ids) != len(tokens):
            seen: set[str] = set()
            duplicate = next(t for t in tokens if t in seen or seen.add(t))
            raise ModelError(f"duplicate token {duplicate!r}")
        self._tokens = tokens
        self._ids = ids

    @classmethod
    def build(cls, texts: Iterable[str], targets: Iterable[Sequence[str]] = ()) -> "Vocab":
        """Collect tokens from training texts and target sequences.

        Tag-shaped tokens are never learned: slots 1..8 are already
        reserved and anything beyond maps to [UNK].
        """
        reserved = reserved_tokens()
        known = set(reserved)
        seen: set[str] = set()
        for text in texts:
            seen.update(tokenize(text))
        for target in targets:
            seen.update(target)
        learned = sorted(
            tok for tok in seen
            if tok not in known and not TAG_TOKEN_RE.fullmatch(tok)
        )
        return cls(reserved + tuple(learned))

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def encode(self, text: str) -> list[int]:
        ids = self._ids
        return [ids.get(tok, UNK_ID) for tok in tokenize(text)]

"""The one-row inference path that `specsyn.eval.infer_batch` replaced, kept
as the reference it is compared against.

Each text is encoded alone, detected alone and, when flagged, decoded
alone by a greedy loop whose allowed-token mask is built from the tag
classes and slots one name at a time.
"""

from __future__ import annotations

import numpy as np

from specsyn.eval import Inference
from specsyn.model.network import GENERATE_MAX_TOKENS, GenerationResult, predicted_label
from specsyn.model.vocab import BOS_ID, CLS_ID, EOS_ID, PAD_ID, UNK_ID
from specsyn.tagger import TAG_SLOTS, NonParsingOutput, TagClass, UnknownTagError, detag


def generate(model, h_c, tags) -> GenerationResult:
    """Greedy decode of one pooled vector, constrained to the tag tokens
    present in the tag map."""
    p = model.params
    allowed = np.ones(len(model.vocab), dtype=bool)
    allowed[[PAD_ID, UNK_ID, CLS_ID, BOS_ID]] = False
    for cls in TagClass:
        for i in range(1, TAG_SLOTS + 1):
            if f"{cls.value}{i}" not in tags:
                allowed[model.vocab.id_of(f"<{cls.value}{i}>")] = False

    h, c = model._lstm_start(np.asarray(h_c)[None, :])
    prev = BOS_ID
    tokens: list[str] = []
    truncated = True
    for _ in range(GENERATE_MAX_TOKENS):
        x = p["embed/tokens"][prev][None, :]
        h, c, _ = model._lstm_step(x, h, c)
        logits = (h @ p["generator/out_w"] + p["generator/out_b"])[0]
        logits[~allowed] = -np.inf
        prev = int(np.argmax(logits))
        if prev == EOS_ID:
            truncated = False
            break
        tokens.append(model.vocab.tokens[prev])
    return GenerationResult(tokens=tuple(tokens), truncated=truncated)


def infer(model, text: str, tags: dict) -> Inference:
    """Detect, then generate and detag, one text at a time."""
    h = model.encode_text(text)
    if not predicted_label(model.detect(h)):
        return Inference(False)
    tokens = generate(model, h, tags).tokens
    try:
        return Inference(True, tokens, rule=detag(tokens, tags))
    except (NonParsingOutput, UnknownTagError) as exc:
        return Inference(True, tokens, failure=str(exc))

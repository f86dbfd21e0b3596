"""Detection metrics, generation accuracy, and evaluation reports.

Detection quality is summarized by precision/recall/F1 plus raw confusion
counts. Generation accuracy is exact match conditioned on correct
detection: only gold-positive samples the detector flagged count toward
the denominator, and a match means the emitted `Specification` equals the
gold one (formatting differences never penalize the generator).

`infer_batch` is the detect-generate-detag path itself. `evaluate` feeds it
labeled samples, which are already tagged; `synthesize` feeds it document
candidates, after tagging them and fitting them to the model's input.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .corpus import ExtractionType
from .dsl import Category, Specification, print_spec
from .model.network import check_lengths, encode_plan, predicted_label
from .model.vocab import CLS_ID, TAG_TOKEN_IDS, tokenize
from .tagger import TAG_SLOTS, NonParsingOutput, UnknownTagError, detag, tag_text
from .workers import ordered_map

log = logging.getLogger(__name__)

# An encoder call of the protocol model takes about 0.75 ms, and a forked
# worker costs 2-5 ms, so below about 4 calls per worker a worker saves
# nothing; this is twice that.
ENCODE_MIN_PER_WORKER = 8


class EvalError(Exception):
    """Invalid evaluation input."""


class LengthMismatch(EvalError):
    """Prediction and label lists have different lengths."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise EvalError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


def metrics_from_counts(counts: ConfusionCounts) -> Metrics:
    """P, R from counts with the 0/0 -> 0 convention; F1 harmonic mean."""
    flagged = counts.tp + counts.fp
    positive = counts.tp + counts.fn
    p = counts.tp / flagged if flagged else 0.0
    r = counts.tp / positive if positive else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return Metrics(p, r, f1)


def score_detection(predictions, labels) -> tuple[ConfusionCounts, Metrics]:
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    if not labels:
        raise EvalError("nothing to score")
    tp = fp = fn = tn = 0
    for flagged, label in zip(predictions, labels):
        if flagged and label:
            tp += 1
        elif flagged:
            fp += 1
        elif label:
            fn += 1
        else:
            tn += 1
    counts = ConfusionCounts(tp, fp, fn, tn)
    return counts, metrics_from_counts(counts)


def _exact_match_rate(matches) -> float:
    scored = [match for match in matches if match is not None]
    return sum(scored) / len(scored) if scored else 0.0


@dataclass(frozen=True)
class SampleOutcome:
    """Per-sample evaluation record feeding the aggregate report."""

    index: int
    label: bool
    flagged: bool
    type: ExtractionType
    category: Category | None
    expected: Specification | None  # gold spec of a positive
    got: Specification | str | None  # emitted spec; raw tokens if detag failed

    @property
    def match(self) -> bool | None:
        """Generation exact match; None outside its denominator (not
        flagged, or no gold spec)."""
        if not (self.flagged and self.label):
            return None
        return self.got == self.expected


def breakdown(outcomes, key: str) -> dict[str, dict]:
    """Per-group metrics for key "type" or "category"; empty groups omitted.

    Category grouping covers only samples that carry a category (negatives
    carry none). Type groups also report generation exact match.
    """
    if key not in ("type", "category"):
        raise EvalError(f"unknown group key {key!r}")
    groups: dict[str, list[SampleOutcome]] = {}
    for outcome in outcomes:
        value = getattr(outcome, key)
        if value is None:
            continue
        groups.setdefault(value.value, []).append(outcome)
    section = {}
    for name in sorted(groups):
        members = groups[name]
        counts, metrics = score_detection(
            [o.flagged for o in members], [o.label for o in members]
        )
        entry = {
            "count": len(members),
            "tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn,
            "precision": metrics.precision,
            "recall": metrics.recall,
            "f1": metrics.f1,
        }
        if key == "type":
            entry["generation_em"] = _exact_match_rate(o.match for o in members)
        section[name] = entry
    return section


@dataclass
class EvaluationReport:
    metrics: Metrics
    confusion: ConfusionCounts
    generation_em: float
    by_type: dict[str, dict]
    by_category: dict[str, dict]
    errors: list[dict]

    def to_dict(self) -> dict:
        c = self.confusion
        flagged = c.tp + c.fp
        positive = c.tp + c.fn
        return {
            "precision": self.metrics.precision,
            "recall": self.metrics.recall,
            "f1": self.metrics.f1,
            "confusion": {
                "tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn,
                # the share of flagged samples that were right / wrong
                "predicted_positive": {
                    "tp": c.tp / flagged if flagged else 0.0,
                    "fp": c.fp / flagged if flagged else 0.0,
                },
                # the share of gold positives found / missed
                "gold_positive": {
                    "tp": c.tp / positive if positive else 0.0,
                    "fn": c.fn / positive if positive else 0.0,
                },
            },
            "generation_em": self.generation_em,
            "by_type": self.by_type,
            "by_category": self.by_category,
            "errors": self.errors,
        }


@dataclass(frozen=True)
class Inference:
    """What the two-step pipeline made of one tagged text."""

    flagged: bool
    tokens: tuple = ()  # generated tokens; empty unless flagged
    rule: Specification | None = None  # the emitted spec when detag succeeded
    failure: str | None = None  # why detag failed


def infer_batch(model, items: list[tuple[str, dict]]) -> list[Inference]:
    """Detect, then generate and detag, for each (text, tags) item: the one
    inference path that `evaluate` and `synthesize` share. It runs on a
    float32 copy of the model, which leaves the caller's parameters as they
    are. Each distinct id sequence is one row: it is encoded and detected
    once, and greedy-decoded once per distinct set of tag ids among its
    items, since those fix which tags the decoder may emit. Each item gets
    its row's detection and tokens, and is detagged with its own surfaces.
    Rows of similar token length are encoded together, every pooled vector
    of the call is detected at once, and flagged rows are decoded together
    (see `encode_plan` and `Model.generate_batch`). The encoder calls of the
    plan go through `workers.ordered_map`, spread over the CPUs this process
    may use once there are ENCODE_MIN_PER_WORKER calls per worker; detection
    and decoding run in this process over the pooled vectors in plan order,
    so the results do not depend on the worker count. Every text must fit
    the model's max_len with [CLS]; `check_lengths` names the first item
    that does not."""
    ids_of = {text: (CLS_ID, *model.vocab.encode(text)) for text in {text for text, _ in items}}
    row_of: dict[tuple, int] = {}  # each distinct id sequence -> its row
    item_rows = [row_of.setdefault(ids_of[text], len(row_of)) for text, _ in items]
    sequences = list(row_of)
    check_lengths((len(sequences[row]) for row in item_rows), model.config.max_len)
    # a float32-trained model casts to float32 exactly, and the encoder's
    # elementwise kernels run several times as fast in it as in float64
    model = model.cast(np.float32)
    plan = encode_plan(sequences)
    results = [Inference(False)] * len(items)
    if not plan:
        return results
    order = [row for rows in plan for row in rows]  # rows in encoder order
    pooled = np.concatenate(ordered_map(
        functools.partial(model.encode_rows, sequences), plan, ENCODE_MIN_PER_WORKER))
    # each flagged row's index into pooled
    flagged = {order[i]: i for i, probs in enumerate(model.detect(pooled)) if predicted_label(probs)}
    decodes: dict[tuple, list[int]] = {}  # (pooled index, tag ids) -> its items
    for item, ((_, tags), row) in enumerate(zip(items, item_rows)):
        if row in flagged:
            decodes.setdefault((flagged[row], frozenset(tags)), []).append(item)
    if not decodes:
        return results
    generated = model.generate_batch(
        pooled[[i for i, _ in decodes]], [items[members[0]][1] for members in decodes.values()])
    for members, tokens in zip(decodes.values(), (g.tokens for g in generated)):
        for item in members:
            try:
                results[item] = Inference(True, tokens, rule=detag(tokens, items[item][1]))
            except (NonParsingOutput, UnknownTagError) as exc:
                results[item] = Inference(True, tokens, failure=str(exc))
    return results


def synthesize(model, candidates, keywords, lexicons) -> list[Inference]:
    """Tag each document candidate, fit it to the model's input and run
    `infer_batch`: one result per candidate, in order.

    A candidate longer than max_len - 1 tokens (one position is [CLS]'s) is
    cut, and the tags of the literals cut off are dropped. A literal past
    the last reserved tag slot reaches the model as [UNK]. Both are logged.
    """
    budget = model.config.max_len - 1
    items = []
    for candidate in candidates:
        tagged = tag_text(candidate.text, keywords, lexicons)
        tokens = tokenize(tagged.text)
        tags = tagged.tags
        if len(tokens) > budget:
            log.warning(
                "truncating %d-token candidate from %s to %d tokens",
                len(tokens), candidate.source, budget,
            )
            tokens = tokens[:budget]
            # the decoder may only emit tags whose literal it was shown
            tags = {tag_id: surface for tag_id, surface in tags.items()
                    if f"<{tag_id}>" in tokens}
        lost = [surface for tag_id, surface in tags.items() if tag_id not in TAG_TOKEN_IDS]
        if lost:
            log.warning(
                "candidate from %s has literals past tag slot %d, seen as [UNK]: %s",
                candidate.source, TAG_SLOTS, ", ".join(map(repr, lost)),
            )
        items.append((" ".join(tokens), tags))
    return infer_batch(model, items)


def gold_spec(sample) -> Specification | None:
    """Concrete gold spec, reconstructed from the tagged target."""
    if not sample.label:
        return None
    return detag(sample.target, sample.tags)


def collect_outcomes(model, samples) -> list[SampleOutcome]:
    """One outcome per sample, from one `infer_batch` call. A flagged
    positive whose generated tokens equal its target tokens takes its
    prediction as its gold spec, since the same tokens detagged with the
    same tag map give the same spec; `gold_spec` runs for the other
    positives."""
    samples = list(samples)
    results = infer_batch(model, [(sample.text, sample.tags) for sample in samples])
    outcomes = []
    for i, (sample, result) in enumerate(zip(samples, results)):
        got = result.rule
        if result.failure is not None:
            # flagged but not reconstructable; kept as a raw mismatch
            got = " ".join(result.tokens)
        if sample.label and result.rule is not None and result.tokens == sample.target:
            expected = result.rule
        else:
            expected = gold_spec(sample)
        outcomes.append(SampleOutcome(
            index=i,
            label=bool(sample.label),
            flagged=result.flagged,
            type=sample.type,
            category=sample.category,
            expected=expected,
            got=got,
        ))
    return outcomes


def _is_error(outcome: SampleOutcome) -> bool:
    return outcome.flagged != outcome.label or (outcome.flagged and not outcome.match)


def _shown(spec: Specification | str | None) -> str | None:
    """A spec as the error list shows it: printed, or the raw tokens of a
    failed detag as they are."""
    return print_spec(spec) if isinstance(spec, Specification) else spec


def report_from_outcomes(outcomes) -> EvaluationReport:
    if not outcomes:
        raise EvalError("nothing to evaluate")
    counts, metrics = score_detection(
        [o.flagged for o in outcomes], [o.label for o in outcomes]
    )
    em = _exact_match_rate(o.match for o in outcomes)
    errors = [
        {"id": o.index, "expected": _shown(o.expected), "got": _shown(o.got)}
        for o in outcomes
        if _is_error(o)
    ]
    return EvaluationReport(
        metrics=metrics,
        confusion=counts,
        generation_em=em,
        by_type=breakdown(outcomes, "type"),
        by_category=breakdown(outcomes, "category"),
        errors=errors,
    )


def evaluate(model, samples) -> EvaluationReport:
    """Score a trained model on labeled samples."""
    return report_from_outcomes(collect_outcomes(model, samples))


def render_report(report: EvaluationReport) -> str:
    """Plain-text tables for terminal output."""
    c = report.confusion
    lines = [
        "Detection",
        f"  precision {report.metrics.precision:.4f}",
        f"  recall    {report.metrics.recall:.4f}",
        f"  f1        {report.metrics.f1:.4f}",
        f"  counts    tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn}",
        f"  generation exact match {report.generation_em:.4f}",
        "",
    ]

    def table(title, section, with_em):
        if not section:
            return
        lines.append(title)
        header = f"  {'group':<16}{'count':>6}{'prec':>8}{'recall':>8}{'f1':>8}"
        if with_em:
            header += f"{'gen':>8}"
        lines.append(header)
        for name, row in section.items():
            text = (
                f"  {name:<16}{row['count']:>6}"
                f"{row['precision']:>8.3f}{row['recall']:>8.3f}{row['f1']:>8.3f}"
            )
            if with_em:
                text += f"{row['generation_em']:>8.3f}"
            lines.append(text)
        lines.append("")

    table("By extraction type", report.by_type, with_em=True)
    table("By category", report.by_category, with_em=False)
    lines.append(f"Errors: {len(report.errors)}")
    return "\n".join(lines)

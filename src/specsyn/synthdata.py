"""Synthetic labeled-data composition from seed templates.

Seed templates are short manual-style sentences with typed slots
(``{kw}``, ``{num}``, ``{bool}``, ``{unit}``, ``{format}``) and a target
rule pattern over the same slots.  Composition fills the slots, weaves in
distractor sentences, tags the result, and emits a labeled sample whose
target token sequence detags back to the concrete specification.  Negative
templates mention keywords without constraining them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import dsl
from .corpus import ExtractionType, KeywordSet, extraction_type
from .dsl import Category
from .files import content_lines, read_json, read_jsonl, write_jsonl
from .tagger import (
    Lexicons,
    TagClass,
    detag,
    load_lexicons,
    render_tokens,
    spec_token,
    tag_class_of,
    tag_text,
)


class SynthError(ValueError):
    pass


class TemplateError(SynthError):
    """A seed template violates its invariants or is not recoverable."""


class SlotRangeError(SynthError):
    """No valid filler assignment found within the resample budget."""


class InsufficientSeeds(SynthError):
    """The requested dataset cannot be stratified from the given seeds."""


_SLOT_CLASS = {
    "kw": TagClass.KEYWORD,
    "num": TagClass.NUM,
    "bool": TagClass.BOOL,
    "unit": TagClass.UNIT,
    "format": TagClass.FORMAT,
    "version": None,  # never appears in targets; fills with an x.y.z string
}

# a slot name is a slot kind and an optional number ("kw2"); templates write
# it in braces ("{kw2}")
_SLOT_NAME_RE = re.compile(rf"({'|'.join(_SLOT_CLASS)})(\d*)")
_SLOT_RE = re.compile(rf"\{{{_SLOT_NAME_RE.pattern}\}}")

# default unit fillers; the full lexicon also contains units that read badly
# in generated prose (bare "s", "%")
_UNIT_POOL = ("bytes", "kb", "mb", "gb", "ms", "seconds")


def _slot_prefix(name: str) -> str:
    m = _SLOT_NAME_RE.fullmatch(name)
    if m is None:
        raise TemplateError(f"bad slot name {name!r}")
    return m.group(1)


def _find_slots(texts) -> tuple:
    """Slot names in order of first appearance."""
    seen = []
    for text in texts:
        for m in _SLOT_RE.finditer(text):
            name = m.group(1) + m.group(2)
            if name not in seen:
                seen.append(name)
    return tuple(seen)


@dataclass(frozen=True)
class SeedTemplate:
    id: str
    sentences: tuple
    target: tuple  # whitespace-tokenized rule pattern
    type: ExtractionType
    category: Category

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        object.__setattr__(self, "target", tuple(self.target))
        if not self.sentences or not self.target:
            raise TemplateError(f"template {self.id}: needs sentences and a target")
        slots = _find_slots(self.sentences)
        target_slots = _find_slots(self.target)
        if set(slots) != set(target_slots):
            raise TemplateError(
                f"template {self.id}: sentence slots {sorted(slots)} != "
                f"target slots {sorted(target_slots)}"
            )
        if not any(_slot_prefix(s) == "kw" for s in slots):
            raise TemplateError(f"template {self.id}: needs a keyword slot")
        if any(_slot_prefix(s) == "version" for s in slots):
            raise TemplateError(f"template {self.id}: version slots are negative-only")
        n_keywords = sum(_slot_prefix(s) == "kw" for s in slots)
        derived = extraction_type(n_keywords, len(self.sentences))
        if derived is not self.type:
            raise TemplateError(
                f"template {self.id}: declared type {self.type.value} but "
                f"structure implies {derived.value}"
            )
        object.__setattr__(self, "_slots", slots)

    @property
    def slots(self) -> tuple:
        return self._slots


@dataclass(frozen=True)
class NegativeTemplate:
    id: str
    sentences: tuple

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        slots = _find_slots(self.sentences)
        if not any(_slot_prefix(s) == "kw" for s in slots):
            raise TemplateError(f"negative {self.id}: needs a keyword slot")
        object.__setattr__(self, "_slots", slots)

    @property
    def slots(self) -> tuple:
        return self._slots


@dataclass(frozen=True)
class SeedLibrary:
    keywords: KeywordSet
    templates: tuple
    negatives: tuple

    def __post_init__(self):
        object.__setattr__(self, "templates", tuple(self.templates))
        object.__setattr__(self, "negatives", tuple(self.negatives))
        for kw in self.keywords.keywords:
            if kw != kw.lower():
                raise TemplateError(f"keyword {kw!r} must be lowercase")
        ids = [t.id for t in self.templates] + [n.id for n in self.negatives]
        if len(set(ids)) != len(ids):
            raise TemplateError("template ids must be unique")


@dataclass(frozen=True)
class LabeledSample:
    text: str  # tagged candidate text C
    tags: dict  # tag map T
    label: bool  # has_spec
    target: tuple  # tagged-spec tokens, empty iff label is false
    category: Category | None
    type: ExtractionType
    gold: dsl.Specification | None = field(default=None, compare=False)  # not serialized

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(self.target))
        if self.label != bool(self.target):
            raise SynthError("has_spec label and target emptiness disagree")


# ---------------------------------------------------------------------------
# seed library I/O

def load_seed_library(path) -> SeedLibrary:
    return read_json(path, _library_from_dict)


def _library_from_dict(data: dict) -> SeedLibrary:
    keywords = KeywordSet(data["software"], tuple(data["keywords"]))
    templates = tuple(
        SeedTemplate(
            id=t["id"],
            sentences=tuple(t["sentences"]),
            target=tuple(t["target"].split()),
            type=ExtractionType(t["type"]),
            category=Category(t["category"]),
        )
        for t in data["templates"]
    )
    negatives = tuple(
        NegativeTemplate(id=n["id"], sentences=tuple(n["sentences"]))
        for n in data.get("negatives", ())
    )
    return SeedLibrary(keywords, templates, negatives)


def load_distractors(path) -> tuple:
    return tuple(line for _, line in content_lines(path))


def default_library() -> SeedLibrary:
    return load_seed_library(resources.files("specsyn").joinpath("data/seeds.json"))


def default_distractors() -> tuple:
    return load_distractors(resources.files("specsyn").joinpath("data/distractors.txt"))


# ---------------------------------------------------------------------------
# slot filling

def _draw_fillers(slots, rng, keywords: KeywordSet, lexicons: Lexicons) -> dict:
    fillers = {}
    kw_slots = [s for s in slots if _slot_prefix(s) == "kw"]
    if len(kw_slots) > len(keywords.keywords):
        raise InsufficientSeeds("more keyword slots than keywords")
    picks = rng.permutation(len(keywords.keywords))
    for k, slot in enumerate(kw_slots):
        fillers[slot] = keywords.keywords[int(picks[k])]
    for slot in slots:
        prefix = _slot_prefix(slot)
        if prefix == "kw":
            continue
        if prefix == "version":
            parts = (rng.integers(1, 21), rng.integers(0, 31), rng.integers(0, 31))
            fillers[slot] = ".".join(str(int(p)) for p in parts)
        elif prefix == "num":
            n = int(rng.integers(0, 65536))
            grouped = n >= 10000 and rng.random() < 0.5
            fillers[slot] = f"{n:,}" if grouped else str(n)
        elif prefix == "bool":
            pool = lexicons.bool_surfaces
            fillers[slot] = pool[int(rng.integers(len(pool)))]
        elif prefix == "unit":
            pool = tuple(u for u in _UNIT_POOL if u in lexicons.unit_surfaces)
            pool = pool or lexicons.unit_surfaces
            fillers[slot] = pool[int(rng.integers(len(pool)))]
        elif prefix == "format":
            pool = lexicons.format_surfaces
            fillers[slot] = pool[int(rng.integers(len(pool)))]
    return fillers


def _fill(text: str, fillers: dict) -> str:
    return _SLOT_RE.sub(lambda m: fillers[m.group(1) + m.group(2)], text)


def _concrete_spec(target, fillers) -> dsl.Specification:
    """The specification a filled target encodes."""
    tokens = []
    for token in target:
        m = _SLOT_RE.fullmatch(token)
        if m:
            name = m.group(1) + m.group(2)
            cls = _SLOT_CLASS[m.group(1)]
            tokens.append(spec_token(cls, fillers[name].lower()))
        else:
            tokens.append(token)
    return dsl.parse_spec(render_tokens(tokens))


def _weave(sentences, distractors, rng):
    """Surround the spec sentences with 0-2 distractors; returns (text, count)."""
    k = int(rng.integers(0, 3))
    idx = rng.choice(len(distractors), size=min(k, len(distractors)), replace=False)
    chosen = [distractors[int(i)] for i in idx]
    before = int(rng.integers(0, len(chosen) + 1))
    ordered = chosen[:before] + list(sentences) + chosen[before:]
    return " ".join(ordered), len(ordered)


def _target_tokens(seed: SeedTemplate, fillers: dict, tagged) -> tuple:
    reverse = {
        (tag_class_of(tag_id), surface): tag_id
        for tag_id, surface in tagged.tags.items()
    }
    out = []
    for token in seed.target:
        m = _SLOT_RE.fullmatch(token)
        if m is None:
            out.append(token)
            continue
        name = m.group(1) + m.group(2)
        cls = _SLOT_CLASS[m.group(1)]
        tag_id = reverse.get((cls, fillers[name].lower()))
        if tag_id is None:
            raise TemplateError(
                f"template {seed.id}: filler {fillers[name]!r} for slot {name} "
                f"was not recovered by the tagger"
            )
        out.append(f"<{tag_id}>")
    return tuple(out)


# ---------------------------------------------------------------------------
# composition

_RESAMPLE_BUDGET = 100


def compose_positive(
    seed: SeedTemplate,
    distractors,
    rng_seed,
    keywords: KeywordSet,
    lexicons: Lexicons | None = None,
) -> LabeledSample:
    """One spec-bearing sample from a template; deterministic in rng_seed."""
    if not distractors:
        raise SynthError("distractor pool is empty")
    if lexicons is None:
        lexicons = load_lexicons()
    rng = np.random.default_rng(rng_seed)
    for _ in range(_RESAMPLE_BUDGET):
        fillers = _draw_fillers(seed.slots, rng, keywords, lexicons)
        try:
            gold = _concrete_spec(seed.target, fillers)
        except dsl.DslError:
            continue
        break
    else:
        raise SlotRangeError(
            f"template {seed.id}: no valid fillers in {_RESAMPLE_BUDGET} tries"
        )
    text, _ = _weave([_fill(s, fillers) for s in seed.sentences], distractors, rng)
    tagged = tag_text(text, keywords, lexicons)
    target = _target_tokens(seed, fillers, tagged)
    reconstructed = detag(list(target), tagged.tags)
    if reconstructed != gold:
        raise TemplateError(
            f"template {seed.id}: target detags to {dsl.print_spec(reconstructed)!r}, "
            f"expected {dsl.print_spec(gold)!r}"
        )
    return LabeledSample(
        tagged.text, tagged.tags, True, target, seed.category, seed.type, gold
    )


def _compose_negative(
    template: NegativeTemplate, distractors, rng, keywords, lexicons
) -> LabeledSample:
    fillers = _draw_fillers(template.slots, rng, keywords, lexicons)
    text, n_sentences = _weave(
        [_fill(s, fillers) for s in template.sentences], distractors, rng
    )
    tagged = tag_text(text, keywords, lexicons)
    found = keywords.find(text)
    if not found:
        raise TemplateError(f"negative {template.id}: no keyword in output")
    kind = extraction_type(len(found), n_sentences)
    return LabeledSample(tagged.text, tagged.tags, False, (), None, kind, None)


# ---------------------------------------------------------------------------
# dataset assembly

@dataclass
class Dataset:
    train: list
    test: list
    manifest: dict


def _apportion(total: int, weights) -> list:
    """Largest-remainder allocation of `total` proportional to weights; ties
    go to the earlier entry, so equal weights split `total` round-robin."""
    s = sum(weights)
    quotas = [total * w / s for w in weights]
    counts = [int(q) for q in quotas]
    order = sorted(range(len(weights)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _positive_plan(templates, n_pos: int) -> list:
    """Per-template sample counts stratified by type, then category."""
    plan = []
    types = [t for t in ExtractionType if any(s.type is t for s in templates)]
    by_type = _apportion(n_pos, [sum(s.type is t for s in templates) for t in types])
    for t, type_alloc in zip(types, by_type):
        of_type = [s for s in templates if s.type is t]
        cats = [c for c in Category if any(s.category is c for s in of_type)]
        by_cat = _apportion(
            type_alloc, [sum(s.category is c for s in of_type) for c in cats]
        )
        for c, cat_alloc in zip(cats, by_cat):
            members = [s for s in of_type if s.category is c]
            plan.extend(zip(members, _apportion(cat_alloc, [1] * len(members))))
    order = {t.id: i for i, t in enumerate(templates)}
    plan.sort(key=lambda item: order[item[0].id])
    return plan


def build_dataset(
    library: SeedLibrary,
    distractors,
    n_total: int,
    positive_fraction: float = 0.3,
    rng_seed: int = 42,
    n_test: int = 0,
    holdout_templates=(),
    lexicons: Lexicons | None = None,
) -> Dataset:
    """Compose a stratified labeled dataset split into train and test."""
    if n_total < 10:
        raise InsufficientSeeds("n_total must be at least 10")
    if not 0 < positive_fraction < 1:
        raise SynthError("positive_fraction must be in (0, 1)")
    if not library.templates or not library.negatives:
        raise InsufficientSeeds("library needs both seed and negative templates")
    if not 0 <= n_test < n_total:
        raise SynthError("n_test must be in [0, n_total)")
    if lexicons is None:
        lexicons = load_lexicons()

    n_pos = round(n_total * positive_fraction)
    n_neg = n_total - n_pos
    if n_pos < 1 or n_neg < 1:
        raise InsufficientSeeds("both classes need at least one sample")

    plans = []
    for template, count in _positive_plan(library.templates, n_pos):
        plans.extend([template] * count)
    negatives = library.negatives
    for template, count in zip(negatives, _apportion(n_neg, [1] * len(negatives))):
        plans.extend([template] * count)

    samples = []
    plan_ids = []
    for index, template in enumerate(plans):
        stream = np.random.SeedSequence([rng_seed, 0, index])
        if isinstance(template, SeedTemplate):
            sample = compose_positive(
                template, distractors, stream, library.keywords, lexicons
            )
        else:
            sample = _compose_negative(
                template,
                distractors,
                np.random.default_rng(stream),
                library.keywords,
                lexicons,
            )
        samples.append(sample)
        plan_ids.append(template.id)

    perm = np.random.default_rng(np.random.SeedSequence([rng_seed, 1])).permutation(
        n_total
    )
    if holdout_templates:
        holdout = set(holdout_templates)
        unknown = holdout - {t.id for t in library.templates + library.negatives}
        if unknown:
            raise InsufficientSeeds(f"unknown holdout templates: {sorted(unknown)}")
        pool = [int(i) for i in perm if plan_ids[i] in holdout]
        if len(pool) < n_test:
            raise InsufficientSeeds(
                f"holdout templates yielded {len(pool)} samples, need {n_test}"
            )
        test = [samples[i] for i in pool[:n_test]]
        train = [samples[int(i)] for i in perm if plan_ids[i] not in holdout]
    else:
        test = [samples[int(i)] for i in perm[:n_test]]
        train = [samples[int(i)] for i in perm[n_test:]]

    manifest = {
        "rng_seed": rng_seed,
        "n_total": n_total,
        "n_test": n_test,
        "positive_fraction": positive_fraction,
        "software": library.keywords.software,
        "holdout_templates": sorted(holdout_templates),
        "train": _tally(train),
        "test": _tally(test),
    }
    return Dataset(train, test, manifest)


def _tally(samples) -> dict:
    by_type = {}
    by_category = {}
    positives = 0
    for s in samples:
        by_type[s.type.value] = by_type.get(s.type.value, 0) + 1
        if s.category is not None:
            by_category[s.category.value] = by_category.get(s.category.value, 0) + 1
        positives += int(s.label)
    return {
        "total": len(samples),
        "positives": positives,
        "negatives": len(samples) - positives,
        "by_type": dict(sorted(by_type.items())),
        "by_category": dict(sorted(by_category.items())),
    }


# ---------------------------------------------------------------------------
# dataset files

def sample_to_dict(sample: LabeledSample) -> dict:
    return {
        "text": sample.text,
        "tags": dict(sample.tags),
        "label": int(sample.label),
        "target": list(sample.target),
        "category": sample.category.value if sample.category else None,
        "type": sample.type.value,
    }


def _strings(values) -> bool:
    return all(isinstance(v, str) for v in values)


def sample_from_dict(record: dict) -> LabeledSample:
    text, tags, label, target = (record[k] for k in ("text", "tags", "label", "target"))
    for ok, problem in (
        (isinstance(text, str), "'text' must be a string"),
        (isinstance(tags, dict) and _strings(tags) and _strings(tags.values()),
         "'tags' must map strings to strings"),
        (isinstance(target, list) and _strings(target), "'target' must be a list of strings"),
        (isinstance(label, int) and label in (0, 1), "'label' must be 0, 1 or a bool"),
    ):
        if not ok:
            raise TypeError(f"field {problem}")
    return LabeledSample(
        text,
        dict(tags),
        bool(label),
        tuple(target),
        Category(record["category"]) if record.get("category") else None,
        ExtractionType(record["type"]),
    )


def save_dataset(path, samples) -> None:
    write_jsonl(path, map(sample_to_dict, samples))


def load_dataset(path) -> list:
    return read_jsonl(path, sample_from_dict)


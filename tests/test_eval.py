import collections
import json
import math
import random
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import infer_oracle
import tag_oracle
from conftest import run_map_serially
from specsyn import dsl
from specsyn import eval as eval_module
from specsyn.corpus import ExtractionType, KeywordSet, extract_candidates, ingest, load_keyword_file
from specsyn.dsl import Category, DslError, parse_spec
from specsyn.eval import (
    ConfusionCounts,
    EvalError,
    EvaluationReport,
    Inference,
    LengthMismatch,
    Metrics,
    SampleOutcome,
    breakdown,
    collect_outcomes,
    evaluate,
    gold_spec,
    metrics_from_counts,
    render_report,
    report_from_outcomes,
    score_detection,
)
from specsyn.model import network
from specsyn.model.network import (
    DECODE_ROWS, ENCODE_TOKEN_BUDGET, GENERATE_MAX_TOKENS, Model, SequenceTooLong,
)
from specsyn.model.vocab import CLS_ID, EOS_ID, PAD_ID, TAG_TOKEN_IDS, tokenize
from specsyn.tagger import TAG_SLOTS, TagClass, load_lexicons

FIXTURES = Path(__file__).parent / "fixtures"


class TestScoreDetection:
    def test_all_correct_positives(self):
        counts, m = score_detection([True] * 5, [True] * 5)
        assert counts == ConfusionCounts(5, 0, 0, 0)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_reference_total_row(self):
        # P=0.92, R=0.81 round-trip to F1=0.86
        counts = ConfusionCounts(tp=7452, fp=648, fn=1748, tn=0)
        m = metrics_from_counts(counts)
        assert abs(m.precision - 0.92) < 1e-12
        assert abs(m.recall - 0.81) < 1e-12
        assert abs(m.f1 - 0.8615) < 5e-4
        assert abs(m.f1 - 0.86) < 5e-3

    def test_confusion_matrix_row(self):
        m = metrics_from_counts(ConfusionCounts(tp=94, fp=6, fn=21, tn=0))
        assert abs(m.precision - 0.94) < 1e-12
        assert abs(m.recall - 94 / 115) < 1e-12
        assert abs(m.recall - 0.8174) < 5e-4

    def test_zero_denominators(self):
        counts, m = score_detection([False, False], [False, True])
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            score_detection([True], [True, False])

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            score_detection([], [])

    def test_counts_total(self):
        counts, _ = score_detection(
            [True, True, False, False], [True, False, True, False]
        )
        assert counts.total == 4
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)

    def test_metric_bounds_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            preds = rng.integers(2, size=n).astype(bool).tolist()
            labels = rng.integers(2, size=n).astype(bool).tolist()
            _, m = score_detection(preds, labels)
            for value in (m.precision, m.recall, m.f1):
                assert 0.0 <= value <= 1.0

    def test_partition_additivity(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(2, size=40).astype(bool).tolist()
        labels = rng.integers(2, size=40).astype(bool).tolist()
        whole, _ = score_detection(preds, labels)
        left, _ = score_detection(preds[:17], labels[:17])
        right, _ = score_detection(preds[17:], labels[17:])
        assert [a + b for a, b in zip(astuple(left), astuple(right))] == list(astuple(whole))

    def test_f1_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            preds = rng.integers(2, size=n).astype(bool).tolist()
            labels = rng.integers(2, size=n).astype(bool).tolist()
            _, m = score_detection(preds, labels)
            if m.precision + m.recall:
                again = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert abs(again - m.f1) < 5e-3


def spec(text):
    """The spec `text` parses to; text that does not parse stays as it is,
    the way `collect_outcomes` keeps the raw tokens of a failed detag."""
    if text is None:
        return None
    try:
        return parse_spec(text)
    except DslError:
        return text


def generation_em(predicted, gold):
    """Report exact match over paired prediction and gold spec texts
    (None = not flagged / no gold spec)."""
    outcomes = [
        outcome(i, g is not None, p is not None, ExtractionType.SIMPLE, None, spec(g), spec(p))
        for i, (p, g) in enumerate(zip(predicted, gold, strict=True))
    ]
    return report_from_outcomes(outcomes).generation_em


class TestScoreGeneration:
    def test_perfect_match(self):
        assert generation_em(["a > 5"], ["a > 5"]) == 1.0

    def test_whitespace_variant_matches(self):
        assert generation_em(["x in [2,7]"], ["x in [2, 7]"]) == 1.0

    def test_denominator_is_detected_gold_positives(self):
        # missed gold (None prediction) and false alarm (None gold) are skipped
        rate = generation_em(
            ["a > 5", None, "b == on", "c > 1"],
            ["a > 5", "missed > 1", None, "c > 2"],
        )
        assert rate == 0.5

    def test_unparseable_prediction_is_mismatch(self):
        assert generation_em(["> > and"], ["a > 5"]) == 0.0

    def test_no_detected_positives_scores_zero(self):
        assert generation_em([None, None], ["a > 5", None]) == 0.0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(3)
        pool = ["a > 5", "b < 2", "c == on", "d in [1, 2]"]
        preds, golds = [], []
        for _ in range(20):
            golds.append(pool[int(rng.integers(4))] if rng.random() < 0.7 else None)
            if rng.random() < 0.75:
                preds.append(pool[int(rng.integers(4))])
            else:
                preds.append(None)
        hits = total = 0
        for p, g in zip(preds, golds):
            if p is None or g is None:
                continue
            total += 1
            hits += parse_spec(p) == parse_spec(g)
        want = hits / total if total else 0.0
        assert generation_em(preds, golds) == want


def outcome(i, label, flagged, kind, cat, expected=None, got=None):
    return SampleOutcome(
        index=i, label=label, flagged=flagged, type=kind, category=cat,
        expected=expected, got=got,
    )


def counting(monkeypatch, module, name):
    """Replace `module.name` with a wrapper; returns its list of calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def mixed_outcomes():
    S, CS = ExtractionType.SIMPLE, ExtractionType.COMPLEX_SINGLE
    Q, U = Category.QUANTITATIVE, Category.UTILIZATION
    return [
        outcome(0, True, True, S, Q, spec("a > 5"), spec("a > 5")),
        outcome(1, True, True, S, Q, spec("b < 2"), "b <= 3"),  # detag failed
        outcome(2, True, False, CS, U, spec("c == on"), None),
        outcome(3, False, True, S, None, None, spec("d > 1")),
        outcome(4, False, False, CS, None, None, None),
        outcome(5, True, True, CS, U, spec("e in [1, 2]"), spec("e in [1,2]")),
    ]


class TestBreakdown:
    def test_groups_cover_all_samples(self):
        section = breakdown(mixed_outcomes(), "type")
        assert set(section) == {"simple", "complex_single"}
        assert section["simple"]["count"] == 3
        assert section["complex_single"]["count"] == 3
        total = sum(row["count"] for row in section.values())
        assert total == 6

    def test_single_group_equals_overall(self):
        rows = [o for o in mixed_outcomes() if o.type is ExtractionType.SIMPLE]
        section = breakdown(rows, "type")
        counts, metrics = score_detection(
            [o.flagged for o in rows], [o.label for o in rows]
        )
        entry = section["simple"]
        assert entry["tp"] == counts.tp and entry["fp"] == counts.fp
        assert entry["precision"] == metrics.precision
        assert entry["f1"] == metrics.f1

    def test_partition_sums_match_overall(self):
        rows = mixed_outcomes()
        section = breakdown(rows, "type")
        whole, _ = score_detection(
            [o.flagged for o in rows], [o.label for o in rows]
        )
        for field in ("tp", "fp", "fn", "tn"):
            assert sum(r[field] for r in section.values()) == getattr(whole, field)

    def test_category_grouping_skips_uncategorized(self):
        section = breakdown(mixed_outcomes(), "category")
        assert set(section) == {"quantitative", "utilization"}
        assert sum(r["count"] for r in section.values()) == 4
        assert "generation_em" not in section["quantitative"]

    def test_type_groups_carry_generation_em(self):
        section = breakdown(mixed_outcomes(), "type")
        assert section["simple"]["generation_em"] == 0.5  # 1 of 2 detected match
        assert section["complex_single"]["generation_em"] == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(EvalError):
            breakdown(mixed_outcomes(), "flavor")

    def test_empty_groups_omitted(self):
        rows = [o for o in mixed_outcomes() if o.type is ExtractionType.SIMPLE]
        assert "complex_multi" not in breakdown(rows, "type")


class TestReport:
    def test_report_fields_and_json(self):
        report = report_from_outcomes(mixed_outcomes())
        data = report.to_dict()
        assert set(data) == {
            "precision", "recall", "f1", "confusion", "generation_em",
            "by_type", "by_category", "errors",
        }
        json.dumps(data)  # must be serializable as-is

    def test_confusion_normalizations(self):
        report = report_from_outcomes(mixed_outcomes())
        c = report.to_dict()["confusion"]
        assert (c["tp"], c["fp"], c["fn"], c["tn"]) == (3, 1, 1, 1)
        assert c["predicted_positive"]["tp"] == 0.75
        assert c["predicted_positive"]["fp"] == 0.25
        assert c["gold_positive"]["tp"] == 0.75
        assert c["gold_positive"]["fn"] == 0.25

    def test_error_list_contents(self):
        report = report_from_outcomes(mixed_outcomes())
        ids = [e["id"] for e in report.errors]
        # miss, false alarm, and the generation mismatch; exact matches absent
        assert ids == [1, 2, 3]
        miss = next(e for e in report.errors if e["id"] == 2)
        assert miss == {"id": 2, "expected": "c == on", "got": None}
        mismatch = next(e for e in report.errors if e["id"] == 1)
        assert mismatch == {"id": 1, "expected": "b < 2", "got": "b <= 3"}

    def test_structural_match_is_not_an_error(self):
        report = report_from_outcomes(mixed_outcomes())
        assert all(e["id"] != 5 for e in report.errors)

    def test_overall_em_counts_detected_gold_positives(self):
        report = report_from_outcomes(mixed_outcomes())
        assert report.generation_em == pytest.approx(2 / 3)

    def test_only_the_error_list_prints_specs(self, monkeypatch):
        outcomes = mixed_outcomes()
        parsed = counting(monkeypatch, dsl, "parse_spec")
        printed = counting(monkeypatch, eval_module, "print_spec")
        report_from_outcomes(outcomes)
        assert parsed == []
        # gold of errors 1 and 2, the false alarm's rule of error 3
        assert printed == [(spec("b < 2"),), (spec("c == on"),), (spec("d > 1"),)]

    def test_empty_outcomes_rejected(self):
        with pytest.raises(EvalError):
            report_from_outcomes([])

    def test_render_is_textual(self):
        report = report_from_outcomes(mixed_outcomes())
        text = render_report(report)
        assert "precision" in text
        assert "simple" in text
        assert "Errors: 3" in text


@pytest.fixture(scope="module")
def trained():
    """A small model trained to flag and generate its own samples."""
    from specsyn.model.network import ModelConfig
    from specsyn.model.train import TrainConfig, train
    from specsyn.synthdata import LabeledSample

    samples = []
    for i in range(6):
        samples.append(LabeledSample(
            text="set <keyword1> to more than <num1> units .",
            tags={"keyword1": f"opt{i}", "num1": str(10 + i)},
            label=True,
            target=("<keyword1>", ">", "<num1>"),
            category=Category.QUANTITATIVE,
            type=ExtractionType.SIMPLE,
        ))
        samples.append(LabeledSample(
            text="see page <num1> for details of <keyword1> .",
            tags={"keyword1": f"opt{i}", "num1": str(i)},
            label=False,
            target=(),
            category=None,
            type=ExtractionType.SIMPLE,
        ))
    config = ModelConfig(d_model=16, blocks=1, heads=4, max_len=32)
    result = train(samples, TrainConfig(epochs=200, rng_seed=3), config)
    return result.model, samples


class TestModelEvaluation:
    def test_evaluate_runs_the_two_step_pipeline(self, trained):
        model, samples = trained
        report = evaluate(model, samples)
        assert report.confusion.total == len(samples)
        assert report.metrics.f1 == 1.0
        assert report.generation_em == 1.0
        assert gold_spec(samples[0]) == parse_spec("opt0 > 10")

    def test_evaluate_parses_each_rule_once(self, trained, monkeypatch):
        model, samples = trained
        # a positive whose output is not its target, so that its gold spec
        # needs a detag of its own
        samples = samples + [replace(samples[0], target=("<keyword1>", "<", "<num1>"))]
        results = [infer_oracle.infer(model, s.text, s.tags) for s in samples]
        off_target = sum(s.label and r.tokens != s.target for s, r in zip(samples, results))
        assert off_target == 1
        detagged = counting(monkeypatch, eval_module, "detag")
        parsed = counting(monkeypatch, dsl, "parse_spec")
        real_report = eval_module.report_from_outcomes
        parsed_in_report = []

        def report_from_outcomes(outcomes):
            before = len(parsed)
            report = real_report(outcomes)
            parsed_in_report.append(len(parsed) - before)
            return report

        monkeypatch.setattr(eval_module, "report_from_outcomes", report_from_outcomes)
        report = evaluate(model, samples)
        positives = sum(sample.label for sample in samples)
        flagged = report.confusion.tp + report.confusion.fp
        assert flagged == sum(r.flagged for r in results) and positives > off_target
        # one detag for each generated sequence and for each gold target
        # that the output did not spell
        assert len(detagged) == flagged + off_target
        assert len(parsed) == len(detagged)
        assert parsed_in_report == [0]

    def test_overlong_labeled_sample_is_rejected(self):
        from specsyn.model.network import ModelConfig
        from specsyn.model.vocab import Vocab, reserved_tokens
        from specsyn.synthdata import LabeledSample

        config = ModelConfig(d_model=8, blocks=1, heads=2, max_len=4)
        model = Model.initialize(config, Vocab(reserved_tokens()))
        sample = LabeledSample(
            text="set <keyword1> above <num1> now",
            tags={"keyword1": "a", "num1": "3"},
            label=True,
            target=("<keyword1>", ">", "<num1>"),
            category=Category.QUANTITATIVE,
            type=ExtractionType.SIMPLE,
        )
        short = LabeledSample(
            text="<keyword1> on",
            tags={"keyword1": "a"},
            label=False,
            target=(),
            category=None,
            type=ExtractionType.SIMPLE,
        )
        with pytest.raises(SequenceTooLong):
            evaluate(model, [sample])
        with pytest.raises(SequenceTooLong):  # from inside a batch of fitting texts
            evaluate(model, [short, sample, short])

    def test_collect_outcomes_equals_outcomes_with_gold_spec(self, trained):
        model, samples = trained
        # positives whose output is not their target
        samples = samples + [
            replace(sample, target=target)
            for sample, target in zip([s for s in samples if s.label], (
                ("<keyword1>", "<", "<num1>"),
                ("use", "(", "<keyword1>", ")"),
                ("<keyword1>", ">", "<num1>", "and", "<keyword1>", "<", "<num1>"),
            ))
        ]
        # outputs that do not parse, from an untrained generator
        untrained = Model.initialize(model.config, model.vocab, rng_seed=1)
        untrained.params["detect/b3"][:] = (-50.0, 50.0)
        got = {}
        for name, m in (("trained", model), ("untrained", untrained)):
            results = eval_module.infer_batch(m, [(s.text, s.tags) for s in samples])
            want = [
                SampleOutcome(
                    index=i, label=s.label, flagged=r.flagged, type=s.type, category=s.category,
                    expected=gold_spec(s), got=r.rule if r.failure is None else " ".join(r.tokens),
                )
                for i, (s, r) in enumerate(zip(samples, results))
            ]
            got[name] = collect_outcomes(m, samples)
            assert got[name] == want, name
        assert sum(o.match is True for o in got["trained"]) == 6
        assert sum(o.match is False for o in got["trained"]) == 3
        assert any(isinstance(o.got, str) and o.label for o in got["untrained"])

    def test_gold_spec_for_negative_is_none(self):
        from specsyn.synthdata import LabeledSample

        sample = LabeledSample(
            text="see page <num1> for details of <keyword1> .",
            tags={"keyword1": "a", "num1": "3"},
            label=False,
            target=(),
            category=None,
            type=ExtractionType.SIMPLE,
        )
        assert gold_spec(sample) is None


# words of the `trained` fixture's vocabulary, and one it has never seen
WORDS = ("set", "to", "more", "than", "units", ".", "see", "page", "for", "details", "of", "zzz")
SURFACES = {"keyword": "opt{}", "num": "{}", "bool": "on", "unit": "mb", "format": "url"}


def random_items(rng, n, max_words=12):
    """(tagged text, tags) pairs: words and tag tokens of every class, with
    slots 1-3 and 9 (past the reserved 8), and tag maps that miss about a
    fifth of the tags their text holds."""
    items = []
    for _ in range(n):
        tokens, tags = [], {}
        for _ in range(rng.randint(0, max_words)):
            if rng.random() < 0.6:
                tokens.append(rng.choice(WORDS))
                continue
            tag_id = f"{rng.choice(list(TagClass)).value}{rng.choice((1, 1, 2, 3, 9))}"
            tokens.append(f"<{tag_id}>")
            if rng.random() < 0.8:
                cls = tag_id.rstrip("0123456789")
                tags[tag_id] = SURFACES[cls].format(rng.randint(0, 99))
        items.append((" ".join(tokens), tags))
    return items


def encoder_calls(monkeypatch):
    """Record the (ids, mask) of every `Model._encode_batch` call."""
    run_map_serially(monkeypatch)
    calls = []
    real = Model._encode_batch

    def encode_batch(self, ids, mask, **kwargs):
        calls.append((ids, mask))
        return real(self, ids, mask, **kwargs)

    monkeypatch.setattr(Model, "_encode_batch", encode_batch)
    return calls


def distinct_rows(model, items):
    """Each item's [CLS]-prefixed id sequence, the key of its encoder row."""
    return [(CLS_ID, *model.vocab.encode(text)) for text, _ in items]


def copy_model(model):
    return Model(model.config, model.vocab, {k: v.copy() for k, v in model.params.items()})


class TestInferBatch:
    """`infer_batch` against the one-row loop it replaced (tests/infer_oracle.py)."""

    def assert_matches_oracle(self, model, items, want=None):
        got = eval_module.infer_batch(model, items)
        if want is None:
            want = [infer_oracle.infer(model, text, tags) for text, tags in items]
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert (g.flagged, g.tokens, g.rule, g.failure) == (
                w.flagged, w.tokens, w.rule, w.failure), (i, items[i])
        return got

    def test_repeated_texts_share_rows(self, trained, monkeypatch):
        model, samples = trained
        monkeypatch.setattr(network, "DECODE_ROWS", 16)  # several decode batches
        rng = random.Random(29)
        items = [(s.text, s.tags) for s in samples] + random_items(rng, 150)
        for text, tags in rng.sample(items, 80):
            other_ids = dict(tags)
            if other_ids:
                del other_ids[rng.choice(list(other_ids))]
            other_ids[f"{rng.choice(list(TagClass)).value}{rng.randint(1, 3)}"] = "9"
            items += [
                (text, {tag_id: surface + "0" for tag_id, surface in tags.items()}),
                (text, other_ids),
                (text, tags),
            ]
        rng.shuffle(items)
        want = [infer_oracle.infer(model, text, tags) for text, tags in items]
        calls = encoder_calls(monkeypatch)
        decoded = []  # the tag map of each decoded row
        real_decode = Model._decode

        def decode(self, h_c, tag_maps):
            decoded.extend(tag_maps)
            return real_decode(self, h_c, tag_maps)

        monkeypatch.setattr(Model, "_decode", decode)
        got = self.assert_matches_oracle(model, items, want)
        rows = distinct_rows(model, items)
        # each distinct id sequence reaches the encoder once
        encoded = [tuple(ids[row, mask[row]].tolist()) for ids, mask in calls for row in range(len(ids))]
        assert sorted(encoded) == sorted(set(rows)) and len(encoded) < len(items)
        # and is decoded once for each set of tag ids its flagged items hold
        pairs = {(ids, frozenset(tags)) for ids, (_, tags), r in zip(rows, items, got) if r.flagged}
        assert len(decoded) == len(pairs) > 2 * network.DECODE_ROWS
        assert (collections.Counter(frozenset(tags) for tags in decoded)
                == collections.Counter(tag_ids for _, tag_ids in pairs))
        assert sum(r.flagged for r in got) > len(pairs)

    def test_random_tagged_texts(self, trained, monkeypatch):
        model, samples = trained
        monkeypatch.setattr(network, "DECODE_ROWS", 16)  # several decode batches
        items = [(s.text, s.tags) for s in samples] + random_items(random.Random(7), 300)
        got = self.assert_matches_oracle(model, items)
        assert any(r.rule is not None for r in got)
        assert any(r.failure is not None for r in got)
        assert sum(r.flagged for r in got) > network.DECODE_ROWS
        assert not all(r.flagged for r in got)

    def test_length_group_larger_than_the_token_budget(self, trained, monkeypatch):
        model, samples = trained
        # distinct texts of 8 tokens after [CLS], 9 tokens each, one length
        # group of more than ENCODE_TOKEN_BUDGET tokens
        rng = random.Random(23)
        words = WORDS[:-1] + ("<keyword1>", "<num1>")  # none of them [UNK]
        texts = {s.text for s in samples}
        while len(texts) < ENCODE_TOKEN_BUDGET // 9 * 2 + 5:
            texts.add(" ".join(rng.choice(words) for _ in range(8)))
        items = [(text, {"keyword1": "opt1", "num1": "7"}) for text in sorted(texts)]
        sequences = {tuple(model.vocab.encode(text)) for text, _ in items}
        assert len(sequences) == len(items) and {len(ids) for ids in sequences} == {8}
        calls = encoder_calls(monkeypatch)
        eval_module.infer_batch(model, items)
        assert sum(ids.shape[0] for ids, _ in calls) == len(items)
        assert len(calls) == -(-len(items) // (ENCODE_TOKEN_BUDGET // 9)) > 1
        self.assert_matches_oracle(model, items)

    def test_encoder_calls_take_rows_in_length_order_within_the_budget(self, trained, monkeypatch):
        model, _ = trained
        items = random_items(random.Random(3), 200, max_words=model.config.max_len - 1)
        sequences = [[CLS_ID] + model.vocab.encode(text) for text, _ in items]
        calls = encoder_calls(monkeypatch)
        groups = network.encode_plan(sequences)
        for rows in groups:
            model.encode_rows(sequences, rows)
        assert len(groups) == len(calls) < len(items)
        # every row once, in a stable sort by length
        assert [i for rows in groups for i in rows] == sorted(
            range(len(items)), key=lambda i: len(sequences[i]))
        for n, (rows, (ids, mask)) in enumerate(zip(groups, calls)):
            lengths = [len(sequences[i]) for i in rows]
            assert ids.shape == (len(rows), max(lengths))
            assert ids.size <= ENCODE_TOKEN_BUDGET or len(rows) == 1
            for row, (i, length) in enumerate(zip(rows, lengths)):
                assert ids[row, :length].tolist() == sequences[i] and mask[row, :length].all()
                assert (ids[row, length:] == PAD_ID).all() and not mask[row, length:].any()
            # padded exactly when the lengths differ
            assert mask.all() == (min(lengths) == max(lengths))
            if n + 1 < len(groups):  # the next row would not have fitted
                assert (len(rows) + 1) * len(sequences[groups[n + 1][0]]) > ENCODE_TOKEN_BUDGET

    def test_results_do_not_depend_on_batch_sizes(self, trained, monkeypatch):
        model, samples = trained
        items = [(s.text, s.tags) for s in samples] + random_items(random.Random(13), 300)
        want = [infer_oracle.infer(model, text, tags) for text, tags in items]
        rows = distinct_rows(model, items)
        # one decode per distinct id sequence and set of tag ids
        flagged = len({(ids, frozenset(tags)) for ids, (_, tags), w in zip(rows, items, want)
                       if w.flagged})
        assert 1 < flagged < len(set(rows)) < len(items)
        calls = encoder_calls(monkeypatch)
        decoded = []  # rows per decode batch
        real_decode = Model._decode

        def decode(self, h_c, tag_maps):
            decoded.append(len(tag_maps))
            return real_decode(self, h_c, tag_maps)

        monkeypatch.setattr(Model, "_decode", decode)
        for budget in (1, ENCODE_TOKEN_BUDGET, 10_000):
            for decode_rows in (1, 300):
                monkeypatch.setattr(network, "ENCODE_TOKEN_BUDGET", budget)
                monkeypatch.setattr(network, "DECODE_ROWS", decode_rows)
                calls.clear()
                decoded.clear()
                self.assert_matches_oracle(model, items, want)
                assert sum(ids.shape[0] for ids, _ in calls) == len(set(rows))
                assert all(ids.size <= budget or ids.shape[0] == 1 for ids, _ in calls)
                if budget == 1:
                    assert len(calls) == len(set(rows))
                elif budget == 10_000:  # every row fits one call
                    assert len(calls) == 1
                assert decoded == ([1] * flagged if decode_rows == 1 else [flagged])

    def test_one_detect_call_over_every_row(self, trained, monkeypatch):
        model, samples = trained
        items = [(s.text, s.tags) for s in samples] + random_items(random.Random(19), 300)
        want = [infer_oracle.infer(model, text, tags) for text, tags in items]
        calls = encoder_calls(monkeypatch)
        detected = []
        real = Model.detect

        def detect(self, h_c):
            detected.append(len(h_c))
            return real(self, h_c)

        monkeypatch.setattr(Model, "detect", detect)
        self.assert_matches_oracle(model, items, want)
        rows = set(distinct_rows(model, items))
        assert len(calls) > 1 and detected == [len(rows)] and len(rows) < len(items)

    def test_caller_model_stays_float64_and_unchanged(self, trained, monkeypatch):
        model, samples = trained
        before = {name: tensor.copy() for name, tensor in model.params.items()}
        dtypes = []
        real = Model._encode_batch

        def encode_batch(self, ids, mask, **kwargs):
            dtypes.append(self.params["embed/tokens"].dtype)
            return real(self, ids, mask, **kwargs)

        monkeypatch.setattr(Model, "_encode_batch", encode_batch)
        items = [(s.text, s.tags) for s in samples] + random_items(random.Random(15), 50)
        assert any(r.flagged for r in eval_module.infer_batch(model, items))
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        assert model.params.keys() == before.keys()
        for name, tensor in model.params.items():
            assert tensor.dtype == np.float64 and np.array_equal(tensor, before[name]), name

    def test_float32_inference_agrees_with_float64(self, trained):
        model, samples = trained
        narrow = model.cast(np.float32)
        items = [(s.text, s.tags) for s in samples] + random_items(random.Random(17), 300)
        sequences = [[CLS_ID] + model.vocab.encode(text) for text, _ in items]

        def pooled(m):
            h = np.zeros((len(items), m.config.d_model), dtype=m.params["pool/w1"].dtype)
            for rows in network.encode_plan(sequences):
                h[rows] = m.encode_rows(sequences, rows)
            return h

        wide_h, narrow_h = pooled(model), pooled(narrow)
        assert wide_h.dtype == np.float64 and narrow_h.dtype == np.float32
        assert np.abs(narrow_h - wide_h).max() < 1e-5
        wide_p, narrow_p = model.detect(wide_h), narrow.detect(narrow_h)
        flags = wide_p[:, 1] > wide_p[:, 0]
        assert (flags == (narrow_p[:, 1] > narrow_p[:, 0])).all()
        assert 1 < flags.sum() < len(items)
        tag_maps = [tags for (_, tags), flag in zip(items, flags) if flag]
        assert (model.generate_batch(wide_h[flags], tag_maps)
                == narrow.generate_batch(narrow_h[flags], tag_maps))

    def test_cast_widens_a_float32_trained_model_exactly(self, trained):
        model = trained[0]
        narrow = model.cast(np.float32)
        wide = narrow.cast(np.float64)
        assert (narrow.config, narrow.vocab) == (model.config, model.vocab)
        for name, tensor in model.params.items():
            assert narrow.params[name].dtype == np.float32
            assert wide.params[name].dtype == np.float64
            assert np.array_equal(wide.params[name], tensor), name
            assert not np.shares_memory(wide.params[name], tensor)

    def test_all_negative_and_empty(self, trained, monkeypatch):
        model = copy_model(trained[0])
        model.params["detect/b3"][:] = (50.0, -50.0)
        monkeypatch.setattr(Model, "generate_batch", None)  # must not be called
        items = random_items(random.Random(5), 40)
        assert eval_module.infer_batch(model, items) == [Inference(False)] * len(items)
        assert eval_module.infer_batch(model, []) == []

    def test_rows_stop_at_eos_or_at_the_token_limit(self, trained):
        model = copy_model(trained[0])
        p, vocab = model.params, model.vocab
        p["detect/b3"][:] = (-50.0, 50.0)
        p["generator/out_w"][:] = 0.0
        p["generator/out_b"][:] = 0.0
        # <num1> wherever the tag map allows it, [EOS] elsewhere
        p["generator/out_b"][vocab.id_of("<num1>")] = 50.0
        p["generator/out_b"][EOS_ID] = 49.0
        items = random_items(random.Random(9), 60)
        got = self.assert_matches_oracle(model, items)
        limited = [r for (_, tags), r in zip(items, got) if "num1" in tags]
        assert limited and all(len(r.tokens) == GENERATE_MAX_TOKENS for r in limited)
        assert any(r.tokens == () for r in got)

    def test_rows_of_one_decode_batch_stop_at_different_steps(self, trained):
        # untrained: each row's tokens, and where it stops, hang on its LSTM state
        model = Model.initialize(trained[0].config, trained[0].vocab, rng_seed=0)
        model.params["detect/b3"][:] = (-50.0, 50.0)
        got = self.assert_matches_oracle(model, random_items(random.Random(11), 80))
        lengths = {len(r.tokens) for r in got}
        assert len(lengths) > 10 and GENERATE_MAX_TOKENS in lengths


class TestGenerateBatch:
    """`Model.generate_batch` equals the one-row greedy loop of
    tests/infer_oracle.py, row by row, at every decode batch size."""

    ALL_TAGS = {f"{cls.value}{slot}": "x" for cls in TagClass for slot in range(1, TAG_SLOTS + 1)}

    def random_tag_map(self, rng):
        kind = rng.random()
        if kind < 0.15:
            return {}
        if kind < 0.3:
            return dict(self.ALL_TAGS)
        tags = {}
        for _ in range(rng.randint(1, 8)):
            tags[f"{rng.choice(list(TagClass)).value}{rng.randint(1, TAG_SLOTS + 1)}"] = "x"
        if rng.random() < 0.3:  # ids that no tag token stands for
            tags[rng.choice(("num0", "num10", "keyword", "word1", "<num1>"))] = "x"
        return tags

    @pytest.mark.parametrize("rows", [1, 3, DECODE_ROWS])
    def test_equals_the_one_row_oracle(self, trained, monkeypatch, rows):
        monkeypatch.setattr(network, "DECODE_ROWS", rows)
        rng = random.Random(rows)
        trained_model = trained[0]
        untrained = Model.initialize(trained_model.config, trained_model.vocab, rng_seed=rows)
        for model in (trained_model.cast(np.float32), untrained):
            d = model.config.d_model
            for n in (1, 2, rows, rows + 1, 2 * rows + 3, 40):
                h = np.array([[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(n)],
                             dtype=model.params["pool/w1"].dtype)
                tag_maps = [self.random_tag_map(rng) for _ in range(n)]
                got = model.generate_batch(h, tag_maps)
                want = [infer_oracle.generate(model, h[i], tag_maps[i]) for i in range(n)]
                assert got == want, (n, tag_maps)


KEYWORDS = KeywordSet("test", tuple(f"opt{i}" for i in range(6)))


def random_document(rng, sentences=10):
    """Sentences that the `trained` fixture flags, and sentences of its
    words mixed with keywords, numbers and lexicon surfaces."""
    out = []
    for _ in range(sentences):
        if rng.random() < 0.3:
            out.append(f"Set opt{rng.randint(0, 5)} to more than {rng.randint(0, 99)} units.")
            continue
        words = [rng.choice(("The", "See", "Set"))]
        for _ in range(rng.randint(0, 15)):
            pick = rng.random()
            if pick < 0.5:
                words.append(rng.choice(WORDS))
            elif pick < 0.7:
                words.append(rng.choice(KEYWORDS.keywords))
            elif pick < 0.9:
                words.append(str(rng.randint(0, 99)))
            else:
                words.append(rng.choice(("on", "mb", "url")))
        out.append(" ".join(words) + ".")
    return " ".join(out)


def random_candidates(seed, documents=6):
    rng = random.Random(seed)
    candidates = []
    for d in range(documents):
        sentences = ingest(random_document(rng))
        candidates += extract_candidates(sentences, KEYWORDS, doc_id=f"doc{d}")
    return candidates


def with_max_len(model, max_len):
    """The same model with its positional table cut to max_len."""
    params = {**model.params, "embed/positions": model.params["embed/positions"][:max_len]}
    return Model(replace(model.config, max_len=max_len), model.vocab, params)


class TestSynthesize:
    """`synthesize` against tagging (tests/tag_oracle.py), cutting to
    max_len - 1 tokens and running (tests/infer_oracle.py) each candidate
    alone, with only the tags of the literals it kept."""

    def assert_matches_reference(self, model, candidates, keywords):
        lexicons = load_lexicons()
        got = eval_module.synthesize(model, candidates, keywords, lexicons)
        want = []
        for candidate in candidates:
            tagged = tag_oracle.tag_text(candidate.text, keywords, lexicons)
            kept = tokenize(tagged.text)[: model.config.max_len - 1]
            tags = {tag_id: surface for tag_id, surface in tagged.tags.items()
                    if f"<{tag_id}>" in kept}
            want.append(infer_oracle.infer(model, " ".join(kept), tags))
        assert len(got) == len(want) == len(candidates)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, (i, candidates[i].text)
        return got

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_documents(self, trained, seed):
        model, _ = trained
        got = self.assert_matches_reference(model, random_candidates(seed), KEYWORDS)
        assert any(r.rule is not None for r in got)
        assert any(r.failure is not None for r in got)
        assert not all(r.flagged for r in got)

    def test_manual(self, trained):
        keywords = load_keyword_file(FIXTURES / "keywords.txt")
        candidates = extract_candidates(
            ingest((FIXTURES / "manual.txt").read_text(encoding="utf-8")), keywords
        )
        assert candidates
        for model in (trained[0], with_max_len(trained[0], 8)):
            self.assert_matches_reference(model, candidates, keywords)

    def test_small_max_len_cuts_candidates_and_their_tags(self, trained, caplog):
        model = with_max_len(trained[0], 8)
        candidates = random_candidates(4)
        got = self.assert_matches_reference(model, candidates, KEYWORDS)
        cut = [r for c, r in zip(candidates, got)
               if len(tokenize(tag_oracle.tag_text(c.text, KEYWORDS).text)) > 7]  # max_len - 1
        assert len(cut) > len(candidates) // 2
        assert any(r.rule is not None for r in cut)
        truncations = [r for r in caplog.records if "truncating" in r.getMessage()]
        assert len(truncations) == len(cut)

    def test_literals_past_the_last_tag_slot(self, trained, caplog):
        model, _ = trained
        # ten numbers: <num9> and <num10> have no reserved token
        candidates = extract_candidates(
            ingest("Set opt1 to 1, 2, 3, 4, 5, 6, 7, 8, 9 or 10. Keep opt2 below 8."),
            KEYWORDS, doc_id="doc",
        )
        tagged = tag_oracle.tag_text(candidates[0].text, KEYWORDS)
        assert [t for t in tagged.tags if t not in TAG_TOKEN_IDS] == ["num9", "num10"]
        self.assert_matches_reference(model, candidates, KEYWORDS)
        assert [r.getMessage() for r in caplog.records] == [
            f"candidate from {source} has literals past tag slot 8, seen as [UNK]: '9', '10'"
            for source in ("doc:0", "doc:0-1")
        ]

    def test_no_candidates(self, trained):
        assert eval_module.synthesize(trained[0], [], KEYWORDS, load_lexicons()) == []

import json
import re

import numpy as np
import pytest

from specsyn import synthdata as sd
from specsyn.corpus import ExtractionType, KeywordSet
from specsyn.dsl import Category, parse_spec
from specsyn.files import InputError
from specsyn.synthdata import (
    InsufficientSeeds,
    LabeledSample,
    NegativeTemplate,
    SeedTemplate,
    SlotRangeError,
    SynthError,
    TemplateError,
    build_dataset,
    compose_positive,
)
from specsyn.tagger import detag, load_lexicons


@pytest.fixture(scope="module")
def library():
    return sd.default_library()


@pytest.fixture(scope="module")
def distractors():
    return sd.default_distractors()


@pytest.fixture(scope="module")
def lex():
    return load_lexicons()


class TestSeedLibrary:
    def test_shipped_library_shape(self, library):
        assert len(library.templates) == 50
        assert len(library.negatives) >= 3
        assert {t.type for t in library.templates} == set(ExtractionType)
        assert {t.category for t in library.templates} == set(Category)

    def test_target_slots_must_match_sentence_slots(self):
        with pytest.raises(TemplateError):
            SeedTemplate(
                "bad", ("set {kw} to {num}",), tuple("{kw} > {num2}".split()),
                ExtractionType.SIMPLE, Category.QUANTITATIVE,
            )

    def test_keyword_slot_required(self):
        with pytest.raises(TemplateError):
            SeedTemplate(
                "bad", ("use {num} here",), tuple("x > {num}".split()),
                ExtractionType.SIMPLE, Category.QUANTITATIVE,
            )

    def test_version_slots_rejected_in_positives(self):
        with pytest.raises(TemplateError):
            SeedTemplate(
                "bad", ("{kw} needs {version}",), tuple("{kw} == {version}".split()),
                ExtractionType.SIMPLE, Category.QUANTITATIVE,
            )

    def test_declared_type_checked_against_structure(self):
        with pytest.raises(TemplateError):
            SeedTemplate(
                "bad", ("{kw} and {kw2} interact",),
                tuple("with ( {kw} , {kw2} )".split()),
                ExtractionType.SIMPLE, Category.INTERRELATION,
            )

    def test_negative_needs_keyword_slot(self):
        with pytest.raises(TemplateError):
            NegativeTemplate("bad", ("nothing to see here",))

    def test_duplicate_ids_rejected(self, library):
        with pytest.raises(TemplateError):
            sd.SeedLibrary(
                library.keywords,
                library.templates + (library.templates[0],),
                library.negatives,
            )


class TestComposePositive:
    def test_deterministic(self, library, distractors, lex):
        t = library.templates[0]
        a = compose_positive(t, distractors, 42, library.keywords, lex)
        b = compose_positive(t, distractors, 42, library.keywords, lex)
        assert a == b and a.gold == b.gold

    def test_different_seeds_differ(self, library, distractors, lex):
        t = library.templates[0]
        a = compose_positive(t, distractors, 1, library.keywords, lex)
        b = compose_positive(t, distractors, 2, library.keywords, lex)
        assert a != b

    def test_label_and_target_consistent(self, library, distractors, lex):
        for i, t in enumerate(library.templates):
            s = compose_positive(t, distractors, i, library.keywords, lex)
            assert s.label and s.target
            assert detag(list(s.target), s.tags) == s.gold

    def test_keywords_present_in_text(self, library, distractors, lex):
        for i, t in enumerate(library.templates[:10]):
            s = compose_positive(t, distractors, 100 + i, library.keywords, lex)
            assert "<keyword1>" in s.text

    def test_fixture_template_with_pinned_fillers(self, library, lex):
        t = next(x for x in library.templates if x.id == "gt-necessary")
        fillers = {"kw": "user_port", "num": "1500"}
        text = sd._fill(t.sentences[0], fillers)
        assert text == "it is necessary to use a number greater than 1500 for user_port."
        from specsyn.tagger import tag_text

        tagged = tag_text(text, library.keywords, lex)
        target = sd._target_tokens(t, fillers, tagged)
        assert target == ("<keyword1>", ">", "<num1>")
        assert sd._concrete_spec(t.target, fillers) == parse_spec("user_port > 1500")

    def test_complex_multi_shared_bool_tag(self, library, lex):
        t = next(x for x in library.templates if x.id == "cm-bool-pair")
        fillers = {"kw": "have_ssl", "kw2": "have_open_ssl", "bool": "true"}
        from specsyn.tagger import tag_text

        text = sd._fill(t.sentences[0], fillers)
        tagged = tag_text(text, library.keywords, lex)
        target = sd._target_tokens(t, fillers, tagged)
        assert target == (
            "<keyword1>", "==", "<bool1>", "and", "<keyword2>", "==", "<bool1>",
        )
        gold = sd._concrete_spec(t.target, fillers)
        assert gold == parse_spec("have_ssl == true and have_open_ssl == true")

    def test_slot_range_error(self, library, distractors, lex):
        impossible = SeedTemplate(
            "impossible", ("{kw} ranges from {num} up",),
            tuple("{kw} in [ {num} , -1 ]".split()),
            ExtractionType.SIMPLE, Category.QUANTITATIVE,
        )
        with pytest.raises(SlotRangeError):
            compose_positive(impossible, distractors, 0, library.keywords, lex)

    def test_unrecoverable_slot_detected(self, library, distractors, lex):
        glued = SeedTemplate(
            "glued", ("{kw}x must exceed {num}",),
            tuple("{kw} > {num}".split()),
            ExtractionType.SIMPLE, Category.QUANTITATIVE,
        )
        with pytest.raises(TemplateError):
            compose_positive(glued, distractors, 0, library.keywords, lex)

    def test_empty_distractors_rejected(self, library, lex):
        with pytest.raises(SynthError):
            compose_positive(library.templates[0], (), 0, library.keywords, lex)


def negative_sample(template, distractors, seed, keywords, lex):
    return sd._compose_negative(
        template, distractors, np.random.default_rng(seed), keywords, lex
    )


class TestComposeNegative:
    def test_negative_shape(self, library, distractors, lex):
        for seed in range(20):
            template = library.negatives[seed % len(library.negatives)]
            s = negative_sample(template, distractors, seed, library.keywords, lex)
            assert s.label is False
            assert s.target == ()
            assert s.category is None
            assert "<keyword1>" in s.text

    def test_deterministic(self, library, distractors, lex):
        for template in library.negatives:
            a = negative_sample(template, distractors, 5, library.keywords, lex)
            b = negative_sample(template, distractors, 5, library.keywords, lex)
            assert a == b

    def test_page_reference_form(self, library, distractors, lex):
        t = next(n for n in library.negatives if n.id == "neg-page-ref")
        s = negative_sample(t, distractors, 3, library.keywords, lex)
        assert s.label is False
        assert "see page <num1> for details of <keyword1>" in s.text


class TestBuildDataset:
    def test_sizes_and_split(self, library, distractors, lex):
        ds = build_dataset(library, distractors, 200, 0.3, rng_seed=1, n_test=40, lexicons=lex)
        assert len(ds.train) == 160
        assert len(ds.test) == 40
        positives = sum(s.label for s in ds.train + ds.test)
        assert positives == round(200 * 0.3)

    def test_reproducible(self, library, distractors, lex):
        a = build_dataset(library, distractors, 120, 0.3, rng_seed=9, n_test=20, lexicons=lex)
        b = build_dataset(library, distractors, 120, 0.3, rng_seed=9, n_test=20, lexicons=lex)
        assert a.train == b.train
        assert a.test == b.test
        assert a.manifest == b.manifest

    def test_positive_type_stratification_within_one(self, library, distractors, lex):
        ds = build_dataset(library, distractors, 500, 0.3, rng_seed=3, lexicons=lex)
        n_pos = round(500 * 0.3)
        positives = [s for s in ds.train if s.label]
        counts = {}
        for s in positives:
            counts[s.type] = counts.get(s.type, 0) + 1
        for t in ExtractionType:
            share = sum(x.type is t for x in library.templates) / len(library.templates)
            assert abs(counts.get(t, 0) - n_pos * share) < 1

    def test_manifest_matches_recount(self, library, distractors, lex, tmp_path):
        ds = build_dataset(library, distractors, 150, 0.3, rng_seed=5, n_test=30, lexicons=lex)
        path = tmp_path / "train.jsonl"
        sd.save_dataset(path, ds.train)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == ds.manifest["train"]["total"]
        assert sum(r["label"] for r in records) == ds.manifest["train"]["positives"]
        by_type = {}
        for r in records:
            by_type[r["type"]] = by_type.get(r["type"], 0) + 1
        assert by_type == ds.manifest["train"]["by_type"]

    def test_insufficient_inputs(self, library, distractors, lex):
        with pytest.raises(InsufficientSeeds):
            build_dataset(library, distractors, 9, 0.3, lexicons=lex)
        with pytest.raises(InsufficientSeeds):
            build_dataset(library, distractors, 10, 0.01, lexicons=lex)
        with pytest.raises(SynthError):
            build_dataset(library, distractors, 100, 0.3, n_test=100, lexicons=lex)

    def test_degenerate_single_seed(self, library, distractors, lex):
        tiny = sd.SeedLibrary(
            library.keywords, (library.templates[0],), (library.negatives[0],)
        )
        ds = build_dataset(tiny, distractors, 10, 0.3, rng_seed=2, lexicons=lex)
        assert len(ds.train) == 10
        assert all(
            s.type is ExtractionType.SIMPLE for s in ds.train if s.label
        )

    def test_holdout_templates(self, library, distractors, lex):
        holdout = ("gt-necessary", "neg-page-ref")
        ds = build_dataset(
            library, distractors, 300, 0.3, rng_seed=4, n_test=10,
            holdout_templates=holdout, lexicons=lex,
        )
        assert len(ds.test) == 10
        train_golds = {s.gold for s in ds.train if s.label}
        # held-out template's phrasing is absent from training positives
        assert not any(
            "necessary to use a number greater" in s.text for s in ds.train
        )
        assert train_golds  # other templates still present
        with pytest.raises(InsufficientSeeds):
            build_dataset(
                library, distractors, 100, 0.3, n_test=10,
                holdout_templates=("missing-id",), lexicons=lex,
            )

    def test_texts_fit_encoder_budget(self, library, distractors, lex):
        ds = build_dataset(library, distractors, 400, 0.3, rng_seed=8, n_test=50, lexicons=lex)
        for s in ds.train + ds.test:
            n = len(re.sub(r"(<(?:bool|num|unit|keyword|format)\d+>)", r" \1 ", s.text).split())
            assert n <= 60


class TestSerialization:
    def test_jsonl_round_trip(self, library, distractors, lex, tmp_path):
        ds = build_dataset(library, distractors, 60, 0.3, rng_seed=6, n_test=10, lexicons=lex)
        path = tmp_path / "data.jsonl"
        sd.save_dataset(path, ds.train)
        assert sd.load_dataset(path) == ds.train

    def test_jsonl_fields(self):
        sample = LabeledSample(
            "<keyword1> > <num1>", {"keyword1": "user_port", "num1": "1500"},
            True, ("<keyword1>", ">", "<num1>"),
            Category.QUANTITATIVE, ExtractionType.SIMPLE, parse_spec("user_port > 1500"),
        )
        record = sd.sample_to_dict(sample)
        assert set(record) == {"text", "tags", "label", "target", "category", "type"}
        assert record["label"] == 1
        assert sd.sample_from_dict(record) == sample

    @pytest.mark.parametrize("field, value", [
        ("text", 5),
        ("tags", {"num1": 3}),
        ("tags", ["num1"]),
        ("target", "<num1>"),
        ("target", [1]),
        ("label", 2),
        ("label", "1"),
    ])
    def test_field_types_checked(self, field, value):
        record = {"text": "x", "tags": {}, "label": 0, "target": [], "category": None,
                  "type": "simple", field: value}
        with pytest.raises(TypeError, match=f"^field '{field}' must "):
            sd.sample_from_dict(record)

    def test_first_failing_field_is_named(self):
        record = {"text": 5, "tags": {"num1": 3}, "label": 2, "target": [1], "type": "simple"}
        with pytest.raises(TypeError, match="^field 'text' must be a string$"):
            sd.sample_from_dict(record)
        record["text"] = "x"
        with pytest.raises(TypeError, match="^field 'tags' must map strings to strings$"):
            sd.sample_from_dict(record)
        record["tags"] = {}
        with pytest.raises(TypeError, match="^field 'target' must be a list of strings$"):
            sd.sample_from_dict(record)

    @pytest.mark.parametrize("field, value, enum_type", [
        ("category", "nope", Category),
        ("category", [1], Category),
        ("category", {"a": 1}, Category),
        ("type", "nope", ExtractionType),
        ("type", None, ExtractionType),
        ("type", ["simple"], ExtractionType),
    ])
    def test_bad_enum_value_keeps_the_enum_message(self, field, value, enum_type):
        record = {"text": "x", "tags": {}, "label": 0, "target": [], "category": None,
                  "type": "simple", field: value}
        with pytest.raises(ValueError) as want:
            enum_type(value)
        with pytest.raises(ValueError) as got:
            sd.sample_from_dict(record)
        assert str(got.value) == str(want.value)

    def test_blank_lines_between_records(self, library, distractors, lex, tmp_path):
        ds = build_dataset(library, distractors, 20, 0.3, rng_seed=8, n_test=0, lexicons=lex)
        path = tmp_path / "data.jsonl"
        sd.save_dataset(path, ds.train)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n" + "\n \t\n".join(lines) + "\n\n", encoding="utf-8")
        assert sd.load_dataset(path) == ds.train
        lines[7] = lines[7].replace('"type": "', '"type": "x')
        path.write_text("\n" + "\n \t\n".join(lines) + "\n\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"data\.jsonl:16: 'x\w+' is not a valid ExtractionType$"):
            sd.load_dataset(path)

    def test_bool_label_accepted(self):
        record = {"text": "x", "tags": {}, "label": False, "target": [], "type": "simple"}
        assert not sd.sample_from_dict(record).label

    def test_byte_identical_saves(self, library, distractors, lex, tmp_path):
        ds = build_dataset(library, distractors, 50, 0.3, rng_seed=7, n_test=5, lexicons=lex)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        sd.save_dataset(p1, ds.train)
        sd.save_dataset(p2, ds.train)
        assert p1.read_bytes() == p2.read_bytes()

    def test_label_target_consistency_enforced(self):
        with pytest.raises(SynthError):
            LabeledSample("x", {}, True, (), None, ExtractionType.SIMPLE)
        with pytest.raises(SynthError):
            LabeledSample("x", {}, False, ("<num1>",), None, ExtractionType.SIMPLE)

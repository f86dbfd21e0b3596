"""Seeded property tests: one grammar per concept.

The tagger, the rule language, the config checker and the model's
tokenizer read numbers, units, configuration keywords and tag tokens with
shared definitions, so each pair of readers agrees on every input drawn
here. The line-list files (keywords, lexicons, distractors, specs) share
one reader, and the model reserves one token per tag class and slot.
"""

import random

import pytest

from specsyn import dsl
from specsyn.conformance import parse_config, read_number
from specsyn.corpus import KeywordSet, load_keyword_file
from specsyn.files import InputError
from specsyn.model.vocab import Vocab, reserved_tokens, tokenize
from specsyn.synthdata import load_distractors
from specsyn.tagger import TAG_SLOTS, TagClass, load_lexicons, spec_token, tag_text

# words the rule language reserves; a config file may still use them as keys
RESERVED = ("and", "or", "in", "true", "false")

# inside the keyword grammar, then characters outside it and the DSL's own
KEY_CHARS = "abcXYZ_019.-" * 3 + "@/:+é"

# words a rule cannot use as a unit; an observed config value may still carry one
UNIT_RESERVED = RESERVED + ("use", "with", "prefer", "format", "recommend")

# inside the unit grammar, then characters outside it
UNIT_CHARS = "kmgbMBs_09" * 3 + "%.-/é"

KEYWORDS = KeywordSet("test", ("max_rows", "user_port", "have_ssl", "--ssl-mode", "log.level"))


@pytest.fixture(scope="module")
def lex():
    return load_lexicons()


def random_key(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return rng.choice(RESERVED)
    return "".join(rng.choice(KEY_CHARS) for _ in range(rng.randint(1, 8)))


def random_number(rng: random.Random) -> str:
    sign = "-" if rng.random() < 0.2 else ""
    roll = rng.random()
    if roll < 0.3:  # thousands separators, sometimes malformed
        head = str(rng.randint(1, 999))
        groups = [str(rng.randint(0, 999)).zfill(rng.choice((3, 3, 2)))
                  for _ in range(rng.randint(1, 3))]
        body = ",".join([head, *groups])
    elif roll < 0.45:  # a dotted version
        body = ".".join(str(rng.randint(0, 20)) for _ in range(3))
    else:
        body = str(rng.randint(0, 10**rng.randint(1, 7)))
    if rng.random() < 0.3:
        body += "." + str(rng.randint(0, 999))
    return sign + body


def random_unit(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return rng.choice(UNIT_RESERVED + ("%",))
    return "".join(rng.choice(UNIT_CHARS) for _ in range(rng.randint(1, 5)))


def random_text(rng: random.Random, lex) -> str:
    """Literals of every tag class and filler, glued or spaced at random."""
    pools = [
        list(KEYWORDS.keywords), lex.bool_surfaces, lex.unit_surfaces,
        lex.format_surfaces, ["set", "below", "the", "port", "x"],
        [".", ",", "(", ")", "<", ">", "%", ":"],
    ]
    parts = []
    for _ in range(rng.randint(3, 14)):
        word = random_number(rng) if rng.random() < 0.3 else rng.choice(rng.choice(pools))
        parts.append(word + rng.choice(("", " ", " ", "  ")))
    return "".join(parts)


class TestOneGrammarPerConcept:
    def test_config_keys_are_rule_keywords(self):
        rng = random.Random(4111)
        for _ in range(2000):
            key = random_key(rng)
            config = parse_config(f"{key} = 1\n")
            config_accepts = key in config.entries
            assert config_accepts != bool(config.malformed), key
            try:
                rule = dsl.Rule(key, dsl.Relation.USE)
            except dsl.DslError:
                rule = None
            assert config_accepts == (rule is not None or key in RESERVED), key
            if rule is not None:
                again = dsl.parse_spec(dsl.print_spec(dsl.single(rule)))
                assert again.rules[0].keyword == key

    def test_tagged_numbers_coerce_to_the_printed_magnitude(self, lex):
        rng = random.Random(4112)
        seen = 0
        for _ in range(500):
            tagged = tag_text(random_text(rng, lex), KEYWORDS, lex)
            for tag_id, surface in tagged.tags.items():
                if not tag_id.startswith(TagClass.NUM.value):
                    continue
                seen += 1
                printed = dsl.parse_spec(f"x > {spec_token(TagClass.NUM, surface)}")
                assert read_number(surface) == (printed.rules[0].values[0].magnitude, None), surface
        assert seen > 500

    def test_tag_tokens_survive_tokenization(self, lex):
        rng = random.Random(4113)
        for _ in range(500):
            tagged = tag_text(random_text(rng, lex), KEYWORDS, lex)
            tokens = tokenize(tagged.text)
            assert "".join(tokens) == "".join(tagged.text.split())
            for tag_id in tagged.tags:
                token = f"<{tag_id}>"
                assert tokens.count(token) == tagged.text.count(token), (tagged.text, tokens)

    def test_rule_units_coerce_to_the_magnitude(self):
        rng = random.Random(4114)
        accepted = 0
        for _ in range(2000):
            magnitude = rng.randint(-99999, 99999) / rng.choice((1, 10, 100))
            unit = random_unit(rng)
            try:
                number = dsl.Number(magnitude, unit)
            except dsl.DslError:
                number = None
            observed = read_number(f"{dsl.format_number(magnitude)} {unit}")
            if number is not None:
                accepted += 1
                assert observed == (magnitude, unit), unit
            elif unit not in UNIT_RESERVED:
                assert observed is None, unit
        assert accepted > 500

    def test_every_tag_token_is_reserved_in_class_order(self):
        expected = [
            f"<{cls.value}{slot}>" for cls in TagClass for slot in range(1, TAG_SLOTS + 1)
        ]
        vocab = Vocab(reserved_tokens())
        ids = [vocab.id_of(token) for token in expected]
        assert [vocab.tokens[i] for i in ids] == expected
        assert ids == list(range(5, 5 + len(expected)))


class TestOneLineListReader:
    TEXT = "# header\n\n  # indented note\n\tmax_rows  \nuser_port\n   \n"

    def test_every_reader_skips_blanks_and_comments_alike(self, tmp_path, monkeypatch):
        expected = ("max_rows", "user_port")
        for name in ("kw.txt", "distractors.txt", "bool.lex", "unit.lex", "format.lex"):
            (tmp_path / name).write_text(self.TEXT, encoding="utf-8")
        assert load_keyword_file(tmp_path / "kw.txt").keywords == expected
        assert load_distractors(tmp_path / "distractors.txt") == expected
        monkeypatch.setenv("SPECSYN_LEXICON_DIR", str(tmp_path))
        lex = load_lexicons()
        assert lex.bool_surfaces == lex.unit_surfaces == lex.format_surfaces == expected

    def test_spec_file_errors_count_skipped_lines(self, tmp_path):
        path = tmp_path / "specs.spec"
        path.write_text(self.TEXT.replace("max_rows", "x in [7, 2]"), encoding="utf-8")
        with pytest.raises(InputError) as err:
            dsl.load_spec_file(path)
        assert err.value.lineno == 4

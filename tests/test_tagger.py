import random

import pytest

import tag_oracle
from conftest import run_map_serially
from specsyn import synthdata, tagger
from specsyn.corpus import KeywordSet
from specsyn.dsl import parse_spec
from specsyn.tagger import (
    Lexicons,
    NonParsingOutput,
    TagClass,
    TagError,
    UnknownTagError,
    detag,
    load_lexicons,
    render_tokens,
    tag_text,
)

KW = KeywordSet(
    "mysql",
    ("user_port", "max_rows", "ulimit", "have_ssl", "have_open_ssl", "datadir", "on"),
)


@pytest.fixture(scope="module")
def lex():
    return load_lexicons()


class TestTagging:
    def test_simple_sentence(self, lex):
        got = tag_text(
            "It is necessary to use a number greater than 1500 for user_port",
            KW,
            lex,
        )
        assert got.text == (
            "it is necessary to use a number greater than <num1> for <keyword1>"
        )
        assert got.tags == {"num1": "1500", "keyword1": "user_port"}

    def test_thousands_separators_stay_single_tags(self, lex):
        got = tag_text(
            "raise the ulimit to 10,000, but more likely 10,240", KW, lex
        )
        assert got.text == "raise the <keyword1> to <num1>, but more likely <num2>"
        assert got.tags == {
            "keyword1": "ulimit",
            "num1": "10,000",
            "num2": "10,240",
        }

    def test_no_patterns_is_noop_except_lowercasing(self, lex):
        got = tag_text("Nothing Interesting Here", KW, lex)
        assert got.text == "nothing interesting here"
        assert got.tags == {}

    def test_id_reuse_for_identical_surface(self, lex):
        got = tag_text("set max_rows, really max_rows, to 5 and then to 5", KW, lex)
        assert got.text.count("<keyword1>") == 2
        assert got.text.count("<num1>") == 2
        assert list(got.tags) == ["keyword1", "num1"]

    def test_ids_consecutive_in_first_occurrence_order(self, lex):
        got = tag_text("have_ssl needs 1 and user_port needs 2 or 1", KW, lex)
        assert list(got.tags) == ["keyword1", "num1", "keyword2", "num2"]

    def test_bool_and_unit(self, lex):
        got = tag_text("set have_ssl to true and keep 4 gb free", KW, lex)
        assert got.text == "set <keyword1> to <bool1> and keep <num1> <unit1> free"
        assert got.tags["bool1"] == "true"
        assert got.tags["unit1"] == "gb"

    def test_format_phrase(self, lex):
        got = tag_text("datadir must be an absolute path", KW, lex)
        assert got.text == "<keyword1> must be an <format1>"
        assert got.tags["format1"] == "absolute path"

    def test_percent(self, lex):
        got = tag_text("keep usage below 80%", KW, lex)
        assert got.text == "keep usage below <num1><unit1>"
        assert got.tags == {"num1": "80", "unit1": "%"}

    def test_keyword_beats_bool_on_collision(self, lex):
        # a parameter literally named "on"
        got = tag_text("the on parameter is true", KW, lex)
        assert got.text == "the <keyword1> parameter is <bool1>"
        assert got.tags["keyword1"] == "on"

    def test_longest_match_wins(self, lex):
        got = tag_text("have_open_ssl and have_ssl differ", KW, lex)
        assert got.tags["keyword1"] == "have_open_ssl"
        assert got.tags["keyword2"] == "have_ssl"

    def test_version_strings_not_tagged_as_numbers(self, lex):
        got = tag_text("see page 157 for details of mysql 11.7.8", KW, lex)
        assert got.tags == {"num1": "157"}
        assert "11.7.8" in got.text

    def test_decimals_and_negatives(self, lex):
        got = tag_text("use -1 to disable or 2.5 to tune", KW, lex)
        assert got.tags["num1"] == "-1"
        assert got.tags["num2"] == "2.5"
        assert got.tags["bool1"] == "disable"

    def test_unit_inside_word_not_tagged(self, lex):
        got = tag_text("this mass is massive", KW, lex)
        assert got.tags == {}

    def test_case_folds_to_same_id(self, lex):
        got = tag_text("TRUE then true", KW, lex)
        assert got.text == "<bool1> then <bool1>"

    def test_keywords_fold_ascii_case_only(self, lex):
        keywords = KeywordSet("x", ("ssl_mode", "ulimit"))
        got = tag_text("set ſſl_mode and ulımıt on", keywords, lex)
        assert got.text == "set ſſl_mode and ulımıt <bool1>"

    def test_case_folding_agrees_with_candidate_extraction(self, lex):
        # str.lower would make the Kelvin sign an ASCII k, which KeywordSet.find,
        # and so candidate extraction, never matches
        keywords = KeywordSet("x", ("key_size",))
        text = "set \u212aey_size to 4"
        assert keywords.find(text) == []
        got = tag_text(text, keywords, lex)
        assert got.text == "set \u212aey_size to <num1>"
        assert got.tags == {"num1": "4"}

    def test_case_folding_keeps_every_character(self, lex):
        # "İ".lower() is two characters, "i" and a combining dot
        got = tag_text("İNNODB_\u212a key_size İN ON", KeywordSet("x", ("key_size",)), lex)
        assert got.text == "İnnodb_\u212a <keyword1> İn <bool1>"

    def test_retagging_is_stable(self, lex):
        text = "set max_rows to 10,000 bytes or 80% if true"
        assert tag_text(text, KW, lex) == tag_text(text, KW, lex)

    def test_bijection_between_text_and_map(self, lex):
        import re

        texts = [
            "set max_rows to 10,000 bytes",
            "have_ssl and have_open_ssl need to be set True",
            "user_port above 1500 or 2000 or 1500",
            "datadir is an absolute path, see 80%",
        ]
        for text in texts:
            got = tag_text(text, KW, lex)
            used = set(re.findall(r"<((?:bool|num|unit|keyword|format)\d+)>", got.text))
            assert used == set(got.tags)


# "have_ssl" is a prefix of "have_ssl_mode", and "max" of "max_rows"
PREFIX_KW = KeywordSet("x", ("max", "max_rows", "have_ssl", "have_ssl_mode", "--log.level"))

# text that sits next to literals: flags, versions, thousands groups, and
# characters whose digit-ness or lowercase form is easy to get wrong
PIECES = (
    "max_rows", "MAX_ROWS", "--max_rows", "--ssl", "--log.level", "have_ssl_mode",
    "11.7.8", "1,234", "12,34", "1,234.5", "-7", ".5", "3²", "²", "٣", "İ", "x3².1,234",
    "ſ", "ı", "\u212a", "max_rowſ", "have_ſſl",
    "a", "_", "-", ".", ",", "%", " ", " ", " ", "\n",
)


def random_text(rng: random.Random, lex: Lexicons, pieces: tuple = PIECES) -> str:
    surfaces = lex.bool_surfaces + lex.unit_surfaces + lex.format_surfaces
    parts = []
    for _ in range(rng.randint(0, 14)):
        roll = rng.random()
        if roll < 0.35:
            part = rng.choice(surfaces)
            parts.append(part.upper() if rng.random() < 0.2 else part)
        elif roll < 0.55:
            parts.append(str(rng.randint(0, 10 ** rng.randint(1, 7))))
        else:
            parts.append(rng.choice(pieces))
        if rng.random() < 0.5:  # otherwise glued to the next piece
            parts.append(rng.choice(" .,;-_"))
    return "".join(parts)


class TestOracle:
    """`tag_text` tags exactly as the per-position reference in tests/tag_oracle.py."""

    @pytest.mark.parametrize("keywords", [KW, PREFIX_KW], ids=["mysql", "prefixes"])
    def test_random_text(self, lex, keywords):
        rng = random.Random(6021)
        for _ in range(3000):
            text = random_text(rng, lex)
            assert tag_text(text, keywords, lex) == tag_oracle.tag_text(text, keywords, lex), text

    def test_surface_in_two_classes_and_an_empty_class(self):
        custom = Lexicons(bool_surfaces=("on", "off", "k"), unit_surfaces=("k", "kb", "s"),
                          format_surfaces=())
        rng = random.Random(6022)
        texts = ["set max_rows to 4 k or 4 kb, on", "k k-k 3k 3 k_ kb kbs"]
        texts += [random_text(rng, custom) for _ in range(2000)]
        for text in texts:
            want = tag_oracle.tag_text(text, PREFIX_KW, custom)
            assert tag_text(text, PREFIX_KW, custom) == want, text
        assert tag_text("4 k", PREFIX_KW, custom).tags == {"num1": "4", "bool1": "k"}

    # what a lookup by first token can get wrong: surfaces that start or end
    # with a symbol or a digit, multi-word surfaces glued to words,
    # keywords that are prefixes of each other across "-" and ".", a keyword
    # that is also a surface, and decimal digits outside ASCII
    EDGE_LEX = Lexicons(bool_surfaces=("on", "0", "-x", "foo"),
                        unit_surfaces=("%", "kb/s", "kb", "x-"),
                        format_surfaces=("email address", "foo bar"))
    EDGE_KW = KeywordSet("x", ("foo", "foo-bar", "a.b", "email", "--log.level"))
    EDGE_PIECES = PIECES + (
        "email addressno", "xemail address", "email address", "a.b.c", "a.b", "foo-bar-baz",
        "foo-bar", "foo.bar", "--foo", "kb/sec", "kb/s", "x-", "-x", "0", "00", "10%", " mb",
        "ab٣", "-٣", "٣kb", "٣",
    )

    @pytest.mark.parametrize("text, want", [
        ("xemail address or email addressno", "xemail address or <keyword1> addressno"),
        ("an email address", "an <format1>"),
        # "-" may not touch a keyword but may touch a surface
        ("a.b.c and foo-bar-baz", "<keyword1>.c and <bool1>-bar-baz"),
        ("foo-bar, foo", "<keyword1>, <keyword2>"),
        ("ab٣ -٣ ٣kb", "ab٣ <num1> ٣<unit1>"),
        ("-x x- 0 10%", "<bool1> <unit1> <bool2> <num1><unit2>"),
    ])
    def test_lookup_edges(self, text, want):
        assert tag_oracle.tag_text(text, self.EDGE_KW, self.EDGE_LEX).text == want
        assert tag_text(text, self.EDGE_KW, self.EDGE_LEX).text == want

    def test_lookup_edges_random_text(self):
        rng = random.Random(6024)
        for _ in range(3000):
            text = random_text(rng, self.EDGE_LEX, self.EDGE_PIECES)
            want = tag_oracle.tag_text(text, self.EDGE_KW, self.EDGE_LEX)
            assert tag_text(text, self.EDGE_KW, self.EDGE_LEX) == want, text

    def test_every_composed_text(self, monkeypatch, lex):
        run_map_serially(monkeypatch)
        seen = []

        def checked(text, keywords, lexicons):
            got = tag_text(text, keywords, lexicons)
            assert got == tag_oracle.tag_text(text, keywords, lexicons), text
            seen.append(text)
            return got

        monkeypatch.setattr(synthdata, "tag_text", checked)
        synthdata.build_dataset(
            synthdata.default_library(), synthdata.default_distractors(),
            n_total=400, n_test=40, rng_seed=3, lexicons=lex,
        )
        assert len(seen) == 400


class TestLexicons:
    def test_packaged_lexicons(self, lex):
        assert "enabled" in lex.bool_surfaces
        assert "%" in lex.unit_surfaces
        assert "absolute path" in lex.format_surfaces

    def test_lexicon_lines_fold_case_like_text(self, tmp_path, monkeypatch):
        for name, content in [("bool.lex", "YES\nÉTÉ\n"), ("unit.lex", "kb\n"),
                              ("format.lex", "url\n")]:
            (tmp_path / name).write_text(content, encoding="utf-8")
        monkeypatch.setenv("SPECSYN_LEXICON_DIR", str(tmp_path))
        custom = load_lexicons()
        assert custom.bool_surfaces == ("yes", "ÉtÉ")
        got = tag_text("ÉTÉ or été, Yes", KW, custom)
        assert got.text == "<bool1> or été, <bool2>"

    def test_env_override(self, tmp_path, monkeypatch):
        for name, content in [
            ("bool.lex", "aye\nnay\n"),
            ("unit.lex", "parsec\n"),
            ("format.lex", "star path\n"),
        ]:
            (tmp_path / name).write_text(content, encoding="utf-8")
        monkeypatch.setenv("SPECSYN_LEXICON_DIR", str(tmp_path))
        custom = load_lexicons()
        assert custom.bool_surfaces == ("aye", "nay")
        got = tag_text("it is 3 parsec away, aye", KW, custom)
        assert got.tags == {"num1": "3", "unit1": "parsec", "bool1": "aye"}

    @pytest.mark.parametrize("surface", ["", " on", " mb", "on ", "\ton", "on\n"])
    def test_surface_empty_or_with_edge_whitespace_is_rejected(self, surface):
        # lexicon files are read stripped, so only a Lexicons built by hand
        # can hold such a surface; "" would match nowhere and " on" would
        # swallow the space before it ("set max_rows on" -> "<keyword1><bool1>")
        for field in ("bool_surfaces", "unit_surfaces", "format_surfaces"):
            surfaces = {"bool_surfaces": ("on",), "unit_surfaces": ("kb",), "format_surfaces": ()}
            surfaces[field] += (surface,)
            with pytest.raises(TagError, match="empty or has whitespace at an edge"):
                Lexicons(**surfaces)


class TestDetag:
    T_PORT = {"keyword1": "user_port", "num1": "1500"}

    def test_simple_substitution(self):
        got = detag(["<keyword1>", ">", "<num1>"], self.T_PORT)
        assert got == parse_spec("user_port > 1500")

    def test_interval(self):
        tags = {"keyword1": "max_rows", "num1": "2", "num2": "7"}
        got = detag(["<keyword1>", "in", "[", "<num1>", ",", "<num2>", "]"], tags)
        assert got == parse_spec("max_rows in [2, 7]")

    def test_numeric_separators_stripped(self):
        tags = {"keyword1": "ulimit", "num1": "10,240"}
        got = detag(["<keyword1>", ">", "<num1>"], tags)
        assert got == parse_spec("ulimit > 10240")

    def test_bool_polarity(self):
        for surface, text in [
            ("true", "true"),
            ("on", "true"),
            ("enabled", "true"),
            ("yes", "true"),
            ("off", "false"),
            ("disabled", "false"),
            ("disable", "false"),
            ("no", "false"),
            ("false", "false"),
        ]:
            got = detag(["<keyword1>", "==", "<bool1>"], {"keyword1": "x", "bool1": surface})
            assert got == parse_spec(f"x == {text}"), surface

    def test_unit_carried_through(self):
        tags = {"keyword1": "buffer", "num1": "4", "unit1": "gb"}
        got = detag(["<keyword1>", "<", "<num1>", "<unit1>"], tags)
        assert got == parse_spec("buffer < 4 gb")

    def test_format_value_is_quoted(self):
        tags = {"keyword1": "datadir", "format1": "absolute path"}
        got = detag(["format", "(", "<keyword1>", ",", "<format1>", ")"], tags)
        assert got == parse_spec('format(datadir, "absolute path")')

    def test_functional_and_connective_forms(self):
        tags = {"keyword1": "have_ssl", "keyword2": "have_open_ssl", "bool1": "True"}
        tokens = [
            "<keyword1>", "==", "<bool1>", "and", "<keyword2>", "==", "<bool1>",
        ]
        want = parse_spec("have_ssl == true and have_open_ssl == true")
        assert detag(tokens, tags) == want
        assert detag(["use", "(", "<keyword1>", ")"], tags) == parse_spec("use(have_ssl)")

    def test_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            detag(["<keyword1>", ">", "<num9>"], self.T_PORT)

    def test_malformed_generation(self):
        with pytest.raises(NonParsingOutput):
            detag(["<keyword1>", ">", ">"], self.T_PORT)
        with pytest.raises(NonParsingOutput):
            detag(["<keyword1>"], self.T_PORT)

    def test_output_is_canonical(self):
        tags = {"keyword1": "x", "num1": "0005"}
        assert detag(["<keyword1>", "==", "<num1>"], tags) == parse_spec("x == 5")


class TestRendering:
    def test_spacing_rules(self):
        assert render_tokens(["a", "in", "[", "2", ",", "7", "]"]) == "a in [2, 7]"
        assert render_tokens(["use", "(", "a", ")"]) == "use(a)"
        assert render_tokens(["a", "in", "{", "1", ",", "2", "}"]) == "a in {1, 2}"

    def test_tag_class_of(self):
        assert tagger.tag_class_of("num3") is TagClass.NUM
        with pytest.raises(tagger.TagError):
            tagger.tag_class_of("<num3>")
        with pytest.raises(tagger.TagError):
            tagger.tag_class_of("thing1")

import json
import random
import re

import pytest

import corpus_oracle
import tag_oracle
from specsyn import corpus
from specsyn.corpus import (
    CandidateText,
    CorpusError,
    DocumentFormat,
    EmptyDocument,
    ExtractionType,
    KeywordSet,
    extract_candidates,
    extraction_type,
    ingest,
    split_sentences,
)
from specsyn.files import InputError, read_text
from test_grammars import KEYWORDS as GRAMMAR_KW
from test_tagger import PREFIX_KW

KW = KeywordSet("mysql", ("max_rows", "user_port", "have_ssl", "have_open_ssl"))

# spellings that differ only in case, a Kelvin-sign keyword, a flag-like
# keyword beside its bare form, and keywords that are prefixes of each
# other across "-" and "."
MIXED_KW = KeywordSet("x", ("Max_Rows", "max_rows", "\u212aey_size", "key_size", "--a", "a",
                            "a.b", "foo-bar", "foo"))

# characters that may sit next to a keyword: word characters, "-", symbols,
# and letters that Unicode case folding would take for "s", "i" or "k"
KEYWORD_NEIGHBOURS = ("x", "_", "9", "-", "--", ".", "/", "é", "ſ", "ı", "\u212a", "s", "i", "k")
LOOK_ALIKES = {"s": "ſ", "i": "ı", "k": "\u212a"}

SENTENCE_STARTS = ["Set", "The", "Use", "Keep", "MySQL", "Every"]
SENTENCE_WORDS = ["set", "the", "value", "to", "max_rows", "user_port", "above", "mb"]


def random_keyword_text(rng: random.Random, keywords: tuple) -> str:
    """Keywords in mixed case, with and without "--", some letters swapped
    for look-alikes, glued to or spaced from their neighbours."""
    parts = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.5:
            kw = "".join(LOOK_ALIKES.get(c, c) if rng.random() < 0.05
                         else c.upper() if rng.random() < 0.3 else c
                         for c in rng.choice(keywords))
            parts.append(rng.choice(("", "", "-", "--", "---")) + kw)
        else:
            parts.append(rng.choice(KEYWORD_NEIGHBOURS))
        if rng.random() < 0.6:
            parts.append(rng.choice(" .,;-_/"))
    return "".join(parts)


def random_sentence(rng: random.Random) -> str:
    """A capitalized word, then words, decimals, x.y.z versions, dotted
    names and 'e.g. Word' asides in any order, then '.', '?' or '!'."""
    parts = [rng.choice(SENTENCE_STARTS)]
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(5)
        if kind == 0:
            parts.append(f"{rng.randint(0, 999)}.{rng.randint(0, 99)}")
        elif kind == 1:
            parts.append(".".join(str(rng.randint(0, 20)) for _ in range(3)))
        elif kind == 2:
            parts.append(f"{rng.choice(['e.g.', 'i.e.'])} {rng.choice(SENTENCE_STARTS)}")
        elif kind == 3:
            parts.append(f"{rng.choice(SENTENCE_WORDS)}.{rng.choice(SENTENCE_STARTS)}")
        else:
            parts.append(rng.choice(SENTENCE_WORDS))
    return " ".join(parts) + rng.choice(".?!")


class TestSentenceSplitting:
    def test_two_periods(self):
        assert split_sentences("Set a. Then b.") == ["Set a.", "Then b."]

    def test_version_strings_do_not_split(self):
        text = "See page 157 for details of MySQL 11.7.8"
        assert split_sentences(text) == [text]

    def test_decimals_do_not_split(self):
        assert split_sentences("The value 3.14 is fine. Use it.") == [
            "The value 3.14 is fine.",
            "Use it.",
        ]

    def test_joined_sentences_split_back(self):
        rng = random.Random(20)
        for _ in range(2000):
            sentences = [random_sentence(rng) for _ in range(rng.randint(1, 5))]
            assert split_sentences(" ".join(sentences)) == sentences

    def test_abbreviations_guarded(self):
        text = "Options, e.g. Verbose ones, exist."
        assert split_sentences(text) == [text]
        text2 = "Several units exist, i.e. Bytes and pages."
        assert split_sentences(text2) == [text2]

    def test_question_and_exclamation(self):
        assert split_sentences("Is it set? Yes! Good.") == ["Is it set?", "Yes!", "Good."]

    def test_lowercase_continuation_does_not_split(self):
        text = "the var. size is big"
        assert split_sentences(text) == [text]

    def test_whitespace_normalized(self):
        assert split_sentences("A  b\tc.   Next one.") == ["A b c.", "Next one."]

    def test_end_of_text_closes_sentence(self):
        assert split_sentences("No terminal period here") == ["No terminal period here"]


class TestIngest:
    def test_plain_text_paragraphs(self):
        doc = "First para. Second sentence.\n\nSecond para."
        assert ingest(doc) == ["First para.", "Second sentence.", "Second para."]

    def test_bytes_decoded(self, tmp_path):
        (tmp_path / "doc.txt").write_bytes("Café time.".encode("utf-8"))
        assert ingest(read_text(tmp_path / "doc.txt")) == ["Café time."]

    def test_invalid_utf8(self, tmp_path):
        (tmp_path / "doc.txt").write_bytes(b"\xff\xfe broken")
        with pytest.raises(InputError, match=r"doc\.txt:1: not UTF-8"):
            read_text(tmp_path / "doc.txt")

    def test_empty_document(self):
        with pytest.raises(EmptyDocument):
            ingest("   \n\n  ")

    def test_html_stripped(self):
        doc = (
            "<html><head><style>p {color: red}</style></head>"
            "<body><h1>Config</h1><p>Set max_rows to 5.</p>"
            "<script>var x = 1;</script>"
            "<p>Use &gt; 2 threads.</p></body></html>"
        )
        sentences = ingest(doc, DocumentFormat.HTML_STRIPPED)
        assert sentences == ["Config", "Set max_rows to 5.", "Use > 2 threads."]

    def test_source_comments(self):
        code = "/* must be > 0 */ int x; // tmp"
        assert ingest(code, DocumentFormat.SOURCE_COMMENTS) == ["must be > 0", "tmp"]


class TestCommentExtraction:
    def test_hash_comments(self):
        code = "# Top note\nvalue = 1  # inline hint\n"
        assert corpus.comment_bodies(code) == [" Top note", " inline hint"]

    def test_markers_inside_strings_ignored(self):
        code = 's = "no // comment in here"; t = \'nor # here\'; // real one\n'
        assert corpus.comment_bodies(code) == [" real one"]

    def test_multiline_block(self):
        code = "/* Line one.\n * Line two.\n */\nint x;"
        assert corpus.extract_comments(code) == ["Line one. Line two."]

    def test_commented_out_code_dropped(self):
        code = "// x[i] = y.z + 1;\n// The limit must stay small.\n"
        assert corpus.extract_comments(code) == ["The limit must stay small."]

    def test_lightly_punctuated_prose_kept(self):
        code = "// must be > 0, always\n"
        assert corpus.extract_comments(code) == ["must be > 0, always"]

    def test_escaped_quote_in_string(self):
        code = 's = "a \\" b // not"; # yes\n'
        assert corpus.comment_bodies(code) == [" yes"]


# Brute-force reference: find strings and comments with one regex pass and
# keep only the comment groups.  Written independently of the state machine.
_REFERENCE_RE = re.compile(
    r'"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])*'"
    r"|(?P<block>/\*.*?\*/)"
    r"|(?P<line>//[^\n]*)"
    r"|(?P<hash>#[^\n]*)",
    re.DOTALL,
)


def reference_comment_bodies(code):
    bodies = []
    for m in _REFERENCE_RE.finditer(code):
        if m.lastgroup == "block":
            bodies.append(m.group()[2:-2])
        elif m.lastgroup == "line":
            bodies.append(m.group()[2:])
        elif m.lastgroup == "hash":
            bodies.append(m.group()[1:])
    return bodies


def random_code_snippet(rng):
    pieces = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.randrange(6)
        if kind == 0:
            pieces.append(f"x{rng.randint(0, 9)} = {rng.randint(0, 99)};\n")
        elif kind == 1:
            pieces.append(f'name = "{rng.choice(["a # b", "c // d", "/* e */", "w"])}";\n')
        elif kind == 2:
            pieces.append(f"s = '{rng.choice(['# f', '// g', 'h'])}';\n")
        elif kind == 3:
            pieces.append(f"// note {rng.randint(0, 99)} # nested\n")
        elif kind == 4:
            pieces.append(f"# hash {rng.choice(['only', 'with // marker', 'x = 1;'])}\n")
        else:
            body = rng.choice(["spans\nlines", "one line", "has 'quote'", "x > 0"])
            pieces.append(f"/* {body} */ y = 2;\n")
    return "".join(pieces)


def test_comment_extraction_matches_reference():
    rng = random.Random(2024)
    for _ in range(200):
        code = random_code_snippet(rng)
        assert corpus.comment_bodies(code) == reference_comment_bodies(code)


# Pieces of code that open, close or escape strings and comments, alone or
# run together, so the random snippets below hold unterminated strings and
# blocks, escaped quotes and newlines, trailing backslashes, "/*/", "/**/"
# and comment markers at the end of the input.
CODE_PIECES = ('"', "'", "\\", "\n", "/", "*", "#", "/*", "*/", "//", "/*/", "/**/", "\\\n",
               "\\\"", " ", "x = 1;", "note", "'#'", '"//"')

# Pieces of text around sentence ends: abbreviations in any case, "..",
# a newline before ".", Unicode spaces, upper- and titlecase letters, and
# letters that Unicode case folding would take for "k", "s" or "i".
TEXT_PIECES = (".", "..", "?", "!", " ", "  ", "\n", "\n.", "\t", "\x1c", "\xa0", "\u2028",
               "e.g", "E.G", "e.G", "i.e", "I.E", "etc", "Etc", "cf", "CF", "vs", "Fig", "eq",
               "sec", "SEC", "a", "A", "É", "é", "ǅ", "ß", "word", "Word", "3.14", "1.2.3", "x.y",
               "\u212a", "ſ", "ı")

# Keywords that start with "--" or "-", end with "." or "-", or hold "."
# inside, and pieces that spell them, touch them, or separate them.
EDGE_KW = KeywordSet("x", ("a", "--a", "a.", "a-", "-b", "a.b", "b", "Max_Rows", "max_rows",
                           "--log.level", "c-"))
KEYWORD_PIECES = ("a", "--a", "a.", "a-", "-b", "A.B", "b", "-", "--", ".", "x", "_", " ", "\n",
                  "\xa0", "MAX_ROWS", "max_rows", "--LOG.LEVEL", "log.level", "c-", "\u212a",
                  "user_port", "have_ssl", "Set", "Keep it.")


def random_pieces(rng: random.Random, pieces: tuple, most: int) -> str:
    return "".join(rng.choice(pieces) for _ in range(rng.randint(0, most)))


class TestReadersMatchOracle:
    """The pattern readers against the character loops they replaced
    (`tests/corpus_oracle.py`), on seeded random inputs."""

    @pytest.mark.parametrize("code", [
        'x = "open string', "x = 'open // string", "/* open block", "/* open\n block *",
        's = "a\\', 's = "a\\\n // still string" // comment', "/*/ still open", "/*/ shut */",
        "/**/", "/***/", "a /**/ b /* */", "#", "//", "x #", "x //", "#\n", "//\n",
        "'a' # b 'c", '"\\"" # after', "# a\n# b\n", "/* a */ /* b", "'\n' # c",
    ])
    def test_comment_edge_cases(self, code):
        assert corpus.comment_bodies(code) == corpus_oracle.comment_bodies(code)

    def test_random_comments(self):
        rng = random.Random(4101)
        for _ in range(20000):
            code = random_pieces(rng, CODE_PIECES, 14)
            assert corpus.comment_bodies(code) == corpus_oracle.comment_bodies(code), code

    @pytest.mark.parametrize("text", [
        "Use e.g. Large values.", "Use E.G. Large values.", "See Fig. Two.", "Done etc. Next.",
        "Stop.. Go.", "Stop\n. Go.", "Odd e.g\n. Then.", "A.\x1cB.", "A.\xa0B.", "A.\u2028B.",
        "A. É is upper.", "A. ǅ is titlecase.", "A. é.", "End.", "End. ", "End.\n", "?", ".",
        "x.Y", "Is it? Yes! No.", "Odd e.g\n\n. Then.", "See ..e.g. Two.", "See ab..e.g. Two.",
        "See 1e.g. Two.", "See ſec. Two.", "See \u212aetc. Two.", "e.g\n.e.g. Two.",
    ])
    def test_sentence_edge_cases(self, text):
        assert split_sentences(text) == corpus_oracle.split_sentences(text)

    def test_random_sentences(self):
        rng = random.Random(4102)
        for _ in range(20000):
            text = random_pieces(rng, TEXT_PIECES, 14)
            assert split_sentences(text) == corpus_oracle.split_sentences(text), text

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_random_candidates(self, window):
        rng = random.Random(4103 + window)
        for _ in range(1500):
            keywords = rng.choice((EDGE_KW, KW, PREFIX_KW))
            # sentences as a caller may pass them: with edge and inner
            # whitespace runs, empty, or repeated
            sentences = [random_pieces(rng, KEYWORD_PIECES, 6) for _ in range(rng.randint(0, 7))]
            assert (extract_candidates(sentences, keywords, window, "d")
                    == corpus_oracle.extract_candidates(sentences, keywords, window, "d")), sentences


class TestKeywordSet:
    def test_case_insensitive_word_boundaries(self):
        assert KW.find("Set MAX_ROWS now") == ["max_rows"]
        assert KW.find("the max_rows_limit - unrelated") == []
        assert KW.find("vmax_rows") == []

    def test_flag_form(self):
        assert KW.find("pass --user_port at startup") == ["user_port"]

    @pytest.mark.parametrize("keyword, text", [
        ("ssl_mode", "set ſſl_mode"),  # long s folds to s
        ("innodb_x", "set ınnodb_x"),  # dotless i folds to i
        ("key_size", "set \u212aey_size"),  # Kelvin sign folds to k
    ])
    def test_case_folds_over_ascii_only(self, keyword, text):
        assert KeywordSet("x", (keyword,)).find(text) == []
        assert KeywordSet("x", (keyword,)).find(text.replace("set ", "set --")) == []

    def test_non_ascii_letter_is_no_word_edge(self):
        assert KeywordSet("x", ("ssl_mode",)).find("ſssl_mode and ıssl_mode") == ["ssl_mode"]

    def test_order_of_first_occurrence(self):
        assert KW.find("user_port then max_rows then user_port") == [
            "user_port",
            "max_rows",
        ]

    def test_dashed_keyword_is_named_as_spelled(self):
        keywords = KeywordSet("x", ("--log.level",))
        assert keywords.find("set --LOG.LEVEL and ----log.level") == ["--log.level"]
        sentences = ["Set --LOG.LEVEL here.", "Then ----log.level there."]
        spans = [c for c in extract_candidates(sentences, keywords, window=2)
                 if c.type is not ExtractionType.SIMPLE]
        assert [(c.type, c.keywords) for c in spans] == [
            (ExtractionType.COMPLEX_SINGLE, ("--log.level",))]

    def test_flag_prefix_is_taken_first(self):
        # as in a regex whose "--" is optional and greedy: "--a" is a
        # keyword too, but "a" follows the prefix
        assert MIXED_KW.find("--a") == ["a"]
        assert MIXED_KW.find("----a") == ["--a"]
        assert MIXED_KW.find("---a") == []
        assert MIXED_KW.find("--a.b") == ["a.b"]
        assert MIXED_KW.find("--MAX_ROWS") == ["Max_Rows"]

    @pytest.mark.parametrize("keywords", [PREFIX_KW, GRAMMAR_KW, MIXED_KW],
                             ids=["prefixes", "grammars", "mixed"])
    def test_find_matches_reference_pattern(self, keywords):
        rng = random.Random(6023)
        for _ in range(3000):
            text = random_keyword_text(rng, keywords.keywords)
            assert keywords.find(text) == tag_oracle.find_keywords(text, keywords.keywords), text

    def test_validation(self):
        with pytest.raises(CorpusError):
            KeywordSet("x", ())
        with pytest.raises(CorpusError):
            KeywordSet("x", ("a", "a"))
        with pytest.raises(CorpusError):
            KeywordSet("x", ("two words",))

    def test_keyword_file(self, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_text("# params\nmax_rows\n\nuser_port\n", encoding="utf-8")
        ks = corpus.load_keyword_file(path)
        assert ks.keywords == ("max_rows", "user_port")

    @pytest.mark.parametrize("text, lineno, reason", [
        ("max_rows\nmax rows\n", 2, "bad keyword 'max rows'"),
        ("# params\nmax_rows\n\nmax_rows\n", 4, "keyword 'max_rows' is repeated"),
    ])
    def test_keyword_file_errors_name_the_line(self, tmp_path, text, lineno, reason):
        path = tmp_path / "kw.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=f"kw.txt:{lineno}: {reason}$"):
            corpus.load_keyword_file(path)


class TestExtractCandidates:
    SENTS = [
        "The default pointer size in bytes is used when max_rows option is specified.",
        "This variable should be between 2 and 7.",
        "Unrelated sentence about nothing.",
    ]

    def test_no_keywords_no_candidates(self):
        assert extract_candidates(["Nothing here.", "Still nothing."], KW) == []

    def test_simple_and_complex(self):
        got = extract_candidates(self.SENTS, KW, window=2, doc_id="m")
        assert len(got) == 2
        simple, complex_ = got
        assert simple.type is ExtractionType.SIMPLE
        assert simple.text == self.SENTS[0]
        assert simple.source == "m:0"
        assert complex_.type is ExtractionType.COMPLEX_SINGLE
        assert complex_.text == self.SENTS[0] + " " + self.SENTS[1]
        assert complex_.source == "m:0-1"

    def test_window_one_yields_no_complex(self):
        got = extract_candidates([self.SENTS[0]], KW, window=1)
        assert [c.type for c in got] == [ExtractionType.SIMPLE]

    def test_last_sentence_has_no_complex(self):
        got = extract_candidates(["Set max_rows high."], KW, window=3)
        assert [c.type for c in got] == [ExtractionType.SIMPLE]

    def test_complex_multi_on_two_keywords(self):
        # the sentence alone names both keywords, so it is Complex-Multi too
        sents = [
            "Both have_ssl and have_open_ssl matter.",
            "They need to be set True.",
        ]
        got = extract_candidates(sents, KW, window=2)
        assert [(c.source, c.type) for c in got] == [
            ("doc:0", ExtractionType.COMPLEX_MULTI), ("doc:0-1", ExtractionType.COMPLEX_MULTI)]
        assert all(set(c.keywords) == {"have_ssl", "have_open_ssl"} for c in got)

    @pytest.mark.parametrize("n_keywords, n_sentences, expected", [
        (1, 1, ExtractionType.SIMPLE),
        (1, 2, ExtractionType.COMPLEX_SINGLE),
        (1, 5, ExtractionType.COMPLEX_SINGLE),
        (2, 1, ExtractionType.COMPLEX_MULTI),
        (3, 2, ExtractionType.COMPLEX_MULTI),
    ])
    def test_extraction_type(self, n_keywords, n_sentences, expected):
        assert extraction_type(n_keywords, n_sentences) is expected

    def test_every_candidate_mentions_a_keyword(self):
        sentences = self.SENTS * 3
        for cand in extract_candidates(sentences, KW):
            assert KW.find(cand.text)

    def test_every_keyword_sentence_is_covered(self):
        got = extract_candidates(self.SENTS, KW)
        covered = " ".join(c.text for c in got)
        for sentence in self.SENTS:
            if KW.find(sentence):
                assert sentence in covered

    def test_deterministic(self):
        a = extract_candidates(self.SENTS, KW, window=3)
        b = extract_candidates(self.SENTS, KW, window=3)
        assert a == b

    def test_bad_window(self):
        with pytest.raises(CorpusError):
            extract_candidates(self.SENTS, KW, window=0)


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        cands = extract_candidates(TestExtractCandidates.SENTS, KW, window=2)
        path = tmp_path / "cands.jsonl"
        corpus.save_candidates(path, cands)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == list(map(corpus.candidate_to_dict, cands))

    def test_jsonl_fields(self, tmp_path):
        cand = CandidateText("max_rows stuff", "d:0", ExtractionType.SIMPLE, ("max_rows",))
        record = corpus.candidate_to_dict(cand)
        assert set(record) == {"text", "source", "type", "keywords"}
        assert record["type"] == "simple"

import random

import pytest

from specsyn import dsl
from specsyn.dsl import (
    ArityError,
    Boolean,
    Category,
    Connective,
    DslSyntaxError,
    FormatClass,
    IntervalOrderError,
    KeywordRef,
    Number,
    Relation,
    Rule,
    Specification,
    Text,
    UnitMismatchError,
    ValidationError,
    parse_spec,
    print_spec,
)
from specsyn.files import InputError

import dsl_oracle
import randspec


def rt(text):
    """Parse, assert exact canonical reprint, return the specification."""
    spec = parse_spec(text)
    assert print_spec(spec) == text
    return spec


class TestParsing:
    def test_greater_than(self):
        spec = rt("user_port > 1500")
        assert spec == dsl.single(Rule("user_port", Relation.GT, (Number(1500),)))

    def test_interval(self):
        spec = rt("max_rows in [2, 7]")
        assert spec.rules[0].relation is Relation.INTERVAL
        assert spec.rules[0].values == (Number(2), Number(7))

    def test_set_membership(self):
        spec = rt("log_level in {1, 2, 3}")
        assert spec.rules[0].relation is Relation.SET_MEMBERSHIP
        assert len(spec.rules[0].values) == 3

    def test_conjunction(self):
        spec = rt("have_ssl == true and have_open_ssl == true")
        assert spec.connectives == (Connective.AND,)
        assert spec.rules[0] == Rule("have_ssl", Relation.EQ, (Boolean(True),))
        assert spec.rules[1].keyword == "have_open_ssl"

    def test_disjunction(self):
        spec = rt("sync_mode == 0 or sync_mode > 2")
        assert spec.connectives == (Connective.OR,)

    def test_use(self):
        spec = rt("use(sync)")
        assert spec.rules[0] == Rule("sync", Relation.USE, ())

    def test_recommend(self):
        spec = rt("recommend(ssl_ca)")
        assert spec.rules[0].relation is Relation.RECOMMEND

    def test_with(self):
        spec = rt("with(ssl_ca, ssl_cert)")
        assert spec.rules[0] == Rule("ssl_ca", Relation.WITH, (KeywordRef("ssl_cert"),))

    def test_prefer(self):
        spec = rt("prefer(innodb, myisam)")
        assert spec.rules[0].values == (KeywordRef("myisam"),)

    def test_string_format(self):
        spec = rt('format(datadir, "absolute path")')
        assert spec.rules[0] == Rule("datadir", Relation.STRING_FORMAT, (FormatClass("absolute path"),))

    def test_number_with_unit(self):
        spec = rt("innodb_buffer < 4 gb")
        assert spec.rules[0].values == (Number(4, "gb"),)

    def test_percent_unit(self):
        spec = rt("cpu_limit < 80 %")
        assert spec.rules[0].values == (Number(80, "%"),)

    def test_interval_with_units(self):
        spec = rt("timeout in [10 ms, 50 ms]")
        lo, hi = spec.rules[0].values
        assert (lo.unit, hi.unit) == ("ms", "ms")

    def test_negative_and_decimal_numbers(self):
        spec = rt("threshold in [-1.5, 2.25]")
        assert spec.rules[0].values == (Number(-1.5), Number(2.25))

    def test_not_equal(self):
        rt("port != 3306")

    def test_quoted_text_value(self):
        spec = rt('charset == "utf8mb4 general"')
        assert spec.rules[0].values == (Text("utf8mb4 general"),)

    def test_keyword_valued_equality(self):
        spec = rt("engine == innodb")
        assert spec.rules[0].values == (KeywordRef("innodb"),)

    def test_dashed_and_dotted_keywords(self):
        rt("--ssl-mode == true")
        rt("mysqld.max_rows > 0")

    def test_functional_names_usable_as_plain_keywords(self):
        spec = rt("use > 5")
        assert spec.rules[0].keyword == "use"


class TestNormalization:
    def test_whitespace_collapses(self):
        assert print_spec(parse_spec("  user_port   >    1500 ")) == "user_port > 1500"

    def test_bracket_spacing(self):
        assert print_spec(parse_spec("max_rows in [ 2,7 ]")) == "max_rows in [2, 7]"

    def test_integral_floats_print_as_integers(self):
        assert print_spec(parse_spec("x == 5.0")) == "x == 5"

    def test_leading_zeros_drop(self):
        assert print_spec(parse_spec("x == 007")) == "x == 7"


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "user_port >",
            "user_port ~ 5",
            "> 1500",
            "x in {5}",
            "x in [5]",
            "x in [1, 2, 3]",
            "x in (2, 7)",
            "use(x",
            "use()",
            "with(a)",
            "format(a, path)",
            "x == true and",
            "and x == true",
            "x == true or or y == false",
            "x > 5 in",
            "x > 5 y > 6",
            "x == 'single quotes'",
            "true == true",
            "in in [2, 7]",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(DslSyntaxError):
            parse_spec(text)

    def test_error_carries_position(self):
        cases = [
            ("user_port >", len("user_port >")),
            # positions index the text as given, surrounding whitespace and all
            ("   user_port >", len("   user_port >")),
            ("   user_port >  ", len("   user_port >")),
            ("\t x ~ 5", 4),
            ("  x == 1 @", 9),
            ("  x == 1\ny == 2", 8),
            ("\n x == 1\ny == 2", 8),
        ]
        for text, position in cases:
            with pytest.raises(DslSyntaxError) as err:
                parse_spec(text)
            assert err.value.position == position, text

    def test_multiline_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_spec("x == 1\ny == 2")

    def test_interval_order_checked_at_parse(self):
        with pytest.raises(IntervalOrderError):
            parse_spec("x in [7, 2]")

    def test_interval_unit_mismatch_at_parse(self):
        with pytest.raises(UnitMismatchError):
            parse_spec("x in [2 gb, 7 mb]")


class TestConstructionErrors:
    def test_arity_enforced(self):
        with pytest.raises(ArityError):
            Rule("x", Relation.EQ, (Number(1), Number(2)))
        with pytest.raises(ArityError):
            Rule("x", Relation.USE, (Number(1),))
        with pytest.raises(ArityError):
            Rule("x", Relation.SET_MEMBERSHIP, (Number(1),))
        with pytest.raises(ArityError):
            Rule("x", Relation.INTERVAL, (Number(1),))

    def test_value_kinds_enforced(self):
        with pytest.raises(ValidationError, match=r"^GT requires numeric values, got Boolean\(flag=True\)$"):
            Rule("x", Relation.GT, (Boolean(True),))
        with pytest.raises(ValidationError, match="^WITH requires a keyword-valued payload$"):
            Rule("x", Relation.WITH, (Number(5),))
        with pytest.raises(ValidationError, match="^STRING_FORMAT requires a format-class payload$"):
            Rule("x", Relation.STRING_FORMAT, (Text("absolute path"),))
        with pytest.raises(ValidationError, match="^EQ does not accept FormatClass values$"):
            Rule("x", Relation.EQ, (FormatClass("url"),))
        with pytest.raises(ValidationError, match="^SET_MEMBERSHIP does not accept FormatClass values$"):
            Rule("x", Relation.SET_MEMBERSHIP, [Number(1), FormatClass("url")])

    def test_interval_order(self):
        with pytest.raises(IntervalOrderError):
            Rule("x", Relation.INTERVAL, (Number(7), Number(2)))
        with pytest.raises(UnitMismatchError):
            Rule("x", Relation.INTERVAL, (Number(2, "gb"), Number(7, "mb")))
        # unit comparison is case-insensitive
        Rule("x", Relation.INTERVAL, (Number(2, "GB"), Number(7, "gb")))

    def test_reserved_words_rejected_as_keywords(self):
        for bad in ("and", "or", "in", "true", "false"):
            with pytest.raises(ValidationError):
                Rule(bad, Relation.USE, ())
            with pytest.raises(ValidationError):
                KeywordRef(bad)

    def test_bad_keyword_tokens(self):
        with pytest.raises(ValidationError):
            Rule("two words", Relation.USE, ())
        with pytest.raises(ValidationError):
            Rule("9lives", Relation.USE, ())
        with pytest.raises(ValidationError):
            Rule("", Relation.USE, ())

    def test_number_invariants(self):
        with pytest.raises(ValidationError):
            Number(float("nan"))
        with pytest.raises(ValidationError):
            Number(float("inf"))
        with pytest.raises(ValidationError):
            Number(1e20)  # would print in exponent notation
        with pytest.raises(ValidationError):
            Number(5, unit="two words")
        with pytest.raises(ValidationError):
            Number(5, unit="and")

    def test_number_accepts_what_prints_without_exponent(self):
        """The whole-below-1e16 shortcut accepts exactly the magnitudes that
        `format_number` prints without an exponent."""
        rng = random.Random(5)
        edges = [0.0, -0.0, 1e15, 1e16 - 2, 1e16, -1e16, 1e16 + 2, 9007199254740993,
                 0.1, 1e-4, 1e-5, 123456789.125, 1e15 + 0.5, 2.0**53, 1e21, 1e22, -1e22]
        randoms = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 25) for _ in range(2000)]
        whole = [float(rng.randint(-10**17, 10**17)) for _ in range(2000)]
        for m in edges + randoms + whole:
            printable = "e" not in dsl.format_number(m)
            try:
                Number(m)
            except ValidationError:
                assert not printable, m
            else:
                assert printable, m

    def test_specification_shape(self):
        with pytest.raises(ValidationError):
            Specification(())
        with pytest.raises(ValidationError):
            Specification((Rule("x", Relation.USE, ()),), (Connective.AND,))
        with pytest.raises(ValidationError):
            Specification(
                (Rule("x", Relation.USE, ()), Rule("y", Relation.USE, ())), ()
            )


class TestCategories:
    @pytest.mark.parametrize(
        "text,category",
        [
            ("user_port > 1500", Category.QUANTITATIVE),
            ("max_rows in [2, 7]", Category.QUANTITATIVE),
            ("have_ssl == true", Category.QUANTITATIVE),
            ("x in {1, 2}", Category.QUANTITATIVE),
            ("use(sync)", Category.UTILIZATION),
            ("with(ssl_ca, ssl_cert)", Category.INTERRELATION),
            ("prefer(a, b)", Category.INTERRELATION),
            ('format(datadir, "absolute path")', Category.ATTRIBUTE),
            ("recommend(ssl_ca)", Category.GENERIC),
        ],
    )
    def test_mapping(self, text, category):
        assert dsl.infer_category(parse_spec(text)) is category

    def test_first_rule_decides(self):
        spec = parse_spec("use(sync) and user_port > 1500")
        assert dsl.infer_category(spec) is Category.UTILIZATION


class TestSpecFiles:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "rules.spec"
        path.write_text(
            "# mined specs\n"
            "\n"
            "user_port > 1500\n"
            "  use(sync)   \n"
            "# trailing comment\n",
            encoding="utf-8",
        )
        specs = dsl.load_spec_file(path)
        assert [print_spec(s) for s in specs] == ["user_port > 1500", "use(sync)"]

        out = tmp_path / "out.spec"
        dsl.save_spec_file(out, specs)
        assert dsl.load_spec_file(out) == specs

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("use(sync)\nx in [7, 2]\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            dsl.load_spec_file(path)
        assert err.value.lineno == 2


class TestRoundTrip:
    def test_every_relation_round_trips(self):
        rng = random.Random(7)
        for relation in Relation:
            for _ in range(25):
                spec = dsl.single(randspec.random_rule(rng, relation))
                assert parse_spec(print_spec(spec)) == spec

    def test_random_specifications_round_trip(self):
        for spec in randspec.specification_batch(seed=42, count=300):
            text = print_spec(spec)
            again = parse_spec(text)
            assert again == spec
            assert print_spec(again) == text

    def test_printed_form_is_single_line(self):
        for spec in randspec.specification_batch(seed=3, count=100):
            assert "\n" not in print_spec(spec)


# tokens a mutation inserts: every piece of the grammar, magnitudes that need
# an exponent or overflow, an empty string and units outside the unit grammar
INSERTS = [
    "and", "or", "in", "true", "false", "use", "with", "prefer", "format", "recommend",
    "(", ")", "[", "]", "{", "}", ",", "%", "==", "!=", ">", "<", "-",
    "7", "-3", "2.5", "1" + "0" * 20, "9" * 400, "0.00001", '"url"', '""', '"x y"',
    "ms", "gb", "user_port", "--ssl-mode", "log.level", "m.s", "k-b", "-ms", "--x",
]
BAD_CHARS = "@#$^&*~`'\\|?;:!=é\u00a0"


def mutations(rng: random.Random, text: str) -> list[str]:
    """Lines near `text`: a token deleted, inserted or two swapped, a
    character that starts no token, and a unit in capitals or with a dot
    or dash in it."""
    tokens = [tok.text for tok in dsl_oracle._tokenize(text)][:-1]

    def join(parts):
        return "".join(part + rng.choice(("", " ", " ", "  ")) for part in parts).strip()

    out = []
    cut = tokens[:]
    del cut[rng.randrange(len(cut))]
    out.append(join(cut))
    grown = tokens[:]
    grown.insert(rng.randint(0, len(grown)), rng.choice(INSERTS + tokens))
    out.append(join(grown))
    swapped = tokens[:]
    i, j = rng.randrange(len(swapped)), rng.randrange(len(swapped))
    swapped[i], swapped[j] = swapped[j], swapped[i]
    out.append(join(swapped))
    at = rng.randint(0, len(text))
    out.append(text[:at] + rng.choice(BAD_CHARS) + text[at:])
    units = [k for k in range(1, len(tokens)) if tokens[k - 1][0].isdigit() and tokens[k][0].isalpha()]
    if units:
        k = rng.choice(units)
        unit = tokens[k]
        tokens[k] = unit.upper()
        out.append(" ".join(tokens))
        cut_at = rng.randint(0, len(unit))
        tokens[k] = unit[:cut_at] + rng.choice(".-") + unit[cut_at:]
        out.append(" ".join(tokens))
    return out


def outcome(parse, text):
    """The specification, or the exception's class and message."""
    try:
        return parse(text)
    except Exception as exc:  # every failure is compared, not only DslError
        return type(exc), str(exc)


class TestAgainstOracle:
    """`parse_spec` gives, line by line, what the parser it replaced gives
    (`tests/dsl_oracle.py`)."""

    def lines(self, seed, count):
        rng = random.Random(seed)
        for spec in randspec.specification_batch(seed=seed, count=count):
            text = print_spec(spec)
            yield text
            yield from mutations(rng, text)

    def test_random_and_mutated_lines(self):
        failures = 0
        seen = 0
        for text in self.lines(seed=11, count=600):
            expected = outcome(dsl_oracle.parse_spec, text)
            assert outcome(parse_spec, text) == expected, text
            seen += 1
            failures += isinstance(expected, tuple)
        # both sides of the grammar get exercised
        assert seen > 3000 and 0.4 < failures / seen < 0.9

    def test_padding_shifts_positions_only(self):
        rng = random.Random(12)
        for text in self.lines(seed=12, count=200):
            pad = rng.choice(("", " ", "\t ", "   "))
            expected = outcome(dsl_oracle.parse_spec, text)
            got = outcome(parse_spec, pad + text + rng.choice(("", " ", "\t")))
            if isinstance(expected, tuple) and expected[0] is DslSyntaxError:
                with pytest.raises(DslSyntaxError) as err:
                    dsl_oracle.parse_spec(text)
                position = err.value.position
                shifted = expected[1].replace(f"at position {position}:", f"at position {position + len(pad)}:", 1)
                assert got == (DslSyntaxError, shifted), text
            else:
                assert got == expected, text

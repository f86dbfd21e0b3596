import json
import random
from collections import Counter
from operator import attrgetter

import pytest

import dsl_oracle
import randspec

from specsyn import conformance
from specsyn.conformance import (
    ConfigFormat,
    ConfigMap,
    Verdict,
    Violation,
    check,
    check_spec,
    _matches,
    coerce_bool,
    evaluate_rule,
    has_hard_violations,
    parse_config,
    read_number,
    render_violations,
)
from specsyn.dsl import KeywordRef, parse_spec, print_spec
from specsyn.files import InputError, read_text
from specsyn.tagger import Lexicons, load_lexicons

LEX = load_lexicons()


def kv(text):
    return parse_config(text)


def rule_of(text):
    return parse_spec(text).rules[0]


def values_of(config, keyword):
    return [entry.value for entry in config.lookup(keyword)]


class TestParseConfig:
    def test_key_equals_value(self):
        cfg = kv("user_port = 1433\n")
        assert cfg.entries["user_port"].value == "1433"
        assert cfg.entries["user_port"].line == 1

    def test_key_space_value(self):
        cfg = kv("workers 4\n")
        assert cfg.entries["workers"].value == "4"

    def test_bare_key_is_present_with_empty_value(self):
        cfg = kv("skip-networking\n")
        assert cfg.entries["skip-networking"].value == ""

    def test_comments_and_blanks_skipped(self):
        cfg = kv("# top\n\n; note\nport = 1\n")
        assert list(cfg.entries) == ["port"]
        assert cfg.entries["port"].line == 4

    def test_duplicate_later_overrides_with_history(self):
        text = "a = 1\nb = 2\na = 3\n"
        cfg = kv(text)
        entry = cfg.entries["a"]
        assert entry.value == "3"
        assert entry.line == 3
        assert entry.earlier_lines == (1,)

    def test_values_kept_verbatim_trimmed(self):
        cfg = kv("path =  /var/lib  \n")
        assert cfg.entries["path"].value == "/var/lib"

    def test_value_may_contain_equals(self):
        cfg = kv("opts = a=b=c\n")
        assert cfg.entries["opts"].value == "a=b=c"

    def test_ini_sections_flatten(self):
        cfg = parse_config("[mysqld]\nmax_rows=5\n", ConfigFormat.INI)
        assert cfg.entries["mysqld.max_rows"].value == "5"

    def test_ini_keys_before_section_stay_bare(self):
        cfg = parse_config("global=1\n[s]\nk=2\n", ConfigFormat.INI)
        assert set(cfg.entries) == {"global", "s.k"}

    def test_bad_section_header_collected(self):
        cfg = parse_config("[]\nk=1\n", ConfigFormat.INI)
        assert [(m.line, m.reason) for m in cfg.malformed] == [
            (1, "bad section header"), (2, "key under a bad section header")
        ]
        assert cfg.entries == {}

    @pytest.mark.parametrize("header", ["[mysqld] # server", "[mysqld]; server", "[ mysqld ]\t# a ] b"])
    def test_comment_after_a_header(self, header):
        cfg = parse_config(f"[client]\nport=80\n{header}\nport=3306\n", ConfigFormat.INI)
        assert [(e.key, e.value, e.line, e.earlier_lines) for e in cfg.entries.values()] == [
            ("client.port", "80", 2, ()), ("mysqld.port", "3306", 4, ()),
        ]
        assert cfg.malformed == []

    @pytest.mark.parametrize("header", ["[a] x]", "[b]]", "[a]] # c", "[a] ]"])
    def test_a_closing_bracket_inside_a_header_is_a_bad_header(self, header):
        cfg = parse_config(f"[client]\nport=80\n{header}\nport=1\n", ConfigFormat.INI)
        assert [(e.key, e.value) for e in cfg.entries.values()] == [("client.port", "80")]
        assert [(m.line, m.text, m.reason) for m in cfg.malformed] == [
            (3, header, "bad section header"),
            (4, "port=1", "key under a bad section header"),
        ]

    def test_keys_under_a_bad_header_are_malformed(self):
        text = "[client]\nport=80\n[mysqld server\nport=3306\n9bad=1\n\n# note\n[other]\nport=1\n"
        cfg = parse_config(text, ConfigFormat.INI)
        assert [(e.key, e.value, e.earlier_lines) for e in cfg.entries.values()] == [
            ("client.port", "80", ()), ("other.port", "1", ()),
        ]
        assert [(m.line, m.text, m.reason) for m in cfg.malformed] == [
            (3, "[mysqld server", "bad section header"),
            (4, "port=3306", "key under a bad section header"),
            (5, "9bad=1", "bad key"),
        ]

    def test_malformed_key_collected_and_parsing_continues(self):
        cfg = kv("9bad = 1\ngood = 2\n")
        assert [m.line for m in cfg.malformed] == [1]
        assert cfg.entries["good"].value == "2"

    def test_bytes_input_decoded(self, tmp_path):
        (tmp_path / "my.cnf").write_bytes("motd = café\n".encode("utf-8"))
        cfg = parse_config(read_text(tmp_path / "my.cnf"))
        assert cfg.entries["motd"].value == "café"

    def test_invalid_utf8_raises(self, tmp_path):
        (tmp_path / "my.cnf").write_bytes(b"a = 1\n\xff\xfe broken\n")
        with pytest.raises(InputError, match=r"my\.cnf:2: not UTF-8"):
            read_text(tmp_path / "my.cnf")

    def test_only_newline_ends_a_line(self):
        cfg = kv("motd = hello\u2028world\nport = 1\n")
        assert [(e.key, e.value, e.line) for e in cfg.entries.values()] == [
            ("motd", "hello\u2028world", 1),
            ("port", "1", 2),
        ]

    def test_section_headers_are_not_kv_keys(self):
        cfg = kv("[mysqld]\nmax_rows = 5\n")
        assert "mysqld.max_rows" not in cfg.entries
        assert cfg.malformed[0].line == 1


class TestLookup:
    def test_exact_match(self):
        cfg = kv("max_rows = 5\n")
        assert values_of(cfg, "max_rows") == ["5"]

    def test_case_insensitive(self):
        cfg = kv("Max_Rows = 5\n")
        assert values_of(cfg, "max_rows") == ["5"]

    def test_suffix_match_through_sections(self):
        cfg = parse_config("[mysqld]\nmax_rows=5\n", ConfigFormat.INI)
        assert values_of(cfg, "max_rows") == ["5"]

    def test_exact_wins_over_suffix(self):
        cfg = parse_config("max_rows=1\n[s]\nmax_rows=2\n", ConfigFormat.INI)
        assert values_of(cfg, "max_rows") == ["1"]

    def test_option_prefix_ignored(self):
        cfg = kv("binlog = on\n")
        assert values_of(cfg, "--binlog") == ["on"]

    def test_missing_returns_none(self):
        assert kv("a = 1\n").lookup("b") == []

    def test_every_suffix_match_in_line_order(self):
        text = "[b]\nport=1\n[a]\nport=2\nlog.port=3\n[b]\nport=4\n"
        cfg = parse_config(text, ConfigFormat.INI)
        assert [(e.key, e.line) for e in cfg.lookup("port")] == [
            ("a.port", 4), ("a.log.port", 5), ("b.port", 7),
        ]
        assert values_of(cfg, "log.port") == ["3"]

    def test_later_duplicate_is_what_lookup_finds(self):
        cfg = parse_config("[s]\nport=1\nPort=7\nport=2\n", ConfigFormat.INI)
        assert [(e.key, e.value, e.line, e.earlier_lines) for e in cfg.lookup("port")] == [
            ("s.Port", "7", 3, ()), ("s.port", "2", 4, (2,)),
        ]


class TestCoercion:
    def test_numbers(self):
        assert read_number("1433") == (1433.0, None)
        assert read_number("1,024") == (1024.0, None)
        assert read_number("512 MB") == (512.0, "MB")
        assert read_number("512M") == (512.0, "M")
        assert read_number("-2.5") == (-2.5, None)
        assert read_number("75%") == (75.0, "%")

    def test_number_failures(self):
        for raw in ("abc", "", "12.5.3", "1 2", "two"):
            assert read_number(raw) is None

    def test_bools(self):
        for raw in ("on", "true", "enable", "enabled", "yes", "TRUE"):
            assert coerce_bool(raw, LEX) is True
        for raw in ("off", "false", "disable", "disabled", "no"):
            assert coerce_bool(raw, LEX) is False

    def test_bool_failures(self):
        for raw in ("maybe", "1433", ""):
            assert coerce_bool(raw, LEX) is None

    def test_bools_fold_case_over_ascii_only(self):
        """Lexicon lines fold over ASCII alone when loaded, so a non-ASCII
        surface is stored as `ÉtÉ`; a config value folds the same way."""
        lex = Lexicons(("ÉtÉ", "on"), (), ())
        for raw in ("ÉtÉ", "ÉTÉ", " ÉtÉ "):
            assert coerce_bool(raw, lex) is True
        # É has no ASCII case, so é stays another letter
        assert coerce_bool("été", lex) is None

    def test_keywords_fold_case_over_ascii_only(self):
        assert _matches("KEY_Size", None, KeywordRef("key_size"), LEX) is True
        # the Kelvin sign lowercases to k under str.lower, but is no ASCII K
        assert _matches("\u212aey_size", None, KeywordRef("key_size"), LEX) is False
        assert verdict_of("mode == kafka", "mode = \u212aafka\n") == Verdict.VALUE_OUT_OF_RANGE
        assert verdict_of("mode == kafka", "mode = KAFKA\n") is None


def verdict_of(spec_text, config_text):
    findings = evaluate_rule(rule_of(spec_text), kv(config_text), LEX)
    assert len(findings) <= 1
    return findings[0].verdict if findings else None


class TestRuleSemantics:
    def test_eq_number(self):
        assert verdict_of("port == 3306", "port = 3306\n") is None
        assert verdict_of("port == 3306", "port = 3307\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_eq_bool_accepts_lexicon_spellings(self):
        assert verdict_of("ssl == true", "ssl = on\n") is None
        assert verdict_of("ssl == true", "ssl = enabled\n") is None
        assert verdict_of("ssl == true", "ssl = off\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_eq_wrong_type(self):
        assert verdict_of("ssl == true", "ssl = 42\n") == Verdict.WRONG_TYPE
        assert verdict_of("port == 3306", "port = auto\n") == Verdict.WRONG_TYPE

    def test_neq(self):
        assert verdict_of("mode != legacy", "mode = fast\n") is None
        assert verdict_of("mode != legacy", "mode = legacy\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_gt_lt(self):
        assert verdict_of("user_port > 1500", "user_port = 1501\n") is None
        assert verdict_of("user_port > 1500", "user_port = 1433\n") == Verdict.VALUE_OUT_OF_RANGE
        assert verdict_of("timeout < 60", "timeout = 59\n") is None
        assert verdict_of("timeout < 60", "timeout = 60\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_magnitudes_compare_without_unit_conversion(self):
        assert verdict_of("cache > 100", "cache = 512 MB\n") is None
        assert verdict_of("cache > 100", "cache = 0.2 GB\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_interval(self):
        assert verdict_of("max_rows in [2, 7]", "max_rows = 5\n") is None
        assert verdict_of("max_rows in [2, 7]", "max_rows = 2\n") is None
        assert verdict_of("max_rows in [2, 7]", "max_rows = 7\n") is None
        assert verdict_of("max_rows in [2, 7]", "max_rows = 8\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_set_membership(self):
        assert verdict_of("mode in { fast , safe }", "mode = safe\n") is None
        assert verdict_of("mode in { fast , safe }", "mode = slow\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_set_with_mixed_types(self):
        assert verdict_of("level in { 3 , auto }", "level = auto\n") is None
        assert verdict_of("level in { 3 , auto }", "level = 3\n") is None

    def test_missing_key_on_quantitative(self):
        assert verdict_of("user_port > 1500", "other = 1\n") == Verdict.MISSING_KEY

    def test_use_is_advisory(self):
        assert verdict_of("use ( ssl )", "ssl = on\n") is None
        assert verdict_of("use ( ssl )", "other = 1\n") == Verdict.ADVISORY_ONLY

    def test_recommend_is_advisory(self):
        assert verdict_of("recommend ( backups )", "x = 1\n") == Verdict.ADVISORY_ONLY

    def test_with_requires_partner(self):
        assert verdict_of("with ( ssl_ca , ssl_cert )", "ssl_ca = /a\n") == Verdict.MISSING_KEY
        assert verdict_of("with ( ssl_ca , ssl_cert )", "ssl_ca = /a\nssl_cert = /b\n") is None
        assert verdict_of("with ( ssl_ca , ssl_cert )", "other = 1\n") is None

    def test_with_violation_names_the_partner(self):
        (finding,) = evaluate_rule(
            rule_of("with ( ssl_ca , ssl_cert )"), kv("ssl_ca = /a\n"), LEX
        )
        assert finding.key == "ssl_cert"

    def test_prefer_triggers_on_disfavored_only(self):
        assert verdict_of("prefer ( utf8mb4 , utf8 )", "utf8 = on\n") == Verdict.ADVISORY_ONLY
        assert verdict_of("prefer ( utf8mb4 , utf8 )", "utf8mb4 = on\nutf8 = on\n") is None
        assert verdict_of("prefer ( utf8mb4 , utf8 )", "x = 1\n") is None

    def test_format_absent_key_is_fine(self):
        assert verdict_of('format ( datadir , "absolute path" )', "x = 1\n") is None

    def test_format_mismatch_is_hard(self):
        assert verdict_of('format ( datadir , "absolute path" )', "datadir = rel/path\n") == Verdict.FORMAT_MISMATCH
        assert verdict_of('format ( datadir , "absolute path" )', "datadir = /var/db\n") is None

    def test_unknown_format_class_never_blocks(self):
        assert verdict_of('format ( x , "cron expression" )', "x = whatever\n") is None


class TestFormatCheckers:
    @pytest.mark.parametrize("cls,good,bad", [
        ("absolute path", "/etc/app.conf", "etc/app.conf"),
        ("relative path", "etc/app.conf", "/etc/app.conf"),
        ("email address", "ops@example.com", "not-an-email"),
        ("domain name", "db.example.com", "-bad-.com"),
        ("url", "https://example.com/x", "example.com/x"),
        ("ip address", "10.0.0.1", "999.0.0.1"),
    ])
    def test_checker_pairs(self, cls, good, bad):
        spec = f'format ( k , "{cls}" )'
        assert verdict_of(spec, f"k = {good}\n") is None
        assert verdict_of(spec, f"k = {bad}\n") == Verdict.FORMAT_MISMATCH

    def test_ipv6_accepted(self):
        assert verdict_of('format ( k , "ip address" )', "k = ::1\n") is None


class TestConnectives:
    def violated(self, spec_text, config_text):
        status, _ = check_spec(parse_spec(spec_text), kv(config_text), LEX)
        return status

    def test_and_or_duality_over_values(self):
        # r1 = a > 10, r2 = b > 10; drive each to pass/fail via the value
        for a_ok in (True, False):
            for b_ok in (True, False):
                config = f"a = {20 if a_ok else 5}\nb = {20 if b_ok else 5}\n"
                v1, v2 = (not a_ok), (not b_ok)
                assert self.violated("a > 10 and b > 10", config) == (v1 or v2)
                assert self.violated("a > 10 or b > 10", config) == (v1 and v2)

    def test_and_or_duality_over_presence(self):
        for a_present in (True, False):
            for b_present in (True, False):
                lines = []
                if a_present:
                    lines.append("a = 20")
                if b_present:
                    lines.append("b = 20")
                config = "\n".join(lines) + "\n"
                v1, v2 = (not a_present), (not b_present)
                assert self.violated("a > 10 and b > 10", config) == (v1 or v2)
                assert self.violated("a > 10 or b > 10", config) == (v1 and v2)

    def test_or_suppresses_findings_when_one_side_passes(self):
        _, findings = check_spec(parse_spec("a > 10 or b > 10"), kv("a = 20\n"), LEX)
        assert findings == []

    def test_or_reports_both_when_both_fail(self):
        _, findings = check_spec(parse_spec("a > 10 or b > 10"), kv("a = 1\nb = 1\n"), LEX)
        assert len(findings) == 2

    def test_and_reports_each_failed_conjunct(self):
        _, findings = check_spec(
            parse_spec("a > 10 and b > 10"), kv("a = 1\nb = 20\n"), LEX
        )
        assert len(findings) == 1
        assert findings[0].key == "a"

    def test_missing_second_conjunct_is_missing_key(self):
        spec = parse_spec("have_ssl == true and have_open_ssl == true")
        status, findings = check_spec(spec, kv("have_ssl = true\n"), LEX)
        assert status
        assert [f.verdict for f in findings] == [Verdict.MISSING_KEY]
        assert findings[0].key == "have_open_ssl"

    def test_mixed_connectives_fold_left(self):
        # (a > 10 and b > 10) or c > 10: AND side fails, c saves it
        spec = parse_spec("a > 10 and b > 10 or c > 10")
        status, findings = check_spec(spec, kv("a = 1\nb = 1\nc = 20\n"), LEX)
        assert not status
        assert findings == []

    def test_advisory_never_affects_status(self):
        spec = parse_spec("use ( ssl ) and port == 3306")
        status, findings = check_spec(spec, kv("port = 3306\n"), LEX)
        assert not status
        assert [f.verdict for f in findings] == [Verdict.ADVISORY_ONLY]

    def test_advisory_survives_or_suppression(self):
        spec = parse_spec("use ( ssl ) or port == 3306")
        status, findings = check_spec(spec, kv("port = 3306\n"), LEX)
        assert not status
        assert [f.verdict for f in findings] == [Verdict.ADVISORY_ONLY]


class TestCheck:
    def test_user_port_fixture(self):
        cfg = kv("user_port = 1433\n")
        violations = check(cfg, [parse_spec("user_port > 1500")])
        assert len(violations) == 1
        v = violations[0]
        assert v.verdict == Verdict.VALUE_OUT_OF_RANGE
        assert v.observed == "1433"
        assert v.line == 1
        assert has_hard_violations(violations)

    def test_clean_config_has_no_findings(self):
        cfg = kv("user_port = 1501\nmax_rows = 5\n")
        specs = [parse_spec("user_port > 1500"), parse_spec("max_rows in [2, 7]")]
        assert check(cfg, specs) == []

    def test_monotonicity_unrelated_keys_never_violate(self):
        specs = [parse_spec("user_port > 1500")]
        base = check(kv("user_port = 1501\n"), specs)
        grown = check(kv("user_port = 1501\nnew_key = 7\n"), specs)
        assert base == grown == []

    def test_findings_follow_spec_order(self):
        cfg = kv("a = 1\nb = 1\n")
        specs = [parse_spec("a > 10"), parse_spec("b > 10")]
        keys = [v.key for v in check(cfg, specs)]
        assert keys == ["a", "b"]

    def test_advisory_only_is_not_hard(self):
        cfg = kv("x = 1\n")
        violations = check(cfg, [parse_spec("use ( ssl )")])
        assert violations and not has_hard_violations(violations)

    def test_violation_json_roundtrip(self):
        violations = check(kv("user_port = 1433\n"), [parse_spec("user_port > 1500")])
        payload = json.dumps([v.to_dict() for v in violations])
        data = json.loads(payload)
        assert data[0]["verdict"] == "ValueOutOfRange"
        assert data[0]["rule"] == "user_port > 1500"

    def test_render_table(self):
        violations = check(kv("user_port = 1433\n"), [parse_spec("user_port > 1500")])
        text = render_violations(violations)
        assert "ValueOutOfRange" in text
        assert "user_port" in text
        assert render_violations([]) == "no violations"

    def test_render_keeps_long_cells_apart(self):
        config = parse_config(
            "[section_099]\nsort_rate_02764 = 12520\n[s]\npath = /var/lib/a/very/long/observed/value\n",
            ConfigFormat.INI,
        )
        specs = [parse_spec("sort_rate_02764 != 12520"), parse_spec("path == 1"), parse_spec("use(x)")]
        lines = render_violations(check(config, specs, LEX)).split("\n")
        assert lines == [
            "  verdict          key                          observed                             line",
            "  ValueOutOfRange  section_099.sort_rate_02764  12520                                2",
            "  WrongType        s.path                       /var/lib/a/very/long/observed/value  4",
            "  AdvisoryOnly     x                            -                                    -",
        ]


class TestSectionOrder:
    CLIENT = "[client]\nport = 80\n"
    MYSQLD = "[mysqld]\nport = 3306\n"

    @pytest.mark.parametrize("order", ["client first", "mysqld first"])
    def test_violation_found_in_either_order(self, order):
        text = self.CLIENT + self.MYSQLD if order == "client first" else self.MYSQLD + self.CLIENT
        findings = check(parse_config(text, ConfigFormat.INI), [parse_spec("port > 1500")])
        assert [(v.key, v.observed, v.verdict) for v in findings] == [
            ("client.port", "80", Verdict.VALUE_OUT_OF_RANGE)
        ]

    def test_each_failing_entry_reported_in_line_order(self):
        text = "[a]\nport = 1\n[b]\nport = 2000\n[c]\nport = 3\n"
        findings = check(parse_config(text, ConfigFormat.INI), [parse_spec("port > 1500")])
        assert [(v.key, v.line) for v in findings] == [("a.port", 2), ("c.port", 6)]

    def test_format_checked_in_every_section(self):
        text = "[a]\ndatadir = /srv\n[b]\ndatadir = rel\n"
        spec = parse_spec('format ( datadir , "absolute path" )')
        findings = check(parse_config(text, ConfigFormat.INI), [spec])
        assert [(v.key, v.verdict) for v in findings] == [("b.datadir", Verdict.FORMAT_MISMATCH)]

    def test_prefer_reports_each_disfavored_entry(self):
        text = "[a]\nutf8 = on\n[b]\nutf8 = off\n"
        spec = parse_spec("prefer ( utf8mb4 , utf8 )")
        findings = check(parse_config(text, ConfigFormat.INI), [spec])
        assert [(v.observed, v.line) for v in findings] == [("on", 2), ("off", 4)]


class TestUnits:
    def test_unit_disagreement_is_a_soft_unit_mismatch(self):
        findings = check(kv("innodb_buffer = 1 gb\n"), [parse_spec("innodb_buffer > 100 mb")])
        assert [(v.verdict, v.observed) for v in findings] == [(Verdict.UNIT_MISMATCH, "1 gb")]
        assert not has_hard_violations(findings)
        assert findings[0].to_dict()["verdict"] == "UnitMismatch"

    def test_units_compare_ignoring_case(self):
        assert verdict_of("innodb_buffer > 100 mb", "innodb_buffer = 200 MB\n") is None
        assert verdict_of("innodb_buffer > 100 mb", "innodb_buffer = 1 MB\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_a_side_without_unit_compares_magnitudes(self):
        assert verdict_of("innodb_buffer > 100 mb", "innodb_buffer = 50\n") == Verdict.VALUE_OUT_OF_RANGE
        assert verdict_of("innodb_buffer > 100 mb", "innodb_buffer = 500\n") is None
        assert verdict_of("innodb_buffer > 100", "innodb_buffer = 1 gb\n") == Verdict.VALUE_OUT_OF_RANGE

    def test_a_passing_magnitude_in_another_unit_is_still_reported(self):
        assert verdict_of("innodb_buffer > 100 mb", "innodb_buffer = 500 gb\n") == Verdict.UNIT_MISMATCH

    @pytest.mark.parametrize("spec", [
        "wait < 60 s", "wait in [1 s, 60 s]", "wait == 30 s", "wait != 30 s",
        "wait in { 30 s , 60 s }",
    ])
    def test_every_numeric_relation(self, spec):
        assert verdict_of(spec, "wait = 30 ms\n") == Verdict.UNIT_MISMATCH
        assert verdict_of(spec, "wait = auto\n") == Verdict.WRONG_TYPE

    def test_a_set_member_without_unit_compares_magnitudes(self):
        assert verdict_of("wait in { 30 , 60 s }", "wait = 30 ms\n") is None

    def test_unit_mismatch_never_violates_a_spec(self):
        status, findings = check_spec(
            parse_spec("a > 10 mb and b > 10"), kv("a = 1 gb\nb = 20\n"), LEX
        )
        assert not status
        assert [f.verdict for f in findings] == [Verdict.UNIT_MISMATCH]


# ---------------------------------------------------------------------------
# seeded properties, in the style of tests/randspec.py

SEGMENTS = ("port", "Port", "PORT", "max_rows", "log", "level", "ssl", "Log")
SECTIONS = ("client", "Client", "mysqld", "log", "a.b", "A.B", "server")
VALUES = (
    "80", "3306", "1,024", "1 gb", "100 mb", "512 MB", "-2.5", "75%", "on", "off",
    "true", "/var/lib", "rel/path", "utf8mb4", "ops@example.com", "10.0.0.1", "auto", "",
)


def random_key(rng: random.Random) -> str:
    prefix = rng.choice(("", "", "", "-", "--"))
    return prefix + ".".join(rng.choice(SEGMENTS) for _ in range(rng.randint(1, 3)))


def random_keyword(rng: random.Random) -> str:
    """A probe that is often a whole key, a dotted tail of one, or absent."""
    parts = random_key(rng).lstrip("-").split(".")
    keyword = ".".join(parts[rng.randrange(len(parts)):])
    return rng.choice(("", "--")) + rng.choice((keyword, keyword.upper(), "absent"))


def random_config_text(rng: random.Random, fmt: ConfigFormat) -> str:
    bare = rng.randint(0, 3) if fmt is ConfigFormat.INI else rng.randint(1, 8)
    lines = [f"{random_key(rng)} = {rng.choice(VALUES)}" for _ in range(bare)]
    if fmt is ConfigFormat.INI:
        for _ in range(rng.randint(0, 4)):
            lines.append(f"[{rng.choice(SECTIONS)}]")
            lines += [f"{random_key(rng)} = {rng.choice(VALUES)}" for _ in range(rng.randint(0, 4))]
    return "\n".join(lines) + "\n"


LINE_ENDS = ("\n", "\r\n", "\r")
# str.splitlines breaks at these too; inside a config line they are text
NOT_LINE_ENDS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def random_line_ends(rng: random.Random) -> tuple[str, list[tuple[str, str, int]]]:
    """Config text whose lines end at random line ends, and the (key,
    value, line) of each entry it holds."""
    text, entries = "", []
    for number in range(1, rng.randint(1, 12) + 1):
        kind = rng.randrange(5)
        if kind == 0:
            # not empty: an empty line after "\r" would turn it into "\r\n"
            line = rng.choice((" ", "\t", "# note" + rng.choice(NOT_LINE_ENDS) + "more"))
        else:
            key = f"key{number}"
            value = "v" + "".join(rng.choice(("a", " ", *NOT_LINE_ENDS)) for _ in range(6)) + "w"
            line = f"{key} = {value}" if kind < 3 else f"{key} {value}"
            entries.append((key, value, number))
        text += line + rng.choice(LINE_ENDS)
    return text.removesuffix(rng.choice(("", "\n"))), entries


def scan_lookup(config: ConfigMap, keyword: str) -> list:
    """The former `ConfigMap.lookup`, two scans over every entry: exact
    match first, then a `.keyword` suffix; each tier keeps every match, in
    line order."""
    wanted = keyword.lower().lstrip("-")
    entries = config.entries.values()
    found = [e for e in entries if e.key.lower().lstrip("-") == wanted]
    if not found:
        found = [e for e in entries if e.key.lower().endswith("." + wanted)]
    return sorted(found, key=attrgetter("line"))


def sectioned(rng: random.Random) -> tuple[str, list[str]]:
    """A preamble of bare keys and INI sections with distinct names."""
    preamble = "".join(f"{random_key(rng)} = {rng.choice(VALUES)}\n" for _ in range(rng.randint(0, 2)))
    names = rng.sample(SECTIONS + tuple(k.upper() for k in randspec.KEYWORDS[:3]), rng.randint(2, 5))
    blocks = []
    for name in names:
        keys = [rng.choice(randspec.KEYWORDS) for _ in range(rng.randint(1, 5))]
        blocks.append(f"[{name}]\n" + "".join(f"{k} = {rng.choice(VALUES)}\n" for k in keys))
    return preamble, blocks


def finding_counts(config_text: str, specs) -> Counter:
    findings = check(parse_config(config_text, ConfigFormat.INI), specs, LEX)
    return Counter((v.rule, v.key, v.observed, v.verdict) for v in findings)


class TestSeededProperties:
    @pytest.mark.parametrize("fmt", list(ConfigFormat))
    def test_index_agrees_with_scan(self, fmt):
        rng = random.Random(20231 if fmt is ConfigFormat.INI else 20232)
        found = 0
        for _ in range(400):
            config = parse_config(random_config_text(rng, fmt), fmt)
            for _ in range(15):
                keyword = random_keyword(rng)
                assert config.lookup(keyword) == scan_lookup(config, keyword), keyword
                found += bool(config.lookup(keyword))
        assert found > 1500  # a quarter of the 6,000 probes name a key

    def test_lines_end_only_at_line_ends(self, tmp_path):
        rng = random.Random(2029)
        path = tmp_path / "my.cnf"
        for _ in range(300):
            text, expected = random_line_ends(rng)
            path.write_bytes(text.encode("utf-8"))
            config = parse_config(read_text(path))
            assert [(e.key, e.value, e.line) for e in config.entries.values()] == expected
            assert config.malformed == []

    def test_section_order_never_changes_findings(self):
        rng = random.Random(7)
        specs = [randspec.random_specification(rng) for _ in range(40)]
        for _ in range(150):
            preamble, blocks = sectioned(rng)
            expected = finding_counts(preamble + "".join(blocks), specs)
            for _ in range(3):
                rng.shuffle(blocks)
                assert finding_counts(preamble + "".join(blocks), specs) == expected

    def test_printed_specs_check_alike(self):
        rng = random.Random(11)
        specs = randspec.specification_batch(seed=5, count=200)
        for _ in range(60):
            config = parse_config(random_config_text(rng, ConfigFormat.INI), ConfigFormat.INI)
            for spec in specs:
                reparsed = parse_spec(print_spec(spec))
                assert check(config, [spec], LEX) == check(config, [reparsed], LEX)


HEADERS = ("[client]", "[ Client ]", "[a.b]", "[Σ]", "[İx]", "[mysqld]")
BAD_HEADERS = ("[]", "[x", "[x] # c", "[x] ; c", "[ ] # c", "[a]]", "[x] junk", "[a] # b ]")
MESSY_KEYS = ("Port", "--PORT", "-port", "a.b.port", "x.", "log.Level", "ΣKEY")
MALFORMED = ("9bad = 1", "a b = c", "= v", "@x", "key@ = v", "[x", "\"q\" = 1")


def messy_config_text(rng: random.Random, fmt: ConfigFormat) -> str:
    """Lines of every kind a config reader meets: spaced and bare keys,
    duplicates, mixed case and `--` keys, comments, blanks, headers (a few
    of them bad or commented) and malformed lines."""
    lines, keys = [], []

    def ws():
        return rng.choice(("", "", " ", "  ", "\t"))

    for _ in range(rng.randint(1, 25)):
        roll = rng.random()
        if roll < 0.5:
            if keys and rng.random() < 0.25:
                key = rng.choice(keys)
            else:
                key = random_key(rng) if rng.random() < 0.7 else rng.choice(MESSY_KEYS)
                keys.append(key)
            value = rng.choice(VALUES + ("a = b", " spaced  out "))
            form = rng.randrange(3)
            if form == 0:
                lines.append(f"{ws()}{key}{ws()}={ws()}{value}{ws()}")
            elif form == 1:
                lines.append(f"{ws()}{key} {value}")
            else:
                lines.append(f"{ws()}{key}{ws()}")
        elif roll < 0.6:
            lines.append(ws() + rng.choice(("# x = 1", "; y", "#", ";;")))
        elif roll < 0.7:
            lines.append(ws())
        elif roll < 0.8:
            lines.append(rng.choice(MALFORMED))
        else:
            header = rng.choice(BAD_HEADERS) if rng.random() < 0.1 else rng.choice(HEADERS)
            lines.append(ws() + header + ws())
    return "\n".join(lines) + rng.choice(("", "\n"))


def header_fix_applies(text: str) -> bool:
    """Whether an INI header in `text` reads differently since the
    comment and bad-header rules: commented, or bad either way."""
    for raw in text.split("\n"):
        line = raw.strip()
        if line.startswith("["):
            old = line[1:-1].strip() if line.endswith("]") else ""
            if not old or old != conformance._section_name(line):
                return True
    return False


def read_back(config) -> tuple:
    entries = [(e.key, e.value, e.line, e.earlier_lines) for e in config.entries.values()]
    malformed = [(m.line, m.text, m.reason) for m in config.malformed]
    return entries, malformed


class TestConfigAgainstOracle:
    """`parse_config` reads what the reader it replaced read
    (`tests/dsl_oracle.py`), except where the header rules changed."""

    @pytest.mark.parametrize("fmt", list(ConfigFormat))
    def test_random_texts(self, fmt):
        rng = random.Random(31 if fmt is ConfigFormat.INI else 32)
        compared = probes = 0
        for _ in range(650):
            text = messy_config_text(rng, fmt)
            if fmt is ConfigFormat.INI and header_fix_applies(text):
                continue
            got, expected = parse_config(text, fmt), dsl_oracle.parse_config(text, fmt)
            assert read_back(got) == read_back(expected), text
            names = {"absent", ""}
            for key in got.entries:
                lowered = key.lower()
                names.update((key, key.upper(), "--" + key, lowered.lstrip("-")))
                names.update(lowered[i + 1:] for i, c in enumerate(lowered) if c == ".")
            for name in names:
                assert got.lookup(name) == expected.lookup(name), (text, name)
            compared += 1
            probes += len(names)
        assert compared > 400 and probes > 10 * compared

"""The one reader of input files: UTF-8 text whose lines end at "\\n",
"\\r\\n" or "\\r", and one error that names the file and the line."""

import pytest

from specsyn.files import (
    InputError,
    content_lines,
    read_json,
    read_jsonl,
    read_text,
    write_jsonl,
)


class TestReadText:
    def test_line_ends_become_newlines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc\nd")
        assert read_text(path) == "a\nb\nc\nd"

    def test_other_breaks_stay_inside_the_line(self, tmp_path):
        line = "a\x0bb\x0cc\x1cd\x1de\x1ef\x85g h i"
        path = tmp_path / "t.txt"
        path.write_bytes((line + "\n").encode("utf-8"))
        assert read_text(path).split("\n") == [line, ""]

    def test_bad_byte_names_its_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"one\r\ntwo\rthree\n\xff\n")
        with pytest.raises(InputError) as err:
            read_text(path)
        assert err.value.lineno == 4
        assert str(err.value).startswith(f"{path}:4: not UTF-8")


class TestContentLines:
    def test_blank_and_comment_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "kw.txt"
        path.write_bytes(b"# keywords\r\n\r\n  alpha  \rbeta\n")
        assert content_lines(path) == [(3, "alpha"), (4, "beta")]


class TestJsonl:
    def test_round_trip_keeps_text_as_is(self, tmp_path):
        path = tmp_path / "r.jsonl"
        records = [{"text": "café \x85"}, {"n": 1}]
        write_jsonl(path, records)
        assert path.read_bytes() == '{"text": "café \x85"}\n{"n": 1}\n'.encode("utf-8")
        assert read_jsonl(path, dict) == records

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('\n{"n": 1}\n  \n{"n": 2}\n', encoding="utf-8")
        assert read_jsonl(path, lambda record: record["n"]) == [1, 2]

    def test_bad_json_names_the_file_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": 1}\n{"n": \n', encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_jsonl(path, dict)
        assert str(err.value).startswith(f"{path}:2: not JSON")
        assert "line 1 column" not in str(err.value)

    def test_record_must_be_an_object(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"r\.jsonl:1: not a JSON object$"):
            read_jsonl(path, dict)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": 1}\n{"text": "x"}\n', encoding="utf-8")
        with pytest.raises(InputError, match=r"r\.jsonl:2: missing field 'n'$"):
            read_jsonl(path, lambda record: record["n"])

    def test_rejected_record(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": -1}\n', encoding="utf-8")

        def positive(record):
            if record["n"] < 0:
                raise ValueError("n must be positive")
            return record["n"]

        with pytest.raises(InputError, match=r"r\.jsonl:1: n must be positive$"):
            read_jsonl(path, positive)


class TestReadJson:
    def test_syntax_error_names_its_line(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text('{\n  "a": 1,\n  oops\n}\n', encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_json(path, dict)
        assert err.value.lineno == 3

    def test_wrong_field_type(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text('{"target": 5}\n', encoding="utf-8")
        with pytest.raises(InputError, match=r"seeds\.json: 'int' object has no attribute 'split'$"):
            read_json(path, lambda record: record["target"].split())

    def test_record_error_names_the_file_alone(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text('{"software": "x"}\n', encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_json(path, lambda record: record["templates"])
        assert err.value.lineno is None
        assert str(err.value) == f"{path}: missing field 'templates'"

"""The one reader of input files: UTF-8 text whose lines end at "\\n",
"\\r\\n" or "\\r", and one error that names the file and the line; and
the one writer of output files, which rewrites a file in place."""

import ast
import os
import stat
import threading
from pathlib import Path

import pytest

import specsyn

from specsyn.files import (
    InputError,
    content_lines,
    read_json,
    read_jsonl,
    read_text,
    write_jsonl,
    write_output,
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


class TestWriteOutput:
    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 10_000)
        write_output(path, b"0123456789")
        assert path.read_bytes() == b"0123456789"

    def test_text_is_utf8_with_line_ends_as_given(self, tmp_path):
        path = tmp_path / "out.csv"
        write_output(path, "a,é\r\nb\n")
        assert path.read_bytes() == "a,é\r\nb\n".encode("utf-8")

    def test_empty_content_gives_an_empty_file(self, tmp_path):
        path = tmp_path / "out.spec"
        write_output(path, "")
        assert path.read_bytes() == b""
        path.write_bytes(b"old rule\n")
        write_output(path, b"")
        assert path.read_bytes() == b""

    def test_symlink_is_kept_and_its_target_rewritten(self, tmp_path):
        target = tmp_path / "target.spec"
        target.write_bytes(b"a much longer old content\n")
        link = tmp_path / "link.spec"
        link.symlink_to(target)
        write_output(link, "new\n")
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"{}\n")
        path.chmod(0o600)
        write_output(path, "[]\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == b"[]\n"

    def test_devnull(self):
        write_output(os.devnull, "discarded\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_is_written_and_never_cut(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        data = b"x" * 200_000  # more than a pipe buffer holds
        received = []

        def drain():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain)
        reader.start()
        write_output(fifo, data)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [data]


_WRITE_MODE_LETTERS = set("wax+")


def file_writes(source: str) -> list[int]:
    """Line numbers of each call in `source` that opens a file to write or
    append to it, or that writes one through `pathlib`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            lines.append(node.lineno)
            continue
        if isinstance(func, ast.Name) and func.id == "open":
            mode_at = 1  # open(file, mode)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if owner == "os":
                lines.append(node.lineno)  # flags, not a mode: only files.py may
                continue
            mode_at = 1 if owner == "io" else 0  # io.open(file, mode), Path.open(mode)
        else:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        modes += node.args[mode_at:mode_at + 1]
        for mode in modes:
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not _WRITE_MODE_LETTERS & set(mode.value)):
                lines.append(node.lineno)
    return sorted(lines)


class TestOneWriter:
    def test_scanner_finds_each_way_to_write(self):
        source = (
            "open(p)\nopen(p, 'rb')\nopen(p, mode='r', encoding='utf-8')\n"
            "open(p, 'w')\nio.open(p, 'ab')\nopen(p, mode='x')\nopen(p, 'r+b')\n"
            "open(p, m)\nPath(p).open('w')\nPath(p).write_text(s)\nos.open(p, f)\n"
            "io.open(p, 'r')\nPath(p).open()\n"
        )
        assert file_writes(source) == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_only_files_py_writes_files(self):
        package = Path(specsyn.__file__).parent
        found = {
            str(path.relative_to(package)): lines
            for path in sorted(package.rglob("*.py"))
            if path.name != "files.py"
            and (lines := file_writes(path.read_text(encoding="utf-8")))
        }
        assert found == {}

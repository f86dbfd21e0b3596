"""How specsyn reads its input files and writes its outputs.

Input files are read as UTF-8 whose lines end at ``\\n``, ``\\r\\n`` or
``\\r`` alone (a form feed or U+2028 stays inside its line). A file that
cannot be read so raises `InputError`, naming PATH[:LINE]. Every output
file is written by `write_output`."""

from __future__ import annotations

import json
import os
import stat


class InputError(ValueError):
    """An input file that cannot be read; the message starts PATH[:LINE]:."""

    def __init__(self, path, lineno, cause):
        super().__init__(f"{path}: {cause}" if lineno is None else f"{path}:{lineno}: {cause}")
        self.lineno = lineno


def read_text(path) -> str:
    """The file decoded as UTF-8, with each line end turned into ``\\n``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        lineno = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise InputError(path, lineno, f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def content_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line that is neither blank nor a
    '#' comment; spec, keyword, lexicon and distractor files all read this way."""
    return [
        (lineno, line)
        for lineno, raw in enumerate(read_text(path).split("\n"), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]


def _record(path, lineno, text, from_record):
    """`from_record` of the JSON object in `text`, which is line `lineno`
    of the file, or all of it when `lineno` is None."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        at = exc.lineno if lineno is None else lineno
        raise InputError(path, at, f"not JSON: {exc.msg} at column {exc.colno}") from exc
    try:
        if not isinstance(record, dict):
            raise TypeError("not a JSON object")
        return from_record(record)
    except KeyError as exc:
        raise InputError(path, lineno, f"missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(path, lineno, exc) from exc


def read_json(path, from_record):
    """`from_record` of the one JSON object the file holds."""
    return _record(path, None, read_text(path), from_record)


def read_jsonl(path, from_record) -> list:
    """`from_record` of each JSON object, one per non-blank line."""
    lines = enumerate(read_text(path).split("\n"), start=1)
    return [_record(path, lineno, line, from_record) for lineno, line in lines if line.strip()]


def write_output(path, data: str | bytes) -> None:
    """Make the file at `path` hold exactly `data`; a str is written as
    UTF-8, its line ends as given.

    The file is rewritten in place: opened without truncation, written
    from its first byte, then cut at the written length if it is a
    regular file. A file truncated to zero, or renamed over another, gets
    a forced writeback when it is closed on ext4 (``auto_da_alloc``),
    which costs tens of milliseconds per file; this way costs none. A
    symlink is followed, an existing file keeps its mode and hard links,
    and a pipe, FIFO or ``/dev/stdout`` is written and never cut. A write
    interrupted part-way leaves the new bytes written so far followed by
    the old file's tail past them, not a truncated prefix."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_jsonl(path, records) -> None:
    """One JSON object per line, non-ASCII text kept as it is."""
    lines = (json.dumps(record, ensure_ascii=False) + "\n" for record in records)
    write_output(path, "".join(lines))


def write_json(path, value, sort_keys=False) -> None:
    write_output(path, json.dumps(value, indent=2, sort_keys=sort_keys) + "\n")

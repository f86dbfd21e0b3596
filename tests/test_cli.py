"""End-to-end command-line tests, run through subprocesses; a test that
must replace a model method runs `specsyn.cli.main` in this process."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

import specsyn
from conftest import run_cli, run_python
from specsyn import cli, dsl
from specsyn.dsl import parse_spec
from specsyn.model import (
    GenerationResult,
    Model,
    ModelConfig,
    Vocab,
    reserved_tokens,
    save_checkpoint,
)

DOC = (
    "Set user_port to a value greater than 1500.\n"
    "See page 157 of the manual for details of mysql.\n"
)
KEYWORDS = "user_port\nmysql\n"


def test_child_imports_the_same_specsyn(tmp_path):
    proc = run_python(
        "-c", "import specsyn; print(specsyn.__file__)", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(specsyn.__file__).resolve()


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Composed dataset plus a briefly trained model, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "doc.txt").write_text(DOC, encoding="utf-8")
    (root / "kw.txt").write_text(KEYWORDS, encoding="utf-8")
    proc = run_cli(
        "compose", "--n", 120, "--test-n", 24,
        "--out", "train.jsonl", "--test-out", "test.jsonl",
        cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "train", "--data", "train.jsonl", "--epochs", 5,
        "--d-model", 16, "--blocks", 1, "--max-len", 48,
        "--out", "model.spsy", "--log", "loss.csv",
        cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    return root


class TestArguments:
    def test_help_lists_subcommands(self, tmp_path):
        proc = run_cli("--help", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        for name in ("ingest", "compose", "train", "synthesize", "eval", "check"):
            assert name in proc.stdout

    def test_unknown_subcommand_is_a_usage_error(self, tmp_path):
        proc = run_cli("frobnicate", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_missing_required_flag(self, tmp_path):
        proc = run_cli("train", "--data", "x.jsonl", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "--out" in proc.stderr

    def test_missing_input_file_is_one_line(self, tmp_path):
        (tmp_path / "kw.txt").write_text("a\n", encoding="utf-8")
        proc = run_cli(
            "ingest", "--input", "ghost.txt", "--keywords", "kw.txt",
            "--out", "c.jsonl", cwd=tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("specsyn: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestIngest:
    def test_writes_candidates_and_config(self, tmp_path):
        (tmp_path / "doc.txt").write_text(DOC, encoding="utf-8")
        (tmp_path / "kw.txt").write_text(KEYWORDS, encoding="utf-8")
        proc = run_cli(
            "ingest", "--input", "doc.txt", "--keywords", "kw.txt",
            "--out", "cand.jsonl", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        records = [
            json.loads(line)
            for line in (tmp_path / "cand.jsonl").read_text().splitlines()
        ]
        assert len(records) == 3  # two keyword sentences plus their span
        assert {"text", "source", "type", "keywords"} <= records[0].keys()
        config = json.loads((tmp_path / "ingest.config.json").read_text())
        assert config["command"] == "ingest"
        assert config["settings"]["window"] == 3

    def test_rejects_undecodable_document(self, tmp_path):
        (tmp_path / "doc.txt").write_bytes(b"\xff\xfe broken")
        (tmp_path / "kw.txt").write_text("a\n", encoding="utf-8")
        proc = run_cli(
            "ingest", "--input", "doc.txt", "--keywords", "kw.txt",
            "--out", "c.jsonl", cwd=tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("specsyn: doc.txt:1: not UTF-8")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestCompose:
    def test_split_sizes_and_manifest(self, workspace):
        train = (workspace / "train.jsonl").read_text().splitlines()
        test = (workspace / "test.jsonl").read_text().splitlines()
        assert len(train) == 120
        assert len(test) == 24
        manifest = json.loads((workspace / "train.manifest.json").read_text())
        assert manifest["n_total"] == 144
        assert manifest["n_test"] == 24
        config = json.loads((workspace / "compose.config.json").read_text())
        assert config["settings"]["seed"] == 42

    def test_reruns_are_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            proc = run_cli(
                "compose", "--n", 60, "--test-n", 12,
                "--out", "train.jsonl", "--test-out", "test.jsonl",
                cwd=d,
            )
            assert proc.returncode == 0, proc.stderr
        for name in (
            "train.jsonl", "test.jsonl", "train.manifest.json", "compose.config.json"
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_invalid_sizes_rejected(self, tmp_path):
        proc = run_cli("compose", "--n", -5, "--out", "t.jsonl", cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("specsyn: ")


class TestTrain:
    def test_checkpoint_and_loss_log(self, workspace):
        assert (workspace / "model.spsy").read_bytes()[:4] == b"SPSY"
        rows = (workspace / "loss.csv").read_text().splitlines()
        assert rows[0] == "epoch,total,detection,generation,category"
        assert len(rows) == 1 + 5
        assert [int(r.split(",")[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]
        config = json.loads((workspace / "train.config.json").read_text())
        assert config["settings"]["epochs"] == 5

    def test_missing_dataset(self, tmp_path):
        proc = run_cli(
            "train", "--data", "nope.jsonl", "--out", "m.spsy", cwd=tmp_path
        )
        assert proc.returncode == 2, proc.stderr


def flagging(flag: bool):
    """A stand-in for `Model.detect` that flags every row of a batch, or none."""
    probs = [0.0, 1.0] if flag else [1.0, 0.0]
    return lambda self, h_c: np.tile(probs, (len(h_c), 1))


class TestSynthesize:
    def test_report_counts_and_parsable_output(self, workspace, tmp_path):
        proc = run_cli(
            "synthesize", "--model", workspace / "model.spsy",
            "--input", workspace / "doc.txt", "--keywords", workspace / "kw.txt",
            "--out", "specs.spec", "--report", "synth.json",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "synth.json").read_text())
        assert report["candidates"] == 3
        assert report["emitted"] + len(report["failures"]) == report["detections"]
        emitted = (tmp_path / "specs.spec").read_text().splitlines()
        assert len(emitted) == report["emitted"]
        for line in emitted:  # whatever comes out must be well-formed
            parse_spec(line)
        assert (tmp_path / "synthesize.config.json").exists()

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            proc = run_cli(
                "synthesize", "--model", workspace / "model.spsy",
                "--input", workspace / "doc.txt", "--keywords", workspace / "kw.txt",
                "--out", "specs.spec", "--report", "synth.json",
                cwd=d,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("specs.spec", "synth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_truncation_drops_the_tags_of_removed_tokens(self, tmp_path, monkeypatch):
        config = ModelConfig(d_model=8, blocks=1, heads=2, max_len=8)
        save_checkpoint(Model.initialize(config, Vocab(reserved_tokens())), tmp_path / "m.spsy")
        # 14 tokens once tagged; the 7 after [CLS] end before max_rows and 7
        (tmp_path / "doc.txt").write_text(
            "Set user_port above 1500 and keep it so, then max_rows below 7.\n",
            encoding="utf-8",
        )
        (tmp_path / "kw.txt").write_text("user_port\nmax_rows\n", encoding="utf-8")
        seen = []

        def generate_batch(self, h_c, tag_maps):
            seen.extend(dict(tags) for tags in tag_maps)
            return [GenerationResult(("use", "(", "<keyword1>", ")"), False)] * len(tag_maps)

        monkeypatch.setattr(Model, "detect", flagging(True))
        monkeypatch.setattr(Model, "generate_batch", generate_batch)
        status = cli.main([
            "synthesize", "--model", str(tmp_path / "m.spsy"),
            "--input", str(tmp_path / "doc.txt"), "--keywords", str(tmp_path / "kw.txt"),
            "--out", str(tmp_path / "specs.spec"),
        ])
        assert status == 0
        assert seen == [{"keyword1": "user_port", "num1": "1500"}]
        assert (tmp_path / "specs.spec").read_text() == "use(user_port)\n"

    def test_literals_past_the_last_tag_slot_are_reported(self, tmp_path, monkeypatch, caplog):
        config = ModelConfig(d_model=8, blocks=1, heads=2, max_len=32)
        save_checkpoint(Model.initialize(config, Vocab(reserved_tokens())), tmp_path / "m.spsy")
        # ten numbers: <num9> and <num10> have no reserved token
        (tmp_path / "doc.txt").write_text(
            "Set max_rows to 1, 2, 3, 4, 5, 6, 7, 8, 9 or 10.\n"
            "Keep max_rows below 8.\n",
            encoding="utf-8",
        )
        (tmp_path / "kw.txt").write_text("max_rows\n", encoding="utf-8")
        monkeypatch.setattr(Model, "detect", flagging(False))
        status = cli.main([
            "synthesize", "--model", str(tmp_path / "m.spsy"),
            "--input", str(tmp_path / "doc.txt"), "--keywords", str(tmp_path / "kw.txt"),
            "--out", str(tmp_path / "specs.spec"),
        ])
        assert status == 0
        warnings = [r.getMessage() for r in caplog.records if "tag slot" in r.getMessage()]
        # one warning per candidate that holds the first sentence, none for the second alone
        assert warnings == [
            f"candidate from {source} has literals past tag slot 8, seen as [UNK]: '9', '10'"
            for source in ("doc.txt:0", "doc.txt:0-1")
        ]

    def test_each_emitted_rule_is_parsed_once(self, tmp_path, monkeypatch):
        config = ModelConfig(d_model=8, blocks=1, heads=2, max_len=32)
        save_checkpoint(Model.initialize(config, Vocab(reserved_tokens())), tmp_path / "m.spsy")
        (tmp_path / "doc.txt").write_text(DOC, encoding="utf-8")
        (tmp_path / "kw.txt").write_text(KEYWORDS, encoding="utf-8")
        calls = {"parse_spec": 0, "print_spec": 0}
        for name in calls:
            def counted(*args, _real=getattr(dsl, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(dsl, name, counted)
        monkeypatch.setattr(Model, "detect", flagging(True))
        monkeypatch.setattr(
            Model, "generate_batch",
            lambda self, h_c, tag_maps:
                [GenerationResult(("use", "(", "<keyword1>", ")"), False)] * len(tag_maps),
        )
        status = cli.main([
            "synthesize", "--model", str(tmp_path / "m.spsy"),
            "--input", str(tmp_path / "doc.txt"), "--keywords", str(tmp_path / "kw.txt"),
            "--out", str(tmp_path / "specs.spec"),
        ])
        assert status == 0
        emitted = (tmp_path / "specs.spec").read_text().splitlines()
        assert emitted == ["use(user_port)", "use(user_port)", "use(mysql)"]
        # parsed by detag, printed by the spec file, and nowhere else
        assert calls == {"parse_spec": 3, "print_spec": 3}

    def test_wrong_tensor_shape_is_one_line(self, tmp_path):
        model = Model.initialize(
            ModelConfig(d_model=8, blocks=1, heads=2, max_len=8), Vocab(reserved_tokens())
        )
        model.params["detect/w2"] = np.zeros((50, 7))
        save_checkpoint(model, tmp_path / "m.spsy")
        (tmp_path / "doc.txt").write_text(DOC, encoding="utf-8")
        (tmp_path / "kw.txt").write_text(KEYWORDS, encoding="utf-8")
        proc = run_cli(
            "synthesize", "--model", "m.spsy", "--input", "doc.txt",
            "--keywords", "kw.txt", "--out", "specs.spec", cwd=tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "detect/w2: shape (50, 7), expected (50, 50)" in proc.stderr
        assert not (tmp_path / "specs.spec").exists()

    @pytest.mark.parametrize("heads", [float("nan"), float("inf"), 2.5])
    def test_non_integer_head_count_is_one_line(self, tmp_path, heads):
        model = Model.initialize(
            ModelConfig(d_model=8, blocks=1, heads=2, max_len=8), Vocab(reserved_tokens())
        )
        save_checkpoint(model, tmp_path / "m.spsy")
        data = bytearray((tmp_path / "m.spsy").read_bytes())
        # the tensor name, then ndim 1 and dim 1 as u32s, then the 8 data bytes
        at = data.index(b"meta/num_heads") + len("meta/num_heads") + 8
        data[at:at + 8] = struct.pack("<d", heads)
        (tmp_path / "m.spsy").write_bytes(bytes(data))
        (tmp_path / "doc.txt").write_text(DOC, encoding="utf-8")
        (tmp_path / "kw.txt").write_text(KEYWORDS, encoding="utf-8")
        proc = run_cli(
            "synthesize", "--model", "m.spsy", "--input", "doc.txt",
            "--keywords", "kw.txt", "--out", "specs.spec", cwd=tmp_path,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert f"meta/num_heads is {heads}, expected a whole number" in proc.stderr
        assert not (tmp_path / "specs.spec").exists()


class TestEval:
    def test_report_fields(self, workspace, tmp_path):
        proc = run_cli(
            "eval", "--model", workspace / "model.spsy",
            "--data", workspace / "test.jsonl", "--report", "report.json",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("precision", "recall", "f1", "confusion", "generation_em"):
            assert key in report
        assert "Detection" in proc.stderr  # human-readable table is a log
        assert proc.stdout == ""  # data goes to files, not stdout


class TestCheck:
    def write_rules(self, path):
        path.write_text(
            "user_port > 1500\n# advisory below\nuse ( ssl )\n", encoding="utf-8"
        )

    def test_hard_violation_exits_one(self, tmp_path):
        self.write_rules(tmp_path / "rules.spec")
        (tmp_path / "my.cnf").write_text("user_port = 1433\n", encoding="utf-8")
        proc = run_cli(
            "check", "--specs", "rules.spec", "--config", "my.cnf",
            "--report", "viol.json", cwd=tmp_path,
        )
        assert proc.returncode == 1, proc.stderr
        assert "ValueOutOfRange" in proc.stdout
        payload = json.loads((tmp_path / "viol.json").read_text())
        hard = [v for v in payload if v["verdict"] == "ValueOutOfRange"]
        assert len(hard) == 1
        assert hard[0]["observed"] == "1433"

    def test_clean_config_exits_zero(self, tmp_path):
        self.write_rules(tmp_path / "rules.spec")
        (tmp_path / "my.cnf").write_text(
            "user_port = 2000\nssl = on\n", encoding="utf-8"
        )
        proc = run_cli(
            "check", "--specs", "rules.spec", "--config", "my.cnf", cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert "no violations" in proc.stdout

    def test_advisories_do_not_fail_the_run(self, tmp_path):
        self.write_rules(tmp_path / "rules.spec")
        (tmp_path / "my.cnf").write_text("user_port = 2000\n", encoding="utf-8")
        proc = run_cli(
            "check", "--specs", "rules.spec", "--config", "my.cnf", cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert "AdvisoryOnly" in proc.stdout

    def test_bad_spec_line_names_location(self, tmp_path):
        (tmp_path / "rules.spec").write_text("user_port >\n", encoding="utf-8")
        (tmp_path / "my.cnf").write_text("user_port = 1\n", encoding="utf-8")
        proc = run_cli(
            "check", "--specs", "rules.spec", "--config", "my.cnf", cwd=tmp_path
        )
        assert proc.returncode == 2, proc.stderr
        assert "rules.spec:1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_config_line_warns_but_continues(self, tmp_path):
        (tmp_path / "rules.spec").write_text("user_port > 1500\n", encoding="utf-8")
        (tmp_path / "my.cnf").write_text(
            "= orphaned\nuser_port = 2000\n", encoding="utf-8"
        )
        proc = run_cli(
            "check", "--specs", "rules.spec", "--config", "my.cnf", cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert "malformed" in proc.stderr

    def test_ini_format_sections(self, tmp_path):
        (tmp_path / "rules.spec").write_text("port > 1500\n", encoding="utf-8")
        (tmp_path / "my.cnf").write_text(
            "[mysqld]\nport = 1433\n", encoding="utf-8"
        )
        proc = run_cli(
            "check", "--specs", "rules.spec", "--config", "my.cnf",
            "--format", "ini", cwd=tmp_path,
        )
        assert proc.returncode == 1, proc.stderr
        assert "ValueOutOfRange" in proc.stdout

    def test_only_line_ends_count_lines(self, tmp_path):
        (tmp_path / "rules.spec").write_text("port > 1500\n", encoding="utf-8")
        (tmp_path / "my.cnf").write_bytes("motd = hello\u2028world\r\nport = 80\n".encode("utf-8"))
        proc = run_cli(
            "check", "--specs", "rules.spec", "--config", "my.cnf",
            "--report", "viol.json", cwd=tmp_path,
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads((tmp_path / "viol.json").read_text())
        assert [(v["key"], v["line"]) for v in payload] == [("port", 2)]


def test_rerun_over_longer_outputs_is_byte_identical(tmp_path):
    """Every command rewrites its outputs in place: a rerun into files that
    hold junk twice as long as the first run's output leaves exactly the
    first run's bytes, with no stale tail."""
    inputs = {
        "doc.txt": DOC,
        "kw.txt": KEYWORDS,
        "rules.spec": "user_port > 1500\nuse ( ssl )\n",
        "my.cnf": "user_port = 1433\n",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    document = ["--input", "doc.txt", "--keywords", "kw.txt"]
    commands = [
        (0, ["ingest", *document, "--out", "candidates.jsonl"]),
        (0, ["compose", "--n", 120, "--test-n", 24,
             "--out", "train.jsonl", "--test-out", "test.jsonl"]),
        (0, ["train", "--data", "train.jsonl", "--epochs", 3,
             "--d-model", 16, "--blocks", 1, "--max-len", 48,
             "--out", "model.spsy", "--log", "loss.csv"]),
        (0, ["eval", "--model", "model.spsy", "--data", "test.jsonl", "--report", "eval.json"]),
        (0, ["synthesize", "--model", "model.spsy", *document,
             "--out", "specs.spec", "--report", "synth.json"]),
        (1, ["check", "--specs", "rules.spec", "--config", "my.cnf", "--report", "check.json"]),
    ]

    def run_all():
        for status, argv in commands:
            proc = run_cli(*argv, cwd=tmp_path)
            assert proc.returncode == status, proc.stderr
        return {
            path.name: path.read_bytes()
            for path in sorted(tmp_path.iterdir())
            if path.name not in inputs
        }

    first = run_all()
    assert len(first) == 15
    for name, data in first.items():
        (tmp_path / name).write_bytes(b"x" * max(2 * len(data), 64))
    assert run_all() == first


NO_TAGS = b'{"text": "x", "label": 0, "target": [], "category": null, "type": "simple"}\n'
NUMBER_TEXT = b'{"text": 5, "tags": {}, "label": 0, "target": [], "category": null, "type": "simple"}\n'
SAMPLE = b'{"text": "x", "tags": {}, "label": 0, "target": [], "category": null, "type": "simple"}\n'
LONG = b'{"text": "a b c d e", "tags": {}, "label": 0, "target": [], "category": null, "type": "simple"}\n'
POSITIVE = (
    b'{"text": "use <keyword1>", "tags": {"keyword1": "a"}, "label": 1,'
    b' "target": ["use", "(", "<keyword1>", ")"], "category": "utilization", "type": "simple"}\n'
)
CHECK = ["check", "--specs", "rules.spec", "--config", "my.cnf"]
INGEST = ["ingest", "--input", "doc.txt", "--keywords", "kw.txt", "--out", "c.jsonl"]
COMPOSE = ["compose", "--n", 20, "--test-n", 0]
TRAIN = ["train", "--data", "data.jsonl", "--out", "m.spsy"]

# case: (files to write, arguments, environment, how stderr must start)
BAD_INPUTS = {
    "spec not UTF-8": (
        {"rules.spec": b"port > 1\n\xff\n", "my.cnf": b"port = 2\n"},
        CHECK, {}, "rules.spec:2: not UTF-8",
    ),
    "config not UTF-8": (
        {"rules.spec": b"port > 1\n", "my.cnf": b"port = \xff\n"},
        CHECK, {}, "my.cnf:1: not UTF-8",
    ),
    "lexicon not UTF-8": (
        {"rules.spec": b"port > 1\n", "my.cnf": b"port = 2\n", "lex/bool.lex": b"on\n\xff\n",
         "lex/unit.lex": b"mb\n", "lex/format.lex": b"url\n"},
        CHECK, {"SPECSYN_LEXICON_DIR": "lex"}, "lex/bool.lex:2: not UTF-8",
    ),
    "keywords not UTF-8": (
        {"doc.txt": DOC.encode("utf-8"), "kw.txt": b"user_port\n\xfe\n"},
        INGEST, {}, "kw.txt:2: not UTF-8",
    ),
    "keyword with a space": (
        {"doc.txt": DOC.encode("utf-8"), "kw.txt": b"user_port\nmax rows\n"},
        INGEST, {}, "kw.txt:2: bad keyword 'max rows'",
    ),
    "reserved word as keyword": (
        {"doc.txt": DOC.encode("utf-8"), "kw.txt": b"max_rows\nAND\n"},
        INGEST, {}, "kw.txt:2: bad keyword 'AND'",
    ),
    "keyword starting with a digit": (
        {"doc.txt": DOC.encode("utf-8"), "kw.txt": b"max_rows\n\n9lives\n"},
        INGEST, {}, "kw.txt:3: bad keyword '9lives'",
    ),
    "no keyword": (
        {"doc.txt": DOC.encode("utf-8"), "kw.txt": b"# none yet\n"},
        INGEST, {}, "kw.txt: no keywords",
    ),
    "repeated keyword": (
        {"doc.txt": DOC.encode("utf-8"), "kw.txt": b"user_port\n# again\nuser_port\n"},
        INGEST, {}, "kw.txt:3: keyword 'user_port' is repeated",
    ),
    "distractors not UTF-8": (
        {"d.txt": b"\xff\n"}, [*COMPOSE, "--distractors", "d.txt"], {}, "d.txt:1: not UTF-8",
    ),
    "seeds without templates": (
        {"seeds.json": b'{"software": "x", "keywords": ["a"]}\n'},
        [*COMPOSE, "--seeds", "seeds.json"], {}, "seeds.json: missing field 'templates'",
    ),
    "dataset not UTF-8": (
        {"data.jsonl": SAMPLE + b"\xff\n"}, TRAIN, {}, "data.jsonl:2: not UTF-8",
    ),
    "record not an object": (
        {"data.jsonl": b"[1,2]\n"}, TRAIN, {}, "data.jsonl:1: not a JSON object",
    ),
    "record without tags": (
        {"data.jsonl": NO_TAGS}, TRAIN, {}, "data.jsonl:1: missing field 'tags'",
    ),
    "text not a string": (
        {"data.jsonl": NUMBER_TEXT + SAMPLE}, TRAIN, {},
        "data.jsonl:1: field 'text' must be a string",
    ),
    "bad JSON on line 2": (
        {"data.jsonl": SAMPLE + b'{"text": \n'}, TRAIN, {}, "data.jsonl:2: not JSON",
    ),
    "training text longer than max_len": (
        {"data.jsonl": SAMPLE + LONG + POSITIVE}, [*TRAIN, "--max-len", 4], {},
        "data.jsonl: training text of 6 tokens exceeds max_len 4",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_line(tmp_path, monkeypatch, case):
    files, argv, env, reason = BAD_INPUTS[case]
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert_one_line(run_cli(*argv, cwd=tmp_path), reason)


def test_eval_record_longer_than_max_len_is_one_line(tmp_path):
    model = Model.initialize(
        ModelConfig(d_model=8, blocks=1, heads=2, max_len=4), Vocab(reserved_tokens())
    )
    save_checkpoint(model, tmp_path / "m.spsy")
    (tmp_path / "data.jsonl").write_bytes(SAMPLE + LONG + POSITIVE)
    proc = run_cli(
        "eval", "--model", "m.spsy", "--data", "data.jsonl", "--report", "r.json", cwd=tmp_path
    )
    assert_one_line(proc, "data.jsonl: sequence length 6 exceeds max_len 4")


def assert_one_line(proc, reason):
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"specsyn: {reason}"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "line 1 column" not in proc.stderr

"""The three workloads: each drives `specsyn.cli.main` in-process.

A workload prepares its inputs in `setup`, then the runner repeats whole
rounds of the same command-line calls. Every call's output is checked
against the benchmark's own expectation (see `inputs`) or against a
property the method must have; problems are collected, not raised.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import specsyn.cli
from specsyn import dsl

import inputs
from checkout import BENCH, SRC

PROTOCOL_CHECKPOINT = BENCH / "protocol.spsy"
PROTOCOL_SHA256 = "3763fefe1d8080e4d36c99992f14c0f06c2575b0f809c0823cd0c47319f5611b"
DATA_DIR = SRC / "specsyn" / "data"

# criterion 6 of the shipped acceptance gate
F1_FLOOR = 0.90
SIMPLE_EM_FLOOR = 0.95
COMPLEX_EM_FLOOR = 0.80
# see README, "Recall floor"
RECALL_FLOOR = 0.90


@dataclass(frozen=True)
class Size:
    train_n: int
    test_n: int
    epochs: int
    eval_n: int
    manuals: int
    rules_per_manual: int
    config_keys: int
    spec_lines: int
    quality_floors: bool  # too few samples at the tiny size to hold a floor


SIZES = {
    "full": Size(3000, 250, 2, 1000, 12, 10, 10_000, 2000, True),
    "tiny": Size(90, 30, 2, 60, 3, 4, 300, 60, False),
}


class _Tail:
    """Stands in for stdout and stderr during a call; keeps the last lines
    so a failed call can be reported."""

    def __init__(self, keep: int = 4000):
        self.keep = keep
        self.text = ""

    def write(self, data: str) -> int:
        self.text = (self.text + data)[-self.keep:]
        return len(data)

    def flush(self) -> None:
        pass


_SINK = _Tail()


class OpFailed(Exception):
    pass


class SpeedProbe:
    """Times a fixed pure-Python loop every 20 ms while a call runs.

    The reference machine's vCPUs run up to twice as slow, for seconds to
    minutes at a time, while other tenants are busy, and the guest sees no
    steal time. The loop slows down with them, so scaling a call's seconds
    by REFERENCE_S / (the loop's median time during the call) estimates
    the call at the machine's full speed; see `normalize`.
    """

    INTERVAL_S = 0.02
    LOOP = 1500
    REFERENCE_S = 1e-4  # about the loop's time on the reference machine at full speed
    # a median of fewer samples is itself too noisy to scale by
    MIN_SAMPLES = 10

    def __init__(self):
        self.samples: list[float] = []  # every loop time of the run
        self._depth = 0  # `during` nests: set-up makes calls

    def _tick(self, signum, frame):
        start = time.perf_counter()
        x = 0
        for j in range(self.LOOP):
            x += j * j
        self.samples.append(time.perf_counter() - start)

    @contextmanager
    def during(self):
        """Sample while the block runs; yields the list the samples go to."""
        first = len(self.samples)
        taken: list[float] = []
        if not self._depth:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self._depth += 1
        try:
            yield taken
        finally:
            self._depth -= 1
            if not self._depth:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
            taken.extend(self.samples[first:])

    def scale(self, seconds: float, taken: list[float]) -> float:
        """`seconds` at the reference speed, from the samples taken meanwhile
        (the run's median when there are fewer than MIN_SAMPLES)."""
        enough = len(taken) >= self.MIN_SAMPLES
        reference = statistics.median(taken if enough else self.samples or [self.REFERENCE_S])
        return seconds * self.REFERENCE_S / reference


def normalize(rounds: list, probe: SpeedProbe | None) -> list[dict]:
    """Each call's seconds at the probe's reference speed.

    `rounds` holds (times, qualities, median probe seconds of the round).
    A call with fewer than MIN_SAMPLES probe samples (under about 0.2 s) is
    scaled by its round's median, or the run's; without a probe, seconds
    stay as measured.
    """
    if probe is None or not probe.samples:
        return [{op: seconds for op, (seconds, _) in r[0].items()} for r in rounds]
    typical = statistics.median(probe.samples)
    return [
        {op: seconds * probe.REFERENCE_S / (probe_s or round_probe or typical)
         for op, (seconds, probe_s) in times.items()}
        for times, _, round_probe in rounds
    ]


@dataclass
class Session:
    """Counts calls into the program and collects output problems."""

    probe: SpeedProbe | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def call(self, *argv, ok_status=(0,)) -> tuple[int, tuple]:
        """Run `specsyn <argv>`; returns (exit status, (seconds, median
        probe seconds during the call or None))."""
        self.attempted += 1
        _SINK.text = ""
        status = None
        with self.probe.during() if self.probe else nullcontext([]) as samples:
            start = time.perf_counter()
            try:
                with redirect_stdout(_SINK), redirect_stderr(_SINK):
                    status = specsyn.cli.main([str(a) for a in argv])
            except SystemExit as exc:  # argparse rejects arguments this way
                status = exc.code
            except Exception:  # a crash is one failed call, not the end of the run
                _SINK.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        if status not in ok_status:
            self.failed += 1
            print(f"bench: specsyn {argv[0]} exited {status}: {_SINK.text[-800:]}", file=sys.stderr)
            raise OpFailed(argv[0])
        enough = self.probe and len(samples) >= self.probe.MIN_SAMPLES
        return status, (elapsed, statistics.median(samples) if enough else None)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _floor(session, size, value, floor, what):
    if size.quality_floors:
        session.require(value >= floor, f"{what} {value:.4f} below the floor {floor}")


def _check_eval_report(session, size, report: dict, samples: list[dict], complex_floor=True):
    """The report agrees with the labeled file as the benchmark counts it."""
    c = report["confusion"]
    positives = sum(1 for s in samples if s["label"])
    session.require(c["tp"] + c["fn"] == positives,
                    f"eval: tp+fn={c['tp'] + c['fn']}, the file holds {positives} positives")
    session.require(sum(c[k] for k in ("tp", "fp", "fn", "tn")) == len(samples),
                    f"eval: confusion counts do not sum to {len(samples)} samples")
    _floor(session, size, report["f1"], F1_FLOOR, "eval: F1")
    if not complex_floor:
        return
    for name, group in report["by_type"].items():
        floor = SIMPLE_EM_FLOOR if name == "simple" else COMPLEX_EM_FLOOR
        _floor(session, size, group["generation_em"], floor, f"eval: {name} EM")


class Workload:
    name = ""
    ops_per_round = 0
    # what each role-named figure stands for here, for the stderr table
    names: dict = {}

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size

    def setup(self, session: Session, workdir: Path) -> None:
        raise NotImplementedError

    def round(self, session: Session, workdir: Path) -> tuple[dict, dict]:
        """One round of calls: (seconds per call, output qualities)."""
        raise NotImplementedError

    def rates(self, seconds: dict) -> dict:
        """main_per_s and side_per_s from each call's seconds."""
        raise NotImplementedError


class Train(Workload):
    """compose -> train a few epochs -> eval on the held-out split."""

    name = "train"
    ops_per_round = 3
    names = {
        "main_per_s": "train_samples_per_s (samples*epochs/s)",
        "side_per_s": "compose_samples_per_s (samples/s)",
        "main_quality": "held-out detection F1",
        "side_quality": "loss drop, 1 - last/first epoch loss",
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.compose_seed = inputs.derived_seed(seed, "train-compose")
        self.train_seed = inputs.derived_seed(seed, "train-init")
        self.last_checkpoint = None

    def setup(self, session, workdir):
        # warm-up at a small size: first-call costs land here, not in a round
        session.call("compose", "--n", 40, "--test-n", 20, "--seed", self.compose_seed,
                     "--out", workdir / "warm.jsonl", "--test-out", workdir / "warm_test.jsonl")
        session.call("train", "--data", workdir / "warm.jsonl", "--epochs", 1,
                     "--seed", self.train_seed, "--out", workdir / "warm.spsy")
        session.call("eval", "--model", workdir / "warm.spsy", "--data",
                     workdir / "warm_test.jsonl", "--report", workdir / "warm_report.json")

    def round(self, session, workdir):
        size = self.size
        total = size.train_n + size.test_n
        train_file, test_file = workdir / "train.jsonl", workdir / "test.jsonl"
        _, t_compose = session.call(
            "compose", "--n", size.train_n, "--test-n", size.test_n, "--pos-frac", 0.3,
            "--seed", self.compose_seed, "--out", train_file, "--test-out", test_file)
        train_rows, test_rows = _jsonl(train_file), _jsonl(test_file)
        session.require(len(train_rows) == size.train_n,
                        f"compose: {len(train_rows)} train samples, asked for {size.train_n}")
        session.require(len(test_rows) == size.test_n,
                        f"compose: {len(test_rows)} test samples, asked for {size.test_n}")
        positives = sum(1 for s in train_rows + test_rows if s["label"])
        session.require(positives == round(0.3 * total),
                        f"compose: {positives} positives, asked for {round(0.3 * total)}")

        model, log = workdir / "model.spsy", workdir / "loss.csv"
        _, t_train = session.call(
            "train", "--data", train_file, "--epochs", size.epochs, "--seed", self.train_seed,
            "--d-model", 64, "--blocks", 2, "--batch-size", 32, "--out", model, "--log", log)
        with open(log, encoding="utf-8") as fh:
            losses = [float(row["total"]) for row in csv.DictReader(fh)]
        session.require(len(losses) == size.epochs, f"train: {len(losses)} epochs logged")
        session.require(all(math.isfinite(x) for x in losses), f"train: loss not finite {losses}")
        session.require(len(losses) >= 2 and losses[-1] < losses[0],
                        f"train: last epoch loss is not below the first {losses}")
        digest = _sha256(model)
        session.require(self.last_checkpoint in (None, digest),
                        "train: the same inputs and seed gave a different checkpoint")
        self.last_checkpoint = digest

        report_file = workdir / "report.json"
        _, t_eval = session.call("eval", "--model", model, "--data", test_file,
                                 "--report", report_file)
        report = json.loads(report_file.read_text(encoding="utf-8"))
        # a few epochs train the detector; generation needs the full protocol
        _check_eval_report(session, self.size, report, test_rows, complex_floor=False)
        return {"compose": t_compose, "train": t_train, "eval": t_eval}, {
            "main_quality": report["f1"],
            "side_quality": 1.0 - losses[-1] / losses[0] if losses else 0.0,
            "train_loss": losses[-1] if losses else float("nan"),
        }

    def rates(self, seconds):
        size = self.size
        return {
            "main_per_s": size.train_n * size.epochs / seconds["train"],
            "side_per_s": (size.train_n + size.test_n) / seconds["compose"],
        }


class Extract(Workload):
    """eval a fresh labeled set, then synthesize rules from generated manuals,
    both with the committed protocol checkpoint."""

    name = "extract"
    names = {
        "main_per_s": "eval_samples_per_s (samples/s)",
        "side_per_s": "synthesize_docs_per_s (documents/s)",
        "main_quality": "eval_f1",
        "side_quality": "synthesize_recall",
    }

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.ops_per_round = 1 + size.manuals
        self.eval_seed = inputs.derived_seed(seed, "extract-eval", avoid=42)

    def setup(self, session, workdir):
        digest = _sha256(PROTOCOL_CHECKPOINT)
        if digest != PROTOCOL_SHA256:
            raise SystemExit(
                f"bench: {PROTOCOL_CHECKPOINT.name} has sha256 {digest}, expected "
                f"{PROTOCOL_SHA256}; rebuild it with bench/make_checkpoint.py")
        self.eval_file = workdir / "eval.jsonl"
        session.call("compose", "--n", self.size.eval_n, "--test-n", 0, "--pos-frac", 0.3,
                     "--seed", self.eval_seed, "--out", self.eval_file)
        self.samples = _jsonl(self.eval_file)
        manuals = inputs.make_manuals(DATA_DIR, self.seed, self.size.manuals,
                                      self.size.rules_per_manual)
        self.keywords = workdir / "keywords.txt"
        self.keywords.write_text("\n".join(manuals.keywords) + "\n", encoding="utf-8")
        self.manuals = manuals.manuals
        for manual in self.manuals:
            (workdir / manual.name).write_text(manual.text, encoding="utf-8")
        self.gold = [[dsl.parse_spec(rule) for rule in m.gold] for m in self.manuals]
        warm = workdir / "warm.jsonl"
        warm.write_text("".join(json.dumps(s) + "\n" for s in self.samples[:20]), encoding="utf-8")
        session.call("eval", "--model", PROTOCOL_CHECKPOINT, "--data", warm,
                     "--report", workdir / "warm_report.json")

    def round(self, session, workdir):
        report_file = workdir / "report.json"
        _, t_eval = session.call("eval", "--model", PROTOCOL_CHECKPOINT, "--data",
                                 self.eval_file, "--report", report_file)
        report = json.loads(report_file.read_text(encoding="utf-8"))
        _check_eval_report(session, self.size, report, self.samples)

        times = {"eval": t_eval}
        found = placed = 0
        for manual, gold in zip(self.manuals, self.gold):
            out = workdir / (manual.name + ".spec")
            _, elapsed = session.call(
                "synthesize", "--model", PROTOCOL_CHECKPOINT, "--input", workdir / manual.name,
                "--format", manual.format, "--keywords", self.keywords, "--window", 3,
                "--out", out, "--report", workdir / (manual.name + ".json"))
            times[manual.name] = elapsed
            emitted = []
            for line in out.read_text(encoding="utf-8").splitlines():
                try:
                    emitted.append(dsl.parse_spec(line))
                except dsl.DslError as exc:
                    session.problems.append(f"synthesize {manual.name}: {line!r} does not parse: {exc}")
            numbers = inputs.numbers_in(manual.text)
            for spec in emitted:
                for rule in spec.rules:
                    names = [rule.keyword] + [v.name for v in rule.values
                                              if isinstance(v, dsl.KeywordRef)]
                    for name in names:
                        session.require(inputs.mentions(manual.text, name),
                                        f"synthesize {manual.name}: keyword {name} is not in the document")
                    for v in rule.values:
                        if isinstance(v, dsl.Number):
                            session.require(v.magnitude in numbers,
                                            f"synthesize {manual.name}: number {v.magnitude} is not in the document")
            placed += len(gold)
            found += sum(1 for g in gold if g in emitted)
        recall = found / placed
        _floor(session, self.size, recall, RECALL_FLOOR, "synthesize: recall")
        return times, {
            "main_quality": report["f1"],
            "side_quality": recall,
            "eval_generation_em": report["generation_em"],
        }

    def rates(self, seconds):
        return {
            "main_per_s": len(self.samples) / seconds["eval"],
            "side_per_s": len(self.manuals) / sum(seconds[m.name] for m in self.manuals),
        }


class Check(Workload):
    """check one INI and one key-value config against generated spec files."""

    name = "check"
    ops_per_round = 2
    names = {
        "main_per_s": "check_configs_per_s, INI (configs/s)",
        "side_per_s": "check_configs_per_s, key-value (configs/s)",
        "main_quality": "INI findings that match the oracle (share)",
        "side_quality": "key-value findings that match the oracle (share)",
    }

    def setup(self, session, workdir):
        size = self.size
        self.cases = [
            inputs.make_check_case(self.seed, fmt, fmt, size.config_keys, size.spec_lines)
            for fmt in ("ini", "kv")
        ]
        warm = inputs.make_check_case(self.seed, "warm", "kv", 200, 40)
        for case in self.cases + [warm]:
            (workdir / f"{case.name}.spec").write_text(case.specs, encoding="utf-8")
            (workdir / f"{case.name}.cfg").write_text(case.config, encoding="utf-8")
        self._check(session, workdir, warm)

    def _check(self, session, workdir, case) -> tuple[float, float]:
        report_file = workdir / f"{case.name}.report.json"
        status, elapsed = session.call(
            "check", "--specs", workdir / f"{case.name}.spec", "--config",
            workdir / f"{case.name}.cfg", "--format", case.format, "--report", report_file,
            ok_status=(0, 1))
        got = [(f["key"], f["verdict"]) for f in json.loads(report_file.read_text(encoding="utf-8"))]
        session.require(status == case.exit_status,
                        f"check {case.name}: exit {status}, the oracle says {case.exit_status}")
        agree = sum(1 for a, b in zip(got, case.expected) if a == b)
        first = next((i for i, (a, b) in enumerate(zip(got, case.expected)) if a != b),
                     min(len(got), len(case.expected)))
        session.require(got == case.expected,
                        f"check {case.name}: {len(got)} findings vs {len(case.expected)} expected, "
                        f"first difference at {first}")
        share = agree / max(len(got), len(case.expected)) if got or case.expected else 1.0
        return elapsed, share

    def round(self, session, workdir):
        (t_ini, q_ini), (t_kv, q_kv) = (self._check(session, workdir, c) for c in self.cases)
        return {"ini": t_ini, "kv": t_kv}, {"main_quality": q_ini, "side_quality": q_kv}

    def rates(self, seconds):
        return {"main_per_s": 1.0 / seconds["ini"], "side_per_s": 1.0 / seconds["kv"]}


WORKLOADS = {w.name: w for w in (Train, Extract, Check)}


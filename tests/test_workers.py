"""`workers.ordered_map` and the commands that run on it.

The CPU count and the single-thread check are monkeypatched, and the
callers' minimum work per worker set to one item, so that one, two and
three processes run on any machine. The BLAS test runs the command line
in child processes, since OpenBLAS reads its thread count when numpy loads.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import child_env
import specsyn.model.train as train_module
from specsyn import cli, synthdata, workers
from specsyn import eval as eval_module
from specsyn.model.network import DivergenceError, Model
from specsyn.model.train import Adam
from specsyn.synthdata import NegativeTemplate, SeedLibrary, TemplateError

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
PROTOCOL = ROOT / "bench" / "protocol.spsy"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def processes(monkeypatch):
    """Set the process count of every map, and count the forks."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def use(n):
        monkeypatch.setattr(workers, "_cpus", lambda: n)
        forks.clear()

    monkeypatch.setattr(workers, "_single_threaded", lambda: True)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(synthdata, "COMPOSE_MIN_PER_WORKER", 1)
    monkeypatch.setattr(eval_module, "ENCODE_MIN_PER_WORKER", 1)
    monkeypatch.setattr(train_module, "TRAIN_MIN_STEPS", 1)
    use.forks = forks
    return use


class TestOrderedMap:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_come_back_in_order(self, processes, n):
        processes(n)
        items = [f"item{i}" for i in range(500)]
        assert workers.ordered_map(str.upper, items, 1) == [s.upper() for s in items]
        assert len(processes.forks) == n - 1
        no_child_left()

    @pytest.mark.parametrize("n", [2, 3])
    def test_few_items_stay_serial(self, processes, n):
        processes(n)
        assert workers.worker_count(7, 4) == 1
        assert workers.worker_count(8, 4) == 2
        assert workers.worker_count(1000, 4) == n
        assert workers.ordered_map(abs, range(-7, 0), 4) == list(range(7, 0, -1))
        assert processes.forks == []

    def test_workers_take_blocks_of_every_process(self, processes):
        processes(3)

        def slow_pid(i):
            time.sleep(0.002)
            return os.getpid()

        pids = workers.ordered_map(slow_pid, range(150), 1)
        assert set(pids) == {os.getpid(), *processes.forks}
        no_child_left()

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_each_worker_gets_a_cpu_of_its_own(self, processes):
        processes(2)
        allowed = os.sched_getaffinity(0)

        def placement(i):
            time.sleep(0.002)
            return os.getpid(), frozenset(os.sched_getaffinity(0))

        seen = dict(workers.ordered_map(placement, range(100), 1))
        assert seen.pop(os.getpid()) == allowed  # the parent is left as it was
        assert [len(cpus) for cpus in seen.values()] == [1]
        assert os.sched_getaffinity(0) == allowed

    def test_lowest_failing_index_raises_as_in_the_serial_loop(self, processes):
        def fn(i):
            if i in (40, 45, 170):
                raise ValueError(f"bad item {i}")
            return i

        for n in (1, 2, 3):
            processes(n)
            with pytest.raises(ValueError, match=r"^bad item 40$"):
                workers.ordered_map(fn, range(200), 1)
            no_child_left()

    def test_an_exception_without_a_plain_constructor_is_raised_as_it_is(self, processes):
        class Odd(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a}/{b}")

        def fn(i):
            if i == 77:
                raise Odd(i, "x")
            return i

        processes(3)
        with pytest.raises(Odd, match=r"^77/x$"):
            workers.ordered_map(fn, range(100), 1)
        no_child_left()

    def test_a_worker_that_dies_is_made_up_for(self, processes):
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                os._exit(3)
            return i * i

        processes(3)
        assert workers.ordered_map(fn, range(100), 1) == [i * i for i in range(100)]
        assert len(processes.forks) == 2
        no_child_left()

    def test_an_interrupt_kills_and_reaps_the_workers(self, processes):
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                time.sleep(60)  # killed long before
            elif i:
                raise KeyboardInterrupt
            return i

        processes(2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            workers.ordered_map(fn, range(100), 1)
        assert time.monotonic() - start < 30
        assert processes.forks
        no_child_left()

    def test_serial_when_threaded_or_on_one_cpu(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(workers, "_cpus", lambda: 3)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not workers._single_threaded()
            assert workers.worker_count(1000, 1) == 1
            assert workers.ordered_map(abs, range(-50, 0), 1) == list(range(50, 0, -1))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.setattr(workers, "_single_threaded", lambda: True)
        monkeypatch.setattr(workers, "_cpus", lambda: 1)
        assert workers.worker_count(1000, 1) == 1
        assert workers.ordered_map(abs, range(-50, 0), 1) == list(range(50, 0, -1))

    def test_a_process_with_one_blas_thread_is_single_threaded(self, tmp_path):
        env = {**child_env(), **dict.fromkeys(BLAS_VARS, "1")}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import numpy, specsyn.workers as w; print(w._single_threaded())"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]

    def test_an_interval_timer_does_not_break_a_call(self, processes):
        ticks = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(signum))
        signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
        try:
            processes(3)

            def spin(i):
                end = time.perf_counter() + 0.0005
                while time.perf_counter() < end:
                    pass
                return -i

            assert workers.ordered_map(spin, range(600), 1) == [-i for i in range(600)]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        assert ticks
        assert len(processes.forks) == 2
        no_child_left()


def outputs(directory: Path) -> dict:
    """Every file a command wrote, but the effective configs, which hold
    the output paths."""
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if not path.name.endswith(".config.json")
    }


class TestCommandsAtEveryWorkerCount:
    def run(self, tmp_path, capsys):
        argv = [
            ["compose", "--n", "400", "--test-n", "150", "--seed", "3",
             "--out", tmp_path / "train.jsonl", "--test-out", tmp_path / "test.jsonl"],
            ["eval", "--model", PROTOCOL, "--data", tmp_path / "test.jsonl",
             "--report", tmp_path / "report.json"],
            ["synthesize", "--model", PROTOCOL, "--input", FIXTURES / "manual.txt",
             "--keywords", FIXTURES / "keywords.txt", "--out", tmp_path / "manual.spec",
             "--report", tmp_path / "synthesize.json"],
        ]
        for args in argv:
            assert cli.main([str(a) for a in args]) == 0
        captured = capsys.readouterr()
        return outputs(tmp_path), captured.out, captured.err

    def test_outputs_are_byte_identical(self, processes, tmp_path, capsys):
        runs = []
        for n in (1, 2, 3):
            processes(n)
            out = tmp_path / f"n{n}"
            out.mkdir()
            runs.append(self.run(out, capsys))
            assert len(processes.forks) >= (n - 1) * 2  # compose and eval at least
            no_child_left()
        files = runs[0][0]
        assert set(files) == {"train.jsonl", "test.jsonl", "train.manifest.json",
                              "report.json", "manual.spec", "synthesize.json"}
        assert files["manual.spec"]
        for other in runs[1:]:
            assert other == runs[0]

    def test_a_failing_template_fails_as_in_the_serial_loop(self, processes, tmp_path):
        broken = (NegativeTemplate("glued_early", ("Keep x{kw}y as it is.",)),
                  NegativeTemplate("glued_late", ("See z{kw}q for more.",)))
        library = synthdata.default_library()
        library = SeedLibrary(
            library.keywords, library.templates,
            library.negatives[:3] + broken[:1] + library.negatives[3:] + broken[1:])
        errors = []
        for n in (1, 2, 3):
            processes(n)
            with pytest.raises(TemplateError) as caught:
                synthdata.build_dataset(library, synthdata.default_distractors(), 600)
            errors.append((type(caught.value), str(caught.value)))
            no_child_left()
        assert errors == [(TemplateError, "negative glued_early: no keyword in output")] * 3

    def test_the_command_line_still_exits_2_with_one_line(self, processes, tmp_path, capsys):
        library = synthdata.default_library()
        seeds = {
            "software": library.keywords.software,
            "keywords": list(library.keywords.keywords),
            "templates": [
                {"id": t.id, "sentences": list(t.sentences), "target": " ".join(t.target),
                 "type": t.type.value, "category": t.category.value}
                for t in library.templates
            ],
            "negatives": [{"id": "glued", "sentences": ["Keep x{kw}y as it is."]}],
        }
        (tmp_path / "seeds.json").write_text(json.dumps(seeds), encoding="utf-8")
        for n in (1, 3):
            processes(n)
            status = cli.main(["compose", "--seeds", str(tmp_path / "seeds.json"),
                               "--n", "300", "--test-n", "0",
                               "--out", str(tmp_path / "out.jsonl")])
            err = capsys.readouterr().err
            assert status == 2
            assert err == "specsyn: negative glued: no keyword in output\n"
            no_child_left()


class TestTrainShards:
    """`train` runs each step's second shard on a forked worker, or itself
    on one CPU: the same checkpoint and loss log either way, and no worker
    outlives the call."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("shards") / "train.jsonl"
        dataset = synthdata.build_dataset(
            synthdata.default_library(), synthdata.default_distractors(), 300, rng_seed=4)
        synthdata.save_dataset(path, dataset.train)
        return path

    def train(self, data, out: Path) -> tuple[bytes, bytes]:
        out.mkdir()
        assert cli.main(["train", "--data", str(data), "--epochs", "3", "--d-model", "16",
                         "--batch-size", "24", "--seed", "5", "--out", str(out / "m.spsy"),
                         "--log", str(out / "loss.csv")]) == 0
        return (out / "m.spsy").read_bytes(), (out / "loss.csv").read_bytes()

    def test_the_worker_does_not_change_a_bit(self, processes, data, tmp_path):
        processes(1)
        serial = self.train(data, tmp_path / "serial")
        assert processes.forks == []
        processes(2)
        assert self.train(data, tmp_path / "worker") == serial
        assert len(processes.forks) == 1
        no_child_left()

    def test_a_killed_worker_is_made_up_for(self, processes, data, tmp_path, monkeypatch):
        processes(1)
        serial = self.train(data, tmp_path / "serial")
        parent, calls = os.getpid(), []
        real = Model.loss_and_grads

        def loss_and_grads(model, batch, weights, slots=None):
            # the parent's fourth first shard: the worker is on its second one
            if os.getpid() == parent:
                calls.append(None)
                if len(calls) == 4:
                    os.kill(processes.forks[0], signal.SIGKILL)
            return real(model, batch, weights, slots)

        monkeypatch.setattr(Model, "loss_and_grads", loss_and_grads)
        processes(2)
        assert self.train(data, tmp_path / "killed") == serial
        assert len(processes.forks) == 1 and len(calls) > 8
        no_child_left()

    def test_divergence_reaps_the_worker(self, processes, data, tmp_path, monkeypatch):
        parent, calls = os.getpid(), []
        real = Model.loss_and_grads

        def poisoned(model, batch, weights, slots=None):
            losses, grads = real(model, batch, weights, slots)
            calls.append(None)
            if os.getpid() == parent and len(calls) == 5:
                losses = {**losses, "total": float("nan")}
            return losses, grads

        monkeypatch.setattr(Model, "loss_and_grads", poisoned)
        processes(2)
        with pytest.raises(DivergenceError):
            train_module.train(synthdata.load_dataset(data))
        assert len(processes.forks) == 1
        no_child_left()

    def test_an_interrupt_reaps_the_worker(self, processes, data, monkeypatch):
        real_step, steps = Adam.step, []

        def step(optimizer, grads):
            steps.append(None)
            if len(steps) == 3:
                raise KeyboardInterrupt
            real_step(optimizer, grads)

        monkeypatch.setattr(Adam, "step", step)
        processes(2)
        with pytest.raises(KeyboardInterrupt):
            train_module.train(synthdata.load_dataset(data))
        assert len(processes.forks) == 1
        no_child_left()


def test_training_does_not_depend_on_the_blas_environment(tmp_path):
    """The command line runs BLAS at one thread unless told otherwise, so a
    checkpoint trained with the thread variables unset equals one trained
    with them at 1."""
    dataset = synthdata.build_dataset(
        synthdata.default_library(), synthdata.default_distractors(), 600, rng_seed=5)
    synthdata.save_dataset(tmp_path / "train.jsonl", dataset.train)
    unset = {k: v for k, v in child_env().items() if k not in BLAS_VARS}
    digests = []
    for env in (unset, {**unset, **dict.fromkeys(BLAS_VARS, "1")}):
        out = tmp_path / f"model{len(digests)}.spsy"
        proc = subprocess.run(
            [sys.executable, "-m", "specsyn.cli", "train", "--data", "train.jsonl",
             "--epochs", "3", "--out", out.name],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(out.read_bytes())
    assert digests[0] == digests[1]

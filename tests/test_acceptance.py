"""Shipping gate: one test per release criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line so the
run log doubles as the acceptance report, then asserts. The synthetic
training protocol (criteria 6 and 7) runs once as a session fixture.
"""

import json
import math
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import randspec
from conftest import run_cli
from specsyn import dsl
from specsyn.conformance import Verdict, check_spec, parse_config
from specsyn.corpus import KeywordSet
from specsyn.eval import evaluate, score_detection
from specsyn.model import (
    BOS_ID,
    CLS_ID,
    EOS_ID,
    Model,
    ModelConfig,
    TrainConfig,
    Vocab,
    detection_weights,
    grad_check,
    make_batch,
    predicted_label,
    save_checkpoint,
    train,
    weighted_ce,
)
from specsyn.synthdata import (
    build_dataset,
    compose_positive,
    default_distractors,
    default_library,
)
from specsyn.tagger import detag, load_lexicons, tag_text


def announce(capsys, number, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{tail}")


@pytest.fixture(scope="session")
def protocol(tmp_path_factory):
    """Synthetic protocol at full scale: 50 seeds -> 3,000 train / 250
    test, 100 epochs with default hyperparameters. Shared by criteria 6
    and 7 and the pipeline smoke tests, each marked ``slow``."""
    library = default_library()
    start = time.perf_counter()
    dataset = build_dataset(
        library,
        default_distractors(),
        n_total=3250,
        positive_fraction=0.3,
        rng_seed=42,
        n_test=250,
    )
    result = train(dataset.train, TrainConfig(), ModelConfig())
    report = evaluate(result.model, dataset.test)
    elapsed = time.perf_counter() - start
    checkpoint = tmp_path_factory.mktemp("protocol") / "model.spsy"
    save_checkpoint(result.model, checkpoint)
    return SimpleNamespace(
        library=library,
        model=result.model,
        loss_log=result.loss_log,
        report=report,
        elapsed=elapsed,
        checkpoint=checkpoint,
    )


def test_criterion_1_dsl_round_trip(capsys):
    rng = random.Random(99)
    relations_seen = set()
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        spec = randspec.random_specification(rng)
        for rule in spec.rules:
            relations_seen.add(rule.relation)
        if dsl.parse_spec(dsl.print_spec(spec)) != spec:
            failures += 1
    elapsed = time.perf_counter() - start
    expected = set(dsl.Relation)
    ok = failures == 0 and relations_seen == expected and elapsed < 5.0
    announce(
        capsys, 1, "DSL round-trip",
        ok, f"{failures} failures, {len(relations_seen)}/11 relations, {elapsed:.2f}s",
    )
    assert failures == 0
    assert relations_seen == expected
    assert elapsed < 5.0


def test_criterion_2_tag_detag_inverse(capsys):
    library = default_library()
    distractors = default_distractors()
    assert len(library.templates) == 50
    failures = 0
    for i, template in enumerate(library.templates):
        for k in range(10):
            sample = compose_positive(
                template, distractors, 1000 * i + k, library.keywords
            )
            if detag(list(sample.target), sample.tags) != sample.gold:
                failures += 1
    ok = failures == 0
    announce(
        capsys, 2, "tag/detag inverse",
        ok, f"{failures} failures over {len(library.templates)}x10 instantiations",
    )
    assert failures == 0


def test_criterion_3_loss_exactness(capsys):
    plain = weighted_ce((0.5, 0.5), 1, (1.0, 1.0))
    weighted = weighted_ce((0.5, 0.5), 1, (1.0, 3.0))
    ok = (
        abs(plain - math.log(2)) < 1e-9
        and abs(weighted - 3 * math.log(2)) < 1e-9
    )
    announce(
        capsys, 3, "loss exactness",
        ok, f"ln2 err {abs(plain - math.log(2)):.1e}, "
            f"3ln2 err {abs(weighted - 3 * math.log(2)):.1e}",
    )
    assert plain == pytest.approx(math.log(2), abs=1e-9)
    assert weighted == pytest.approx(3 * math.log(2), abs=1e-9)


def test_criterion_4_metric_reproduction(capsys):
    # Totals realizing precision 0.92 and recall 0.81.
    predictions = [True] * (7452 + 648) + [False] * 1748
    labels = [True] * 7452 + [False] * 648 + [True] * 1748
    _, totals = score_detection(predictions, labels)

    predictions = [True] * (94 + 6) + [False] * 21
    labels = [True] * 94 + [False] * 6 + [True] * 21
    _, fixture = score_detection(predictions, labels)

    ok = (
        abs(totals.f1 - 0.86) <= 0.005
        and abs(fixture.precision - 0.94) < 1e-12
        and abs(fixture.recall - 0.8174) <= 0.0005
    )
    announce(
        capsys, 4, "metric reproduction",
        ok, f"F1 {totals.f1:.4f}, P {fixture.precision:.4f}, R {fixture.recall:.4f}",
    )
    assert totals.precision == pytest.approx(0.92, abs=1e-12)
    assert totals.recall == pytest.approx(0.81, abs=1e-12)
    assert totals.f1 == pytest.approx(0.86, abs=0.005)
    assert fixture.precision == pytest.approx(0.94, abs=1e-12)
    assert fixture.recall == pytest.approx(0.8174, abs=0.0005)


def test_criterion_5_gradient_verification(capsys):
    texts = [
        "always keep <keyword1> equal to <bool1> and set <keyword2> "
        "to at least <num1> <unit1> .",
        "for stable operation <keyword1> must stay between <num1> "
        "and <num2> inclusive .",
        "see page <num1> for details of <keyword1> 5.1.2 .",
        "the manual describes <keyword1> and <keyword2> near section <num1> .",
    ]
    targets = [
        ("<keyword1>", "==", "<bool1>", "and", "<keyword2>", ">=", "<num1>"),
        ("<keyword1>", "in", "[", "<num1>", ",", "<num2>", "]"),
    ]
    vocab = Vocab.build(texts, targets)

    def row(text, label, category, target):
        ids = [vocab.id_of(t) for t in target]
        return (
            [CLS_ID] + vocab.encode(text), label, category,
            [BOS_ID] + ids, ids + [EOS_ID],
        )

    batch = make_batch([
        row(texts[0], 1, 2, list(targets[0])),
        row(texts[1], 1, 0, list(targets[1])),
        row(texts[2], 0, -1, []),
        row(texts[3], 0, -1, []),
    ])
    weights = detection_weights([1, 1, 0, 0])
    config = ModelConfig(d_model=16, blocks=1, heads=4, max_len=32)
    model = Model.initialize(config, vocab, rng_seed=22)

    start = time.perf_counter()
    error = grad_check(model, batch, weights, epsilon=1.5e-4)
    elapsed = time.perf_counter() - start
    ok = error < 1e-4 and elapsed < 120
    announce(
        capsys, 5, "gradient verification",
        ok, f"max rel err {error:.3e}, {elapsed:.0f}s",
    )
    assert error < 1e-4
    assert elapsed < 120


@pytest.mark.slow
def test_criterion_6_synthetic_protocol(protocol, capsys):
    report = protocol.report
    by_type = report.by_type
    f1 = report.metrics.f1
    simple_em = by_type["simple"]["generation_em"]
    complex_ems = {
        name: group["generation_em"]
        for name, group in by_type.items()
        if name.startswith("complex")
    }
    ok = (
        f1 >= 0.90
        and simple_em >= 0.95
        and complex_ems
        and all(em >= 0.80 for em in complex_ems.values())
        and protocol.elapsed <= 15 * 60
    )
    detail = ", ".join(
        [f"F1 {f1:.3f}", f"simple EM {simple_em:.3f}"]
        + [f"{name} EM {em:.3f}" for name, em in sorted(complex_ems.items())]
        + [f"{protocol.elapsed / 60:.1f} min"]
    )
    announce(capsys, 6, "synthetic protocol", ok, detail)
    assert f1 >= 0.90
    assert simple_em >= 0.95
    assert complex_ems
    for em in complex_ems.values():
        assert em >= 0.80
    assert protocol.elapsed <= 15 * 60


@pytest.mark.slow
def test_criterion_7_two_step_contract(protocol, capsys):
    model = protocol.model
    base = protocol.library.keywords
    keywords = KeywordSet(base.software, (*base.keywords, "mysql"))

    tagged = tag_text("See page 157 for details of MySQL 11.7.8", keywords, load_lexicons())
    h = model.encode_text(tagged.text)
    false_positive_flagged = predicted_label(model.detect(h))

    tagged = tag_text(
        "It is necessary to use a number greater than 1500 for user_port",
        keywords,
        load_lexicons(),
    )
    h = model.encode_text(tagged.text)
    flagged = predicted_label(model.detect(h))
    emitted = None
    if flagged:
        generated = model.generate(h, tagged.tags)
        emitted = detag(generated.tokens, tagged.tags)

    want = dsl.parse_spec("user_port > 1500")
    ok = not false_positive_flagged and emitted == want
    shown = emitted and dsl.print_spec(emitted)
    announce(
        capsys, 7, "two-step contract",
        ok, f"page-ref flagged={false_positive_flagged}, emitted={shown!r}",
    )
    assert not false_positive_flagged
    assert flagged
    assert emitted == want


def test_criterion_8_conformance_duality(tmp_path, capsys):
    and_spec = dsl.parse_spec("alpha > 10 and beta > 10")
    or_spec = dsl.parse_spec("alpha > 10 or beta > 10")
    duality_holds = True
    for a_ok in (True, False):
        for b_ok in (True, False):
            config = parse_config(
                f"alpha = {20 if a_ok else 5}\nbeta = {20 if b_ok else 5}\n"
            )
            and_violated, _ = check_spec(and_spec, config)
            or_violated, _ = check_spec(or_spec, config)
            duality_holds &= and_violated == (not a_ok or not b_ok)
            duality_holds &= or_violated == (not a_ok and not b_ok)

    (tmp_path / "rules.spec").write_text("user_port > 1500\n", encoding="utf-8")
    (tmp_path / "my.cnf").write_text("user_port = 1433\n", encoding="utf-8")
    proc = run_cli(
        "check", "--specs", "rules.spec", "--config", "my.cnf",
        "--report", "violations.json",
        cwd=tmp_path, timeout=120,
    )
    report = tmp_path / "violations.json"
    assert report.exists(), proc.stderr
    violations = json.loads(report.read_text())
    out_of_range = [
        v for v in violations if v["verdict"] == Verdict.VALUE_OUT_OF_RANGE.value
    ]
    fixture_ok = (
        proc.returncode == 1
        and len(violations) == 1
        and len(out_of_range) == 1
    )
    ok = duality_holds and fixture_ok
    announce(
        capsys, 8, "conformance duality",
        ok, f"duality {duality_holds}, exit {proc.returncode}, "
            f"{len(out_of_range)} ValueOutOfRange",
    )
    assert duality_holds
    assert proc.returncode == 1
    assert len(violations) == 1
    assert out_of_range[0]["observed"] == "1433"


def test_criterion_9_determinism(tmp_path, capsys):
    def run(cwd, *args):
        proc = run_cli(*args, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        return proc

    (tmp_path / "doc.txt").write_text(
        "It is necessary to use a number greater than 1500 for user_port.\n",
        encoding="utf-8",
    )
    (tmp_path / "kw.txt").write_text("user_port\n", encoding="utf-8")

    outputs = (
        "train.jsonl", "test.jsonl", "train.manifest.json", "compose.config.json",
        "model.spsy", "loss.csv", "train.config.json",
        "specs.spec", "synth.json", "synthesize.config.json",
    )
    for arm in ("a", "b"):
        d = tmp_path / arm
        d.mkdir()
        run(
            d, "compose", "--n", 150, "--test-n", 30,
            "--out", "train.jsonl", "--test-out", "test.jsonl",
        )
        run(
            d, "train", "--data", "train.jsonl", "--epochs", 5,
            "--d-model", 16, "--blocks", 1, "--max-len", 48,
            "--out", "model.spsy", "--log", "loss.csv",
        )
        run(
            d, "synthesize", "--model", "model.spsy",
            "--input", tmp_path / "doc.txt", "--keywords", tmp_path / "kw.txt",
            "--out", "specs.spec", "--report", "synth.json",
        )

    mismatched = [
        name for name in outputs
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    ok = not mismatched
    announce(
        capsys, 9, "determinism",
        ok, f"{len(outputs)} outputs compared" + (f", differ: {mismatched}" if mismatched else ""),
    )
    assert not mismatched


@pytest.mark.slow
def test_training_loss_trend(protocol):
    """Ten-epoch moving average of the total loss must not rise end to end."""
    totals = [entry.total for entry in protocol.loss_log]
    assert len(totals) == 100
    head = sum(totals[:10]) / 10
    tail = sum(totals[-10:]) / 10
    assert tail < head


@pytest.mark.slow
def test_synthesize_skips_false_positive_document(protocol, tmp_path):
    """A document holding only the page-reference sentence yields one
    candidate, zero detections, and an empty spec file."""
    (tmp_path / "doc.txt").write_text(
        "See page 157 for details of MySQL 11.7.8", encoding="utf-8"
    )
    (tmp_path / "kw.txt").write_text("mysql\n", encoding="utf-8")
    proc = run_cli(
        "synthesize", "--model", protocol.checkpoint,
        "--input", "doc.txt", "--keywords", "kw.txt",
        "--out", "specs.spec", "--report", "synth.json",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "synth.json").read_text())
    assert report["candidates"] == 1
    assert report["detections"] == 0
    assert (tmp_path / "specs.spec").read_text() == ""


@pytest.mark.slow
def test_full_pipeline_smoke(protocol, tmp_path):
    """ingest -> synthesize -> check over the shipped fixtures: exit 0,
    a non-empty spec file, and every rule well-formed."""
    fixtures = Path(__file__).parent / "fixtures"
    proc = run_cli(
        "ingest", "--input", fixtures / "manual.txt",
        "--keywords", fixtures / "keywords.txt", "--window", 1,
        "--out", "candidates.jsonl",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "candidates.jsonl").read_text().strip()

    proc = run_cli(
        "synthesize", "--model", protocol.checkpoint,
        "--input", fixtures / "manual.txt",
        "--keywords", fixtures / "keywords.txt", "--window", 1,
        "--out", "specs.spec", "--report", "synth.json",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    emitted = (tmp_path / "specs.spec").read_text().splitlines()
    assert emitted
    for line in emitted:
        dsl.parse_spec(line)
    assert "user_port > 1500" in emitted

    proc = run_cli(
        "check", "--specs", "specs.spec",
        "--config", fixtures / "my.cnf",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"

"""Command-line pipeline: ingest, compose, train, synthesize, eval, check.

Each subcommand reads its input files, calls the library and writes its
outputs; how a text becomes model input and a rule lives in `specsyn.eval`
(`synthesize` and `evaluate`), not here. Conventions shared by every
subcommand: logs go to standard error and data to files, every run but
`check` writes an effective-config JSON next to its primary output, and
expected failures (bad paths, malformed inputs) exit with status 2 and a
one-line diagnostic instead of a stack trace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import logging
import os
import sys
from pathlib import Path

# One BLAS thread unless the user sets another count: a trained model then
# does not depend on the machine's cores, a busy core does not stall the
# small products, and `workers.ordered_map` may fork. OpenBLAS reads these
# once, when numpy loads, so they are set before the imports below load it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .conformance import (
    ConfigFormat,
    check,
    has_hard_violations,
    parse_config,
    render_violations,
)
from .corpus import (
    CorpusError,
    DocumentFormat,
    extract_candidates,
    ingest,
    load_keyword_file,
    save_candidates,
)
from .dsl import DslError, load_spec_file, save_spec_file
from .eval import EvalError, evaluate, render_report, synthesize
from .files import InputError, read_text, write_json, write_output
from .model.checkpoint import load_checkpoint, save_checkpoint
from .model.network import ModelConfig, SequenceTooLong
from .model.train import TrainConfig, train
from .model.vocab import ModelError
from .synthdata import (
    SynthError,
    build_dataset,
    default_distractors,
    default_library,
    load_dataset,
    load_distractors,
    load_seed_library,
    save_dataset,
)
from .tagger import TagError, load_lexicons

log = logging.getLogger("specsyn")

# Errors that are the user's problem, not ours: report one line, exit 2.
_EXPECTED = (
    CorpusError,
    SynthError,
    DslError,
    TagError,
    ModelError,
    EvalError,
    InputError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with a single diagnostic line."""

    def error(self, message):
        self.exit(2, f"specsyn: error: {message}\n")


def _write_effective_config(command: str, args: argparse.Namespace, anchor) -> None:
    """Record the resolved parameters next to the primary output (anchor)."""
    settings = {
        key: str(value) if isinstance(value, Path) else value
        for key, value in vars(args).items()
        if key not in ("func", "command") and not key.startswith("_")
    }
    payload = {"command": command, "settings": settings}
    write_json(Path(anchor).parent / f"{command}.config.json", payload, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _read_candidates(args):
    """Keywords, sentences and candidates of the document options."""
    keywords = load_keyword_file(args.keywords)
    sentences = ingest(read_text(args.input), DocumentFormat(args.format))
    candidates = extract_candidates(
        sentences, keywords, window=args.window, doc_id=Path(args.input).name
    )
    return keywords, sentences, candidates


def _cmd_ingest(args) -> int:
    _, sentences, candidates = _read_candidates(args)
    save_candidates(args.out, candidates)
    _write_effective_config("ingest", args, args.out)
    log.info("%d sentences -> %d candidates -> %s", len(sentences), len(candidates), args.out)
    return 0


def _cmd_compose(args) -> int:
    library = load_seed_library(args.seeds) if args.seeds else default_library()
    distractors = load_distractors(args.distractors) if args.distractors else default_distractors()
    dataset = build_dataset(
        library,
        distractors,
        n_total=args.n + args.test_n,
        positive_fraction=args.pos_frac,
        rng_seed=args.seed,
        n_test=args.test_n,
    )
    save_dataset(args.out, dataset.train)
    if args.test_n:
        save_dataset(args.test_out, dataset.test)
    write_json(Path(args.out).with_suffix(".manifest.json"), dataset.manifest, sort_keys=True)
    _write_effective_config("compose", args, args.out)
    log.info("composed %d train / %d test samples", len(dataset.train), len(dataset.test))
    return 0


def _cmd_train(args) -> int:
    samples = load_dataset(args.data)
    model_config = ModelConfig(
        d_model=args.d_model,
        blocks=args.blocks,
        heads=args.heads,
        max_len=args.max_len,
    )
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        rng_seed=args.seed,
    )
    try:
        result = train(samples, config, model_config)
    except SequenceTooLong as exc:
        raise InputError(args.data, None, exc) from exc
    save_checkpoint(result.model, args.out)
    if args.log:
        rows = io.StringIO(newline="")
        writer = csv.writer(rows)
        writer.writerow(["epoch", "total", "detection", "generation", "category"])
        for epoch, loss in enumerate(result.loss_log, start=1):
            writer.writerow([epoch, loss.total, loss.detection, loss.generation, loss.category])
        write_output(args.log, rows.getvalue())
    _write_effective_config("train", args, args.out)
    final = result.loss_log[-1].total if result.loss_log else float("nan")
    log.info("trained %d epochs on %d samples, final loss %.4f", args.epochs, len(samples), final)
    return 0


def _cmd_synthesize(args) -> int:
    model = load_checkpoint(args.model)
    keywords, _, candidates = _read_candidates(args)
    results = synthesize(model, candidates, keywords, load_lexicons())

    detections = sum(result.flagged for result in results)
    specs = [result.rule for result in results if result.rule is not None]
    failures = []
    for candidate, result in zip(candidates, results):
        if result.failure is not None:
            failures.append(
                {"source": candidate.source, "text": candidate.text, "reason": result.failure}
            )
            log.warning("dropping non-parsing output for %s: %s", candidate.source, result.failure)

    save_spec_file(args.out, specs)
    if args.report:
        report = {
            "candidates": len(candidates),
            "detections": detections,
            "emitted": len(specs),
            "failures": failures,
        }
        write_json(args.report, report, sort_keys=True)
    _write_effective_config("synthesize", args, args.out)
    log.info(
        "%d candidates, %d detections, %d specs -> %s",
        len(candidates), detections, len(specs), args.out,
    )
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    samples = load_dataset(args.data)
    try:
        report = evaluate(model, samples)
    except SequenceTooLong as exc:
        raise InputError(args.data, None, exc) from exc
    write_json(args.report, report.to_dict())
    _write_effective_config("eval", args, args.report)
    print(render_report(report), file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    specs = load_spec_file(args.specs)
    config = parse_config(read_text(args.config), ConfigFormat(args.format))
    for bad in config.malformed:
        log.warning("%s:%d: skipped malformed line: %s", args.config, bad.line, bad.reason)
    violations = check(config, specs)
    print(render_violations(violations))
    if args.report:
        write_json(args.report, [violation.to_dict() for violation in violations])
    return 1 if has_hard_violations(violations) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: `parse_args` gives every call a
    fresh namespace."""
    parser = _Parser(prog="specsyn", description=__doc__.splitlines()[0])
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log detail (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # options shared by several subcommands
    checkpoint = argparse.ArgumentParser(add_help=False)
    checkpoint.add_argument("--model", required=True, help="checkpoint to load")
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("--input", required=True, help="document to read")
    document.add_argument(
        "--format", default="plain", choices=[f.value for f in DocumentFormat],
        help="document format (default: plain)",
    )
    document.add_argument("--keywords", required=True, help="keyword file, one per line")
    document.add_argument("--window", type=int, default=3, help="sentences per compound span")

    p = sub.add_parser(
        "ingest", parents=[document], help="extract candidate sentences from a document"
    )
    p.add_argument("--out", required=True, help="candidate JSONL to write")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("compose", help="synthesize a labeled dataset from seed templates")
    p.add_argument("--seeds", help="seed template JSON (default: built-in library)")
    p.add_argument("--distractors", help="negative sentence file (default: built-in)")
    p.add_argument("--n", type=int, default=3000, help="training samples to draw")
    p.add_argument("--test-n", type=int, default=250, help="held-out samples to draw")
    p.add_argument("--pos-frac", type=float, default=0.3, help="positive fraction")
    p.add_argument("--seed", type=int, default=42, help="RNG seed")
    p.add_argument("--out", default="train.jsonl", help="training JSONL to write")
    p.add_argument("--test-out", default="test.jsonl", help="test JSONL to write")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("train", help="train the detection/generation model")
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--log", help="per-epoch loss CSV to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "synthesize", parents=[checkpoint, document],
        help="emit specs for a document with a trained model",
    )
    p.add_argument("--out", required=True, help="spec file to write, one rule per line")
    p.add_argument("--report", help="synthesis summary JSON to write")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser(
        "eval", parents=[checkpoint], help="score a model against a labeled dataset"
    )
    p.add_argument("--data", required=True, help="labeled JSONL")
    p.add_argument("--report", required=True, help="metrics JSON to write")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="validate a config file against a spec file")
    p.add_argument("--specs", required=True, help="spec file, one rule per line")
    p.add_argument("--config", required=True, help="config file to validate")
    p.add_argument(
        "--format", default="kv", choices=[f.value for f in ConfigFormat],
        help="config format (default: kv)",
    )
    p.add_argument("--report", help="violation JSON to write")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except _EXPECTED as exc:
        print(f"specsyn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

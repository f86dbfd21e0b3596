"""Spans around specsyn's layer entry points, recorded from outside.

`Tracer.install` replaces each entry point named in `LAYERS` with a
wrapper that records a span (name, start, end, parent) in memory, and
`uninstall` puts the originals back. A module-level function is replaced
in every specsyn module that bound it by name (`from .tagger import
tag_text`), so calls made through any of those names are seen. An entry
point that no longer exists is listed in `Tracer.missing` and its
metrics read 0; it never raises.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _fill(tracer, args, kwargs, batch, exc):
    if batch is not None:
        tracer.counts["encoder_real"] += int(batch.mask.sum())
        tracer.counts["encoder_slots"] += int(batch.mask.size)
        gen_rows = batch.gen_mask.any(axis=1)
        tracer.counts["decoder_real"] += int(batch.gen_mask.sum())
        tracer.counts["decoder_slots"] += int(gen_rows.sum()) * batch.gen_mask.shape[1]


def _rows(tracer, args, kwargs, result, exc):
    ids = args[1] if len(args) > 1 else kwargs.get("ids")
    tracer.counts["encode_rows"] += int(ids.shape[0])


def _detections(tracer, args, kwargs, flagged, exc):
    tracer.counts["detections"] += bool(flagged)


def _decode(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["decode_steps"] += len(result.tokens) + (0 if result.truncated else 1)
        tracer.counts["decode_truncated"] += bool(result.truncated)
        tracer.pending_tokens = tuple(result.tokens)


def _detag(tracer, args, kwargs, result, exc):
    # only generated sequences count; compose and gold specs also detag
    tokens = args[0] if args else kwargs.get("tokens")
    if tracer.pending_tokens is not None and tuple(tokens) == tracer.pending_tokens:
        tracer.pending_tokens = None
        tracer.counts["detag_failures" if exc is not None else "emitted"] += 1


def _length(counter):
    def hook(tracer, args, kwargs, result, exc):
        if result is not None:
            tracer.counts[counter] += len(result)
    return hook


# (span name, module, qualified name, hook run after each call)
LAYERS = (
    ("cli.main", "specsyn.cli", "main", None),
    ("synthdata.build_dataset", "specsyn.synthdata", "build_dataset", None),
    ("synthdata.dataset_io", "specsyn.synthdata", "save_dataset", None),
    ("synthdata.dataset_io", "specsyn.synthdata", "load_dataset", None),
    ("tagger.tag_text", "specsyn.tagger", "tag_text", None),
    ("tagger.detag", "specsyn.tagger", "detag", _detag),
    ("model.train.train_loop", "specsyn.model.train", "train", None),
    ("model.train.make_batch", "specsyn.model.train", "make_batch", _fill),
    ("model.train.adam_step", "specsyn.model.train", "Adam.step", None),
    ("model.network.encode_forward", "specsyn.model.network", "Model._encode_batch", _rows),
    ("model.network.encode_backward", "specsyn.model.network", "Model._encode_backward", None),
    ("model.network.heads_forward", "specsyn.model.network", "Model._mlp_forward", None),
    ("model.network.heads_backward", "specsyn.model.network", "Model._mlp_backward", None),
    ("model.network.generator_forward", "specsyn.model.network", "Model._gen_forward", None),
    ("model.network.generator_backward", "specsyn.model.network", "Model._gen_backward", None),
    ("model.network.encode_text", "specsyn.model.network", "Model.encode_text", None),
    ("model.network.detect", "specsyn.model.network", "Model.detect", None),
    ("model.network.predicted_label", "specsyn.model.network", "predicted_label", _detections),
    ("model.network.generate", "specsyn.model.network", "Model.generate", _decode),
    ("model.checkpoint.save", "specsyn.model.checkpoint", "save_checkpoint", None),
    ("model.checkpoint.load", "specsyn.model.checkpoint", "load_checkpoint", None),
    ("corpus.ingest", "specsyn.corpus", "ingest", None),
    ("corpus.extract_candidates", "specsyn.corpus", "extract_candidates", _length("candidates")),
    ("eval.evaluate", "specsyn.eval", "evaluate", None),
    ("eval.report", "specsyn.eval", "report_from_outcomes", None),
    ("dsl.parse_spec", "specsyn.dsl", "parse_spec", None),
    ("conformance.parse_config", "specsyn.conformance", "parse_config", None),
    ("conformance.lookup", "specsyn.conformance", "ConfigMap.lookup", None),
    ("conformance.check", "specsyn.conformance", "check", _length("findings")),
)

# Which span, call count or counter stands behind each per-layer metric.
# Self times and counts are per round; ratios are over the whole run.
def _self(span):
    return ("self", span)


def _calls(span):
    return ("calls", span)


def _count(counter):
    return ("count", counter)


METRICS = {
    "cli.main_s": (_self("cli.main"), "s"),
    "synthdata.build_dataset_s": (_self("synthdata.build_dataset"), "s"),
    "synthdata.dataset_io_s": (_self("synthdata.dataset_io"), "s"),
    "tagger.tag_text_s": (_self("tagger.tag_text"), "s"),
    "tagger.tag_text_calls": (_calls("tagger.tag_text"), "count"),
    "model.train.train_loop_s": (_self("model.train.train_loop"), "s"),
    "model.train.make_batch_s": (_self("model.train.make_batch"), "s"),
    "model.train.encoder_fill": (
        ("ratio", _count("encoder_real"), _count("encoder_slots")), "ratio"),
    "model.train.decoder_fill": (
        ("ratio", _count("decoder_real"), _count("decoder_slots")), "ratio"),
    "model.train.adam_step_s": (_self("model.train.adam_step"), "s"),
    "model.train.steps": (_calls("model.train.adam_step"), "count"),
    "model.network.encode_forward_s": (_self("model.network.encode_forward"), "s"),
    "model.network.encode_backward_s": (_self("model.network.encode_backward"), "s"),
    "model.network.heads_forward_s": (_self("model.network.heads_forward"), "s"),
    "model.network.heads_backward_s": (_self("model.network.heads_backward"), "s"),
    "model.network.generator_forward_s": (_self("model.network.generator_forward"), "s"),
    "model.network.generator_backward_s": (_self("model.network.generator_backward"), "s"),
    "model.network.encode_text_s": (_self("model.network.encode_text"), "s"),
    "model.network.encode_calls": (_calls("model.network.encode_forward"), "count"),
    "model.network.encode_rows_per_call": (
        ("ratio", _count("encode_rows"), _calls("model.network.encode_forward")), "rows/call"),
    "model.network.detect_s": (_self("model.network.detect"), "s"),
    "model.network.detections": (_count("detections"), "count"),
    "model.network.generate_s": (_self("model.network.generate"), "s"),
    "model.network.decode_steps": (_count("decode_steps"), "count"),
    "model.network.decode_truncated": (_count("decode_truncated"), "count"),
    "model.checkpoint.save_s": (_self("model.checkpoint.save"), "s"),
    "model.checkpoint.load_s": (_self("model.checkpoint.load"), "s"),
    "corpus.ingest_s": (_self("corpus.ingest"), "s"),
    "corpus.extract_candidates_s": (_self("corpus.extract_candidates"), "s"),
    "corpus.candidates": (_count("candidates"), "count"),
    "tagger.detag_s": (_self("tagger.detag"), "s"),
    "tagger.emitted": (_count("emitted"), "count"),
    "tagger.detag_failures": (_count("detag_failures"), "count"),
    "eval.evaluate_s": (_self("eval.evaluate"), "s"),
    "eval.report_s": (_self("eval.report"), "s"),
    "dsl.parse_spec_s": (_self("dsl.parse_spec"), "s"),
    "dsl.parse_spec_calls": (_calls("dsl.parse_spec"), "count"),
    "conformance.parse_config_s": (_self("conformance.parse_config"), "s"),
    "conformance.lookup_s": (_self("conformance.lookup"), "s"),
    "conformance.lookup_calls": (_calls("conformance.lookup"), "count"),
    "conformance.check_s": (_self("conformance.check"), "s"),
    "conformance.findings": (_count("findings"), "count"),
}

# the span each counter is kept by, so a missing span marks its metrics
_COUNTER_SPAN = {
    "encoder_real": "model.train.make_batch", "encoder_slots": "model.train.make_batch",
    "decoder_real": "model.train.make_batch", "decoder_slots": "model.train.make_batch",
    "encode_rows": "model.network.encode_forward",
    "detections": "model.network.predicted_label",
    "decode_steps": "model.network.generate", "decode_truncated": "model.network.generate",
    "candidates": "corpus.extract_candidates", "emitted": "tagger.detag",
    "detag_failures": "tagger.detag", "findings": "conformance.check",
}


def _spans_of(ref) -> set[str]:
    kind = ref[0]
    if kind == "ratio":
        return _spans_of(ref[1]) | _spans_of(ref[2])
    return {_COUNTER_SPAN[ref[1]] if kind == "count" else ref[1]}


class Tracer:
    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.pending_tokens = None
        self._stack: list = []  # [span index, time covered by children]
        self._restore: list = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, stack[-1][0] if stack else -1)
                self.calls[name] += 1
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return wrapper

    def install(self) -> "Tracer":
        for name, module_name, qualname, hook in self.layers:
            where = f"{module_name}:{qualname}"
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if path else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(where)
                continue
            wrapper = self._wrap(name, fn, hook)
            if path:
                self._bind(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("specsyn"):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._bind(module, key, wrapper)
        return self

    def _bind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _read(self, ref) -> float:
        kind, arg = ref[0], ref[1]
        if kind == "self":
            return self.self_time[arg]
        return self.calls[arg] if kind == "calls" else self.counts[arg]

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics: self times and counts per round, ratios whole."""
        out = {}
        for metric, (ref, unit) in METRICS.items():
            if ref[0] == "ratio":
                den = self._read(ref[2])
                value = self._read(ref[1]) / den if den else 0.0
            else:
                value = self._read(ref) / rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def missing_metrics(self) -> list[str]:
        """Metrics that read 0 because an entry point behind them is gone."""
        where = {f"{m}:{q}": n for n, m, q, _ in self.layers}
        gone = {where[w] for w in self.missing}
        return sorted(m for m, (ref, _) in METRICS.items() if _spans_of(ref) & gone)

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["missing_entry_points"] = self.missing
        payload["span_fields"] = ["name", "start_s", "end_s", "parent"]
        payload["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""

    def noop(x):
        return x

    probe = Tracer(layers=())
    wrapped = probe._wrap("probe", noop, None)
    best = float("inf")
    for _ in range(3):
        probe.spans.clear()
        start = time.perf_counter()
        for i in range(calls):
            noop(i)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)

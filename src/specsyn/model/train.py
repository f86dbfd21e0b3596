"""Training loop: batching, the optimizer, and per-epoch loss logging.

Training computes in float32: the parameters, Adam's moments and every
forward and backward tensor. The trained parameters are widened back to
float64, exactly, so the returned model is the one its checkpoint holds.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..synthdata import LabeledSample
from .network import (
    Batch,
    CATEGORIES,
    DivergenceError,
    Model,
    ModelConfig,
    ModelError,
    SequenceTooLong,
    detection_weights,
)
from .vocab import BOS_ID, CLS_ID, EOS_ID, PAD_ID, Vocab


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    rng_seed: int = 42

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ModelError("epochs must be >= 0 and batch_size >= 1")
        if self.lr < 0:
            raise ModelError("learning rate must be non-negative")


@dataclass(frozen=True)
class EpochLoss:
    total: float
    detection: float
    generation: float
    category: float


@dataclass
class TrainResult:
    model: Model
    loss_log: list[EpochLoss]


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, grad in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            params[name] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def build_vocab(samples) -> Vocab:
    return Vocab.build((s.text for s in samples), (s.target for s in samples))


def _encode_sample(sample: LabeledSample, vocab: Vocab, max_len: int):
    ids = [CLS_ID] + vocab.encode(sample.text)
    if len(ids) > max_len:
        raise SequenceTooLong(
            f"training text of {len(ids)} tokens exceeds max_len {max_len}"
        )
    target = [vocab.id_of(tok) for tok in sample.target]
    cat = CATEGORIES.index(sample.category) if sample.category is not None else -1
    return ids, int(sample.label), cat, [BOS_ID] + target, target + [EOS_ID]


def make_batch(rows) -> Batch:
    """Pad encoded rows (ids, label, cat, gen_in, gen_out) into one Batch."""
    n = len(rows)
    length = max(len(r[0]) for r in rows)
    width = max((len(r[4]) for r in rows if r[1]), default=1)
    ids = np.full((n, length), PAD_ID, dtype=np.int64)
    mask = np.zeros((n, length), dtype=bool)
    labels = np.zeros(n, dtype=np.int64)
    cat_ids = np.full(n, -1, dtype=np.int64)
    gen_in = np.full((n, width), PAD_ID, dtype=np.int64)
    gen_out = np.full((n, width), PAD_ID, dtype=np.int64)
    gen_mask = np.zeros((n, width), dtype=bool)
    for row, (seq, label, cat, g_in, g_out) in enumerate(rows):
        ids[row, : len(seq)] = seq
        mask[row, : len(seq)] = True
        labels[row] = label
        cat_ids[row] = cat
        if label:
            gen_in[row, : len(g_in)] = g_in
            gen_out[row, : len(g_out)] = g_out
            gen_mask[row, : len(g_out)] = True
    return Batch(ids, mask, labels, cat_ids, gen_in, gen_out, gen_mask)


def train(
    samples,
    config: TrainConfig = TrainConfig(),
    model_config: ModelConfig = ModelConfig(),
) -> TrainResult:
    """Train on labeled samples over the vocabulary they build; both classes
    must be present."""
    samples = list(samples)
    if not samples:
        raise ModelError("training data is empty")
    weights = detection_weights([s.label for s in samples])
    vocab = build_vocab(samples)
    rows = [_encode_sample(s, vocab, model_config.max_len) for s in samples]

    model = Model.initialize(
        model_config, vocab, np.random.SeedSequence([config.rng_seed, 0])
    )
    model.params = {k: v.astype(np.float32) for k, v in model.params.items()}
    optimizer = Adam(model.params, config.lr)
    shuffle = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 1]))

    loss_log: list[EpochLoss] = []
    n = len(rows)
    for _ in range(config.epochs):
        order = shuffle.permutation(n)
        # group near-equal lengths to keep padding small, stable within buckets
        order = sorted(order, key=lambda i: len(rows[i][0]) // 8)
        batches = [
            order[start : start + config.batch_size]
            for start in range(0, n, config.batch_size)
        ]
        sums = {"total": 0.0, "detection": 0.0, "generation": 0.0, "category": 0.0}
        for b in shuffle.permutation(len(batches)):
            chosen = batches[b]
            batch = make_batch([rows[i] for i in chosen])
            losses, grads = model.loss_and_grads(batch, weights)
            if math.isnan(losses["total"]):
                raise DivergenceError("training loss is NaN")
            optimizer.step(model.params, grads)
            for key in sums:
                sums[key] += losses[key] * len(chosen)
        loss_log.append(EpochLoss(**{k: v / n for k, v in sums.items()}))
    model.params = {k: v.astype(np.float64) for k, v in model.params.items()}
    return TrainResult(model=model, loss_log=loss_log)

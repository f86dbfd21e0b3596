"""Training loop: batching, the optimizer, and per-epoch loss logging.

Training computes in float32: the parameters, Adam's moments and every
forward and backward tensor. The trained parameters are widened back to
float64, exactly, so the returned model is the one its checkpoint holds.

Each epoch sorts a fresh shuffle of the samples by exact token length and
cuts it into batches (`epoch_batches`), so the encoder pads only the few
batches that span two lengths. The network's elementwise kernels (GELU,
LayerNorm, softmax and the encoder's adds) work in place, in the order
their formulas state, so they allocate few temporaries and give the same
bits as the plain expressions.

A step makes few, large numpy calls: the encoder's weight products are
2-D GEMMs (`network._dot`), each embedding gradient is one flat scatter
(`network._scatter_rows`), and `Adam` updates one flat buffer that the
model's parameters are views of. Only the backward products, by
transposed weights, may round differently from the stacked products they
replaced; every forward pass and every Adam update keeps its bits.
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
    check_lengths,
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
# Adam.step updates at most this many elements per pass of its kernels
ADAM_CHUNK = 65536


class Adam:
    """Adam over every parameter at once.

    The parameters, both moments and the gradients live in flat buffers;
    the constructor copies the parameters in and makes each `params[name]`
    a view of its slot, so a model's `params` train in place. `step` runs

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    over ADAM_CHUNK elements at a time, in the operation order of that
    formula per tensor, so its results are bit for bit the per-tensor ones.
    """

    def __init__(self, params, lr):
        self.lr = float(lr)
        self.t = 0
        self.names = list(params)
        self.params = np.concatenate([params[name].reshape(-1) for name in self.names])
        self.grads = np.empty_like(self.params)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        scratch = min(self.params.size, ADAM_CHUNK)
        self._scratch = (np.empty(scratch, self.params.dtype), np.empty(scratch, self.params.dtype))
        start = 0
        for name in self.names:
            size = params[name].size
            params[name] = self.params[start : start + size].reshape(params[name].shape)
            start += size

    def step(self, grads):
        """One update from `grads`, which holds a gradient for every parameter."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        np.concatenate([grads[name].reshape(-1) for name in self.names], out=self.grads)
        for start in range(0, self.params.size, ADAM_CHUNK):
            chunk = slice(start, start + ADAM_CHUNK)
            p, g, m, v = self.params[chunk], self.grads[chunk], self.m[chunk], self.v[chunk]
            a, b = (s[: p.size] for s in self._scratch)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=b)
            b *= self.lr
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            a += EPS
            b /= a
            p -= b


def build_vocab(samples) -> Vocab:
    return Vocab.build((s.text for s in samples), (s.target for s in samples))


def _encode_sample(sample: LabeledSample, vocab: Vocab):
    ids = [CLS_ID] + vocab.encode(sample.text)
    target = [vocab.id_of(tok) for tok in sample.target]
    cat = CATEGORIES.index(sample.category) if sample.category is not None else -1
    return ids, int(sample.label), cat, [BOS_ID] + target, target + [EOS_ID]


def epoch_batches(lengths, batch_size: int, rng) -> list[list[int]]:
    """One epoch's batches of sample indices, in the order they train.

    A random permutation of the samples is sorted, stably, by exact
    sequence length and cut into batches of `batch_size`; the batches are
    then shuffled. A batch therefore holds one length unless it spans the
    boundary between two, so the encoder pads at most the (number of
    distinct lengths - 1) batches that do, and only to the next length.
    """
    order = sorted(rng.permutation(len(lengths)).tolist(), key=lengths.__getitem__)
    batches = [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    return [batches[b] for b in rng.permutation(len(batches))]


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
    rows = [_encode_sample(s, vocab) for s in samples]
    lengths = [len(row[0]) for row in rows]
    check_lengths(lengths, model_config.max_len)

    model = Model.initialize(
        model_config, vocab, np.random.SeedSequence([config.rng_seed, 0])
    ).cast(np.float32)
    optimizer = Adam(model.params, config.lr)
    shuffle = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 1]))

    loss_log: list[EpochLoss] = []
    n = len(rows)
    for _ in range(config.epochs):
        sums = {"total": 0.0, "detection": 0.0, "generation": 0.0, "category": 0.0}
        for chosen in epoch_batches(lengths, config.batch_size, shuffle):
            batch = make_batch([rows[i] for i in chosen])
            losses, grads = model.loss_and_grads(batch, weights)
            if math.isnan(losses["total"]):
                raise DivergenceError("training loss is NaN")
            optimizer.step(grads)
            for key in sums:
                sums[key] += losses[key] * len(chosen)
        loss_log.append(EpochLoss(**{k: v / n for k, v in sums.items()}))
    return TrainResult(model=model.cast(np.float64), loss_log=loss_log)

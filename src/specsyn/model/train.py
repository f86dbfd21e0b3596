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

Every step splits its batch into two fixed shards (`shards`): the first
ceil(n / 2) rows and the rest. Each shard's losses are divided by the
counts of the whole batch (`make_batch(rows, whole)`), so the two shards'
losses and gradients add up to the batch's, and Adam steps once on their
sum. A sum of two terms does not depend on their order, so the trained
bits do not depend on where the shards ran. `train` runs the second shard
on a forked worker (`workers.Helper`) while it runs the first, once there
are TRAIN_MIN_STEPS steps: Adam's parameters and the second shard's
gradients live in shared memory, only the batch's row indices go to the
worker and its four losses come back. Without the worker, on one CPU or
after it died, `train` runs the second shard itself.

Each step writes its gradients straight into gradient slots, and
allocates every other array afresh. So that the next step reuses that
memory rather than faulting new pages in, `train` first asks glibc's
allocator to keep what a process frees (`keep_freed_memory`).
"""

import ctypes
import functools
import math
import mmap
import struct
from dataclasses import dataclass, fields

import numpy as np

from ..synthdata import LabeledSample
from ..workers import Helper
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


# EpochLoss's fields, in the order a step's losses are kept and sent
LOSSES = tuple(f.name for f in fields(EpochLoss))
_FLOATS = f"<{len(LOSSES)}d"


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
# glibc's mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD
# (malloc.h), and the values `keep_freed_memory` gives them: blocks up to
# 32 MiB, the 64-bit maximum, come from the heap, which keeps up to 1 GiB
# of free memory at its top instead of handing it back to the kernel
KEEP_FREED = ((-3, 32 << 20), (-1, 1 << 30))
# `train` forks a worker for the second shard of each step from this many
# steps on: in 1-epoch trains with batch 32 and 2 blocks, at d_model 64
# and 16, the worker lost at 2 and 6 steps and won from 8 on
TRAIN_MIN_STEPS = 8


def _mallopt():
    """glibc's `mallopt(param, value)`, or None where the C library has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


@functools.cache
def keep_freed_memory() -> bool:
    """Make the C allocator keep the memory this process frees, so a training
    step reuses the pages of the steps before it instead of faulting new
    ones in; True if both settings (`KEEP_FREED`) took. It runs once per
    process, and the setting is process-wide and stays. Without `mallopt`,
    or where it refuses a value, memory is managed as before."""
    mallopt = _mallopt()
    return mallopt is not None and all([mallopt(*setting) for setting in KEEP_FREED])


class Adam:
    """Adam over every parameter at once.

    The parameters, both moments and the gradients live in flat buffers;
    the constructor copies the parameters in and makes each `params[name]`
    a view of its slot, so a model's `params` train in place. The
    parameters' buffer is shared memory (`shared_array`), so a worker
    forked afterwards reads them as they train. `step` runs

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    over ADAM_CHUNK elements at a time, in the operation order of that
    formula per tensor, so its results are bit for bit the per-tensor ones.
    """

    def __init__(self, params, lr):
        self.lr = float(lr)
        self.t = 0
        self.shapes = {name: tensor.shape for name, tensor in params.items()}
        flat = np.concatenate([params[name].reshape(-1) for name in params])
        self.params = shared_array(flat.size, flat.dtype)
        self.params[...] = flat
        self.grads = np.empty_like(self.params)
        self.slots = self.views(self.grads)  # name -> the parameter's view of self.grads
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        scratch = min(self.params.size, ADAM_CHUNK)
        self._scratch = (np.empty(scratch, self.params.dtype), np.empty(scratch, self.params.dtype))
        params.update(self.views(self.params))

    def views(self, flat):
        """name -> the view of a flat array shaped like `params` that holds
        the parameter's elements: `views(grads)` are the gradient slots."""
        views = {}
        start = 0
        for name, shape in self.shapes.items():
            stop = start + math.prod(shape)
            views[name] = flat[start:stop].reshape(shape)
            start = stop
        return views

    def step(self, grads):
        """One update from `grads`, which holds a gradient for every
        parameter; a gradient that is its parameter's slot already, as
        `Model.loss_and_grads(..., slots)` writes them, is not copied."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, slot in self.slots.items():
            if grads[name] is not slot:
                np.copyto(slot, grads[name])
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


def shared_array(size: int, dtype) -> np.ndarray:
    """A zeroed flat array in an anonymous shared mapping: a process forked
    after it is made reads and writes the same memory as its parent."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * dtype.itemsize), dtype, size)


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


def shards(chosen):
    """The two shards every training step splits its batch into: the first
    ceil(n / 2) rows and the rest, whatever the CPU count."""
    half = -(-len(chosen) // 2)
    return chosen[:half], chosen[half:]


def make_batch(rows, whole=None) -> Batch:
    """Pad encoded rows (ids, label, cat, gen_in, gen_out) into one Batch;
    with `whole`, the rows of the batch these are a shard of, whose counts
    divide the shard's losses (`Batch.divisors`)."""
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
    divisors = None if whole is None else (
        len(whole),
        sum(r[2] >= 0 for r in whole),
        sum(len(r[4]) for r in whole if r[1]),
    )
    return Batch(ids, mask, labels, cat_ids, gen_in, gen_out, gen_mask, divisors)


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
    # the second shard's gradients, written by the worker or by this process
    second = shared_array(optimizer.grads.size, optimizer.grads.dtype)
    second_slots = optimizer.views(second)
    keep_freed_memory()
    shuffle = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 1]))

    def shard_losses(chosen, k, slots):
        """Loss and gradients (to `slots`) of shard k of the batch `chosen`."""
        whole = [rows[i] for i in chosen]
        batch = make_batch(shards(whole)[k], whole)
        losses, _ = model.loss_and_grads(batch, weights, slots)
        return [losses[key] for key in LOSSES]

    def second_shard(request: bytes) -> bytes:
        """The worker's part of a step: for the batch's row indices (int64
        bytes), the second shard's gradients in `second` and its losses."""
        chosen = np.frombuffer(request, np.int64).tolist()
        return struct.pack(_FLOATS, *shard_losses(chosen, 1, second_slots))

    loss_log: list[EpochLoss] = []
    n = len(rows)
    steps = config.epochs * -(-n // config.batch_size)
    with Helper(second_shard, steps, TRAIN_MIN_STEPS) as helper:
        for _ in range(config.epochs):
            sums = [0.0] * len(LOSSES)
            for chosen in epoch_batches(lengths, config.batch_size, shuffle):
                split = len(chosen) > 1  # a one-row batch has no second shard
                if split:
                    helper.submit(np.array(chosen, np.int64).tobytes())
                losses = shard_losses(chosen, 0, optimizer.slots)
                if split:
                    more = struct.unpack(_FLOATS, helper.result())
                    losses = [a + b for a, b in zip(losses, more)]
                if math.isnan(losses[0]):
                    raise DivergenceError("training loss is NaN")
                if split:
                    optimizer.grads += second
                optimizer.step(optimizer.slots)
                sums = [total + loss * len(chosen) for total, loss in zip(sums, losses)]
            loss_log.append(EpochLoss(*(total / n for total in sums)))
    return TrainResult(model=model.cast(np.float64), loss_log=loss_log)

import math
import platform
import random
import resource

import numpy as np
import pytest

import encoder_oracle
from specsyn.corpus import ExtractionType
from specsyn.dsl import Category
from specsyn.model.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from specsyn.model.gradcheck import grad_check
from specsyn.model.network import (
    Batch,
    CATEGORIES,
    GENERATE_MAX_TOKENS,
    GENERATOR_HIDDEN,
    Model,
    ModelConfig,
    SequenceTooLong,
    _GELU_C,
    _LN_EPS,
    _dot,
    _gelu,
    _gelu_grad,
    _layer_norm,
    _layer_norm_grad,
    _scatter_rows,
    _sigmoid,
    _softmax,
    detection_weights,
    predicted_category,
    predicted_label,
    weighted_ce,
)
from specsyn.model.train import (
    ADAM_CHUNK, BETA1, BETA2, EPS, KEEP_FREED, Adam, TrainConfig, _encode_sample, build_vocab,
    epoch_batches, keep_freed_memory, make_batch, shards, train,
)
import specsyn.model.train as train_module
from specsyn.model.vocab import (
    BOS_ID,
    CLS_ID,
    EOS_ID,
    ModelError,
    PAD_ID,
    UNK_ID,
    Vocab,
    reserved_tokens,
    tokenize,
)
from specsyn.synthdata import LabeledSample, build_dataset, default_distractors, default_library
from specsyn.tagger import TAG_TOKEN_RE

SMALL = ModelConfig(d_model=16, blocks=1, heads=4, max_len=32)
TWO_BLOCKS = ModelConfig(d_model=16, blocks=2, heads=4, max_len=32)

TEXTS = [
    "set <keyword1> to <num1> <unit1> before restart .",
    "always keep <keyword1> equal to <bool1> and <keyword2> equal to <bool1> .",
    "see page <num1> for details of <keyword1> 5.1.2 .",
    "the manual describes <keyword1> in section <num1> .",
]
TARGETS = [
    ("<keyword1>", ">", "<num1>"),
    ("<keyword1>", "==", "<bool1>", "and", "<keyword2>", "==", "<bool1>"),
]


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build(TEXTS, TARGETS)


def encode_row(vocab, text, label, cat, target):
    ids = [CLS_ID] + vocab.encode(text)
    t = [vocab.id_of(tok) for tok in target]
    return (ids, label, cat, [BOS_ID] + t, t + [EOS_ID])


@pytest.fixture(scope="module")
def batch(vocab):
    rows = [
        encode_row(vocab, TEXTS[0], 1, 0, TARGETS[0]),
        encode_row(vocab, TEXTS[1], 1, 2, TARGETS[1]),
        encode_row(vocab, TEXTS[2], 0, -1, ()),
        encode_row(vocab, TEXTS[3], 0, -1, ()),
    ]
    return make_batch(rows)


@pytest.fixture(scope="module")
def weights():
    return detection_weights([1, 1, 0, 0])


@pytest.fixture(scope="module")
def model(vocab):
    return Model.initialize(SMALL, vocab, rng_seed=0)


class TestVocab:
    def test_reserved_ids(self):
        assert (PAD_ID, UNK_ID, CLS_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3, 4)
        table = reserved_tokens()
        assert len(table) == 45
        assert table[0] == "[PAD]"
        assert table[5] == "<keyword1>"
        assert table[44] == "<format8>"

    def test_build_is_sorted_and_deterministic(self):
        a = Vocab.build(["beta alpha", "gamma alpha"])
        b = Vocab.build(["gamma alpha", "beta alpha"])
        assert a.tokens == b.tokens
        learned = a.tokens[45:]
        assert learned == tuple(sorted(learned))
        assert set(learned) == {"alpha", "beta", "gamma"}

    def test_tokenize_splits_tags_from_punctuation(self):
        assert tokenize("set <keyword1>.") == ["set", "<keyword1>", "."]
        assert tokenize("(<num1>,<num2>)") == ["(", "<num1>", ",", "<num2>", ")"]

    def test_tokenize_equals_the_tag_substitution_it_replaced(self):
        def substituted(text):
            return TAG_TOKEN_RE.sub(r" \g<0> ", text).split()

        texts = []
        for seed in (42, 7):
            dataset = build_dataset(default_library(), default_distractors(), n_total=3250,
                                    rng_seed=seed, n_test=250)
            texts += [sample.text for sample in dataset.train + dataset.test]
        # glued and malformed tags, bare angle brackets, and non-ASCII
        # letters, digits and spaces
        pieces = ["<keyword1>", "<num2>", "<bool8>", "<unit12>", "<format01>", "<num\u0661>",
                  "<num>", "<NUM1>", "<num 1>", "<>", "<", ">", "<<", ">>", "num1", "x", "set",
                  ".", ",", "(", ")", "é", "ß", "中", "\u00a0", "\u2003", "\x1c", "\t", "\n",
                  " ", "  "]
        rng = random.Random(2201)
        texts += ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 20)))
                  for _ in range(5000)]
        assert sum("<" in text for text in texts) > 5000
        for text in texts:
            assert tokenize(text) == substituted(text), text

    def test_tag_beyond_slot_limit_is_unknown(self):
        v = Vocab.build(["use <num12> here"])
        assert "<num12>" not in v.tokens
        assert v.id_of("<num12>") == UNK_ID

    def test_unknown_token_maps_to_unk(self, vocab):
        assert vocab.id_of("zzz-not-seen") == UNK_ID

    def test_id_token_roundtrip(self, vocab):
        for token in vocab.tokens:
            assert vocab.tokens[vocab.id_of(token)] == token

    def test_targets_contribute_tokens(self):
        v = Vocab.build([], [("<keyword1>", ">", "<num1>")])
        assert ">" in v.tokens

    def test_constructor_rejects_wrong_reserved_prefix(self):
        with pytest.raises(ModelError):
            Vocab(("[PAD]", "[UNK]", "oops"))

    def test_constructor_rejects_duplicates(self):
        tokens = reserved_tokens() + ("dup", "dup")
        with pytest.raises(ModelError):
            Vocab(tokens)

    def test_duplicate_message_names_the_first_repeat(self):
        # "b" is the first token seen a second time, though "a" came first
        with pytest.raises(ModelError, match=r"^duplicate token 'b'$"):
            Vocab(reserved_tokens() + ("a", "b", "b", "a"))
        with pytest.raises(ModelError, match=r"^duplicate token '\[PAD\]'$"):
            Vocab(reserved_tokens() + ("[PAD]",))


class TestLosses:
    def test_uniform_binary_ce_is_ln2(self):
        loss = weighted_ce(np.array([0.5, 0.5]), 0, np.array([1.0, 1.0]))
        assert abs(loss - math.log(2)) < 1e-9

    def test_weighted_ce_scales_by_class_weight(self):
        loss = weighted_ce(np.array([0.5, 0.5]), 1, np.array([1.0, 3.0]))
        assert abs(loss - 3 * math.log(2)) < 1e-9

    def test_identity_weights_equal_plain_ce(self):
        rng = np.random.default_rng(7)
        ident = np.ones(2)
        for _ in range(1000):
            p = rng.dirichlet((1.0, 1.0))
            label = int(rng.integers(2))
            assert weighted_ce(p, label, ident) == -math.log(max(p[label], 1e-12))

    def test_zero_probability_is_clamped(self):
        loss = weighted_ce(np.array([0.0, 1.0]), 0, np.ones(2))
        assert math.isfinite(loss)
        assert loss == -math.log(1e-12)

    def test_detection_weights_balanced(self):
        assert detection_weights([0, 1, 0, 1]).tolist() == [1.0, 1.0]

    def test_detection_weights_inverse_frequency(self):
        w = detection_weights([1, 1, 1, 0])
        assert np.allclose(w, [2.0, 2.0 / 3.0])

    def test_detection_weights_need_both_classes(self):
        with pytest.raises(ModelError):
            detection_weights([1, 1, 1])


class TestHeads:
    def test_detect_probabilities_normalize(self, model):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(1000, SMALL.d_model))
        probs = model.detect(h)
        assert probs.shape == (1000, 2)
        assert np.all(probs > 0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_category_probabilities_normalize(self, model):
        rng = np.random.default_rng(4)
        probs = model.classify_category(rng.normal(size=(500, SMALL.d_model)))
        assert probs.shape == (500, 5)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_zeroed_output_layer_gives_uniform(self, vocab):
        m = Model.initialize(SMALL, vocab, rng_seed=1)
        m.params["detect/w3"][:] = 0.0
        m.params["detect/b3"][:] = 0.0
        m.params["category/w3"][:] = 0.0
        m.params["category/b3"][:] = 0.0
        h = np.ones(SMALL.d_model)
        assert m.detect(h).tolist() == [0.5, 0.5]
        assert m.classify_category(h).tolist() == [0.2] * 5

    def test_predicted_label_tie_is_negative(self):
        assert predicted_label(np.array([0.5, 0.5])) is False
        assert predicted_label(np.array([0.4, 0.6])) is True

    def test_predicted_category_argmax(self):
        probs = np.array([0.1, 0.1, 0.6, 0.1, 0.1])
        assert predicted_category(probs) == CATEGORIES[2]


class TestEncoder:
    def test_encode_shape_and_finite(self, model):
        h = model.encode_text(TEXTS[0])
        assert h.shape == (SMALL.d_model,)
        assert np.all(np.isfinite(h))

    def test_encode_rejects_long_sequences(self, model):
        # [CLS] and max_len tokens
        with pytest.raises(SequenceTooLong):
            model.encode_text(" ".join(["<keyword1>"] * SMALL.max_len))

    def test_encode_finite_on_random_sequences(self, model, vocab):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, SMALL.max_len))
            ids = rng.integers(0, len(vocab), size=n).tolist()
            text = " ".join(vocab.tokens[i] for i in ids)
            assert vocab.encode(text) == ids
            h = model.encode_text(text)
            assert np.all(np.isfinite(h))

    def test_pad_content_never_changes_outputs(self, model, batch, weights):
        assert_pad_blind(model, batch, weights)

    def test_pad_content_never_changes_outputs_two_blocks(self, vocab, batch, weights):
        model = Model.initialize(TWO_BLOCKS, vocab, rng_seed=0)
        assert_pad_blind(model, batch, weights)


def assert_pad_blind(model, batch, weights):
    losses, grads = model.loss_and_grads(batch, weights)
    alt_ids = batch.ids.copy()
    alt_ids[~batch.mask] = 7  # arbitrary real token in the pad slots
    alt = Batch(
        alt_ids, batch.mask, batch.labels, batch.cat_ids,
        batch.gen_in, batch.gen_out, batch.gen_mask,
    )
    alt_losses, alt_grads = model.loss_and_grads(alt, weights)
    assert losses == alt_losses
    for name, g in grads.items():
        assert np.array_equal(g, alt_grads[name])


def relative_error(new, old) -> float:
    """max |new - old| over max |old|: 0 when both are all zeros."""
    scale = np.abs(old).max()
    diff = np.abs(new - old).max()
    return diff / scale if scale else diff


class TestEncoderOracle:
    """The encoder matches the full-width one kept in tests/encoder_oracle.py."""

    def test_random_batches(self, vocab):
        rng = np.random.default_rng(1109)
        for trial in range(150):
            config = ModelConfig(
                d_model=int(rng.choice([8, 16])),
                blocks=int(rng.integers(1, 4)),
                heads=int(rng.choice([1, 2, 4])),
                max_len=12,
            )
            model = Model.initialize(config, vocab, rng_seed=trial)
            b = int(rng.integers(1, 9))
            length = 1 if trial % 10 == 0 else int(rng.integers(2, 13))
            mask = np.arange(length) < rng.integers(1, length + 1, size=(b, 1))
            ids = rng.integers(0, len(vocab), size=(b, length))
            ids[:, 0] = CLS_ID
            ids[~mask] = PAD_ID
            context = f"trial {trial}: {config}, B={b}, L={length}"

            h_c, cache = model._encode_batch(ids, mask)
            want, want_cache = encoder_oracle.encode_batch(model, ids, mask)
            assert relative_error(h_c, want) < 1e-12, context
            # blocks before the last keep the full-width arithmetic bit for bit
            for new, old in zip(cache[3][:-1], want_cache[3][:-1]):
                for x, y in zip(new[1:7], old[:6]):
                    assert np.array_equal(x, y), context

            dh_c = rng.normal(size=h_c.shape)
            grads, want_grads = {}, {}
            model._encode_backward(dh_c, cache, grads)
            encoder_oracle.encode_backward(model, dh_c, want_cache, want_grads)
            assert grads.keys() == want_grads.keys()
            for name, g in want_grads.items():
                assert relative_error(grads[name], g) < 1e-10, f"{context}, {name}"


# The out-of-place kernels that the in-place ones in specsyn.model.network
# replaced, kept as the reference they must equal bit for bit.


def reference_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_gelu(x):
    x2 = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * x2 * x))
    return 0.5 * x * (1.0 + t), t


def reference_gelu_grad(x, t):
    u = 1.0 - t * t
    u *= _GELU_C * (0.5 * x + 0.0670725 * x * x * x)
    u += 0.5 * (1.0 + t)
    return u


def reference_layer_norm(x, scale, shift):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    return xhat * scale + shift, (xhat, inv)


def reference_layer_norm_grad(dy, cache, scale, grads, prefix):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    grads[prefix + "/scale"] = (dy * xhat).sum(axis=axes)
    grads[prefix + "/shift"] = dy.sum(axis=axes)
    dxhat = dy * scale
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - mean1 - xhat * mean2)


def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def unchanged_call(kernel, *args):
    """kernel(*args), after checking that it leaves every array argument as it was."""
    before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    out = kernel(*args)
    for a, b in zip(args, before):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
    return out


# the protocol's batch shapes: B=32, L=37, d=64, 4 heads, FFN width 256; the
# last block and the final LayerNorm see only the [CLS] row
KERNEL_ROWS = [37, 1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", KERNEL_ROWS)
class TestKernels:
    """Each in-place kernel equals its out-of-place formula exactly."""

    def test_softmax(self, dtype, rows):
        rng = np.random.default_rng(rows)
        scores = (3.0 * rng.normal(size=(32, 4, rows, 37))).astype(dtype)
        scores[:, :, :, 30:] = -np.inf  # masked keys
        assert_same(unchanged_call(_softmax, scores), reference_softmax(scores))
        logits = rng.normal(size=(32, 5)).astype(dtype)
        assert_same(unchanged_call(_softmax, logits), reference_softmax(logits))

    def test_sigmoid(self, dtype, rows):
        rng = np.random.default_rng(30 + rows)
        gates = (4.0 * rng.normal(size=(rows, 80))).astype(dtype)
        gates[0, :12] = (0.0, -0.0, 100.0, -100.0, 1e-30, -1e-30, 1000.0, -1000.0,
                         np.inf, -np.inf, 20.0, -20.0)
        for x in (gates[:, :20], gates[:, 20:40], gates):  # LSTM gate slices are views
            got, want = unchanged_call(_sigmoid, x), reference_sigmoid(x)
            assert_same(got, want)
            assert got.tobytes() == want.tobytes()  # the signs of zeros too

    def test_gelu_and_its_gradient(self, dtype, rows):
        rng = np.random.default_rng(10 + rows)
        x = (2.0 * rng.normal(size=(32, rows, 256))).astype(dtype)
        y, t = unchanged_call(_gelu, x)
        assert_same((y, t), reference_gelu(x))
        assert_same(unchanged_call(_gelu_grad, x, t), reference_gelu_grad(x, t))

    def test_layer_norm_and_its_gradient(self, dtype, rows):
        rng = np.random.default_rng(20 + rows)
        x = (1.0 + 2.0 * rng.normal(size=(32, rows, 64))).astype(dtype)
        scale = rng.normal(1.0, 0.2, size=64).astype(dtype)
        shift = rng.normal(0.0, 0.2, size=64).astype(dtype)
        y, cache = unchanged_call(_layer_norm, x, scale, shift)
        want_y, want_cache = reference_layer_norm(x, scale, shift)
        assert_same((y, cache), (want_y, want_cache))

        dy = rng.normal(size=x.shape).astype(dtype)
        grads, want_grads = {}, {}
        dx = unchanged_call(_layer_norm_grad, dy, cache, scale, grads, "ln")
        want_dx = reference_layer_norm_grad(dy, want_cache, scale, want_grads, "ln")
        assert_same(dx, want_dx)
        assert grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert_same(grads[name], g)


# the protocol's weight shapes (n, m) of x @ w: attention, FFN in and out
DOT_SHAPES = [(64, 64), (64, 256), (256, 64)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestDot:
    """`_dot` equals the stacked product wherever inference uses it."""

    @pytest.mark.parametrize("n,m", DOT_SHAPES)
    def test_two_rows_or_more_equal_the_stacked_product(self, dtype, n, m):
        rng = np.random.default_rng(n + m)
        w = rng.normal(size=(n, m)).astype(dtype)
        for b in range(1, 33):
            x = rng.normal(size=(b, 37, n)).astype(dtype)
            for length in range(2, 38):
                part = np.ascontiguousarray(x[:, :length])
                assert_same(_dot(part, w), part @ w)

    @pytest.mark.parametrize("n,m", DOT_SHAPES)
    def test_one_row_takes_the_stacked_product(self, dtype, n, m):
        rng = np.random.default_rng(10 + n + m)
        w = rng.normal(size=(n, m)).astype(dtype)
        for b in range(1, 33):
            x = rng.normal(size=(b, 5, n)).astype(dtype)
            cls_row = x[:, :1]  # the view the last block multiplies
            assert_same(_dot(cls_row, w), cls_row @ w)

    def test_transposed_weights(self, dtype):
        """Backward products multiply by w.T; the 2-D GEMM may round them
        differently from the stacked loop, within a few ulps."""
        rng = np.random.default_rng(7)
        w = rng.normal(size=(64, 256)).astype(dtype)
        dy = rng.normal(size=(32, 22, 256)).astype(dtype)
        got = _dot(dy, w.T)
        assert got.shape == (32, 22, 64) and got.dtype == dtype
        np.testing.assert_allclose(got, dy @ w.T, rtol=1e-4 if dtype == np.float32 else 1e-12,
                                   atol=1e-4 if dtype == np.float32 else 1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestScatterRows:
    """`_scatter_rows` adds exactly as np.add.at(table, ids, rows) does."""

    def check(self, dtype, ids, d, seed):
        rng = np.random.default_rng(seed)
        table = rng.normal(size=(40, d)).astype(dtype)
        rows = rng.normal(size=ids.shape + (d,)).astype(dtype)
        want = table.copy()
        np.add.at(want, ids.reshape(-1), rows.reshape(-1, d))
        got = table.copy()
        _scatter_rows(got, ids, rows)
        assert_same(got, want)

    def test_encoder_rows(self, dtype):
        rng = np.random.default_rng(0)
        for trial in range(20):
            b, length = int(rng.integers(1, 33)), int(rng.integers(1, 38))
            # few distinct ids, unsorted, so most repeat many times
            ids = rng.integers(0, 40 if trial % 2 else 4, size=(b, length))
            self.check(dtype, ids, 64, trial)

    def test_generator_step_rows(self, dtype):
        rng = np.random.default_rng(1)
        for trial in range(20):
            b, steps = int(rng.integers(1, 33)), int(rng.integers(1, 11))
            ids = rng.integers(0, 6, size=(b, steps))
            self.check(dtype, ids[:, 0], 64, trial)  # one step's rows
            self.check(dtype, ids[:, ::-1].T, 64, trial)  # every step, last first

    def test_sums_in_add_at_order(self, dtype):
        """Repeated ids add in order: 1 + 1e8 - 1e8 and 1 - 1e8 + 1e8 differ."""
        ids = np.array([3, 0, 3, 3])
        rows = np.array([[1.0], [5.0], [1e8], [-1e8]], dtype=dtype)
        for order in ([0, 1, 2, 3], [2, 1, 3, 0]):
            want = np.zeros((4, 1), dtype=dtype)
            np.add.at(want, ids[order], rows[order])
            got = np.zeros((4, 1), dtype=dtype)
            _scatter_rows(got, ids[order], rows[order])
            assert_same(got, want)


def reference_adam_step(params, grads, m, v, t, lr):
    """The per-tensor Adam update the flat one replaced."""
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, grad in grads.items():
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * grad
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * grad * grad
        params[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + EPS)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestAdam:
    SHAPES = {"big": (600, 250), "vector": (7,), "zero": (5, 3), "table": (513, 64)}

    def test_flat_update_equals_the_per_tensor_formula(self, dtype):
        rng = np.random.default_rng(3)
        params = {k: rng.normal(size=s).astype(dtype) for k, s in self.SHAPES.items()}
        assert sum(p.size for p in params.values()) > 2 * ADAM_CHUNK  # chunks split tensors
        want = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        optimizer = Adam(params, 1e-3)
        for t, lr in enumerate((1e-3, 0.0, 3e-2, 1e-3, 1e-3), start=1):
            grads = {k: (rng.normal(size=s) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
                     for k, s in self.SHAPES.items()}
            grads["zero"][...] = 0.0
            optimizer.lr = lr
            before = {k: p.copy() for k, p in params.items()}
            optimizer.step(grads)
            reference_adam_step(want, grads, m, v, t, lr)
            for name in params:
                assert_same(params[name], want[name])
            if lr == 0.0:
                for name in params:
                    assert_same(params[name], before[name])

    def test_gradients_written_to_the_buffer_equal_the_per_tensor_formula(self, dtype):
        rng = np.random.default_rng(5)
        params = {k: rng.normal(size=s).astype(dtype) for k, s in self.SHAPES.items()}
        want = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        optimizer = Adam(params, 1e-3)
        for t in range(1, 4):
            grads = {k: rng.normal(size=s).astype(dtype) for k, s in self.SHAPES.items()}
            for name, grad in grads.items():
                optimizer.slots[name][...] = grad
            assert all(slot.base is optimizer.grads for slot in optimizer.slots.values())
            optimizer.step(optimizer.slots)
            reference_adam_step(want, grads, m, v, t, 1e-3)
            for name in params:
                assert_same(params[name], want[name])

    def test_a_parameter_without_a_gradient_gets_zeros(self, dtype, vocab, weights):
        """Steps that write gradients to Adam's slots: a head that gets no
        gradient in a step is zero there, not the previous step's values."""
        full = make_batch([
            encode_row(vocab, TEXTS[0], 1, 0, TARGETS[0]),
            encode_row(vocab, TEXTS[1], 1, 2, TARGETS[1]),
            encode_row(vocab, TEXTS[2], 0, -1, ()),
        ])
        no_category = make_batch([
            encode_row(vocab, TEXTS[1], 1, -1, TARGETS[1]),
            encode_row(vocab, TEXTS[3], 0, -1, ()),
        ])
        no_positives = make_batch([
            encode_row(vocab, TEXTS[2], 0, -1, ()),
            encode_row(vocab, TEXTS[3], 0, -1, ()),
        ])
        model = Model.initialize(SMALL, vocab, rng_seed=3).cast(dtype)
        optimizer = Adam(model.params, 1e-3)
        want = {k: p.copy() for k, p in model.params.items()}
        m = {k: np.zeros_like(p) for k, p in want.items()}
        v = {k: np.zeros_like(p) for k, p in want.items()}
        steps = [(full, ()), (no_category, ("category/",)), (full, ()),
                 (no_positives, ("category/", "generator/"))]
        for t, (batch, idle) in enumerate(steps, start=1):
            plain = Model(SMALL, vocab, {k: p.copy() for k, p in want.items()})
            want_losses, want_grads = plain.loss_and_grads(batch, weights)
            losses, grads = model.loss_and_grads(batch, weights, slots=optimizer.slots)
            assert losses == want_losses
            assert grads.keys() == want_grads.keys() == model.params.keys()
            for name, grad in grads.items():
                assert grad is optimizer.slots[name], name
                assert_same(grad, want_grads[name])
                if name.startswith(idle):
                    assert not grad.any(), name
            optimizer.step(grads)
            reference_adam_step(want, want_grads, m, v, t, 1e-3)
            for name in want:
                assert_same(model.params[name], want[name])

    def test_params_become_views_of_one_buffer(self, dtype, vocab):
        model = Model.initialize(SMALL, vocab, rng_seed=0).cast(dtype)
        values = {k: p.copy() for k, p in model.params.items()}
        optimizer = Adam(model.params, 1e-3)
        assert optimizer.params.dtype == dtype
        assert optimizer.params.size == sum(p.size for p in values.values())
        for name, tensor in model.params.items():
            assert tensor.base is optimizer.params, name
            assert_same(tensor, values[name])
        optimizer.params[...] = 0.0
        assert all(not p.any() for p in model.params.values())


class TestGenerate:
    def test_greedy_is_deterministic(self, model):
        h = model.encode_text(TEXTS[0])
        tags = {"keyword1": "a", "num1": "1", "unit1": "mb"}
        first = model.generate(h, tags)
        second = model.generate(h, tags)
        assert first.tokens == second.tokens
        assert first.truncated == second.truncated

    def test_absent_tags_are_never_emitted(self, vocab):
        m = Model.initialize(SMALL, vocab, rng_seed=2)
        m.params["generator/out_b"][vocab.id_of("<bool1>")] = 50.0
        h = np.zeros(SMALL.d_model)
        result = m.generate(h, {"keyword1": "a", "num1": "1"})
        assert "<bool1>" not in result.tokens

    def test_truncation_flag(self, vocab):
        m = Model.initialize(SMALL, vocab, rng_seed=2)
        m.params["generator/out_b"][:] = 0.0
        m.params["generator/out_w"][:] = 0.0
        m.params["generator/out_b"][vocab.id_of("and")] = 50.0
        h = np.zeros(SMALL.d_model)
        result = m.generate(h, {"keyword1": "a"})
        assert result.truncated
        assert list(result.tokens) == ["and"] * GENERATE_MAX_TOKENS

    def test_immediate_eos_is_not_truncated(self, vocab):
        m = Model.initialize(SMALL, vocab, rng_seed=2)
        m.params["generator/out_b"][:] = 0.0
        m.params["generator/out_w"][:] = 0.0
        m.params["generator/out_b"][EOS_ID] = 50.0
        result = m.generate(np.zeros(SMALL.d_model), {"keyword1": "a"})
        assert list(result.tokens) == []
        assert not result.truncated

    def test_control_tokens_never_appear(self, model):
        h = model.encode_text(TEXTS[1])
        result = model.generate(h, {"keyword1": "a", "keyword2": "b", "bool1": "on"})
        banned = {"[PAD]", "[UNK]", "[CLS]", "[BOS]", "[EOS]"}
        assert banned.isdisjoint(result.tokens)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_step_equals_the_per_gate_formula(model, dtype):
    m = model.cast(dtype)
    p, g = m.params, GENERATOR_HIDDEN
    rng = np.random.default_rng(51)
    for rows in (1, 10, 64):
        x = (3.0 * rng.normal(size=(rows, SMALL.d_model))).astype(dtype)
        h = np.tanh(rng.normal(size=(rows, g))).astype(dtype)
        c = (2.0 * rng.normal(size=(rows, g))).astype(dtype)
        gates = x @ p["generator/wx"] + h @ p["generator/wh"] + p["generator/b"]
        i = _sigmoid(gates[:, :g])
        f = _sigmoid(gates[:, g:2 * g])
        z = np.tanh(gates[:, 2 * g:3 * g])
        o = _sigmoid(gates[:, 3 * g:])
        c_new = f * c + i * z
        tc = np.tanh(c_new)
        want = (o * tc, c_new, (i, f, z, o, tc))
        got = m._lstm_step(x, h, c)
        assert_same(got, want)
        for a, b in zip((got[0], got[1], *got[2]), (want[0], want[1], *want[2])):
            assert a.tobytes() == b.tobytes()


class TestBatching:
    def test_make_batch_padding(self, vocab):
        rows = [
            encode_row(vocab, TEXTS[0], 1, 0, TARGETS[0]),
            encode_row(vocab, TEXTS[2], 0, -1, ()),
        ]
        b = make_batch(rows)
        assert b.size == 2
        assert b.ids.shape == b.mask.shape
        assert b.mask[0].sum() == len(rows[0][0])
        assert np.all(b.ids[~b.mask] == PAD_ID)
        assert b.labels.tolist() == [1, 0]
        assert b.cat_ids.tolist() == [0, -1]
        # generator width covers the positive row's target plus EOS
        assert b.gen_out.shape[1] == len(TARGETS[0]) + 1
        assert not b.gen_mask[1].any()

    def test_make_batch_without_positives(self, vocab):
        rows = [encode_row(vocab, TEXTS[2], 0, -1, ())]
        b = make_batch(rows)
        assert b.gen_in.shape == (1, 1)
        assert not b.gen_mask.any()

    @pytest.mark.parametrize("n,batch_size", [(100, 8), (96, 32), (7, 32), (1, 1)])
    def test_epoch_batches(self, n, batch_size):
        lengths = np.random.default_rng(n).integers(10, 15, size=n).tolist()
        epochs = []
        for _ in range(2):
            rng = np.random.default_rng([n, batch_size])
            epochs.append([epoch_batches(lengths, batch_size, rng) for _ in range(3)])
        assert epochs[0] == epochs[1]  # a seed always gives the same batches
        assert epochs[0][0] != epochs[0][1] or n <= batch_size  # epochs differ
        for batches in epochs[0]:
            assert sorted(i for b in batches for i in b) == list(range(n))
            assert len(batches) == math.ceil(n / batch_size)
            assert sorted(map(len, batches))[1:] == [batch_size] * (len(batches) - 1)
            mixed = sum(len({lengths[i] for i in b}) > 1 for b in batches)
            assert mixed <= len(set(lengths)) - 1

    def test_config_validation(self):
        with pytest.raises(ModelError):
            ModelConfig(d_model=15, heads=4)
        with pytest.raises(ModelError):
            ModelConfig(d_model=0)
        with pytest.raises(ModelError):
            TrainConfig(batch_size=0)


def toy_samples():
    """Tiny linearly separable detection corpus with per-type targets."""
    samples = []
    for i in range(8):
        kw = "<keyword1>"
        samples.append(LabeledSample(
            text=f"set {kw} to more than <num1> units .",
            tags={kw: f"opt{i}", "<num1>": str(100 + i)},
            label=True,
            target=(kw, ">=", "<num1>"),
            category=Category.QUANTITATIVE,
            type=ExtractionType.SIMPLE,
        ))
    for i in range(8):
        samples.append(LabeledSample(
            text="see page <num1> for details of <keyword1> .",
            tags={"keyword1": f"opt{i}", "num1": str(i)},
            label=False,
            target=(),
            category=None,
            type=ExtractionType.SIMPLE,
        ))
    return samples


class TestTraining:
    def test_zero_learning_rate_leaves_params_unchanged(self, vocab):
        samples = toy_samples()
        result = train(
            samples,
            TrainConfig(epochs=3, lr=0.0, rng_seed=5),
            SMALL,
        )
        fresh = Model.initialize(
            SMALL, build_vocab(samples), np.random.SeedSequence([5, 0])
        )
        # training starts from the float32 rounding of the same draws
        for name, tensor in fresh.params.items():
            assert np.array_equal(result.model.params[name], tensor.astype(np.float32))

    def test_toy_corpus_reaches_full_training_accuracy(self):
        samples = toy_samples()
        result = train(samples, TrainConfig(epochs=60, rng_seed=1), SMALL)
        m = result.model
        hits = 0
        for s in samples:
            h = m.encode_text(s.text)
            hits += predicted_label(m.detect(h)) == s.label
        assert hits == len(samples)
        assert result.loss_log[-1].total < result.loss_log[0].total

    def test_loss_log_has_one_entry_per_epoch(self):
        result = train(toy_samples(), TrainConfig(epochs=4, rng_seed=2), SMALL)
        assert len(result.loss_log) == 4
        for entry in result.loss_log:
            assert math.isfinite(entry.total)

    def test_training_is_deterministic(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            result = train(toy_samples(), TrainConfig(epochs=3, rng_seed=9), SMALL)
            out = tmp_path / f"{run}.spsy"
            save_checkpoint(result.model, out)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_returned_model_is_the_one_its_checkpoint_holds(self, tmp_path):
        """Training runs in float32 and returns float64 parameters that a
        checkpoint round trip keeps bit for bit, so in-process and
        file-based inference agree."""
        result = train(toy_samples(), TrainConfig(epochs=3, rng_seed=9), SMALL)
        path = tmp_path / "m.spsy"
        save_checkpoint(result.model, path)
        loaded = load_checkpoint(path)
        for name, tensor in result.model.params.items():
            assert tensor.dtype == np.float64, name
            assert np.array_equal(tensor.astype(np.float32), tensor), name
            assert np.array_equal(loaded.params[name], tensor), name
        text = toy_samples()[0].text
        assert np.array_equal(loaded.encode_text(text), result.model.encode_text(text))

    def test_nan_loss_raises_divergence(self, monkeypatch):
        from specsyn.model.network import DivergenceError

        def poisoned(self, batch, weights, slots=None):
            losses = {
                "total": float("nan"), "detection": 0.0,
                "generation": 0.0, "category": 0.0,
            }
            return losses, {k: np.zeros_like(v) for k, v in self.params.items()}

        monkeypatch.setattr(Model, "loss_and_grads", poisoned)
        with pytest.raises(DivergenceError):
            train(toy_samples(), TrainConfig(epochs=1), SMALL)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ModelError):
            train([], TrainConfig(epochs=1), SMALL)


def random_batch(rng, vocab_size, b, length):
    """b rows padded to `length` tokens: the first row is that long, the
    others 1 to `length` tokens; positives carry a random category (or
    none) and a random target of 1-4 tokens."""
    low = len(reserved_tokens())
    rows = []
    for row in range(b):
        n = length if row == 0 else int(rng.integers(1, length + 1))
        ids = [CLS_ID] + rng.integers(low, vocab_size, size=n - 1).tolist()
        label = int(rng.integers(0, 2))
        cat = int(rng.integers(-1, len(CATEGORIES))) if label else -1
        target = rng.integers(low, vocab_size, size=int(rng.integers(1, 5))).tolist() if label else []
        rows.append((ids, label, cat, [BOS_ID] + target, target + [EOS_ID]))
    return make_batch(rows)


def small_corpus(n=200, seed=3):
    return build_dataset(default_library(), default_distractors(), n_total=n, rng_seed=seed).train


# batch lengths that rise and fall, with a one-token batch ([CLS] alone)
SLOT_LENGTHS = (5, 9, 1, 12, 3, 12, 7, 2)


@pytest.fixture
def fresh_keep_freed_memory():
    """After the test, `keep_freed_memory` runs again on its next call."""
    yield
    keep_freed_memory.cache_clear()


def train_minor_faults(samples):
    """Minor page faults of one `train` call on `samples`, at protocol widths."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(samples, TrainConfig(epochs=2, batch_size=32, rng_seed=6),
          ModelConfig(d_model=64, blocks=2, heads=4, max_len=64))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


class TestGradientSlots:
    """Gradients written to Adam's slots, and the allocator setting `train`
    makes, change where a step's arrays live, not a bit of what it computes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batches_through_slots_equal_steps_without_them(self, vocab, dtype):
        rng = np.random.default_rng(2511)
        weights = np.array([1.0, 2.5])
        sizes = set()
        for trial in range(9):
            config = ModelConfig(d_model=8, blocks=trial % 3 + 1, heads=(1, 2, 4)[trial // 3], max_len=12)
            model = Model.initialize(config, vocab, rng_seed=trial).cast(dtype)
            plain = Model(config, vocab, {k: p.copy() for k, p in model.params.items()})
            slots = Adam(model.params, 0.0).slots
            for length in SLOT_LENGTHS:
                b = int(rng.integers(1, 10))
                sizes.add(b)
                batch = random_batch(rng, len(vocab), b, length)
                context = f"trial {trial}: {config}, B={b}, L={length}"
                want_losses, want_grads = plain.loss_and_grads(batch, weights)
                losses, grads = model.loss_and_grads(batch, weights, slots=slots)
                assert losses == want_losses, context
                assert grads.keys() == want_grads.keys(), context
                for name, grad in grads.items():
                    assert grad is slots[name], f"{context}, {name}"
                    assert grad.dtype == dtype, f"{context}, {name}"
                    assert np.array_equal(grad, want_grads[name]), f"{context}, {name}"
        assert {1, 9} <= sizes

    def test_train_equals_steps_without_slots(self):
        samples = small_corpus()
        config = TrainConfig(epochs=2, batch_size=16, rng_seed=4)
        model_config = ModelConfig(d_model=16, blocks=2, heads=4, max_len=64)
        result = train(samples, config, model_config)

        # train's loop, by hand, with every gradient allocated
        weights = detection_weights([s.label for s in samples])
        vocab = build_vocab(samples)
        rows = [_encode_sample(s, vocab) for s in samples]
        lengths = [len(row[0]) for row in rows]
        assert len(set(lengths)) > 5
        model = Model.initialize(
            model_config, vocab, np.random.SeedSequence([config.rng_seed, 0])).cast(np.float32)
        optimizer = Adam(model.params, config.lr)
        shuffle = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 1]))
        for epoch in range(config.epochs):
            total = 0.0
            for chosen in epoch_batches(lengths, config.batch_size, shuffle):
                # two shards, rows [:ceil(n/2)] and the rest, summed
                whole = [rows[i] for i in chosen]
                half = -(-len(whole) // 2)
                losses, grads = model.loss_and_grads(make_batch(whole[:half], whole), weights)
                if whole[half:]:
                    more, grads_2 = model.loss_and_grads(make_batch(whole[half:], whole), weights)
                    losses = {key: losses[key] + more[key] for key in losses}
                    grads = {name: grads[name] + grads_2[name] for name in grads}
                optimizer.step(grads)
                total += losses["total"] * len(chosen)
            assert result.loss_log[epoch].total == total / len(rows)
        for name, tensor in model.params.items():
            assert np.array_equal(result.model.params[name], tensor), name

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_repeated_train_takes_few_minor_faults(self):
        """A second `train` call reuses the memory the first one freed. With
        the allocator's defaults, without `keep_freed_memory`, such a call
        took 14k-17k minor faults, alone and after the rest of the suite;
        with the setting, 0-700."""
        samples = small_corpus()
        train_minor_faults(samples)
        faults = train_minor_faults(samples)
        assert keep_freed_memory()
        assert faults < 5000

    @pytest.mark.parametrize("refusal", ["missing", "returns 0"])
    def test_train_without_the_setting_gives_the_same_bits(
            self, monkeypatch, fresh_keep_freed_memory, refusal):
        samples = small_corpus()
        config = TrainConfig(epochs=2, batch_size=16, rng_seed=4)
        model_config = ModelConfig(d_model=16, blocks=2, heads=4, max_len=64)
        want = train(samples, config, model_config)

        calls = []
        refused = None if refusal == "missing" else lambda *setting: calls.append(setting) or 0
        monkeypatch.setattr(train_module, "_mallopt", lambda: refused)
        keep_freed_memory.cache_clear()
        got = train(samples, config, model_config)
        tried = [] if refused is None else list(KEEP_FREED)
        assert calls == tried  # train tried both settings
        assert keep_freed_memory() is False
        assert calls == tried  # once per process
        assert got.loss_log == want.loss_log
        for name, tensor in want.model.params.items():
            assert np.array_equal(got.model.params[name], tensor), name


class TestShards:
    """The two shards of a batch, each divided by the whole batch's counts,
    add up to the batch: losses and every gradient, in float64."""

    # (text, label, category) of each row, and what the second shard holds
    @pytest.mark.parametrize("case, second_is", [
        pytest.param([(0, 1, 0), (1, 1, 2), (2, 0, -1), (3, 0, -1), (0, 1, 1)],
                     lambda second: len(second) == 2, id="odd"),
        pytest.param([(0, 1, 0), (1, 1, 2), (2, 0, -1), (3, 0, -1)],
                     lambda second: not any(row[1] for row in second), id="no-positives"),
        pytest.param([(0, 1, 0), (1, 0, -1), (1, 1, -1), (3, 0, -1)],
                     lambda second: all(row[2] < 0 for row in second), id="no-categories"),
        pytest.param([(1, 1, 2)], lambda second: second == [], id="one-row"),
    ])
    def test_shards_add_up_to_the_batch(self, vocab, case, second_is):
        whole = [encode_row(vocab, TEXTS[t], label, cat, TARGETS[t % 2] if label else ())
                 for t, label, cat in case]
        first, second = shards(whole)
        assert first + second == whole and len(first) == -(-len(whole) // 2)
        assert second_is(second)
        model = Model.initialize(TWO_BLOCKS, vocab, rng_seed=7)
        weights = detection_weights([1, 0])
        want_losses, want_grads = model.loss_and_grads(make_batch(whole), weights)
        losses = dict.fromkeys(want_losses, 0.0)
        grads = {name: np.zeros_like(p) for name, p in model.params.items()}
        for shard in (first, second):
            if shard:
                shard_losses, shard_grads = model.loss_and_grads(make_batch(shard, whole), weights)
                for key in losses:
                    losses[key] += shard_losses[key]
                for name in grads:
                    grads[name] += shard_grads[name]
        for key, want in want_losses.items():
            assert losses[key] == pytest.approx(want, rel=1e-12, abs=1e-15), key
        for name, want in want_grads.items():
            scale = float(np.abs(want).max())
            np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-12 * scale,
                                       err_msg=name)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, model, vocab, tmp_path):
        path = tmp_path / "m.spsy"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.vocab.tokens == vocab.tokens
        for name, tensor in model.params.items():
            assert np.array_equal(loaded.params[name], tensor)
        text = TEXTS[1]
        assert np.array_equal(loaded.encode_text(text), model.encode_text(text))

    def test_save_is_byte_stable(self, model, tmp_path):
        a, b = tmp_path / "a.spsy", tmp_path / "b.spsy"
        save_checkpoint(model, a)
        save_checkpoint(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, model, tmp_path):
        path = tmp_path / "m.spsy"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, model, tmp_path):
        path = tmp_path / "m.spsy"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, model, tmp_path):
        path = tmp_path / "m.spsy"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_every_cut_is_truncation(self, model, tmp_path):
        """Every strict prefix fails as truncated: all cuts through the
        header, the vocabulary and the first tensors, then seeded ones."""
        path = tmp_path / "m.spsy"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        rng = np.random.default_rng(5)
        cuts = [*range(2000), *rng.integers(2000, len(blob), size=50)]
        for cut in cuts:
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated checkpoint"):
                load_checkpoint(path)

    def test_corrupt_string_rejected(self, model, vocab, tmp_path):
        path = tmp_path / "m.spsy"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for token in (vocab.tokens[-1], "block0/attn/wq"):
            at = blob.index(token.encode("utf-8"))
            path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
            with pytest.raises(CheckpointError, match="corrupt string in checkpoint"):
                load_checkpoint(path)

    def test_other_head_width_rejected(self, vocab, tmp_path):
        m = Model.initialize(SMALL, vocab, rng_seed=4)
        m.params["detect/w1"] = np.zeros((SMALL.d_model, 40))
        path = tmp_path / "m.spsy"
        save_checkpoint(m, path)
        with pytest.raises(
            CheckpointError,
            match=r"detect/w1: shape \(16, 40\), expected \(16, 50\)",
        ):
            load_checkpoint(path)

    def test_every_tensor_shape_is_checked(self, vocab, tmp_path):
        path = tmp_path / "m.spsy"
        for name in Model.initialize(SMALL, vocab).params:
            m = Model.initialize(SMALL, vocab)
            m.params[name] = np.zeros(m.params[name].shape + (1,))
            save_checkpoint(m, path)
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path)
            assert name in str(info.value)

    def test_missing_and_extra_tensors_rejected(self, vocab, tmp_path):
        path = tmp_path / "m.spsy"
        m = Model.initialize(SMALL, vocab)
        del m.params["detect/b2"]
        save_checkpoint(m, path)
        with pytest.raises(CheckpointError, match="detect/b2: shape absent"):
            load_checkpoint(path)
        m = Model.initialize(SMALL, vocab)
        m.params["detect/w4"] = np.zeros((2, 2))
        save_checkpoint(m, path)
        with pytest.raises(CheckpointError, match="detect/w4: .* expected absent"):
            load_checkpoint(path)


class TestGradients:
    def test_output_layer_matches_finite_differences(self, model, batch, weights):
        err = grad_check(model, batch, weights, names=["detect/w3", "detect/b3"])
        assert err < 1e-7

    def test_float32_parameters_are_refused(self, model, batch, weights):
        """Differences taken at float32 resolution measure rounding, not the
        gradient, so a model with any float32 tensor is refused, even one
        outside the named subset, since every tensor feeds the loss."""
        params = {**model.params, "generator/wh": model.params["generator/wh"].astype(np.float32)}
        with pytest.raises(ModelError, match="generator/wh is float32"):
            grad_check(Model(SMALL, model.vocab, params), batch, weights, names=["detect/b3"])
        single = {name: t.astype(np.float32) for name, t in model.params.items()}
        with pytest.raises(ModelError, match=f"{min(single)} is float32"):
            grad_check(Model(SMALL, model.vocab, single), batch, weights)

    def test_training_losses_are_weighted_ce(self, model, batch, weights):
        """Training minimises the per-row loss `weighted_ce` defines."""
        probs = []
        for text in TEXTS:  # the batch's rows, in order
            h = model.encode_text(text)
            probs.append((model.detect(h), model.classify_category(h)))
        losses = model.losses(batch, weights)
        expected = np.mean([
            weighted_ce(p_det, label, weights)
            for (p_det, _), label in zip(probs, batch.labels)
        ])
        assert losses["detection"] == pytest.approx(expected, rel=1e-12, abs=0)

        expected = np.mean([
            weighted_ce(p_cat, c, np.ones(len(CATEGORIES)))
            for (_, p_cat), c in zip(probs, batch.cat_ids) if c >= 0
        ])
        assert losses["category"] == pytest.approx(expected, rel=1e-12, abs=0)
        assert losses["total"] == (
            losses["detection"] + losses["generation"] + losses["category"]
        )

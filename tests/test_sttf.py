import base64
import json
import math
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import reference
from formcoach import sttf
from formcoach.normalize import TORSO_EPS
from formcoach.skeleton import MAX_COORDINATE, N_JOINTS, JointId, ValidationError
from formcoach.sttf import (N_SCORES, STTFConfig, STTFModel, TrainingDivergedError,
                            backprop, load_checkpoint, loss, save_checkpoint,
                            sequence_to_model_input, targets_from_annotation,
                            train)
from formcoach.synth import MotionSpec, generate

SMALL = STTFConfig(d_model=8, n_heads=2, spatial_layers=1, temporal_layers=1,
                   seq_len=8, seed=0)


def random_input(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (cfg.seq_len, N_JOINTS, 2))


def random_target(cfg, seed=0):
    rng = np.random.default_rng(seed + 1)
    return (rng.uniform(0.1, 0.9, N_SCORES),
            (rng.uniform(size=cfg.seq_len) > 0.5).astype(float))


def get_flat(model):
    return np.concatenate([p.value.ravel() for p in model.parameters()])


def compute_gradients(model, x, target):
    """Loss and a copy of every parameter's gradient after one
    :func:`sttf.backprop`, the step that ``train`` runs."""
    value = backprop(model, x, *target)
    return value, {p.name: p.grad.copy() for p in model.parameters()}


def _param_kind(name):
    if "ln" in name.split(".")[-2:][0] or name.startswith("final_ln"):
        return "layernorm"
    if ".attn." in name:
        return "attention"
    if ".ffn." in name:
        return "mlp"
    if name.endswith("_pos"):
        return "positional"
    if name.startswith("joint_embed"):
        return "embedding"
    if name.startswith("flatten_proj"):
        return "flatten"
    if name.endswith("_head.W") or name.endswith("_head.b"):
        return "head"
    return "other"


def gradient_check(model, x, target, n_samples=64, h=1e-5, seed=0):
    """Compare analytic gradients with central differences on a stratified
    random sample of parameters covering every layer kind.

    Returns (param_name, flat_index_within_param, analytic, numeric,
    relative_error) per sampled coordinate.
    """
    rng = np.random.default_rng(seed)
    _, grads = compute_gradients(model, x, target)
    by_kind = {}
    for p in model.parameters():
        by_kind.setdefault(_param_kind(p.name), []).append(p)

    kinds = sorted(by_kind)
    picks = []
    k = 0
    while len(picks) < n_samples:
        kind = kinds[k % len(kinds)]
        p = by_kind[kind][rng.integers(len(by_kind[kind]))]
        picks.append((p, int(rng.integers(p.value.size))))
        k += 1

    results = []
    for p, idx in picks:
        flat = p.value.ravel()
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss(model.forward(x), target)
        flat[idx] = orig - h
        down = loss(model.forward(x), target)
        flat[idx] = orig
        numeric = (up - down) / (2.0 * h)
        analytic = grads[p.name].ravel()[idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        results.append((p.name, idx, float(analytic), float(numeric), float(rel)))
    return results


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            STTFConfig(d_model=30, n_heads=4)

    def test_min_seq_len(self):
        with pytest.raises(ValueError):
            STTFConfig(seq_len=1)


class TestForward:
    def test_output_shapes(self):
        model = STTFModel(SMALL)
        scores, logits = model.forward(random_input(SMALL))
        assert scores.shape == (3,)
        assert logits.shape == (SMALL.seq_len,)

    def test_batched_shapes(self):
        model = STTFModel(SMALL)
        x = np.stack([random_input(SMALL, s) for s in range(4)])
        scores, logits = model.forward(x)
        assert scores.shape == (4, 3)
        assert logits.shape == (4, SMALL.seq_len)

    def test_deterministic(self):
        model = STTFModel(SMALL)
        x = random_input(SMALL)
        s1, l1 = model.forward(x)
        s2, l2 = model.forward(x)
        assert np.array_equal(s1, s2) and np.array_equal(l1, l2)

    def test_same_seed_same_params(self):
        a, b = STTFModel(SMALL), STTFModel(SMALL)
        assert np.array_equal(get_flat(a), get_flat(b))

    def test_scores_in_unit_interval(self):
        model = STTFModel(SMALL)
        for s in range(5):
            scores, _ = model.forward(random_input(SMALL, s) * 10.0)
            assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_rejects_non_finite(self):
        model = STTFModel(SMALL)
        x = random_input(SMALL)
        x[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            model.forward(x)

    def test_rejects_wrong_shape(self):
        model = STTFModel(SMALL)
        with pytest.raises(ValueError):
            model.forward(np.zeros((SMALL.seq_len, 16, 2)))

    def test_attention_rows_sum_to_one(self):
        model = STTFModel(SMALL)
        model.forward(random_input(SMALL))
        blocks = model.spatial_blocks + model.temporal_blocks
        assert blocks
        for blk in blocks:
            assert np.allclose(blk.attn.probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_spatial_equivariance_without_positional(self):
        model = STTFModel(SMALL)
        model.spatial_pos.value[...] = 0.0
        x = random_input(SMALL)
        rng = np.random.default_rng(3)
        perm = rng.permutation(N_JOINTS)
        base = model._spatial(x[None])[0]
        permuted = model._spatial(x[None, :, perm, :])[0]
        assert np.allclose(permuted, base[:, perm, :], atol=1e-12)


class TestGelu:
    # Beyond rtol, atol covers x in about [-7.2, -3.9]: there tanh(u) lies
    # within 1e-4 of -1, so 1 + tanh(u) cancels, and NumPy's tanh and libm's
    # differ by one ulp on about a quarter of inputs. The values there are
    # below 6e-4 and differ by up to 4e-16 (GELU) and 3.5e-15 (derivative).
    X = np.concatenate([np.linspace(-12.0, 12.0, 2001), [-1e3, 1e3, 0.0]])

    @pytest.mark.parametrize("program, oracle", [
        (sttf._gelu, reference.gelu),
        (sttf._gelu_grad, reference.gelu_derivative),
    ], ids=["gelu", "derivative"])
    def test_matches_stdlib_oracle(self, program, oracle):
        want = np.array([oracle(float(x)) for x in self.X])
        np.testing.assert_allclose(program(self.X), want, rtol=1e-12, atol=1e-14)


# The kernels' former one-line expressions. The kernels now write into one
# or two buffers; they must keep these expressions' bits.
def gelu_expression(x):
    return 0.5 * x * (1.0 + np.tanh(sttf._GELU_C * (x + 0.044715 * (x * x * x))))


def gelu_grad_expression(x):
    t = np.tanh(sttf._GELU_C * (x + 0.044715 * (x * x * x)))
    dt = (1.0 - t * t) * sttf._GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * dt


def softmax_expression(att):
    att = att - att.max(axis=-1, keepdims=True)
    ex = np.exp(att)
    return ex / ex.sum(axis=-1, keepdims=True)


def layer_norm_expression(x):
    """(normalized input, deviation) of LayerNorm."""
    mu = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(x.var(axis=-1, keepdims=True) + sttf._LN_EPS)
    return (x - mu) / std, std


class TestKernelBits:
    # The last two: halving them, as GELU does last, rounds.
    SPECIAL = [0.0, -0.0, 1e-3, -1e-3, 5.0, -5.0, 30.0, -30.0, 1e3, -1e3, 5e-324,
               -1.5e-323, 2.225073858507202e-308]

    def inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-40.0, 40.0, (4, 17, 90))
        x[:2] = rng.normal(0.0, 3.0, (2, 17, 90))
        x.flat[rng.choice(x.size, len(self.SPECIAL), replace=False)] = self.SPECIAL
        return x

    @pytest.mark.parametrize("shared", [False, True], ids=["own-tanh", "shared-tanh"])
    def test_gelu_and_derivative_keep_the_expression_bits(self, shared):
        x = self.inputs()
        x_bytes = x.tobytes()
        t = sttf._gelu_tanh(x) if shared else None
        t_bytes = None if t is None else t.tobytes()
        grad = sttf._gelu_grad(x, t)
        assert t is None or t.tobytes() == t_bytes
        assert grad.tobytes() == gelu_grad_expression(x).tobytes()
        assert sttf._gelu(x, t).tobytes() == gelu_expression(x).tobytes()
        assert x.tobytes() == x_bytes

    def test_softmax_keeps_the_expression_bits(self):
        rng = np.random.default_rng(1)
        att = rng.normal(0.0, 4.0, (3, 4, 17, 17))
        att[0, 0] = 30.0
        att[1, 2, 3] = [-30.0, 30.0] * 8 + [0.0]
        want = softmax_expression(att).tobytes()
        assert sttf._softmax(att).tobytes() == want
        assert att.tobytes() == want    # written in place

    def test_attention_probs_keep_the_expression_bits(self):
        attn = sttf.MultiHeadSelfAttention(
            sttf.random_params(np.random.default_rng(2)), "a", 32, 4)
        attn.forward(np.random.default_rng(3).normal(0.0, 1.0, (5, 17, 32)), cache=True)
        scores = attn._q @ attn._k.transpose(0, 1, 3, 2) / math.sqrt(attn.d_head)
        assert attn.probs.tobytes() == softmax_expression(scores).tobytes()

    def test_layer_norm_keeps_the_expression_bits(self):
        rng = np.random.default_rng(4)
        ln = sttf.LayerNorm(sttf.random_params(rng), "ln", 90)
        ln.gamma.value[...] = rng.normal(1.0, 0.5, 90)
        ln.beta.value[...] = rng.normal(0.0, 0.5, 90)
        x = self.inputs(seed=2)
        x_bytes = x.tobytes()
        xhat, std = layer_norm_expression(x)
        out = ln.forward(x, cache=True)
        assert out.tobytes() == (ln.gamma.value * xhat + ln.beta.value).tobytes()
        assert ln._xhat.tobytes() == xhat.tobytes()
        assert ln._std.tobytes() == std.tobytes()
        assert x.tobytes() == x_bytes


class TestLoss:
    def test_zero_at_perfect(self):
        scores = np.array([0.3, 0.5, 0.9])
        logits = np.array([30.0, -30.0, 30.0, -30.0])
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        assert loss((scores, logits), (scores, labels)) < 1e-9

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores = rng.uniform(0, 1, 3)
            targets = rng.uniform(0, 1, 3)
            logits = rng.normal(0, 5, 6)
            labels = (rng.uniform(size=6) > 0.5).astype(float)
            mse = sum((s - t) ** 2 for s, t in zip(scores, targets)) / 3
            sig = 1 / (1 + np.exp(-logits))
            bce = float(np.mean(-labels * np.log(sig)
                                - (1 - labels) * np.log(1 - sig)))
            got = loss((scores, logits), (targets, labels))
            assert got == pytest.approx(mse + bce, rel=1e-9)

    def test_confidently_wrong_is_large_finite(self):
        logits = np.full(4, 40.0)
        labels = np.zeros(4)
        value = loss((np.array([1.0, 1.0, 1.0]), logits),
                     (np.zeros(3), labels))
        assert np.isfinite(value) and value > 10.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss((np.zeros(3), np.zeros(4)), (np.zeros(3), np.zeros(5)))


class TestGradients:
    def test_finite_difference_check(self):
        model = STTFModel(SMALL)
        x = random_input(SMALL)
        target = random_target(SMALL)
        results = gradient_check(model, x, target, n_samples=48, h=1e-5, seed=2)
        worst = max(r[4] for r in results)
        assert worst < 1e-4
        kinds = {_param_kind(name) for name, *_ in results}
        assert {"attention", "mlp", "layernorm", "embedding",
                "positional", "head", "flatten"} <= kinds

    def test_zero_heads_block_upstream_gradients(self):
        model = STTFModel(SMALL)
        model.score_head.W.value[...] = 0.0
        model.mistake_head.W.value[...] = 0.0
        x = random_input(SMALL)
        _, grads = compute_gradients(model, x, random_target(SMALL))
        for name, g in grads.items():
            if name.endswith("_head.W"):
                assert np.abs(g).max() > 0.0
            elif not name.endswith("_head.b"):
                assert np.abs(g).max() == 0.0

    def test_duplicated_example_same_mean_gradient(self):
        model = STTFModel(SMALL)
        x = random_input(SMALL)
        ts, labels = random_target(SMALL)
        _, single = compute_gradients(model, x, (ts, labels))
        x2 = np.stack([x, x])
        ts2 = np.stack([ts, ts])
        labels2 = np.stack([labels, labels])
        _, doubled = compute_gradients(model, x2, (ts2, labels2))
        for name in single:
            assert np.allclose(single[name], doubled[name], atol=1e-12)

    def test_per_example_step_equals_the_full_batch_step(self):
        model = STTFModel(SMALL)
        rng = np.random.default_rng(5)
        for p in model.parameters():    # no residual branch left at zero
            p.value[...] = rng.normal(0.0, 0.3, p.value.shape)
        x, t_scores, labels = batch_of(SMALL, 4)
        value, grads = compute_gradients(model, x, (t_scores, labels))
        # The outputs are batch-1 forwards': BLAS may order a one-row product
        # differently from a four-row one, which moves a score's last bit.
        each = [model.forward(example) for example in x]
        assert value == loss(tuple(np.stack(out) for out in zip(*each)),
                             (t_scores, labels))
        assert value == pytest.approx(loss(model.forward(x), (t_scores, labels)),
                                      rel=1e-15)
        model.zero_grads()
        scores, logits = model.forward(x, cache=True)
        model.backward(2.0 * (scores - t_scores) / scores.size,
                       (sttf._sigmoid(logits) - labels) / logits.size)
        for p in model.parameters():
            np.testing.assert_allclose(grads[p.name], p.grad, rtol=1e-12, atol=1e-15,
                                       err_msg=p.name)

    def test_non_finite_loss_leaves_zero_gradients(self):
        model = STTFModel(SMALL)
        model.mistake_head.b.value[...] = np.nan
        value = backprop(model, random_input(SMALL), *random_target(SMALL))
        assert np.isnan(value)
        assert not any(p.grad.any() for p in model.parameters())


class TestSpatialChunks:
    """The spatial stack runs ``sttf._SPATIAL_FRAMES`` frames at a time.
    Its layers each work inside one frame, so the chunk size moves no output
    bit, only the order in which the spatial weight gradients are summed.
    With a batch of two 64-frame examples, a chunk of 5 leaves a short last
    chunk and, in a batched ``backward``, spans both examples."""

    @pytest.fixture(scope="class")
    def default_run(self):
        """(model, batch, batched outputs, backprop's loss and gradients,
        a batched backward's gradients and input gradient) at the default
        chunk size."""
        cfg = STTFConfig()
        model = STTFModel(cfg)
        rng = np.random.default_rng(9)
        for p in model.parameters():    # no residual branch left at zero
            p.value[...] = rng.normal(0.0, 0.3, p.value.shape)
        batch = batch_of(cfg, 2)
        return (model, batch, model.forward(batch[0]),
                *compute_gradients(model, batch[0], batch[1:]),
                *self.batched_backward(model, batch))

    @staticmethod
    def batched_backward(model, batch):
        """Every parameter's gradient and the input gradient of one
        ``backward`` over the whole batch."""
        x, t_scores, labels = batch
        model.zero_grads()
        scores, logits = model.forward(x, cache=True)
        dx = model.backward(2.0 * (scores - t_scores) / scores.size,
                            (sttf._sigmoid(logits) - labels) / logits.size)
        return {p.name: p.grad.copy() for p in model.parameters()}, dx

    @pytest.mark.parametrize("frames", [1, 5, 64, 10 ** 6])
    def test_chunk_size_changes_no_result(self, default_run, monkeypatch, frames):
        model, batch, outputs, value, grads, batched, dx = default_run
        monkeypatch.setattr(sttf, "_SPATIAL_FRAMES", frames)
        for a, b in zip(model.forward(batch[0]), outputs):
            assert a.tobytes() == b.tobytes()
        assert compute_gradients(model, batch[0], batch[1:])[0] == value
        for p in model.parameters():
            np.testing.assert_allclose(p.grad, grads[p.name], rtol=1e-12,
                                       atol=1e-15, err_msg=p.name)
        chunked, chunked_dx = self.batched_backward(model, batch)
        for p in model.parameters():
            np.testing.assert_allclose(chunked[p.name], batched[p.name],
                                       rtol=1e-12, atol=1e-15, err_msg=p.name)
        assert chunked_dx.tobytes() == dx.tobytes()


def batch_of(cfg, size):
    """(input, target scores, labels) of ``size`` seeded examples."""
    x = np.stack([random_input(cfg, seed) for seed in range(size)])
    t_scores, labels = (np.stack(column) for column in zip(
        *(random_target(cfg, seed) for seed in range(size))))
    return x, t_scores, labels


def traced(call):
    """(bytes that ``call()`` leaves allocated, its peak), traced by
    ``tracemalloc``, which sees NumPy's buffers."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return after - before, peak - before


def traced_backprop(cfg, size):
    """(model after one :func:`backprop` of a new model on ``size``
    examples, bytes it still holds, traced peak)."""
    batch = batch_of(cfg, size)
    model = STTFModel(cfg)
    return (model, *traced(lambda: backprop(model, *batch)))


def hidden_bytes(cfg):
    """One example's FFN hidden activation in the spatial stack."""
    return cfg.seq_len * N_JOINTS * cfg.mlp_ratio * cfg.d_model * 8


class TestTrainingStepMemory:
    """One :func:`backprop` of the default model, traced by ``tracemalloc``,
    which sees NumPy's buffers. The gradient is the full batch's, summed one
    example at a time, so a step holds one example's caches and its peak
    does not grow with the batch; ``backward`` reruns the spatial stack a
    few frames at a time, so its peak grows little with the frame count.
    The unit is one example's FFN hidden activation in the spatial stack,
    all of its frames at once, which no step holds whole."""

    BATCH = 4

    @pytest.fixture(scope="class")
    def step(self):
        """(model after the step, bytes it still holds, traced peak, unit)."""
        cfg = STTFConfig()
        return (*traced_backprop(cfg, self.BATCH), hidden_bytes(cfg))

    def test_backward_releases_what_forward_cached(self, step):
        model, held, _, _ = step
        probs = sum(blk.attn.probs.nbytes
                    for blk in model.spatial_blocks + model.temporal_blocks)
        assert held <= probs + 2 ** 20, (held, probs)

    def test_peak_is_at_most_4_hidden_activations(self, step):
        _, _, peak, hidden = step
        assert peak <= 4 * hidden, peak / hidden

    def test_peak_does_not_grow_with_the_batch(self):
        cfg = STTFConfig()
        unit = hidden_bytes(cfg)
        peak2, peak8 = (traced_backprop(cfg, size)[2] for size in (2, 8))
        assert peak8 <= peak2 + unit, (peak2 / unit, peak8 / unit)

    def test_peak_grows_little_with_the_frame_count(self):
        unit = hidden_bytes(STTFConfig())
        peak64, peak128 = (traced_backprop(STTFConfig(seq_len=frames), 1)[2]
                           for frames in (64, 128))
        assert peak128 <= peak64 + 2 * unit, (peak64 / unit, peak128 / unit)


def held_arrays(obj, path):
    """Paths of the arrays that ``obj`` and its layers hold outside their
    parameters, which is what a ``forward`` leaves for a ``backward``."""
    found = []
    items = enumerate(obj) if isinstance(obj, (list, tuple)) else vars(obj).items()
    for key, value in items:
        where = f"{path}.{key}"
        if isinstance(value, np.ndarray):
            found.append(where)
        elif isinstance(value, (list, tuple)) or (
                type(value).__module__ == sttf.__name__
                and not isinstance(value, (sttf.Param, STTFConfig))):
            found += held_arrays(value, where)
    return found


class TestInference:
    """``STTFModel.forward`` as ``score-model`` and ``assess --aux-model``
    call it, on a model as :func:`load_checkpoint` builds it."""

    @pytest.mark.parametrize("cfg", [SMALL, STTFConfig()], ids=["small", "default"])
    def test_same_bits_as_a_caching_forward(self, cfg):
        model = STTFModel(cfg)
        rng = np.random.default_rng(7)
        for p in model.parameters():    # no residual branch left at zero
            p.value[...] = rng.normal(0.0, 0.3, p.value.shape)
        x = random_input(cfg)
        inference = model.forward(x)
        caching = model.forward(x, cache=True)
        for a, b in zip(inference, caching):
            assert a.tobytes() == b.tobytes()

    def test_forward_peak_is_at_most_1_5_hidden_activations(self):
        """The arrays a forward makes and drops are what a process that only
        scores hands back to the kernel and faults in again on every call."""
        cfg = STTFConfig()
        model, x = STTFModel(cfg), random_input(cfg)
        _, peak = traced(lambda: model.forward(x))
        assert peak <= 1.5 * hidden_bytes(cfg), peak / hidden_bytes(cfg)

    def test_loaded_model_keeps_only_probs_and_no_gradients(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(STTFModel(STTFConfig()), path)
        model = load_checkpoint(path)
        model.forward(random_input(model.config))
        held = held_arrays(model, "model")
        assert len(held) == len(model.spatial_blocks + model.temporal_blocks)
        assert all(where.endswith(".attn.probs") for where in held), held
        assert all(p.grad is None for p in model.parameters())

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        # Generator's methods cannot be patched, so every generator that
        # default_rng makes is one whose normal raises.
        class NoDraws(np.random.Generator):
            def normal(self, *args, **kwargs):
                raise AssertionError("drew random numbers")

        model = STTFModel(SMALL)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: NoDraws(np.random.PCG64(seed)))
        assert np.array_equal(get_flat(load_checkpoint(path)), get_flat(model))


class TestTrain:
    def make_dataset(self, n=8):
        data = []
        for i in range(n):
            x = random_input(SMALL, seed=10 + i)
            scores = np.full(3, float(i % 2))
            labels = np.full(SMALL.seq_len, float(i % 2))
            data.append((x, scores, labels))
        return data

    def test_loss_stable_after_warmup(self):
        model = STTFModel(SMALL)
        losses = train(model, self.make_dataset(), epochs=10, lr=1e-2)
        assert len(losses) == 10
        for a, b in zip(losses[3:], losses[4:]):
            assert b <= a * 1.10

    def test_lr_zero_keeps_parameters(self):
        model = STTFModel(SMALL)
        before = get_flat(model)
        train(model, self.make_dataset(), epochs=5, lr=0.0)
        assert np.array_equal(get_flat(model), before)

    def test_same_seed_same_curve(self):
        curves = []
        for _ in range(2):
            model = STTFModel(SMALL)
            curves.append(train(model, self.make_dataset(), epochs=6, lr=1e-2))
        assert curves[0] == curves[1]

    def test_applies_the_checked_gradient(self):
        data, lr = self.make_dataset(), 1e-2
        model = STTFModel(SMALL)
        losses = train(model, data, epochs=1, lr=lr)
        fresh = STTFModel(SMALL)
        start = [p.value.copy() for p in fresh.parameters()]
        value = backprop(fresh, *(np.stack(column) for column in zip(*data)))
        assert losses == [value]
        assert any(q.grad.any() for q in fresh.parameters())
        for p, before, q in zip(model.parameters(), start, fresh.parameters()):
            assert np.array_equal(p.value, before - lr * q.grad), p.name

    def test_divergence_raises(self):
        model = STTFModel(SMALL)
        with pytest.raises(TrainingDivergedError):
            train(model, self.make_dataset(), epochs=200, lr=1e6)


class TestSequencePrep:
    def test_resample_shapes_and_endpoints(self):
        seq, _ = generate(MotionSpec(template="press", n_frames=20), seed=0)
        x = sequence_to_model_input(seq, 12)
        assert x.shape == (12, 17, 2)
        from test_normalize import normalize_frame
        first = normalize_frame(seq.frames[0])[0]
        last = normalize_frame(seq.frames[-1])[0]
        assert np.allclose(x[0], first)
        assert np.allclose(x[-1], last)

    def test_targets_clean_vs_mistaken(self):
        seq, ann = generate(MotionSpec(template="press", n_frames=20), seed=1)
        ts, labels = targets_from_annotation(seq, ann, 12)
        assert np.array_equal(ts, np.ones(3))
        assert labels.sum() == 0
        from formcoach.synth import InjectedError
        bad, bad_ann = generate(
            MotionSpec(template="press", n_frames=20, injected_errors=(
                InjectedError(kind="angle_offset_deg", magnitude=25.0,
                              joint=JointId.LEFT_ELBOW),)), seed=1)
        ts2, labels2 = targets_from_annotation(bad, bad_ann, 12)
        assert np.array_equal(ts2, np.zeros(3))
        assert labels2.sum() == 12  # offset active in every frame

    def test_mistake_on_absent_frame_rejected(self):
        seq, ann = generate(MotionSpec(template="press", n_frames=12), seed=3)
        ann.per_frame_mistakes = (("g0003", JointId.LEFT_ELBOW, "elbow"),)
        with pytest.raises(ValidationError, match="frame 'g0003'"):
            targets_from_annotation(seq, ann, 8)

    def test_annotated_scores_used(self):
        seq, ann = generate(MotionSpec(template="press", n_frames=20), seed=2)
        ann.scores = (80.0, 90.0, 70.0)
        ts, _ = targets_from_annotation(seq, ann, 8)
        assert np.allclose(ts, [0.8, 0.9, 0.7])


def read_checkpoint(path):
    """A checkpoint file split into its JSON header and its tensor data."""
    data = path.read_bytes()
    n = int.from_bytes(data[:8], "little")
    return json.loads(data[8:8 + n]), bytearray(data[8 + n:])


def write_checkpoint(path, header, buffer=b""):
    """:func:`read_checkpoint`'s inverse. ``header`` is written as JSON,
    padded as :func:`save_checkpoint` pads it, or as raw bytes."""
    if not isinstance(header, bytes):
        header = json.dumps(header, sort_keys=True).encode()
        header += b" " * (-len(header) % 8)
    path.write_bytes(len(header).to_bytes(8, "little") + header + bytes(buffer))


def edited_checkpoint(path, edit):
    """A saved SMALL checkpoint at ``path`` with ``edit(header, buffer)``
    applied to its header and tensor data."""
    save_checkpoint(STTFModel(SMALL), path)
    header, buffer = read_checkpoint(path)
    edit(header, buffer)
    write_checkpoint(path, header, buffer)
    return path


def edit_config(header, **fields):
    """Change the STTFConfig fields stored in a checkpoint header."""
    meta = header["__metadata__"]
    meta["config"] = json.dumps({**json.loads(meta["config"]), **fields})


def data_offsets(d_begin, d_end):
    """An edit moving a parameter's data offsets by these many bytes."""
    def edit(entry, buffer):
        begin, end = entry["data_offsets"]
        entry["data_offsets"] = [begin + d_begin, end + d_end]
    return edit


def truncate_inside(entry, buffer):
    """Cut the tensor data 8 bytes into the parameter's values."""
    del buffer[entry["data_offsets"][0] + 8:]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = STTFModel(SMALL)
        train(model, [(random_input(SMALL), np.full(3, 0.5),
                       np.zeros(SMALL.seq_len))], epochs=2, lr=0.1)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert get_flat(loaded).tobytes() == get_flat(model).tobytes()
        x = random_input(SMALL, 5)
        s1, l1 = model.forward(x)
        s2, l2 = loaded.forward(x)
        assert np.array_equal(s1, s2) and np.array_equal(l1, l2)

    def test_byte_identical_for_same_model(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(STTFModel(SMALL), p1)
        save_checkpoint(STTFModel(SMALL), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        """A file in the same layout that another program wrote."""
        path = tmp_path / "x.safetensors"
        write_checkpoint(path, {"__metadata__": {"format": "pt"},
                                "w": {"dtype": "F64", "shape": [1],
                                      "data_offsets": [0, 8]}}, bytes(8))
        with pytest.raises(ValidationError, match="not an STTF checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ['{"format": "formcoach-st', "[1, 2]", "\xff"],
                             ids=["truncated", "list", "not-utf8"])
    def test_invalid_json_is_validation_error(self, tmp_path, text):
        path = tmp_path / "x.json"
        write_checkpoint(path, text.encode("latin-1"))
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    @pytest.mark.parametrize("data, match", [
        (b"", "not an STTF checkpoint"),
        (b"\x00" * 7, "not an STTF checkpoint"),
        ((9).to_bytes(8, "little") + b"{}      ", "header length 9 exceeds the 8 bytes"),
        (b"\xff" * 8 + b"{}", "header length 18446744073709551615 exceeds"),
    ], ids=["empty", "short", "past-end", "max"])
    def test_header_length_must_fit_in_the_file(self, tmp_path, data, match):
        path = tmp_path / "model.json"
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, match", [
        ("n_heads", 3, "divisible by n_heads"),
        ("n_joints", 16, "17-joint"),
        ("n_scores", 2, "3-score"),
    ], ids=["heads", "joints", "scores"])
    def test_invalid_config_is_validation_error(self, tmp_path, key, value, match):
        path = self.edited(tmp_path, lambda header, buffer: edit_config(
            header, **{key: value}))
        with pytest.raises(ValidationError, match=match):
            load_checkpoint(path)

    def test_layout_follows_the_safetensors_spec(self, tmp_path):
        """Parsed by hand: an 8-byte little-endian header length, a sorted
        JSON header padded with spaces to a multiple of 8, string-only
        ``__metadata__``, then each parameter's little-endian float64
        row-major bytes, in model order with no gap."""
        model = STTFModel(SMALL)
        train(model, [(random_input(SMALL), np.full(3, 0.5),
                       np.zeros(SMALL.seq_len))], epochs=1, lr=0.1)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        data = path.read_bytes()
        (n,) = struct.unpack("<Q", data[:8])
        assert n % 8 == 0
        text = data[8:8 + n].decode("ascii")
        assert len(text) - len(text.rstrip(" ")) < 8

        def sorted_object(pairs):
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            return dict(pairs)
        header = json.loads(text, object_pairs_hook=sorted_object)
        meta = header.pop("__metadata__")
        assert all(isinstance(v, str) for v in meta.values())
        assert meta == {"format": "formcoach-sttf", "version": "3",
                        "config": json.dumps({**asdict(SMALL), "n_joints": 17,
                                              "n_scores": 3}, sort_keys=True)}
        tensors, end = data[8 + n:], 0
        assert list(header) == sorted(p.name for p in model.parameters())
        for p in model.parameters():
            begin, end = end, end + 8 * p.value.size
            assert header[p.name] == {"dtype": "F64", "shape": list(p.value.shape),
                                      "data_offsets": [begin, end]}
            values = np.frombuffer(tensors[begin:end], "<f8").reshape(p.value.shape)
            assert np.array_equal(values, p.value)
            assert values.astype(np.float64).tobytes() == p.value.tobytes()
        assert end == len(tensors)

    def test_version_1_is_refused_naming_train(self, tmp_path):
        model = STTFModel(SMALL)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": "formcoach-sttf", "version": 1, "config": asdict(SMALL),
            "params": {p.name: {"shape": list(p.value.shape),
                                "data": p.value.ravel().tolist()}
                       for p in model.parameters()}}))
        with pytest.raises(ValidationError,
                           match="no longer supported.*`formcoach train`"):
            load_checkpoint(path)

    def test_version_2_is_refused_naming_train(self, tmp_path):
        model = STTFModel(SMALL)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "format": "formcoach-sttf", "version": 2, "config": asdict(SMALL),
            "params": {p.name: {"shape": list(p.value.shape),
                                "data": base64.b64encode(p.value.tobytes()).decode()}
                       for p in model.parameters()}}, sort_keys=True) + "\n")
        with pytest.raises(ValidationError,
                           match="no longer supported.*`formcoach train`"):
            load_checkpoint(path)

    def test_version_must_be_3(self, tmp_path):
        def edit(header, buffer):
            header["__metadata__"]["version"] = 3
        with pytest.raises(ValidationError, match="unsupported checkpoint version 3"):
            load_checkpoint(self.edited(tmp_path, edit))

    @staticmethod
    def edited(tmp_path, edit):
        return edited_checkpoint(tmp_path / "model.json", edit)

    @pytest.mark.parametrize("params", [5, "score_head.b", ["score_head.b"]],
                             ids=["number", "string", "list"])
    def test_params_must_be_an_object(self, tmp_path, params):
        path = tmp_path / "model.json"
        save_checkpoint(STTFModel(SMALL), path)
        write_checkpoint(path, params, read_checkpoint(path)[1])
        with pytest.raises(ValidationError, match="params must be an object"):
            load_checkpoint(path)

    @staticmethod
    def with_score_bias(tmp_path, edit):
        return TestCheckpoint.edited(
            tmp_path, lambda header, buffer: edit(header["score_head.b"], buffer))

    @pytest.mark.parametrize("edit", [
        lambda entry, buffer: entry.update(dtype="F32"),
        lambda entry, buffer: entry.update(
            data_offsets=[float(v) for v in entry["data_offsets"]]),
        truncate_inside, data_offsets(-8, -8), data_offsets(8, 8),
        data_offsets(0, -8), data_offsets(0, -4), data_offsets(0, 8),
    ], ids=["dtype", "offsets-not-integers", "outside", "overlap", "gap", "short",
            "ragged", "long"])
    def test_bad_data_names_the_parameter(self, tmp_path, edit):
        with pytest.raises(ValidationError, match="score_head.b"):
            load_checkpoint(self.with_score_bias(tmp_path, edit))

    def test_trailing_data_is_refused(self, tmp_path):
        path = self.edited(tmp_path, lambda header, buffer: buffer.extend(bytes(8)))
        with pytest.raises(ValidationError, match="parameters end at byte"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_refused(self, tmp_path, value):
        with pytest.raises(ValidationError,
                           match="score_head.b has non-finite values"):
            load_checkpoint(self.score_bias_of(tmp_path, value))

    def score_bias_of(self, tmp_path, value):
        """A checkpoint whose score_head.b holds ``value`` between two zeros."""
        def edit(entry, buffer):
            begin, end = entry["data_offsets"]
            buffer[begin:end] = np.array([0.0, value, 0.0], "<f8").tobytes()
        return self.with_score_bias(tmp_path, edit)

    @pytest.mark.parametrize("value", [sttf.MAX_PARAMETER, -sttf.MAX_PARAMETER])
    def test_parameter_at_the_bound_loads(self, tmp_path, value):
        model = load_checkpoint(self.score_bias_of(tmp_path, value))
        assert model.score_head.b.value[1] == value

    @pytest.mark.parametrize("value", [math.nextafter(sttf.MAX_PARAMETER, math.inf),
                                       -1e300])
    def test_parameter_above_the_bound_is_refused(self, tmp_path, value):
        with pytest.raises(ValidationError,
                           match=r"score_head.b has values of magnitude above 1e\+18"):
            load_checkpoint(self.score_bias_of(tmp_path, value))

    def test_save_refuses_what_load_refuses(self, tmp_path):
        model = STTFModel(SMALL)
        model.joint_embed.W.value[0, 0] = 1e300
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValidationError, match="joint_embed.W has values of magnitude"):
            save_checkpoint(model, path)
        assert not path.exists()


# The largest canonical coordinate: a pixel point and the body center each lie
# within 2 * MAX_COORDINATE of the origin, and the torso is at least TORSO_EPS.
MAX_CANONICAL = 4 * MAX_COORDINATE / TORSO_EPS


class TestParameterBound:
    """``MAX_PARAMETER`` keeps every square in the forward finite."""

    def test_the_derivation_holds_at_the_largest_config(self):
        """The chain of bounds stated beside ``MAX_PARAMETER``, evaluated at
        the largest config ``STTFConfig`` admits."""
        b, bounds = sttf.MAX_PARAMETER, sttf._CONFIG_BOUNDS
        d = bounds["d_model"][1]
        hidden = bounds["mlp_ratio"][1] * d
        layers = max(bounds["spatial_layers"][1], bounds["temporal_layers"][1])
        normed = (math.sqrt(d) + 1) * b        # a LayerNorm's output
        proj = d * normed * b + b              # a query, key, value or FFN pre-activation
        # An attention output averages values and GELU shrinks, so a block adds
        # at most the output projection's and the FFN's second layer's bounds.
        block = (d * proj * b + b) + (hidden * proj * b + b)
        spatial = 2 * MAX_CANONICAL * b + 2 * b + layers * block
        temporal = N_JOINTS * d * spatial * b + 2 * b + layers * block
        assert max(math.sqrt(d) * proj ** 2, proj ** 3, 4 * d * temporal ** 2) < 1e300

    def test_forward_at_the_bounds_is_finite(self):
        """Every parameter at +-MAX_PARAMETER and every coordinate at
        +-MAX_CANONICAL: no overflow warning, and finite outputs."""
        cfg = STTFConfig(d_model=16, n_heads=2, spatial_layers=1, temporal_layers=1,
                         seq_len=8, mlp_ratio=16)
        rng = np.random.default_rng(0)
        model = STTFModel(cfg)
        for p in model.parameters():
            p.value[...] = sttf.MAX_PARAMETER * rng.choice([-1.0, 1.0], p.value.shape)
        x = MAX_CANONICAL * rng.choice([-1.0, 1.0], (cfg.seq_len, N_JOINTS, 2))
        with np.errstate(over="raise", invalid="raise"):
            scores, logits = model.forward(x)
        assert np.isfinite(scores).all() and np.isfinite(logits).all()

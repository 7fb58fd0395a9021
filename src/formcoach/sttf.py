"""Desk-scale spatial-temporal transformer scorer, NumPy only.

Per frame, a spatial encoder self-attends over the 17 joint embeddings; the
per-frame joint features are then flattened, projected, and a temporal
encoder self-attends across frames. Two heads read the temporal features: a
score-regression head (three outputs in [0, 1] via a sigmoid over the
time-pooled features) and a per-frame mistake logit. The logits are trained,
through the loss's cross-entropy term, and then dropped at inference:
``cli._aux_scores``, which ``assess --aux-model`` and ``score-model`` both
call, keeps the scores only. Deleting the head would change the inputs of
the finite-difference gradient check, and reporting the logits would be a
new feature, so both stay as they are.

Everything is explicit forward/backward with exact gradients — no autograd.
:func:`backprop` is the one loss-and-gradient step: :func:`train` runs it
once per epoch for plain full-batch gradient descent, and the
finite-difference check in ``tests/test_sttf.py`` verifies the gradients it
leaves against central differences, parameter by parameter. The gradient is
the full batch's, summed one example at a time: LayerNorm, attention and the
heads each work inside one example, so no layer couples examples.

Each layer has one ``forward``, and its caller decides whether it keeps what
``backward`` reads. :func:`backprop` asks for it with ``cache=True``, for one
example at a time: each ``Linear`` then keeps its input, each ``LayerNorm``
its normalized input and deviation, the attention its split queries, keys and
values, and the FFN its pre-activation, from which ``backward`` rebuilds the
GELU output bit for bit. ``backward`` consumes these caches, dropping each
once it is read, so a training step holds one example's caches however large
the batch. The spatial stack runs ``_SPATIAL_FRAMES`` frames at a time, and
``STTFModel.forward`` never caches it: with ``cache=True`` the model keeps
the checked input, and ``STTFModel.backward`` reruns the spatial stack one
chunk of frames at a time, caching, and backpropagates each chunk before the
next. The spatial caches so live only inside ``backward``, one chunk at a
time (Chen et al., "Training Deep Nets with Sublinear Memory Cost", 2016).
``STTFModel.forward`` as ``cli._aux_scores`` calls it keeps none of them,
with the same arithmetic and so the same bits. Either way the attention keeps
``probs``, documented as the last forward's attention. Nor does inference
carry gradients: :func:`load_checkpoint` reads the binary checkpoint once
and builds the model from copies of its stored arrays, drawing nothing, and
``Param.grad`` waits for the first :meth:`STTFModel.zero_grads`.

Shapes: input is ``(T, 17, 2)`` canonical coordinates (or a ``(B, T, 17, 2)``
batch); sequences of other lengths are first resampled to ``T`` by linear
interpolation over timestamps. ``train`` and ``score-model`` build it with
:func:`sequence_to_model_input`, whose occlusion mask is the one at
``DEFAULT_OCCLUSION_THRESHOLD``. ``assess --aux-model`` resamples the
candidate it has normalized already, with the exercise config's mask, so its
scores are ``score-model``'s whenever the config keeps the default threshold.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence as Seq, Tuple

import numpy as np

from .normalize import normalize_sequence
from .skeleton import (N_JOINTS, Annotation, Sequence, ValidationError,
                       input_errors, write_text_atomic)

_INIT_STD = 0.02
_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)

# The spatial stack runs this many frames at a time. Its layers each work
# inside one frame, so the size changes no output bit, only the order in
# which the spatial weight gradients are summed; a training step holds one
# chunk's spatial caches at a time.
_SPATIAL_FRAMES = 16

N_SCORES = 3    # joint, pace, range
# Checkpoints and training configs may give the joint and score counts, as
# save_checkpoint writes them; no other counts are accepted.
FIXED_COUNTS = {"n_joints": N_JOINTS, "n_scores": N_SCORES}


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


# The smallest and largest value of each STTFConfig field, which training
# configs and checkpoints share. A training step's temporal attention holds
# n_heads * seq_len**2 floats per block, 512 MiB at 4096 with 4 heads. 100000
# layers of the default width would hold 10 GB of parameters. At d_model 1024
# each attention projection is 8 MiB and flatten_proj 136 MiB, where 100000
# would make each projection 80 GB; n_heads divides d_model, so it is bounded
# too. An FFN's two weights are each 8 * mlp_ratio MiB at d_model 1024, 128 MiB
# at the bound of 16.
_CONFIG_BOUNDS = {"d_model": (1, 1024), "n_heads": (1, math.inf),
                  "spatial_layers": (0, 64), "temporal_layers": (0, 64),
                  "seq_len": (2, 4096), "mlp_ratio": (1, 16), "seed": (0, math.inf)}


@dataclass(frozen=True)
class STTFConfig:
    d_model: int = 32
    n_heads: int = 4
    spatial_layers: int = 2
    temporal_layers: int = 2
    seq_len: int = 64
    mlp_ratio: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, (minimum, maximum) in _CONFIG_BOUNDS.items():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < minimum):
                raise ValidationError(
                    f"{name} must be an integer >= {minimum}, got {value!r}")
            if value > maximum:
                raise ValidationError(f"{name} must be at most {maximum}, got {value}")
        if self.d_model % self.n_heads != 0:
            raise ValidationError("d_model must be divisible by n_heads")


def config_from_fields(fields) -> STTFConfig:
    """``STTFConfig(**fields)``, where ``fields`` may also give the
    :data:`FIXED_COUNTS`."""
    fields = dict(fields)
    for key, count in FIXED_COUNTS.items():
        value = fields.pop(key, count)
        if type(value) is not int or value != count:
            raise ValidationError(f"{key}={value!r}: only a {N_JOINTS}-joint, "
                                  f"{N_SCORES}-score model is supported")
    return STTFConfig(**fields)


class Param:
    """A named tensor with an accumulated gradient, which
    :meth:`STTFModel.zero_grads` allocates: ``grad`` is None until then."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None


Shape = Tuple[int, ...]
# An initial value: ``init(rng, shape)`` draws it from ``rng``. The type is a
# string: with NumPy 2, evaluating ``np.random`` imports ``numpy.random``
# (about 14 ms and 5.5 MB), which only a new model needs, not a loaded one.
Init = Callable[["np.random.Generator", Shape], np.ndarray]
# ``new_param(name, shape, init)`` makes the parameter called ``name``. The
# layers call it in a fixed order, which fixes what a new model draws from
# its seed.
ParamFactory = Callable[[str, Shape, Init], Param]


def random_params(rng: np.random.Generator) -> ParamFactory:
    """The factory of a new model: each ``init`` draws from ``rng``."""
    return lambda name, shape, init: Param(name, init(rng, shape))


def _normal(std: float) -> Init:
    return lambda rng, shape: rng.normal(0.0, std, shape)


def _zeroed(std: float) -> Init:
    """Zeros, after making the draw of ``_normal(std)``: what every other
    parameter draws from a seed does not depend on which weights start at 0."""
    def init(rng: np.random.Generator, shape: Shape) -> np.ndarray:
        rng.normal(0.0, std, shape)
        return np.zeros(shape)
    return init


def _full(value: float) -> Init:
    return lambda rng, shape: np.full(shape, value)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# tanh-form GELU (Hendrycks & Gimpel 2016), in one or two buffers but in the
# operation order of the one-line expressions that ``tests/test_sttf.py``
# keeps, or in one with the same bits, so the bits are theirs. Powers are
# products: NumPy computes ``x ** 3`` through ``pow``, several times slower
# than two multiplies.
def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(c (x + 0.044715 x^3))``, the term GELU and its derivative share."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu(x: np.ndarray, t: Optional[np.ndarray] = None) -> np.ndarray:
    """GELU of ``x``; pass ``t = _gelu_tanh(x)`` to reuse it, which overwrites it."""
    t = _gelu_tanh(x) if t is None else t
    t += 1.0
    # The bits of ``0.5 * x * (1 + t)`` without a buffer for ``0.5 * x``:
    # where ``1 + t`` is not 1, ``(1 + t) * x`` is far from the subnormal
    # range, so halving it last is exact.
    t *= x
    t *= 0.5
    return t


def _gelu_grad(x: np.ndarray, t: Optional[np.ndarray] = None) -> np.ndarray:
    """The derivative of GELU at ``x``; ``t = _gelu_tanh(x)`` is read, not changed."""
    t = _gelu_tanh(x) if t is None else t
    dt = t * t
    np.subtract(1.0, dt, out=dt)
    dt *= _GELU_C
    buf = x * x
    buf *= 3 * 0.044715
    buf += 1.0
    dt *= buf
    np.multiply(x, 0.5, out=buf)
    buf *= dt
    out = np.add(t, 1.0, out=dt)
    out *= 0.5
    out += buf
    return out


def _softmax(att: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place, in the order of ``exp(att - max) / sum``."""
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    return att


class Linear:
    def __init__(self, new_param: ParamFactory, name: str, d_in: int, d_out: int,
                 zero: bool = False):
        # Xavier keeps activations O(1) through the stack, which keeps the
        # input-dependent signal visible to the heads at plain-SGD scales. A
        # zero ``W`` starts a residual branch that fades in during training,
        # which keeps plain SGD stable at useful learning rates.
        std = math.sqrt(2.0 / (d_in + d_out))
        self.W = new_param(f"{name}.W", (d_in, d_out), (_zeroed if zero else _normal)(std))
        self.b = new_param(f"{name}.b", (d_out,), _full(0.0))

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        self._x = x if cache else None
        out = x @ self.W.value
        out += self.b.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        d_in, d_out = self.W.value.shape
        self.W.grad += self._x.reshape(-1, d_in).T @ grad.reshape(-1, d_out)
        self._x = None
        self.b.grad += grad.reshape(-1, d_out).sum(axis=0)
        return grad @ self.W.value.T

    def params(self) -> List[Param]:
        return [self.W, self.b]


class LayerNorm:
    def __init__(self, new_param: ParamFactory, name: str, dim: int):
        self.gamma = new_param(f"{name}.gamma", (dim,), _full(1.0))
        self.beta = new_param(f"{name}.beta", (dim,), _full(0.0))

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        # ``x.var`` subtracts the mean in the same way, so the bits are its.
        xhat = x - x.mean(axis=-1, keepdims=True)
        std = np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + _LN_EPS)
        xhat /= std
        self._xhat, self._std = (xhat, std) if cache else (None, None)
        out = np.multiply(xhat, self.gamma.value, out=None if cache else xhat)
        out += self.beta.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, std, self._xhat, self._std = self._xhat, self._std, None, None
        axes = tuple(range(grad.ndim - 1))
        self.gamma.grad += (grad * xhat).sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)
        dxhat = grad * self.gamma.value
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (dxhat - m1 - xhat * m2) / std

    def params(self) -> List[Param]:
        return [self.gamma, self.beta]


class MultiHeadSelfAttention:
    """Softmax self-attention over the middle (sequence) axis of (B, S, D)."""

    def __init__(self, new_param: ParamFactory, name: str, d_model: int, n_heads: int):
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = Linear(new_param, f"{name}.wq", d_model, d_model)
        self.wk = Linear(new_param, f"{name}.wk", d_model, d_model)
        self.wv = Linear(new_param, f"{name}.wv", d_model, d_model)
        self.wo = Linear(new_param, f"{name}.wo", d_model, d_model, zero=True)
        # (B, H, S, S) of the last forward; in a spatial block, that of the
        # last chunk of frames the stack ran.
        self.probs: Optional[np.ndarray] = None

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, s, d = x.shape
        return x.reshape(b, s, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, s, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        q = self._split(self.wq.forward(x, cache))
        k = self._split(self.wk.forward(x, cache))
        v = self._split(self.wv.forward(x, cache))
        att = q @ k.transpose(0, 1, 3, 2)
        att /= math.sqrt(self.d_head)
        self.probs = _softmax(att)
        ctx = self.probs @ v
        self._q, self._k, self._v = (q, k, v) if cache else (None, None, None)
        return self.wo.forward(self._merge(ctx), cache)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dctx = self._split(self.wo.backward(grad))
        probs, q, k, v = self.probs, self._q, self._k, self._v
        self._q = self._k = self._v = None
        dprobs = dctx @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        datt = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        scale = 1.0 / math.sqrt(self.d_head)
        dq = datt @ k * scale
        dk = datt.transpose(0, 1, 3, 2) @ q * scale
        dx = self.wq.backward(self._merge(dq))
        dx += self.wk.backward(self._merge(dk))
        dx += self.wv.backward(self._merge(dv))
        return dx

    def params(self) -> List[Param]:
        return self.wq.params() + self.wk.params() + self.wv.params() + self.wo.params()


class FeedForward:
    def __init__(self, new_param: ParamFactory, name: str, d_model: int, hidden: int):
        self.fc1 = Linear(new_param, f"{name}.fc1", d_model, hidden)
        self.fc2 = Linear(new_param, f"{name}.fc2", hidden, d_model, zero=True)

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        h = self.fc1.forward(x, cache)
        self._h = h if cache else None
        g = _gelu(h)    # backward rebuilds fc2's input
        del h           # freed before fc2's product unless cached
        return self.fc2.forward(g)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        h, self._h = self._h, None
        t = _gelu_tanh(h)
        dgelu = _gelu_grad(h, t)
        self.fc2._x = _gelu(h, t)    # overwrites t
        del h, t                     # freed before the matrix products
        dgelu *= self.fc2.backward(grad)
        return self.fc1.backward(dgelu)

    def params(self) -> List[Param]:
        return self.fc1.params() + self.fc2.params()


class EncoderBlock:
    """Pre-norm transformer block: x + MHSA(LN(x)), then + FFN(LN(.))."""

    def __init__(self, new_param: ParamFactory, name: str, d_model: int, n_heads: int,
                 mlp_ratio: int):
        self.ln1 = LayerNorm(new_param, f"{name}.ln1", d_model)
        self.attn = MultiHeadSelfAttention(new_param, f"{name}.attn", d_model, n_heads)
        self.ln2 = LayerNorm(new_param, f"{name}.ln2", d_model)
        self.ffn = FeedForward(new_param, f"{name}.ffn", d_model, mlp_ratio * d_model)

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        h = self.attn.forward(self.ln1.forward(x, cache), cache)
        h += x
        out = self.ffn.forward(self.ln2.forward(h, cache), cache)
        out += h
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dh = grad + self.ln2.backward(self.ffn.backward(grad))
        return dh + self.ln1.backward(self.attn.backward(dh))

    def params(self) -> List[Param]:
        return (self.ln1.params() + self.attn.params()
                + self.ln2.params() + self.ffn.params())


class STTFModel:
    """Spatial-then-temporal transformer with score and mistake heads."""

    def __init__(self, config: STTFConfig, new_param: Optional[ParamFactory] = None):
        """A new model drawn from ``config.seed``, or the one whose every
        parameter ``new_param`` makes."""
        self.config = config
        if new_param is None:
            new_param = random_params(np.random.default_rng(config.seed))
        d, j, t = config.d_model, N_JOINTS, config.seq_len
        self.joint_embed = Linear(new_param, "joint_embed", 2, d)
        self.spatial_pos = new_param("spatial_pos", (j, d), _normal(_INIT_STD))
        self.spatial_blocks = [
            EncoderBlock(new_param, f"spatial.{i}", d, config.n_heads, config.mlp_ratio)
            for i in range(config.spatial_layers)
        ]
        self.flatten_proj = Linear(new_param, "flatten_proj", j * d, d)
        self.temporal_pos = new_param("temporal_pos", (t, d), _normal(_INIT_STD))
        self.temporal_blocks = [
            EncoderBlock(new_param, f"temporal.{i}", d, config.n_heads, config.mlp_ratio)
            for i in range(config.temporal_layers)
        ]
        self.final_ln = LayerNorm(new_param, "final_ln", d)
        self.score_head = Linear(new_param, "score_head", d, N_SCORES)
        self.mistake_head = Linear(new_param, "mistake_head", d, 1)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> List[Param]:
        out = self.joint_embed.params() + [self.spatial_pos]
        for blk in self.spatial_blocks:
            out += blk.params()
        out += self.flatten_proj.params() + [self.temporal_pos]
        for blk in self.temporal_blocks:
            out += blk.params()
        out += self.final_ln.params()
        out += self.score_head.params() + self.mistake_head.params()
        return out

    def zero_grads(self) -> None:
        for p in self.parameters():
            if p.grad is None:
                p.grad = np.zeros_like(p.value)
            else:
                p.grad[...] = 0.0

    # -- forward / backward -------------------------------------------------

    def _check_input(self, x: np.ndarray) -> Tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 3
        if single:
            x = x[None]
        cfg = self.config
        if x.ndim != 4 or x.shape[1:] != (cfg.seq_len, N_JOINTS, 2):
            raise ValueError(
                f"expected input (B, {cfg.seq_len}, {N_JOINTS}, 2), "
                f"got {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite values in model input")
        return x, single

    def _spatial(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        """Spatial stack over checked frames (..., J, 2) -> (..., J, D)."""
        *lead, j, _ = x.shape
        tok = self.joint_embed.forward(x.reshape(-1, j, 2), cache)
        tok += self.spatial_pos.value
        for blk in self.spatial_blocks:
            tok = blk.forward(tok, cache)
        return tok.reshape(*lead, j, self.config.d_model)

    def forward(self, x, cache: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Scores in [0, 1] (shape (3,)) and per-frame mistake logits (T,).

        Batched input (B, T, 17, 2) yields (B, 3) and (B, T). The spatial
        stack runs ``_SPATIAL_FRAMES`` frames at a time and caches nothing:
        with ``cache``, the layers after it keep what :meth:`backward` reads,
        and the model keeps the checked input, from which ``backward``
        reruns the spatial stack. Without ``cache``, only the attention's
        ``probs`` stay.
        """
        x, single = self._check_input(x)
        b, t, j, _ = x.shape
        d = self.config.d_model

        frames = x.reshape(b * t, j, 2)
        h = np.empty((b * t, j, d))
        for start in range(0, b * t, _SPATIAL_FRAMES):
            chunk = slice(start, start + _SPATIAL_FRAMES)
            h[chunk] = self._spatial(frames[chunk])
        f = self.flatten_proj.forward(h.reshape(b, t, j * d), cache)
        f += self.temporal_pos.value
        for blk in self.temporal_blocks:
            f = blk.forward(f, cache)
        z = self.final_ln.forward(f, cache)

        pooled = z.mean(axis=1)
        s_logit = self.score_head.forward(pooled, cache)
        scores = _sigmoid(s_logit)
        logits = self.mistake_head.forward(z, cache)[..., 0]

        self._cache = (x, scores) if cache else None
        if single:
            return scores[0], logits[0]
        return scores, logits

    def backward(self, dscores: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
        """Backpropagate output gradients; accumulates into ``Param.grad``.

        Reads the caches of the preceding ``forward(x, cache=True)``, which
        it needs: after a forward without ``cache`` there is nothing to read.
        Past ``flatten_proj`` it reruns the spatial stack ``_SPATIAL_FRAMES``
        frames at a time, caching, and backpropagates each chunk before the
        next, so the spatial caches live only here, one chunk at a time.
        Returns the gradient of the input.
        """
        (x, scores), self._cache = self._cache, None
        b, t, j, _ = x.shape
        d = self.config.d_model
        dscores = np.asarray(dscores, dtype=np.float64).reshape(b, -1)
        dlogits = np.asarray(dlogits, dtype=np.float64).reshape(b, t)

        ds_logit = dscores * scores * (1.0 - scores)
        dpooled = self.score_head.backward(ds_logit)
        dz = np.repeat(dpooled[:, None, :] / t, t, axis=1)
        dz = dz + self.mistake_head.backward(dlogits[..., None])

        df = self.final_ln.backward(dz)
        for blk in reversed(self.temporal_blocks):
            df = blk.backward(df)
        self.temporal_pos.grad += df.sum(axis=0)
        dh = self.flatten_proj.backward(df).reshape(b * t, j, d)

        frames = x.reshape(b * t, j, 2)
        dx = np.empty_like(frames)
        for start in range(0, b * t, _SPATIAL_FRAMES):
            chunk = slice(start, start + _SPATIAL_FRAMES)
            self._spatial(frames[chunk], cache=True)
            dtok = dh[chunk]
            for blk in reversed(self.spatial_blocks):
                dtok = blk.backward(dtok)
            self.spatial_pos.grad += dtok.sum(axis=0)
            dx[chunk] = self.joint_embed.backward(dtok)
        return dx.reshape(x.shape)


# ---------------------------------------------------------------------------
# Loss: MSE on scores + binary cross-entropy on mistake logits, weighted 1:1,
# both mean-reduced.
# ---------------------------------------------------------------------------

def loss(pred: Tuple[np.ndarray, np.ndarray],
         target: Tuple[np.ndarray, np.ndarray]) -> float:
    scores, logits = (np.asarray(a, dtype=np.float64) for a in pred)
    t_scores, labels = (np.asarray(a, dtype=np.float64) for a in target)
    if scores.shape != t_scores.shape:
        raise ValueError(f"score shape {scores.shape} != target {t_scores.shape}")
    if logits.shape != labels.shape:
        raise ValueError(f"logit shape {logits.shape} != labels {labels.shape}")
    mse = float(np.mean((scores - t_scores) ** 2))
    bce = float(np.mean(np.maximum(logits, 0.0) - logits * labels
                        + np.log1p(np.exp(-np.abs(logits)))))
    return mse + bce


def backprop(model: STTFModel, x, t_scores, labels) -> float:
    """The one loss-and-gradient step: the loss of one batch, with the exact
    gradient of every parameter left in ``Param.grad``.

    The gradient is the full batch's, summed one example at a time: no layer
    couples examples, so each example runs its own forward and backward, with
    its output gradients scaled by the whole batch's sizes, and a step holds
    one example's caches. An unbatched input is a batch of one. The loss is
    taken once, over all the outputs. These are batch-1 forwards' outputs,
    as at inference: a batched ``forward`` can differ from them in the last
    bit, since BLAS may order a one-row product differently.

    A diverging model overflows without NumPy warnings: the loss comes back
    non-finite, and then the gradients are left at zero.
    """
    x, single = model._check_input(x)
    t_scores, labels = (np.asarray(a, dtype=np.float64) for a in (t_scores, labels))
    if single:
        t_scores, labels = t_scores[None], labels[None]
    n, cfg = len(x), model.config
    # Each example's targets are read before the loss checks them.
    if t_scores.shape != (n, N_SCORES) or labels.shape != (n, cfg.seq_len):
        raise ValueError(f"targets {t_scores.shape} and {labels.shape} do not "
                         f"fit {n} examples")
    scores, logits = np.empty(t_scores.shape), np.empty(labels.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        model.zero_grads()
        for i in range(n):
            scores[i:i + 1], logits[i:i + 1] = model.forward(x[i:i + 1], cache=True)
            model.backward(2.0 * (scores[i] - t_scores[i]) / t_scores.size,
                           (_sigmoid(logits[i]) - labels[i]) / labels.size)
        value = loss((scores, logits), (t_scores, labels))
        if not math.isfinite(value):
            model.zero_grads()
    return value


# ---------------------------------------------------------------------------
# Training (plain full-batch gradient descent, deterministic)
# ---------------------------------------------------------------------------

def train(model: STTFModel, dataset: Seq[Tuple[np.ndarray, np.ndarray, np.ndarray]],
          epochs: int, lr: float = 1e-2) -> List[float]:
    """Gradient-descend the model on (input, target_scores, frame_labels)
    triples; returns the per-epoch loss curve (evaluated before each update).

    Each epoch steps along the whole dataset's gradient, which
    :func:`backprop` sums one example at a time, so a step holds one
    example's caches.
    """
    if not dataset:
        raise ValidationError("empty training dataset")
    xs = np.stack([np.asarray(d[0], dtype=np.float64) for d in dataset])
    ts = np.stack([np.asarray(d[1], dtype=np.float64) for d in dataset])
    ys = np.stack([np.asarray(d[2], dtype=np.float64) for d in dataset])
    losses: List[float] = []
    params = model.parameters()
    for epoch in range(epochs):
        value = backprop(model, xs, ts, ys)
        if not math.isfinite(value):
            raise TrainingDivergedError(
                f"loss is {value} at epoch {epoch} (lr={lr}); reduce the "
                f"learning rate"
            )
        for p in params:
            p.value -= lr * p.grad
        losses.append(value)
    return losses


# ---------------------------------------------------------------------------
# Sequence -> model input
# ---------------------------------------------------------------------------

def sequence_to_model_input(seq: Sequence, seq_len: int) -> np.ndarray:
    """Normalize every frame globally, with the occlusion mask at
    ``DEFAULT_OCCLUSION_THRESHOLD``, and :func:`resample` to ``seq_len``.
    ``assess --aux-model`` resamples its candidate as normalized with the
    exercise config's mask instead."""
    canon = normalize_sequence(seq.points,
                               seq.occlusion_mask(),
                               seq.frame_ids)[0]
    return resample(canon, seq.timestamps, seq_len)


def resample(canon: np.ndarray, times: np.ndarray, seq_len: int) -> np.ndarray:
    """(T, 17, 2) canonical coordinates at ``times`` resampled to
    ``seq_len`` evenly spaced frames by linear interpolation."""
    grid = np.linspace(times[0], times[-1], seq_len)
    out = np.empty((seq_len, canon.shape[1], 2))
    for j in range(canon.shape[1]):
        for c in range(2):
            out[:, j, c] = np.interp(grid, times, canon[:, j, c])
    return out


def targets_from_annotation(seq: Sequence, ann: Annotation,
                            seq_len: int) -> Tuple[np.ndarray, np.ndarray]:
    """Training targets: scores in [0, 1] and per-resampled-frame labels.

    Uses annotated scores when present; otherwise a sequence with any
    annotated mistakes targets 0.0 and a clean one targets 1.0. A mistake on
    a frame id the sequence lacks raises :class:`ValidationError`: the
    annotation belongs to another recording.
    """
    if ann.scores is not None:
        t_scores = np.array(ann.scores, dtype=np.float64) / 100.0
    else:
        value = 0.0 if ann.per_frame_mistakes else 1.0
        t_scores = np.full(N_SCORES, value)
    labels = np.zeros(seq_len)
    if ann.per_frame_mistakes:
        times = seq.timestamps
        grid = np.linspace(times[0], times[-1], seq_len)
        by_id = dict(zip(seq.frame_ids, times.tolist()))
        for fid, _joint, _note in ann.per_frame_mistakes:
            t = by_id.get(fid)
            if t is None:
                raise ValidationError(
                    f"annotated mistake on frame {fid!r}, which the sequence lacks")
            labels[int(np.argmin(np.abs(grid - t)))] = 1.0
    return t_scores, labels


# ---------------------------------------------------------------------------
# Checkpoints: version 3, in the safetensors layout
# (https://github.com/huggingface/safetensors#format), byte-stable for
# identical models.
#
# The file is N, an unsigned 64-bit little-endian integer; then N bytes of a
# JSON header, keys sorted and padded with spaces to a multiple of 8; then
# one buffer of every parameter's values as little-endian float64 ("<f8") in
# row-major order, so the values round-trip exactly. The header maps each
# parameter name to {"dtype": "F64", "shape": [...], "data_offsets": [begin,
# end]}, byte offsets into the buffer, and the parameters tile the buffer in
# model order. Beside them, "__metadata__" holds {"format": "formcoach-sttf",
# "version": "3", "config": <STTFConfig fields and FIXED_COUNTS as sorted
# JSON>}: the layout allows only string values there. Versions 1 and 2 were
# JSON documents; a file that starts with "{" is refused.
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "formcoach-sttf"
_CHECKPOINT_VERSION = "3"


def save_checkpoint(model: STTFModel, path: os.PathLike | str) -> None:
    config = json.dumps({**asdict(model.config), **FIXED_COUNTS}, sort_keys=True)
    header = {"__metadata__": {"format": _CHECKPOINT_FORMAT,
                               "version": _CHECKPOINT_VERSION, "config": config}}
    tensors, offset = [], 0
    for p in model.parameters():
        tensors.append(p.value.astype("<f8", copy=False).tobytes())
        header[p.name] = {"dtype": "F64", "shape": list(p.value.shape),
                          "data_offsets": [offset, offset + len(tensors[-1])]}
        offset += len(tensors[-1])
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    text += b" " * (-len(text) % 8)
    write_text_atomic(path, b"".join([len(text).to_bytes(8, "little"), text, *tensors]))


def load_checkpoint(path: os.PathLike | str) -> STTFModel:
    """Load a :func:`save_checkpoint` file; messages do not name the file.

    The file's bytes are read once. The model is built from the stored
    arrays: nothing is drawn, and no gradient is allocated.
    """
    with input_errors():
        data = Path(path).read_bytes()
    if data[:1] == b"{":
        raise ValidationError("JSON checkpoints (versions 1 and 2) are no longer "
                              "supported; `formcoach train` writes a current checkpoint")
    if len(data) < 8:
        raise ValidationError(f"not an STTF checkpoint ({len(data)} bytes)")
    n = int.from_bytes(data[:8], "little")
    if n > len(data) - 8:
        raise ValidationError(f"header length {n} exceeds the {len(data) - 8} "
                              f"bytes after it")
    with input_errors():
        header = json.loads(data[8:8 + n].decode("utf-8"))
    if not isinstance(header, dict):    # the header is the params table
        raise ValidationError("params must be an object")
    meta = header.pop("__metadata__", None)
    if not isinstance(meta, dict) or meta.get("format") != _CHECKPOINT_FORMAT:
        raise ValidationError("not an STTF checkpoint")
    if meta.get("version") != _CHECKPOINT_VERSION:
        raise ValidationError(f"unsupported checkpoint version {meta.get('version')}")
    try:
        config = config_from_fields(json.loads(meta["config"]))
    except ValidationError:    # the config's own bounds name the field
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        raise ValidationError(f"malformed checkpoint ({e!r})") from e
    buffer = memoryview(data)[8 + n:]
    values, offset = {}, 0
    for name, shape in _parameter_table(config, header).items():
        values[name] = _decoded(name, shape, header[name], buffer, offset)
        offset += values[name].nbytes
    if offset != len(buffer):
        raise ValidationError(f"the tensor data has {len(buffer)} bytes, but the "
                              f"parameters end at byte {offset}")
    return STTFModel(config, lambda name, shape, init: Param(name, values[name]))


def _parameter_table(config: STTFConfig, stored: dict) -> Dict[str, Shape]:
    """The shapes of ``config``'s parameters by name, in model order, once
    ``stored`` is seen to declare exactly these, each with its shape.

    Allocates no parameter. A config too large to build never gets here:
    ``STTFConfig``'s bounds refuse it before any shape is compared.
    """
    shapes = {}

    def check(name: str, shape: Shape, init: Init) -> None:
        if name not in stored:
            raise ValidationError(f"checkpoint missing {name}")
        try:
            declared = tuple(stored[name]["shape"])
        except (KeyError, TypeError) as e:
            raise ValidationError(f"malformed {name} ({e!r})") from e
        if declared != shape:
            raise ValidationError(f"{name} has shape {declared}, expected {shape}")
        shapes[name] = shape

    STTFModel(config, check)
    extra = set(stored).difference(shapes)
    if extra:
        raise ValidationError(f"checkpoint has unexpected {min(extra)}")
    return shapes


def _decoded(name: str, shape: Shape, entry: dict, buffer: memoryview,
             begin: int) -> np.ndarray:
    """The values of a stored parameter whose declared shape is checked,
    which must start ``begin`` bytes into the tensor data ``buffer``."""
    if entry.get("dtype") != "F64":
        raise ValidationError(f"{name} has dtype {entry.get('dtype')!r}, expected 'F64'")
    offsets = entry.get("data_offsets")
    if not (isinstance(offsets, list) and len(offsets) == 2
            and all(type(v) is int for v in offsets)):
        raise ValidationError(f"{name} data_offsets must be two integers, got {offsets!r}")
    count = math.prod(shape)
    if offsets[1] - offsets[0] != 8 * count:
        raise ValidationError(f"{name} has {offsets[1] - offsets[0]} bytes of data, "
                              f"expected {8 * count} for shape {shape}")
    if offsets[0] != begin:
        raise ValidationError(f"{name} data starts at byte {offsets[0]}, expected "
                              f"{begin}: the parameters tile the data in model order")
    if offsets[1] > len(buffer):
        raise ValidationError(f"{name} data ends at byte {offsets[1]}, past the "
                              f"{len(buffer)} bytes of tensor data")
    arr = np.frombuffer(buffer, "<f8", count, begin).reshape(shape)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite values")
    return arr.astype(np.float64)    # a writable copy in native byte order

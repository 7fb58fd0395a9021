"""Desk-scale spatial-temporal transformer scorer, NumPy only.

Per frame, a spatial encoder self-attends over the 17 joint embeddings; the
per-frame joint features are then flattened, projected, and a temporal
encoder self-attends across frames. Two heads read the temporal features: a
score-regression head (three outputs in [0, 1] via a sigmoid over the
time-pooled features) and a per-frame mistake logit.

Everything is explicit forward/backward with exact gradients — no autograd —
so training is plain full-batch gradient descent and the backward pass can be
verified against central finite differences parameter by parameter.

Shapes: input is ``(T, 17, 2)`` canonical coordinates (or a ``(B, T, 17, 2)``
batch); sequences of other lengths are first resampled to ``T`` by linear
interpolation over timestamps.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence as Seq, Tuple

import numpy as np

from .normalize import normalize_sequence
from .skeleton import (N_JOINTS, Annotation, Sequence, ValidationError,
                       read_json, write_text_atomic)

_INIT_STD = 0.02
_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


# Smallest allowed value of each STTFConfig field.
_CONFIG_MINIMUM = {"d_model": 1, "n_heads": 1, "spatial_layers": 0, "temporal_layers": 0,
                   "seq_len": 2, "n_joints": 1, "n_scores": 1, "mlp_ratio": 1, "seed": 0}


@dataclass(frozen=True)
class STTFConfig:
    d_model: int = 32
    n_heads: int = 4
    spatial_layers: int = 2
    temporal_layers: int = 2
    seq_len: int = 64
    n_joints: int = 17
    n_scores: int = 3
    mlp_ratio: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, minimum in _CONFIG_MINIMUM.items():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < minimum):
                raise ValidationError(
                    f"{name} must be an integer >= {minimum}, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValidationError("d_model must be divisible by n_heads")
        if (self.n_joints, self.n_scores) != (N_JOINTS, 3):
            raise ValidationError(f"n_joints={self.n_joints}, n_scores={self.n_scores}: "
                                  f"only a 17-joint, 3-score model is supported")


class Param:
    """A named tensor with an accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x ** 3)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_C * (x + 0.044715 * x ** 3))
    dt = (1.0 - t ** 2) * _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
    return 0.5 * (1.0 + t) + 0.5 * x * dt


class Linear:
    def __init__(self, rng: np.random.Generator, name: str, d_in: int, d_out: int):
        # Xavier keeps activations O(1) through the stack, which keeps the
        # input-dependent signal visible to the heads at plain-SGD scales.
        std = math.sqrt(2.0 / (d_in + d_out))
        self.W = Param(f"{name}.W", rng.normal(0.0, std, (d_in, d_out)))
        self.b = Param(f"{name}.b", np.zeros(d_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        d_in, d_out = self.W.value.shape
        self.W.grad += self._x.reshape(-1, d_in).T @ grad.reshape(-1, d_out)
        self.b.grad += grad.reshape(-1, d_out).sum(axis=0)
        return grad @ self.W.value.T

    def params(self) -> List[Param]:
        return [self.W, self.b]


class LayerNorm:
    def __init__(self, name: str, dim: int):
        self.gamma = Param(f"{name}.gamma", np.ones(dim))
        self.beta = Param(f"{name}.beta", np.zeros(dim))

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        self._std = np.sqrt(var + _LN_EPS)
        self._xhat = (x - mu) / self._std
        return self.gamma.value * self._xhat + self.beta.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, std = self._xhat, self._std
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

    def __init__(self, rng, name: str, d_model: int, n_heads: int):
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = Linear(rng, f"{name}.wq", d_model, d_model)
        self.wk = Linear(rng, f"{name}.wk", d_model, d_model)
        self.wv = Linear(rng, f"{name}.wv", d_model, d_model)
        self.wo = Linear(rng, f"{name}.wo", d_model, d_model)
        # zero-init the residual-branch output so blocks fade in during
        # training; keeps plain SGD stable at useful learning rates
        self.wo.W.value[...] = 0.0
        self.probs: Optional[np.ndarray] = None   # (B, H, S, S) of last forward

    def _split(self, x: np.ndarray) -> np.ndarray:
        b, s, d = x.shape
        return x.reshape(b, s, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        b, h, s, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = self._split(self.wq.forward(x))
        k = self._split(self.wk.forward(x))
        v = self._split(self.wv.forward(x))
        att = q @ k.transpose(0, 1, 3, 2) / math.sqrt(self.d_head)
        att -= att.max(axis=-1, keepdims=True)
        ex = np.exp(att)
        probs = ex / ex.sum(axis=-1, keepdims=True)
        ctx = probs @ v
        self._q, self._k, self._v, self.probs = q, k, v, probs
        return self.wo.forward(self._merge(ctx))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dctx = self._split(self.wo.backward(grad))
        probs, q, k, v = self.probs, self._q, self._k, self._v
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
    def __init__(self, rng, name: str, d_model: int, hidden: int):
        self.fc1 = Linear(rng, f"{name}.fc1", d_model, hidden)
        self.fc2 = Linear(rng, f"{name}.fc2", hidden, d_model)
        self.fc2.W.value[...] = 0.0    # residual branch fades in

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._h = self.fc1.forward(x)
        return self.fc2.forward(_gelu(self._h))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dg = self.fc2.backward(grad)
        return self.fc1.backward(dg * _gelu_grad(self._h))

    def params(self) -> List[Param]:
        return self.fc1.params() + self.fc2.params()


class EncoderBlock:
    """Pre-norm transformer block: x + MHSA(LN(x)), then + FFN(LN(.))."""

    def __init__(self, rng, name: str, d_model: int, n_heads: int, mlp_ratio: int):
        self.ln1 = LayerNorm(f"{name}.ln1", d_model)
        self.attn = MultiHeadSelfAttention(rng, f"{name}.attn", d_model, n_heads)
        self.ln2 = LayerNorm(f"{name}.ln2", d_model)
        self.ffn = FeedForward(rng, f"{name}.ffn", d_model, mlp_ratio * d_model)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x + self.attn.forward(self.ln1.forward(x))
        return h + self.ffn.forward(self.ln2.forward(h))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dh = grad + self.ln2.backward(self.ffn.backward(grad))
        return dh + self.ln1.backward(self.attn.backward(dh))

    def params(self) -> List[Param]:
        return (self.ln1.params() + self.attn.params()
                + self.ln2.params() + self.ffn.params())


class STTFModel:
    """Spatial-then-temporal transformer with score and mistake heads."""

    def __init__(self, config: STTFConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d, j, t = config.d_model, config.n_joints, config.seq_len
        self.joint_embed = Linear(rng, "joint_embed", 2, d)
        self.spatial_pos = Param("spatial_pos", rng.normal(0.0, _INIT_STD, (j, d)))
        self.spatial_blocks = [
            EncoderBlock(rng, f"spatial.{i}", d, config.n_heads, config.mlp_ratio)
            for i in range(config.spatial_layers)
        ]
        self.flatten_proj = Linear(rng, "flatten_proj", j * d, d)
        self.temporal_pos = Param("temporal_pos", rng.normal(0.0, _INIT_STD, (t, d)))
        self.temporal_blocks = [
            EncoderBlock(rng, f"temporal.{i}", d, config.n_heads, config.mlp_ratio)
            for i in range(config.temporal_layers)
        ]
        self.final_ln = LayerNorm("final_ln", d)
        self.score_head = Linear(rng, "score_head", d, config.n_scores)
        self.mistake_head = Linear(rng, "mistake_head", d, 1)

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
            p.grad[...] = 0.0

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.value.ravel() for p in self.parameters()])

    # -- forward / backward -------------------------------------------------

    def _check_input(self, x: np.ndarray) -> Tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 3
        if single:
            x = x[None]
        cfg = self.config
        if x.ndim != 4 or x.shape[1:] != (cfg.seq_len, cfg.n_joints, 2):
            raise ValueError(
                f"expected input (B, {cfg.seq_len}, {cfg.n_joints}, 2), "
                f"got {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite values in model input")
        return x, single

    def _spatial(self, x: np.ndarray) -> np.ndarray:
        """Spatial stack over checked input (B, T, J, 2) -> (B, T, J, D)."""
        b, t, j, _ = x.shape
        d = self.config.d_model
        tok = self.joint_embed.forward(x) + self.spatial_pos.value
        h = tok.reshape(b * t, j, d)
        for blk in self.spatial_blocks:
            h = blk.forward(h)
        return h.reshape(b, t, j, d)

    def forward(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Scores in [0, 1] (shape (3,)) and per-frame mistake logits (T,).

        Batched input (B, T, 17, 2) yields (B, 3) and (B, T).
        """
        x, single = self._check_input(x)
        b, t, j, _ = x.shape
        d = self.config.d_model

        h = self._spatial(x).reshape(b, t, j * d)
        f = self.flatten_proj.forward(h) + self.temporal_pos.value
        for blk in self.temporal_blocks:
            f = blk.forward(f)
        z = self.final_ln.forward(f)

        pooled = z.mean(axis=1)
        s_logit = self.score_head.forward(pooled)
        scores = _sigmoid(s_logit)
        logits = self.mistake_head.forward(z)[..., 0]

        self._cache = (b, t, j, d, scores)
        if single:
            return scores[0], logits[0]
        return scores, logits

    def backward(self, dscores: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
        """Backpropagate output gradients; accumulates into ``Param.grad``."""
        b, t, j, d, scores = self._cache
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
        dh = self.flatten_proj.backward(df)
        dh = dh.reshape(b * t, j, d)
        for blk in reversed(self.spatial_blocks):
            dh = blk.backward(dh)
        dtok = dh.reshape(b, t, j, d)
        self.spatial_pos.grad += dtok.sum(axis=(0, 1))
        return self.joint_embed.backward(dtok)


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


def _loss_grads(scores, logits, t_scores, labels):
    dscores = 2.0 * (scores - t_scores) / scores.size
    dlogits = (_sigmoid(logits) - labels) / logits.size
    return dscores, dlogits


def compute_gradients(model: STTFModel, x,
                      target: Tuple[np.ndarray, np.ndarray]
                      ) -> Tuple[float, Dict[str, np.ndarray]]:
    """Loss and exact gradients of every parameter for one batch."""
    model.zero_grads()
    scores, logits = model.forward(x)
    t_scores, labels = (np.asarray(a, dtype=np.float64) for a in target)
    value = loss((scores, logits), (t_scores, labels))
    dscores, dlogits = _loss_grads(scores, logits, t_scores, labels)
    model.backward(dscores, dlogits)
    return value, {p.name: p.grad.copy() for p in model.parameters()}


# ---------------------------------------------------------------------------
# Training (plain full-batch gradient descent, deterministic)
# ---------------------------------------------------------------------------

def train(model: STTFModel, dataset: Seq[Tuple[np.ndarray, np.ndarray, np.ndarray]],
          epochs: int, lr: float = 1e-2) -> List[float]:
    """Gradient-descend the model on (input, target_scores, frame_labels)
    triples; returns the per-epoch loss curve (evaluated before each update).
    """
    if not dataset:
        raise ValidationError("empty training dataset")
    xs = np.stack([np.asarray(d[0], dtype=np.float64) for d in dataset])
    ts = np.stack([np.asarray(d[1], dtype=np.float64) for d in dataset])
    ys = np.stack([np.asarray(d[2], dtype=np.float64) for d in dataset])
    losses: List[float] = []
    params = model.parameters()
    for epoch in range(epochs):
        model.zero_grads()
        scores, logits = model.forward(xs)
        value = loss((scores, logits), (ts, ys))
        if not math.isfinite(value):
            raise TrainingDivergedError(
                f"loss is {value} at epoch {epoch} (lr={lr}); reduce the "
                f"learning rate"
            )
        dscores, dlogits = _loss_grads(scores, logits, ts, ys)
        model.backward(dscores, dlogits)
        for p in params:
            p.value -= lr * p.grad
        losses.append(value)
    return losses


# ---------------------------------------------------------------------------
# Gradient verification against central finite differences
# ---------------------------------------------------------------------------

def _param_kind(name: str) -> str:
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


def gradient_check(model: STTFModel, x, target,
                   n_samples: int = 64, h: float = 1e-5,
                   seed: int = 0) -> List[Tuple[str, int, float, float, float]]:
    """Compare analytic gradients with central differences on a stratified
    random sample of parameters covering every layer kind.

    Returns (param_name, flat_index_within_param, analytic, numeric,
    relative_error) per sampled coordinate.
    """
    rng = np.random.default_rng(seed)
    _, grads = compute_gradients(model, x, target)
    params = model.parameters()
    by_kind: Dict[str, List[Param]] = {}
    for p in params:
        by_kind.setdefault(_param_kind(p.name), []).append(p)

    kinds = sorted(by_kind)
    picks: List[Tuple[Param, int]] = []
    k = 0
    while len(picks) < n_samples:
        kind = kinds[k % len(kinds)]
        p = by_kind[kind][rng.integers(len(by_kind[kind]))]
        picks.append((p, int(rng.integers(p.value.size))))
        k += 1

    t_scores, labels = target
    results = []
    for p, idx in picks:
        flat = p.value.ravel()
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss(model.forward(x), (t_scores, labels))
        flat[idx] = orig - h
        down = loss(model.forward(x), (t_scores, labels))
        flat[idx] = orig
        numeric = (up - down) / (2.0 * h)
        analytic = grads[p.name].ravel()[idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        results.append((p.name, idx, float(analytic), float(numeric), float(rel)))
    return results


# ---------------------------------------------------------------------------
# Sequence -> model input
# ---------------------------------------------------------------------------

def sequence_to_model_input(seq: Sequence, seq_len: int,
                            occlusion_threshold: float = 0.05) -> np.ndarray:
    """Normalize every frame globally and :func:`resample` to ``seq_len``."""
    canon = normalize_sequence(seq.points_array(),
                               seq.occlusion_mask(occlusion_threshold),
                               [f.frame_id for f in seq.frames])[0]
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
        t_scores = np.full(3, value)
    labels = np.zeros(seq_len)
    if ann.per_frame_mistakes:
        times = seq.timestamps
        grid = np.linspace(times[0], times[-1], seq_len)
        by_id = {f.frame_id: f.timestamp for f in seq.frames}
        for fid, _joint, _note in ann.per_frame_mistakes:
            t = by_id.get(fid)
            if t is None:
                raise ValidationError(
                    f"annotated mistake on frame {fid!r}, which the sequence lacks")
            labels[int(np.argmin(np.abs(grid - t)))] = 1.0
    return t_scores, labels


# ---------------------------------------------------------------------------
# Checkpoints (versioned JSON; byte-stable for identical models)
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = "formcoach-sttf"
_CHECKPOINT_VERSION = 1


def save_checkpoint(model: STTFModel, path: os.PathLike | str) -> None:
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "params": {p.name: {"shape": list(p.value.shape),
                            "data": p.value.ravel().tolist()}
                   for p in model.parameters()},
    }
    write_text_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path: os.PathLike | str) -> STTFModel:
    """Load a :func:`save_checkpoint` file; messages do not name the file."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != _CHECKPOINT_FORMAT:
        raise ValidationError("not an STTF checkpoint")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise ValidationError(f"unsupported checkpoint version {doc.get('version')}")
    try:
        model = STTFModel(STTFConfig(**doc["config"]))
        stored = doc["params"]
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed checkpoint ({e!r})") from e
    for p in model.parameters():
        if p.name not in stored:
            raise ValidationError(f"checkpoint missing {p.name}")
        entry = stored[p.name]
        try:
            arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed {p.name} ({e!r})") from e
        if arr.shape != p.value.shape:
            raise ValidationError(
                f"{p.name} has shape {arr.shape}, expected {p.value.shape}"
            )
        p.value[...] = arr
    return model

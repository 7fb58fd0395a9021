import base64
import json
from dataclasses import asdict

import numpy as np
import pytest

import reference
from formcoach import sttf
from formcoach.skeleton import JointId, ValidationError
from formcoach.sttf import (STTFConfig, STTFModel, TrainingDivergedError,
                            compute_gradients, gradient_check, load_checkpoint,
                            loss, save_checkpoint, sequence_to_model_input,
                            targets_from_annotation, train)
from formcoach.synth import MotionSpec, generate

SMALL = STTFConfig(d_model=8, n_heads=2, spatial_layers=1, temporal_layers=1,
                   seq_len=8, seed=0)


def random_input(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, (cfg.seq_len, cfg.n_joints, 2))


def random_target(cfg, seed=0):
    rng = np.random.default_rng(seed + 1)
    return (rng.uniform(0.1, 0.9, cfg.n_scores),
            (rng.uniform(size=cfg.seq_len) > 0.5).astype(float))


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
        assert np.array_equal(a.get_flat(), b.get_flat())

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
        perm = rng.permutation(SMALL.n_joints)
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
        kinds = {sttf._param_kind(name) for name, *_ in results}
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
        before = model.get_flat()
        train(model, self.make_dataset(), epochs=5, lr=0.0)
        assert np.array_equal(model.get_flat(), before)

    def test_same_seed_same_curve(self):
        curves = []
        for _ in range(2):
            model = STTFModel(SMALL)
            curves.append(train(model, self.make_dataset(), epochs=6, lr=1e-2))
        assert curves[0] == curves[1]

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


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = STTFModel(SMALL)
        train(model, [(random_input(SMALL), np.full(3, 0.5),
                       np.zeros(SMALL.seq_len))], epochs=2, lr=0.1)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert np.array_equal(loaded.get_flat(), model.get_flat())
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
        from formcoach.skeleton import ValidationError
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ['{"format": "formcoach-st', "[1, 2]", "\xff"],
                             ids=["truncated", "list", "not-utf8"])
    def test_invalid_json_is_validation_error(self, tmp_path, text):
        from formcoach.skeleton import ValidationError
        path = tmp_path / "x.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, match", [
        ("n_heads", 3, "malformed checkpoint"),
        ("n_joints", 16, "17-joint"),
        ("n_scores", 2, "3-score"),
    ], ids=["heads", "joints", "scores"])
    def test_invalid_config_is_validation_error(self, tmp_path, key, value, match):
        from formcoach.skeleton import ValidationError
        path = tmp_path / "model.json"
        save_checkpoint(STTFModel(SMALL), path)
        doc = json.loads(path.read_text())
        doc["config"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=match):
            load_checkpoint(path)

    def test_data_is_base64_little_endian_float64_row_major(self, tmp_path):
        model = STTFModel(SMALL)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 2
        for p in model.parameters():
            entry = doc["params"][p.name]
            assert entry["shape"] == list(p.value.shape)
            raw = base64.b64decode(entry["data"], validate=True)
            assert np.array_equal(
                np.frombuffer(raw, "<f8").reshape(entry["shape"]), p.value)

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

    @staticmethod
    def edited(tmp_path, edit):
        """A saved SMALL checkpoint with ``edit`` applied to its document."""
        path = tmp_path / "model.json"
        save_checkpoint(STTFModel(SMALL), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("params", [5, "score_head.b", ["score_head.b"]],
                             ids=["number", "string", "list"])
    def test_params_must_be_an_object(self, tmp_path, params):
        path = self.edited(tmp_path, lambda doc: doc.update(params=params))
        with pytest.raises(ValidationError, match="params must be an object"):
            load_checkpoint(path)

    @staticmethod
    def with_score_bias(tmp_path, data):
        return TestCheckpoint.edited(
            tmp_path, lambda doc: doc["params"]["score_head.b"].update(data=data))

    @pytest.mark.parametrize("data", [
        "A" * 16 + " " + "A" * 16, "A" * 16 + "*" + "A" * 16, "A" * 33, [0.0, 0.0, 0.0],
        base64.b64encode(bytes(16)).decode(), base64.b64encode(bytes(20)).decode(),
        base64.b64encode(bytes(32)).decode(),
    ], ids=["space", "alphabet", "padding", "v1-list", "short", "ragged", "long"])
    def test_bad_data_names_the_parameter(self, tmp_path, data):
        with pytest.raises(ValidationError, match="score_head.b"):
            load_checkpoint(self.with_score_bias(tmp_path, data))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_refused(self, tmp_path, value):
        data = base64.b64encode(np.array([0.0, value, 0.0], "<f8").tobytes())
        path = self.with_score_bias(tmp_path, data.decode())
        with pytest.raises(ValidationError,
                           match="score_head.b has non-finite values"):
            load_checkpoint(path)

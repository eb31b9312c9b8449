import json

import numpy as np
import pytest

from helpers import random_normalized, random_transform, train_reference
from softalign import weaktrain
from softalign.geometry import Transform
from softalign.grids import FeatureGrid
from softalign.matching import correlate
from softalign.softinlier import (
    FilteredScores,
    default_threshold,
    identity_mask,
    soft_inlier_count,
    soft_inlier_grad,
    warp_mask,
)
from softalign.weaktrain import (
    RegressorModel,
    TrainConfig,
    init_model,
    load_model,
    loss_and_grad,
    predict,
    save_model,
    train,
)


def random_pair(rng, h=6, w=6, d=8):
    return random_normalized(rng, h, w, d), random_normalized(rng, h, w, d)


def offpeak_model(seed, h=6, w=6, hidden=4):
    """A small model with signal in every layer, predicting near — but not
    exactly at — the identity, so the loss surface is smooth around it."""
    rng = np.random.default_rng(seed)
    base = init_model(h, w, TrainConfig(hidden=hidden, seed=seed))
    return RegressorModel(
        "affine", h, w,
        base.W1,
        rng.normal(0, 0.05, hidden),
        rng.normal(0, 0.02, (6, hidden)),
        base.b2 + rng.uniform(-0.04, 0.04, 6) + np.array([0, 0, 0.013, 0, 0, -0.017]),
    )


class TestConfigAndInit:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="hidden"):
            TrainConfig(hidden=0)
        with pytest.raises(ValueError, match="batch"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="step"):
            TrainConfig(step=0.0)
        with pytest.raises(ValueError, match="step"):
            TrainConfig(step=float("nan"))
        with pytest.raises(ValueError, match="family"):
            TrainConfig(family="rigid")

    def test_identity_initialization_contract(self):
        rng = np.random.default_rng(110)
        model = init_model(6, 6, TrainConfig(hidden=16, seed=0))
        assert np.all(model.W2 == 0.0)
        np.testing.assert_array_equal(model.b2, [1, 0, 0, 0, 1, 0])
        for _ in range(5):
            f_s, f_t = random_pair(rng)
            T = predict(model, correlate(f_s, f_t))
            np.testing.assert_array_equal(T.params, [1, 0, 0, 0, 1, 0])

    def test_init_is_seeded(self):
        a = init_model(6, 6, TrainConfig(seed=3))
        b = init_model(6, 6, TrainConfig(seed=3))
        c = init_model(6, 6, TrainConfig(seed=4))
        np.testing.assert_array_equal(a.W1, b.W1)
        assert not np.array_equal(a.W1, c.W1)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="W1"):
            RegressorModel("affine", 6, 6, np.zeros((4, 7)), np.zeros(4),
                           np.zeros((6, 4)), np.zeros(6))
        with pytest.raises(ValueError, match="W2"):
            RegressorModel("affine", 6, 6, np.zeros((4, 1296)), np.zeros(4),
                           np.zeros((8, 4)), np.zeros(6))
        bad = np.zeros(6)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            RegressorModel("affine", 6, 6, np.zeros((4, 1296)), np.zeros(4),
                           np.zeros((6, 4)), bad)


class TestPredict:
    def test_deterministic(self):
        rng = np.random.default_rng(111)
        model = offpeak_model(7)
        s = correlate(*random_pair(rng))
        a = predict(model, s)
        b = predict(model, s)
        np.testing.assert_array_equal(a.params, b.params)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(112)
        model = init_model(6, 6)
        s = correlate(*random_pair(rng, h=5, w=5))
        with pytest.raises(ValueError, match="does not match"):
            predict(model, s)

    def test_sensitivity_follows_first_layer_columns(self):
        # g must react to an s entry iff its W1 column is nonzero
        # (hidden units forced active so the relu cannot gate the signal)
        h = w = 4
        n_in = (h * w) ** 2
        rng = np.random.default_rng(113)
        W1 = rng.normal(size=(3, n_in))
        dead = 17
        W1[:, dead] = 0.0
        model = RegressorModel(
            "affine", h, w, W1, np.full(3, 5.0),
            rng.normal(size=(6, 3)), np.array([1.0, 0, 0, 0, 1.0, 0]),
        )
        f_s, f_t = random_pair(rng, h, w)
        s = correlate(f_s, f_t)
        base = predict(model, s).params.copy()

        bumped = s.data.copy().ravel()
        bumped[dead] += 0.125
        from softalign.matching import CorrelationTensor
        s_dead = CorrelationTensor(bumped.reshape(s.data.shape))
        np.testing.assert_array_equal(predict(model, s_dead).params, base)

        live = 18
        assert np.any(W1[:, live] != 0)
        bumped = s.data.copy().ravel()
        bumped[live] += 0.125
        s_live = CorrelationTensor(bumped.reshape(s.data.shape))
        assert not np.array_equal(predict(model, s_live).params, base)


class TestLossAndGrad:
    def test_identity_init_base_case(self):
        rng = np.random.default_rng(114)
        f_s, f_t = random_pair(rng)
        model = init_model(6, 6, TrainConfig(hidden=8, seed=2))
        t = default_threshold(6, 6)
        loss, grads = loss_and_grad(model, f_s, f_t, t)

        s = correlate(f_s, f_t)
        m_id = identity_mask(6, 6, t)
        c_id = soft_inlier_count(s, warp_mask(m_id, Transform.identity("affine"))).c
        np.testing.assert_allclose(loss, -c_id, rtol=1e-12)
        dc_dg, _ = soft_inlier_grad(s, m_id, Transform.identity("affine"))
        np.testing.assert_array_equal(grads["b2"], -dc_dg)
        # W2 = 0 blocks everything upstream
        np.testing.assert_array_equal(grads["W1"], 0.0)
        np.testing.assert_array_equal(grads["b1"], 0.0)

    def test_full_parameter_finite_differences(self):
        # seed chosen so no warped coordinate or hidden pre-activation sits
        # within the FD step of a kink (verified worst rel err 4.4e-6)
        rng = np.random.default_rng(1)
        f_s, f_t = random_pair(rng)
        model = offpeak_model(1)
        _, grads = loss_and_grad(model, f_s, f_t)
        eps = 1e-6
        worst = 0.0
        for name in ("W1", "b1", "W2", "b2"):
            arr = getattr(model, name)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _ = loss_and_grad(model, f_s, f_t)
                arr[idx] = orig - eps
                lm, _ = loss_and_grad(model, f_s, f_t)
                arr[idx] = orig
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(grads[name][idx]), 1e-8)
                worst = max(worst, abs(fd - grads[name][idx]) / denom)
        assert worst <= 1e-4, worst

    def test_zero_correlation_pair(self):
        rng = np.random.default_rng(115)
        f_s = FeatureGrid(np.abs(random_normalized(rng, 6, 6, 8).data))
        f_t = FeatureGrid(-np.abs(random_normalized(rng, 6, 6, 8).data))
        model = offpeak_model(3)
        loss, grads = loss_and_grad(model, f_s, f_t)
        assert loss == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)


class TestTrain:
    def test_self_pairs_stay_near_optimum(self):
        # the identity is already optimal for self-pairs; the sampled count
        # has one-sided slopes at its peak, so finite steps oscillate — the
        # contract is staying pinned to the optimum, not literal descent
        rng = np.random.default_rng(116)
        pairs = []
        for _ in range(6):
            g = random_normalized(rng, 6, 6, 8)
            pairs.append((g, g))
        model, trace = train(pairs, TrainConfig(epochs=10, batch_size=4, hidden=8, seed=1))
        assert trace[-1] <= trace[0] + 0.01 * abs(trace[0])
        s = correlate(pairs[0][0], pairs[0][1])
        T = predict(model, s)
        dev = np.abs(T.params - np.array([1, 0, 0, 0, 1, 0]))
        assert dev.max() < 0.02

    def test_seed_determinism(self):
        rng = np.random.default_rng(117)
        pairs = [random_pair(rng) for _ in range(5)]
        cfg = TrainConfig(epochs=2, batch_size=2, hidden=6, seed=9)
        m1, t1 = train(pairs, cfg)
        m2, t2 = train(pairs, cfg)
        for k, v in m1.parameters().items():
            np.testing.assert_array_equal(v, m2.parameters()[k])
        assert t1 == t2

    @pytest.mark.parametrize("threshold", [None, 1.5])
    def test_trace_equals_full_pass_loss(self, threshold):
        # the per-epoch trace computes the loss alone; it must equal the mean
        # loss of full loss-and-gradient passes at the same model
        rng = np.random.default_rng(121)
        pairs = [random_pair(rng) for _ in range(5)]
        cfg = TrainConfig(epochs=3, batch_size=2, hidden=6, seed=4, threshold=threshold)
        model, trace = train(pairs, cfg)
        t = threshold or default_threshold(6, 6)

        def full_pass(m):
            return float(np.mean([loss_and_grad(m, f_s, f_t, t)[0] for f_s, f_t in pairs]))

        assert trace[0] == pytest.approx(full_pass(init_model(6, 6, cfg)), rel=1e-12)
        assert trace[-1] == pytest.approx(full_pass(model), rel=1e-12)
        assert trace[-1] != trace[0]

    def test_trace_layout(self):
        rng = np.random.default_rng(118)
        pairs = [random_pair(rng) for _ in range(3)]
        _, trace = train(pairs, TrainConfig(epochs=4, batch_size=2, hidden=4))
        assert len(trace) == 5

    def test_weak_supervision_interface(self):
        rng = np.random.default_rng(119)
        f_s, f_t = random_pair(rng)
        with pytest.raises(TypeError, match="pair"):
            train([(f_s, f_t, Transform.identity("affine"))], TrainConfig(epochs=1))
        with pytest.raises(TypeError, match="FeatureGrid"):
            train([(f_s, Transform.identity("affine"))], TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="at least one"):
            train([], TrainConfig(epochs=1))

    def test_mixed_grid_sizes_rejected(self):
        rng = np.random.default_rng(120)
        with pytest.raises(ValueError, match="6x6"):
            train([random_pair(rng, 6, 6), random_pair(rng, 5, 5)],
                  TrainConfig(epochs=1))

    def test_epochs_zero_forbidden(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)


class TestBatchedTrainer:
    """The batched step against the per-pair loop it replaced
    (``helpers.train_reference``): the same arithmetic summed in another
    order, so traces and parameters agree to a tolerance set from float64
    rounding, not bit for bit."""

    @pytest.mark.parametrize("family", ["affine", "homography", "tps"])
    @pytest.mark.parametrize("threshold", [None, 1.5], ids=["t<=1", "t>1"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_matches_per_pair_loop(self, family, threshold, batch_size):
        rng = np.random.default_rng(131)
        pairs = [random_pair(rng) for _ in range(7)]  # batches of 3: 3 + 3 + 1
        cfg = TrainConfig(epochs=3, batch_size=batch_size, hidden=6, seed=5, family=family,
                          threshold=threshold, step=1e-2)
        model, trace = train(pairs, cfg)
        ref_model, ref_trace = train_reference(pairs, cfg)
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-12, atol=0)
        assert trace[-1] != trace[0]
        for name, value in ref_model.parameters().items():
            np.testing.assert_allclose(model.parameters()[name], value, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ["affine", "homography", "tps"])
    @pytest.mark.parametrize("t", [0.8, 1.5])
    def test_batched_gather_rows_equal_single_gathers(self, family, t):
        rng = np.random.default_rng(132)
        volumes = [correlate(*random_pair(rng, 6, 7)) for _ in range(4)]
        filtered = FilteredScores(iter(volumes), t, count=len(volumes))
        pairs = np.array([2, 0, 3, 2, 1])
        params = np.stack([random_transform(rng, family, 0.5).params for _ in pairs])
        for k, s in enumerate(volumes):  # the stack holds each pair's own S_t and scores
            np.testing.assert_array_equal(filtered.padded[k], FilteredScores(s, t).padded[0])
            np.testing.assert_array_equal(filtered.scores[k], s.data)
        c, dc_dg = filtered.gather_many(family, params, pairs, grad=True)
        assert c.shape == (5,) and dc_dg.shape == params.shape
        for b, pair in enumerate(pairs):
            T = Transform(family, params[b])
            one = FilteredScores(volumes[pair], t).gather(T)
            assert c[b] == pytest.approx(one.c, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(dc_dg[b], one.dc_dg(), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(filtered.gather_many(family, params, pairs), c)

    def test_stack_checks_its_volumes(self):
        rng = np.random.default_rng(136)
        volumes = [correlate(*random_pair(rng)) for _ in range(3)]
        with pytest.raises(ValueError, match="expected 4"):
            FilteredScores(iter(volumes), 1.0, count=4)
        with pytest.raises(ValueError, match="more than 2"):
            FilteredScores(iter(volumes), 1.0, count=2)
        with pytest.raises(ValueError, match="differs from the first"):
            FilteredScores(volumes + [correlate(*random_pair(rng, 5, 5))], 1.0)

    def test_batched_gather_raises_the_loops_first_error(self):
        rng = np.random.default_rng(133)
        filtered = FilteredScores([correlate(*random_pair(rng)) for _ in range(2)], 1.0)
        good = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        flat = [2.0, 4.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0]  # |det| = 0
        vanishing = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0]  # denominator 0 at x = 1
        for rows in ([good, flat, vanishing], [good, vanishing, flat]):
            with pytest.raises(ValueError) as loop_error:
                for row, pair in zip(rows, [0, 1, 0]):
                    filtered.gather(Transform("homography", row), pair)
            with pytest.raises(ValueError) as batch_error:
                filtered.gather_many("homography", rows, [0, 1, 0], grad=True)
            assert str(batch_error.value) == str(loop_error.value)

    @pytest.mark.parametrize("family, b2", [
        ("affine", [2.0, 4.0, 0.0, 1.0, 2.0, 0.0]),
        ("homography", [2.0, 4.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0]),
        ("tps", [np.nan] + [0.0] * 17),
    ])
    def test_degenerate_prediction_raises_like_the_loop(self, monkeypatch, family, b2):
        init = weaktrain.init_model

        def degenerate_init(h, w, cfg):
            model = init(h, w, cfg)
            model.b2[:] = b2  # W2 starts at zero, so every pair predicts b2
            return model

        monkeypatch.setattr(weaktrain, "init_model", degenerate_init)
        rng = np.random.default_rng(134)
        pairs = [random_pair(rng) for _ in range(3)]
        cfg = TrainConfig(epochs=1, batch_size=2, hidden=4, family=family)
        with pytest.raises(ValueError) as ref_error:
            train_reference(pairs, cfg)
        with pytest.raises(ValueError) as batch_error:
            train(pairs, cfg)
        assert str(batch_error.value) == str(ref_error.value)

    @pytest.mark.parametrize("family", ["homography", "tps"])
    def test_seeded_runs_bit_identical(self, family):
        rng = np.random.default_rng(135)
        pairs = [random_pair(rng) for _ in range(5)]
        cfg = TrainConfig(epochs=2, batch_size=3, hidden=5, seed=8, family=family, step=1e-2)
        m1, t1 = train(pairs, cfg)
        m2, t2 = train(pairs, cfg)
        assert t1 == t2
        for name, value in m1.parameters().items():
            np.testing.assert_array_equal(value, m2.parameters()[name])


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = offpeak_model(21)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.family == model.family
        assert (back.grid_h, back.grid_w) == (model.grid_h, model.grid_w)
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v, back.parameters()[k])

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(ValueError, match="checkpoint"):
            load_model(path)
        path.write_text("not json at all\n")
        with pytest.raises(ValueError, match="checkpoint"):
            load_model(path)

    def test_version_checked(self, tmp_path):
        model = init_model(4, 4, TrainConfig(hidden=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("field, value, match", [
        ("hidden", float("inf"), "hidden"),
        ("hidden", -2, "hidden"),
        ("hidden", True, "hidden"),
        ("hidden", 2.0, "hidden"),
        ("grid", [-2, 2], "grid"),
        ("grid", [2, True], "grid"),
        ("grid", [2], "grid"),
        ("family", ["affine"], "family"),
    ])
    def test_bad_fields_rejected(self, tmp_path, field, value, match):
        path = tmp_path / "model.json"
        save_model(init_model(2, 2, TrainConfig(hidden=2)), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    def test_model_rejects_bad_grid(self):
        base = init_model(2, 2, TrainConfig(hidden=2))
        for grid in ((-2, 2), (2, 0), (2.0, 2), (True, 2)):
            with pytest.raises(ValueError, match="grid"):
                RegressorModel("affine", *grid, base.W1, base.b1, base.W2, base.b2)

    def test_fuzzed_checkpoints_raise_only_value_error(self, tmp_path):
        # seeded mutations of a saved checkpoint, at the JSON-field and the
        # text level: each must load or raise ValueError, nothing else
        path = tmp_path / "model.json"
        save_model(init_model(2, 2, TrainConfig(hidden=2, seed=1)), path)
        text = path.read_text()
        odd = [None, True, False, 0, -2, 2, 3, 2.5, 1e308, float("inf"), float("-inf"),
               float("nan"), 10**30, -(10**30), 10**400, "x", "2", "", [], {}, [2, 2],
               [-2, 2], [2, 2, 2], [[1.0]], [1.0, "x"], [10**400], {"a": 1}, "affine", "tps"]
        fields = [("format",), ("version",), ("family",), ("grid",), ("grid", 0), ("grid", 1),
                  ("hidden",), ("weights",)] + [
                  ("weights", k) for k in ("W1", "b1", "W2", "b2")] + [
                  ("weights", k, 0) for k in ("W1", "b1", "W2", "b2")]
        rng = np.random.default_rng(2024)
        outcomes = {"loaded": 0, "rejected": 0}
        for trial in range(600):
            if trial % 3:
                payload = json.loads(text)
                for _ in range(int(rng.integers(1, 3))):
                    *parents, last = fields[int(rng.integers(len(fields)))]
                    _set_field(payload, parents, last, odd[int(rng.integers(len(odd)))],
                               delete=rng.random() < 0.2)
                path.write_text(json.dumps(payload))
            else:
                chars = list(text)
                pos = int(rng.integers(len(chars)))
                if rng.random() < 0.3:
                    chars = chars[:pos]
                else:
                    chars[pos] = chr(int(rng.integers(32, 256)))
                path.write_text("".join(chars), encoding="latin-1")
            try:
                load_model(path)
                outcomes["loaded"] += 1
            except ValueError:
                outcomes["rejected"] += 1
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 300, outcomes


def _set_field(payload, parents, last, value, delete=False):
    """Set (or delete) ``payload[parents...][last]`` where that path exists."""
    node = payload
    for key in parents:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    try:
        if delete and isinstance(node, dict):
            node.pop(last, None)
        else:
            node[last] = value
    except (IndexError, TypeError):
        pass

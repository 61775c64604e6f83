"""Targeted tests for smaller code paths not covered elsewhere."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.tensor import unbroadcast


class TestTensorEdgeCases:
    def test_max_keepdims(self):
        t = Tensor([[1.0, 5.0], [7.0, 2.0]])
        out = t.max(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_max_tie_splits_gradient(self):
        t = Tensor([[3.0, 3.0]], requires_grad=True)
        t.max(axis=1).backward(np.array([1.0]))
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])

    def test_unbroadcast_removes_leading_dims(self):
        grad = np.ones((4, 2, 3))
        reduced = unbroadcast(grad, (2, 3))
        assert reduced.shape == (2, 3)
        assert (reduced == 4).all()

    def test_clip_boundary_gradient(self):
        t = Tensor([0.0, 0.5, 1.0], requires_grad=True)
        t.clip(0.0, 1.0).sum().backward()
        # Boundary values are inside the closed interval: gradient 1.
        np.testing.assert_array_equal(t.grad, [1.0, 1.0, 1.0])

    def test_reshape_flat(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (t.reshape(6) ** 2).sum().backward()
        assert t.grad.shape == (2, 3)


class TestCurveRenderEdge:
    def test_empty_curve_renders_placeholder(self):
        from repro.experiments.curves import LearningCurves, render_curve
        curves = LearningCurves(dataset="x", system="S", train=(), test=(),
                                best_epochs=())
        assert render_curve(curves) == "(no curve)"

    def test_final_accuracy_requires_curve(self):
        from repro.errors import ExperimentError
        from repro.experiments.curves import LearningCurves
        curves = LearningCurves(dataset="x", system="S", train=(), test=(),
                                best_epochs=())
        with pytest.raises(ExperimentError):
            curves.final_test_accuracy()


class TestScaleFallback:
    def test_unknown_dataset_gets_default_rows(self, monkeypatch):
        from repro.experiments import current_scale
        monkeypatch.delenv("REPRO_FULL", raising=False)
        scale = current_scale()
        # Unknown names fall back to the 200-row default (but are capped
        # by the registry's paper size, which raises for unknown names).
        with pytest.raises(Exception):
            scale.dataset_rows("not-a-dataset")


class TestAugmentOpEdges:
    def test_duplicate_char_empty(self, rng):
        from repro.baselines.augment import op_duplicate_char
        assert op_duplicate_char("", rng) == ""

    def test_case_flip_no_letters(self, rng):
        from repro.baselines.augment import op_case_flip
        assert op_case_flip("123", rng) == "123"


class TestRepairerBase:
    def test_base_methods_abstract(self):
        from repro.repair import Repairer
        with pytest.raises(NotImplementedError):
            Repairer().fit(None)
        with pytest.raises(NotImplementedError):
            Repairer().suggest(0, "a", "x")


class TestFusedDetectorExplicitKey:
    def test_explicit_key_skips_discovery(self):
        from repro.datasets import load
        from repro.dedup import FusedDetector
        from repro.models import ErrorDetector, ModelConfig, TrainingConfig

        pair = load("flights", n_rows=60, seed=1)
        base = ErrorDetector(
            architecture="tsb", n_label_tuples=6,
            model_config=ModelConfig(char_embed_dim=4, value_units=5,
                                     attr_embed_dim=3, attr_units=3,
                                     length_dense_units=4, head_units=6),
            training_config=TrainingConfig(epochs=2), seed=0)
        fused = FusedDetector(base, key_columns=("flight",))
        fused.fit(pair)
        mask = fused.predict_mask(pair.dirty)
        assert mask.shape == pair.dirty.shape
        assert fused.discovered_key is None  # discovery never ran


class TestStrategyBase:
    def test_detect_abstract(self):
        from repro.baselines import DetectionStrategy
        with pytest.raises(NotImplementedError):
            DetectionStrategy().detect(None)


class TestSamplerBase:
    def test_select_abstract(self, rng):
        from repro.sampling import Sampler
        with pytest.raises(NotImplementedError):
            Sampler().select(1, None, rng)

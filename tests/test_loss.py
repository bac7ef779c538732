import numpy as np
import pytest

from spikelat.autodiff import Tensor
from spikelat.errors import ContractError, ShapeError
from spikelat.loss import (
    confidence,
    cross_entropy_rows,
    tad_loss,
    temporal_weights,
    vanilla_loss,
)

from helpers import check_grad, rel_err


class TestCrossEntropy:
    def test_two_class_margin_one(self):
        ce = cross_entropy_rows(Tensor([[1.0, 0.0]]), np.array([0]))
        np.testing.assert_allclose(ce.data, [np.log(1 + np.exp(-1.0))], rtol=1e-12)
        np.testing.assert_allclose(ce.data, [0.313262], atol=1e-6)

    def test_confident_correct_is_near_zero(self):
        ce = cross_entropy_rows(Tensor([[20.0, 0.0, 0.0]]), np.array([0]))
        assert ce.data[0] < 1e-8

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        o = rng.normal(size=(6, 4)) * 3
        y = rng.integers(0, 4, size=6)
        ce = cross_entropy_rows(Tensor(o), y).data
        for i in range(6):
            p = np.exp(o[i]) / np.exp(o[i]).sum()
            np.testing.assert_allclose(ce[i], -np.log(p[y[i]]), rtol=1e-10)

    def test_stable_for_large_logits(self):
        ce = cross_entropy_rows(Tensor([[1000.0, 0.0]]), np.array([1]))
        np.testing.assert_allclose(ce.data, [1000.0], rtol=1e-12)

    def test_gradient_vs_numeric(self):
        rng = np.random.default_rng(1)
        o = rng.normal(size=(4, 5))
        y = rng.integers(0, 5, size=4)
        c = rng.normal(size=4)
        check_grad(lambda t: (cross_entropy_rows(t, y) * Tensor(c)).sum(), o)

    def test_rejects_bad_labels(self):
        with pytest.raises(ContractError):
            cross_entropy_rows(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ContractError):
            cross_entropy_rows(Tensor(np.zeros((2, 3))), np.array([0.5, 1.0]))
        with pytest.raises(ShapeError):
            cross_entropy_rows(Tensor(np.zeros((2, 3))), np.array([0]))


class TestConfidence:
    def test_uniform_gives_zero(self):
        lam = confidence(Tensor(np.zeros((3, 7))))
        np.testing.assert_allclose(lam.data, 0.0, atol=1e-12)

    def test_point_mass_approaches_one(self):
        lam = confidence(Tensor([[50.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(lam.data, [1.0], atol=1e-12)

    def test_nine_to_one_split(self):
        lam = confidence(Tensor([[np.log(0.9), np.log(0.1)]]))
        h = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))
        np.testing.assert_allclose(lam.data, [1.0 - h / np.log(2)], rtol=1e-12)
        np.testing.assert_allclose(lam.data, [0.531005], atol=1e-6)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(2)
        lam = confidence(Tensor(rng.normal(size=(50, 6)) * 5)).data
        assert np.all(lam >= 0.0)
        assert np.all(lam <= 1.0)

    def test_invariant_to_logit_shift(self):
        rng = np.random.default_rng(3)
        o = rng.normal(size=(4, 5))
        a = confidence(Tensor(o)).data
        b = confidence(Tensor(o + 77.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gradient_vs_numeric(self):
        rng = np.random.default_rng(4)
        o = rng.normal(size=(5, 4)) * 2
        c = rng.normal(size=5)
        check_grad(lambda t: (confidence(t) * Tensor(c)).sum(), o)

    def test_rejects_single_class(self):
        with pytest.raises(ContractError):
            confidence(Tensor(np.zeros((2, 1))))


class TestTemporalWeights:
    def test_binary_confidence_split(self):
        w = temporal_weights(Tensor([[0.0, 1.0]]), tau=2.0)
        e = np.exp(0.5)
        np.testing.assert_allclose(w.data, [[1 / (1 + e), e / (1 + e)]], rtol=1e-12)
        np.testing.assert_allclose(w.data, [[0.377541, 0.622459]], atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        w = temporal_weights(Tensor(rng.uniform(0, 1, size=(6, 9))), tau=2.0)
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones(6), rtol=1e-12)

    def test_more_confident_step_gets_more_weight(self):
        w = temporal_weights(Tensor([[0.1, 0.9, 0.5]]), tau=2.0).data[0]
        assert w[1] > w[2] > w[0]

    def test_large_tau_flattens(self):
        lam = Tensor([[0.0, 1.0]])
        sharp = temporal_weights(lam, tau=0.1).data[0]
        flat = temporal_weights(lam, tau=100.0).data[0]
        assert sharp[1] > flat[1]
        np.testing.assert_allclose(flat, [0.5, 0.5], atol=1e-2)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ContractError):
            temporal_weights(Tensor([[0.5, 0.5]]), tau=0.0)


class TestTadLoss:
    def test_single_step_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(6)
        o = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        tl = tad_loss(Tensor(o[None]), y)
        ce = cross_entropy_rows(Tensor(o), y).mean()
        np.testing.assert_allclose(tl.data, ce.data, rtol=1e-12)

    def test_identical_steps_reduce_to_cross_entropy(self):
        rng = np.random.default_rng(7)
        o = rng.normal(size=(4, 3))
        y = rng.integers(0, 3, size=4)
        tl = tad_loss(Tensor(np.stack([o, o, o])), y)
        ce = cross_entropy_rows(Tensor(o), y).mean()
        np.testing.assert_allclose(tl.data, ce.data, rtol=1e-12)

    def test_hand_assembled_value(self):
        o1 = np.array([[0.0, 0.0]])
        o2 = np.array([[2.0, 0.0]])
        y = np.array([0])
        lam2 = confidence(Tensor(o2)).data[0]
        w = np.exp(np.array([0.0, lam2]) / 2.0)
        w /= w.sum()
        ce1 = np.log(2.0)
        ce2 = np.log(1 + np.exp(-2.0))
        expect = w[0] * ce1 + w[1] * ce2
        got = tad_loss(Tensor(np.stack([o1, o2])), y)
        np.testing.assert_allclose(got.data, expect, rtol=1e-12)

    def test_batch_average_of_per_sample_losses(self):
        rng = np.random.default_rng(8)
        o = np.stack([rng.normal(size=(3, 4)) for _ in range(2)])
        y = rng.integers(0, 4, size=3)
        full = float(tad_loss(Tensor(o), y).data)
        singles = [float(tad_loss(Tensor(o[:, i : i + 1]), y[i : i + 1]).data)
                   for i in range(3)]
        np.testing.assert_allclose(full, np.mean(singles), rtol=1e-12)

    def test_detached_weights_gradient_is_weighted_ce_sum(self):
        rng = np.random.default_rng(9)
        o = [rng.normal(size=(3, 4)) for _ in range(3)]
        y = rng.integers(0, 4, size=3)
        block = Tensor(np.stack(o))
        tad_loss(block, y, detach_weights=True).backward()

        lam = np.stack([confidence(Tensor(v)).data for v in o], axis=1)
        z = np.exp(lam / 2.0)
        w = z / z.sum(axis=1, keepdims=True)
        for t in range(3):
            ref = Tensor(o[t])
            (cross_entropy_rows(ref, y) * Tensor(w[:, t])).mean().backward()
            # scale: tad averages over batch after the weighted time sum
            assert rel_err(block.grad[t], ref.grad) < 1e-12

    def test_attached_weights_change_the_gradient(self):
        rng = np.random.default_rng(10)
        o = np.stack([rng.normal(size=(2, 3)) * 2 for _ in range(2)])
        y = rng.integers(0, 3, size=2)
        a = Tensor(o)
        tad_loss(a, y, detach_weights=True).backward()
        b = Tensor(o)
        tad_loss(b, y, detach_weights=False).backward()
        assert rel_err(a.grad[0], b.grad[0]) > 1e-6

    def test_attached_weights_gradient_vs_numeric(self):
        rng = np.random.default_rng(11)
        o = np.stack([rng.normal(size=(2, 3)) for _ in range(2)])
        y = rng.integers(0, 3, size=2)
        check_grad(lambda t: tad_loss(t, y, detach_weights=False), o)

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            tad_loss(Tensor(np.zeros((0, 1, 2))), np.array([0]))


class TestVanillaLoss:
    def test_time_mean_then_cross_entropy(self):
        o1 = np.array([[2.0, 0.0]])
        o2 = np.array([[0.0, 0.0]])
        got = vanilla_loss(Tensor(np.stack([o1, o2])), np.array([0]))
        np.testing.assert_allclose(got.data, np.log(1 + np.exp(-1.0)), rtol=1e-12)

    def test_uniform_steps_value(self):
        got = vanilla_loss(Tensor([[[1.0, 0.0]], [[1.0, 0.0]]]), np.array([0]))
        np.testing.assert_allclose(got.data, 0.313262, atol=1e-6)

    def test_gradient_vs_numeric(self):
        rng = np.random.default_rng(12)
        o = np.stack([rng.normal(size=(3, 4)) for _ in range(2)])
        y = rng.integers(0, 4, size=3)
        check_grad(lambda t: vanilla_loss(t, y), o)


class TestTimeMajorBlock:
    @pytest.mark.parametrize("detach", [True, False])
    def test_block_matches_step_list_and_is_one_node(self, detach):
        rng = np.random.default_rng(13)
        o = rng.normal(size=(5, 4, 3)) * 2
        y = rng.integers(0, 3, size=4)
        block = Tensor(o)
        loss = tad_loss(block, y, detach_weights=detach)
        assert loss.parents == (block,)
        loss.backward()
        assert block.grad.shape == o.shape
        assert np.any(block.grad != 0.0)

    def test_rejects_a_block_without_time_axis_or_steps(self):
        with pytest.raises(ShapeError):
            tad_loss(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]))
        with pytest.raises(ShapeError):
            vanilla_loss(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]))
        with pytest.raises(ShapeError):
            tad_loss(Tensor(np.zeros((0, 4, 3))), np.array([0, 1, 2, 0]))

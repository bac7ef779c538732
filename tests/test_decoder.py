from dataclasses import replace

import numpy as np
import pytest

from spikelat.autodiff import Tensor
from spikelat.decoder import (
    Decision,
    decode_batch,
    rate_decode,
)
from spikelat.errors import ContractError
from spikelat.lif import LifConfig
from spikelat.network import build_model, preset_spec


def reference_decode(spikes, potentials):
    """Plain nested-loop restatement of the decision rule."""
    T = len(spikes)
    n, c = spikes[0].shape
    out = []
    for i in range(n):
        found = None
        for t in range(T):
            spikers = [j for j in range(c) if spikes[t][i, j] > 0]
            if not spikers:
                continue
            best = max(potentials[t][i, j] for j in spikers)
            winners = [j for j in spikers if potentials[t][i, j] == best]
            found = Decision(min(winners), t + 1, True, len(winners) > 1)
            break
        if found is None:
            best = max(potentials[T - 1][i])
            winners = [j for j in range(c) if potentials[T - 1][i, j] == best]
            found = Decision(min(winners), T, False, len(winners) > 1)
        out.append(found)
    return out


class TestFirstSpikeRule:
    def test_single_clear_winner(self):
        spikes = np.stack([np.zeros((1, 3)), np.array([[0.0, 1.0, 0.0]]), np.ones((1, 3))])
        pots = np.zeros((3, 1, 3))
        (d,) = decode_batch(spikes, pots)
        assert d == Decision(label=1, exit_step=2, spiked=True, tied=False)

    def test_simultaneous_spikers_need_potentials(self):
        spikes = np.array([[[1.0, 1.0, 0.0]]])
        pots = np.array([[[1.2, 1.7, 5.0]]])
        (d,) = decode_batch(spikes, pots)
        assert d.label == 1      # the silent neuron's higher potential does not compete

    def test_no_spike_falls_back_to_final_potential(self):
        spikes = np.zeros((3, 1, 4))
        pots = np.stack([np.zeros((1, 4)),
                         np.array([[9.0, 0.0, 0.0, 0.0]]),
                         np.array([[0.1, 0.2, 0.9, 0.3]])])
        (d,) = decode_batch(spikes, pots)
        assert d == Decision(label=2, exit_step=3, spiked=False, tied=False)

    def test_exact_tie_takes_lowest_index_and_flags(self):
        spikes = np.array([[[0.0, 1.0, 1.0]]])
        pots = np.array([[[0.0, 1.5, 1.5]]])
        (d,) = decode_batch(spikes, pots)
        assert d.label == 1
        assert d.tied

    def test_early_weak_spike_beats_late_strong_one(self):
        spikes = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        pots = np.array([[[1.0, 0.9]], [[0.0, 44.0]]])
        (d,) = decode_batch(spikes, pots)
        assert d.label == 0
        assert d.exit_step == 1

    def test_matches_reference_on_random_rasters(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            T = int(rng.integers(1, 6))
            n, c = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            spikes = np.stack([(rng.random((n, c)) < 0.25).astype(float) for _ in range(T)])
            pots = np.stack([np.round(rng.normal(size=(n, c)), 2) for _ in range(T)])
            got = decode_batch(spikes, pots)
            ref = reference_decode(spikes, pots)
            assert got == ref, f"trial {trial}"
            # steps numbered from 7
            got = decode_batch(spikes, pots, first_step=7)
            assert got == [replace(d, exit_step=d.exit_step + 6) for d in ref]

    def test_accepts_tensors_straight_from_forward(self):
        spec = preset_spec("mlp-mini", (1, 8, 8), classes=3, timesteps=5,
                           lif=LifConfig())
        model = build_model(spec, seed=0)
        rng = np.random.default_rng(1)
        imgs = Tensor(rng.uniform(0, 1, size=(4, 1, 8, 8)))
        rec = model.forward(imgs)
        labels = [d.label for d in decode_batch(rec.out_spikes, rec.logits)]
        assert len(labels) == 4
        assert all(0 <= label < 3 for label in labels)

    def test_rejects_misaligned_inputs(self):
        with pytest.raises(ContractError):
            decode_batch(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)))
        with pytest.raises(ContractError):
            decode_batch(np.zeros((0, 2, 3)), np.zeros((0, 2, 3)))


class TestRateDecode:
    def test_counts_win(self):
        spikes = np.array([[[1.0, 0.0], [0.0, 1.0]],
                           [[1.0, 1.0], [0.0, 1.0]],
                           [[1.0, 0.0], [1.0, 1.0]]])
        np.testing.assert_array_equal(rate_decode(spikes), [0, 1])

    def test_count_tie_takes_lowest_index(self):
        spikes = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        np.testing.assert_array_equal(rate_decode(spikes), [0])

    def test_can_disagree_with_first_spike(self):
        spikes = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0]]])
        pots = np.tile([[[1.0, 0.0]]], (3, 1, 1))
        assert [d.label for d in decode_batch(spikes, pots)] == [0]
        assert rate_decode(spikes)[0] == 1


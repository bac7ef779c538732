"""Step-major early-exit prediction against the layer-major oracle.

``trainer.predict`` must give exactly the decisions of ``Model.forward``
plus ``decode_batch`` (what ``evaluate`` runs), while computing each sample
only up to the block in which its first output spike falls.
"""
import numpy as np
import pytest

from spikelat.analysis import robustness_eval
from spikelat.autodiff import Tensor
from spikelat.data import CORRUPTIONS, Dataset, corrupt, synth_blobs, synth_digits
from spikelat.decoder import decode_batch
from spikelat.errors import ContractError
from spikelat.network import build_model, preset_spec
from spikelat.trainer import TrainConfig, evaluate, predict, train

EVAL_COUNT = 100     # batch 32: three full batches and a partial one of 4
BATCH = 32


def _setting(preset):
    if preset == "mlp-mini":
        spec = preset_spec(preset, (1, 8, 8), classes=3, timesteps=8, hidden=32)
        return spec, synth_blobs(384, 3, seed=0), synth_blobs(EVAL_COUNT, 3, seed=1000)
    spec = preset_spec(preset, (1, 16, 16), classes=10, timesteps=4)
    return spec, synth_digits(640, seed=0), synth_digits(EVAL_COUNT, seed=1000)


@pytest.fixture(scope="module")
def models():
    """(preset, trained) -> (model, eval set), trained a few epochs each."""
    out = {}
    for preset in ("mlp-mini", "vgg-mini", "sew-mini"):
        spec, tr, ev = _setting(preset)
        out[preset, False] = (build_model(spec, seed=0), ev)
        model = build_model(spec, seed=0)
        warm = Dataset(ev.images[:8], ev.labels[:8], ev.classes)
        train(model, tr, warm, TrainConfig(epochs=3, batch_size=64, lr=0.02))
        out[preset, True] = (model, ev)
    return out


def layer_major(model, ds, tiebreak):
    """Decisions of the full-window forward, batch by batch."""
    decisions = []
    for start in range(0, len(ds), BATCH):
        rec = model.forward(Tensor(ds.images[start : start + BATCH]))
        decisions.extend(decode_batch(rec.out_spikes, rec.logits, tiebreak))
    return decisions


@pytest.mark.parametrize("tiebreak", ["spikers", "all"])
@pytest.mark.parametrize("trained", [False, True])
@pytest.mark.parametrize("preset", ["mlp-mini", "vgg-mini", "sew-mini"])
def test_matches_layer_major_decisions(models, preset, trained, tiebreak):
    """The oracle decodes under either tiebreak: on a LIF readout both give
    the decisions ``predict`` and ``evaluate`` make with the default."""
    model, ds = models[preset, trained]
    want = layer_major(model, ds, tiebreak)
    assert predict(model, ds, BATCH) == want
    assert evaluate(model, ds, BATCH).decisions == want


def test_untrained_vgg_batch_is_all_fallback(models):
    model, ds = models["vgg-mini", False]
    got = predict(model, ds, BATCH)
    assert not any(d.spiked for d in got)
    assert {d.exit_step for d in got} == {4}
    assert got == layer_major(model, ds, "spikers")


def test_trained_sew_batch_exits_entirely_at_step_one(models):
    model, ds = models["sew-mini", True]
    got = predict(model, ds, BATCH)
    assert all(d.spiked and d.exit_step == 1 for d in got)
    assert got == layer_major(model, ds, "spikers")


def test_batch_of_one_and_partial_last_batch(models):
    model, ds = models["vgg-mini", True]
    want = layer_major(model, ds, "spikers")
    assert predict(model, ds, 1) == want
    assert predict(model, ds, 48) == want      # batches of 48, 48 and 4


def test_exited_rows_are_not_computed(models, monkeypatch):
    model, ds = models["vgg-mini", True]
    want = layer_major(model, ds, "spikers")
    exits = np.array([d.exit_step for d in want])
    assert exits.min() == 1 and exits.max() > 2      # exits spread over the window
    seen = []
    real = model.output.unroll

    def counting(frames, training, u0=None):
        seen.append(frames.shape[:2])
        return real(frames, training, u0)

    monkeypatch.setattr(model.output, "unroll", counting)
    assert predict(model, ds, len(ds)) == want
    # each block runs exactly the rows whose exit lies beyond its first step
    start = 0
    for steps, rows in seen:
        assert rows == np.count_nonzero(exits > start)
        start += steps
    assert start == model.spec.timesteps
    assert seen[-1][1] < seen[0][1] == len(ds)


def test_empty_dataset_rejected(models):
    model, ds = models["mlp-mini", False]
    with pytest.raises(ContractError):
        predict(model, Dataset(ds.images[:0], ds.labels[:0], ds.classes))


def test_robustness_report_equals_evaluate_per_cell(models):
    """Every figure is the layer-major ``1 - evaluate(...).accuracy``."""
    model, ds = models["sew-mini", True]
    seed = 3
    rep = robustness_eval(model, ds, batch_size=BATCH, seed=seed)

    def error(images):
        return 1.0 - evaluate(model, Dataset(images, ds.labels, ds.classes),
                              batch_size=BATCH).accuracy

    cells = {(kind, s): error(corrupt(ds.images, kind, s,
                                      seed=seed + 131 * CORRUPTIONS.index(kind) + s))
             for kind in CORRUPTIONS for s in range(1, 6)}
    assert rep.clean_error == error(ds.images)
    assert rep.cells == cells
    assert rep.mce == float(np.mean([cells[k, s] for k in CORRUPTIONS
                                     for s in range(1, 6)]))

"""Step-major early-exit evaluation against the layer-major oracle.

``trainer.evaluate`` must give exactly the decisions of ``Model.forward``
plus ``decode_batch``, while computing each sample only up to the block in
which its first output spike falls, and must charge each sample the spikes
of the full-window record up to its exit step.
"""
import numpy as np
import pytest

from spikelat.analysis import robustness_eval
from spikelat.autodiff import Tensor
from spikelat.data import CORRUPTIONS, Dataset, corrupt, synth_blobs, synth_digits
from spikelat.decoder import decode_batch
from spikelat.errors import ContractError
from spikelat.network import build_model, preset_spec
from spikelat.trainer import TrainConfig, evaluate, train

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


def layer_major(model, ds):
    """Decisions of the full-window forward, batch by batch."""
    decisions = []
    for start in range(0, len(ds), BATCH):
        rec = model.forward(Tensor(ds.images[start : start + BATCH]))
        decisions.extend(decode_batch(rec.out_spikes, rec.logits))
    return decisions


def exit_charged_sparsity(model, ds):
    """Spikes of every spiking stage of the full-window record in steps 1 to
    each sample's exit step, over the slot-steps of those steps, pooled."""
    spikes = slots = 0
    for start in range(0, len(ds), BATCH):
        rec = model.forward(Tensor(ds.images[start : start + BATCH]))
        exits = [d.exit_step for d in decode_batch(rec.out_spikes, rec.logits)]
        for frames in rec.stage_spikes.values():
            for row, step in enumerate(exits):
                spikes += np.count_nonzero(frames[:step, row])
                slots += frames[:step, row].size
    return spikes / slots


@pytest.mark.parametrize("trained", [False, True])
@pytest.mark.parametrize("preset", ["mlp-mini", "vgg-mini", "sew-mini"])
def test_matches_layer_major_decisions(models, preset, trained):
    model, ds = models[preset, trained]
    want = layer_major(model, ds)
    got = evaluate(model, ds, BATCH)
    assert got.decisions == want
    labels = np.array([d.label for d in want])
    assert got.accuracy == float((labels == ds.labels).mean())
    assert got.mean_exit == float(np.mean([d.exit_step for d in want]))
    assert got.fallback_rate == float(np.mean([not d.spiked for d in want]))


@pytest.mark.parametrize("trained", [False, True])
@pytest.mark.parametrize("preset", ["mlp-mini", "vgg-mini", "sew-mini"])
def test_sparsity_charges_each_sample_up_to_its_exit(models, preset, trained):
    model, ds = models[preset, trained]
    want = exit_charged_sparsity(model, ds)
    for batch_size in (1, 32, 48, len(ds)):
        got = evaluate(model, ds, batch_size).sparsity
        assert abs(got - want) <= 1e-12, batch_size
    # the whole-window readout charges every sample the whole window
    whole = model.forward(Tensor(ds.images)).sparsity()
    assert abs(evaluate(model, ds, BATCH, decode="rate").sparsity - whole) <= 1e-12


def test_untrained_vgg_batch_is_all_fallback(models):
    model, ds = models["vgg-mini", False]
    res = evaluate(model, ds, BATCH)
    got = res.decisions
    assert not any(d.spiked for d in got)
    assert {d.exit_step for d in got} == {4}
    assert got == layer_major(model, ds)
    # every sample runs to T: the figure is the full-window record's
    assert abs(res.sparsity - model.forward(Tensor(ds.images)).sparsity()) <= 1e-12


def test_trained_sew_batch_exits_entirely_at_step_one(models):
    model, ds = models["sew-mini", True]
    got = evaluate(model, ds, BATCH).decisions
    assert all(d.spiked and d.exit_step == 1 for d in got)
    assert got == layer_major(model, ds)


def test_batch_of_one_and_partial_last_batch(models):
    model, ds = models["vgg-mini", True]
    want = layer_major(model, ds)
    assert evaluate(model, ds, 1).decisions == want
    assert evaluate(model, ds, 48).decisions == want      # batches of 48, 48 and 4


def _output_blocks(model, monkeypatch):
    """The (steps, rows) of every block the readout runs from now on."""
    seen = []
    real = model.output.unroll

    def counting(frames, u0=None):
        seen.append(frames.shape[:2])
        return real(frames, u0)

    monkeypatch.setattr(model.output, "unroll", counting)
    return seen


def test_exited_rows_are_not_computed(models, monkeypatch):
    model, ds = models["vgg-mini", True]
    want = layer_major(model, ds)
    exits = np.array([d.exit_step for d in want])
    assert exits.min() == 1 and exits.max() > 2      # exits spread over the window
    seen = _output_blocks(model, monkeypatch)
    assert evaluate(model, ds, len(ds)).decisions == want
    # each block runs exactly the rows whose exit lies beyond its first step
    start = 0
    for steps, rows in seen:
        assert rows == np.count_nonzero(exits > start)
        start += steps
    assert start == model.spec.timesteps
    assert seen[-1][1] < seen[0][1] == len(ds)


def _some_fire_at_step_one():
    """An untrained T=8 mlp-mini with its encoder shifted to emit early
    spikes and its readout bias shifted so that a quarter of the eval rows
    fire at step 1; from rest, the step-1 potential is the drive."""
    spec, _, ds = _setting("mlp-mini")
    model = build_model(spec, seed=0)
    model.encoder.beta.data += 2.0
    top = np.sort(model.forward(Tensor(ds.images)).logits.data[0].max(axis=1))
    cut = 3 * len(top) // 4
    model.output.b.data += spec.lif.v_th - (top[cut - 1] + top[cut]) / 2
    return model, ds


def test_step_one_then_the_rest_in_one_block(monkeypatch):
    model, ds = _some_fire_at_step_one()
    want = layer_major(model, ds)
    exits = np.array([d.exit_step for d in want])
    survivors = np.count_nonzero(exits > 1)
    assert 0 < survivors < len(ds) and exits.max() > 3    # exits spread over the window
    seen = _output_blocks(model, monkeypatch)
    assert evaluate(model, ds, len(ds)).decisions == want
    assert seen == [(1, len(ds)), (7, survivors)]


def test_rate_decoding_runs_one_whole_window_block(monkeypatch):
    model, ds = _some_fire_at_step_one()
    seen = _output_blocks(model, monkeypatch)
    evaluate(model, ds, len(ds), decode="rate")
    assert seen == [(8, len(ds))]


def test_empty_dataset_rejected(models):
    model, ds = models["mlp-mini", False]
    with pytest.raises(ContractError):
        evaluate(model, Dataset(ds.images[:0], ds.labels[:0], ds.classes))


def test_robustness_report_equals_evaluate_per_cell(models):
    """Every figure is one minus the accuracy of the layer-major decisions."""
    model, ds = models["sew-mini", True]
    seed = 3
    rep = robustness_eval(model, ds, batch_size=BATCH, seed=seed)

    def error(images):
        got = layer_major(model, Dataset(images, ds.labels, ds.classes))
        return 1.0 - float((np.array([d.label for d in got]) == ds.labels).mean())

    cells = {(kind, s): error(corrupt(ds.images, kind, s,
                                      seed=seed + 131 * CORRUPTIONS.index(kind) + s))
             for kind in CORRUPTIONS for s in range(1, 6)}
    assert rep.clean_error == error(ds.images)
    assert rep.cells == cells
    assert rep.mce == float(np.mean([cells[k, s] for k in CORRUPTIONS
                                     for s in range(1, 6)]))

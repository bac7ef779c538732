"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from spikelat import analysis, data, network, trainer  # noqa: E402
from spikelat.analysis import RobustnessReport  # noqa: E402
from spikelat.autodiff import Tensor  # noqa: E402
from spikelat.decoder import Decision, decode_batch  # noqa: E402

TINY = {
    "train-mlp-blobs": dict(timesteps=4, batch=32, train_count=256,
                            eval_count=64, epochs=3),
    "analyze-sew-digits": dict(batch=32, train_count=64, eval_count=32, epochs=1),
}


def tiny_run(name, trace, tmp_path):
    w = dataclasses.replace(harness.WORKLOADS[name], **TINY[name])
    return harness.run(w, seed=3, seconds=0, trace=trace, out_dir=tmp_path,
                       min_batches=1, setup_repeats=1, log=lambda _: None)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- what the benchmark prints ---------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, (unit, better, *_) in harness.PER_LAYER.items()]
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {w.name: w.why for w in harness.WORKLOADS.values()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path):
    result = tiny_run(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in benchmark_json()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_prints_every_per_layer_metric(name, tmp_path):
    result = tiny_run(name, True, tmp_path)
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in benchmark_json()["per_layer"]]
    assert metrics["network.forward_ms"]["value"] > 0
    assert metrics["data.synth_s"]["value"] > 0
    assert metrics["trainer.checkpoint_load_ms"]["value"] > 0
    spans_file = json.loads((tmp_path / f"{name}-s3.spans.json").read_text())
    assert spans_file["fields"] == ["name", "parent", "start_s", "end_s"]
    if name == "train-mlp-blobs":
        assert metrics["autodiff.tape_nodes"]["value"] > 0
        assert metrics["autodiff.backward_ms"]["value"] > 0
        assert metrics["analysis.robustness_s"]["value"] == 0
    else:
        assert metrics["autodiff.backward_ms"]["value"] == 0   # forward only
        assert metrics["analysis.robustness_s"]["value"] > 0
        assert metrics["network.s5.forward_ms"]["value"] > 0


def test_tracer_restores_the_package(tmp_path):
    before = (trainer.evaluate, data.batches, trainer.batches, network.Model.forward,
              Tensor.backward, network.ConvStage.unroll, analysis.evaluate)
    tiny_run("analyze-sew-digits", True, tmp_path)
    after = (trainer.evaluate, data.batches, trainer.batches, network.Model.forward,
             Tensor.backward, network.ConvStage.unroll, analysis.evaluate)
    assert before == after


def test_self_time_subtracts_children():
    t = spans.Tracer()
    t.names = ["phase.timed", "batch", "autodiff.conv2d", "autodiff.linear"]
    t.parents = [-1, 0, 1, 1]
    t.starts = [0.0, 1.0, 1.5, 3.0]
    t.ends = [10.0, 5.0, 2.5, 4.0]
    rows = {name: (top, dur, own) for name, top, dur, own in t.table()}
    assert rows["phase.timed"] == ("phase.timed", 10.0, 6.0)
    assert rows["batch"] == ("phase.timed", 4.0, 2.0)
    assert rows["autodiff.conv2d"] == ("phase.timed", 1.0, 1.0)


def test_tape_size_counts_shared_nodes_once():
    a = Tensor(np.ones(3))
    b = a * 2.0
    root = (b + b).sum()
    nodes, nbytes = spans.tape_size(root)
    assert nodes == 4
    assert nbytes == 3 * 8 * 3 + 8


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, dest)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-mlp-blobs", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- every check fails on a wrong input ------------------------------------------------


@pytest.fixture(scope="module", params=["mlp-mini", "vgg-mini", "sew-mini"])
def forward_case(request):
    shape = (1, 8, 8) if request.param == "mlp-mini" else (1, 16, 16)
    spec = network.preset_spec(request.param, shape, classes=4, timesteps=4, hidden=16)
    model = network.build_model(spec, seed=1)
    rng = np.random.default_rng(0)
    for name, buf in model.buffers():   # non-trivial running statistics
        buf[...] = rng.uniform(0.1, 0.5, size=buf.shape) if name.endswith("var") \
            else rng.normal(scale=0.1, size=buf.shape)
    images = rng.uniform(size=(6,) + shape)
    rec = model.forward(Tensor(images), training=False)
    spikes = np.stack([s.data for s in rec.out_spikes])
    pots = np.stack([u.data for u in rec.logits])
    return spec, model, images, rec, spikes, pots


def test_forward_check_accepts_the_model(forward_case):
    spec, model, images, _, spikes, pots = forward_case
    oracles.check_forward(spec, model.state_arrays(), images, spikes, pots)


def test_forward_check_rejects_a_perturbed_parameter(forward_case):
    spec, model, images, _, spikes, pots = forward_case
    for name, delta in (("enc.bn.beta", 0.5), ("out.lin.b", 1e-6)):
        state = {k: np.array(v) for k, v in model.state_arrays().items()}
        state[name][0] += delta
        with pytest.raises(oracles.CheckFailed):
            oracles.check_forward(spec, state, images, spikes, pots)


def test_decoder_check(forward_case):
    _, _, _, rec, spikes, pots = forward_case
    decisions = decode_batch(rec.out_spikes, rec.logits)
    expected = oracles.first_spike_decisions(spikes, pots)
    oracles.check_decisions(decisions, expected)
    d = decisions[0]
    swapped = [Decision((d.label + 1) % 4, d.exit_step, d.spiked, d.tied)] + decisions[1:]
    with pytest.raises(oracles.CheckFailed):
        oracles.check_decisions(swapped, expected)
    later = [Decision(d.label, d.exit_step + 1, d.spiked, d.tied)] + decisions[1:]
    with pytest.raises(oracles.CheckFailed):
        oracles.check_decisions(later, expected)


def test_first_spike_rule_by_hand():
    spikes = np.zeros((3, 3, 2))
    pots = np.zeros((3, 3, 2))
    spikes[1, 0] = [1, 1]            # both fire at step 2: the higher potential wins
    pots[1, 0] = [1.2, 1.5]
    spikes[0, 1, 0] = 1              # only class 0 fires, class 1 higher but silent
    pots[0, 1] = [1.0, 3.0]
    pots[2, 2] = [0.4, 0.4]          # nothing fires: last step, tie to the lower index
    assert oracles.first_spike_decisions(spikes, pots) == [
        (1, 2, True, False), (0, 1, True, False), (0, 3, False, True)]


def test_training_check():
    oracles.check_training([2.0] * 10 + [1.0] * 10, 0.9, classes=10)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_training([2.0, float("nan"), 1.0], 0.9, classes=10)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_training([1.0] * 10 + [2.0] * 10, 0.9, classes=10)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_training([2.0] * 10 + [1.0] * 10, 0.1, classes=10)


def test_energy_check(forward_case):
    spec, model, _, rec, _, _ = forward_case
    report = analysis.model_energy(model, rec)
    oracles.check_energy(report, spec)
    wider = dataclasses.replace(spec, encoder_channels=spec.encoder_channels + 1)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_energy(report, wider)


def test_similarity_check(forward_case):
    spec, _, _, rec, _, _ = forward_case
    sims = {n: analysis.temporal_similarity(f) for n, f in rec.stage_spikes.items()}
    oracles.check_similarity(sims, spec.timesteps)
    for corrupt in ("asymmetric", "enc_offdiag", "diag"):
        bad = {n: np.array(m) for n, m in sims.items()}
        if corrupt == "asymmetric":
            bad["out"][0, 1] += 0.1
        elif corrupt == "enc_offdiag":
            bad["enc"][0, 1] = bad["enc"][1, 0] = 1e-3
        else:
            bad["out"][2, 2] = 1.5
        with pytest.raises(oracles.CheckFailed):
            oracles.check_similarity(bad, spec.timesteps)


def test_robustness_check():
    kinds, severities = data.CORRUPTIONS, range(1, 6)
    cells = {(k, s): 0.1 * s for k in kinds for s in severities}
    good = RobustnessReport(clean_error=0.25, cells=cells, mce=0.3)
    oracles.check_robustness(good, kinds, severities, clean_accuracy=0.75)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_robustness(good, kinds, severities, clean_accuracy=0.8)
    missing = dict(cells)
    missing.pop(("shot", 3))
    with pytest.raises(oracles.CheckFailed):
        oracles.check_robustness(RobustnessReport(0.25, missing, 0.3), kinds, severities, 0.75)
    out_of_range = dict(cells)
    out_of_range[("gaussian", 5)] = 1.5
    with pytest.raises(oracles.CheckFailed):
        oracles.check_robustness(RobustnessReport(0.25, out_of_range, 0.3), kinds,
                                 severities, 0.75)


def test_checkpoint_check(forward_case, tmp_path):
    _, model, _, _, _, _ = forward_case
    saved = {k: np.array(v) for k, v in model.state_arrays().items()}
    path = tmp_path / "m.ckpt"
    trainer.save_checkpoint(path, saved)
    read_back = trainer.read_checkpoint(path)
    oracles.check_checkpoint(read_back, saved)
    with pytest.raises(oracles.CheckFailed):   # full precision is not the float32 rounding
        oracles.check_checkpoint(saved, saved)
    perturbed = dict(read_back)
    perturbed["out.lin.b"] = perturbed["out.lin.b"] + np.float32(1e-3)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_checkpoint(perturbed, saved)

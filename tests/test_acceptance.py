"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single [PASS]/[FAIL] line straight to the terminal so
the verdict is readable without digging through pytest output. Criteria
that need trained models share module-scoped fixtures; the digit run is
the expensive one (a few minutes), everything else is seconds.
"""
import functools
import hashlib
import sys
import time

import numpy as np
import pytest

from spikelat.analysis import (
    energy_snn,
    model_energy,
    normalized_energy,
    robustness_eval,
    temporal_similarity,
    write_robustness_csv,
)
from spikelat.autodiff import (
    Tensor,
    avg_pool2d,
    batchnorm2d,
    conv2d,
    linear,
    sigmoid,
    softmax_rows,
)
from spikelat.cli import main as cli_main
from spikelat.data import Dataset, corrupt, load_idx, save_idx, synth_blobs, synth_digits
from spikelat.decoder import Decision, decode_batch
from spikelat.encoder import latency_encode, spike_time
from spikelat.lif import LifConfig, lif_unroll
from spikelat.loss import confidence, cross_entropy_rows, tad_loss, temporal_weights
from spikelat.network import build_model, preset_spec
from spikelat.trainer import TrainConfig, evaluate, train

from helpers import check_grad, manual_bptt, rel_err


_CAPMAN = None


@pytest.fixture(autouse=True, scope="session")
def _grab_capture_manager(request):
    # the verdict lines must reach the terminal even under default capture
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def _emit(line):
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def criterion(num, desc):
    """Emit one visible verdict line per criterion, then let pytest judge."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"[FAIL] criterion {num:02d}: {desc}")
                raise
            _emit(f"[PASS] criterion {num:02d}: {desc}")
        return wrapper
    return deco


# -- shared trained models ---------------------------------------------------


@pytest.fixture(scope="module")
def blobs_run():
    """mlp-mini on 3-class blobs: 300 train / 150 test, T=4, 50 epochs."""
    tr = synth_blobs(300, classes=3, seed=0)
    ev = synth_blobs(150, classes=3, seed=1000)
    spec = preset_spec("mlp-mini", (1, 8, 8), classes=3, timesteps=4, hidden=64)
    model = build_model(spec, seed=0)
    t0 = time.perf_counter()
    train(model, tr, ev, TrainConfig(epochs=50, batch_size=32, lr=0.01, seed=0))
    wall = time.perf_counter() - t0
    return {"model": model, "eval": ev, "wall": wall, "timesteps": 4}


@pytest.fixture(scope="module")
def digits_run(tmp_path_factory):
    """vgg-mini on a 10-class digit set round-tripped through IDX files."""
    d = tmp_path_factory.mktemp("idx")
    save_idx(synth_digits(10000, seed=0), d / "train-images.idx", d / "train-labels.idx")
    save_idx(synth_digits(200, seed=1000), d / "eval-images.idx", d / "eval-labels.idx")
    tr = load_idx(d / "train-images.idx", d / "train-labels.idx")
    ev = load_idx(d / "eval-images.idx", d / "eval-labels.idx")
    spec = preset_spec("vgg-mini", (1, 16, 16), classes=10, timesteps=4)
    model = build_model(spec, seed=0)
    epochs = 10
    t0 = time.perf_counter()
    train(model, tr, ev, TrainConfig(epochs=epochs, batch_size=128, lr=0.02, seed=0))
    wall = time.perf_counter() - t0
    return {"model": model, "eval": ev, "wall": wall, "epochs": epochs}


@pytest.fixture(scope="module")
def noisy_blobs_run():
    """Blobs with label noise and heavy jitter, so hard samples exist."""
    tr = synth_blobs(512, classes=4, seed=0, label_noise=0.15, noise=0.15,
                     jitter=1.0)
    ev = synth_blobs(256, classes=4, seed=1000, noise=0.15, jitter=1.0)
    spec = preset_spec("mlp-mini", (1, 8, 8), classes=4, timesteps=8, hidden=64)
    model = build_model(spec, seed=0)
    train(model, tr, ev, TrainConfig(epochs=12, batch_size=64, lr=0.01, seed=0))
    return {"model": model, "eval": ev, "timesteps": 8}


# -- 1: gradient correctness -------------------------------------------------


@criterion(1, "finite-difference checks and LIF adjoint oracle")
def test_criterion_01_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)

    def project(out, rng):
        w = Tensor(rng.normal(size=out.shape))
        return (out * w).sum()

    for i in range(20):
        which = i % 3
        x = rng.normal(size=(2, 5))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=(3,))
        if which == 0:
            check_grad(lambda t: project(linear(t, Tensor(w), Tensor(b)),
                                         np.random.default_rng(i)), x)
        elif which == 1:
            check_grad(lambda t: project(linear(Tensor(x), t, Tensor(b)),
                                         np.random.default_rng(i)), w)
        else:
            check_grad(lambda t: project(linear(Tensor(x), Tensor(w), t),
                                         np.random.default_rng(i)), b)

    for i in range(20):
        x = rng.normal(size=(1, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        if i % 2 == 0:
            check_grad(lambda t: project(conv2d(t, Tensor(k), pad=1),
                                         np.random.default_rng(i)), x)
        else:
            check_grad(lambda t: project(conv2d(Tensor(x), t, pad=1),
                                         np.random.default_rng(i)), k)

    for i in range(20):
        which = i % 3
        x = rng.normal(size=(3, 2, 4, 4))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)
        run_m = np.zeros(2)
        run_v = np.ones(2)

        def bn(t, xv=x, g=gamma, bv=beta, wi=which, seed=i):
            args = [Tensor(xv), Tensor(g), Tensor(bv)]
            args[wi] = t
            out = batchnorm2d(args[0], args[1], args[2],
                              running_mean=run_m.copy(), running_var=run_v.copy())
            return project(out, np.random.default_rng(seed))

        check_grad(bn, (x, gamma, beta)[which])

    for i in range(20):
        x = rng.normal(size=(4, 6))
        check_grad(lambda t: project(sigmoid(t), np.random.default_rng(i)), x)
        check_grad(lambda t: project(softmax_rows(t), np.random.default_rng(i)),
                   rng.normal(size=(3, 4)))

    for i in range(20):
        x = rng.normal(size=(2, 3, 4, 4))
        check_grad(lambda t: project(avg_pool2d(t, 2), np.random.default_rng(i)), x)

    for i in range(20):
        labels = rng.integers(0, 4, size=3)
        check_grad(lambda t: cross_entropy_rows(t, labels).sum(),
                   rng.normal(size=(3, 4)))

    for i in range(20):
        labels = rng.integers(0, 3, size=2)
        steps = rng.integers(1, 4)
        flat = rng.normal(size=(steps, 2, 3))

        check_grad(lambda t, labels=labels: tad_loss(t, labels, detach_weights=False),
                   flat)

    # BPTT through the spiking recurrence against the hand-rolled adjoint
    for trial in range(20):
        for detach in (True, False):
            cfg = LifConfig(detach_reset=detach)
            steps = int(rng.integers(1, 5))
            neurons = int(rng.integers(1, 4))
            cur = rng.normal(loc=0.6, scale=0.5, size=(steps, neurons))
            a = rng.normal(size=(steps, neurons))
            b = rng.normal(size=neurons)

            currents = Tensor(cur)
            trace = lif_unroll(currents, cfg)
            loss = (trace.final * Tensor(b)).sum()
            for t in range(steps):
                loss = loss + (trace.spikes[t] * Tensor(a[t])).sum()
            loss.backward()

            for j in range(neurons):
                _, _, want = manual_bptt(cur[:, j], a[:, j], b[j], cfg)
                got = currents.grad[:, j]
                assert rel_err(got, want) <= 1e-10

    assert time.perf_counter() - t0 < 60.0


# -- 2: encoder invariants ---------------------------------------------------


@criterion(2, "single-spike encoding invariants over 1e5 values")
def test_criterion_02_encoder():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    x = rng.uniform(1e-6, 1.0 - 1e-6, size=100_000)
    order = np.argsort(x)

    for steps in (1, 2, 4, 8, 16):
        t_s = spike_time(x, steps)
        assert t_s.min() >= 1 and t_s.max() <= steps
        # brighter values fire earlier, never later
        assert np.all(np.diff(t_s[order]) <= 0)
        # the represented intensity is within one step of the input
        assert np.all(np.abs((1.0 - t_s / steps) - x) < 1.0 / steps)

        frames = latency_encode(Tensor(x), steps)
        raster = np.stack([f.data for f in frames])
        assert np.array_equal(raster.sum(axis=0), np.ones_like(x))

        # straight-through backward: each frame passes its upstream through
        # unchanged, so one frame's projection lands in the gradient verbatim
        feats = Tensor(x)
        frames = latency_encode(feats, steps)
        w_single = rng.normal(size=x.shape)
        (frames[steps // 2] * Tensor(w_single)).sum().backward()
        assert np.array_equal(feats.grad, w_single)

        # integer weights keep float addition exact in any accumulation
        # order, so the summed multi-step gradient is exact too
        feats = Tensor(x)
        frames = latency_encode(feats, steps)
        weights = [rng.integers(-8, 9, size=x.shape).astype(float)
                   for _ in range(steps)]
        loss = (frames[0] * Tensor(weights[0])).sum()
        for t in range(1, steps):
            loss = loss + (frames[t] * Tensor(weights[t])).sum()
        loss.backward()
        assert np.array_equal(feats.grad, np.sum(weights, axis=0))

    assert time.perf_counter() - t0 < 10.0


# -- 3: confidence-weighted loss ---------------------------------------------


@criterion(3, "confidence and temporal-weight worked values")
def test_criterion_03_loss():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)

    w = temporal_weights(Tensor(rng.normal(size=(40, 7))))
    np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)

    lam = confidence(Tensor(np.zeros((4, 5))))
    assert np.all(np.abs(lam.data) <= 1e-12)

    lam = confidence(Tensor(np.log([[0.9, 0.1]])))
    assert abs(float(lam.data[0]) - 0.5310) <= 1e-3

    w = temporal_weights(Tensor([[0.0, 1.0]]), tau=2.0)
    np.testing.assert_allclose(w.data[0], [0.3775, 0.6225], atol=1e-4)

    # with detached weights the loss is a convex mix of per-step CEs
    for _ in range(10):
        steps = int(rng.integers(2, 6))
        logits = Tensor(np.stack([rng.normal(size=(6, 4)) for _ in range(steps)]))
        labels = rng.integers(0, 4, size=6)
        ces = np.stack([cross_entropy_rows(Tensor(o), labels).data for o in logits.data])
        val = float(tad_loss(logits, labels, detach_weights=True).data)
        assert ces.min(axis=0).mean() - 1e-12 <= val <= ces.max(axis=0).mean() + 1e-12

    # one timestep collapses to plain cross entropy
    logits = Tensor(rng.normal(size=(8, 5)))
    labels = rng.integers(0, 5, size=8)
    tad = float(tad_loss(Tensor(logits.data[None]), labels).data)
    ce = float(cross_entropy_rows(logits, labels).mean().data)
    assert tad == ce

    assert time.perf_counter() - t0 < 10.0


# -- 4: decoder against a brute-force reference ------------------------------


def _reference_decode(spikes, pots):
    """Literal restatement of the decision rule, nested loops and all."""
    t_steps, n, c = spikes.shape
    out = []
    for i in range(n):
        made = None
        for t in range(t_steps):
            fired = [j for j in range(c) if spikes[t, i, j] > 0]
            if not fired:
                continue
            best = max(pots[t, i, j] for j in fired)
            winners = [j for j in fired if pots[t, i, j] == best]
            made = Decision(label=min(winners), exit_step=t + 1, spiked=True,
                            tied=len(winners) > 1)
            break
        if made is None:
            best = max(pots[-1, i, j] for j in range(c))
            winners = [j for j in range(c) if pots[-1, i, j] == best]
            made = Decision(label=min(winners), exit_step=t_steps,
                            spiked=False, tied=len(winners) > 1)
        out.append(made)
    return out


@criterion(4, "first-spike decoding matches brute force on 1e4 records")
def test_criterion_04_decoder():
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    total = 0
    for trial in range(1000):
        t_steps = int(rng.integers(1, 7))
        c = int(rng.integers(2, 6))
        n = 10
        p = rng.uniform(0.05, 0.4)
        spikes = (rng.random((t_steps, n, c)) < p).astype(float)
        # one-decimal potentials make exact ties a routine event
        pots = np.round(rng.normal(size=(t_steps, n, c)), 1)
        got = decode_batch(spikes, pots)
        want = _reference_decode(spikes, pots)
        assert got == want
        total += n

        for d, raster in zip(got, spikes.transpose(1, 0, 2)):
            assert d.spiked == bool((raster > 0).any())
            if not d.spiked:
                assert d.exit_step == t_steps

        if trial % 50 == 0:
            shifted = decode_batch(spikes, pots + 2.5)
            assert shifted == got

    assert total >= 10_000
    assert time.perf_counter() - t0 < 30.0


# -- 5: training reaches target accuracy -------------------------------------


@criterion(5, "small models train to 0.95 accuracy inside the budget")
def test_criterion_05_training(blobs_run, digits_run):
    res = evaluate(blobs_run["model"], blobs_run["eval"], batch_size=64)
    assert res.accuracy >= 0.95, f"blobs accuracy {res.accuracy}"
    assert res.mean_exit <= blobs_run["timesteps"]
    assert blobs_run["wall"] < 120.0, f"blobs training took {blobs_run['wall']:.0f}s"

    res = evaluate(digits_run["model"], digits_run["eval"], batch_size=128)
    assert res.accuracy >= 0.95, f"digit accuracy {res.accuracy}"
    assert digits_run["epochs"] <= 10
    assert digits_run["wall"] < 1800.0, f"digit training took {digits_run['wall']:.0f}s"


# -- 6: confident decisions leave early --------------------------------------


@criterion(6, "confident correct samples exit before misclassified ones")
def test_criterion_06_exit_times(noisy_blobs_run):
    model = noisy_blobs_run["model"]
    ev = noisy_blobs_run["eval"]
    rec = model.forward(Tensor(ev.images), training=False)
    decisions = decode_batch(rec.out_spikes, rec.logits)
    pred = np.array([d.label for d in decisions])
    exits = np.array([d.exit_step for d in decisions], dtype=float)
    correct = pred == ev.labels

    assert len(decisions) >= 100
    assert correct.any() and (~correct).any()

    lam = np.empty(len(decisions))
    for i, d in enumerate(decisions):
        row = rec.logits[d.exit_step - 1].data[i : i + 1]
        lam[i] = float(confidence(Tensor(np.asarray(row))).data[0])
    high = correct & (lam >= np.median(lam[correct]))

    assert exits[high].mean() < exits[~correct].mean(), (
        f"confident-correct exit {exits[high].mean():.2f} not before "
        f"misclassified exit {exits[~correct].mean():.2f}"
    )


# -- 7: energy accounting ----------------------------------------------------


@criterion(7, "operation counts and platform energy worked values")
def test_criterion_07_energy(blobs_run):
    # hand-counted connection totals, written out digit by digit, in
    # network order
    spec = preset_spec("mlp-mini", (1, 8, 8), classes=3, timesteps=4, hidden=64)
    model = build_model(spec, seed=0)
    flops = [a.flops for a in model.audit if a.flops]
    assert flops == [8 * 8 * 1 * 2 * 9, (2 * 8 * 8) * 64, 64 * 3]

    spec = preset_spec("vgg-mini", (1, 16, 16), classes=10, timesteps=4)
    model = build_model(spec, seed=0)
    flops = [a.flops for a in model.audit if a.flops]
    assert flops == [16 * 16 * 1 * 2 * 9, 16 * 16 * 2 * 8 * 9,
                     8 * 8 * 8 * 16 * 9, (16 * 4 * 4) * 10]

    # a first analog layer of 100 connections plus one fully active
    # spike-driven layer of 50, single step
    assert energy_snn([100, 50], [None, 1.0], 1) == 505.0

    ratio = normalized_energy(1.31, 6.3, 680.0, 6.9, platform="truenorth")
    assert abs(ratio - 0.366) <= 0.005

    # on a real trained forward pass, binary spike sources keep per-step
    # accumulates at or below the connection count
    ev = blobs_run["eval"]
    rec = blobs_run["model"].forward(Tensor(ev.images[:64]), training=False)
    report = model_energy(blobs_run["model"], rec)
    for row in report.rows:
        if row.alpha_in is not None:
            assert row.sops_per_step <= row.flops + 1e-9


# -- 8: temporal similarity --------------------------------------------------


@criterion(8, "similarity matrix symmetry and single-spike identity")
def test_criterion_08_similarity():
    rng = np.random.default_rng(80)
    frames = [(rng.random((5, 30)) < 0.3).astype(float) for _ in range(6)]
    m = temporal_similarity(frames)
    assert np.abs(m - m.T).max() <= 1e-12

    # one sample, two steps, binary vectors sharing half their support
    m = temporal_similarity([np.array([[1.0, 1.0, 0.0, 0.0]]),
                             np.array([[1.0, 0.0, 1.0, 0.0]])])
    assert m[0, 1] == 0.5

    # single-spike encoding puts every neuron in exactly one step, so the
    # per-step supports are disjoint; with every step populated the matrix
    # is the exact identity
    steps = 8
    neurons = 64
    samples = 6
    feats = np.empty((samples, neurons))
    for s in range(samples):
        bins = np.resize(np.arange(1, steps + 1), neurons)
        bins = np.random.default_rng(s).permutation(bins)
        feats[s] = 1.0 - (bins - 0.5) / steps
    frames = latency_encode(Tensor(feats), steps)
    m = temporal_similarity(frames)
    assert np.array_equal(m, np.eye(steps))


# -- 9: run-level determinism ------------------------------------------------


@criterion(9, "identical configs produce byte-identical artifacts")
def test_criterion_09_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data.source = blobs\n"
        "data.classes = 3\n"
        "data.train_count = 96\n"
        "data.eval_count = 48\n"
        "model.preset = mlp-mini\n"
        "model.timesteps = 4\n"
        "model.hidden = 32\n"
        "train.epochs = 3\n"
        "train.batch_size = 32\n"
        "train.lr = 0.01\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    for artifact in ("config.txt", "metrics.csv", "model.ckpt"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"


# -- 10: robustness harness --------------------------------------------------


@criterion(10, "corruption sweep bookkeeping and chance-level baseline")
def test_criterion_10_robustness(digits_run, tmp_path):
    model = digits_run["model"]
    ev = digits_run["eval"]

    rep = robustness_eval(model, ev, batch_size=128, seed=11)
    kinds = sorted({k for k, _ in rep.cells})
    sevs = sorted({s for _, s in rep.cells})
    assert len(rep.cells) == 25 and len(kinds) == 5 and sevs == [1, 2, 3, 4, 5]

    csv = tmp_path / "robustness.csv"
    write_robustness_csv(csv, rep)
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + 1 + 25 + 1  # header, clean, cells, mce

    # severity zero is defined as the clean image, so its error must equal
    # the clean error bit for bit
    sev0 = Dataset(corrupt(ev.images, "gaussian", 0, seed=11), ev.labels,
                   ev.classes)
    res = evaluate(model, sev0, batch_size=128)
    assert 1.0 - res.accuracy == rep.clean_error

    # a label-blind classifier lands at chance: its mCE sits within three
    # standard errors of 1 - 1/C
    classes = ev.classes

    def coin_flip(images):
        digest = hashlib.sha256(np.ascontiguousarray(images).tobytes()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        return rng.integers(0, classes, size=len(images))

    chance = robustness_eval(None, ev, seed=11, predict_fn=coin_flip)
    p = 1.0 - 1.0 / classes
    # pixelate repeats a block size at severities (1,2) and (3,4), so those
    # cells duplicate each other's draw: 20 + 2*2 + 1 cells contribute
    # variance weights 20*1 + 2*4 + 1 = 29
    sigma = np.sqrt(29 * p * (1.0 - p) / len(ev)) / 25
    assert abs(chance.mce - p) <= 3 * sigma, (
        f"random-classifier mCE {chance.mce:.4f} vs chance {p:.4f}"
    )

"""Independent computations the benchmark checks spikelat's outputs against.

Nothing here imports the package's numerics: the reference forward pass is
plain numpy built from a ``ModelSpec`` and a name -> array state, the
first-spike rule is restated sample by sample in Python scalars, and the
connection counts are derived from the spec. Every ``check_*`` function
raises :class:`CheckFailed` on a mismatch and returns nothing otherwise.
"""
from __future__ import annotations

import math

import numpy as np

# Relative tolerance on output potentials, against the largest magnitude.
POTENTIAL_RTOL = 1e-9
# Float noise a reordered sum may leave on a similarity entry.
SIMILARITY_TOL = 1e-12
BN_EPS = 1e-5              # the eps batchnorm2d uses by default
ENCODER_KERNEL = 3         # the encoder head is a 3x3, stride 1, pad 1 conv


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- reference forward pass ----------------------------------------------------


def conv_direct(x, k, stride, pad):
    """Cross-correlation summed over kernel offsets, one offset at a time."""
    n, _, h, w = x.shape
    o, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += np.einsum("nchw,oc->nohw", patch, k[:, :, i, j])
    return out


def batchnorm_eval(x, state, prefix):
    mean = state[f"{prefix}.bn.running_mean"][None, :, None, None]
    var = state[f"{prefix}.bn.running_var"][None, :, None, None]
    gamma = state[f"{prefix}.bn.gamma"][None, :, None, None]
    beta = state[f"{prefix}.bn.beta"][None, :, None, None]
    return (x - mean) / np.sqrt(var + BN_EPS) * gamma + beta


def sigmoid(x):
    with np.errstate(over="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def spike_steps(features, timesteps):
    """Latency code: ceil((1 - x) * T), clipped to [1, T]."""
    return np.clip(np.ceil((1.0 - features) * timesteps), 1, timesteps).astype(int)


def lif(currents, tau, theta):
    """u <- tau*u + I; s = [u >= theta]; u <- u - s*theta. Returns (spikes, pre-reset u)."""
    u = np.zeros_like(currents[0])
    spikes, potentials = [], []
    for current in currents:
        u = tau * u + current
        s = (u >= theta).astype(np.float64)
        spikes.append(s)
        potentials.append(u)
        u = u - s * theta
    return spikes, potentials


def reference_forward(spec, state, images):
    """Eval-mode forward of ``spec`` with parameters ``state``.

    Returns (spikes, potentials) of the output population, each (T, N, C),
    potentials taken before the reset.
    """
    t_steps = spec.timesteps
    tau, theta = spec.lif.tau_leak, spec.lif.v_th
    pad = ENCODER_KERNEL // 2
    feats = sigmoid(batchnorm_eval(conv_direct(images, state["enc.conv.k"], 1, pad),
                                   state, "enc"))
    steps = spike_steps(feats, t_steps)
    frames = [(steps == t).astype(np.float64) for t in range(1, t_steps + 1)]

    def conv_lif(frames, prefix, stride, pad):
        k = state[f"{prefix}.conv.k"]
        currents = [batchnorm_eval(conv_direct(x, k, stride, pad), state, prefix)
                    for x in frames]
        return lif(currents, tau, theta)[0]

    for i, layer in enumerate(spec.layers):
        name = f"s{i}"
        if layer.kind == "conv":
            frames = conv_lif(frames, name, layer.stride, layer.pad)
        elif layer.kind == "sew":
            branch = conv_lif(frames, name, 1, layer.kernel // 2)
            frames = [s + x for s, x in zip(branch, frames)]
        elif layer.kind == "pool":
            p = layer.pool
            frames = [x.reshape(x.shape[0], x.shape[1], x.shape[2] // p, p,
                                x.shape[3] // p, p).mean(axis=(3, 5)) for x in frames]
        elif layer.kind == "flatten":
            frames = [x.reshape(x.shape[0], -1) for x in frames]
        elif layer.kind == "linear":
            w, b = state[f"{name}.lin.w"], state[f"{name}.lin.b"]
            frames = lif([x @ w + b for x in frames], tau, theta)[0]
        else:
            raise CheckFailed(f"reference forward has no rule for layer kind {layer.kind!r}")
    w, b = state["out.lin.w"], state["out.lin.b"]
    spikes, potentials = lif([x @ w + b for x in frames], tau, theta)
    return np.stack(spikes), np.stack(potentials)


def check_forward(spec, state, images, spikes, potentials):
    """Program output vs the reference forward on the same images.

    Potentials must agree within POTENTIAL_RTOL of the largest reference
    magnitude; spikes must agree except where the reference potential lies
    within that tolerance of the threshold.
    """
    ref_spikes, ref_pots = reference_forward(spec, state, images)
    _require(potentials.shape == ref_pots.shape,
             f"forward: output shape {potentials.shape}, reference {ref_pots.shape}")
    tol = POTENTIAL_RTOL * max(1.0, float(np.abs(ref_pots).max()))
    err = float(np.abs(potentials - ref_pots).max())
    _require(err <= tol, f"forward: output potentials differ from the reference by {err:.3g}"
                         f" (tolerance {tol:.3g})")
    differ = (spikes > 0) != (ref_spikes > 0)
    near = np.abs(ref_pots - spec.lif.v_th) <= tol
    _require(not np.any(differ & ~near),
             f"forward: {int(np.sum(differ & ~near))} output spikes differ from the reference")


# -- first-spike rule ----------------------------------------------------------


def first_spike_decisions(spikes, potentials):
    """(label, exit_step, spiked, tied) per sample; spikes and potentials are (T, N, C).

    The earliest step with any output spike decides; among that step's
    spikers the highest potential wins, the lowest index on an exact tie.
    With no spike at all the last step's potentials decide over every class
    and the exit step is T.
    """
    t_steps, n, classes = spikes.shape
    out = []
    for i in range(n):
        step, candidates, spiked = t_steps - 1, list(range(classes)), False
        for t in range(t_steps):
            fired = [c for c in range(classes) if spikes[t, i, c] > 0]
            if fired:
                step, candidates, spiked = t, fired, True
                break
        best = max(float(potentials[step, i, c]) for c in candidates)
        winners = [c for c in candidates if float(potentials[step, i, c]) == best]
        out.append((winners[0], step + 1, spiked, len(winners) > 1))
    return out


def check_decisions(decisions, expected):
    """Program decisions (objects with label/exit_step/spiked/tied) vs the restated rule."""
    _require(len(decisions) == len(expected),
             f"decoder: {len(decisions)} decisions for {len(expected)} samples")
    for i, (d, e) in enumerate(zip(decisions, expected)):
        got = (d.label, d.exit_step, d.spiked, d.tied)
        _require(got == e, f"decoder: sample {i} decided {got}, first-spike rule gives {e}")


# -- training ------------------------------------------------------------------


def check_training(losses, accuracy, classes):
    """Finite losses that fall, and accuracy at least halfway from chance to 1."""
    _require(len(losses) >= 2, "training: fewer than two steps recorded")
    _require(all(math.isfinite(x) for x in losses), "training: a loss is not finite")
    k = max(1, len(losses) // 10)
    first, last = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    _require(last < first, f"training: mean loss of the last tenth {last:.4g} is not below"
                           f" the first tenth {first:.4g}")
    floor = 0.5 + 0.5 / classes
    _require(accuracy >= floor, f"training: accuracy {accuracy:.4f} below {floor:.4f}")


# -- energy ----------------------------------------------------------------------


def connection_counts(spec):
    """(stage name, connections per sample) of every layer that computes."""
    c, h, w = spec.input_shape
    rows = [("enc", h * w * c * spec.encoder_channels * ENCODER_KERNEL ** 2)]
    shape = (spec.encoder_channels, h, w)
    for i, layer in enumerate(spec.layers):
        name = f"s{i}"
        if layer.kind in ("conv", "sew"):
            ci, hi, wi = shape
            co = layer.out if layer.kind == "conv" else ci
            stride = layer.stride if layer.kind == "conv" else 1
            pad = layer.pad if layer.kind == "conv" else layer.kernel // 2
            ho = (hi + 2 * pad - layer.kernel) // stride + 1
            wo = (wi + 2 * pad - layer.kernel) // stride + 1
            rows.append((name, ho * wo * ci * co * layer.kernel ** 2))
            shape = (co, ho, wo)
        elif layer.kind == "pool":
            shape = (shape[0], shape[1] // layer.pool, shape[2] // layer.pool)
        elif layer.kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif layer.kind == "linear":
            rows.append((name, shape[0] * layer.out))
            shape = (layer.out,)
    rows.append(("out", shape[0] * spec.classes))
    return rows


def check_energy(report, spec):
    got = [(r.name, int(r.flops)) for r in report.rows]
    want = connection_counts(spec)
    _require(got == want, f"energy: connection counts {got}, derived from the spec {want}")


# -- temporal similarity ---------------------------------------------------------


def check_similarity(matrices, timesteps):
    """Symmetric (T, T) matrices, diagonal in [0, 1], encoder off-diagonals exactly 0."""
    _require("enc" in matrices, "similarity: no matrix for the encoder stage")
    for name, m in matrices.items():
        m = np.asarray(m)
        _require(m.shape == (timesteps, timesteps),
                 f"similarity {name}: shape {m.shape}, expected ({timesteps}, {timesteps})")
        _require(np.all(np.isfinite(m)), f"similarity {name}: non-finite entry")
        _require(np.abs(m - m.T).max() <= SIMILARITY_TOL, f"similarity {name}: not symmetric")
        d = np.diag(m)
        _require(np.all(d >= 0) and np.all(d <= 1 + SIMILARITY_TOL),
                 f"similarity {name}: diagonal outside [0, 1]")
    enc = np.asarray(matrices["enc"])
    _require(np.all(enc[~np.eye(timesteps, dtype=bool)] == 0),
             "similarity enc: off-diagonal entry is not 0, yet each encoded neuron spikes once")


# -- robustness ------------------------------------------------------------------


def check_robustness(report, kinds, severities, clean_accuracy):
    want = {(k, s) for k in kinds for s in severities}
    _require(set(report.cells) == want,
             f"robustness: {len(report.cells)} cells, expected {len(want)}")
    for cell, err in report.cells.items():
        _require(0.0 <= err <= 1.0, f"robustness: error {err} of cell {cell} outside [0, 1]")
    _require(abs(report.clean_error - (1.0 - clean_accuracy)) <= 1e-12,
             f"robustness: clean error {report.clean_error} but the checked accuracy"
             f" is {clean_accuracy}")


# -- checkpoint ------------------------------------------------------------------


def check_checkpoint(read_back, saved):
    """Arrays read back equal the saved model's arrays rounded to float32."""
    _require(sorted(read_back) == sorted(saved),
             f"checkpoint: names {sorted(read_back)}, model has {sorted(saved)}")
    for name, a in saved.items():
        want = np.asarray(a, dtype=np.float32)
        got = np.asarray(read_back[name])
        _require(got.shape == want.shape and np.array_equal(got, want),
                 f"checkpoint: array {name!r} differs from the model's float32 rounding")

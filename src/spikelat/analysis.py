"""Post-training analysis: energy accounting, temporal structure, robustness.

Energy follows the usual 45 nm accounting: a multiply-accumulate costs
4.6 pJ, a pure accumulate 0.9 pJ. A conventional network pays the MAC price
for every connection every presentation. A spiking network pays it only in
the first layer (which still sees analog input); every later layer performs
accumulates gated by incoming spikes, so its cost scales with the mean
input activity alpha and the window length. Binary layers keep alpha in
[0, 1]; residual spiking blocks can emit values up to 2, so alpha may
exceed 1 there and nowhere else.

Platform-normalized energy treats a chip as a static share that scales with
the window length plus a dynamic share that scales with spike traffic,
both relative to an explicit baseline run.

Temporal similarity summarizes how a layer's representation drifts across
the window: the mean cosine between a sample's activity vectors at two
steps, averaged over the batch. Latency-encoded layers place each neuron's
single spike in exactly one frame, so their matrix is the identity.

Energy and similarity read one layer-major full-window forward record.
The robustness sweep scores the model under five image corruptions at five
severities; its summary is the unweighted mean error over all cells. Each
cell's error is ``1 - trainer.evaluate(...).accuracy``, so a sample whose
output fires at step 1 runs no further and the rest run steps 2..T as
one block. The cells run serially in a fixed order, each with its own
fixed seed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .data import CORRUPTIONS, Dataset, corrupt
from .errors import ContractError
from .network import Model
from .trainer import evaluate

PLATFORM_SHARES = {
    "truenorth": (0.6, 0.4),
    "spinnaker": (0.36, 0.64),
}


# The per-operation costs are tenths of a picojoule, so all sums run in
# that integer-valued unit and divide by ten once at the end; round-decimal
# totals then come out exact instead of accumulating binary drift.
_MAC_TENTHS = 46.0
_AC_TENTHS = 9.0
E_MAC_PJ = _MAC_TENTHS / 10    # the same double as the literal 4.6
E_AC_PJ = _AC_TENTHS / 10      # and as 0.9


def energy_ann(flops) -> float:
    """Energy in pJ of a conventional pass: every connection is a MAC."""
    return _MAC_TENTHS * float(sum(flops)) / 10.0


def energy_snn(flops, input_alphas, timesteps) -> float:
    """Energy in pJ of a spiking pass.

    ``flops`` lists the connection counts of the compute layers in order;
    ``input_alphas`` gives the mean activity feeding each of them, with
    None marking the analog-input layer (charged at the MAC rate, once).
    Spike-driven layers pay alpha * flops accumulates per step.
    """
    flops = list(flops)
    input_alphas = list(input_alphas)
    if len(flops) != len(input_alphas):
        raise ContractError("flops and input_alphas must align")
    if timesteps < 1:
        raise ContractError("timesteps must be >= 1")
    total = 0.0
    for f, a in zip(flops, input_alphas):
        if a is None:
            total += _MAC_TENTHS * f
        else:
            if a < 0:
                raise ContractError(f"negative activity {a}")
            total += _AC_TENTHS * timesteps * a * f
    return total / 10.0


def normalized_energy(timesteps, spikes, base_timesteps, base_spikes,
                      platform="truenorth") -> float:
    """Cost relative to a baseline run on a static/dynamic split platform.

    The platform is a named entry in ``PLATFORM_SHARES``. Static cost
    scales with the window length, dynamic cost with spike counts, both
    against the baseline.
    """
    if platform not in PLATFORM_SHARES:
        raise ContractError(f"unknown platform {platform!r}, expected one of "
                            f"{sorted(PLATFORM_SHARES)}")
    static, dynamic = PLATFORM_SHARES[platform]
    if base_timesteps <= 0 or base_spikes <= 0:
        raise ContractError("baseline figures must be positive")
    return float(static * (timesteps / base_timesteps)
                 + dynamic * (spikes / base_spikes))


@dataclass
class EnergyRow:
    name: str
    kind: str
    flops: int
    alpha_in: float | None    # None for the analog-input layer
    source_kind: str | None   # stage kind that produced the input spikes
    sops_per_step: float      # alpha * flops; 0 for the analog layer
    energy_pj: float


@dataclass
class EnergyReport:
    rows: list
    timesteps: int
    ann_pj: float
    snn_pj: float

    @property
    def ratio(self) -> float:
        return self.snn_pj / self.ann_pj


def model_energy(model: Model, record) -> EnergyReport:
    """Audit a forward pass: per-layer activity, accumulates, and energy."""
    alphas = record.stage_alpha()
    t = record.timesteps
    rows = []
    alpha = None              # None = analog input ahead of the first layer
    source_kind = None
    for stage in model.audit:
        if stage.flops == 0:
            # pooling and reshapes move spikes around without arithmetic;
            # averaging preserves the mean activity exactly
            continue
        sops = 0.0 if alpha is None else alpha * stage.flops
        rows.append(EnergyRow(stage.name, stage.kind, stage.flops, alpha,
                              source_kind, sops,
                              energy_snn([stage.flops], [alpha], t)))
        if stage.spiking:
            if stage.name not in alphas:
                raise ContractError(
                    f"forward record carries no activity for stage {stage.name!r}"
                )
            alpha = alphas[stage.name]
            source_kind = stage.kind
    flops = [r.flops for r in rows]
    return EnergyReport(rows=rows, timesteps=t, ann_pj=energy_ann(flops),
                        snn_pj=energy_snn(flops, [r.alpha_in for r in rows], t))


def write_energy_csv(path, report: EnergyReport):
    lines = ["layer,kind,flops,alpha_in,sops_per_step,energy_pj"]
    for r in report.rows:
        a = "" if r.alpha_in is None else f"{r.alpha_in:.10g}"
        lines.append(f"{r.name},{r.kind},{r.flops},{a},"
                     f"{r.sops_per_step:.10g},{r.energy_pj:.10g}")
    lines.append(f"total_ann,,,,,{report.ann_pj:.10g}")
    lines.append(f"total_snn,,,,,{report.snn_pj:.10g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# -- temporal similarity -----------------------------------------------------


def temporal_similarity(frames) -> np.ndarray:
    """(T, T) mean cosine between per-sample activity vectors across steps,
    from a (T, N, ...) tensor or array of frames.

    A pair involving an all-zero vector contributes 0. The cosine uses
    dot / sqrt(|a|^2 * |b|^2); on the diagonal that square root is exact,
    so self-similarity of any active vector is exactly 1.0.
    """
    v = np.asarray(frames.data if isinstance(frames, Tensor) else frames)
    if v.ndim < 2 or v.shape[0] == 0 or v.shape[1] == 0:
        raise ContractError("temporal_similarity needs (T, N, ...) frames with"
                            f" T, N >= 1, got shape {v.shape}")
    v = v.reshape(len(v), v.shape[1], -1)              # (T, N, D)
    # uint8 spikes are cast in the einsum's buffers, not copied whole; their
    # products and sums are exact integers
    dots = np.einsum("ind,jnd->ijn", v, v, dtype=np.float64, casting="safe")  # (T, T, N)
    # squared norms taken off the diagonal of the same sums, so a vector's
    # self-dot and its norm agree to the bit
    sq = np.diagonal(dots).T                           # (T, N)
    denom2 = sq[:, None, :] * sq[None, :, :]
    safe = np.sqrt(np.where(denom2 > 0, denom2, 1.0))
    return np.where(denom2 > 0, dots / safe, 0.0).mean(axis=2)


def write_similarity_csv(path, matrix):
    matrix = np.asarray(matrix)
    lines = ["step," + ",".join(str(j + 1) for j in range(matrix.shape[1]))]
    for i, row in enumerate(matrix):
        lines.append(f"{i + 1}," + ",".join(f"{x:.10g}" for x in row))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_similarity_gnuplot(dat_path, gp_path, matrix):
    matrix = np.asarray(matrix)
    with open(dat_path, "w") as f:
        for row in matrix:
            f.write(" ".join(f"{x:.10g}" for x in row) + "\n")
    with open(gp_path, "w") as f:
        f.write(
            "set title 'temporal similarity'\n"
            "set xlabel 'step'\nset ylabel 'step'\n"
            "set cbrange [0:1]\n"
            f"plot '{os.path.basename(dat_path)}' matrix with image notitle\n"
        )


# -- robustness --------------------------------------------------------------


@dataclass
class RobustnessReport:
    clean_error: float
    cells: dict               # (kind, severity) -> error rate
    mce: float                # unweighted mean over all cells


def robustness_eval(model: Model, ds: Dataset, batch_size=64, seed=0,
                    predict_fn=None) -> RobustnessReport:
    """Error rates under every corruption at severities 1..5, plus the clean run.

    The cells run serially, kind by kind in ``CORRUPTIONS`` order and
    severity 1..5 within a kind; each corrupts the evaluation images with
    its own fixed seed, ``seed + 131 * kind index + severity``.
    ``predict_fn`` swaps the model out for any images->labels callable, which
    lets the harness score reference classifiers (``model`` may be None then).
    """

    def error_on(images):
        if predict_fn is not None:
            pred = np.asarray(predict_fn(images))
            return float((pred != ds.labels).mean())
        return 1.0 - evaluate(model, Dataset(images, ds.labels, ds.classes), batch_size).accuracy

    clean = error_on(ds.images)
    cells = {}
    for i, kind in enumerate(CORRUPTIONS):
        for severity in range(1, 6):
            imgs = corrupt(ds.images, kind, severity,
                           seed=seed + 131 * i + severity)
            cells[(kind, severity)] = error_on(imgs)
    mce = float(np.mean(list(cells.values())))
    return RobustnessReport(clean_error=clean, cells=cells, mce=mce)


def write_robustness_csv(path, report: RobustnessReport):
    lines = ["corruption,severity,error_rate",
             f"clean,0,{report.clean_error:.10g}"]
    for (kind, severity) in sorted(report.cells):
        lines.append(f"{kind},{severity},{report.cells[(kind, severity)]:.10g}")
    lines.append(f"mce,,{report.mce:.10g}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_robustness_gnuplot(dat_path, gp_path, report: RobustnessReport):
    kinds = sorted({k for k, _ in report.cells})
    severities = sorted({s for _, s in report.cells})
    with open(dat_path, "w") as f:
        f.write("severity " + " ".join(kinds) + "\n")
        for s in severities:
            row = " ".join(f"{report.cells[(k, s)]:.10g}" for k in kinds)
            f.write(f"{s} {row}\n")
    with open(gp_path, "w") as f:
        f.write("set title 'corruption robustness'\n"
                "set xlabel 'severity'\nset ylabel 'error rate'\n"
                "set yrange [0:1]\nset key outside\n")
        plots = ", ".join(
            f"'{os.path.basename(dat_path)}' using 1:{i + 2} with linespoints"
            f" title '{k}'" for i, k in enumerate(kinds)
        )
        f.write(f"plot {plots}\n")

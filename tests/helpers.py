"""Shared test utilities: numeric gradient oracle and small builders."""
import numpy as np

from spikelat.autodiff import Tensor
from spikelat.lif import _window


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar-valued f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-12)
    return np.linalg.norm((a - b).ravel()) / denom


def check_grad(build, x0, rtol=1e-5, h=1e-6):
    """Compare tape gradient against numeric_grad for loss = build(Tensor).

    ``build`` maps a Tensor to a scalar Tensor. Returns the relative error.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    t = Tensor(x0)
    loss = build(t)
    loss.backward()
    num = numeric_grad(lambda v: float(build(Tensor(v)).data), x0, h=h)
    e = rel_err(t.grad, num)
    assert e < rtol, f"gradient mismatch: rel err {e:.3e} >= {rtol}"
    return e


def spike(u, cfg):
    """Per-step reference spike node: fires when u >= v_th.

    Backward substitutes a boxcar of height 1/width on
    |u - v_th| <= width/2, boundary included.
    """
    s = (u.data >= cfg.v_th).astype(np.float64)
    out = Tensor(s, (u,), "spike")

    def bw(g, u=u, cfg=cfg):
        u.accumulate(g * _window(u.data, cfg))

    out._backward = bw
    return out


def tape_lif_unroll(currents, cfg):
    """Per-step tape reference for ``lif_unroll``: leak, add, spike and
    reset nodes at every step, from a list of per-step tensors.

    Returns (spikes list, pre-reset potentials list, final potential).
    """
    u = Tensor(np.zeros_like(currents[0].data))
    spikes, potentials = [], []
    for c in currents:
        u_pre = u * cfg.tau_leak + c
        s = spike(u_pre, cfg)
        reset = s.detach() if cfg.detach_reset else s
        u = u_pre + reset * (-cfg.v_th)
        spikes.append(s)
        potentials.append(u_pre)
    return spikes, potentials, u


def manual_bptt(currents, loss_on_spikes, loss_on_final, cfg):
    """Hand-rolled scalar LIF adjoint, written without the tape.

    Forward recurrence plus an explicit reverse sweep for
    L = sum_t loss_on_spikes[t] * s[t] + loss_on_final * u_post[T].
    Returns (spikes, u_pre list, dL/dI per step).
    """
    T = len(currents)
    u_post = 0.0
    u_pre, s, g = [], [], []
    for t in range(T):
        up = cfg.tau_leak * u_post + currents[t]
        st = 1.0 if up >= cfg.v_th else 0.0
        u_post = up - st * cfg.v_th
        u_pre.append(up)
        s.append(st)
        x = up - cfg.v_th
        g.append((1.0 / cfg.surrogate_width) if abs(x) <= cfg.surrogate_width / 2 else 0.0)

    dI = [0.0] * T
    d_u_post = loss_on_final
    for t in reversed(range(T)):
        reset_term = 0.0 if cfg.detach_reset else cfg.v_th * g[t]
        d_u_pre = loss_on_spikes[t] * g[t] + d_u_post * (1.0 - reset_term)
        dI[t] = d_u_pre
        d_u_post = cfg.tau_leak * d_u_pre
    return s, u_pre, dI

"""Reverse-mode automatic differentiation over dense arrays.

A ``Tensor`` is both the value carrier and a node of a define-by-run tape:
it remembers its parents and a closure that routes the upstream gradient to
them. A node is always made after its parents, so its ``id`` orders the
tape: :meth:`Tensor.backward` on a scalar runs the reachable nodes in
reverse creation order and accumulates gradients into every one of them,
including every use of a shared weight.

The graph is rebuilt on every forward pass, and backward consumes it: once
an op result's ``_backward`` has run, the result drops its gradient, its
closure (with the arrays the closure saved) and its parents. Only leaves
keep gradients, and a tape serves one backward.

A tape entry can outlive its value. No backward reads a node's ``data``:
each reads the arrays its op saved and the stored ``shape``. So once every
op that reads a result's value has run, :meth:`Tensor.release` drops that
value, and the tape holds only what backward reads.

An op that overwrites an op result it consumes takes that value over
(:func:`overwritable`) and releases the result itself, with or without a
tape, so a later reader raises ``ContractError``: ``batchnorm2d`` writes its
output into the conv result's buffer, and ``lif.lif_unroll`` its potentials
into the drive's. ``batchnorm2d`` keeps no deviations x - mu, whatever its
input: backward rebuilds them step by step from a recorded conv's input and
kernel, which the conv keeps anyway, or else from x's value, which the tape
then keeps (Chen et al., "Training Deep Nets with Sublinear Memory Cost",
2016). A backward closure owns the gradient it receives and hands each
parent an array no other node holds, which ``accumulate`` keeps on a first
write: ``batchnorm2d`` and the LIF node hand on the gradient they receive,
rewritten in place. Only ``add``, which has one gradient for two parents,
and ``sum``, a read-only broadcast, copy.

Values are 64-bit floats, except spike values, which are ``uint8`` counts:
the latency raster, the LIF spikes and the residual sum of two spike
frames (at most 2), the one uint8 + uint8. Every other op reads a uint8
value into float64 exactly (``conv2d``'s patch copy, ``linear``'s matmul,
``avg_pool2d``'s first copy), so no uint8 arithmetic wraps. Gradients are
always float64. A :class:`Constant` leaf is data, not a parameter: it
takes no gradient, and ``conv2d`` does not compute one for it.

NaN and Inf are an error state that raises
:class:`~spikelat.errors.NumericsError`, but op results are not scanned one
by one: a leaf (images, parameters) is checked when it is made, and the
model checks one array per stage and the loss with :func:`check_finite`.
NaN and Inf propagate through the arithmetic between those checks, so each
still sees them.

Inside a :func:`no_grad` scope nothing is recorded: an op result keeps no
parents and no backward closure, so each intermediate array is freed as
soon as the caller drops it. A pass run there is an eval-mode pass, and
:func:`recording` is the one switch the model reads to tell which mode it is
in; backward through such a result raises ``ContractError``.

``batchnorm2d`` keeps only its training branch: eval mode folds the running
statistics into the conv before it (``network.ConvStage.drive``).

``conv2d`` is stride-1 only. Its input gradient is the same chunked
shift-GEMM as its forward pass, run on the upstream gradient with the
flipped, channel-transposed kernel; its kernel gradient reads the same
patches of the upstream gradient, so no backward patches a conv's input.
"""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, GraphError, NumericsError, ShapeError

_ids = itertools.count()
_recording = True   # False inside no_grad()


@contextmanager
def no_grad():
    """A scope whose op results are not recorded on the tape: they keep no
    parents and no backward closure, and leaves are checked as usual. The
    scope is process-wide, which is safe because the package runs no threads."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


def recording() -> bool:
    """Whether op results are recorded on the tape: False inside :func:`no_grad`."""
    return _recording


_RELEASED = np.empty(0)     # the value of every released op result
_RELEASED.flags.writeable = False


class Tensor:
    """A dense array that records how it was computed: float64, or uint8
    for spike values (given as a uint8 array, it is kept as it is).

    Leaf tensors have no parents. Operation results carry a ``_backward``
    closure which, given the node's accumulated gradient, adds each parent's
    share to that parent's ``grad``; inside :func:`no_grad` they carry
    neither, and after a backward has passed them they keep neither, nor a
    gradient. A node's parents are older than the node: ``id`` is drawn at
    construction, after the parents exist. ``shape`` is stored apart from
    ``data``, so it outlives a value dropped by :meth:`release`.
    """

    __slots__ = ("id", "data", "shape", "grad", "parents", "op", "_backward", "_reads",
                 "__weakref__")

    def __init__(self, data, parents=(), op="leaf", backward=None):
        self.id = next(_ids)
        if not (isinstance(data, np.ndarray) and data.dtype == np.uint8):
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        if not parents:
            if not np.isfinite(self.data).all():
                raise NumericsError(f"non-finite values in a {op} tensor")
        else:
            for p in parents:
                if p.data is _RELEASED:
                    raise ContractError(f"op '{op}' read the value of a released"
                                        f" '{p.op}' result")
                p._reads += 1
            if not _recording:
                parents, backward = (), None
        self.shape = self.data.shape
        self._reads = 0     # op results made from this one, with or without a tape
        self.grad = None
        self.parents = tuple(parents)
        self.op = op
        self._backward = backward

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return math.prod(self.shape)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    def __len__(self):
        if not self.shape:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    def release(self):
        """Drop the value of an op result, keeping its shape and its place in
        the graph. Backward reads saved arrays and shapes only, so its
        gradients do not change; an op that reads the value raises
        ``ContractError``, with or without a tape. Leaves keep theirs."""
        if self.op != "leaf":
            self.data = _RELEASED

    def accumulate(self, g):
        """Take over ``g``, a float64 array of this node's shape that no other
        node holds: a first write keeps it, later writes add into it."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse accumulation from this scalar node.

        Seeds the root gradient with 1 and runs every reachable node's
        ``_backward`` in reverse creation order (decreasing ``id``), which is
        topological because parents are older; a parent that is not older
        raises ``GraphError``, and an op result made inside :func:`no_grad`
        raises ``ContractError``. Leaves already holding a gradient are added
        to, so per-sample runs can be summed externally.

        Each op result drops its ``grad``, ``_backward`` and ``parents`` once
        its turn has come; a second backward through a spent node raises
        ``ContractError`` before any gradient moves.
        """
        if self.size != 1:
            raise ContractError(
                f"backward requires a scalar root, got shape {self.shape}"
            )
        nodes, stack = {self.id: self}, [self]
        while stack:
            node = stack.pop()
            if not node.parents and node.op != "leaf":
                raise ContractError(f"op '{node.op}' ran without a tape (no_grad, or"
                                    " a tape spent by an earlier backward);"
                                    " it has no gradient to give")
            for p in node.parents:
                if p.id >= node.id:
                    raise GraphError(f"op '{node.op}' has a parent made after it"
                                     " (a cycle or a rewired graph)")
                if p.id not in nodes:
                    nodes[p.id] = p
                    stack.append(p)
        self.accumulate(np.ones(self.shape))
        for i in sorted(nodes, reverse=True):
            node = nodes.pop(i)
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node.parents:    # an op result: its part of the tape is spent
                node.grad, node._backward, node.parents = None, None, ()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "add")

            def bw(g, a=self, b=other):
                a.accumulate(g.copy())
                b.accumulate(g)

            return Tensor(self.data + other.data, (self, other), "add", bw)

        def bw(g, a=self):
            a.accumulate(g)

        return Tensor(self.data + float(other), (self,), "add", bw)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "mul")

            def bw(g, a=self, b=other, ad=self.data, bd=other.data):
                a.accumulate(g * bd)
                b.accumulate(g * ad)

            return Tensor(self.data * other.data, (self, other), "mul", bw)

        c = float(other)

        def bw(g, a=self, c=c):
            a.accumulate(g * c)

        return Tensor(self.data * c, (self,), "mul", bw)

    __rmul__ = __mul__

    def __getitem__(self, idx):
        """Integer or slice indexing on axis 0; a tensor iterates its steps."""
        if not isinstance(idx, (int, np.integer, slice)):
            raise ContractError("only integer or slice indexing on axis 0 is supported")

        def bw(g, a=self, idx=idx):
            if a.grad is None:      # and stays None for a Constant
                grad = np.zeros(a.shape)
                grad[idx] += g
                a.accumulate(grad)
            else:
                a.grad[idx] += g

        return Tensor(self.data[idx], (self,), "index0", bw)

    # -- reductions and reshapes -------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def bw(g, a=self, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.shape).copy())

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum", bw)

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def bw(g, a=self):
            a.accumulate(g.reshape(a.shape))

        return Tensor(self.data.reshape(shape), (self,), "reshape", bw)


# op results whose value is not theirs alone: reshape and index0 results view
# their parent's value, and the backward of sigmoid and softmax_rows reads their own
_SHARED_VALUES = ("reshape", "index0", "sigmoid", "softmax_rows")


def overwritable(x: Tensor) -> bool:
    """Whether an op that consumes ``x`` may write into its value: ``x`` is a
    float64 op result that holds a value of its own, one no backward reads,
    and no op has read it yet (one may have saved it). Leaves belong to
    their caller. The op releases ``x`` once its own result exists, so no
    later op can read it either: it raises ``ContractError``."""
    return (x.op != "leaf" and x.op not in _SHARED_VALUES and x._reads == 0
            and x.data.dtype == np.float64 and x.data.flags.writeable)


class Constant(Tensor):
    """A leaf that is data, not a parameter, such as the images a model is
    given: it takes no gradient, and ``conv2d`` does not compute one for it."""

    __slots__ = ()

    def accumulate(self, g):
        pass


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def check_finite(t: Tensor, where: str) -> Tensor:
    """``t`` itself, once its values are known to hold no NaN or Inf;
    otherwise a ``NumericsError`` naming ``where`` and the op that made ``t``."""
    if not np.isfinite(t.data).all():
        raise NumericsError(f"non-finite values in {where} (op '{t.op}')")
    return t


# -- neural-net primitives --------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map: out[..., o] = sum_i x[..., i] w[i, o] + b[o], with the
    leading axes, such as a time-major (T, N), folded into one batch."""
    if x.ndim < 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError("linear expects x (..., N, I), w (I, O), b (O,)")
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(
            f"linear: x {x.shape}, w {w.shape}, b {b.shape} do not chain"
        )
    # uint8 spikes are cast to float64 before each GEMM: a mixed-type matmul
    # may lay out its operands differently and round differently
    x2 = x.data.reshape(-1, w.shape[0])
    out_data = x2.astype(np.float64, copy=False) @ w.data
    out_data += b.data

    def bw(g, x=x, w=w, b=b, x2=x2, wd=w.data):
        g2 = g.reshape(x2.shape[0], -1)
        x.accumulate((g2 @ wd.T).reshape(x.shape))
        w.accumulate(x2.astype(np.float64, copy=False).T @ g2)
        b.accumulate(g2.sum(axis=0))

    return Tensor(out_data.reshape(x.shape[:-1] + (w.shape[1],)), (x, w, b), "linear", bw)


def _conv_geometry(H, W, K, pad):
    """Output (h, w) of a stride-1 K x K conv over an H x W input padded by ``pad``."""
    if K > H + 2 * pad or K > W + 2 * pad:
        raise ShapeError(f"kernel {K} larger than padded input ({H}+2*{pad})")
    return H + 2 * pad - K + 1, W + 2 * pad - K + 1


_CHUNK_BYTES = 1 << 20   # patch matrix of one chunk of the folded batch: cache-sized


def _patches(xc, flat, cols, pad, offsets):
    """Shift-GEMM patch matrix (n, K*K*C, h_out*Wp) of a chunk xc (n,C,H,W).

    ``flat`` holds the zero-padded images with spare zero rows below, so
    that kernel offset (i, j) is one slice of each flattened image: it
    starts at i*Wp + j and is h_out*Wp long. Rows are ordered (offset,
    channel); grid columns >= w_out wrap into the next image row and are
    scratch.
    """
    n, _, H, W = xc.shape
    flat, cols = flat[:n], cols[:n]
    flat[:, :, pad : pad + H, pad : pad + W] = xc
    flat = flat.reshape(n, flat.shape[1], -1)
    for kk, o in enumerate(offsets):
        cols[:, kk] = flat[:, :, o]
    return cols.reshape(n, -1, cols.shape[-1])


def _patch_chunks(xs, K, pad):
    """(chunk slice, patch matrix) over the batch of xs (N,C,H,W), in chunks
    whose patch matrices are about ``_CHUNK_BYTES``, so each stays in cache."""
    N, C, H, W = xs.shape
    Wp = W + 2 * pad
    L = (H + 2 * pad - K + 1) * Wp
    offsets = [slice(s, s + L) for s in (i * Wp + j for i in range(K) for j in range(K))]
    rows = max(H + 2 * pad, -(-offsets[-1].stop // Wp))
    step = max(1, min(N, _CHUNK_BYTES // (C * K * K * L * 8)))
    flat, cols = np.zeros((step, C, rows, Wp)), np.empty((step, K * K, C, L))
    for a in range(0, N, step):
        yield slice(a, a + step), _patches(xs[a : a + step], flat, cols, pad, offsets)


def _correlate(xs, w2, K, pad):
    """Stride-1 cross-correlation of xs (N,C,H,W) with the kernels in w2
    (O, K*K*C), columns ordered (offset, channel): one GEMM per chunk."""
    N, _, H, W = xs.shape
    h_out, w_out = _conv_geometry(H, W, K, pad)
    out = np.empty((N, len(w2), h_out, w_out))
    for c, p in _patch_chunks(xs, K, pad):
        grid = w2 @ p
        out[c] = grid.reshape(-1, len(w2), h_out, W + 2 * pad)[..., :w_out]
    return out


def _conv_operands(x, k):
    """x's value folded to (T*N, C, H, W), and k as ``_correlate``'s (O, K*K*C) rows."""
    c_out, C, K, _ = k.shape
    return (x.data.reshape((-1,) + x.shape[-3:]),
            k.data.transpose(0, 2, 3, 1).reshape(c_out, K * K * C))


def conv2d(x: Tensor, k: Tensor, pad: int = 0) -> Tensor:
    """Stride-1 2-D cross-correlation of x (N,C,H,W) with kernels k
    (O,C,K,K), zero padding ``pad`` <= K-1; a time-major x (T,N,C,H,W) runs
    once on its folded (T*N,C,H,W) view.

    Forward and backward walk the batch in cache-sized chunks and rebuild
    each chunk's patches instead of keeping them on the tape. Backward
    patches only the upstream gradient, padded by K-1-pad: the input
    gradient is its forward conv with the flipped, channel-transposed kernel
    (Dumoulin & Visin, "A guide to convolution arithmetic for deep
    learning", 2016), and the kernel gradient contracts the same patches
    with the input laid on their grid.
    """
    if x.ndim not in (4, 5) or k.ndim != 4:
        raise ShapeError("conv2d expects x (N,C,H,W) or (T,N,C,H,W) and k (O,C,K,K)")
    C, H, W = x.shape[-3:]
    c_out, c_in, K, K2 = k.shape
    if K != K2:
        raise ShapeError("conv2d kernels must be square")
    if c_in != C:
        raise ShapeError(f"conv2d: input has {C} channels, kernel expects {c_in}")
    if pad > K - 1:
        raise ShapeError(f"conv2d: pad {pad} exceeds kernel size - 1 ({K - 1})")
    if x.size == 0:
        raise ShapeError(f"conv2d: empty input {x.shape}")
    h_out, w_out = _conv_geometry(H, W, K, pad)

    xs, w2 = _conv_operands(x, k)
    out_data = _correlate(xs, w2, K, pad).reshape(x.shape[:-3] + (c_out, h_out, w_out))

    def bw(g, x=x, k=k, xs=xs, kd=k.data):
        g = g.reshape(-1, c_out, h_out, w_out)
        flipped = kd[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(C, K * K * c_out)
        dx, dw, grid = np.empty(xs.shape), np.zeros(flipped.shape), None
        # patch rows are (flipped offset, out channel), columns x's pixels on a
        # grid W+K-1 wide, whose columns >= W are scratch
        for c, p in _patch_chunks(g, K, K - 1 - pad):
            n = len(p)
            if not isinstance(x, Constant):     # which takes no gradient
                dx[c] = (flipped @ p).reshape(n, C, H, W + K - 1)[..., :W]
            if grid is None:    # the first chunk is the largest; scratch columns stay 0
                grid = np.zeros((n, C, H, W + K - 1))
            grid[:n, ..., :W] = xs[c]
            dw += (grid[:n].reshape(n, C, -1) @ p.transpose(0, 2, 1)).sum(axis=0)
        x.accumulate(dx.reshape(x.shape))
        k.accumulate(dw.reshape(C, K, K, c_out)[:, ::-1, ::-1].transpose(3, 0, 1, 2))

    return Tensor(out_data, (x, k), "conv2d", bw)


_BN_MOMENTUM = 0.1   # weight of one step's batch statistics in the running buffers
_BN_EPS = 1e-5


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
) -> Tensor:
    """Training-mode per-channel batch normalization over (N, H, W).

    Normalizes by batch statistics and folds them into the running buffers
    in place (new = (1-m)*old + m*batch, m = _BN_MOMENTUM, unbiased
    variance for the running buffer). Eval mode, which uses the running
    buffers, is folded into the conv before it (``ConvStage.drive``).
    A time-major x (T,N,C,H,W) is normalized step by step: each
    timestep has its own batch statistics and updates the running buffers
    once, in step order, exactly as T calls on the (N,C,H,W) steps would.

    The tape keeps no deviations x - mu: backward rebuilds them step by
    step, recomputing a recorded ``conv2d`` x, bitwise, from the input and
    kernel the conv keeps, or else reading x's value, which the tape then
    keeps. Only in the first case, or without a tape, may the output take
    over x's buffer (:func:`overwritable`).
    """
    if x.ndim not in (4, 5):
        raise ShapeError("batchnorm2d expects x (N,C,H,W) or (T,N,C,H,W)")
    if x.size == 0:
        raise ShapeError(f"batchnorm2d: empty input {x.shape}")
    x5 = x.data.reshape((-1,) + x.shape[-4:])
    _, N, C, H, W = x5.shape
    m = N * H * W
    if x.op == "conv2d" and x.parents:
        # bitwise: an image's patches and GEMM do not depend on the chunk it falls in
        src, k = x.parents
        (xs, w2), K = _conv_operands(src, k), k.shape[-1]
        pad = (H - src.shape[-2] + K - 1) // 2      # stride 1: H = H_src + 2*pad - K + 1
        step = lambda t: _correlate(xs[t * N : (t + 1) * N], w2, K, pad)
        owned = overwritable(x)
    else:   # a copy, which backward may scale in place
        step = lambda t: x5[t].astype(np.float64)
        owned = overwritable(x) and not _recording

    mu = x5.mean(axis=(1, 3, 4))
    d = np.subtract(x5, mu[:, None, :, None, None], out=x5 if owned else None)
    var = np.einsum("tnchw,tnchw->tc", d, d) / m
    unbiased = var * (m / (m - 1)) if m > 1 else var
    for mu_t, var_t in zip(mu, unbiased):
        running_mean *= 1.0 - _BN_MOMENTUM
        running_mean += _BN_MOMENTUM * mu_t
        running_var *= 1.0 - _BN_MOMENTUM
        running_var += _BN_MOMENTUM * var_t
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)      # (T, C)
    out_data = np.multiply(d, (gamma.data * inv_std)[:, None, :, None, None], out=d)
    out_data += beta.data[:, None, None]

    def bw(g, x=x, gamma=gamma, beta=beta, mu=mu, inv_std=inv_std, m=m, gd=gamma.data,
           shape=x5.shape):
        g = g.reshape(shape)
        scale = gd * inv_std
        sum_g, sum_gd = np.empty_like(inv_std), np.empty_like(inv_std)
        for t, g_t in enumerate(g):
            d_t = step(t)
            d_t -= mu[t][:, None, None]
            sum_g[t] = np.einsum("nchw->c", g_t)
            sum_gd[t] = np.einsum("nchw,nchw->c", g_t, d_t)
            # batch statistics depend on x, so the full Jacobian applies:
            # dx = (g - sum_g/m - d*inv_std^2*sum_gd/m) * gamma*inv_std,
            # written into g; d_t is this step's own rebuilt copy, so it is scaled in place
            dx = np.multiply(g_t, scale[t][:, None, None], out=g_t)
            d_t *= (scale[t] * inv_std[t]**2 * sum_gd[t] / m)[:, None, None]
            dx -= d_t
            dx -= (scale[t] * sum_g[t] / m)[:, None, None]
        gamma.accumulate((sum_gd * inv_std).sum(axis=0))
        beta.accumulate(sum_g.sum(axis=0))
        x.accumulate(g.reshape(x.shape))

    out = Tensor(out_data.reshape(x.shape), (x, gamma, beta), "batchnorm2d", bw)
    if owned:
        x.release()
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, overflow-safe on both tails: with
    e = exp(-|x|) <= 1, it is 1/(1+e) for x >= 0 and e/(1+e) below."""
    d = x.data
    e = np.exp(-np.abs(d))
    q = 1.0 + e
    s = np.where(d >= 0, 1.0 / q, e / q)

    def bw(g, x=x, s=s):
        x.accumulate(g * s * (1.0 - s))

    return Tensor(s, (x,), "sigmoid", bw)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a (N, C) tensor, stabilized by max subtraction."""
    if x.ndim != 2:
        raise ShapeError("softmax_rows expects a (N, C) tensor")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def bw(g, x=x, s=s):
        x.accumulate(s * (g - (g * s).sum(axis=1, keepdims=True)))

    return Tensor(s, (x,), "softmax_rows", bw)


def avg_pool2d(x: Tensor, size: int) -> Tensor:
    """Non-overlapping average pooling with a square window over the last two
    axes of x (N,C,H,W) or (T,N,C,H,W), one strided slice per window offset."""
    if x.ndim not in (4, 5):
        raise ShapeError("avg_pool2d expects x (N,C,H,W) or (T,N,C,H,W)")
    H, W = x.shape[-2:]
    if H % size or W % size:
        raise ShapeError(f"avg_pool2d: {H}x{W} not divisible by window {size}")
    offsets = [(..., slice(i, None, size), slice(j, None, size))
               for i in range(size) for j in range(size)]
    out_data = x.data[offsets[0]].astype(np.float64)
    for o in offsets[1:]:
        out_data += x.data[o]
    out_data /= size * size

    def bw(g, x=x, offsets=offsets):
        dx = np.empty(x.shape)
        g = g / len(offsets)
        for o in offsets:
            dx[o] = g
        x.accumulate(dx)

    return Tensor(out_data, (x,), "avg_pool2d", bw)

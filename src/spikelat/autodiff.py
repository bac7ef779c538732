"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` is both the value carrier and a node of a define-by-run tape:
it remembers its parents and a closure that routes the upstream gradient to
them. Calling :meth:`Tensor.backward` on a scalar walks the tape in reverse
topological order and accumulates gradients into every reachable node,
including every use of a shared weight.

The graph is rebuilt on every forward pass; nothing is cached between runs.
All arithmetic is in 64-bit floats. Producing NaN or Inf anywhere is treated
as an error state and raises :class:`~spikelat.errors.NumericsError`.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractError, GraphError, NumericsError, ShapeError

_ids = itertools.count()


class Tensor:
    """A dense float64 array that records how it was computed.

    Leaf tensors have no parents. Operation results carry a ``_backward``
    closure which, given the node's accumulated gradient, adds each parent's
    share to that parent's ``grad``.
    """

    __slots__ = ("id", "data", "grad", "parents", "op", "_backward", "__weakref__")

    def __init__(self, data, parents=(), op="leaf", backward=None):
        self.id = next(_ids)
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericsError(f"non-finite values produced by op '{op}'")
        self.grad = None
        self.parents = tuple(parents)
        self.op = op
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    def __len__(self):
        return len(self.data)

    def accumulate(self, g):
        """Add ``g`` into the gradient; a first write copies it (no zero fill, no alias)."""
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        """A leaf tensor sharing this node's values; gradients stop here."""
        return Tensor(self.data, op="detach")

    # -- graph traversal ---------------------------------------------------

    def _topo_order(self):
        """Parents-first order of all reachable nodes; detects cycles.

        Iterative DFS: unrolled graphs can exceed the interpreter's
        recursion limit.
        """
        order = []
        state = {}  # id -> 1 while on stack, 2 when done
        stack = [(self, iter(self.parents))]
        state[self.id] = 1
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                s = state.get(p.id)
                if s == 1:
                    raise GraphError("cycle detected in computation graph")
                if s is None:
                    state[p.id] = 1
                    stack.append((p, iter(p.parents)))
                    advanced = True
                    break
            if not advanced:
                state[node.id] = 2
                order.append(node)
                stack.pop()
        return order

    def backward(self):
        """Reverse accumulation from this scalar node.

        Seeds the root gradient with 1 and sums each node's contributions
        into its parents. Gradients of leaves already holding a gradient are
        added to, so per-sample runs can be summed externally.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar root, got shape {self.data.shape}"
            )
        order = self._topo_order()
        self.accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "add")
            out = Tensor(self.data + other.data, (self, other), "add")

            def bw(g, a=self, b=other):
                a.accumulate(g)
                b.accumulate(g)

        else:
            out = Tensor(self.data + float(other), (self,), "add")

            def bw(g, a=self):
                a.accumulate(g)

        out._backward = bw
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "mul")
            out = Tensor(self.data * other.data, (self, other), "mul")

            def bw(g, a=self, b=other):
                a.accumulate(g * b.data)
                b.accumulate(g * a.data)

        else:
            c = float(other)
            out = Tensor(self.data * c, (self,), "mul")

            def bw(g, a=self, c=c):
                a.accumulate(g * c)

        out._backward = bw
        return out

    __rmul__ = __mul__

    def __getitem__(self, idx):
        """Integer or slice indexing on axis 0; a tensor iterates its steps."""
        if not isinstance(idx, (int, np.integer, slice)):
            raise ContractError("only integer or slice indexing on axis 0 is supported")
        out = Tensor(self.data[idx], (self,), "index0")

        def bw(g, a=self, idx=idx):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g

        out._backward = bw
        return out

    # -- reductions and reshapes -------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")

        def bw(g, a=self, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.data.shape))

        out._backward = bw
        return out

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), (self,), "reshape")

        def bw(g, a=self):
            a.accumulate(g.reshape(a.data.shape))

        out._backward = bw
        return out


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def stack(tensors) -> Tensor:
    """Stack same-shape tensors along a new axis 0."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("stack of an empty sequence")
    shape = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape != shape:
            raise ShapeError("stack: member shapes differ")
    out = Tensor(np.stack([t.data for t in tensors]), tuple(tensors), "stack")

    def bw(g, members=tuple(tensors)):
        for i, m in enumerate(members):
            m.accumulate(g[i])

    out._backward = bw
    return out


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
    x2 = x.data.reshape(-1, w.shape[0])
    out_data = x2 @ w.data
    out_data += b.data
    out = Tensor(out_data.reshape(x.shape[:-1] + (w.shape[1],)), (x, w, b), "linear")

    def bw(g, x=x, w=w, b=b, x2=x2):
        g2 = g.reshape(x2.shape[0], -1)
        x.accumulate((g2 @ w.data.T).reshape(x.shape))
        w.accumulate(x2.T @ g2)
        b.accumulate(g2.sum(axis=0))

    out._backward = bw
    return out


def _conv_geometry(H, W, K, stride, pad):
    if K > H + 2 * pad or K > W + 2 * pad:
        raise ShapeError(f"kernel {K} larger than padded input ({H}+2*{pad})")
    h_out = (H + 2 * pad - K) // stride + 1
    w_out = (W + 2 * pad - K) // stride + 1
    return h_out, w_out


_CHUNK_BYTES = 1 << 20   # patch matrix of one chunk of the folded batch: cache-sized


def _patches(xc, flat, cols, pad, offsets):
    """Shift-GEMM patch matrix (n, K*K*C, h_out*Wp) of a chunk xc (n,C,H,W).

    ``flat`` holds the zero-padded images with spare zero rows below, so
    that kernel offset (i, j) is one strided slice of each flattened image:
    it starts at i*Wp + j, steps by the stride and is h_out*Wp long. Rows
    are ordered (offset, channel); grid columns >= w_out wrap into the next
    image row and are scratch.
    """
    n, _, H, W = xc.shape
    flat, cols = flat[:n], cols[:n]
    flat[:, :, pad : pad + H, pad : pad + W] = xc
    flat = flat.reshape(n, flat.shape[1], -1)
    for kk, o in enumerate(offsets):
        cols[:, kk] = flat[:, :, o]
    return cols.reshape(n, -1, cols.shape[-1])


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation of x (N,C,H,W) with kernels k (O,C,K,K); a
    time-major x (T,N,C,H,W) runs once on its folded (T*N,C,H,W) view.

    Forward and backward walk the batch in chunks whose patch matrices are
    about ``_CHUNK_BYTES``, so each stays in cache; backward rebuilds a
    chunk's patches instead of keeping them on the tape.
    """
    if x.ndim not in (4, 5) or k.ndim != 4:
        raise ShapeError("conv2d expects x (N,C,H,W) or (T,N,C,H,W) and k (O,C,K,K)")
    C, H, W = x.shape[-3:]
    c_out, c_in, K, K2 = k.shape
    if K != K2:
        raise ShapeError("conv2d kernels must be square")
    if c_in != C:
        raise ShapeError(f"conv2d: input has {C} channels, kernel expects {c_in}")
    h_out, w_out = _conv_geometry(H, W, K, stride, pad)

    N = x.size // (C * H * W)
    xs = x.data.reshape(N, C, H, W)
    Wp = W + 2 * pad
    L = h_out * Wp
    offsets = [slice(s, s + stride * (L - 1) + 1, stride)
               for s in (i * Wp + j for i in range(K) for j in range(K))]
    rows = max(H + 2 * pad, -(-offsets[-1].stop // Wp))
    step = max(1, min(N, _CHUNK_BYTES // (C * K * K * L * 8)))
    chunks = [slice(a, a + step) for a in range(0, N, step)]
    flat, cols = np.zeros((step, C, rows, Wp)), np.empty((step, K * K, C, L))
    w2 = k.data.transpose(0, 2, 3, 1).reshape(c_out, K * K * C)
    out_data = np.empty((N, c_out, h_out, w_out))
    for c in chunks:
        grid = w2 @ _patches(xs[c], flat, cols, pad, offsets)
        out_data[c] = grid.reshape(-1, c_out, h_out, Wp)[..., :w_out]
    out = Tensor(out_data.reshape(x.shape[:-3] + (c_out, h_out, w_out)), (x, k), "conv2d")

    def bw(g, x=x, k=k, xs=xs, w2=w2):
        g = g.reshape(N, c_out, h_out, w_out)
        dw, dx = np.zeros_like(w2), np.empty_like(xs)
        flat, cols = np.zeros((step, C, rows, Wp)), np.empty((step, K * K, C, L))
        grid = np.zeros((step, c_out, h_out, Wp))     # scratch columns stay 0
        dflat = np.empty((step, C, rows * Wp))
        for c in chunks:
            p = _patches(xs[c], flat, cols, pad, offsets)
            n = len(p)
            grid[:n, ..., :w_out] = g[c]
            g2 = grid[:n].reshape(n, c_out, L)
            dw += (g2 @ p.transpose(0, 2, 1)).sum(axis=0)
            dp = (w2.T @ g2).reshape(n, K * K, C, L)
            d = dflat[:n]
            d.fill(0.0)
            for kk, o in enumerate(offsets):
                d[:, :, o] += dp[:, kk]
            dx[c] = d.reshape(n, C, rows, Wp)[:, :, pad : pad + H, pad : pad + W]
        k.accumulate(dw.reshape(c_out, K, K, C).transpose(0, 3, 1, 2))
        x.accumulate(dx.reshape(x.shape))

    out._backward = bw
    return out


_BN_MOMENTUM = 0.1   # weight of one step's batch statistics in the running buffers
_BN_EPS = 1e-5


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes by batch statistics and folds them into the
    running buffers in place (new = (1-m)*old + m*batch, m = _BN_MOMENTUM,
    unbiased variance for the running buffer). Eval mode uses the running
    buffers. A time-major x (T,N,C,H,W) is normalized step by step: each
    timestep has its own batch statistics and updates the running buffers
    once, in step order, exactly as T calls on the (N,C,H,W) steps would.
    """
    if x.ndim not in (4, 5):
        raise ShapeError("batchnorm2d expects x (N,C,H,W) or (T,N,C,H,W)")
    if x.size == 0:
        raise ShapeError(f"batchnorm2d: empty input {x.shape}")
    x5 = x.data.reshape((-1,) + x.shape[-4:])
    _, N, C, H, W = x5.shape
    m = N * H * W

    mu = x5.mean(axis=(1, 3, 4)) if training else running_mean[None]
    d = x5 - mu[:, None, :, None, None]     # deviations; backward reuses them
    var = np.einsum("tnchw,tnchw->tc", d, d) / m if training else running_var[None]
    if training:
        unbiased = var * (m / (m - 1)) if m > 1 else var
        for mu_t, var_t in zip(mu, unbiased):
            running_mean *= 1.0 - _BN_MOMENTUM
            running_mean += _BN_MOMENTUM * mu_t
            running_var *= 1.0 - _BN_MOMENTUM
            running_var += _BN_MOMENTUM * var_t
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)      # (T, C), or (1, C) in eval mode
    out_data = d * (gamma.data * inv_std)[:, None, :, None, None]
    out_data += beta.data[:, None, None]
    out = Tensor(out_data.reshape(x.shape), (x, gamma, beta), "batchnorm2d")

    def bw(g, x=x, gamma=gamma, beta=beta, d=d, inv_std=inv_std,
           training=training, m=m):
        g = g.reshape(d.shape)
        sum_g = np.einsum("tnchw->tc", g)
        sum_gd = np.einsum("tnchw,tnchw->tc", g, d)
        gamma.accumulate((sum_gd * inv_std).sum(axis=0))
        beta.accumulate(sum_g.sum(axis=0))
        scale = gamma.data * inv_std
        dx = g * scale[:, None, :, None, None]
        if training:
            # batch statistics depend on x, so the full Jacobian applies:
            # dx = (g - sum_g/m - d*inv_std^2*sum_gd/m) * gamma*inv_std
            dx -= d * (scale * inv_std**2 * sum_gd / m)[:, None, :, None, None]
            dx -= (scale * sum_g / m)[:, None, :, None, None]
        x.accumulate(dx.reshape(x.shape))

    out._backward = bw
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, overflow-safe on both tails."""
    d = x.data
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    s[~pos] = e / (1.0 + e)
    out = Tensor(s, (x,), "sigmoid")

    def bw(g, x=x, s=s):
        x.accumulate(g * s * (1.0 - s))

    out._backward = bw
    return out


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a (N, C) tensor, stabilized by max subtraction."""
    if x.ndim != 2:
        raise ShapeError("softmax_rows expects a (N, C) tensor")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor(s, (x,), "softmax_rows")

    def bw(g, x=x, s=s):
        x.accumulate(s * (g - (g * s).sum(axis=1, keepdims=True)))

    out._backward = bw
    return out


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
    out_data = x.data[offsets[0]].copy()
    for o in offsets[1:]:
        out_data += x.data[o]
    out_data /= size * size
    out = Tensor(out_data, (x,), "avg_pool2d")

    def bw(g, x=x, offsets=offsets):
        dx = np.empty_like(x.data)
        g = g / len(offsets)
        for o in offsets:
            dx[o] = g
        x.accumulate(dx)

    out._backward = bw
    return out

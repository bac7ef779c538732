"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` is both the value carrier and a node of a define-by-run tape:
it remembers its parents and a closure that routes the upstream gradient to
them. Calling :meth:`Tensor.backward` on a scalar walks the tape in reverse
topological order and accumulates gradients into every reachable node,
including every timestep copy of a shared weight.

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

    __slots__ = ("id", "data", "grad", "parents", "op", "_backward")

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

    def accumulate(self, g):
        """Add ``g`` into this node's gradient buffer."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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

    def __neg__(self):
        out = Tensor(-self.data, (self,), "neg")

        def bw(g, a=self):
            a.accumulate(-g)

        out._backward = bw
        return out

    def __sub__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other, "sub")
            out = Tensor(self.data - other.data, (self, other), "sub")

            def bw(g, a=self, b=other):
                a.accumulate(g)
                b.accumulate(-g)

        else:
            out = Tensor(self.data - float(other), (self,), "sub")

            def bw(g, a=self):
                a.accumulate(g)

        out._backward = bw
        return out

    def __rsub__(self, other):
        return (-self) + float(other)

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

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("tensor/tensor division is not a supported primitive")
        return self * (1.0 / float(other))

    def __getitem__(self, idx):
        """Integer indexing along the leading axis (timestep selection)."""
        if not isinstance(idx, (int, np.integer)):
            raise ContractError("only integer indexing on axis 0 is supported")
        i = int(idx)
        out = Tensor(self.data[i], (self,), "index0")

        def bw(g, a=self, i=i):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[i] += g

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


def stack(tensors, axis=0) -> Tensor:
    """Stack same-shape tensors along a new axis 0 or 1."""
    tensors = list(tensors)
    if not tensors:
        raise ContractError("stack of an empty sequence")
    if axis not in (0, 1):
        raise ContractError("stack supports axis 0 or 1 only")
    shape = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape != shape:
            raise ShapeError("stack: member shapes differ")
    out = Tensor(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), "stack")

    def bw(g, members=tuple(tensors), axis=axis):
        for i, m in enumerate(members):
            m.accumulate(g[i] if axis == 0 else g[:, i])

    out._backward = bw
    return out


# -- neural-net primitives --------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map: out[n, o] = sum_i x[n, i] w[i, o] + b[o]."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError("linear expects x (N,I), w (I,O), b (O,)")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(
            f"linear: x {x.shape}, w {w.shape}, b {b.shape} do not chain"
        )
    out = Tensor(x.data @ w.data + b.data, (x, w, b), "linear")

    def bw(g, x=x, w=w, b=b):
        x.accumulate(g @ w.data.T)
        w.accumulate(x.data.T @ g)
        b.accumulate(g.sum(axis=0))

    out._backward = bw
    return out


def _conv_geometry(H, W, K, stride, pad):
    if K > H + 2 * pad or K > W + 2 * pad:
        raise ShapeError(f"kernel {K} larger than padded input ({H}+2*{pad})")
    h_out = (H + 2 * pad - K) // stride + 1
    w_out = (W + 2 * pad - K) // stride + 1
    return h_out, w_out


def _im2col(xp, K, stride, h_out, w_out):
    """(N, C, Hp, Wp) -> (N, C*K*K, h_out*w_out) patch matrix."""
    N, C = xp.shape[:2]
    cols = np.empty((N, C, K, K, h_out, w_out))
    for i in range(K):
        for j in range(K):
            cols[:, :, i, j] = xp[
                :, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride
            ]
    return cols.reshape(N, C * K * K, h_out * w_out)


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation of x (N,C,H,W) with kernels k (O,C,K,K)."""
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeError("conv2d expects x (N,C,H,W) and k (O,C,K,K)")
    N, C, H, W = x.shape
    c_out, c_in, K, K2 = k.shape
    if K != K2:
        raise ShapeError("conv2d kernels must be square")
    if c_in != C:
        raise ShapeError(f"conv2d: input has {C} channels, kernel expects {c_in}")
    h_out, w_out = _conv_geometry(H, W, K, stride, pad)

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _im2col(xp, K, stride, h_out, w_out)  # (N, CKK, L)
    w2 = k.data.reshape(c_out, C * K * K)
    out_data = (w2[None] @ cols).reshape(N, c_out, h_out, w_out)
    out = Tensor(out_data, (x, k), "conv2d")

    def bw(g, x=x, k=k, cols=cols, geom=(N, C, H, W, K, stride, pad, h_out, w_out)):
        N, C, H, W, K, stride, pad, h_out, w_out = geom
        c_out = k.data.shape[0]
        g2 = g.reshape(N, c_out, h_out * w_out)
        w2 = k.data.reshape(c_out, C * K * K)
        k.accumulate(
            np.tensordot(g2, cols, axes=([0, 2], [0, 2])).reshape(k.data.shape)
        )
        dcols = (w2.T[None] @ g2).reshape(N, C, K, K, h_out, w_out)
        dxp = np.zeros((N, C, H + 2 * pad, W + 2 * pad))
        for i in range(K):
            for j in range(K):
                dxp[
                    :, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride
                ] += dcols[:, :, i, j]
        x.accumulate(dxp[:, :, pad : pad + H, pad : pad + W] if pad else dxp)

    out._backward = bw
    return out


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization over (N, H, W).

    Train mode normalizes by batch statistics and folds them into the
    running buffers in place (new = (1-m)*old + m*batch, unbiased variance
    for the running buffer). Eval mode uses the running buffers.
    """
    if x.ndim != 4:
        raise ShapeError("batchnorm2d expects x (N,C,H,W)")
    N, C, H, W = x.shape
    m = N * H * W
    if m < 1:
        raise ShapeError("batchnorm2d: zero-size channel")
    if eps <= 0:
        raise ContractError("batchnorm2d: eps must be positive")
    axes = (0, 2, 3)

    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mu = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out_data = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
    out = Tensor(out_data, (x, gamma, beta), "batchnorm2d")

    def bw(g, x=x, gamma=gamma, beta=beta, xhat=xhat, inv_std=inv_std,
           training=training, m=m):
        gamma.accumulate((g * xhat).sum(axis=axes))
        beta.accumulate(g.sum(axis=axes))
        dxhat = g * gamma.data[None, :, None, None]
        if training:
            # batch statistics depend on x, so the full Jacobian applies
            s1 = dxhat.sum(axis=axes, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
            dx = (dxhat - s1 / m - xhat * s2 / m) * inv_std[None, :, None, None]
        else:
            dx = dxhat * inv_std[None, :, None, None]
        x.accumulate(dx)

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
    """Non-overlapping average pooling with a square window."""
    if x.ndim != 4:
        raise ShapeError("avg_pool2d expects x (N,C,H,W)")
    N, C, H, W = x.shape
    if H % size or W % size:
        raise ShapeError(f"avg_pool2d: {H}x{W} not divisible by window {size}")
    h2, w2 = H // size, W // size
    out_data = x.data.reshape(N, C, h2, size, w2, size).mean(axis=(3, 5))
    out = Tensor(out_data, (x,), "avg_pool2d")

    def bw(g, x=x, size=size):
        x.accumulate(np.repeat(np.repeat(g, size, axis=2), size, axis=3) / (size * size))

    out._backward = bw
    return out

"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Node wraps an ndarray value. An op's forward computes only that value and
makes its node with `_make`, from one backward closure per input and at most
one shared step; work that only a backward needs waits there. backward()
runs a node's step once on its incoming gradient and hands the result to
every parent's closure, so work the parents share (a relu mask, an LSTM's
reverse sweep) runs once per call, and no closure remembers an earlier
call. An op keeps as parents only the inputs that need a gradient, so over
constants and parameters marked `requires_grad = False` (those of a
`training.Pipeline`) it builds no graph and keeps no closure. Every node is
numbered when it is made, after its parents, so backward() visits the nodes
that need a gradient in decreasing creation order: each one is reached after
all of its consumers. Gradients stay on leaves only: an op node's gradient
is released once its parents have it. Leaf gradients accumulate across
calls, so zero them between passes.

Ops do not check their values for NaN or infinity; the callers check at
their boundaries (the training loss, Adam's gradients, loaded parameters,
the outputs of a prediction).
"""
from __future__ import annotations

import heapq
import itertools
import math
import re
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.spatial.distance import pdist, squareform
from scipy.special import log_softmax

from .errors import ConfigError, DataError, NumericError, ShapeMismatch

__all__ = [
    "Node",
    "constant",
    "parameter",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "linear",
    "relu_linear",
    "pair_relu_linear",
    "reshape",
    "concat",
    "slice_axis",
    "gather_rows",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "relu",
    "absolute",
    "l2_norm_rows",
    "softmax_cross_entropy",
    "variance_along_axis",
    "pairwise_row_distances",
    "lstm",
    "Adam",
    "save_params",
    "load_params",
    "load_into",
]

_EPS = 1e-12
_CREATED = itertools.count()


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "op_tag", "requires_grad", "seq", "step")

    def __init__(
        self,
        value: np.ndarray,
        parents: tuple = (),
        op_tag: str = "leaf",
        requires_grad: bool = False,
        step: Optional[Callable] = None,
    ) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.op_tag = op_tag
        self.requires_grad = requires_grad
        self.seq = next(_CREATED)
        self.step = step

    def __repr__(self) -> str:
        return f"Node({self.op_tag}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(value: np.ndarray | float) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


def parameter(value: np.ndarray | float) -> Node:
    return Node(np.asarray(value, dtype=np.float64), requires_grad=True)


def _as_node(x: Node | np.ndarray | float) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _make(value: np.ndarray, parents: Iterable[tuple[Node, Callable]], op_tag: str,
          step: Optional[Callable] = None) -> Node:
    """The node of an op: (input, closure) pairs, those without a gradient dropped,
    and the step whose result on the node's gradient every closure receives."""
    kept = tuple((p, fn) for p, fn in parents if p.requires_grad)
    return Node(value, kept, op_tag, requires_grad=bool(kept), step=step if kept else None)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def _binary(a: Node | np.ndarray, b: Node | np.ndarray, op_tag: str, value: Callable, grad_a: Callable,
            grad_b: Callable) -> Node:
    """One broadcasting elementwise op: out = value(av, bv), each parent's
    gradient grad_x(g, av, bv) summed back down to its own shape."""
    a, b = _as_node(a), _as_node(b)
    av, bv = a.value, b.value
    try:
        out = value(av, bv)
    except ValueError:  # numpy's broadcast error, raised before any arithmetic
        raise ShapeMismatch(f"op {op_tag!r}: shapes {av.shape} and {bv.shape} do not broadcast") from None
    return _make(out, [(a, lambda g: _unbroadcast(grad_a(g, av, bv), av.shape)),
                       (b, lambda g: _unbroadcast(grad_b(g, av, bv), bv.shape))], op_tag)


def add(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    return _binary(a, b, "add", np.add, lambda g, av, bv: g, lambda g, av, bv: g)


def sub(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    return _binary(a, b, "sub", np.subtract, lambda g, av, bv: g, lambda g, av, bv: -g)


def mul(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    """a * b; a float factor is a constant, so it adds no grad node."""
    return _binary(a, b, "mul", np.multiply, lambda g, av, bv: g * bv, lambda g, av, bv: g * av)


def div(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    with np.errstate(divide="ignore", invalid="ignore"):  # the forward only: backward runs later
        return _binary(a, b, "div", np.divide, lambda g, av, bv: g / bv, lambda g, av, bv: -g * av / (bv * bv))


def matmul(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    a, b = _as_node(a), _as_node(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatch(f"op 'matmul': shapes {av.shape} and {bv.shape} are incompatible")
    out = av @ bv
    return _make(out, [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)], "matmul")


def _fits_bias(b: Node, w: Node) -> bool:
    """A bias is one value per output column: shape (O,) or (1, O) for a (H, O) weight."""
    return w.value.ndim == 2 and b.value.shape in ((w.value.shape[1],), (1, w.value.shape[1]))


def _affine(x: Node | np.ndarray, w: Node | np.ndarray, b: Node | np.ndarray, op_tag: str) -> Node:
    """x @ w + b, the bias added into the matmul's output (the bytes of x @ w + b,
    one array fewer); op_tag "relu_linear" also takes its relu there, in place,
    and its step masks the gradient with it."""
    x, w, b = _as_node(x), _as_node(w), _as_node(b)
    xv, wv = x.value, w.value
    if xv.ndim != 2 or not _fits_bias(b, w) or xv.shape[1] != wv.shape[0]:
        raise ShapeMismatch(f"op {op_tag!r}: shapes {xv.shape}, {wv.shape} and bias {b.value.shape} do not fit")
    out = xv @ wv
    out += b.value
    relu = op_tag == "relu_linear"
    if relu:
        np.maximum(out, 0.0, out=out)  # out > 0 exactly where the pre-activation is
    return _make(out, [(x, lambda g: g @ wv.T), (w, lambda g: xv.T @ g),
                       (b, lambda g: _unbroadcast(g, b.value.shape))], op_tag,
                 (lambda g: g * (out > 0.0)) if relu else None)


def linear(x: Node | np.ndarray, w: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    """x @ w + b, with b broadcast over the rows."""
    return _affine(x, w, b, "linear")


def relu_linear(x: Node | np.ndarray, w: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    """relu(x @ w + b) as one node, the bytes of relu(linear(x, w, b))."""
    return _affine(x, w, b, "relu_linear")


def pair_relu_linear(rows: Node | np.ndarray, cols: Node | np.ndarray, w: Node | np.ndarray,
                     b: Node | np.ndarray) -> Node:
    """relu(rows[t] + cols[i]) @ w + b in row t*N + i of a (T*N, O) array."""
    rows, cols, w, b = _as_node(rows), _as_node(cols), _as_node(w), _as_node(b)
    rv, cv, wv = rows.value, cols.value, w.value
    if rv.ndim != 2 or cv.ndim != 2 or not _fits_bias(b, w) or not rv.shape[1] == cv.shape[1] == wv.shape[0]:
        raise ShapeMismatch(f"op 'pair_relu_linear': shapes {rv.shape, cv.shape, wv.shape, b.value.shape} differ")
    steps, n = rv.shape[0], cv.shape[0]
    hidden = (rv[:, None] + cv).reshape(steps * n, cv.shape[1])  # the one (T*N, H) buffer, relu in place
    np.maximum(hidden, 0.0, out=hidden)

    def step(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """g and the pre-activations' gradient summed over points, (T, H), and over
        steps, (N, H). One step's (N, H) block at a time, so it stays in cache; each
        sum adds in the order, and from the +0.0, of numpy's sum over that axis of
        the whole (T, N, H) array, so the bytes are the same."""
        by_step, by_point = np.empty((steps, rv.shape[1])), np.zeros(cv.shape)
        for t in range(steps):
            pre = g[t * n : (t + 1) * n] @ wv.T
            pre *= hidden[t * n : (t + 1) * n] > 0.0
            pre.sum(axis=0, out=by_step[t])
            by_point += pre
        return g, by_step, by_point

    return _make(hidden @ wv + b.value, [(rows, lambda gp: gp[1]), (cols, lambda gp: gp[2]),
                 (w, lambda gp: hidden.T @ gp[0]), (b, lambda gp: _unbroadcast(gp[0], b.value.shape))],
                 "pair_relu_linear", step)


def reshape(a: Node | np.ndarray, shape: Sequence[int]) -> Node:
    a = _as_node(a)
    src = a.value.shape
    out = a.value.reshape(shape)
    return _make(out, [(a, lambda g: g.reshape(src))], "reshape")


def _block(ndim: int, axis: int, lo: int, hi: int) -> tuple:
    """The index of the block [lo, hi) along one axis of an ndim-dimensional array."""
    return (slice(None),) * (axis % ndim) + (slice(lo, hi),)


def concat(nodes: Sequence[Node | np.ndarray], axis: int = 0) -> Node:
    parts = [_as_node(n) for n in nodes]
    if not parts:
        raise ShapeMismatch("op 'concat': needs at least one input")
    out = np.concatenate([p.value for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.value.shape[axis] for p in parts])
    blocks = [_block(out.ndim, axis, lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _make(out, [(p, lambda g, sl=sl: g[sl]) for p, sl in zip(parts, blocks)], "concat")


def slice_axis(a: Node | np.ndarray, lo: int, hi: int, axis: int = 0) -> Node:
    """The contiguous block [lo, hi) along one axis."""
    a = _as_node(a)
    shape = a.value.shape
    if not -len(shape) <= axis < len(shape) or not 0 <= lo < hi <= shape[axis]:
        raise ShapeMismatch(f"op 'slice_axis': block [{lo}, {hi}) on axis {axis} outside shape {shape}")
    sl = _block(len(shape), axis, lo, hi)

    def bw(g: np.ndarray) -> np.ndarray:
        acc = np.zeros(shape)
        acc[sl] = g
        return acc

    return _make(a.value[sl], [(a, bw)], "slice_axis")


def gather_rows(a: Node | np.ndarray, idx: np.ndarray) -> Node:
    """Index the leading axis with an integer array of any shape."""
    a = _as_node(a)
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeMismatch("op 'gather_rows': index array must be integer")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise ShapeMismatch(
            f"op 'gather_rows': index range [{idx.min()}, {idx.max()}] outside 0..{a.value.shape[0] - 1}"
        )
    out = a.value.take(idx, axis=0)
    width = math.prod(a.value.shape[1:])

    def bw(g: np.ndarray) -> np.ndarray:
        # one scatter over the flat index row * width + col; bincount sums
        # each target in input order, as np.add.at does, so the bytes match
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=a.value.size).reshape(a.value.shape)

    return _make(out, [(a, bw)], "gather_rows")


# ---------------------------------------------------------------------------
# reductions


def _reduce(a: Node, axis: Optional[int], count: int, op_tag: str) -> Node:
    """The sum along axis (over everything for None) divided by count: numpy's
    mean is that sum / count, and a sum divides by 1."""

    def bw(g: np.ndarray) -> np.ndarray:
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.value.shape) / count

    return _make(a.value.sum(axis=axis) / count, [(a, bw)], op_tag)


def reduce_sum(a: Node | np.ndarray, axis: Optional[int] = None) -> Node:
    return _reduce(_as_node(a), axis, 1, "reduce_sum")


def reduce_mean(a: Node | np.ndarray, axis: Optional[int] = None) -> Node:
    a = _as_node(a)
    return _reduce(a, axis, a.value.size if axis is None else a.value.shape[axis], "reduce_mean")


def reduce_max(a: Node | np.ndarray, axis: int) -> Node:
    """Max along an axis; the gradient goes to the first winner on ties."""
    a = _as_node(a)
    if a.value.ndim < 1 or not -a.value.ndim <= axis < a.value.ndim:
        raise ShapeMismatch(f"op 'reduce_max': bad axis {axis} for shape {a.value.shape}")
    out = a.value.max(axis=axis)

    def bw(g: np.ndarray) -> np.ndarray:
        # a as (pre, k, post) groups along the middle axis; within a group, the
        # first winner scores highest of the weights k..1, and no winner (a NaN
        # group) scores 0, which (k - score) % k sends to position 0 as argmax would
        shape = a.value.shape
        k, post = shape[axis], math.prod(shape[axis % len(shape) + 1:])
        hit = (a.value == np.expand_dims(out, axis)).reshape(-1, k, post)
        score = (hit * np.arange(k, 0, -1, dtype=np.min_scalar_type(k)).reshape(k, 1)).max(axis=1)
        flat = ((k - score) % k).astype(np.intp) * post
        flat += np.arange(0, a.value.size, k * post)[:, None] + np.arange(post)
        acc = np.zeros(a.value.size)
        acc[flat.ravel()] = g.ravel()
        return acc.reshape(shape)

    return _make(out, [(a, bw)], "reduce_max")


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a: Node | np.ndarray) -> Node:
    """For inputs that no linear layer makes; a relu'd layer is one `relu_linear` node."""
    a = _as_node(a)
    return _make(np.maximum(a.value, 0.0), [(a, lambda g: g * (a.value > 0.0))], "relu")


def absolute(a: Node | np.ndarray) -> Node:
    a = _as_node(a)
    return _make(np.abs(a.value), [(a, lambda g: g * np.sign(a.value))], "absolute")


def l2_norm_rows(a: Node | np.ndarray) -> Node:
    """Euclidean norm of each row of a 2-D array."""
    a = _as_node(a)
    if a.value.ndim != 2:
        raise ShapeMismatch(f"op 'l2_norm_rows': expected (N, D), got {a.value.shape}")
    av = a.value
    # np.linalg.norm adds fewer than 8 squares in order (numpy's pairwise sum starts at 8),
    # so on narrow rows a sum over the columns has its bytes at a fraction of its cost
    out = np.sqrt(sum(col * col for col in av.T)) if 0 < av.shape[1] < 8 else np.linalg.norm(av, axis=1)

    def bw(g: np.ndarray) -> np.ndarray:
        return (g / np.maximum(out, _EPS))[:, None] * av

    return _make(out, [(a, bw)], "l2_norm_rows")


def softmax_cross_entropy(logits: Node | np.ndarray, labels: np.ndarray) -> Node:
    """Mean cross entropy between row-wise softmax of logits and integer labels."""
    logits = _as_node(logits)
    lv = logits.value
    if lv.ndim != 2:
        raise ShapeMismatch(f"op 'softmax_cross_entropy': logits must be (N, C), got {lv.shape}")
    labels = np.asarray(labels)
    if labels.shape != (lv.shape[0],) or not np.issubdtype(labels.dtype, np.integer):
        raise ShapeMismatch("op 'softmax_cross_entropy': labels must be integer (N,)")
    if labels.size and (labels.min() < 0 or labels.max() >= lv.shape[1]):
        raise ShapeMismatch("op 'softmax_cross_entropy': label outside class range")
    n = lv.shape[0]
    log_probs = log_softmax(lv, axis=1)
    out = -log_probs[np.arange(n), labels].mean()

    def bw(g: np.ndarray) -> np.ndarray:
        delta = np.exp(log_probs)
        delta[np.arange(n), labels] -= 1.0
        return (float(g) / n) * delta

    return _make(out, [(logits, bw)], "softmax_cross_entropy")


def variance_along_axis(a: Node | np.ndarray, axis: int = 0) -> Node:
    """Population variance along one axis."""
    a = _as_node(a)
    if not -a.value.ndim <= axis < a.value.ndim:
        raise ShapeMismatch(f"op 'variance_along_axis': bad axis {axis} for shape {a.value.shape}")
    mean = a.value.mean(axis=axis, keepdims=True)
    centered = a.value - mean
    out = (centered * centered).mean(axis=axis)
    count = a.value.shape[axis]

    def bw(g: np.ndarray) -> np.ndarray:
        return np.expand_dims(g, axis) * 2.0 * centered / count

    return _make(out, [(a, bw)], "variance_along_axis")


def pairwise_row_distances(a: Node | np.ndarray) -> Node:
    """Symmetric (N, N) matrix of Euclidean distances between all row pairs. scipy's pdist takes
    each from the row difference: near-coincident rows keep their distance, and no BLAS product
    (whose rounding can follow the thread count) is involved."""
    a = _as_node(a)
    f = a.value
    if f.ndim != 2:
        raise ShapeMismatch(f"op 'pairwise_row_distances': expected (N, F), got {f.shape}")
    out = squareform(pdist(f)) if len(f) else np.zeros((0, 0))  # squareform of no pairs is (1, 1)

    def bw(g: np.ndarray) -> np.ndarray:
        w = (g + g.T) / np.maximum(out, _EPS)
        np.fill_diagonal(w, 0.0)
        return w.sum(axis=1)[:, None] * f - w @ f

    return _make(out, [(a, bw)], "pairwise_row_distances")


# ---------------------------------------------------------------------------
# recurrent cell


def lstm(x_proj: Node | np.ndarray, w_h: Node | np.ndarray, steps: int) -> Node:
    """`steps` LSTM steps from the zero state, hidden states stacked (steps, W).

    x_proj (1, 4W) is x @ w_x + b; gate blocks are ordered input, forget, cell,
    output. Step t's gates are x_proj + h @ w_h, x_proj alone at t = 0.
    """
    x_proj, w_h = _as_node(x_proj), _as_node(w_h)
    xv, wv = x_proj.value, w_h.value
    width = wv.shape[0] if wv.ndim == 2 else -1
    if xv.shape != (1, 4 * width) or wv.shape != (width, 4 * width) or steps < 1:
        raise ShapeMismatch(f"op 'lstm': x_proj {xv.shape}, w_h {wv.shape} and {steps} steps do not fit")
    acts = np.empty((steps, 4, width))  # sigmoid of the i, f, o gates, tanh of the cell gate
    cells, tanh_c, states = np.empty((3, steps, width))
    h = None
    for t in range(steps):
        gates = (xv if h is None else xv + h @ wv).reshape(4, width)
        a = acts[t]
        with np.errstate(over="ignore"):  # exp(-g) is inf below g of about -709: the sigmoid is 0.0
            a[:] = 1.0 / (1.0 + np.exp(-gates))
        a[2] = np.tanh(gates[2])
        cells[t] = a[0] * a[2] if h is None else a[1] * cells[t - 1] + a[0] * a[2]
        tanh_c[t] = np.tanh(cells[t])
        h = (a[3] * tanh_c[t]).reshape(1, width)
        states[t] = h

    def sweep(g: np.ndarray) -> np.ndarray:
        """The (steps, 4W) gradient of every step's gate pre-activations, in one reverse sweep."""
        slope = acts * (1.0 - acts)
        slope[:, 2] = 1.0 - acts[:, 2] ** 2
        dG = np.empty((steps, 4, width))
        dh, dc = g[-1], 0.0
        for t in range(steps - 1, -1, -1):
            i, f, cand, o = acts[t]
            dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
            dG[t] = dc * cand, dc * (cells[t - 1] if t else 0.0), dc * i, dh * tanh_c[t]
            dG[t] *= slope[t]
            if t:
                dh, dc = g[t - 1] + dG[t].reshape(-1) @ wv.T, dc * f
        return dG.reshape(steps, 4 * width)

    return _make(states, [(x_proj, lambda dG: dG.sum(axis=0, keepdims=True)),
                          (w_h, lambda dG: states[:-1].T @ dG[1:])], "lstm", sweep)


# ---------------------------------------------------------------------------
# backward sweep


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar root into every contributing leaf.

    A node is made after its parents, so taking the pending nodes in
    decreasing creation order reaches each one after every node that feeds
    it a gradient. A node's step, if it has one, runs once on its complete
    gradient, and each parent's closure gets the result. A node's first
    contribution is stored as is; later ones make a new array (grad +
    contrib), never an in-place sum, because an op may hand the same array to
    more than one parent. An op node's gradient is released once it has been
    passed to its parents, so after the sweep only leaves (nodes without
    parents) hold one.
    """
    if root.value.size != 1:
        raise ConfigError(f"backward root must be scalar, got shape {root.value.shape}")
    seed = np.ones(root.value.shape)
    root.grad = seed if root.grad is None else root.grad + seed
    pending = [(-root.seq, root)]
    queued = {root.seq}
    while pending:
        _, node = heapq.heappop(pending)
        g = node.grad
        if node.parents:
            node.grad = None
        if node.step is not None:  # only a node with parents keeps one
            g = node.step(g)
        for parent, fn in node.parents:
            contrib = fn(g)
            parent.grad = contrib if parent.grad is None else parent.grad + contrib
            if parent.seq not in queued:
                queued.add(parent.seq)
                heapq.heappush(pending, (-parent.seq, parent))


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(
        self,
        params: dict[str, Node],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.max_grad_norm = max_grad_norm
        self.t = 0
        self._m = {k: np.zeros(p.value.shape) for k, p in params.items()}
        self._v = {k: np.zeros(p.value.shape) for k, p in params.items()}
        # two work arrays per parameter, so a step allocates nothing
        self._work = {k: (np.empty(p.value.shape), np.empty(p.value.shape)) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update, in place, with the operations of m = b1 m + (1 - b1) g,
        v = b2 v + (1 - b2) g g and value -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        in their order, so the bytes match that arithmetic. Only a non-finite clip
        norm checks each gradient; the first non-finite one raises before anything changes."""
        grads = {k: p.grad for k, p in self.params.items() if p.grad is not None}
        total = float(np.sqrt(sum(float(np.multiply(g, g, out=self._work[k][1]).sum())
                                  for k, g in grads.items())))
        if not math.isfinite(total):  # or a finite gradient whose square overflows
            for k, g in grads.items():
                if not np.all(np.isfinite(g)):
                    raise NumericError(f"non-finite gradient for parameter {k!r}")
        clip = self.max_grad_norm
        factor = clip / (total + _EPS) if clip is not None and total > clip else None
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            a, b = self._work[k]
            if factor is not None:
                g = np.multiply(g, factor, out=a)
            m, v = self._m[k], self._v[k]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=b)
            v *= self.beta2
            np.multiply(g, g, out=b)
            b *= 1.0 - self.beta2
            v += b
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            update = np.divide(m, bc1, out=a)
            update /= b
            update *= self.lr
            self.params[k].value -= update


# ---------------------------------------------------------------------------
# checkpoints

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-/]+$")
_MAGIC = "partmotion-params 1"


def save_params(path: str | Path, params: dict[str, Node]) -> None:
    """Write parameters as a text header plus little-endian float64 payload."""
    names = list(params.keys())
    for name in names:
        if not _NAME_RE.match(name):
            raise ConfigError(f"parameter name {name!r} not serializable")
    header = [_MAGIC, f"tensors {len(names)}"]
    blobs = []
    for name in names:
        arr = params[name].value
        dims = ",".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        header.append(f"{name} {dims}")
        blobs.append(arr.astype("<f8", copy=False).tobytes())
    payload = "\n".join(header) + "\ndata\n"
    Path(path).write_bytes(payload.encode("ascii") + b"".join(blobs))


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read parameter file ({exc.strerror or exc})") from exc
    marker = b"\ndata\n"
    split = raw.find(marker)
    if split < 0:
        raise DataError(f"{path}: missing data marker")
    try:
        lines = raw[:split].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: header is not ASCII") from exc
    if not lines or lines[0] != _MAGIC:
        raise DataError(f"{path}: not a parameter file")
    tensors = re.fullmatch(r"tensors (\d+)", lines[1]) if len(lines) > 1 else None
    if tensors is None or len(lines) != 2 + int(tensors[1]):
        raise DataError(f"{path}: header is not 'tensors <count>' followed by that many tensor lines")
    entries = []
    for line in lines[2:]:
        try:
            name, dims = line.split()
            shape = () if dims == "scalar" else tuple(int(d) for d in dims.split(","))
        except ValueError as exc:
            raise DataError(f"{path}: malformed tensor line {line!r}") from exc
        if any(d < 0 for d in shape):
            raise DataError(f"{path}: negative dimension in {line!r}")
        if any(name == seen for seen, _ in entries):
            raise DataError(f"{path}: tensor {name!r} is listed twice")
        entries.append((name, shape))
    out: dict[str, np.ndarray] = {}
    cursor = split + len(marker)
    for name, shape in entries:
        end = cursor + 8 * math.prod(shape)  # Python ints: a huge shape cannot wrap to a small count
        if end > len(raw):
            raise DataError(f"{path}: truncated payload at tensor {name!r}")
        try:
            out[name] = np.frombuffer(raw[cursor:end], dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # over 64 dimensions, or an empty tensor too large to index
            raise DataError(f"{path}: unusable shape in tensor {name!r} ({exc})") from exc
        cursor = end
    if cursor != len(raw):
        raise DataError(f"{path}: trailing bytes after payload")
    return out


def load_into(params: dict[str, Node], path: str | Path) -> None:
    stored = load_params(path)
    if set(stored) != set(params):
        missing = sorted(set(params) - set(stored))
        extra = sorted(set(stored) - set(params))
        raise DataError(f"{path}: parameter names disagree (missing {missing}, extra {extra})")
    for name, node in params.items():
        if stored[name].shape != node.value.shape:
            raise DataError(
                f"{path}: shape mismatch for {name!r}: file {stored[name].shape}, model {node.value.shape}"
            )
        if not np.all(np.isfinite(stored[name])):
            raise DataError(f"{path}: non-finite values in tensor {name!r}")
    for name, node in params.items():
        node.value = stored[name]

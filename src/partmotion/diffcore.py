"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Node wraps an ndarray value plus backward closures onto its parents.
Graphs are built dynamically per forward pass. Every node is numbered when
it is made, after its parents, so backward() visits the nodes that need a
gradient in decreasing creation order: each one is reached after all of
its consumers. Gradients accumulate across calls, so zero them between
passes. Each op does one job: `linear` is x @ w + b, `slice_axis` takes a
contiguous block along any axis (LSTM gates, column readouts, weight row
splits) and `absolute` is |x|.

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
    "scale",
    "matmul",
    "linear",
    "reshape",
    "concat",
    "slice_axis",
    "gather_rows",
    "reduce_sum",
    "reduce_mean",
    "reduce_max_with_index",
    "relu",
    "absolute",
    "sigmoid",
    "tanh",
    "l2_norm_rows",
    "softmax_cross_entropy",
    "variance_along_axis",
    "pairwise_row_distances",
    "lstm_cell",
    "Adam",
    "save_params",
    "load_params",
    "load_into",
]

_EPS = 1e-12
_CREATED = itertools.count()


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "op_tag", "requires_grad", "seq")

    def __init__(
        self,
        value: np.ndarray,
        parents: tuple = (),
        op_tag: str = "leaf",
        requires_grad: bool = False,
    ) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.op_tag = op_tag
        self.requires_grad = requires_grad
        self.seq = next(_CREATED)

    def __repr__(self) -> str:
        return f"Node({self.op_tag}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(value: np.ndarray | float) -> Node:
    return Node(np.asarray(value, dtype=np.float64))


def parameter(value: np.ndarray | float) -> Node:
    return Node(np.asarray(value, dtype=np.float64), requires_grad=True)


def _as_node(x: Node | np.ndarray | float) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _make(value: np.ndarray, parents: Iterable[tuple[Node, Callable]], op_tag: str) -> Node:
    kept = tuple((p, fn) for p, fn in parents if p.requires_grad)
    return Node(value, kept, op_tag, requires_grad=bool(kept))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _broadcastable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for da, db in zip(a[::-1], b[::-1]):
        if da != db and da != 1 and db != 1:
            return False
    return True


def _check_elementwise(a: Node, b: Node, op_tag: str) -> None:
    if not _broadcastable(a.value.shape, b.value.shape):
        raise ShapeMismatch(f"op {op_tag!r}: shapes {a.value.shape} and {b.value.shape} do not broadcast")


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    a, b = _as_node(a), _as_node(b)
    _check_elementwise(a, b, "add")
    out = a.value + b.value
    return _make(
        out,
        [(a, lambda g: _unbroadcast(g, a.value.shape)), (b, lambda g: _unbroadcast(g, b.value.shape))],
        "add",
    )


def sub(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    a, b = _as_node(a), _as_node(b)
    _check_elementwise(a, b, "sub")
    out = a.value - b.value
    return _make(
        out,
        [(a, lambda g: _unbroadcast(g, a.value.shape)), (b, lambda g: _unbroadcast(-g, b.value.shape))],
        "sub",
    )


def mul(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    a, b = _as_node(a), _as_node(b)
    _check_elementwise(a, b, "mul")
    av, bv = a.value, b.value
    out = av * bv
    return _make(
        out,
        [(a, lambda g: _unbroadcast(g * bv, av.shape)), (b, lambda g: _unbroadcast(g * av, bv.shape))],
        "mul",
    )


def div(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    a, b = _as_node(a), _as_node(b)
    _check_elementwise(a, b, "div")
    av, bv = a.value, b.value
    with np.errstate(divide="ignore", invalid="ignore"):
        out = av / bv
    return _make(
        out,
        [
            (a, lambda g: _unbroadcast(g / bv, av.shape)),
            (b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)),
        ],
        "div",
    )


def scale(a: Node | np.ndarray, c: float) -> Node:
    a = _as_node(a)
    c = float(c)
    return _make(a.value * c, [(a, lambda g: g * c)], "scale")


def matmul(a: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    a, b = _as_node(a), _as_node(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatch(f"op 'matmul': shapes {av.shape} and {bv.shape} are incompatible")
    out = av @ bv
    return _make(out, [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)], "matmul")


def linear(x: Node | np.ndarray, w: Node | np.ndarray, b: Node | np.ndarray) -> Node:
    """x @ w + b, with b broadcast over the rows."""
    x, w, b = _as_node(x), _as_node(w), _as_node(b)
    xv, wv = x.value, w.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ShapeMismatch(f"op 'linear': shapes {xv.shape} and {wv.shape} are incompatible")
    if not _broadcastable((xv.shape[0], wv.shape[1]), b.value.shape) or b.value.size != wv.shape[1]:
        raise ShapeMismatch(f"op 'linear': bias {b.value.shape} does not fit {wv.shape[1]} columns")
    out = xv @ wv + b.value
    return _make(
        out,
        [(x, lambda g: g @ wv.T), (w, lambda g: xv.T @ g), (b, lambda g: _unbroadcast(g, b.value.shape))],
        "linear",
    )


def reshape(a: Node | np.ndarray, shape: Sequence[int]) -> Node:
    a = _as_node(a)
    src = a.value.shape
    out = a.value.reshape(shape)
    return _make(out, [(a, lambda g: g.reshape(src))], "reshape")


def concat(nodes: Sequence[Node | np.ndarray], axis: int = 0) -> Node:
    parts = [_as_node(n) for n in nodes]
    if not parts:
        raise ShapeMismatch("op 'concat': needs at least one input")
    out = np.concatenate([p.value for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.value.shape[axis] for p in parts])
    parents = []
    for i, p in enumerate(parts):
        lo, hi = offsets[i], offsets[i + 1]

        def bw(g: np.ndarray, lo=lo, hi=hi) -> np.ndarray:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        parents.append((p, bw))
    return _make(out, parents, "concat")


def slice_axis(a: Node | np.ndarray, lo: int, hi: int, axis: int = 0) -> Node:
    """The contiguous block [lo, hi) along one axis."""
    a = _as_node(a)
    shape = a.value.shape
    if not -len(shape) <= axis < len(shape) or not 0 <= lo < hi <= shape[axis]:
        raise ShapeMismatch(f"op 'slice_axis': block [{lo}, {hi}) on axis {axis} outside shape {shape}")
    sl = (slice(None),) * (axis % len(shape)) + (slice(lo, hi),)

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
    out = a.value[idx]
    width = math.prod(a.value.shape[1:])

    def bw(g: np.ndarray) -> np.ndarray:
        # one scatter over the flat index row * width + col; bincount sums
        # each target in input order, as np.add.at does, so the bytes match
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=a.value.size).reshape(a.value.shape)

    return _make(out, [(a, bw)], "gather_rows")


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a: Node | np.ndarray, axis: Optional[int] = None) -> Node:
    a = _as_node(a)
    out = a.value.sum(axis=axis)

    def bw(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return np.full(a.value.shape, g)
        return np.broadcast_to(np.expand_dims(g, axis), a.value.shape).copy()

    return _make(out, [(a, bw)], "reduce_sum")


def reduce_mean(a: Node | np.ndarray, axis: Optional[int] = None) -> Node:
    a = _as_node(a)
    out = a.value.mean(axis=axis)
    count = a.value.size if axis is None else a.value.shape[axis]

    def bw(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return np.full(a.value.shape, g / count)
        return np.broadcast_to(np.expand_dims(g, axis), a.value.shape) / count

    return _make(out, [(a, bw)], "reduce_mean")


def reduce_max_with_index(a: Node | np.ndarray, axis: int) -> tuple[Node, np.ndarray]:
    """Max along an axis plus the winning indices (first winner on ties)."""
    a = _as_node(a)
    if a.value.ndim < 1 or not -a.value.ndim <= axis < a.value.ndim:
        raise ShapeMismatch(f"op 'reduce_max_with_index': bad axis {axis} for shape {a.value.shape}")
    idx = np.argmax(a.value, axis=axis)
    out = np.take_along_axis(a.value, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def bw(g: np.ndarray) -> np.ndarray:
        acc = np.zeros(a.value.shape)
        np.put_along_axis(acc, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return acc

    node = _make(out, [(a, bw)], "reduce_max_with_index")
    return node, idx


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a: Node | np.ndarray) -> Node:
    a = _as_node(a)
    mask = a.value > 0.0
    return _make(a.value * mask, [(a, lambda g: g * mask)], "relu")


def absolute(a: Node | np.ndarray) -> Node:
    a = _as_node(a)
    sign = np.sign(a.value)
    return _make(np.abs(a.value), [(a, lambda g: g * sign)], "absolute")


def sigmoid(a: Node | np.ndarray) -> Node:
    a = _as_node(a)
    out = 1.0 / (1.0 + np.exp(-a.value))
    return _make(out, [(a, lambda g: g * out * (1.0 - out))], "sigmoid")


def tanh(a: Node | np.ndarray) -> Node:
    a = _as_node(a)
    out = np.tanh(a.value)
    return _make(out, [(a, lambda g: g * (1.0 - out * out))], "tanh")


def l2_norm_rows(a: Node | np.ndarray) -> Node:
    """Euclidean norm of each row of a 2-D array."""
    a = _as_node(a)
    if a.value.ndim != 2:
        raise ShapeMismatch(f"op 'l2_norm_rows': expected (N, D), got {a.value.shape}")
    out = np.linalg.norm(a.value, axis=1)
    safe = np.maximum(out, _EPS)

    def bw(g: np.ndarray) -> np.ndarray:
        return (g / safe)[:, None] * a.value

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
    shifted = lv - lv.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    out = -log_probs[np.arange(n), labels].mean()
    probs = np.exp(log_probs)

    def bw(g: np.ndarray) -> np.ndarray:
        delta = probs.copy()
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
    """Symmetric matrix of Euclidean distances between all row pairs."""
    a = _as_node(a)
    f = a.value
    if f.ndim != 2:
        raise ShapeMismatch(f"op 'pairwise_row_distances': expected (N, F), got {f.shape}")
    sq = (f * f).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (f @ f.T)
    d2 = np.maximum((d2 + d2.T) / 2.0, 0.0)
    np.fill_diagonal(d2, 0.0)
    out = np.sqrt(d2)
    safe = np.maximum(out, _EPS)

    def bw(g: np.ndarray) -> np.ndarray:
        w = (g + g.T) / safe
        np.fill_diagonal(w, 0.0)
        return w.sum(axis=1)[:, None] * f - w @ f

    return _make(out, [(a, bw)], "pairwise_row_distances")


# ---------------------------------------------------------------------------
# recurrent cell

def lstm_cell(
    x_proj: Node,
    h: Optional[Node],
    c: Optional[Node],
    w_h: Node,
) -> tuple[Node, Node]:
    """One LSTM step. Gate blocks are ordered input, forget, cell, output.

    x_proj is the projected input plus bias, x @ w_x + b, so an input that
    stays the same over the steps is projected once. h = c = None is the
    zero state of the first step.
    """
    width = w_h.value.shape[0]
    if w_h.value.shape[1] != 4 * width or x_proj.value.shape[-1] != 4 * width:
        raise ShapeMismatch(
            f"op 'lstm_cell': gate widths disagree: x_proj {x_proj.value.shape}, w_h {w_h.value.shape}"
        )
    if (h is None) != (c is None):
        raise ConfigError("op 'lstm_cell': give both h and c, or neither for the zero state")
    gates = x_proj if h is None else add(x_proj, matmul(h, w_h))

    def block(k: int) -> Node:
        return slice_axis(gates, k * width, (k + 1) * width, axis=1)

    c_next = mul(sigmoid(block(0)), tanh(block(2)))
    if c is not None:
        c_next = add(mul(sigmoid(block(1)), c), c_next)
    return mul(sigmoid(block(3)), tanh(c_next)), c_next


# ---------------------------------------------------------------------------
# backward sweep


def backward(root: Node) -> None:
    """Accumulate gradients of a scalar root into every contributing node.

    A node is made after its parents, so taking the pending nodes in
    decreasing creation order reaches each one after every node that feeds
    it a gradient. A node's first contribution is stored as is; later ones
    make a new array (grad + contrib), never an in-place sum, because an op
    may hand the same array to more than one parent.
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
        in their order, so the bytes match that arithmetic."""
        self.t += 1
        grads = {k: p.grad for k, p in self.params.items() if p.grad is not None}
        factor = None
        if self.max_grad_norm is not None and grads:
            total = float(np.sqrt(sum(float(np.multiply(g, g, out=self._work[k][1]).sum())
                                      for k, g in grads.items())))
            if total > self.max_grad_norm:
                factor = self.max_grad_norm / (total + _EPS)
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            a, b = self._work[k]
            if factor is not None:
                g = np.multiply(g, factor, out=a)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {k!r}")
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


def save_params(path: str | Path, params: dict[str, Node | np.ndarray]) -> None:
    """Write parameters as a text header plus little-endian float64 payload."""
    names = list(params.keys())
    for name in names:
        if not _NAME_RE.match(name):
            raise ConfigError(f"parameter name {name!r} not serializable")
    header = [_MAGIC, f"tensors {len(names)}"]
    blobs = []
    for name in names:
        arr = params[name].value if isinstance(params[name], Node) else np.asarray(params[name])
        arr = np.asarray(arr, dtype=np.float64)
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
    try:
        count = int(lines[1].split()[1])
    except (IndexError, ValueError) as exc:
        raise DataError(f"{path}: malformed tensor count") from exc
    entries = []
    for line in lines[2 : 2 + count]:
        try:
            name, dims = line.split()
            shape = () if dims == "scalar" else tuple(int(d) for d in dims.split(","))
        except ValueError as exc:
            raise DataError(f"{path}: malformed tensor line {line!r}") from exc
        if any(d < 0 for d in shape):
            raise DataError(f"{path}: negative dimension in {line!r}")
        entries.append((name, shape))
    if len(entries) != count:
        raise DataError(f"{path}: header lists {len(entries)} tensors, expected {count}")
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

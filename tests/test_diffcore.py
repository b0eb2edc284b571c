import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partmotion import diffcore as dc
from partmotion.errors import ConfigError, DataError, NumericError, ShapeMismatch

from grad_cases import OP_CASES
import oracles
from oracles import finite_difference_grad, relative_error

N_FIXTURES = 5
REL_TOL = 1e-3


def run_gradient_case(case_fn, n_fixtures=N_FIXTURES, rel_tol=REL_TOL):
    """Check one case against central finite differences on several fixtures."""
    for fixture in range(n_fixtures):
        rng = np.random.default_rng(10_000 + 97 * fixture)
        name, arrays, build = case_fn(rng)
        nodes = [dc.parameter(a) for a in arrays]
        out = build(nodes)
        assert out.value.size == 1, f"{name}: case must produce a scalar"
        dc.backward(out)
        for i in range(len(arrays)):
            def f(x, i=i):
                vals = [x if j == i else arrays[j] for j in range(len(arrays))]
                return float(build([dc.parameter(v) for v in vals]).value)

            fd = finite_difference_grad(f, arrays[i].copy())
            grad = nodes[i].grad
            assert grad is not None, f"{name}: input {i} missing gradient"
            rel = relative_error(grad, fd)
            assert rel < rel_tol, f"{name}: input {i} rel error {rel:.2e} on fixture {fixture}"


@pytest.mark.parametrize("case_fn", OP_CASES, ids=lambda fn: fn.__name__)
def test_op_gradients_match_finite_differences(case_fn):
    run_gradient_case(case_fn)


def _pair_inputs(steps, n=32, width=16, out=3, seed=0):
    """rows, cols, w, b, upstream weights; some pre-activations are exactly 0."""
    rng = np.random.default_rng([seed, steps])
    rows, cols = rng.normal(size=(steps, width)), rng.normal(size=(n, width))
    cols[0] = -rows[0]                 # a whole row of zeros in frame 0
    cols[n - 1, : width // 2] = -rows[steps - 1, : width // 2]
    arrays = [rows, cols, rng.normal(size=(width, out)), rng.normal(size=(1, out))]
    return arrays, rng.normal(size=(steps * n, out))


@pytest.mark.parametrize("steps", [1, 8])
def test_pair_relu_linear_matches_unfused_chain_bytes(steps):
    arrays, weights = _pair_inputs(steps)
    assert not (arrays[0][0] + arrays[1][0]).any()
    got, want = [dc.parameter(a) for a in arrays], [dc.parameter(a) for a in arrays]
    fused, chain = dc.pair_relu_linear(*got), oracles.pair_relu_linear(*want)
    assert fused.value.tobytes() == chain.value.tobytes()
    rows, cols, w, b = arrays  # the oracle relus through dc.relu, so also against numpy's own
    pre = (rows[:, None] + cols).reshape(-1, rows.shape[1])
    assert fused.value.tobytes() == (np.maximum(pre, 0.0) @ w + b).tobytes()
    dc.backward(dc.reduce_sum(dc.mul(fused, weights)))
    dc.backward(dc.reduce_sum(dc.mul(chain, weights)))
    for g, w in zip(got, want):
        assert g.grad.shape == w.grad.shape and g.grad.tobytes() == w.grad.tobytes()


def test_pair_relu_linear_point_masked_in_every_step_gets_positive_zero():
    # each step adds g * 0.0 = -0.0 for point 1; a sum over the steps starts
    # from +0.0, so the chain's gradient is +0.0 there, and the op's must be too
    arrays, weights = _pair_inputs(8)
    rows, cols, w, _ = arrays
    cols[1] = -1.0 - np.abs(rows).max(axis=0)
    weights[1::32] = -w[0]  # the masked pre-activation gradient of column 0 is negative
    got, want = [dc.parameter(a) for a in arrays], [dc.parameter(a) for a in arrays]
    dc.backward(dc.reduce_sum(dc.mul(dc.pair_relu_linear(*got), weights)))
    dc.backward(dc.reduce_sum(dc.mul(oracles.pair_relu_linear(*want), weights)))
    assert want[1].grad[1, 0] == 0.0 and not np.signbit(want[1].grad[1, 0])
    assert got[1].grad.tobytes() == want[1].grad.tobytes()


@pytest.mark.parametrize("bias_shape", [(4,), (1, 4)])
def test_relu_linear_matches_unfused_chain_bytes(bias_shape):
    rng = np.random.default_rng(3)
    x, w, b = rng.normal(size=(6, 5)), rng.normal(size=(5, 4)), rng.normal(size=bias_shape)
    x[0] = 0.0
    b.reshape(-1)[0] = 0.0  # a column of pre-activations that are exactly 0 in row 0
    weights = rng.normal(size=(6, 4))
    got, want = [dc.parameter(a) for a in (x, w, b)], [dc.parameter(a) for a in (x, w, b)]
    fused, chain = dc.relu_linear(*got), dc.relu(dc.linear(*want))
    assert fused.value.tobytes() == chain.value.tobytes()
    assert fused.value.tobytes() == np.maximum(x @ w + b, 0.0).tobytes()
    assert not fused.value[0, 0] and fused.op_tag == "relu_linear"
    for _ in range(2):  # a sweep consumes its nodes, so each pass masks its own upstream gradient in fresh ones
        dc.backward(dc.reduce_sum(dc.mul(fused, weights)))
        dc.backward(dc.reduce_sum(dc.mul(chain, weights)))
        fused, chain = dc.relu_linear(*got), dc.relu(dc.linear(*want))
        weights = rng.normal(size=(6, 4))
    for g, w_ in zip(got, want):
        assert g.grad.shape == w_.grad.shape and g.grad.tobytes() == w_.grad.tobytes()


_SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324]


def test_relu_matches_numpy_maximum_of_scalar_zero_bytes(monkeypatch):
    monkeypatch.setattr(dc, "_ZEROS", dc._ZEROS[:0])  # so every larger input grows the buffer
    rng = np.random.default_rng(7)
    cases = [np.array(_SPECIAL + [1.5, -2.0]), np.zeros(0), rng.normal(size=(2, 3, 4)),
             rng.normal(size=(5, 7)).T, rng.normal(size=200), np.array(_SPECIAL)]
    cases[2][0, 0, :2] = cases[3][0, :2] = -0.0, 5e-324
    for x in cases:
        node, g = dc.parameter(x), rng.normal(size=x.shape)
        out = dc.relu(node)
        assert out.value.shape == x.shape and out.value.tobytes() == np.maximum(x, 0.0).tobytes()
        dc.backward(dc.reduce_sum(dc.mul(out, g)))
        assert node.grad.tobytes() == (g * (x > 0.0)).tobytes()
    assert dc._ZEROS.size >= 200 and not dc._ZEROS.any() and not dc._ZEROS.flags.writeable


@pytest.mark.parametrize("op", [dc.linear, dc.relu_linear], ids=["linear", "relu_linear"])
@pytest.mark.parametrize("rows", [0, 1, 2])
def test_weight_gradient_matches_blas_outer_product_bytes(op, rows):
    # one row takes x.T * g, not BLAS: the bytes must still be those of x.T @ g,
    # whose sum starts from +0.0, where the product alone can be -0.0
    rng = np.random.default_rng(rows)
    x, w, g = rng.normal(size=(rows, 128)), rng.normal(size=(128, 512)), rng.normal(size=(rows, 512))
    for a in (x, g):
        a.ravel()[rng.choice(a.size, a.size // 4)] = rng.choice(_SPECIAL, a.size // 4)
    weight = dc.parameter(w)
    with np.errstate(invalid="ignore"):  # inf * 0.0, as in a diverging training step
        out = op(x, weight, np.zeros(512))
        dc.backward(dc.reduce_sum(dc.mul(out, g)))
        upstream = g * (out.value > 0.0) if op is dc.relu_linear else g
        want, got = x.T @ upstream, weight.grad
        product = x.T * upstream if rows == 1 else None
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    if product is not None:
        assert (np.signbit(product) & (product == 0.0)).any(), "a -0.0 product BLAS reads as +0.0"


def test_pair_relu_linear_masks_again_on_each_backward_call():
    # two backward passes over the same parameters must each mask their own
    # upstream gradient; a sweep consumes its node, so each pass makes its own
    arrays, w1 = _pair_inputs(4, n=5, width=6)
    _, w2 = _pair_inputs(4, n=5, width=6, seed=1)

    def grads(*weights):
        nodes = [dc.parameter(a) for a in arrays]
        for w in weights:  # only the parameters sum over both passes
            dc.backward(dc.reduce_sum(dc.mul(dc.pair_relu_linear(*nodes), w)))
        return [n.grad for n in nodes]

    for got, a, b in zip(grads(w1, w2), grads(w1), grads(w2)):
        assert got.tobytes() == (a + b).tobytes()


@pytest.mark.parametrize("shapes", [
    ((2, 4), (3, 5), (4, 2), (1, 2)),   # rows and cols widths differ
    ((2, 4), (3, 4), (5, 2), (1, 2)),   # w rows differ from the hidden width
    ((4,), (3, 4), (4, 2), (1, 2)),     # flat rows
    ((2, 4), (3, 4), (4, 2), (1, 3)),   # bias wider than the output
])
def test_pair_relu_linear_rejects_mismatched_shapes(shapes):
    with pytest.raises(ShapeMismatch, match="pair_relu_linear"):
        dc.pair_relu_linear(*(np.zeros(s) for s in shapes))


def test_softmax_cross_entropy_uniform_logits():
    logits = dc.constant(np.zeros((4, 2)))
    labels = np.array([0, 1, 0, 1])
    out = dc.softmax_cross_entropy(logits, labels)
    assert abs(float(out.value) - np.log(2.0)) < 1e-12


def _softmax_cross_entropy_rows():
    rng = np.random.default_rng(31)
    for _ in range(200):
        shape = (int(rng.integers(1, 301)), int(rng.integers(2, 6)))
        yield rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, np.log10(300.0))
    yield np.array([[0.0, 0.0], [2.5, 2.5], [-1.0, -1.0]])  # tied rows
    yield np.array([[1.0, 1.0, 0.5], [3.0, -2.0, 3.0], [-0.0, 0.0, -0.0]])  # tied maxima
    yield np.array([[700.0, 0.0], [-700.0, 0.0], [700.0, -700.0], [700.0, 700.0], [-700.0, -700.0]])
    yield np.array([[700.0, 699.0, -700.0, 3.0], [-700.0, -699.5, -700.0, -700.0]])


def test_softmax_cross_entropy_matches_hand_rolled_log_softmax_bytes():
    # scipy's log_softmax shifts by the row max, sums exp and takes its log as the earlier forward did
    rng = np.random.default_rng(32)
    for lv in _softmax_cross_entropy_rows():
        labels = rng.integers(0, lv.shape[1], size=lv.shape[0])
        logits = dc.parameter(lv)
        out = dc.softmax_cross_entropy(logits, labels)
        dc.backward(out)
        log_probs = oracles.log_softmax(lv)
        delta = np.exp(log_probs)
        delta[np.arange(lv.shape[0]), labels] -= 1.0
        assert out.value.tobytes() == np.float64(-log_probs[np.arange(lv.shape[0]), labels].mean()).tobytes()
        assert logits.grad.tobytes() == ((1.0 / lv.shape[0]) * delta).tobytes()


def test_variance_of_constant_input_is_zero_with_zero_grad():
    x = dc.parameter(np.full((5, 3), 2.5))
    out = dc.reduce_sum(dc.variance_along_axis(x, axis=0))
    np.testing.assert_allclose(out.value, 0.0, atol=1e-15)
    dc.backward(out)
    np.testing.assert_allclose(x.grad, np.zeros((5, 3)), atol=1e-15)


def test_reduce_max_gradient_goes_to_first_winner():
    x = dc.parameter(np.array([[1.0, 3.0, 3.0], [0.5, 0.1, 0.2]]))
    out = dc.reduce_max(x, axis=1)
    np.testing.assert_array_equal(out.value, [3.0, 0.5])
    dc.backward(dc.reduce_sum(out))
    # the tie in the first row sends the whole gradient to its first winner
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def _assert_reduce_max_backward_matches_argmax_reference(a, rng):
    x = dc.parameter(a)
    for axis in range(-a.ndim, a.ndim):
        y = dc.reduce_max(x, axis)
        g = rng.normal(size=y.value.shape)
        got = y.parents[0][1](g)
        want = oracles.reduce_max_backward(a, y.value, g, axis)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), axis


@pytest.mark.parametrize("a", [
    np.full((3, 4, 2), 1.5),                                     # every group all equal
    np.array([[2.0, 1.0, 2.0, 2.0], [0.0, 3.0, -1.0, 3.0]]),      # repeated maxima
    np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -0.0]]),            # -0.0 ties with 0.0
    np.array([[1.0, np.nan, 2.0], [np.nan, np.nan, 0.0]]),       # a NaN group has no winner
], ids=["all_equal", "repeated_maxima", "signed_zero", "nan"])
def test_reduce_max_backward_matches_argmax_reference_on_ties(a):
    with np.errstate(invalid="ignore"):
        _assert_reduce_max_backward_matches_argmax_reference(a, np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple), seed=st.integers(0, 2**32 - 1))
def test_reduce_max_backward_matches_argmax_reference_bytes(shape, seed):
    # values from a small set, so most groups tie, -0.0 against 0.0 included
    rng = np.random.default_rng(seed)
    _assert_reduce_max_backward_matches_argmax_reference(rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape), rng)


def test_reduce_max_backward_matches_argmax_reference_on_encoder_shapes():
    rng = np.random.default_rng(5)
    for shape in ((64, 16, 64), (16, 8, 128), (16, 128)):
        _assert_reduce_max_backward_matches_argmax_reference(np.maximum(rng.normal(size=shape), 0.0), rng)


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(0, 3), max_size=3).map(tuple), seed=st.integers(0, 2**32 - 1))
def test_reduce_backward_matches_two_branch_reference_bytes(shape, seed):
    # every axis and the full reduction, 0-d and empty inputs included; a mean
    # over nothing divides by a zero count, on both sides alike
    rng = np.random.default_rng(seed)
    x = dc.parameter(rng.normal(size=shape))
    for axis in (None, *range(len(shape))):
        size = x.value.size if axis is None else shape[axis]
        for reduce, count in ((dc.reduce_sum, 1), (dc.reduce_mean, size)):
            with np.errstate(divide="ignore", invalid="ignore"):
                y = reduce(x, axis)
                g = np.asarray(rng.normal(size=y.value.shape))
                got = y.parents[0][1](g)
                want = oracles.reduce_backward(g, shape, axis, count)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (reduce.__name__, axis)


def test_pairwise_row_distances_symmetric_zero_diagonal():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(20, 6))
    m = dc.pairwise_row_distances(dc.constant(f)).value
    assert np.array_equal(m, m.T)
    np.testing.assert_allclose(np.diag(m), 0.0, atol=0.0)
    assert (m >= 0.0).all()
    brute = np.linalg.norm(f[:, None, :] - f[None, :, :], axis=2)
    np.testing.assert_allclose(m, brute, atol=1e-9)


def test_pairwise_row_distances_keeps_near_coincident_rows_apart():
    # 64-wide rows near 48 that lie 4.8e-9 apart: |a|^2 + |b|^2 - 2 a.b cancels to 0.0 here
    rng = np.random.default_rng(0)
    row = rng.uniform(47.0, 49.0, 64)
    step = rng.normal(size=64)
    f = np.stack([row, row + step * (4.8e-9 / np.linalg.norm(step))])
    want = math.dist(f[0], f[1])
    m = dc.pairwise_row_distances(f).value
    assert abs(m[0, 1] - want) <= 1e-15 * want and m[1, 0] == m[0, 1]


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_pairwise_row_distances_is_square_for_few_rows(rows):
    m = dc.pairwise_row_distances(np.ones((rows, 4))).value
    assert m.shape == (rows, rows) and not m.any()


@pytest.mark.parametrize("width", [1, 3, 7, 8, 64])
def test_l2_norm_rows_matches_linalg_norm_bytes(width):
    # narrow rows take a running column sum, wide ones np.linalg.norm itself;
    # rows span 16 orders of magnitude, and some are zero or negative zero
    rng = np.random.default_rng(width)
    for rows in (1, 2, 9, 300, 5000):
        a = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-8, 8, size=(rows, width))
        a[rows // 2] = -0.0
        a[:: max(rows // 7, 1), 0] = 0.0
        assert dc.l2_norm_rows(a).value.tobytes() == np.linalg.norm(a, axis=1).tobytes()
        assert dc.l2_norm_rows(a[:, ::-1]).value.tobytes() == np.linalg.norm(a[:, ::-1], axis=1).tobytes()


def test_lstm_zero_params_give_zero_states():
    width = 4
    x_proj = dc.linear(np.ones((1, 3)), np.zeros((3, 4 * width)), np.zeros(4 * width))
    states = dc.lstm(x_proj, np.zeros((width, 4 * width)), 5)
    assert states.value.shape == (5, width)
    np.testing.assert_allclose(states.value, 0.0, atol=1e-15)


def test_lstm_saturated_gates_give_zero_states_without_a_warning():
    # exp(1000) overflows to inf, so each sigmoid is exactly 0.0; the
    # overflow is expected there and must not warn
    width = 3
    x_proj = dc.parameter(np.full((1, 4 * width), -1000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = dc.lstm(x_proj, np.zeros((width, 4 * width)), 3)
        dc.backward(dc.reduce_sum(states))
    assert not states.value.any() and not x_proj.grad.any()


@pytest.mark.parametrize("width,steps", [(128, 8), (3, 1)])
def test_lstm_matches_cell_loop_bytes(width, steps):
    rng = np.random.default_rng(width)
    x_proj, w_h = rng.normal(size=(1, 4 * width)), rng.normal(size=(width, 4 * width)) * 0.2
    weights = rng.normal(size=(steps, width))
    got, want = [dc.parameter(x_proj), dc.parameter(w_h)], [dc.parameter(x_proj), dc.parameter(w_h)]
    fused, loop = dc.lstm(*got, steps), oracles.lstm_states(*want, steps)
    assert fused.value.tobytes() == loop.value.tobytes()
    dc.backward(dc.reduce_sum(dc.mul(fused, weights)))
    dc.backward(dc.reduce_sum(dc.mul(loop, weights)))
    # the sums run in another order, so the gradients agree to rounding only
    assert relative_error(got[0].grad, want[0].grad) < 1e-9
    if steps == 1:  # no recurrent matmul: the reference never reaches w_h
        assert want[1].grad is None and not got[1].grad.any()
    else:
        assert relative_error(got[1].grad, want[1].grad) < 1e-9


def test_lstm_sweeps_again_on_each_backward_call():
    # two backward passes over the same parameters must each use their own
    # upstream gradient, not the gate gradients of the first pass; a sweep
    # consumes its lstm node, so each pass makes its own
    rng = np.random.default_rng(5)
    x_proj, w_h = rng.normal(size=(1, 12)), rng.normal(size=(3, 12))
    w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

    def grads(*weights):
        nodes = [dc.parameter(x_proj), dc.parameter(w_h)]
        for w in weights:  # only the parameters sum over both passes
            dc.backward(dc.reduce_sum(dc.mul(dc.lstm(*nodes, 4), w)))
        return [n.grad for n in nodes]

    both, first, second = grads(w1, w2), grads(w1), grads(w2)
    for got, a, b in zip(both, first, second):
        np.testing.assert_allclose(got, a + b, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("x_shape,w_shape", [
    ((2, 12), (3, 12)),   # more than one input row
    ((1, 16), (3, 12)),   # x_proj gates wider than w_h's
    ((1, 12), (3, 16)),   # w_h not (W, 4W)
    ((12,), (3, 12)),     # flat x_proj
])
def test_lstm_rejects_mismatched_shapes(x_shape, w_shape):
    with pytest.raises(ShapeMismatch, match="lstm"):
        dc.lstm(np.zeros(x_shape), np.zeros(w_shape), 2)


def _counted_step_node(monkeypatch, op, requires_grad):
    """One op node over parameters with requires_grad as given, and the list that
    gets one entry each time backward() runs the step the op handed to _make."""
    runs, make = [], dc._make
    monkeypatch.setattr(dc, "_make", lambda value, parents, op_tag, step=None: make(
        value, parents, op_tag, None if step is None else lambda g: runs.append(op_tag) or step(g)))
    rng = np.random.default_rng(11)
    arrays, extra = {
        "relu_linear": ([rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3,))], ()),
        "pair_relu_linear": (_pair_inputs(3, n=4, width=5)[0], ()),
        "lstm": ([rng.normal(size=(1, 12)), rng.normal(size=(3, 12))], (4,)),
    }[op]
    nodes = [dc.parameter(a) for a in arrays]
    for node in nodes:
        node.requires_grad = requires_grad
    return getattr(dc, op)(*nodes, *extra), runs


@pytest.mark.parametrize("op, n_parents", [("relu_linear", 3), ("pair_relu_linear", 4), ("lstm", 2)])
def test_shared_step_runs_once_per_backward_call(monkeypatch, op, n_parents):
    node, runs = _counted_step_node(monkeypatch, op, requires_grad=True)
    assert len(node.parents) == n_parents
    inputs = [p for p, _ in node.parents] + ([len(node.value)] if op == "lstm" else [])  # lstm's steps
    weights = np.random.default_rng(12).normal(size=node.value.shape)
    for calls in (1, 2):
        dc.backward(dc.reduce_sum(dc.mul(node, weights)))
        assert runs == [op] * calls
        node = getattr(dc, op)(*inputs)  # the sweep consumed the node: the next call sweeps a fresh one


@pytest.mark.parametrize("op", ["relu_linear", "pair_relu_linear", "lstm"])
def test_shared_step_never_runs_over_frozen_parameters(monkeypatch, op):
    # as in a prediction: the node has no parents, so backward() never reaches it
    node, runs = _counted_step_node(monkeypatch, op, requires_grad=False)
    other = dc.parameter(np.ones(node.value.shape))
    dc.backward(dc.reduce_sum(dc.mul(node, other)))
    assert node.parents == () and node.step is None
    assert runs == [] and other.grad.tobytes() == node.value.tobytes()


def test_shared_subgraph_accumulates_gradient():
    x = dc.parameter(np.array([[2.0]]))
    y = dc.add(dc.mul(x, x), dc.mul(x, 3.0))  # x^2 + 3x
    out = dc.reduce_sum(y)
    dc.backward(out)
    np.testing.assert_allclose(x.grad, [[7.0]], atol=1e-12)


def test_shared_gradient_array_is_not_summed_into_in_place():
    # `add` hands one gradient array to both leaves u and v; s is made after
    # p, so it is swept first and u's second contribution, from p, comes
    # after u and v hold that one array: it must not change v's gradient
    u, v = dc.parameter(np.array([[1.0, -2.0]])), dc.parameter(np.array([[4.0, 0.5]]))
    w = np.array([[0.5, 3.0]])
    w2 = np.array([[7.0, -1.0]])
    p = dc.mul(u, w2)
    s = dc.add(u, v)
    dc.backward(dc.reduce_sum(dc.add(dc.mul(s, w), p)))
    np.testing.assert_array_equal(v.grad, w)
    np.testing.assert_array_equal(u.grad, w + w2)


def test_backward_leaves_gradients_on_leaves_only():
    x, y = dc.parameter(np.array([[1.0, -2.0]])), dc.parameter(np.array([[3.0], [0.5]]))
    h = dc.relu(dc.matmul(dc.mul(x, x), y))
    root = dc.reduce_sum(dc.add(dc.mul(h, 2.0), dc.matmul(x, y)))
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        nodes[node.seq] = node
        stack.extend(p for p, _ in node.parents)
    ops = [n for n in nodes.values() if n.parents]  # collected before the sweep consumes the graph
    leaves = [n for n in nodes.values() if not n.parents]
    dc.backward(root)
    assert len(ops) == 7 and all(n.grad is None and not n.parents for n in ops)
    assert all(n.grad is not None for n in leaves)
    np.testing.assert_array_equal(y.grad, [[3.0], [6.0]])
    np.testing.assert_array_equal(x.grad, [[15.0, -3.5]])


def test_backward_visits_nodes_in_decreasing_creation_order():
    x = dc.parameter(np.ones((2, 2)))
    a = dc.mul(x, 2.0)
    b = dc.mul(a, x)
    out = dc.reduce_sum(dc.add(b, a))
    visited = []
    for node in (x, a, b, out):
        node.parents = tuple((parent, lambda g, fn=fn, node=node: visited.append(node.seq) or fn(g))
                             for parent, fn in node.parents)
    dc.backward(out)
    assert visited == sorted(visited, reverse=True)
    np.testing.assert_array_equal(x.grad, 2.0 * x.value + 2.0 * x.value + 2.0)


def test_backward_raises_on_a_swept_root():
    x = dc.parameter(np.array([[1.5, -2.0]]))
    root = dc.reduce_sum(dc.mul(x, x))
    dc.backward(root)
    assert root.value == 6.25 and root.parents is None and root.step is None
    with pytest.raises(ConfigError, match="op 'reduce_sum', whose graph was already swept"):
        dc.backward(root)
    np.testing.assert_array_equal(x.grad, [[3.0, -4.0]])


def test_backward_raises_on_a_swept_parent_inside_a_new_graph():
    x = dc.parameter(np.array([[1.5, -2.0]]))
    h = dc.mul(x, x)
    dc.backward(dc.reduce_sum(h))
    for _ in range(2):  # the failed sweep leaves h no gradient, so h is queued and raises again
        with pytest.raises(ConfigError, match="op 'mul', whose graph was already swept"):
            dc.backward(dc.reduce_sum(dc.add(h, x)))
    x.grad = None  # leaves stay leaves: a graph rebuilt over x sweeps as before
    dc.backward(dc.reduce_sum(dc.add(dc.mul(x, x), x)))
    np.testing.assert_array_equal(x.grad, [[4.0, -3.0]])


def test_backward_requires_scalar_root():
    x = dc.parameter(np.ones((2, 2)))
    with pytest.raises(ConfigError):
        dc.backward(dc.add(x, x))


def test_backward_accumulates_until_zeroed():
    x = dc.parameter(np.array([[1.5]]))
    out = dc.reduce_sum(dc.mul(x, x))
    dc.backward(out)
    first = x.grad.copy()
    out2 = dc.reduce_sum(dc.mul(x, x))
    dc.backward(out2)
    np.testing.assert_allclose(x.grad, 2.0 * first, atol=1e-12)
    x.grad = None
    out3 = dc.reduce_sum(dc.mul(x, x))
    dc.backward(out3)
    np.testing.assert_allclose(x.grad, first, atol=1e-12)


def test_constants_are_pruned_from_graph():
    a = dc.constant(np.ones((3, 3)))
    b = dc.constant(np.ones((3, 3)))
    out = dc.add(a, b)
    assert not out.requires_grad
    assert out.parents == ()


def test_shape_mismatch_names_op():
    with pytest.raises(ShapeMismatch, match="matmul"):
        dc.matmul(dc.constant(np.ones((2, 3))), dc.constant(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch, match="add"):
        dc.add(dc.constant(np.ones((2, 3))), dc.constant(np.ones((3, 2))))
    with pytest.raises(ShapeMismatch, match="gather_rows"):
        dc.gather_rows(dc.constant(np.ones((2, 3))), np.array([0, 5]))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_elementwise_shape_mismatch_names_op(op):
    # div's errstate wrapper must not hide numpy's broadcast error
    with pytest.raises(ShapeMismatch, match=f"op '{op}': shapes \\(2, 3\\) and \\(3, 2\\) do not broadcast"):
        getattr(dc, op)(np.ones((2, 3)), dc.parameter(np.ones((3, 2))))


@pytest.mark.parametrize("bias_shape", [(3,), (1, 3)])
def test_linear_adds_bias_per_column(bias_shape):
    b = dc.parameter(np.arange(3.0).reshape(bias_shape))
    out = dc.linear(np.eye(3), np.eye(3), b)
    np.testing.assert_array_equal(out.value, np.eye(3) + np.arange(3.0))
    dc.backward(dc.reduce_sum(out))
    np.testing.assert_array_equal(b.grad, np.full(bias_shape, 3.0))


@pytest.mark.parametrize("bias_shape", [(3, 1), (1, 1, 3), (3, 3), (1,)])
def test_linear_rejects_bias_that_is_not_one_per_column(bias_shape):
    with pytest.raises(ShapeMismatch, match="linear"):
        dc.linear(np.eye(3), np.eye(3), np.zeros(bias_shape))


def test_relu_linear_rejects_a_bias_that_is_not_one_per_column():
    with pytest.raises(ShapeMismatch, match="op 'relu_linear'"):
        dc.relu_linear(np.eye(3), np.eye(3), np.zeros((3, 1)))


@pytest.mark.parametrize("lo, hi, axis", [(1, 4, 0), (-1, 2, 0), (2, 2, 1), (0, 2, 2)])
def test_slice_axis_rejects_block_outside_shape(lo, hi, axis):
    with pytest.raises(ShapeMismatch, match="slice_axis"):
        dc.slice_axis(dc.constant(np.ones((3, 5))), lo, hi, axis)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
def test_load_into_rejects_non_finite_tensor(tmp_path, bad):
    good = np.ones((2, 3))
    poisoned = good.copy()
    poisoned[1, 2] = bad
    path = tmp_path / "m.params"
    dc.save_params(path, {"a": dc.parameter(good), "b": dc.parameter(poisoned)})
    fresh = {"a": dc.parameter(np.zeros((2, 3))), "b": dc.parameter(np.zeros((2, 3)))}
    with pytest.raises(DataError, match="non-finite values in tensor 'b'"):
        dc.load_into(fresh, path)
    # nothing is loaded from a rejected file
    assert not fresh["a"].value.any() and not fresh["b"].value.any()


def test_load_params_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="nowhere.params"):
        dc.load_params(tmp_path / "nowhere.params")
    with pytest.raises(DataError, match="cannot read"):
        dc.load_params(tmp_path)


def test_load_params_rejects_a_tensor_listed_twice(tmp_path):
    path = tmp_path / "twice.params"
    header = "partmotion-params 1\ntensors 3\na 3\nb 2\na 3\ndata\n"
    path.write_bytes(header.encode() + np.arange(8.0).astype("<f8").tobytes())
    fresh = {"a": dc.parameter(np.zeros(3)), "b": dc.parameter(np.zeros(2))}
    with pytest.raises(DataError, match="twice.params: tensor 'a' is listed twice"):
        dc.load_into(fresh, path)
    assert not fresh["a"].value.any() and not fresh["b"].value.any()


@pytest.mark.parametrize("count_line, tensor_lines", [
    ("tensors 1", ["a 3", "b 2"]),   # one line more than the count
    ("tensors 1 junk", ["a 3"]),
    ("foo 1", ["a 3"]),
], ids=["extra_line", "trailing_word", "no_tensors_word"])
def test_load_params_rejects_a_malformed_header(tmp_path, count_line, tensor_lines):
    # each payload holds a alone
    path = tmp_path / "header.params"
    header = "\n".join(["partmotion-params 1", count_line, *tensor_lines, "data", ""])
    path.write_bytes(header.encode() + np.arange(3.0).astype("<f8").tobytes())
    with pytest.raises(DataError, match="header.params: header is not 'tensors <count>'"):
        dc.load_params(path)


def test_adam_rejects_non_finite_gradient():
    p = dc.parameter(np.zeros(3))
    opt = dc.Adam({"p": p}, 0.01, math.inf)
    p.grad = np.array([0.0, np.nan, 1.0])
    with pytest.raises(NumericError, match="'p'"):
        opt.step()


@pytest.mark.parametrize("clip", [1.0, math.inf])
def test_adam_non_finite_last_gradient_changes_nothing(clip):
    rng = np.random.default_rng(3)
    params = {k: dc.parameter(rng.normal(size=(3, 2))) for k in "abc"}
    opt = dc.Adam(params, lr=0.01, max_grad_norm=clip)
    for p in params.values():
        p.grad = rng.normal(size=(3, 2))
    opt.step()
    for p in params.values():
        p.grad = rng.normal(size=(3, 2))
    params["c"].grad[2, 1] = np.nan
    before = [{k: a.tobytes() for k, a in d.items()}
              for d in ({k: p.value for k, p in params.items()}, opt._m, opt._v)]
    with pytest.raises(NumericError, match="'c'"):
        opt.step()
    after = [{k: a.tobytes() for k, a in d.items()}
             for d in ({k: p.value for k, p in params.items()}, opt._m, opt._v)]
    assert after == before and opt.t == 1


def test_adam_overflowing_square_of_finite_gradient_clips_to_zero():
    # 1e200 squared is inf, so the clip factor is 0 and the step decays the moments only
    rng = np.random.default_rng(4)
    start = rng.normal(size=(3,))
    p = dc.parameter(start.copy())
    opt = dc.Adam({"p": p}, lr=0.01, max_grad_norm=1.0)
    g1 = np.array([0.3, -0.2, 0.5])
    p.grad = g1.copy()
    opt.step()
    p.grad = np.array([1e200, 0.0, -1.0])
    with np.errstate(over="ignore"):
        opt.step()
    want, m, v = start.copy(), np.zeros(3), np.zeros(3)
    for t, g in [(1, g1), (2, np.zeros(3))]:
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        want = want - 0.01 * ((m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8))
    assert opt.t == 2 and p.value.tobytes() == want.tobytes()


def test_adam_in_place_update_matches_reference_bytes():
    for clip in (1.5, math.inf):
        rng = np.random.default_rng(11)
        start = rng.normal(size=(4, 5))
        p = dc.parameter(start.copy())
        opt = dc.Adam({"p": p}, lr=3e-3, max_grad_norm=clip)
        value, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        for t in range(1, 6):
            g = rng.normal(size=start.shape) * 10.0 ** (t - 3)  # clipped from t = 3 on
            p.grad = g.copy()
            opt.step()
            assert p.grad.tobytes() == g.tobytes()  # a gradient array may be shared: never written
            total = float(np.sqrt(float((g * g).sum())))
            if total > clip:
                g = g * (clip / (total + 1e-12))
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            update = (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            value = value - 3e-3 * update
            assert p.value.tobytes() == value.tobytes()


@pytest.mark.parametrize("clip", [1.5, math.inf], ids=["clipped", "unclipped"])
def test_flat_adam_matches_per_parameter_oracle_bytes(clip):
    # many parameters against a per-parameter reference written out here: a
    # scalar among them, and gradients missing at the start, in the middle and
    # at the end of the dict, so the clip norm sums only the gradients present
    shapes = [(4, 5), (), (3,), (2, 2)]
    missing = [set(), {0}, {1, 2}, {3}, {0, 1, 2, 3}, set()]
    rng = np.random.default_rng(11)
    start = [rng.normal(size=shape) for shape in shapes]
    params = {f"p{i}": dc.parameter(x.copy()) for i, x in enumerate(start)}
    opt = dc.Adam(params, lr=3e-3, max_grad_norm=clip)
    arrays = {k: p.value for k, p in params.items()}
    value = dict(zip(params, start))
    m = {k: np.zeros(x.shape) for k, x in value.items()}
    v = {k: np.zeros(x.shape) for k, x in value.items()}
    for t, skip in enumerate(missing, start=1):
        grads = {k: rng.normal(size=shapes[i]) * 10.0 ** (t - 3)  # clipped from t = 3 on
                 for i, k in enumerate(params) if i not in skip}
        for k, p in params.items():
            p.grad = grads[k].copy() if k in grads else None
        opt.step()
        for k, g in grads.items():  # a gradient array may be shared: never written
            assert params[k].grad.tobytes() == g.tobytes()
        total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
        for k, g in grads.items():
            if total > clip:
                g = g * (clip / (total + 1e-12))
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
            update = (m[k] / (1.0 - 0.9**t)) / (np.sqrt(v[k] / (1.0 - 0.999**t)) + 1e-8)
            value[k] = value[k] - 3e-3 * update
        for k, p in params.items():  # a parameter without a gradient keeps its bytes
            assert p.value is arrays[k] and p.value.tobytes() == value[k].tobytes(), (clip, t, k)
            assert opt._m[k].tobytes() == m[k].tobytes(), (clip, t, k)
            assert opt._v[k].tobytes() == v[k].tobytes(), (clip, t, k)
    assert opt.t == len(missing)


@pytest.mark.parametrize("clip", [1.5, math.inf], ids=["clipped", "unclipped"])
def test_adam_works_in_one_scratch_pair_sized_to_the_largest_parameter(tmp_path, clip):
    # a scalar, a small array and one larger than all the rest, not last in the
    # dict; load_into before step 4 swaps every value array, and the steps go on
    shapes = {"s": (), "small": (3,), "big": (6, 7), "mid": (2, 4)}
    rng = np.random.default_rng(21)
    params = {k: dc.parameter(rng.normal(size=shape)) for k, shape in shapes.items()}
    opt = dc.Adam(params, lr=3e-3, max_grad_norm=clip)
    scratch = {id(view.base): view.base for pair in opt._work.values() for view in pair}
    assert len(scratch) == 2 and all(a.shape == (42,) for a in scratch.values())
    assert all(view.shape == shapes[k] for k, pair in opt._work.items() for view in pair)
    value = {k: p.value.copy() for k, p in params.items()}
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    for t in range(1, 7):
        if t == 4:
            value = {k: x + 1.0 for k, x in value.items()}
            dc.save_params(tmp_path / "p.params", {k: dc.parameter(x) for k, x in value.items()})
            dc.load_into(params, tmp_path / "p.params")
        grads = {k: rng.normal(size=shape) * 10.0 ** (t - 3) for k, shape in shapes.items()}  # clipped from t = 3 on
        for k, p in params.items():
            p.grad = grads[k].copy()
        opt.step()
        total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
        for k, g in grads.items():
            if total > clip:
                g = g * (clip / (total + 1e-12))
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
            update = (m[k] / (1.0 - 0.9**t)) / (np.sqrt(v[k] / (1.0 - 0.999**t)) + 1e-8)
            value[k] = value[k] - 3e-3 * update
            assert params[k].value.tobytes() == value[k].tobytes(), (clip, t, k)
    assert opt.t == 6


def test_adam_steps_the_arrays_that_load_into_set(tmp_path):
    params = {"a": dc.parameter(np.ones((2, 3))), "b": dc.parameter(np.zeros(4))}
    opt = dc.Adam(params, 0.1, math.inf)
    for p in params.values():
        p.grad = np.ones(p.value.shape)
    opt.step()
    dc.save_params(tmp_path / "p.params", {k: dc.parameter(np.full(p.value.shape, 5.0)) for k, p in params.items()})
    dc.load_into(params, tmp_path / "p.params")
    loaded = {k: p.value for k, p in params.items()}
    opt.step()  # the moments carry over, so each value falls by the step size lr
    for k, p in params.items():
        assert p.value is loaded[k]
        np.testing.assert_allclose(p.value, 5.0 - 0.1, rtol=1e-9)
    assert opt.t == 2


def test_adam_step_magnitude_approaches_lr():
    p = dc.parameter(np.zeros(3))
    opt = dc.Adam({"p": p}, 0.01, math.inf)
    g = np.array([0.3, -2.0, 5.0])
    last = p.value.copy()
    for _ in range(300):
        p.grad = g.copy()
        opt.step()
        step = p.value - last
        last = p.value.copy()
    np.testing.assert_allclose(np.abs(step), 0.01, rtol=1e-3)


def test_adam_minimizes_quadratic_bowl():
    rng = np.random.default_rng(42)
    p = dc.parameter(rng.normal(size=8))
    opt = dc.Adam({"p": p}, 1e-2, math.inf)
    value = None
    for step in range(5000):
        opt.zero_grad()
        out = dc.reduce_sum(dc.mul(p, p))
        dc.backward(out)
        opt.step()
        value = float(out.value)
        if value < 1e-6:
            break
    assert value < 1e-6, f"bowl still at {value:.3e} after {step + 1} steps"


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    params = {
        "enc/w1": dc.parameter(rng.normal(size=(4, 7))),
        "enc/b1": dc.parameter(rng.normal(size=7)),
        "head.scalar": dc.parameter(np.float64(0.25)),
    }
    path = tmp_path / "model.ckpt"
    dc.save_params(path, params)
    loaded = dc.load_params(path)
    assert list(loaded) == list(params)
    for k, node in params.items():
        assert np.array_equal(loaded[k], np.asarray(node.value))
    fresh = {k: dc.parameter(np.zeros_like(np.asarray(v.value))) for k, v in params.items()}
    dc.load_into(fresh, path)
    for k in params:
        assert np.array_equal(fresh[k].value, params[k].value)


def test_checkpoint_header_is_text(tmp_path):
    path = tmp_path / "m.ckpt"
    dc.save_params(path, {"w": dc.parameter(np.ones((2, 2)))})
    head = path.read_bytes().split(b"\ndata\n")[0].decode("ascii")
    assert "partmotion-params" in head
    assert "w 2,2" in head


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "m.ckpt"
    dc.save_params(path, {"w": dc.parameter(np.ones(4))})
    raw = path.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(raw[:-8])
    with pytest.raises(DataError):
        dc.load_params(tmp_path / "trunc.ckpt")
    with pytest.raises(DataError):
        dc.load_params(__file__)
    fresh = {"other": dc.parameter(np.ones(4))}
    with pytest.raises(DataError):
        dc.load_into(fresh, path)
    bad_shape = {"w": dc.parameter(np.ones((2, 2)))}
    with pytest.raises(DataError):
        dc.load_into(bad_shape, path)


_DIMS = st.lists(st.integers(0, 3) | st.integers(-2, 2**70), max_size=70).map(lambda d: ",".join(map(str, d)))
_TENSOR_LINE = st.builds("{} {}".format, st.sampled_from(["w", "enc.l1.b"]), _DIMS | st.just("scalar")) | st.text(max_size=12)
_HEADER = st.builds(
    lambda count, lines: "\n".join(["partmotion-params 1", f"tensors {count}", *lines]).encode(),
    st.integers(-1, 3),
    st.lists(_TENSOR_LINE, max_size=3),
) | st.binary(max_size=48)


@settings(max_examples=60, deadline=None)
@given(header=_HEADER, payload=st.binary(max_size=80))
@example(header=b"partmotion-params 1\ntensors 1\nw 4294967296,4294967296", payload=b"")
def test_load_params_returns_or_raises_data_error(tmp_path_factory, header, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.params"
    path.write_bytes(header + b"\ndata\n" + payload)
    try:
        dc.load_params(path)
    except DataError:
        pass


# names in dc.__all__ that are not differentiable ops
NOT_OPS = {"Node", "constant", "parameter", "backward", "Adam", "save_params", "load_params", "load_into"}


def test_every_differentiable_op_has_a_gradient_case(monkeypatch):
    ops = set(dc.__all__) - NOT_OPS
    called = set()
    for name in ops:
        def spy(*args, name=name, fn=getattr(dc, name), **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(dc, name, spy)
    rng = np.random.default_rng(0)
    for case_fn in OP_CASES:
        _, arrays, build = case_fn(rng)
        build([dc.parameter(a) for a in arrays])
    assert ops - called == set()


def _gather_rows_calls(monkeypatch, run):
    """(source shape, index array) of every gather_rows call `run` makes."""
    calls = []
    gather = dc.gather_rows

    def spy(a, idx):
        calls.append((a.value.shape, np.asarray(idx)))
        return gather(a, idx)

    monkeypatch.setattr(dc, "gather_rows", spy)
    run()
    monkeypatch.undo()
    return calls


def _assert_scatter_matches_add_at(shape, idx, rng):
    # gradients over nine orders of magnitude, so a different summation
    # order would show in the low bits
    g = rng.normal(size=idx.shape + shape[1:]) * 10.0 ** rng.integers(-4, 5, size=idx.shape + shape[1:])
    node = dc.gather_rows(dc.parameter(np.zeros(shape)), idx)
    got = node.parents[0][1](g)
    expect = np.zeros(shape)
    np.add.at(expect, idx.ravel(), g.reshape((-1,) + shape[1:]))
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_gather_rows_backward_matches_add_at_bytes(monkeypatch):
    from partmotion import losses
    from partmotion.datagen import generate_shape, make_sequence
    from partmotion.nets import NetConfig, build_plan

    rng = np.random.default_rng(21)
    cfg = NetConfig()
    seq = make_sequence(generate_shape("cabinet_multi", np.random.default_rng([2, 5]), 256), 9)
    plan = build_plan(seq.frames[0], cfg)
    width = cfg.sa_stages[0][2][-1]
    assert plan.groups2.size > plan.centroids1.size  # rows repeat, so targets sum
    _assert_scatter_matches_add_at((plan.centroids1.size, width), plan.groups2.ravel(), rng)

    moving = seq.labels > 0
    pred = seq.frames[1:, moving] + rng.normal(scale=0.01, size=(8, int(moving.sum()), 3))
    gt = seq.frames[1:, moving]
    radii = np.stack([losses.knn_radii(g, 8) for g in gt])
    calls = _gather_rows_calls(
        monkeypatch, lambda: losses.l_mov(dc.parameter(pred.reshape(-1, 3)), gt, radii, k_density=8)
    )
    # the Chamfer rows, then the density term's anchors and neighbours
    assert len(calls) == 3
    for shape, idx in calls:
        _assert_scatter_matches_add_at(shape, idx, rng)

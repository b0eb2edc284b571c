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
    dc.backward(dc.reduce_sum(dc.mul(fused, weights)))
    dc.backward(dc.reduce_sum(dc.mul(chain, weights)))
    for g, w in zip(got, want):
        assert g.grad.shape == w.grad.shape and g.grad.tobytes() == w.grad.tobytes()


def test_pair_relu_linear_masks_again_on_each_backward_call():
    # two backward passes through one node must each mask their own
    # upstream gradient, not reuse the first pass's
    arrays, w1 = _pair_inputs(4, n=5, width=6)
    _, w2 = _pair_inputs(4, n=5, width=6, seed=1)

    def grads(*weights):
        nodes = [dc.parameter(a) for a in arrays]
        out = dc.pair_relu_linear(*nodes)
        for w in weights:
            out.grad = None  # only the parameters sum over both passes
            dc.backward(dc.reduce_sum(dc.mul(out, w)))
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
    # two backward passes through one lstm node must each use their own
    # upstream gradient, not the gate gradients of the first pass
    rng = np.random.default_rng(5)
    x_proj, w_h = rng.normal(size=(1, 12)), rng.normal(size=(3, 12))
    w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

    def grads(*weights):
        nodes = [dc.parameter(x_proj), dc.parameter(w_h)]
        states = dc.lstm(*nodes, 4)
        for w in weights:
            states.grad = None  # only the parameters sum over both passes
            dc.backward(dc.reduce_sum(dc.mul(states, w)))
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
    dc.backward(root)
    ops = [n for n in nodes.values() if n.parents]
    assert len(ops) == 7 and all(n.grad is None for n in ops)
    assert all(n.grad is not None for n in nodes.values() if not n.parents)
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


def test_adam_rejects_non_finite_gradient():
    p = dc.parameter(np.zeros(3))
    opt = dc.Adam({"p": p}, lr=0.01)
    p.grad = np.array([0.0, np.nan, 1.0])
    with pytest.raises(NumericError, match="'p'"):
        opt.step()


@pytest.mark.parametrize("clip", [1.0, None])
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
    for clip in (1.5, None):
        rng = np.random.default_rng(11)
        start = rng.normal(size=(4, 5))
        p = dc.parameter(start.copy())
        opt = dc.Adam({"p": p}, lr=3e-3, betas=(0.8, 0.95), eps=1e-7, max_grad_norm=clip)
        value, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
        for t in range(1, 6):
            g = rng.normal(size=start.shape) * 10.0 ** (t - 3)  # clipped from t = 3 on
            p.grad = g.copy()
            opt.step()
            assert p.grad.tobytes() == g.tobytes()  # a gradient array may be shared: never written
            total = float(np.sqrt(float((g * g).sum())))
            if clip is not None and total > clip:
                g = g * (clip / (total + 1e-12))
            m = 0.8 * m + (1.0 - 0.8) * g
            v = 0.95 * v + (1.0 - 0.95) * (g * g)
            update = (m / (1.0 - 0.8**t)) / (np.sqrt(v / (1.0 - 0.95**t)) + 1e-7)
            value = value - 3e-3 * update
            assert p.value.tobytes() == value.tobytes()


def test_adam_step_magnitude_approaches_lr():
    p = dc.parameter(np.zeros(3))
    opt = dc.Adam({"p": p}, lr=0.01)
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
    opt = dc.Adam({"p": p}, lr=1e-2)
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

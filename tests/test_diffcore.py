import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partmotion import diffcore as dc
from partmotion.errors import ConfigError, DataError, NumericError, ShapeMismatch

from grad_cases import OP_CASES
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


def test_reduce_max_reports_first_winning_index():
    x = dc.constant(np.array([[1.0, 3.0, 3.0], [0.5, 0.1, 0.2]]))
    out, idx = dc.reduce_max_with_index(x, axis=1)
    np.testing.assert_array_equal(idx, [1, 0])
    np.testing.assert_allclose(out.value, [3.0, 0.5])


def test_pairwise_row_distances_symmetric_zero_diagonal():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(20, 6))
    m = dc.pairwise_row_distances(dc.constant(f)).value
    assert np.array_equal(m, m.T)
    np.testing.assert_allclose(np.diag(m), 0.0, atol=0.0)
    brute = np.linalg.norm(f[3] - f[11])
    assert abs(m[3, 11] - brute) < 1e-9


def test_lstm_zero_params_zero_state_gives_zero_output():
    width, xdim = 4, 3
    x = dc.constant(np.ones((1, xdim)))
    w_x = dc.constant(np.zeros((xdim, 4 * width)))
    w_h = dc.constant(np.zeros((width, 4 * width)))
    b = dc.constant(np.zeros(4 * width))
    x_proj = dc.linear(x, w_x, b)
    # the zero state given as None (first step) and as explicit zeros
    h_none, c_none = dc.lstm_cell(x_proj, None, None, w_h)
    zeros = dc.constant(np.zeros((1, width)))
    h_zero, c_zero = dc.lstm_cell(x_proj, zeros, zeros, w_h)
    for h2, c2 in ((h_none, c_none), (h_zero, c_zero)):
        np.testing.assert_allclose(h2.value, 0.0, atol=1e-15)
        np.testing.assert_allclose(c2.value, 0.0, atol=1e-15)


def test_lstm_first_step_matches_explicit_zero_state_bytes():
    rng = np.random.default_rng(3)
    x_proj = dc.constant(rng.normal(size=(1, 16)))
    w_h = dc.constant(rng.normal(size=(4, 16)))
    zeros = dc.constant(np.zeros((1, 4)))
    h_none, c_none = dc.lstm_cell(x_proj, None, None, w_h)
    h_zero, c_zero = dc.lstm_cell(x_proj, zeros, zeros, w_h)
    assert h_none.value.tobytes() == h_zero.value.tobytes()
    assert c_none.value.tobytes() == c_zero.value.tobytes()
    with pytest.raises(ConfigError, match="lstm_cell"):
        dc.lstm_cell(x_proj, zeros, None, w_h)


def test_shared_subgraph_accumulates_gradient():
    x = dc.parameter(np.array([[2.0]]))
    y = dc.add(dc.mul(x, x), dc.scale(x, 3.0))  # x^2 + 3x
    out = dc.reduce_sum(y)
    dc.backward(out)
    np.testing.assert_allclose(x.grad, [[7.0]], atol=1e-12)


def test_shared_gradient_array_is_not_summed_into_in_place():
    # `add` hands one gradient array to both u and v; u later gets a second
    # contribution from p, which must not change v's gradient
    x = dc.parameter(np.array([[1.0, -2.0]]))
    w = np.array([[0.5, 3.0]])
    w2 = np.array([[7.0, -1.0]])
    u, v = dc.scale(x, 2.0), dc.scale(x, 3.0)
    p = dc.mul(u, w2)
    s = dc.add(u, v)
    dc.backward(dc.reduce_sum(dc.add(dc.mul(s, w), p)))
    np.testing.assert_array_equal(v.grad, w)
    np.testing.assert_array_equal(u.grad, w + w2)
    np.testing.assert_array_equal(x.grad, 5.0 * w + 2.0 * w2)


def test_backward_visits_nodes_in_decreasing_creation_order():
    x = dc.parameter(np.ones((2, 2)))
    a = dc.scale(x, 2.0)
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


def test_adam_in_place_update_matches_reference_bytes():
    rng = np.random.default_rng(11)
    start = rng.normal(size=(4, 5))
    p = dc.parameter(start.copy())
    opt = dc.Adam({"p": p}, lr=3e-3, betas=(0.8, 0.95), eps=1e-7, max_grad_norm=1.5)
    value, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    for t in range(1, 6):
        g = rng.normal(size=start.shape) * 10.0 ** (t - 3)  # clipped from t = 3 on
        p.grad = g.copy()
        opt.step()
        assert p.grad.tobytes() == g.tobytes()  # a gradient array may be shared: never written
        total = float(np.sqrt(float((g * g).sum())))
        if total > 1.5:
            g = g * (1.5 / (total + 1e-12))
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
    calls = _gather_rows_calls(
        monkeypatch, lambda: losses.l_mov(dc.parameter(pred.reshape(-1, 3)), gt, k_density=8)
    )
    # the Chamfer rows, then the density term's anchors and neighbours
    assert len(calls) == 3
    for shape, idx in calls:
        _assert_scatter_matches_add_at(shape, idx, rng)

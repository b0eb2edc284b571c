import numpy as np
import pytest

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
    h = dc.constant(np.zeros((1, width)))
    c = dc.constant(np.zeros((1, width)))
    w_x = dc.constant(np.zeros((xdim, 4 * width)))
    w_h = dc.constant(np.zeros((width, 4 * width)))
    b = dc.constant(np.zeros(4 * width))
    h2, c2 = dc.lstm_cell(x, h, c, w_x, w_h, b)
    np.testing.assert_allclose(h2.value, 0.0, atol=1e-15)
    np.testing.assert_allclose(c2.value, 0.0, atol=1e-15)


def test_shared_subgraph_accumulates_gradient():
    x = dc.parameter(np.array([[2.0]]))
    y = dc.add(dc.mul(x, x), dc.scale(x, 3.0))  # x^2 + 3x
    out = dc.reduce_sum(y)
    dc.backward(out)
    np.testing.assert_allclose(x.grad, [[7.0]], atol=1e-12)


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


def test_non_finite_forward_raises_with_op_tag():
    with pytest.raises(NumericError, match="div"):
        dc.div(dc.constant(np.ones(2)), dc.constant(np.array([1.0, 0.0])))


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

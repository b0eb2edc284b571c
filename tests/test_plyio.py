import numpy as np
import pytest

from partmotion.errors import DataError
from partmotion.plyio import read_ply, write_ply


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(50, 3))
    labels = rng.integers(0, 4, size=50)
    path = tmp_path / "cloud.ply"
    write_ply(path, pts, labels)
    back_pts, back_labels = read_ply(path)
    np.testing.assert_array_equal(back_pts, pts)
    np.testing.assert_array_equal(back_labels, labels)


def test_round_trip_bit_exact_over_float64_bit_patterns(tmp_path):
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, np.finfo(np.float64).max, -np.finfo(np.float64).max]
    pts = np.concatenate([special, bits[np.isfinite(bits)]])
    pts = pts[: pts.size // 3 * 3].reshape(-1, 3)
    labels = rng.integers(-(2**62), 2**62, size=pts.shape[0], endpoint=True)
    labels[:2] = [2**62, -(2**62)]
    path = tmp_path / "cloud.ply"
    write_ply(path, pts, labels)
    back_pts, back_labels = read_ply(path)
    assert back_pts.view(np.uint64).tolist() == pts.view(np.uint64).tolist()
    assert back_labels.dtype == np.int64 and back_labels.tolist() == labels.tolist()


def test_round_trip_without_labels(tmp_path):
    pts = np.array([[0.0, 1.0, -2.5], [3.25, -0.125, 9.0]])
    path = tmp_path / "cloud.ply"
    write_ply(path, pts)
    back_pts, back_labels = read_ply(path)
    np.testing.assert_array_equal(back_pts, pts)
    assert back_labels is None


def test_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(20, 3))
    a = tmp_path / "a.ply"
    b = tmp_path / "b.ply"
    write_ply(a, pts)
    write_ply(b, pts.copy())
    assert a.read_bytes() == b.read_bytes()


def test_header_is_ascii_ply(tmp_path):
    path = tmp_path / "c.ply"
    write_ply(path, np.zeros((1, 3)), np.array([2]))
    lines = path.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    assert "property int label" in lines
    assert lines[-1] == "0 0 0 2"


def test_blank_header_line_is_skipped(tmp_path):
    path = tmp_path / "c.ply"
    write_ply(path, np.array([[0.5, -1.0, 2.0], [3.0, 0.0, -0.25]]), np.array([0, 1]))
    plain = read_ply(path)
    path.write_text(path.read_text().replace("element vertex", "\nelement vertex", 1))
    assert "ply\nformat ascii 1.0\n\nelement vertex 2\n" in path.read_text()
    points, labels = read_ply(path)
    np.testing.assert_array_equal(points, plain[0])
    np.testing.assert_array_equal(labels, plain[1])


LABELED = (
    "ply\nformat ascii 1.0\nelement vertex 2\n"
    "property double x\nproperty double y\nproperty double z\nproperty int label\nend_header\n"
)


@pytest.mark.parametrize(
    "text",
    [
        "not a ply",
        "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n",
        "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\nproperty double y\nproperty double z\nend_header\n0 0 0\n",
        # a blank vertex row, a row short of the declared label, and a
        # Python-only underscore spelling in a coordinate and in a label
        LABELED + "0 0 0 1\n\n1 1 1 1\n",
        LABELED + "0 0 0 1\n1 1 1\n",
        LABELED + "0 0 0 1\n1_0 1 1 1\n",
        LABELED + "0 0 0 1\n1 1 1 1_0\n",
    ],
)
def test_malformed_rejected(tmp_path, text):
    path = tmp_path / "bad.ply"
    path.write_text(text)
    with pytest.raises(DataError):
        read_ply(path)


def test_bad_shapes_rejected(tmp_path):
    with pytest.raises(DataError):
        write_ply(tmp_path / "x.ply", np.zeros((3, 2)))
    with pytest.raises(DataError):
        write_ply(tmp_path / "x.ply", np.zeros((3, 3)), np.zeros(2, dtype=int))

import re

import numpy as np
import pytest

from privsvm import (
    Dataset,
    PrivilegedSet,
    load_privileged,
    load_sparse,
    load_weights,
    save_weights,
)

from conftest import save_sparse


def test_dataset_validation():
    with pytest.raises(ValueError, match="labels"):
        Dataset([[0.0]], [0.5])
    with pytest.raises(ValueError, match="instances"):
        Dataset([[0.0], [1.0]], [1.0])
    with pytest.raises(ValueError, match="finite"):
        Dataset([[np.nan]], [1.0])
    data = Dataset([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0])
    assert data.n == 2 and data.d == 2
    with pytest.raises(ValueError):
        data.X[0, 0] = 5.0  # frozen


def test_dataset_subset_takes_rows():
    data = Dataset(np.arange(8.0).reshape(4, 2), [1, -1, 1, -1])
    sub = data.subset([2, 0])
    np.testing.assert_array_equal(sub.X, [[4.0, 5.0], [0.0, 1.0]])
    np.testing.assert_array_equal(sub.y, [1.0, 1.0])


def test_dataset_caches_read_only_sq_norms():
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(40, 3)),
                   np.where(rng.random(40) < 0.5, -1.0, 1.0))
    norms = data.sq_norms
    np.testing.assert_array_equal(norms, np.sum(data.X * data.X, axis=1))
    assert data.sq_norms is norms
    with pytest.raises(ValueError):
        norms[0] = 0.0
    sub = data.subset([5, 0, 17])
    assert not np.shares_memory(sub.sq_norms, norms)
    np.testing.assert_array_equal(sub.sq_norms,
                                  np.sum(sub.X * sub.X, axis=1))


def test_privileged_alignment():
    data = Dataset([[0.0], [1.0]], [1.0, -1.0])
    PrivilegedSet([[1.0], [2.0]]).check_aligned(data)
    with pytest.raises(ValueError, match="rows"):
        PrivilegedSet([[1.0]]).check_aligned(data)


def test_sparse_round_trip(tmp_path):
    path = tmp_path / "d.data"
    X = np.array([[0.0, 2.5], [1.0, 0.0]])
    save_sparse(path, X, [1.0, -1.0])
    data = load_sparse(path)
    np.testing.assert_array_equal(data.X, X)
    np.testing.assert_array_equal(data.y, [1.0, -1.0])


def test_sparse_rejects_bad_labels_and_indices(tmp_path):
    p = tmp_path / "bad.data"
    p.write_text("+2 1:1.0\n")
    with pytest.raises(ValueError, match="not"):
        load_sparse(p)
    p.write_text("+1 0:1.0\n")
    with pytest.raises(ValueError, match="1-based"):
        load_sparse(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_sparse(p)
    # a value, label or index that is not a number names its file and line
    for line in ("+1 1:abc", "x 1:1", "+1 q:1", "+1 1"):
        p.write_text(f"-1 1:0.5\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2: ")):
            load_sparse(p)


def test_weight_files_name_the_bad_line(tmp_path):
    # as in a sparse file, a weight that is not a number names its file
    # and line; blank lines count
    p = tmp_path / "w"
    for line in ("abc", "1 2", "0.5,"):
        p.write_text(f"0.5\n\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:3: ")):
            load_weights(p)


def test_load_privileged_companion(tmp_path):
    data_path = tmp_path / "d.data"
    save_sparse(data_path, [[1.0], [2.0]], [1.0, -1.0])
    priv_path = tmp_path / "d.priv"
    priv_path.write_text("0 1:0.5\n0 1:1.5 2:-3\n")
    data = load_sparse(data_path)
    priv = load_privileged(priv_path, data)
    np.testing.assert_array_equal(priv.X, [[0.5, 0.0], [1.5, -3.0]])
    priv_path.write_text("0 1:0.5\n")
    with pytest.raises(ValueError, match="rows"):
        load_privileged(priv_path, data)


def test_privileged_file_rejects_index_zero(tmp_path):
    data_path = tmp_path / "d.data"
    save_sparse(data_path, [[1.0], [2.0]], [1.0, -1.0])
    data = load_sparse(data_path)
    priv_path = tmp_path / "d.priv"
    for text in ("0 0:5 1:7\n0 1:1\n", "0:5 1:7\n1:1\n"):
        priv_path.write_text(text)
        with pytest.raises(ValueError, match="1-based"):
            load_privileged(priv_path, data)


def test_weight_files(tmp_path):
    p = tmp_path / "w"
    save_weights(p, [0.25, 1.5])
    np.testing.assert_array_equal(load_weights(p, 2), [0.25, 1.5])
    with pytest.raises(ValueError, match="expected 3"):
        load_weights(p, 3)
    p.write_text("-1.0\n")
    with pytest.raises(ValueError, match="nonnegative"):
        load_weights(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_weight_files_reject_non_finite(tmp_path, bad):
    p = tmp_path / "w"
    p.write_text(f"1\n{bad}\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{p}: weights must be finite")):
        load_weights(p)


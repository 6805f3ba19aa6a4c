import numpy as np
import pytest

from privsvm import (
    KernelSpec,
    LINEAR,
    model_to_text,
    record_from_text,
    solve_svmplus,
    solve_wsvm,
)
from privsvm.serialize import SvmPlusRecord, WsvmRecord

from conftest import random_dataset, random_kernel, random_privileged


def test_wsvm_record_round_trip_bit_exact(rng):
    data = random_dataset(rng, 7)
    model = solve_wsvm(data, random_kernel(rng), rng.uniform(0.2, 2.0, 7))
    text = model_to_text(model)
    record = record_from_text(text)
    assert isinstance(record, WsvmRecord)
    assert record.kernel == model.spec
    assert record.b == model.b  # 17 significant digits: exact doubles
    assert record.b_interval == tuple(map(float, model.b_interval))
    idx = np.flatnonzero(model.alpha > 0)
    np.testing.assert_array_equal(record.support_idx, idx)
    np.testing.assert_array_equal(record.support_coef,
                                  model.alpha[idx] * data.y[idx])
    # the text itself is reproducible
    assert record.to_text() == text


def test_svmplus_record_round_trip_bit_exact(rng):
    n = 6
    data = random_dataset(rng, n)
    model = solve_svmplus(data, random_privileged(rng, n), random_kernel(rng),
                          random_kernel(rng), 1.5, 2.0)
    text = model_to_text(model)
    record = record_from_text(text)
    assert isinstance(record, SvmPlusRecord)
    assert record.C == model.C and record.gamma == model.gamma
    assert record.b == model.b and record.b_tilde == model.b_tilde
    tidx = np.flatnonzero(model.alpha_tilde != 0.0)
    np.testing.assert_array_equal(record.alpha_tilde_idx, tidx)
    np.testing.assert_array_equal(record.alpha_tilde_val,
                                  model.alpha_tilde[tidx])
    assert record.to_text() == text


def test_unknown_payloads_rejected():
    with pytest.raises(ValueError, match="tag"):
        record_from_text("mystery-model\nb 0\n")
    with pytest.raises(ValueError, match="empty"):
        record_from_text("")
    with pytest.raises(TypeError, match="serialize"):
        model_to_text(object())


def _wsvm_record_lines(rng):
    data = random_dataset(rng, 7)
    model = solve_wsvm(data, KernelSpec(LINEAR), np.ones(7))
    return model_to_text(model).splitlines()


def test_record_without_support_block_rejected(rng):
    lines = _wsvm_record_lines(rng)
    head = lines.index(next(ln for ln in lines if ln.startswith("support")))
    with pytest.raises(ValueError, match="truncated"):
        record_from_text("\n".join(lines[:head]))


def test_record_with_short_support_block_rejected(rng):
    lines = _wsvm_record_lines(rng)
    assert int(lines[4].split()[1]) >= 1
    with pytest.raises(ValueError, match="truncated"):
        record_from_text("\n".join(lines[:-1]))


def test_record_with_bandwidthless_rbf_kernel_rejected(rng):
    lines = _wsvm_record_lines(rng)
    lines[1] = "kernel gaussian-rbf"
    with pytest.raises(ValueError, match="truncated"):
        record_from_text("\n".join(lines))


def test_record_with_unknown_kernel_rejected(rng):
    # used to load as an RBF kernel with bandwidth 3
    lines = _wsvm_record_lines(rng)
    lines[1] = "kernel poly 3"
    with pytest.raises(ValueError, match="unknown kernel kind 'poly'"):
        record_from_text("\n".join(lines))


def test_record_without_b_line_rejected(rng):
    lines = [ln for ln in _wsvm_record_lines(rng) if not ln.startswith("b ")]
    with pytest.raises(ValueError, match="no b line"):
        record_from_text("\n".join(lines))

"""Plain-text model records.

Decimal fields are printed with 17 significant digits so parsing returns
bit-identical doubles.  Records reference training instances by index;
the data file itself is not embedded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .svmplus import SvmPlusModel
from .wsvm import WsvmModel

__all__ = [
    "WsvmRecord",
    "SvmPlusRecord",
    "model_to_text",
    "record_from_text",
]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class WsvmRecord:
    kernel: KernelSpec
    b: float
    b_interval: tuple[float, float]
    support_idx: np.ndarray    # indices with alpha_i > 0
    support_coef: np.ndarray   # alpha_i * y_i

    TAG = "wsvm-model"

    @staticmethod
    def from_model(model: WsvmModel) -> "WsvmRecord":
        idx = np.flatnonzero(model.alpha > 0)
        return WsvmRecord(
            kernel=model.spec,
            b=float(model.b),
            b_interval=(float(model.b_interval[0]),
                        float(model.b_interval[1])),
            support_idx=idx,
            support_coef=model.alpha[idx] * model.data.y[idx],
        )

    def to_text(self) -> str:
        lines = [
            self.TAG,
            f"kernel {self.kernel.describe()}",
            f"b {_fmt(self.b)}",
            f"b_interval {_fmt(self.b_interval[0])} {_fmt(self.b_interval[1])}",
            f"support {self.support_idx.size}",
        ]
        for i, a in zip(self.support_idx, self.support_coef):
            lines.append(f"{int(i)} {_fmt(a)}")
        return "\n".join(lines) + "\n"


@dataclass
class SvmPlusRecord:
    kernel: KernelSpec
    priv_kernel: KernelSpec
    C: float
    gamma: float
    b: float
    b_tilde: float
    support_idx: np.ndarray
    support_coef: np.ndarray       # alpha_i * y_i
    alpha_tilde_idx: np.ndarray
    alpha_tilde_val: np.ndarray

    TAG = "svmplus-model"

    @staticmethod
    def from_model(model: SvmPlusModel) -> "SvmPlusRecord":
        idx = np.flatnonzero(model.alpha > 0)
        tidx = np.flatnonzero(model.alpha_tilde != 0.0)
        return SvmPlusRecord(
            kernel=model.spec,
            priv_kernel=model.priv_spec,
            C=float(model.C),
            gamma=float(model.gamma),
            b=float(model.b),
            b_tilde=float(model.b_tilde),
            support_idx=idx,
            support_coef=model.alpha[idx] * model.data.y[idx],
            alpha_tilde_idx=tidx,
            alpha_tilde_val=model.alpha_tilde[tidx],
        )

    def to_text(self) -> str:
        lines = [
            self.TAG,
            f"kernel {self.kernel.describe()}",
            f"priv_kernel {self.priv_kernel.describe()}",
            f"C {_fmt(self.C)}",
            f"gamma {_fmt(self.gamma)}",
            f"b {_fmt(self.b)}",
            f"b_tilde {_fmt(self.b_tilde)}",
            f"support {self.support_idx.size}",
        ]
        for i, a in zip(self.support_idx, self.support_coef):
            lines.append(f"{int(i)} {_fmt(a)}")
        lines.append(f"alpha_tilde {self.alpha_tilde_idx.size}")
        for i, a in zip(self.alpha_tilde_idx, self.alpha_tilde_val):
            lines.append(f"{int(i)} {_fmt(a)}")
        return "\n".join(lines) + "\n"


def model_to_text(model) -> str:
    if isinstance(model, WsvmModel):
        return WsvmRecord.from_model(model).to_text()
    if isinstance(model, SvmPlusModel):
        return SvmPlusRecord.from_model(model).to_text()
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _read_block(lines, pos):
    """The pairs under the count line ``lines[pos]``; the next position."""
    count = int(lines[pos].split()[1])
    idx = np.empty(count, dtype=int)
    val = np.empty(count)
    for k in range(count):
        a, b = lines[pos + 1 + k].split()
        idx[k], val[k] = int(a), float(b)
    return idx, val, pos + 1 + count


def record_from_text(text: str):
    """The record ``model_to_text`` wrote; ValueError if it is incomplete."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty model record")
    try:
        return _parse_record(lines)
    except KeyError as exc:
        raise ValueError(f"model record has no {exc.args[0]} line") from None
    except IndexError:
        raise ValueError("truncated model record") from None


def _parse_record(lines):
    kv = {}
    pos = 1
    while pos < len(lines):
        key, _, rest = lines[pos].partition(" ")
        if key in ("support", "alpha_tilde"):
            break
        kv[key] = rest
        pos += 1
    if lines[0] == WsvmRecord.TAG:
        idx, val, pos = _read_block(lines, pos)
        lo, hi = (float(t) for t in kv["b_interval"].split())
        return WsvmRecord(
            kernel=KernelSpec.parse(kv["kernel"]),
            b=float(kv["b"]),
            b_interval=(lo, hi),
            support_idx=idx,
            support_coef=val,
        )
    if lines[0] == SvmPlusRecord.TAG:
        idx, val, pos = _read_block(lines, pos)
        tidx, tval, pos = _read_block(lines, pos)
        return SvmPlusRecord(
            kernel=KernelSpec.parse(kv["kernel"]),
            priv_kernel=KernelSpec.parse(kv["priv_kernel"]),
            C=float(kv["C"]),
            gamma=float(kv["gamma"]),
            b=float(kv["b"]),
            b_tilde=float(kv["b_tilde"]),
            support_idx=idx,
            support_coef=val,
            alpha_tilde_idx=tidx,
            alpha_tilde_val=tval,
        )
    raise ValueError(f"unknown model tag {lines[0]!r}")

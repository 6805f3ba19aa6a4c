"""Plain-text model files.

``model_to_text`` writes a fit's kernels, hyperparameters and offsets, one
per line, then its nonzero duals as ``index value`` lines under a count
line.  Decimal fields are printed with 17 significant digits, so each
reads back as the fit's own double.  Files reference training instances
by index; the data file itself is not embedded.
"""

from __future__ import annotations

import numpy as np

from .svmplus import SvmPlusModel
from .wsvm import WsvmModel

__all__ = ["model_to_text"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _block(name: str, idx: np.ndarray, values: np.ndarray) -> list[str]:
    return [f"{name} {idx.size}"] + [f"{int(i)} {_fmt(v)}"
                                     for i, v in zip(idx, values)]


def model_to_text(model) -> str:
    """A weighted SVM or SVM+ fit as text: the support block holds
    alpha_i y_i of each alpha_i > 0, and an SVM+ fit's alpha_tilde block
    each nonzero alpha_tilde_i."""
    if not isinstance(model, (WsvmModel, SvmPlusModel)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    idx = np.flatnonzero(model.alpha > 0)
    support = _block("support", idx, model.coef[idx])
    if isinstance(model, WsvmModel):
        lo, hi = model.b_interval
        lines = ["wsvm-model", f"kernel {model.spec.describe()}",
                 f"b {_fmt(model.b)}", f"b_interval {_fmt(lo)} {_fmt(hi)}",
                 *support]
    else:
        tidx = np.flatnonzero(model.alpha_tilde != 0.0)
        lines = ["svmplus-model", f"kernel {model.spec.describe()}",
                 f"priv_kernel {model.priv_spec.describe()}",
                 f"C {_fmt(model.C)}", f"gamma {_fmt(model.gamma)}",
                 f"b {_fmt(model.b)}", f"b_tilde {_fmt(model.b_tilde)}",
                 *support,
                 *_block("alpha_tilde", tidx, model.alpha_tilde[tidx])]
    return "\n".join(lines) + "\n"

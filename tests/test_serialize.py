import pytest

from privsvm import model_to_text


def test_unknown_payloads_rejected():
    with pytest.raises(TypeError, match="serialize"):
        model_to_text(object())

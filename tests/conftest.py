import sys

import numpy as np
import pytest

from bellrand import sdp


@pytest.fixture
def failing_gram_factor(monkeypatch):
    """Make the Gram factor of sdp.solve's final projection, the Schur
    complement at W = I built in ``finish``, raise LinAlgError."""
    real = sdp._BlockSchur

    def schur(pre, gfac):
        if sys._getframe(1).f_code.co_name == "finish":
            raise np.linalg.LinAlgError("Gram factor failed")
        return real(pre, gfac)

    monkeypatch.setattr(sdp, "_BlockSchur", schur)

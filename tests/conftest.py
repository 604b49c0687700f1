import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from bellrand import guessprob, sdp, seesaw


@pytest.fixture
def failing_gram_factor(monkeypatch):
    """Make the Gram factor of sdp.solve's final projection, the Schur
    complement at W = I, raise LinAlgError. It is the one built in
    ``solve`` itself; the steps build theirs in ``_step``."""
    real = sdp._BlockSchur

    def schur(pre, gfac):
        if sys._getframe(1).f_code.co_name == "solve":
            raise np.linalg.LinAlgError("Gram factor failed")
        return real(pre, gfac)

    monkeypatch.setattr(sdp, "_BlockSchur", schur)


@pytest.fixture
def failing_seesaw_bound(monkeypatch):
    """Make every bound the see-saw asks for come back numerical_failure,
    so that no start certifies a value."""
    failed = guessprob._guess_report(
        math.nan, "numerical_failure", [math.nan] * len(guessprob.OUTCOME_PAIRS)
    )
    monkeypatch.setattr(seesaw, "guessing_probability", lambda *args: failed)


@pytest.fixture(scope="session")
def checks():
    """perfbench/checks.py, the benchmark's output checks. They are computed
    apart from bellrand: its certificate check tests a Bell expression on
    Born-rule behaviors of complex states measured in all three Bloch
    directions."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def quantum_samples(checks):
    """quantum_samples(mx, my): 100 random quantum behaviors of the scenario,
    drawn once per session, to test certificates on."""

    @functools.cache
    def draw(mx, my):
        rng = np.random.default_rng([mx, my])
        return checks.random_quantum_behaviors(rng, mx, my, 100)

    return draw

"""Shared fixtures: bundled corpus paths and the hypothesis profiles.

The suite's profile is derandomized, so every run sees the same examples.
``HYPOTHESIS_PROFILE=explore`` draws 200 fresh random examples per property
instead, to look past the fixed ones.
"""

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from partialhorn import ladder_theory, load_model

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("explore", settings.get_profile("suite"), derandomize=False, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def corpus() -> Path:
    return REPO / "corpus"


@pytest.fixture(scope="session")
def ladder():
    return ladder_theory()


@pytest.fixture(scope="session")
def ladder_models(corpus, ladder):
    names = ("ladder_M", "ladder_A1", "ladder_A2", "ladder_T", "ladder_free1")
    return {n: load_model(str(corpus / "models" / f"{n}.pm"), ladder) for n in names}

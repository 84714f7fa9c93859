import os

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci (set by the CI workflow) draws five times the
# default number of examples wherever a test does not fix its own count,
# the parser and sum properties among them.  Without it the default holds.
settings.register_profile("ci", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from ixcomplex.concept import parse_concept  # noqa: E402

from helpers import CONCEPTS_DIR  # noqa: E402


@pytest.fixture(scope="session")
def v1_text() -> str:
    return (CONCEPTS_DIR / "v1.concept").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def v2_text() -> str:
    return (CONCEPTS_DIR / "v2.concept").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def v1_concept(v1_text):
    return parse_concept(v1_text)


@pytest.fixture(scope="session")
def v2_concept(v2_text):
    return parse_concept(v2_text)

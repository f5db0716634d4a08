import os
import random

import pytest

DEFAULT_SEED = 20260823


def _seed() -> int:
    return int(os.environ.get("DIFFSYM_SEED", DEFAULT_SEED))


def pytest_report_header(config):
    """The seed of the rng fixture, so that a failing run can be repeated."""
    return f"DIFFSYM_SEED={_seed()}"


@pytest.fixture
def rng():
    """Seeded RNG; override the seed with the DIFFSYM_SEED env var."""
    return random.Random(_seed())

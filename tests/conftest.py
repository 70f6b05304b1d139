"""Shared fixtures: small float64 parameter sets, seeded generators, the
helper thread, and this checkout's package on every subprocess's path."""

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import crosstill
from crosstill import autodiff as ad
from crosstill.rng import stream


@pytest.fixture(autouse=True, scope="session")
def src_on_subprocess_path():
    """Subprocesses that run `python -m crosstill` or import it find the
    package the tests import, installed or not."""
    src = str(Path(crosstill.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def rng():
    return stream(1234, "tests")


@pytest.fixture
def two_threads(monkeypatch):
    """A helper thread for `concurrently` and `backward`, whatever the machine."""
    helper = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(ad, "_HELPER", helper)
    yield helper
    helper.shutdown(wait=False)


def random_f64(rng, *shape):
    return rng.standard_normal(shape).astype(np.float64)

"""Shared fixtures: one ladder model and one chain factory per test session.

Building the cumulative table is the only genuinely slow step, so the model
is session-scoped and pre-extended far enough for every test that uses the
default window grid (L <= 500, a few reverse steps).  Tests that need a
custom RunConfig build their own model from `small_config`.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from zetaladder import hybrid
from zetaladder.config import RunConfig
from zetaladder.ladder import LadderModel
from zetaladder.tower import ChainFactory


@pytest.fixture(scope="session")
def config(tmp_path_factory) -> RunConfig:
    cache_dir = tmp_path_factory.mktemp("zl-cache")
    return RunConfig(cache_dir=str(cache_dir))


@pytest.fixture(scope="session")
def model(config) -> LadderModel:
    m = LadderModel(config)
    # Covers the acceptance windows: base segments up to pi*500 ~ 1571 plus
    # three reverse steps of ~ (1-gamma) t / ln t each.
    m.extend_to(2200.0)
    return m


@pytest.fixture(scope="session")
def factory(model) -> ChainFactory:
    return ChainFactory(model)


@pytest.fixture()
def small_config(tmp_path) -> RunConfig:
    """Cheap per-test config with its own cache dir (for mutation tests)."""
    return RunConfig(cache_dir=str(tmp_path / "cache"))


@pytest.fixture()
def in_process_pool(monkeypatch):
    """A stand-in for ProcessPoolExecutor, patched in: nothing forks.

    Its initializer and every map run in this process (the scan's worker
    state is reset around the test).  The fixture is the class: ``made``
    lists its pools, each with its ``max_workers`` and its ``calls``, one
    (fn, the iterables as lists, keyword arguments) per map.
    """
    class InProcessPool:
        made: list["InProcessPool"] = []

        def __init__(self, max_workers, initializer=None, initargs=()):
            self.max_workers, self.calls = max_workers, []
            self.made.append(self)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(items) for items in iterables]
            self.calls.append((fn, iterables, kwargs))
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(hybrid, "_WORKER_STATE", {})
    return InProcessPool

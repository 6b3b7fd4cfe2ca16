"""Every fabric test must leave no child process behind."""

from __future__ import annotations

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_children():
    yield
    assert multiprocessing.active_children() == []

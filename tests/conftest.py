"""Fixtures that fix the CPU count the worker pool sees, with no cached pool
before or after the test."""

import os

import pytest

from entaccess import _pool


def _cpus(monkeypatch, count: int):
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    _pool._stop()
    yield
    _pool._stop()


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs: the caller and one worker."""
    yield from _cpus(monkeypatch, 2)


@pytest.fixture
def three_cpus(monkeypatch):
    """Three CPUs: the caller and two workers."""
    yield from _cpus(monkeypatch, 3)

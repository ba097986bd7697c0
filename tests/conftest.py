import os

import pytest

from kappalab.graphs import build_ag, build_splitstar


@pytest.fixture(scope="session")
def ag4():
    return build_ag(4)


@pytest.fixture(scope="session")
def ag5():
    return build_ag(5)


@pytest.fixture(scope="session")
def ag6():
    return build_ag(6)


@pytest.fixture(scope="session")
def s4():
    return build_splitstar(4)


@pytest.fixture(scope="session")
def s5():
    return build_splitstar(5)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` lets this process run on n CPUs, as ``taskset`` or a cpuset would."""
    def allow(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return allow

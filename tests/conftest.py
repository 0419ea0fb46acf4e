"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.random import tucker_plus_noise


@pytest.fixture(
    params=[
        "shm",
        pytest.param("tcp", marks=pytest.mark.transport_matrix),
    ]
)
def backend(request) -> str:
    """Transport backend for backend-parameterized mp-layer tests.

    Every test taking this fixture runs once per backend, proving the
    transports interchangeable (bit-identical results, identical
    collective traces).  The tcp cases carry the ``transport_matrix``
    marker so the CI matrix job can select them (``-m
    transport_matrix``); they stay in tier-1 too — kept small — so a
    plain ``pytest`` run covers both wires.
    """
    return request.param


def _run_on(wire, fn, size, *args, config=None, timeout=60.0):
    """Run ``fn`` on ``size`` ranks through ``run_spmd`` over ``wire``
    (``"shm"``/``"p2p"``/``"tcp"``), or through ``launch_spmd`` when
    ``wire`` is ``"launched"`` (spawned subprocess ranks over tcp)."""
    if wire == "launched":
        from repro.distributed.launch import launch_spmd

        return launch_spmd(fn, size, *args, config=config, timeout=timeout)
    from repro.vmpi.mp_comm import run_spmd

    return run_spmd(
        fn, size, *args, transport=wire, config=config, timeout=timeout
    )


@pytest.fixture
def run_on():
    """``run_on(wire, fn, size, *args, config=, timeout=)``: one call
    shape for forked (shm/tcp) and launched runs, so failure-verdict
    tests can assert the same outcome for every launcher."""
    return _run_on


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small3(rng: np.random.Generator) -> np.ndarray:
    """Small random (non-low-rank) 3-way tensor."""
    return rng.standard_normal((6, 5, 4))


@pytest.fixture
def small4(rng: np.random.Generator) -> np.ndarray:
    """Small random 4-way tensor."""
    return rng.standard_normal((5, 4, 3, 6))


@pytest.fixture
def lowrank4() -> np.ndarray:
    """4-way low-multilinear-rank tensor plus mild noise."""
    return tucker_plus_noise((16, 14, 12, 10), (3, 4, 2, 3), noise=1e-5, seed=7)


@pytest.fixture
def lowrank3() -> np.ndarray:
    """3-way low-multilinear-rank tensor plus mild noise."""
    return tucker_plus_noise((20, 18, 16), (4, 3, 5), noise=1e-5, seed=11)

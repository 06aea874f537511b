"""Shared fixtures for the simulation-engine suites.

``kernel_backend`` parameterizes a test over every step-kernel backend
available on this installation (see :mod:`repro.sim.backends`): always
``numpy`` and ``python``, plus ``numba`` when the ``[perf]`` extra is
installed (the CI numba leg).  Threading it through the fingerprint
suites makes every backend inherit the full behavioral contract — bit
identity for the batched agent engine — with zero per-backend test code.
"""

import pytest

from repro.sim.backends import available_backends


@pytest.fixture(params=available_backends())
def kernel_backend(request):
    """Each available step-kernel backend name, one parameterization each."""
    return request.param

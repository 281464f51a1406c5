"""The kernel switches shared by the scan, solver and EMD tests.

``hamming_many_to_many`` runs the C kernel that ``bitvector`` loaded at
import, or the numpy loop when ``bitvector._KERNEL`` is ``None``.  Tests
of the scan put both through the same checks: ``scan_kernel``
parametrizes a test over them, and ``use_kernel`` switches inside one
(a hypothesis draw or a loop), which keeps the name of a test that
predates the kernel.  ``use_rank_kernel`` does the same for the EMD
kernels of ``_emd.c`` (``transport._KERNEL``: the l1 cost block and the
transportation simplex) against their Python / numpy paths.  Where no
kernel is loaded the compiled half is skipped with a reason, never
passed silently.
"""

from contextlib import contextmanager

import pytest

from repro.core import bitvector, transport

KERNELS = ("numpy", "compiled")  # numpy first: a loop runs it before a skip
LOADED = bitvector._KERNEL
NO_KERNEL = "no compiled Hamming kernel loaded on this host (no C compiler, or its build failed)"


RANK_KERNELS = ("python", "compiled")  # python first, as KERNELS
RANK_LOADED = transport._KERNEL
NO_RANK_KERNEL = "no compiled EMD kernel loaded on this host (no C compiler, or its build failed)"


@contextmanager
def _use_kernel(name):
    if name == "compiled" and LOADED is None:
        pytest.skip(NO_KERNEL)
    saved = bitvector._KERNEL
    bitvector._KERNEL = LOADED if name == "compiled" else None
    try:
        yield name
    finally:
        bitvector._KERNEL = saved


@pytest.fixture(scope="session")
def use_kernel():
    """``with use_kernel("numpy" | "compiled"):`` runs the block on that
    kernel.  Session-scoped so hypothesis tests may request it."""
    return _use_kernel


@pytest.fixture(params=KERNELS[::-1])
def scan_kernel(request):
    """The test runs once on the compiled kernel, once on the numpy loop."""
    with _use_kernel(request.param):
        yield request.param


@contextmanager
def _use_rank_kernel(name):
    if name == "compiled" and RANK_LOADED is None:
        pytest.skip(NO_RANK_KERNEL)
    saved = transport._KERNEL
    transport._KERNEL = RANK_LOADED if name == "compiled" else None
    try:
        yield name
    finally:
        transport._KERNEL = saved


@pytest.fixture(scope="session")
def use_rank_kernel():
    """``with use_rank_kernel("python" | "compiled"):`` runs the block on
    those EMD kernels.  Session-scoped so hypothesis tests may request it."""
    return _use_rank_kernel

"""Start-up of the test suite's worker processes.

This module imports nothing but ``os``, so a spawned worker can run
:func:`use_one_blas_thread` as its initializer before anything it unpickles
loads numpy.
"""

import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_one_blas_thread() -> None:
    """Give this process's BLAS one thread; effective only before numpy loads.

    With two workers on two cores, BLAS's default of one thread per core
    would put four busy threads on two cores.
    """
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"

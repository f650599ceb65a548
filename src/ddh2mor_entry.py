"""Console entry point of the ``ddh2mor`` command.

The command runs BLAS on one thread unless the user has chosen a count.
The package's matrices are too small for threads to pay; numpy and scipy
each bundle an OpenBLAS, whose thread pools slow each other down when
their calls interleave; and the thread count changes how results round,
so that reruns are byte-identical only at one count.  OpenBLAS reads the
thread variables once, when it loads, so they are set here, before numpy
is imported.  This module stays outside the package because importing
``ddh2mor`` imports numpy, and a library ``import ddh2mor`` leaves the
environment as it is.
"""

import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    """Pin the BLAS thread count where the user has not set one, then run
    ``ddh2mor.cli.main``."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from ddh2mor.cli import main as cli_main
    return cli_main(argv)

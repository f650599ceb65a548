"""Console entry point of the ``ddh2mor`` command, ``python -m ddh2mor_entry``.

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
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set each BLAS thread variable the environment does not set to 1; it
    takes effect only before numpy is imported."""
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")


def main(argv=None) -> int:
    """Run ``ddh2mor.cli.main`` with the BLAS threads pinned."""
    pin_blas_threads()
    from ddh2mor.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())

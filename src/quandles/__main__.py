"""Entry point of the ``quandles`` command and of ``python -m quandles``.

The package does no floating-point linear algebra (its one matrix product
is on int64 arrays), so OpenBLAS's thread pool, which numpy starts on
import, would only spin.  ``main`` caps it at one thread before numpy
loads, unless the caller has set ``OPENBLAS_NUM_THREADS`` already.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(main())

"""Exact-arithmetic laboratory for closed geodesics on arithmetic quotients
of products of hyperbolic planes: lengths, holonomy angles, class
multiplicities, and their counting and equidistribution statistics."""

import os

# numpy's BLAS only ever sees 4x4 solves and short vectors here. A thread pool
# gains nothing on those, and OpenBLAS starts its workers at import, where they
# spin for about 0.1 s beside the caller. Set before any submodule loads numpy;
# an explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

"""One BLAS thread per process.

The program parallelises across processes (``--jobs``), so each process
runs BLAS on one thread. Left to numpy's default, every process starts
one BLAS thread per CPU: ``jobs`` workers put ``jobs`` × ``nproc``
runnable threads on ``nproc`` CPUs, and the idle helpers spin. PKS's
BLAS operands (the SVD of a profile's dozen standardized metric columns,
k-means distances of the same width) are too narrow for threads to pay
at the capped sizes the figures run.

A BLAS library reads its thread count when numpy first loads it, so this
module must run before numpy is imported: it is the first import of
:mod:`repro` and imports nothing but the interpreter's already loaded
``os`` and ``sys``. A user who sets any of :data:`VARIABLES` keeps all
three as given. A process that imported numpy before :mod:`repro` keeps
the threads numpy started with; :data:`NUMPY_FIRST` records that case.
"""

import os
import sys

#: The thread-count variables of OpenBLAS, OpenMP builds and MKL.
VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: numpy was loaded before this module ran, so the setting came too late
#: for this process's BLAS and for the workers it forks (it still reaches
#: the fresh interpreters it starts).
NUMPY_FIRST = "numpy" in sys.modules

if not any(name in os.environ for name in VARIABLES):
    for name in VARIABLES:
        os.environ[name] = "1"

#: The variables as this module left them (``None``: unset).
THREADS = {name: os.environ.get(name) for name in VARIABLES}

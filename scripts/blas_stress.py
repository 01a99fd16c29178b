"""Run transport substeps with the step worker beside the caller, bit for bit.

Chains N Crank-Nicolson substeps of size n = 256 on one frame as
`evolution_transport` runs them: the step worker factors substep k + 1
(`getrf` and the block inverses of `blocked.prepare`) while the caller
applies substep k to the whole frame with one `blocked.apply_rows`, both
in numpy's one OpenBLAS pool.  Before each apply the same substep is
taken serially on the calling thread, the worker idle, from the same
frame; the frame the transport's calls give must hold its bits.  Each
I + K is I + i H / 16 for a random Hermitian H, so every substep is
unitary.  The interpreter switches threads every microsecond, so that the
two threads trade the interpreter lock often.  Prints one line,

    substeps,size,threads,mismatches,seconds

with the BLAS pool variable it ran under, and exits 1 if any frame
differs from its serial one, else 0.  Unless numpy is loaded already, the
pool is pinned to `--threads` threads (default 1) first.

Example, at one and at two BLAS threads:

    PYTHONPATH=src python3 scripts/blas_stress.py 3000
    PYTHONPATH=src python3 scripts/blas_stress.py 3000 --threads 2
"""

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

SIZE = 256
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def stress(count: int, n: int = SIZE) -> int:
    """The number of the `count` substeps of size n whose frame, applied
    beside the worker's next LU, differs from the serial one."""
    import numpy as np

    from bundlewave import blocked, evolution

    def matrix(k):
        real, imaginary = np.random.default_rng(k).normal(size=(2, n, n))
        h = real + 1j * imaginary
        return np.eye(n) + 0.0625j * (h + h.conj().T)

    rng = np.random.default_rng(count)
    frame = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    out, expected = np.empty_like(frame), np.empty_like(frame)
    mismatches = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as worker:
            upcoming = matrix(0)
            following = worker.submit(evolution._blocked_lu, upcoming.copy())
            for k in range(count):
                current, now = following, upcoming
                current.result()
                blocked.apply_rows(evolution._blocked_lu(now)[1], frame, expected)
                if k + 1 < count:
                    upcoming = matrix(k + 1)
                    following = worker.submit(evolution._blocked_lu, upcoming.copy())
                evolution._blocked_cayley(current, frame, out)
                if not evolution._same_bits(out, expected):
                    mismatches += 1
                frame, expected = expected, frame
    finally:
        sys.setswitchinterval(interval)
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, help="number of substeps")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads, pinned unless numpy is loaded already")
    args = parser.parse_args(argv)
    if "numpy" not in sys.modules:
        for variable in BLAS_VARIABLES:
            os.environ[variable] = str(args.threads)
    start = time.perf_counter()
    mismatches = stress(args.count)
    seconds = time.perf_counter() - start
    print("substeps,size,threads,mismatches,seconds")
    print(f"{args.count},{SIZE},{os.environ.get('OPENBLAS_NUM_THREADS', '')},{mismatches},"
          f"{seconds:.1f}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

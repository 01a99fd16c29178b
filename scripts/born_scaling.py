"""Error of truncated Born kernels as the perturbation strength shrinks.

For a perturbation eps * W the order-k truncation should miss the exact
kernel by O(eps^{k+1}); the printed ratios between successive eps values
approach 2^{k+1}.

Example:

    python3 scripts/born_scaling.py --orders 1 2 --epsilons 0.2 0.1 0.05
"""

import argparse
import sys

import numpy as np

from bundlewave.green import EigenBasis, born_kernel, retarded_kernel
from bundlewave.grid import SpatialGrid1D
from bundlewave.reduction import schrodinger_hamiltonian


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=16)
    parser.add_argument("--length", type=float, default=2.0 * np.pi)
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--profile-amplitude", type=float, default=0.8)
    parser.add_argument("--target-time", type=float, default=0.6)
    parser.add_argument("--orders", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.2, 0.1, 0.05, 0.025])
    parser.add_argument("--quadrature-points", type=int, default=129)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    grid = SpatialGrid1D(args.points, args.length)
    base = schrodinger_hamiltonian(args.mass)
    basis = EigenBasis.from_factory(base, grid)
    h0 = base.at().dense(grid)
    profile = np.diag(args.profile_amplitude * np.cos(grid.points))

    sys.stdout.write("order,epsilon,error,ratio_to_previous\n")
    for order in args.orders:
        previous = None
        for eps in args.epsilons:
            exact = retarded_kernel(
                EigenBasis.from_dense(h0 + eps * profile, grid, 1),
                args.target_time, 0.0,
            )
            approx = born_kernel(
                basis, eps * profile, args.target_time, 0.0,
                order=order, quad_points=args.quadrature_points,
            )
            error = float(np.max(np.abs(approx - exact)))
            ratio = "" if previous is None else f"{previous / error:.3f}"
            sys.stdout.write(f"{order},{eps},{error:.6e},{ratio}\n")
            previous = error
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

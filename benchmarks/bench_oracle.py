"""Benchmark the grid-sweep oracle: wall time and seeds/s per case.

Run with:  python3 benchmarks/bench_oracle.py [--step 0.02] [--repeats 3]

The sweep enumerates every seed vector on a uniform grid and tightens it
to the steepest dominated Lipschitz function, so its cost grows like
G**(k-1) in the grid side length G.
"""

import argparse
import time

import numpy as np

from tropimeas.geometry import random_measure
from tropimeas.kernels import grid_half_width, oracle_sweep
from tropimeas.sampling import random_space


def bench_case(space, mu, nu, n, step, repeats):
    wmu, wnu = mu.weights, nu.weights
    W = max(abs(w) for _, w in mu.atoms + nu.atoms)
    half = W + n * space.diameter
    seeds = (2 * grid_half_width(len(space), half, step) + 1) ** (len(space) - 1)
    value = oracle_sweep(space.dist, n, wmu, wnu, half, step)
    best = min(timed(lambda: oracle_sweep(space.dist, n, wmu, wnu, half, step))
               for _ in range(repeats))
    return seeds, best, value


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--step", type=float, default=0.02)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'points':>6} {'n':>3} {'seeds':>10} {'seconds':>10} {'seeds/s':>12} {'value':>10}")
    for k in (2, 3, 4):
        space = random_space(rng, k)
        mu = random_measure(space, rng, min_weight=-1.0)
        nu = random_measure(space, rng, min_weight=-1.0)
        for n in (1, 2):
            seeds, seconds, value = bench_case(space, mu, nu, n, args.step, args.repeats)
            print(f"{k:>6} {n:>3} {seeds:>10} {seconds:>10.4f} "
                  f"{seeds / seconds:>12.3e} {value:>10.4f}")


if __name__ == "__main__":
    main()

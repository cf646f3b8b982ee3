"""The reference computation: a fixed piece of work whose time measures how
fast the host is at the moment, independent of the cfslab commit measured.

Usage: python3 bench/reference.py

Prints "ready" once numpy is loaded, waits for a line on stdin (so that
several copies can start together), runs ROUNDS rounds of the operations
the program spends its time in, made with numpy alone (one Philox generator
per row, normal draws, a cumulative sum and a sup-norm pass, a small matrix
product and an interpreter loop), and prints the wall and CPU time of those
rounds in seconds.
"""
import sys
import time

import numpy as np

ROUNDS = 18
ROWS = 100
STEPS = 2048


def main() -> int:
    a = np.random.default_rng(0).standard_normal((256, 256))
    print("ready", flush=True)
    sys.stdin.readline()
    t0, c0 = time.perf_counter(), time.process_time()
    for r in range(ROUNDS):
        x = np.cumsum(np.vstack([
            np.random.Generator(np.random.Philox(key=[r, i]))
            .standard_normal(STEPS) for i in range(ROWS)]), axis=1)
        np.abs(x - x.mean(axis=0)).max(axis=1)
        acc = 0
        for i in range(10000):
            acc += i * i
        b = a
        for _ in range(3):
            b = np.tanh(b @ a / 256.0)
    print(time.perf_counter() - t0, time.process_time() - c0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Discover a randomized self-reduction for the sigmoid, then use it to
self-correct a program that errs on a random sliver of its inputs.

Discovery runs against a 30-term Taylor approximation of sigmoid and only
ever sees black-box evaluations at correlated points x+r, x-r, r, x.  It
still recovers the exact cubic identity

    2 f(x) f(x+r) f(r) - f(x) f(x+r) - f(x) f(r) - f(x+r) f(r) + f(x+r) = 0

whose solved form computes sigmoid(x) from sigmoid(x+r) and sigmoid(r)
alone.  A program that is wrong on a few percent of inputs can then be
corrected: evaluate the recovery at several random r and take the median.
Each repetition queries the program at fresh random points, so with high
probability most repetitions avoid the faulty sliver entirely.
"""

import math

import numpy as np

from rsrforge import InferConfig, infer, taylor_program
from rsrforge.expr import Env, evaluate
from rsrforge.parser import format_expr
from rsrforge.queries import queries_by_name

program = taylor_program("sigmoid", 30, box=(-4.0, 4.0))

print("Running discovery on 100 correlated samples from the box [-4, 4] ...")
queries = tuple(queries_by_name(["x+r", "x-r", "r", "x"]))
cfg = InferConfig(queries=queries, max_degree=3, m=100, seed=7)
properties, mean_errors, complexities, error = infer(program, cfg)

recoverable = [p for p in properties.values() if p.recovery is not None]
print(f"Found {len(properties)} identity classes, "
      f"{len(recoverable)} with a closed recovery form.\n")

headline = min(recoverable, key=lambda p: len(p.pairs))
print("Sparsest recoverable identity:")
print("   ", headline.identity_string())
print("    recovery: f(x) =", format_expr(headline.recovery))
print("    needs only the queries:", [q.name for q in headline.queries_used])
print(f"    held-out residual {headline.test_residual:.2e}, "
      f"stabilized after {headline.sample_complexity} samples")


# A buggy sigmoid: correct except on a pseudo-random 5% of inputs, where
# it returns garbage.  The fault pattern is deterministic in the input,
# the situation a self-corrector is designed for.
def buggy_sigmoid(x: float) -> float:
    if (hash(round(x * 1e9)) % 100) < 5:
        return 0.123456789
    return 1.0 / (1.0 + math.exp(-x))


def corrected_sigmoid(x: float, repetitions=11, seed=0) -> float:
    rng = np.random.default_rng(seed)
    estimates = []
    for _ in range(repetitions):
        r = float(rng.uniform(-4.0, 4.0))
        env = Env({"x": x, "r": r}, {"f": buggy_sigmoid})
        estimates.append(evaluate(headline.recovery, env))
    return float(np.median(estimates))


print("\nSelf-correction of a program faulty on ~5% of inputs:")
rng = np.random.default_rng(42)
worst_direct = worst_corrected = 0.0
for x in rng.uniform(-6.0, 6.0, size=400):
    exact = 1.0 / (1.0 + math.exp(-x))
    worst_direct = max(worst_direct, abs(buggy_sigmoid(x) - exact))
    worst_corrected = max(worst_corrected, abs(corrected_sigmoid(x) - exact))
print(f"    worst direct error over 400 inputs  : {worst_direct:.3f}")
print(f"    worst corrected error (median of 11): {worst_corrected:.2e}")

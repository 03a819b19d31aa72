"""Online routing time against the number of feature columns.

The perfbench workloads all have 8 columns and disc_k = 25, so their
discriminators run with the weights as state. This study routes queries
one at a time through cpc_predict on two-regime data with more columns
than k too, where the state is the k + 1 coefficients of the neighbours'
span, and prints the median wall time of the routing loop per width.

Usage:
    python scripts/wide_route.py --dims 8 32 256 784 --queries 100 --repeats 3
"""

import argparse
import time

import numpy as np

from cpckit import dataset
from cpckit.classifiers import ClassifierSpec, SoftmaxParams
from cpckit.cpc import CpcConfig, cpc_predict, train_cpc


def route_seconds(d: int, n_queries: int, repeats: int, seed: int) -> tuple[float, int]:
    """Median seconds to route 2 * n_queries fresh queries, and how many were mixed."""
    train = dataset.generate_two_regime(200, 200, 4, d, 6.0, 0.8, seed=seed)
    queries = dataset.generate_two_regime(n_queries, n_queries, 4, d, 6.0, 0.8,
                                          seed=seed + 1).features
    cfg = CpcConfig(base_spec=ClassifierSpec("softmax", SoftmaxParams(epochs=30, seed=seed)),
                    expert_spec=ClassifierSpec("softmax", SoftmaxParams(seed=seed)), seed=seed)
    model = train_cpc(train, cfg)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        routed = [cpc_predict(model, q) for q in queries]
        times.append(time.perf_counter() - t0)
    mixed = sum(np.isfinite(r.discriminator_margin) for r in routed)
    return float(np.median(times)), int(mixed)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, nargs="+", default=[8, 32, 256, 784])
    ap.add_argument("--queries", type=int, default=100, help="per regime")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    for d in args.dims:
        wall, mixed = route_seconds(d, args.queries, args.repeats, args.seed)
        print(f"d={d} queries={2 * args.queries} mixed={mixed} wall_s={wall:.3f}")


if __name__ == "__main__":
    main()

"""Function draws from the deep-kernel Gaussian prior over 1D inputs.

A depth-10 ReLU kernel with (sw2, sb2) = (1.8, 0.01) is evaluated over a
grid of scalar inputs (closed-form recursion, since the grid has unequal
norms) and sampled via Cholesky. The empirical per-point variance of the
draws is checked against the kernel diagonal.

Writes prior_draws.csv with one column per draw.
"""

import numpy as np

from nngp import NetworkHyperparams, full_kernel, sample_prior

hp = NetworkHyperparams(depth=10, sigma_w2=1.8, sigma_b2=0.01, phi="relu")
grid = np.linspace(-1.0, 1.0, 201)

n_show = 8
draws = sample_prior(grid, hp, None, n_draws=10_000, seed=7)
k = full_kernel(grid, hp, None)
dev = np.abs(draws.var(axis=0) - np.diag(k)) / np.diag(k)
print(f"drew {draws.shape[0]} functions on {grid.size} points")
print(f"max relative gap between draw variance and kernel diagonal: {dev.max():.3f}")

np.savetxt("prior_draws.csv",
           np.column_stack([grid, draws[:n_show].T]), delimiter=",",
           header="x," + ",".join(f"draw_{i}" for i in range(n_show)), comments="")
print("wrote prior_draws.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for i in range(n_show):
        ax.plot(grid, draws[i], linewidth=1.0)
    ax.set_xlabel("x")
    ax.set_ylabel("z(x)")
    ax.set_title("draws from the depth-10 ReLU kernel prior")
    fig.tight_layout()
    fig.savefig("prior_draws.png", dpi=120)
    print("wrote prior_draws.png")
except ImportError:
    pass

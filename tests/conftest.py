import os
from pathlib import Path

# cache heavy lookup tables next to the repo so repeated runs are fast
_REPO = Path(__file__).resolve().parent.parent
os.environ.setdefault("NNGP_CACHE_DIR", str(_REPO / ".cache" / "nngp"))

import numpy as np
import pytest

from nngp import (
    NetworkHyperparams,
    RunConfig,
    build_dataset,
    build_grid,
    build_kernel_matrix,
    find_mnist,
    full_kernel,
    load_or_build,
    populate,
    preprocess,
    sample_empirical_kernel,
    synthetic_blobs,
)


@pytest.fixture(scope="session")
def relu_table():
    """Default-grid ReLU table (501/501/500, s_max=100); disk-cached."""
    return load_or_build("relu")


@pytest.fixture(scope="session")
def tanh_table():
    return load_or_build("tanh")


@pytest.fixture(scope="session")
def small_relu_table():
    """Coarse but tail-safe grid for cheap tests (u_max = 4 sqrt(s_max))."""
    return populate(build_grid(201, 81, 100, 16.0, 16.0), "relu")


@pytest.fixture(scope="session")
def small_tanh_table():
    return populate(build_grid(201, 81, 100, 16.0, 16.0), "tanh")


def constant_norm_points(n, d_in, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d_in))
    return x * np.sqrt(d_in / np.einsum("ij,ij->i", x, x))[:, None]


@pytest.fixture(scope="session")
def blob_dataset():
    """Balanced 10-class synthetic dataset through the real preprocess."""
    x, y = synthetic_blobs(n=1600, d_in=20, n_classes=10, separation=1.2, seed=11)
    return preprocess(x, y, d_out=10, split_sizes=(800, 400, 400), seed=3)


MC_HP = NetworkHyperparams(depth=3, sigma_w2=1.5, sigma_b2=0.1, phi="tanh")
MC_WIDTHS = (64, 256, 1024)
MC_SEEDS = (0, 1, 2)
MC_NETWORKS = 100_000
# averaging the product over output components (all i.i.d.) suppresses the
# output-draw noise so the width effect is resolvable at M = 1e5
MC_UNITS = 256


@pytest.fixture(scope="session")
def mc_points():
    return constant_norm_points(5, 16, seed=20)


@pytest.fixture(scope="session")
def mc_kernel(mc_points, tanh_table):
    """Lookup-pipeline K^3 for the Monte-Carlo comparison points."""
    return build_kernel_matrix(mc_points, MC_HP, tanh_table).kdd


@pytest.fixture(scope="session")
def mc_kernel_exact(mc_points):
    """K^3 by pairwise direct quadrature, free of interpolation error."""
    return full_kernel(mc_points, MC_HP, None)


@pytest.fixture(scope="session")
def mc_samples(mc_points):
    """Finite-width empirical kernels for all (width, seed) combinations."""
    out = {}
    for width in MC_WIDTHS:
        for seed in MC_SEEDS:
            out[width, seed] = sample_empirical_kernel(
                mc_points, MC_HP, (width,) * MC_HP.depth, MC_NETWORKS, seed,
                average_units=MC_UNITS,
            )
    return out


@pytest.fixture(scope="session")
def mnist_dataset():
    """Pooled 70k MNIST with the 50k/10k/10k seeded split, or skip."""
    paths = find_mnist()
    if paths is None:
        pytest.skip(
            "MNIST IDX files not found: set NNGP_DATA_DIR to a directory with "
            "train-images-idx3-ubyte, train-labels-idx1-ubyte, "
            "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (optionally .gz)"
        )
    return build_dataset(RunConfig(dataset_format="mnist", dataset_paths=paths, seed=7))

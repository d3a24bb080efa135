"""Predictive variance tracks realized error when the model is well specified.

Targets are drawn from the kernel's own prior (plus observation noise), a
posterior is computed from a training subset, and test points are binned by
predictive variance. Within each bin the mean realized squared error should
line up with the mean predicted variance. With real MNIST under
NNGP_DATA_DIR this script also reproduces the depth-3 ReLU calibration at
(sw2, sb2) = (2.0, 0.2).

Writes calibration_synthetic.csv (and calibration_mnist.csv when data is
available).
"""

import numpy as np

from nngp import (
    NetworkHyperparams,
    RunConfig,
    build_dataset,
    build_kernel_matrix,
    calibration_bins,
    find_mnist,
    load_or_build,
    posterior,
    sample_prior,
)

table = load_or_build("tanh")
hp = NetworkHyperparams(depth=2, sigma_w2=1.6, sigma_b2=0.2, phi="tanh", noise=1e-4)

rng = np.random.default_rng(12)
x = rng.standard_normal((1500, 8))
x *= np.sqrt(8.0 / np.einsum("ij,ij->i", x, x))[:, None]
n_train = 400

draws = sample_prior(x, hp, table, n_draws=10, seed=13)
targets = (draws + rng.standard_normal(draws.shape) * np.sqrt(hp.noise)).T

kern = build_kernel_matrix(x[:n_train], hp, table, x[n_train:])
pred = posterior(kern, targets[:n_train], hp)
bins = calibration_bins(pred, targets[n_train:], bin_size=100)
predicted = np.array([b[0] for b in bins])
realized = np.array([b[1] for b in bins])
r = np.corrcoef(predicted, realized)[0, 1]
print(f"synthetic well-specified GP: {len(bins)} bins, Pearson r = {r:.3f}")
np.savetxt("calibration_synthetic.csv", np.column_stack([predicted, realized]),
           delimiter=",", header="predicted,realized", comments="")
print("wrote calibration_synthetic.csv")

paths = find_mnist()
if paths is None:
    print("MNIST not found (set NNGP_DATA_DIR); skipping the MNIST panel")
else:
    ds = build_dataset(RunConfig(dataset_format="mnist", dataset_paths=paths, seed=7,
                                 n_train=1000))
    hp_m = NetworkHyperparams(depth=3, sigma_w2=2.0, sigma_b2=0.2, phi="relu")
    k = build_kernel_matrix(ds.train_inputs, hp_m, load_or_build("relu"),
                            ds.test_inputs)
    pred_m = posterior(k, ds.train_targets, hp_m)
    bins_m = calibration_bins(pred_m, ds.test_targets, bin_size=100)
    pm = np.array([b[0] for b in bins_m])
    rm = np.array([b[1] for b in bins_m])
    print(f"MNIST:1k depth-3 relu: Pearson r = {np.corrcoef(pm, rm)[0, 1]:.3f}")
    np.savetxt("calibration_mnist.csv", np.column_stack([pm, rm]),
               delimiter=",", header="predicted,realized", comments="")
    print("wrote calibration_mnist.csv")

"""Gaussian processes equivalent to infinitely wide deep networks.

The pieces, bottom up: :mod:`nngp.lookup` precomputes the two-point Gaussian
expectation of a nonlinearity on a (variance, correlation) grid;
:mod:`nngp.kernel` composes it into the deep-network kernel;
:mod:`nngp.regression` does exact Bayesian prediction from that kernel;
:mod:`nngp.phase` analyzes the recurrence's fixed points and critical line;
:mod:`nngp.finite_width` validates the infinite-width limit by Monte Carlo;
:mod:`nngp.data` and :mod:`nngp.experiment` handle datasets and end-to-end
runs. See demos/ for worked examples of each capability.
"""

from .activations import Activation
from .data import (
    DataFormatError,
    load_cifar10_binary,
    load_csv,
    load_mnist_idx,
    preprocess,
    synthetic_blobs,
)
from .experiment import RunConfig, build_dataset, find_mnist, run_experiment
from .finite_width import gaussianity_check, sample_empirical_kernel
from .kernel import (
    KernelMatrix,
    NetworkHyperparams,
    analytic_relu_step,
    angular_profile,
    build_kernel_matrix,
    full_kernel,
    iter_kernel_layers,
)
from .lookup import (
    GridParameterError,
    NonFiniteActivationError,
    TableRangeError,
    build_grid,
    default_grid,
    expectation_direct,
    interpolate,
    load_or_build,
    load_table,
    populate,
    save_table,
)
from .phase import (
    chi1_at,
    correlation_fixed_point,
    critical_line,
    diagnose,
    heatmap_sweep,
    variance_fixed_point,
    variance_grid,
)
from .regression import (
    FactorizationError,
    PosteriorPrediction,
    calibration_bins,
    evaluate,
    posterior,
    sample_prior,
)

__version__ = "0.1.0"

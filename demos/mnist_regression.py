"""Exact Bayesian classification-as-regression on MNIST (or a stand-in).

With the four MNIST IDX files under NNGP_DATA_DIR this reproduces two
benchmark rows at desk scale:

    100 training digits,  tanh, depth 100, (sw2, sb2) = (3.14, 0.97)
    1000 training digits, relu, depth 20,  (sw2, sb2) = (1.45, 0.28)

Without the data it runs the same pipeline on synthetic 10-class blobs so
the mechanics are still demonstrated end to end. Each row is one
``run_experiment`` call, the pipeline behind ``nngp run``.
"""

from nngp import RunConfig, find_mnist, run_experiment


def run_row(config, label):
    report = run_experiment(config)
    print(f"{label}: accuracy {report['accuracy']:.4f}  mse {report['mse']:.5f}  "
          f"noise used {report['noise_used']:g}")


paths = find_mnist()
if paths is not None:
    # the 70k digits pooled and split 50k/10k/10k by seed 7, then the first n_train
    mnist = dict(dataset_format="mnist", dataset_paths=paths, seed=7)
    run_row(RunConfig(**mnist, n_train=100, depth=100, sigma_w2=3.14, sigma_b2=0.97,
                      phi="tanh"), "MNIST:100 tanh depth-100 (expect ~0.774)")
    run_row(RunConfig(**mnist, n_train=1000, depth=20, sigma_w2=1.45, sigma_b2=0.28,
                      phi="relu"), "MNIST:1k relu depth-20 (expect ~0.928)")
else:
    print("MNIST IDX files not found (set NNGP_DATA_DIR); using synthetic blobs")
    blobs = {"n": 2000, "d_in": 30, "separation": 1.0, "seed": 1,
             "n_valid": 500, "n_test": 500}
    run_row(RunConfig(dataset_format="synthetic", synthetic=blobs, seed=7, depth=3,
                      sigma_w2=1.5, sigma_b2=0.2, phi="tanh"), "blobs:1k tanh depth-3")

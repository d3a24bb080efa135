"""The kernel, the posterior and the sweep run every matrix product on scipy's BLAS.

numpy and scipy each bundle their own OpenBLAS with its own thread pool. A
kernel Gram formed by numpy's ``@`` and a posterior factored by scipy wake
both pools in one operation, and on two cores their spinning threads slow
each other down. A sweep (in ``phase``) runs its cells' kernels and posteriors
back to back, so it and the phase maps keep the same rule. These checks read
the source, so they hold whatever the
thread count of the machine running them.
"""

import ast
import inspect

import pytest

from nngp import kernel, phase, regression

_PRODUCTS = {"dot", "vdot", "matmul", "inner", "tensordot"}
_ALLOWED_LINALG = {"LinAlgError"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def numpy_blas_uses(source: str) -> list[str]:
    """Each `@`, numpy product call or np.linalg use in source, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{where}: @ operator")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _PRODUCTS):
            # np.dot(a, b) and the method a.dot(b) alike
            found.append(f"{where}: call to {_dotted(node.func)}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if (_dotted(node.value) in ("np.linalg", "numpy.linalg")
                    and node.attr not in _ALLOWED_LINALG):
                found.append(f"{where}: {_dotted(node)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if node.module == "numpy.linalg" or alias.name in _PRODUCTS:
                    found.append(f"{where}: from {node.module} import {alias.name}")
    return found


@pytest.mark.parametrize("module", [kernel, regression, phase], ids=lambda m: m.__name__)
def test_no_numpy_blas_in_kernel_or_posterior(module):
    assert numpy_blas_uses(inspect.getsource(module)) == []


@pytest.mark.parametrize("snippet", [
    "g = x_all @ x_train.T",
    "a @= b",
    "k = np.dot(x, x.T)",
    "k = numpy.matmul(x, y)",
    "k = np.inner(x, y)",
    "k = np.tensordot(x, y, 1)",
    "k = x.dot(y)",
    "l = np.linalg.cholesky(a)",
    "s = np.linalg.solve",
    "from numpy.linalg import cholesky",
])
def test_rule_catches_each_numpy_product(snippet):
    assert len(numpy_blas_uses(snippet)) == 1


def test_rule_allows_scipy_and_the_linalg_error():
    source = (
        "try:\n"
        "    c = dgemm(1.0, a, b, trans_b=True)\n"
        "    w = solve_triangular(c, b, lower=True)\n"
        "    n = np.einsum('ij,ij->j', w, w)\n"
        "except np.linalg.LinAlgError:\n"
        "    pass\n"
    )
    assert numpy_blas_uses(source) == []

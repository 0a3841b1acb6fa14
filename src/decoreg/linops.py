"""Dense linear-operator algebra: applications, adjoints, subspaces, kernel
and image bases and the injectivity constants used by the recovery
guarantees.

Everything is a plain double-precision matrix.  All rank decisions go through
a single SVD cutoff (``RANK_RTOL``) so that the constants entering the
stability bounds are reproducible.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "RANK_RTOL",
    "numerical_rank",
    "LinearOperator",
    "Subspace",
    "identity",
    "kernel_basis",
    "image_basis",
    "restricted_injectivity_constant",
    "power_iteration_norm",
    "read_operator_csv",
    "write_operator_csv",
]

# Singular values at or below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10


def numerical_rank(s: np.ndarray, tol: float = RANK_RTOL) -> int:
    """Number of singular values above ``tol`` times the largest; ``s`` is in
    descending order, as ``np.linalg.svd`` returns it.  No singular values,
    or a largest one of zero, give rank zero."""
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > tol * smax)) if smax > 0 else 0


def _vector(x, n: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise ValueError(f"{what}: expected a vector of length {n}, got {x.shape[0]}")
    return x


class LinearOperator:
    """Dense linear map from R^cols to R^rows with an exact adjoint."""

    def __init__(self, entries: np.ndarray):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"operator entries must be a matrix, got ndim={a.ndim}")
        self.entries = a

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def T(self) -> "LinearOperator":
        """The adjoint as an operator in its own right."""
        return LinearOperator(self.entries.T)

    def apply(self, x) -> np.ndarray:
        x = _vector(x, self.cols, "apply")
        return self.entries @ x

    def adjoint_apply(self, y) -> np.ndarray:
        y = _vector(y, self.rows, "adjoint_apply")
        return self.entries.T @ y


def identity(n: int) -> LinearOperator:
    return LinearOperator(np.eye(n))


class Subspace:
    """Subspace of R^ambient_dim carried by an orthonormal basis.

    ``basis`` is an (ambient_dim, dim) matrix with orthonormal columns; zero
    columns denote the trivial subspace {0}.
    """

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        self.ambient_dim = ambient_dim
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis must be ({self.ambient_dim}, k), got shape {b.shape}"
            )
        # np.allclose(gram, eye, atol=1e-12) without its per-call overhead
        eye = np.eye(b.shape[1])
        if not np.all(np.abs(b.T @ b - eye) <= 1e-12 + 1e-5 * eye):
            raise ValueError("basis columns are not orthonormal")
        self.basis = b

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x) -> np.ndarray:
        x = _vector(x, self.ambient_dim, "project")
        return self.basis @ (self.basis.T @ x)

    def projector_matrix(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def complement(self) -> "Subspace":
        """Orthogonal complement within the ambient space."""
        n, k = self.ambient_dim, self.dim
        if k == 0:
            return Subspace(n, np.eye(n))
        if k == n:
            return Subspace(n, np.zeros((n, 0)))
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(n, u[:, k:])

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0)))

    @classmethod
    def from_coordinates(cls, n: int, indices) -> "Subspace":
        idx = sorted(set(int(i) for i in indices))
        if idx and (idx[0] < 0 or idx[-1] >= n):
            raise ValueError(f"coordinate indices out of range for dimension {n}")
        return cls(n, np.eye(n)[:, idx])


def kernel_basis(op: LinearOperator) -> Subspace:
    """Orthonormal basis of the null space.

    Right singular vectors whose singular value is at or below
    ``RANK_RTOL * sigma_max`` span the kernel; the zero operator has a full
    kernel.
    """
    n = op.cols
    if n == 0:
        return Subspace.zero(0)
    _, s, vt = np.linalg.svd(op.entries, full_matrices=True)
    return Subspace(n, vt[numerical_rank(s):, :].T)


def image_basis(op: LinearOperator) -> Subspace:
    """Orthonormal basis of the range."""
    m = op.rows
    if op.cols == 0 or m == 0:
        return Subspace.zero(m)
    u, s, _ = np.linalg.svd(op.entries, full_matrices=False)
    return Subspace(m, u[:, :numerical_rank(s)])


def restricted_injectivity_constant(phi: LinearOperator, sub: Subspace) -> float:
    """Smallest singular value of phi restricted to the subspace.

    A positive value certifies that phi is injective on the subspace; zero
    signals the restricted injectivity condition fails, also when the
    restriction is rank deficient under ``RANK_RTOL``.  The trivial subspace
    returns +inf: injectivity is vacuous there, and the constants that
    divide by it read 1 / inf = 0.
    """
    if sub.ambient_dim != phi.cols:
        raise ValueError(
            f"subspace lives in R^{sub.ambient_dim}, operator domain is R^{phi.cols}"
        )
    k = sub.dim
    if k == 0:
        return float("inf")
    s = np.linalg.svd(phi.entries @ sub.basis, compute_uv=False)
    return float(s[-1]) if numerical_rank(s) == k else 0.0


def power_iteration_norm(a: np.ndarray, rtol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest singular value of a matrix by power iteration on a^T a.

    Deterministic start; stops when the relative change of the estimate drops
    below ``rtol``.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    n = a.shape[1]
    # fixed, generic start vector
    v = 1.0 + 0.01 * np.sin(np.arange(1, n + 1, dtype=float))
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iter):
        w = a.T @ (a @ v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_est = float(np.sqrt(nw))
        if abs(new_est - est) <= rtol * max(new_est, 1e-300):
            return new_est
        est = new_est
    return est


def write_operator_csv(op: LinearOperator, path) -> None:
    """Serialize: header line ``rows,cols`` then one matrix row per line."""
    lines = [f"{op.rows},{op.cols}"]
    for row in op.entries:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_operator_csv(path) -> LinearOperator:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty operator file")
    head = text[0].split(",")
    if len(head) != 2:
        raise ValueError(f"{path}: header must be 'rows,cols'")
    rows, cols = int(head[0]), int(head[1])
    if len(text) - 1 != rows:
        raise ValueError(f"{path}: expected {rows} matrix rows, got {len(text) - 1}")
    entries = np.zeros((rows, cols))
    for i, line in enumerate(text[1:]):
        vals = [float(v) for v in line.split(",")]
        if len(vals) != cols:
            raise ValueError(f"{path}: row {i} has {len(vals)} entries, expected {cols}")
        entries[i] = vals
    if not np.isfinite(entries).all():
        raise ValueError(f"{path}: entries must be finite")
    return LinearOperator(entries)

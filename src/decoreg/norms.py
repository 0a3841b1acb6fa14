"""Decomposable norms and their model structure.

Three instances are implemented: the l1 norm, the group l1-l2 norm over a
fixed partition, and the nuclear norm of a column-major vectorized matrix.
Each norm comes with its dual norm, proximity operator, ball projections, a
canonical model decomposition (the pair (T, e) describing its subdifferential)
and the Bregman distance.

The subdifferential at u is { alpha : P_T alpha = e, dual_norm(P_{T^perp}
alpha) <= 1 } where T is the model subspace and e in T the attained
subgradient direction.  For the three norms here that pair is canonical:
support and sign pattern for l1, active blocks and normalized block
directions for the group norm, singular spaces and U V^T for the nuclear
norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linops import Subspace

__all__ = [
    "ACTIVE_RTOL",
    "DecomposableNorm",
    "DecompositionModel",
    "Membership",
    "l1",
    "group",
    "nuclear",
    "norm_from_config",
    "norm_value",
    "dual_norm_value",
    "prox",
    "project_dual_ball",
    "project_primal_ball",
    "norm_subgradient",
    "decompose_at",
    "subdiff_membership",
    "coercivity_constant",
    "bregman",
    "is_separable",
    "separable_split",
    "with_separable_partition",
]

# Relative threshold deciding which coordinates / blocks / singular values
# count as active when reading the model off a numerical vector.
ACTIVE_RTOL = 1e-8


@dataclass(frozen=True)
class DecomposableNorm:
    """One of the supported decomposable norms on R^ambient_dim.

    kind is "l1", "group" or "nuclear".  Group norms carry a partition of
    0..ambient_dim-1 into disjoint blocks; nuclear norms carry the matrix
    shape (nrows, ncols) with nrows * ncols = ambient_dim and column-major
    vectorization.
    """

    kind: str
    ambient_dim: int
    blocks: tuple[tuple[int, ...], ...] | None = None
    shape: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ("l1", "group", "nuclear"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.ambient_dim <= 0:
            raise ValueError("ambient_dim must be positive")
        if self.kind == "group":
            if not self.blocks:
                raise ValueError("group norm needs a block partition")
            seen: set[int] = set()
            for b in self.blocks:
                if not b:
                    raise ValueError("empty block in partition")
                if seen.intersection(b):
                    raise ValueError("blocks are not disjoint")
                seen.update(b)
            if seen != set(range(self.ambient_dim)):
                raise ValueError(
                    f"blocks must cover 0..{self.ambient_dim - 1} exactly"
                )
            # block layout for column-wise block norms: coordinates in block
            # order, the start of each block in that order, and each
            # coordinate's block index
            order = np.concatenate([np.asarray(b, dtype=np.intp) for b in self.blocks])
            sizes = np.array([len(b) for b in self.blocks], dtype=np.intp)
            block_of = np.empty(self.ambient_dim, dtype=np.intp)
            block_of[order] = np.repeat(np.arange(len(self.blocks)), sizes)
            object.__setattr__(self, "_block_order", order)
            object.__setattr__(self, "_block_starts", np.cumsum(sizes) - sizes)
            object.__setattr__(self, "_block_of", block_of)
        if self.kind == "nuclear":
            if self.shape is None or self.shape[0] * self.shape[1] != self.ambient_dim:
                raise ValueError("nuclear norm needs nrows * ncols == ambient_dim")


def l1(dim: int) -> DecomposableNorm:
    return DecomposableNorm("l1", dim)


def group(blocks, dim: int | None = None) -> DecomposableNorm:
    blocks = tuple(tuple(int(i) for i in b) for b in blocks)
    if dim is None:
        dim = sum(len(b) for b in blocks)
    return DecomposableNorm("group", dim, blocks=blocks)


def nuclear(nrows: int, ncols: int) -> DecomposableNorm:
    return DecomposableNorm("nuclear", nrows * ncols, shape=(nrows, ncols))


def norm_from_config(cfg: dict) -> DecomposableNorm:
    """Build a norm from its JSON wire format.

    ``{"kind":"l1","dim":P}``, ``{"kind":"group","blocks":[[1,2],[3,4]]}``
    (1-based indices) or ``{"kind":"nuclear","nrows":m,"ncols":n}``.
    """
    kind = cfg.get("kind")
    if kind == "l1":
        return l1(int(cfg["dim"]))
    if kind == "group":
        blocks = [[int(i) - 1 for i in b] for b in cfg["blocks"]]
        return group(blocks)
    if kind == "nuclear":
        return nuclear(int(cfg["nrows"]), int(cfg["ncols"]))
    raise ValueError(f"unknown norm kind in config: {kind!r}")


def _check_dim(norm: DecomposableNorm, u, what: str = "vector") -> np.ndarray:
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != norm.ambient_dim:
        raise ValueError(
            f"{what} has length {u.shape[0]}, norm lives on R^{norm.ambient_dim}"
        )
    return u


def _to_matrix(norm: DecomposableNorm, u: np.ndarray) -> np.ndarray:
    return u.reshape(norm.shape, order="F")


def _to_vector(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, order="F")


def _as_columns(norm: DecomposableNorm, v) -> tuple[np.ndarray, bool]:
    """A (P, B) array of columns as itself, anything else as one column.

    Returns the columns and whether the input was a single vector."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 2:
        if v.shape[0] != norm.ambient_dim:
            raise ValueError(
                f"columns have length {v.shape[0]}, norm lives on R^{norm.ambient_dim}"
            )
        return v, False
    return _check_dim(norm, v)[:, None], True


def _block_norms(norm: DecomposableNorm, cols: np.ndarray) -> np.ndarray:
    """Euclidean norm of every block of every column, shape (blocks, B)."""
    squares = cols[norm._block_order] ** 2
    return np.sqrt(np.add.reduceat(squares, norm._block_starts, axis=0))


def _transposed_matrices(norm: DecomposableNorm, cols: np.ndarray) -> np.ndarray:
    """(B, ncols, nrows) stack of the transposed matrices of the columns.

    The column-major vectorization of X read row-major is X^T; singular
    values and spectral functions commute with the transpose."""
    nrows, ncols = norm.shape
    return cols.T.reshape(cols.shape[1], ncols, nrows)


def norm_value(norm: DecomposableNorm, u):
    """The norm of u, or of every column of a (P, B) array as a (B,) array."""
    cols, single = _as_columns(norm, u)
    if norm.kind == "l1":
        out = np.sum(np.abs(cols), axis=0)
    elif norm.kind == "group":
        out = np.sum(_block_norms(norm, cols), axis=0)
    else:
        out = np.sum(
            np.linalg.svd(_transposed_matrices(norm, cols), compute_uv=False), axis=-1
        )
    return float(out[0]) if single else out


def dual_norm_value(norm: DecomposableNorm, u) -> float:
    """l-infinity for l1, max block norm for group, spectral for nuclear."""
    u = _check_dim(norm, u)
    if norm.kind == "l1":
        return float(np.max(np.abs(u))) if u.size else 0.0
    if norm.kind == "group":
        return float(_block_norms(norm, u[:, None]).max())
    s = np.linalg.svd(_to_matrix(norm, u), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def prox(norm: DecomposableNorm, u, tau: float) -> np.ndarray:
    """Proximity operator: argmin_z  0.5 ||z - u||^2 + tau * ||z||.

    Soft thresholding, blockwise shrinkage, or singular value shrinkage.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    u = _check_dim(norm, u)
    if norm.kind == "l1":
        return np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)
    if norm.kind == "group":
        out = np.zeros_like(u)
        for b in norm.blocks:
            idx = list(b)
            nb = np.linalg.norm(u[idx])
            if nb > tau:
                out[idx] = u[idx] * (1.0 - tau / nb)
        return out
    x = _to_matrix(norm, u)
    uu, s, vt = np.linalg.svd(x, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return _to_vector((uu * s) @ vt)


def project_dual_ball(
    norm: DecomposableNorm, v, radius: float | np.ndarray = 1.0
) -> np.ndarray:
    """Euclidean projection onto { z : dual_norm(z) <= radius }.

    ``v`` is one vector or a (P, B) array whose columns are projected one by
    one; ``radius`` is a scalar or a (B,) array of per-column radii.
    """
    radius = np.asarray(radius, dtype=float)
    if radius.size and radius.min() < 0:
        raise ValueError("radius must be nonnegative")
    cols, single = _as_columns(norm, v)
    out = _project_dual_ball_inplace(norm, cols.copy(), radius, -radius)
    return out[:, 0] if single else out


def _project_dual_ball_inplace(
    norm: DecomposableNorm, cols: np.ndarray, radius, neg_radius
) -> np.ndarray:
    """``project_dual_ball`` of a (P, B) float array, written over it.

    ``radius`` is a nonnegative scalar or (B,) array and ``neg_radius`` its
    negative; nothing is checked.  This is the solver's per-iteration
    kernel, where the checks and the copy of the public function would cost
    more than the projection itself.  Returns ``cols``.
    """
    if norm.kind == "l1":
        np.minimum(cols, radius, out=cols)
        np.maximum(cols, neg_radius, out=cols)
    elif norm.kind == "group":
        nb = _block_norms(norm, cols)
        scale = np.divide(radius, nb, out=np.ones_like(nb), where=nb > radius)
        cols *= scale.take(norm._block_of, axis=0)
    else:
        uu, s, vt = np.linalg.svd(_transposed_matrices(norm, cols), full_matrices=False)
        np.minimum(s, np.reshape(radius, (-1, 1)), out=s)
        cols[...] = ((uu * s[:, None, :]) @ vt).reshape(cols.shape[1], -1).T
    return cols


def _project_simplex_like(absv: np.ndarray, radius: float) -> float:
    """Threshold value for the l1-ball projection of a vector with the given
    absolute values.  Assumes sum(absv) > radius."""
    u = np.sort(absv)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    hits = np.nonzero(u * ks > (css - radius))[0]
    # k = 1 always qualifies; rounding hides it when radius is below the
    # spacing of the floats near the largest entry
    rho = hits[-1] if hits.size else 0
    return float((css[rho] - radius) / (rho + 1.0))


def project_primal_ball(norm: DecomposableNorm, v, radius: float = 1.0) -> np.ndarray:
    """Euclidean projection onto { z : norm_value(z) <= radius }."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    v = _check_dim(norm, v)
    if radius == 0:
        return np.zeros_like(v)
    if norm.kind == "l1":
        if np.sum(np.abs(v)) <= radius:
            return v.copy()
        theta = _project_simplex_like(np.abs(v), radius)
        return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)
    if norm.kind == "group":
        norms = _block_norms(norm, v[:, None])[:, 0]
        if norms.sum() <= radius:
            return v.copy()
        theta = _project_simplex_like(norms, radius)
        kept = norms > theta
        shrink = np.zeros_like(norms)
        shrink[kept] = 1.0 - theta / norms[kept]
        return v * shrink[norm._block_of]
    x = _to_matrix(norm, v)
    uu, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.sum() <= radius:
        return v.copy()
    theta = _project_simplex_like(s, radius)
    return _to_vector((uu * np.maximum(s - theta, 0.0)) @ vt)


def norm_subgradient(norm: DecomposableNorm, u) -> np.ndarray:
    """One subgradient of the norm at u (the zero choice on the inactive part)."""
    u = _check_dim(norm, u)
    if norm.kind == "l1":
        return np.sign(u)
    if norm.kind == "group":
        out = np.zeros_like(u)
        for b in norm.blocks:
            idx = list(b)
            nb = np.linalg.norm(u[idx])
            if nb > 0:
                out[idx] = u[idx] / nb
        return out
    x = _to_matrix(norm, u)
    uu, s, vt = np.linalg.svd(x, full_matrices=False)
    smax = s[0] if s.size else 0.0
    r = int(np.sum(s > 1e-14 * smax)) if smax > 0 else 0
    return _to_vector(uu[:, :r] @ vt[:r, :])


@dataclass(frozen=True, eq=False)
class DecompositionModel:
    """Model pair (T, e) of a decomposable norm at a point.

    ``active`` records the active coordinates (l1) or active block indices
    (group); it is None for the nuclear norm, whose model is the set of
    matrices sharing row or column space with the point.
    """

    T: Subspace
    e: np.ndarray
    separable_partition: tuple[Subspace, Subspace] | None = None
    active: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Membership:
    member: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.member


def decompose_at(norm: DecomposableNorm, u, tol: float = ACTIVE_RTOL) -> DecompositionModel:
    """Canonical model decomposition (T, e) at u.

    Coordinates (blocks, singular values) below ``tol`` relative to the
    largest one are treated as inactive.  At u = 0 the model is T = {0},
    e = 0 and the subdifferential is the whole dual unit ball.
    """
    u = _check_dim(norm, u)
    p = norm.ambient_dim

    if norm.kind == "l1":
        mx = float(np.max(np.abs(u))) if u.size else 0.0
        active = [] if mx == 0.0 else [int(i) for i in np.nonzero(np.abs(u) > tol * mx)[0]]
        e = np.zeros(p)
        e[active] = np.sign(u[active])
        return DecompositionModel(
            T=Subspace.from_coordinates(p, active), e=e, active=tuple(active)
        )

    if norm.kind == "group":
        norms = np.array([np.linalg.norm(u[list(b)]) for b in norm.blocks])
        mx = float(norms.max()) if norms.size else 0.0
        active = [] if mx == 0.0 else [int(i) for i in np.nonzero(norms > tol * mx)[0]]
        coords: list[int] = []
        e = np.zeros(p)
        for i in active:
            idx = list(norm.blocks[i])
            coords.extend(idx)
            e[idx] = u[idx] / norms[i]
        return DecompositionModel(
            T=Subspace.from_coordinates(p, coords), e=e, active=tuple(active)
        )

    # nuclear: model space is { U A^T + B V^T } for the thin singular spaces
    m, n = norm.shape
    x = _to_matrix(norm, u)
    uu, s, vt = np.linalg.svd(x, full_matrices=True)
    smax = s[0] if s.size else 0.0
    r = int(np.sum(s > tol * smax)) if smax > 0 else 0
    # deterministic sign convention: first significant entry of each kept
    # left singular vector is positive (the paired right vector flips too)
    for i in range(r):
        col = uu[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        j = int(nz[0]) if nz.size else 0
        if col[j] < 0:
            uu[:, i] = -uu[:, i]
            vt[i, :] = -vt[i, :]
    cols = []
    for j in range(n):
        for i in range(m):
            if i < r or j < r:
                cols.append(_to_vector(np.outer(uu[:, i], vt[j, :])))
    basis = np.column_stack(cols) if cols else np.zeros((p, 0))
    e = _to_vector(uu[:, :r] @ vt[:r, :]) if r else np.zeros(p)
    return DecompositionModel(T=Subspace(p, basis), e=e, active=None)


def subdiff_membership(norm: DecomposableNorm, u, alpha, tol: float = ACTIVE_RTOL) -> Membership:
    """Test alpha against the subdifferential of the norm at u.

    Membership requires P_T alpha = e within tol and a dual norm of at most
    1 + tol on the complement, with (T, e) the model at u.
    """
    u = _check_dim(norm, u)
    alpha = _check_dim(norm, alpha, "alpha")
    model = decompose_at(norm, u)
    a_t = model.T.project(alpha)
    if np.linalg.norm(a_t - model.e) > tol:
        return Membership(False, "model part differs from the attained subgradient")
    if dual_norm_value(norm, alpha - a_t) > 1.0 + tol:
        return Membership(False, "dual norm exceeds 1 on the inactive part")
    return Membership(True)


def coercivity_constant(norm: DecomposableNorm) -> float:
    """Largest C with norm_value(u) >= C * ||u||_2 for all u.

    All three instances dominate the Euclidean norm with constant one:
    l1 >= l2, sum of block norms >= l2 of the whole vector, nuclear >=
    Frobenius.
    """
    return 1.0


def bregman(norm: DecomposableNorm, u, u0, alpha, tol: float = ACTIVE_RTOL) -> float:
    """Bregman distance of the norm between u and u0 for a subgradient alpha
    at u0: ||u|| - ||u0|| - <alpha, u - u0>.  Nonnegative by convexity.

    The subgradient is validated first: with an invalid alpha the value can
    be negative and silently corrupts everything downstream.
    """
    u = _check_dim(norm, u)
    u0 = _check_dim(norm, u0, "u0")
    alpha = _check_dim(norm, alpha, "alpha")
    mem = subdiff_membership(norm, u0, alpha, tol=tol)
    if not mem.member:
        raise ValueError(f"alpha is not a subgradient at u0: {mem.reason}")
    d = norm_value(norm, u) - norm_value(norm, u0) - float(alpha @ (u - u0))
    scale = 1.0 + norm_value(norm, u) + norm_value(norm, u0)
    if d < 0 and d > -1e-9 * scale:
        return 0.0
    return d


def is_separable(norm: DecomposableNorm) -> bool:
    """Whether the norm splits additively across coordinate-aligned parts of
    the inactive space (true for l1 and group, false for nuclear)."""
    return norm.kind in ("l1", "group")


def separable_split(
    norm: DecomposableNorm, model: DecompositionModel, first_part
) -> tuple[Subspace, Subspace]:
    """Split the inactive space T^perp into V + W.

    ``first_part`` selects inactive coordinates (l1) or inactive block
    indices (group) going into V; the remaining inactive ones form W.  The
    nuclear norm offers no such partition.
    """
    if not is_separable(norm):
        raise ValueError(f"{norm.kind} norm is not separable")
    if model.active is None:
        raise ValueError("model does not carry an active set")
    p = norm.ambient_dim
    chosen = sorted(set(int(i) for i in first_part))
    if norm.kind == "l1":
        inactive = sorted(set(range(p)) - set(model.active))
        if not set(chosen) <= set(inactive):
            raise ValueError("first_part must consist of inactive coordinates")
        v_coords = chosen
        w_coords = sorted(set(inactive) - set(chosen))
    else:
        inactive_blocks = sorted(set(range(len(norm.blocks))) - set(model.active))
        if not set(chosen) <= set(inactive_blocks):
            raise ValueError("first_part must consist of inactive block indices")
        v_coords = sorted(i for b in chosen for i in norm.blocks[b])
        w_coords = sorted(
            i for b in set(inactive_blocks) - set(chosen) for i in norm.blocks[b]
        )
    return (
        Subspace.from_coordinates(p, v_coords),
        Subspace.from_coordinates(p, w_coords),
    )


def with_separable_partition(
    norm: DecomposableNorm, model: DecompositionModel, first_part
) -> DecompositionModel:
    """Return the model with its inactive-space split populated."""
    v, w = separable_split(norm, model, first_part)
    return replace(model, separable_partition=(v, w))

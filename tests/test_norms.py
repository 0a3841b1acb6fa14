import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoreg.norms import (
    ACTIVE_RTOL,
    bregman,
    coercivity_constant,
    decompose_at,
    dual_norm_value,
    group,
    l1,
    norm_from_config,
    norm_subgradient,
    norm_value,
    nuclear,
    project_dual_ball,
    project_primal_ball,
    subdiff_membership,
)
from decoreg.norms import DecomposableNorm, _project_dual_ball_inplace, _project_simplex_like
from decoreg.norms import _block_norms, _check_dim, _to_matrix, _to_vector
from decoreg.linops import Subspace

rng = np.random.default_rng(77)


def prox(norm: DecomposableNorm, u, tau: float) -> np.ndarray:
    """Proximity operator: argmin_z  0.5 ||z - u||^2 + tau * ||z||.

    Soft thresholding, blockwise shrinkage, or singular value shrinkage; the
    acceptance and sweep tests import it as their reference.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    u = _check_dim(norm, u)
    if norm.kind != "nuclear":
        nb = _block_norms(norm, u[:, None])[:, 0]
        kept = nb > tau
        shrink = np.zeros_like(nb)
        shrink[kept] = 1.0 - tau / nb[kept]
        return u * shrink[norm._block_of]
    x = _to_matrix(norm, u)
    uu, s, vt = np.linalg.svd(x, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return _to_vector((uu * s) @ vt)

NORM_KINDS = {
    "l1": l1(6),
    "group": group([[0, 1], [2, 3], [4, 5]]),
    "nuclear": nuclear(2, 3),
}


def vec(x):
    return np.asarray(x, dtype=float)


def mat_to_vec(m):
    return np.asarray(m, dtype=float).reshape(-1, order="F")


class TestConstruction:
    def test_group_blocks_must_cover(self):
        with pytest.raises(ValueError):
            group([[0, 1], [3]], dim=4)

    def test_group_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            group([[0, 1], [1, 2]], dim=3)

    def test_l1_blocks_are_the_coordinates(self):
        assert l1(3).blocks == ((0,), (1,), (2,))
        assert DecomposableNorm("l1", 3, blocks=((0,), (1,), (2,))) == l1(3)
        with pytest.raises(ValueError):
            DecomposableNorm("l1", 3, blocks=((0, 1), (2,)))

    def test_nuclear_shape_mismatch(self):
        with pytest.raises(ValueError):
            nuclear(2, 3).__class__("nuclear", 5, shape=(2, 3))

    def test_equal_configs_give_equal_norms(self):
        for make in (lambda: l1(4), lambda: group([[0, 1], [2, 3]]), lambda: nuclear(2, 2)):
            a, b = make(), make()
            assert a is not b and a == b and hash(a) == hash(b)
        assert group([[0, 1], [2, 3]]) != group([[0, 2], [1, 3]])
        assert group([[0], [1], [2], [3]]) != l1(4)
        assert nuclear(2, 3) != nuclear(3, 2)
        assert len({l1(4), l1(4), group([[0, 1], [2, 3]])}) == 2

    def test_config_wire_format(self):
        assert norm_from_config({"kind": "l1", "dim": 4}).kind == "l1"
        g = norm_from_config({"kind": "group", "blocks": [[1, 2], [3, 4]]})
        assert g.blocks == ((0, 1), (2, 3))
        n = norm_from_config({"kind": "nuclear", "nrows": 2, "ncols": 2})
        assert n.shape == (2, 2)
        with pytest.raises(ValueError):
            norm_from_config({"kind": "weighted"})


class TestNormValue:
    def test_l1(self):
        assert norm_value(l1(3), [1.0, -2.0, 0.0]) == pytest.approx(3.0)

    def test_group(self):
        n = group([[0, 1], [2]])
        assert norm_value(n, [3.0, 4.0, 1.0]) == pytest.approx(6.0)

    def test_nuclear_diagonal(self):
        n = nuclear(2, 2)
        assert norm_value(n, mat_to_vec(np.diag([2.0, 3.0]))) == pytest.approx(5.0)

    def test_zero_iff_zero(self):
        for norm in NORM_KINDS.values():
            assert norm_value(norm, np.zeros(6)) == 0.0
            u = rng.standard_normal(6)
            assert norm_value(norm, u) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            norm_value(l1(3), [1.0, 2.0])


class TestDualNorm:
    def test_l1_gives_linf(self):
        assert dual_norm_value(l1(2), [1.0, -2.0]) == pytest.approx(2.0)

    def test_group_gives_max_block(self):
        n = group([[0, 1], [2, 3]])
        assert dual_norm_value(n, [3.0, 4.0, 1.0, 0.0]) == pytest.approx(5.0)

    def test_sampled_supremum(self):
        # dual value = sup over unit-norm v of <u, v>; samples bound it below
        for norm in NORM_KINDS.values():
            u = rng.standard_normal(6)
            dual = dual_norm_value(norm, u)
            best = 0.0
            for v in rng.standard_normal((10_000, 6)):
                v = v / norm_value(norm, v)
                best = max(best, float(u @ v))
            assert best <= dual + 1e-9
            assert best >= 0.5 * dual  # sampling comes reasonably close


class TestProx:
    def test_l1_soft_threshold(self):
        assert np.allclose(prox(l1(2), [2.0, 0.5], 1.0), [1.0, 0.0])

    def test_group_block_killed(self):
        n = group([[0, 1]])
        assert np.allclose(prox(n, [3.0, 4.0], 5.0), [0.0, 0.0])

    def test_nuclear_singular_value_shrinkage(self):
        n = nuclear(2, 2)
        out = prox(n, mat_to_vec(np.diag([3.0, 1.0])), 2.0)
        assert np.allclose(out, mat_to_vec(np.diag([1.0, 0.0])), atol=1e-12)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            prox(l1(2), [1.0, 2.0], 0.0)

    def test_prox_optimality(self):
        # (u - prox(u, tau)) / tau must be a subgradient at the prox point
        for norm in NORM_KINDS.values():
            for _ in range(100):
                u = rng.standard_normal(6) * 2
                tau = float(rng.uniform(0.05, 2.0))
                z = prox(norm, u, tau)
                alpha = (u - z) / tau
                assert subdiff_membership(norm, z, alpha, tol=1e-8).member

    def test_moreau_identity(self):
        for norm in NORM_KINDS.values():
            for _ in range(100):
                u = rng.standard_normal(6) * 2
                tau = float(rng.uniform(0.05, 2.0))
                recon = prox(norm, u, tau) + tau * project_dual_ball(norm, u / tau, 1.0)
                assert np.linalg.norm(recon - u) <= 1e-8


class TestBallProjections:
    def test_dual_ball_feasible_and_fixed_points(self):
        for norm in NORM_KINDS.values():
            v = rng.standard_normal(6) * 3
            proj = project_dual_ball(norm, v, 1.0)
            assert dual_norm_value(norm, proj) <= 1.0 + 1e-12
            inside = project_dual_ball(norm, proj, 1.0)
            assert np.allclose(inside, proj)

    def test_primal_ball_feasible_and_optimal(self):
        for norm in NORM_KINDS.values():
            v = rng.standard_normal(6) * 3
            proj = project_primal_ball(norm, v, 1.0)
            assert norm_value(norm, proj) <= 1.0 + 1e-10
            # no sampled feasible point is closer
            d = np.linalg.norm(v - proj)
            for w in rng.standard_normal((2000, 6)):
                w = w / max(norm_value(norm, w), 1e-12)
                assert np.linalg.norm(v - w) >= d - 1e-9


# property tests run a fixed, derandomized set of examples and write no
# example database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def norms(draw):
    """l1, group with uneven blocks of scattered coordinates, or nuclear of
    any (also non-square) shape."""
    kind = draw(st.sampled_from(["l1", "group", "nuclear"]))
    if kind == "l1":
        return l1(draw(st.integers(1, 8)))
    if kind == "group":
        return draw(group_norms())
    return nuclear(draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@st.composite
def group_norms(draw):
    """Group norms with uneven blocks of scattered coordinates."""
    dim = draw(st.integers(1, 9))
    order = draw(st.permutations(range(dim)))
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=dim - 1))) if dim > 1 else []
    bounds = [0] + cuts + [dim]
    return group([order[a:b] for a, b in zip(bounds, bounds[1:])], dim=dim)


@st.composite
def columns(draw, norm, batch):
    entries = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(float, (norm.ambient_dim, batch), elements=entries))


@st.composite
def projection_cases(draw):
    """(norm, a (P, B) array, another one of the same shape, B radii)."""
    norm = draw(norms())
    batch = draw(st.integers(1, 4))
    radii = np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=batch, max_size=batch)))
    return norm, draw(columns(norm, batch)), draw(columns(norm, batch)), radii


def reference_dual_projection(norm, v, radius):
    """Per-vector projection written out block by block or by one SVD."""
    if norm.kind == "l1":
        return np.clip(v, -radius, radius)
    if norm.kind == "group":
        out = v.copy()
        for b in norm.blocks:
            idx = list(b)
            nb = np.linalg.norm(v[idx])
            if nb > radius:
                out[idx] = v[idx] * (radius / nb)
        return out
    u, s, vt = np.linalg.svd(v.reshape(norm.shape, order="F"), full_matrices=False)
    return mat_to_vec((u * np.minimum(s, radius)) @ vt)


def reference_norm(norm, v):
    if norm.kind == "l1":
        return float(np.sum(np.abs(v)))
    if norm.kind == "group":
        return float(sum(np.linalg.norm(v[list(b)]) for b in norm.blocks))
    return float(np.sum(np.linalg.svd(v.reshape(norm.shape, order="F"), compute_uv=False)))


class TestColumnwise:
    """A (P, B) array is B independent vectors for the projection and the norm."""

    @PROPERTY
    @given(projection_cases())
    def test_dual_projection_matches_per_vector(self, case):
        norm, v, _, radii = case
        batched = project_dual_ball(norm, v, radii)
        assert batched.shape == v.shape
        for j, r in enumerate(radii):
            single = project_dual_ball(norm, v[:, j], r)
            scale = 1e-12 * (1.0 + np.linalg.norm(v[:, j]))
            assert single.shape == (norm.ambient_dim,)
            assert np.linalg.norm(batched[:, j] - single) <= scale
            assert np.linalg.norm(single - reference_dual_projection(norm, v[:, j], r)) <= scale

    @PROPERTY
    @given(projection_cases())
    def test_scalar_radius_broadcasts(self, case):
        norm, v, _, radii = case
        r = float(radii[0])
        batched = project_dual_ball(norm, v, r)
        per_column = project_dual_ball(norm, v, np.full(v.shape[1], r))
        assert np.allclose(batched, per_column, rtol=0, atol=1e-12)

    @PROPERTY
    @given(projection_cases())
    def test_norm_value_matches_per_vector(self, case):
        norm, v, _, _ = case
        values = norm_value(norm, v)
        assert values.shape == (v.shape[1],)
        for j in range(v.shape[1]):
            single = norm_value(norm, v[:, j])
            assert isinstance(single, float)
            assert values[j] == pytest.approx(single, rel=1e-12, abs=1e-12)
            assert single == pytest.approx(reference_norm(norm, v[:, j]), rel=1e-12, abs=1e-12)

    @PROPERTY
    @given(projection_cases())
    def test_dual_projection_feasible_and_idempotent(self, case):
        norm, v, _, radii = case
        once = project_dual_ball(norm, v, radii)
        twice = project_dual_ball(norm, once, radii)
        for j, r in enumerate(radii):
            assert dual_norm_value(norm, once[:, j]) <= r * (1 + 1e-10) + 1e-12
            assert np.linalg.norm(twice[:, j] - once[:, j]) <= 1e-10 * (
                1.0 + np.linalg.norm(v[:, j])
            )

    @PROPERTY
    @given(projection_cases())
    def test_dual_projection_nonexpansive(self, case):
        norm, v, w, radii = case
        pv = project_dual_ball(norm, v, radii)
        pw = project_dual_ball(norm, w, radii)
        for j in range(v.shape[1]):
            gap = np.linalg.norm(v[:, j] - w[:, j])
            assert np.linalg.norm(pv[:, j] - pw[:, j]) <= gap + 1e-10 * (
                1.0 + np.linalg.norm(v[:, j]) + np.linalg.norm(w[:, j])
            )

    @PROPERTY
    @given(projection_cases())
    def test_primal_projection_idempotent_and_nonexpansive(self, case):
        norm, v, w, radii = case
        for j, r in enumerate(radii):
            pv = project_primal_ball(norm, v[:, j], r)
            pw = project_primal_ball(norm, w[:, j], r)
            scale = 1e-10 * (1.0 + np.linalg.norm(v[:, j]) + np.linalg.norm(w[:, j]))
            assert np.linalg.norm(project_primal_ball(norm, pv, r) - pv) <= scale
            assert np.linalg.norm(pv - pw) <= np.linalg.norm(v[:, j] - w[:, j]) + scale

    @PROPERTY
    @given(projection_cases(), st.booleans(), st.booleans())
    def test_public_projection_copies_checks_and_calls_the_kernel(
        self, case, one_vector, scalar_radius
    ):
        norm, v, _, radii = case
        if one_vector:
            v, radii = v[:, 0], radii[:1]
        radius = float(radii[0]) if scalar_radius else radii
        before = v.copy()
        out = project_dual_ball(norm, v, radius)
        assert np.array_equal(v, before)
        assert not np.shares_memory(out, v)
        assert out.shape == v.shape
        buf = v.reshape(norm.ambient_dim, -1).copy()
        r = np.asarray(radius)
        assert _project_dual_ball_inplace(norm, buf, r, -r) is buf
        assert np.array_equal(out, buf[:, 0] if one_vector else buf)
        with pytest.raises(ValueError, match="nonnegative"):
            project_dual_ball(norm, v, -r - 0.5)

    def test_uneven_scattered_blocks_and_rectangular_matrices(self):
        cases = [
            group([[4, 0], [2], [5, 1, 3]]),
            nuclear(2, 3),
            nuclear(4, 1),
        ]
        for norm in cases:
            v = rng.standard_normal((norm.ambient_dim, 3)) * 2
            radii = np.array([0.5, 1.0, 2.0])
            batched = project_dual_ball(norm, v, radii)
            for j, r in enumerate(radii):
                assert np.allclose(
                    batched[:, j], reference_dual_projection(norm, v[:, j], r), atol=1e-12
                )

    def test_no_columns(self):
        # the solver projects the columns a weight update restarted, which
        # may be none
        for norm in (l1(3), group([[0, 2], [1]]), nuclear(2, 3)):
            empty = np.zeros((norm.ambient_dim, 0))
            assert project_dual_ball(norm, empty, np.zeros(0)).shape == empty.shape

    def test_primal_ball_radius_below_float_spacing(self):
        # 3 - 2.2e-16 rounds to 3: the threshold search must still find k = 1
        for norm, v in ((l1(1), [3.0]), (group([[0, 1]]), [3.0, 0.0])):
            proj = project_primal_ball(norm, vec(v), 2.220446049250313e-16)
            assert norm_value(norm, proj) <= 1e-15

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            project_dual_ball(l1(2), np.ones((2, 2)), np.array([1.0, -0.1]))

    def test_column_length_checked(self):
        with pytest.raises(ValueError):
            norm_value(l1(3), np.ones((2, 4)))
        with pytest.raises(ValueError):
            project_dual_ball(nuclear(2, 2), np.ones((3, 1)))


class TestGeneralizedCauchySchwarz:
    def test_pairing_bound(self):
        for norm in NORM_KINDS.values():
            us = rng.standard_normal((10_000, 6))
            vs = rng.standard_normal((10_000, 6))
            for u, v in zip(us[:100], vs[:100]):
                assert float(u @ v) <= norm_value(norm, u) * dual_norm_value(
                    norm, v
                ) + 1e-10
        # dense sweep for the cheap coordinate norms
        n = l1(6)
        vals = np.einsum("ij,ij->i", us, vs)
        bound = np.abs(us).sum(axis=1) * np.abs(vs).max(axis=1)
        assert np.all(vals <= bound + 1e-10)


class TestDecomposeAt:
    def test_l1_sign_support(self):
        model = decompose_at(l1(3), [2.0, 0.0, -3.0])
        assert model.active == (0, 2)
        assert np.allclose(model.e, [1.0, 0.0, -1.0])
        assert model.T.dim == 2

    def test_group_normalized_block(self):
        n = group([[0, 1], [2, 3]])
        model = decompose_at(n, [3.0, 4.0, 0.0, 0.0])
        assert model.active == (0,)
        assert np.allclose(model.e, [0.6, 0.8, 0.0, 0.0])
        assert model.T.dim == 2

    def test_nuclear_rank_one(self):
        n = nuclear(2, 2)
        model = decompose_at(n, mat_to_vec(np.diag([1.0, 0.0])))
        e_mat = np.outer([1.0, 0.0], [1.0, 0.0])
        assert np.allclose(model.e, mat_to_vec(e_mat))
        assert model.T.dim == 3

    def test_zero_point(self):
        for norm in NORM_KINDS.values():
            model = decompose_at(norm, np.zeros(6))
            assert model.T.dim == 0
            assert np.allclose(model.e, 0.0)

    def test_fenchel_identity(self):
        # <e, u> recovers the norm value at u
        for norm in NORM_KINDS.values():
            for _ in range(20):
                u = rng.standard_normal(6)
                model = decompose_at(norm, u)
                assert float(model.e @ u) == pytest.approx(
                    norm_value(norm, u), abs=1e-9
                )

    def test_e_lives_in_t(self):
        for norm in NORM_KINDS.values():
            u = rng.standard_normal(6)
            model = decompose_at(norm, u)
            assert np.linalg.norm(model.e - model.T.project(model.e)) <= 1e-10 * (
                1 + np.linalg.norm(model.e)
            )

    def test_point_lives_in_t(self):
        for norm in NORM_KINDS.values():
            u = rng.standard_normal(6)
            model = decompose_at(norm, u)
            assert np.linalg.norm(u - model.T.project(u)) <= 1e-10 * (
                1.0 + np.linalg.norm(u)
            )

    def test_nuclear_deterministic_sign(self):
        n = nuclear(2, 3)
        u = rng.standard_normal(6)
        m1 = decompose_at(n, u)
        m2 = decompose_at(n, u.copy())
        assert np.array_equal(m1.e, m2.e)
        assert np.array_equal(m1.T.basis, m2.T.basis)


class TestInactivePairing:
    def test_norm_on_complement_is_sup_of_pairings(self):
        # for z in the inactive space, the norm equals the supremum of
        # pairings against unit-dual vectors of that space; the attaining
        # vector is known in closed form for the coordinate norms
        u = vec([2.0, 0.0, 0.0, 0.0, 0.0, -1.0])
        z = vec([0.0, 0.5, -1.5, 0.0, 2.0, 0.0])
        for kind in ("l1", "group"):
            norm = NORM_KINDS[kind]
            model = decompose_at(norm, u)
            z_t = model.T.project(z)
            z_perp = z - z_t
            attained = norm_subgradient(norm, z_perp)
            assert dual_norm_value(norm, attained) <= 1.0 + 1e-12
            assert np.linalg.norm(attained - (attained - model.T.project(attained))) <= 1e-12
            assert float(attained @ z_perp) == pytest.approx(
                norm_value(norm, z_perp), abs=1e-10
            )

    def test_nuclear_sampled_lower_bound(self):
        norm = NORM_KINDS["nuclear"]
        u = mat_to_vec(np.outer([1.0, 0.0], [1.0, 0.0, 0.0]))
        model = decompose_at(norm, u)
        z = rng.standard_normal(6)
        z_perp = z - model.T.project(z)
        val = norm_value(norm, z_perp)
        best = 0.0
        for w in rng.standard_normal((2000, 6)):
            w_perp = w - model.T.project(w)
            dn = dual_norm_value(norm, w_perp)
            if dn > 0:
                best = max(best, float(w_perp @ z_perp) / dn)
        assert best <= val + 1e-9


class TestSubdiffMembership:
    def test_member(self):
        assert subdiff_membership(l1(2), [1.0, 0.0], [1.0, 0.5], tol=1e-8).member

    def test_dual_bound_violated(self):
        res = subdiff_membership(l1(2), [1.0, 0.0], [1.0, 1.5], tol=1e-8)
        assert not res.member
        assert "dual" in res.reason

    def test_model_part_mismatch(self):
        res = subdiff_membership(l1(2), [1.0, 0.0], [0.9, 0.0], tol=1e-8)
        assert not res.member
        assert "model" in res.reason

    def test_truth_value_is_member(self):
        # a two-field tuple would be true either way
        assert not subdiff_membership(l1(2), [1.0, 0.0], [0.9, 0.0], tol=1e-8)
        assert subdiff_membership(l1(2), [1.0, 0.0], [1.0, 0.5], tol=1e-8)


class TestCoercivity:
    def test_all_one(self):
        for norm in NORM_KINDS.values():
            assert coercivity_constant(norm) == 1.0

    def test_inequality_holds(self):
        for norm in NORM_KINDS.values():
            c = coercivity_constant(norm)
            for _ in range(50):
                u = rng.standard_normal(6)
                assert norm_value(norm, u) >= c * np.linalg.norm(u) - 1e-12


class TestBregman:
    def test_basic_value(self):
        d = bregman(l1(2), [0.0, 1.0], [1.0, 0.0], [1.0, 0.0])
        assert d == pytest.approx(1.0)

    def test_identity_case(self):
        u0 = vec([1.0, 0.0])
        assert bregman(l1(2), u0, u0, vec([1.0, 0.0])) == 0.0

    def test_rejects_invalid_subgradient(self):
        with pytest.raises(ValueError):
            bregman(l1(2), [0.0, 1.0], [1.0, 0.0], [0.2, 0.0])

    def test_nonnegative_for_valid_subgradients(self):
        for norm in NORM_KINDS.values():
            for _ in range(100):
                u0 = rng.standard_normal(6)
                u = rng.standard_normal(6)
                model = decompose_at(norm, u0)
                inact = rng.standard_normal(6)
                inact -= model.T.project(inact)
                alpha = model.e + project_dual_ball(
                    norm, inact, float(rng.uniform(0, 1))
                )
                alpha -= model.T.project(alpha) - model.T.project(model.e)
                assert bregman(norm, u, u0, alpha) >= 0.0


def separable_split(norm: DecomposableNorm, model, first_part) -> tuple[Subspace, Subspace]:
    """Split the inactive space T^perp of an l1 or group model into V + W:
    V takes the inactive blocks (for l1 the coordinates) that
    ``first_part`` names, W the others.  The nuclear norm offers no such
    partition.  The separable uniqueness reference of the guarantees tests
    builds on it."""
    if norm.kind == "nuclear":
        raise ValueError("nuclear norm is not separable")
    chosen = sorted(set(int(i) for i in first_part))
    inactive_blocks = sorted(set(range(len(norm.blocks))) - set(model.active))
    if not set(chosen) <= set(inactive_blocks):
        raise ValueError("first_part must consist of inactive block indices")
    v_coords = sorted(i for b in chosen for i in norm.blocks[b])
    w_coords = sorted(i for b in set(inactive_blocks) - set(chosen) for i in norm.blocks[b])
    p = norm.ambient_dim
    return Subspace.from_coordinates(p, v_coords), Subspace.from_coordinates(p, w_coords)


class TestSeparability:
    def test_l1_additive_on_any_split(self):
        norm = l1(6)
        u = rng.standard_normal(6)
        model = decompose_at(norm, vec([5.0, 0, 0, 0, 0, 0]))
        v, w = separable_split(norm, model, [1, 3])
        z = u - model.T.project(u)
        assert norm_value(norm, v.project(z)) + norm_value(
            norm, w.project(z)
        ) == pytest.approx(norm_value(norm, z))

    def test_group_additive_on_block_split(self):
        norm = group([[0, 1], [2, 3], [4, 5]])
        u0 = vec([3.0, 4.0, 0, 0, 0, 0])
        model = decompose_at(norm, u0)
        v, w = separable_split(norm, model, [1])
        z = rng.standard_normal(6)
        z -= model.T.project(z)
        assert norm_value(norm, v.project(z)) + norm_value(
            norm, w.project(z)
        ) == pytest.approx(norm_value(norm, z))

    def test_nuclear_not_separable(self):
        norm = nuclear(2, 3)
        model = decompose_at(norm, rng.standard_normal(6))
        with pytest.raises(ValueError):
            separable_split(norm, model, [0])

    def test_split_rejects_active_coordinates(self):
        norm = l1(4)
        model = decompose_at(norm, vec([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            separable_split(norm, model, [0, 1])


# block sums of squares add in another order than a per-block np.linalg.norm
ROUNDING = 64 * np.finfo(float).eps


def reference_group_primal_projection(norm, v, radius):
    """Group primal-ball projection written out block by block: shrink every
    block norm by the threshold theta with sum(max(norm_b - theta, 0)) =
    radius."""
    norms = [np.linalg.norm(v[list(b)]) for b in norm.blocks]
    if sum(norms) <= radius:
        return v.copy()
    desc = sorted(norms, reverse=True)
    for k in range(len(desc), 0, -1):
        theta = (sum(desc[:k]) - radius) / k
        if desc[k - 1] > theta:
            break
    out = np.zeros_like(v)
    for b, nb in zip(norm.blocks, norms):
        if nb > theta:
            out[list(b)] = v[list(b)] * (1.0 - theta / nb)
    return out


def reference_group_blockwise(norm, u, tau):
    """Group prox at tau, the subgradient with zero on vanishing blocks and
    the model's active blocks and e, written out block by block."""
    block_norms = [np.linalg.norm(u[list(b)]) for b in norm.blocks]
    mx = max(block_norms)
    prox_u, subgrad, e = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    active = []
    for i, (b, nb) in enumerate(zip(norm.blocks, block_norms)):
        idx = list(b)
        if nb > tau:
            prox_u[idx] = u[idx] * (1.0 - tau / nb)
        if nb > 0:
            subgrad[idx] = u[idx] / nb
        if mx > 0 and nb > ACTIVE_RTOL * mx:
            active.append(i)
            e[idx] = u[idx] / nb
    return prox_u, subgrad, tuple(active), e


class TestGroupBlockLayout:
    """The group norm's block-layout code against per-block loops."""

    @PROPERTY
    @given(st.data())
    def test_prox_subgradient_and_model_match_block_loops(self, data):
        norm = data.draw(group_norms())
        u = data.draw(columns(norm, 1))[:, 0]
        for i in data.draw(st.sets(st.integers(0, len(norm.blocks) - 1))):
            u[list(norm.blocks[i])] = 0.0
        tau = data.draw(st.floats(0.05, 2.0))
        prox_u, subgrad, active, e = reference_group_blockwise(norm, u, tau)
        scale = ROUNDING * (1.0 + np.linalg.norm(u))
        assert np.linalg.norm(prox(norm, u, tau) - prox_u) <= scale
        assert np.linalg.norm(norm_subgradient(norm, u) - subgrad) <= ROUNDING
        model = decompose_at(norm, u)
        assert model.active == active
        coords = sorted(i for a in active for i in norm.blocks[a])
        assert np.array_equal(model.T.basis, np.eye(norm.ambient_dim)[:, coords])
        assert np.linalg.norm(model.e - e) <= ROUNDING

    @PROPERTY
    @given(st.data())
    def test_dual_norm_is_the_largest_block_norm(self, data):
        norm = data.draw(group_norms())
        v = data.draw(columns(norm, 1))[:, 0]
        expected = max(np.linalg.norm(v[list(b)]) for b in norm.blocks)
        assert dual_norm_value(norm, v) == pytest.approx(expected, rel=ROUNDING, abs=ROUNDING)

    @PROPERTY
    @given(st.data())
    def test_primal_projection_matches_block_loop(self, data):
        norm = data.draw(group_norms())
        v = data.draw(columns(norm, 1))[:, 0]
        radius = data.draw(st.floats(0.0, 12.0))
        got = project_primal_ball(norm, v, radius)
        assert got.shape == v.shape
        expected = reference_group_primal_projection(norm, v, radius)
        assert np.linalg.norm(got - expected) <= ROUNDING * (1.0 + np.linalg.norm(v))


# l1 entries whose squares neither underflow nor overflow, where
# sqrt(u_i^2) == |u_i| holds exactly, and zeros
L1_ENTRIES = st.one_of(
    st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150)
)


def reference_l1_model(u, tol):
    """The l1 model read off coordinates: the basis of the support, the sign
    pattern and the support."""
    mx = float(np.max(np.abs(u)))
    active = [] if mx == 0.0 else [int(i) for i in np.nonzero(np.abs(u) > tol * mx)[0]]
    basis = np.zeros((u.size, len(active)))
    basis[active, range(len(active))] = 1.0
    e = np.zeros(u.size)
    e[active] = np.sign(u[active])
    return basis, e, tuple(active)


def reference_l1_primal_projection(v, radius):
    """Soft thresholding at the threshold of the l1-ball projection."""
    if np.sum(np.abs(v)) <= radius:
        return v.copy()
    theta = _project_simplex_like(np.abs(v), radius)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


class TestL1IsSingletonGroup:
    """l1 runs the group code with one block per coordinate; on entries in
    [1e-150, 1e150] in magnitude (or zero) it equals the coordinate
    formulas."""

    @PROPERTY
    @given(st.data())
    def test_coordinate_formulas(self, data):
        dim = data.draw(st.integers(1, 8))
        norm = l1(dim)
        u = np.array(data.draw(st.lists(L1_ENTRIES, min_size=dim, max_size=dim)))
        cols = np.column_stack([u, u[::-1]])
        assert norm_value(norm, u) == np.sum(np.abs(u))
        assert np.array_equal(norm_value(norm, cols), np.sum(np.abs(cols), axis=0))
        assert dual_norm_value(norm, u) == np.max(np.abs(u))
        assert np.array_equal(norm_subgradient(norm, u), np.sign(u))
        for tol in (ACTIVE_RTOL, 1e-3, 0.5):
            model = decompose_at(norm, u, tol)
            basis, e_ref, active_ref = reference_l1_model(u, tol)
            assert np.array_equal(model.T.basis, basis)
            assert np.array_equal(model.e, e_ref)
            assert model.active == active_ref
        tau = data.draw(st.floats(1e-150, 1e150))
        soft = np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)
        assert np.all(np.abs(prox(norm, u, tau) - soft) <= 1e-12 * np.abs(u))
        radius = data.draw(st.floats(1e-150, 1e150))
        expected = reference_l1_primal_projection(u, radius)
        assert np.all(np.abs(project_primal_ball(norm, u, radius) - expected) <= 1e-12 * np.abs(u))


@st.composite
def prox_cases(draw):
    """(norm, u, tau) with tau between 0.05 and 2 and entries in [-5, 5]."""
    norm = draw(norms())
    u = draw(columns(norm, 1))[:, 0]
    return norm, u, draw(st.floats(0.05, 2.0))


class TestProxProperties:
    @PROPERTY
    @given(prox_cases())
    def test_moreau_identity(self, case):
        norm, u, tau = case
        recon = prox(norm, u, tau) + tau * project_dual_ball(norm, u / tau, 1.0)
        assert np.linalg.norm(recon - u) <= 1e-12 * (1.0 + np.linalg.norm(u))

    @PROPERTY
    @given(prox_cases())
    def test_prox_optimality(self, case):
        # (u - prox(u, tau)) / tau is a subgradient at prox(u, tau)
        norm, u, tau = case
        z = prox(norm, u, tau)
        alpha = (u - z) / tau
        membership = subdiff_membership(norm, z, alpha, tol=1e-8)
        assert membership.member, membership.reason

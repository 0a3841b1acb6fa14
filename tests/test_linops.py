import numpy as np
import pytest
from scipy.linalg import null_space

from decoreg.linops import (
    LinearOperator,
    Subspace,
    identity,
    image_basis,
    kernel_basis,
    power_iteration_norm,
    read_operator_csv,
    restricted_injectivity_constant,
    write_operator_csv,
)
from decoreg.solver import ic_context

rng = np.random.default_rng(1234)


def random_operator(m, n, rank=None):
    a = rng.standard_normal((m, n))
    if rank is not None:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        s[rank:] = 0.0
        a = (u * s) @ vt
    return LinearOperator(a)


def random_subspace(n, k):
    return Subspace(n, np.linalg.qr(rng.standard_normal((n, k)))[0])


def analysis_context(l_entries, T=None):
    """The model context of L (N x P) at T (default {0}) with Phi = Id."""
    l_op = LinearOperator(l_entries)
    return ic_context(identity(l_op.rows), l_op, T or Subspace.zero(l_op.cols))


class TestApply:
    def test_diagonal(self):
        op = LinearOperator(np.diag([1.0, 2.0]))
        assert np.allclose(op.apply([1.0, 1.0]), [1.0, 2.0])

    def test_identity(self):
        x = rng.standard_normal(5)
        assert np.array_equal(identity(5).apply(x), x)

    def test_against_double_loop(self):
        # naive entry-wise oracle
        op = random_operator(3, 2)
        x = rng.standard_normal(2)
        expected = np.array(
            [sum(op.entries[i, j] * x[j] for j in range(2)) for i in range(3)]
        )
        assert np.linalg.norm(op.apply(x) - expected) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            random_operator(3, 2).apply([1.0, 2.0, 3.0])


class TestAdjoint:
    def test_diagonal_symmetric(self):
        op = LinearOperator(np.diag([1.0, 2.0]))
        assert np.allclose(op.adjoint_apply([1.0, 1.0]), [1.0, 2.0])

    def test_nilpotent(self):
        op = LinearOperator([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(op.adjoint_apply([1.0, 0.0]), [0.0, 1.0])
        assert np.allclose(op.apply([1.0, 0.0]), [0.0, 0.0])

    def test_inner_product_pairing(self):
        op = random_operator(4, 7)
        scale = np.linalg.norm(op.entries, 2)
        for _ in range(100):
            x = rng.standard_normal(7)
            y = rng.standard_normal(4)
            lhs = float(op.apply(x) @ y)
            rhs = float(x @ op.adjoint_apply(y))
            assert abs(lhs - rhs) <= 1e-10 * (
                np.linalg.norm(x) * np.linalg.norm(y) * scale + 1
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            random_operator(3, 2).adjoint_apply([1.0, 2.0])


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0], [1.0]]))

    def test_complement_roundtrip(self):
        sub = random_subspace(6, 2)
        comp = sub.complement()
        assert sub.dim + comp.dim == 6
        assert np.allclose(sub.basis.T @ comp.basis, 0.0, atol=1e-12)

    def test_trivial_complements(self):
        assert Subspace.zero(4).complement().dim == 4
        assert Subspace(4, np.eye(4)).complement().dim == 0


class TestProjector:
    def test_axis_span(self):
        sub = Subspace.from_coordinates(2, [0])
        assert np.allclose(sub.projector_matrix(), np.diag([1.0, 0.0]))

    def test_zero_subspace(self):
        assert np.allclose(Subspace.zero(3).projector_matrix(), 0.0)

    def test_rank_one_formula(self):
        sub = Subspace(2, np.array([[1.0], [1.0]]) / np.sqrt(2))
        assert np.allclose(sub.projector_matrix(), [[0.5, 0.5], [0.5, 0.5]])

    def test_idempotent_self_adjoint(self):
        for _ in range(10):
            p = random_subspace(7, 3).projector_matrix()
            assert np.allclose(p @ p, p, atol=1e-10)
            assert np.allclose(p, p.T, atol=1e-10)


class TestRestrictedOperator:
    """L restricted to S = T^perp, L P_S, as the model context carries it."""

    def test_identity_on_axis(self):
        ls = analysis_context(np.eye(2), Subspace.from_coordinates(2, [1])).ls
        assert np.allclose(ls, np.diag([1.0, 0.0]))

    def test_full_space_is_noop(self):
        op = random_operator(3, 4)
        assert np.allclose(analysis_context(op.entries).ls, op.entries)

    def test_zero_subspace_kills(self):
        op = random_operator(3, 4)
        assert np.allclose(analysis_context(op.entries, Subspace(4, np.eye(4))).ls, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            analysis_context(random_operator(3, 4).entries, Subspace(3, np.eye(3)))


class TestPseudoinverse:
    """pinv(L_S) as the model context carries it, at T = {0}."""

    def test_diagonal(self):
        ls_pinv = analysis_context(np.diag([2.0, 0.0])).ls_pinv
        assert np.allclose(ls_pinv @ [1.0, 1.0], [0.5, 0.0])

    def test_identity(self):
        assert np.allclose(analysis_context(np.eye(3)).ls_pinv, np.eye(3))

    def test_penrose_on_rank_deficient(self):
        a = random_operator(4, 3, rank=2).entries
        ap = analysis_context(a).ls_pinv
        assert np.allclose(a @ ap @ a, a, atol=1e-9)

    def test_all_four_penrose_identities(self):
        shapes = [(3, 5), (5, 3), (4, 4), (6, 2)]
        for i in range(20):
            m, n = shapes[i % len(shapes)]
            rank = None if i % 2 == 0 else min(m, n) - 1
            a = random_operator(m, n, rank=rank).entries
            ap = analysis_context(a).ls_pinv
            assert np.allclose(a @ ap @ a, a, atol=1e-9)
            assert np.allclose(ap @ a @ ap, ap, atol=1e-9)
            assert np.allclose((a @ ap).T, a @ ap, atol=1e-9)
            assert np.allclose((ap @ a).T, ap @ a, atol=1e-9)


class TestKernelBasis:
    def test_diagonal(self):
        ker = kernel_basis(LinearOperator(np.diag([1.0, 0.0])))
        assert ker.dim == 1
        assert np.allclose(np.abs(ker.basis[:, 0]), [0.0, 1.0])

    def test_injective(self):
        assert kernel_basis(random_operator(5, 3)).dim == 0

    def test_row_vector(self):
        ker = kernel_basis(LinearOperator([[1.0, 1.0]]))
        assert ker.dim == 1
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(np.abs(ker.basis[:, 0]), np.abs(expected))

    def test_orthogonal_to_row_space(self):
        for _ in range(10):
            op = random_operator(4, 6, rank=3)
            smax = np.linalg.norm(op.entries, 2)
            ker = kernel_basis(op)
            assert ker.dim == 3
            for j in range(ker.dim):
                assert np.linalg.norm(op.apply(ker.basis[:, j])) <= 1e-9 * smax

    def test_zero_operator_full_kernel(self):
        assert kernel_basis(LinearOperator(np.zeros((3, 4)))).dim == 4


class TestInjectivityConstant:
    def test_diagonal_restriction(self):
        phi = LinearOperator(np.diag([1.0, 2.0]))
        sub = Subspace.from_coordinates(2, [1])
        assert restricted_injectivity_constant(phi, sub) == pytest.approx(2.0)

    def test_failure_detected(self):
        phi = LinearOperator(np.diag([1.0, 0.0]))
        sub = Subspace.from_coordinates(2, [1])
        assert restricted_injectivity_constant(phi, sub) == pytest.approx(0.0)

    def test_numerically_singular_restriction_fails(self):
        # the raw smallest singular value is positive but under the rank cutoff
        phi = LinearOperator(np.diag([1.0, 1e-12]))
        assert restricted_injectivity_constant(phi, Subspace(2, np.eye(2))) == 0.0
        # a kernel direction inside the subspace: rounding leaves ~1e-17
        h = np.array([-1.0, 0.0, 0.5, 0.5])
        phi = LinearOperator(null_space(h[None, :]).T)
        sub = Subspace.from_coordinates(4, [0, 2, 3])
        assert restricted_injectivity_constant(phi, sub) == 0.0
        assert restricted_injectivity_constant(phi, Subspace.from_coordinates(4, [0, 2])) > 0

    def test_zero_subspace_sentinel(self):
        phi = random_operator(3, 4)
        assert restricted_injectivity_constant(phi, Subspace.zero(4)) == np.inf

    def test_wide_restriction_fails(self):
        phi = random_operator(2, 4)
        assert restricted_injectivity_constant(phi, Subspace(4, np.eye(4))) == 0.0

    def test_random_direction_upper_bound(self):
        # the constant is the exact minimum, so sampled directions only bound
        # it from above
        phi = random_operator(5, 3)
        const = restricted_injectivity_constant(phi, Subspace(3, np.eye(3)))
        sampled = min(
            np.linalg.norm(phi.apply(x / np.linalg.norm(x)))
            for x in rng.standard_normal((10_000, 3))
        )
        assert const <= sampled + 1e-12
        assert const > 0


class TestSmallestNonzeroSingularValue:
    """C_L, the smallest singular value of L_S above the rank cutoff, as the
    model context carries it, at T = {0}."""

    def test_diagonal(self):
        assert analysis_context(np.diag([3.0, 0.0])).c_l == pytest.approx(3.0)

    def test_identity(self):
        assert analysis_context(np.eye(4)).c_l == pytest.approx(1.0)

    def test_cutoff_semantics(self):
        assert analysis_context(np.diag([5.0, 2.0, 1e-15])).c_l == pytest.approx(2.0)


class TestOperatorNorm:
    def test_diagonal(self):
        assert power_iteration_norm(np.diag([1.0, 2.0])) == pytest.approx(2.0)

    def test_zero(self):
        assert power_iteration_norm(np.zeros((3, 2))) == 0.0

    def test_dominates_rayleigh_quotients(self):
        op = random_operator(6, 4)
        nrm = power_iteration_norm(op.entries)
        for _ in range(100):
            x = rng.standard_normal(4)
            assert nrm >= np.linalg.norm(op.apply(x)) / np.linalg.norm(x) - 1e-12

    def test_power_iteration_matches_svd(self):
        for _ in range(10):
            a = rng.standard_normal((5, 7))
            assert power_iteration_norm(a) == pytest.approx(
                np.linalg.svd(a, compute_uv=False)[0], rel=1e-8
            )


class TestImageBasis:
    def test_spans_the_range(self):
        op = random_operator(6, 4, rank=2)
        im = image_basis(op)
        assert im.dim == 2
        x = rng.standard_normal(4)
        v = op.apply(x)
        assert np.linalg.norm(v - im.project(v)) <= 1e-9 * (1.0 + np.linalg.norm(v))


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        op = random_operator(3, 4)
        path = tmp_path / "op.csv"
        write_operator_csv(op, path)
        back = read_operator_csv(path)
        assert back.rows == 3 and back.cols == 4
        assert np.array_equal(back.entries, op.entries)

    def test_header_format(self, tmp_path):
        path = tmp_path / "op.csv"
        write_operator_csv(identity(2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2,2"
        assert len(lines) == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3\n1,2,3\n")
        with pytest.raises(ValueError):
            read_operator_csv(path)

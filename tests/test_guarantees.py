import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from decoreg.certificates import DualCertificate
from decoreg.guarantees import (
    STATUS_UNDECIDED,
    STATUS_UNIQUE,
    STATUS_VIOLATED,
    UniquenessVerdict,
    assemble_total_constant,
    bregman_to_l2,
    prediction_bregman_bounds,
    stability_constants,
    strong_nsp_check,
    uniqueness_from_certificate,
    verify_bounds,
)
from decoreg.linops import (
    LinearOperator,
    Subspace,
    identity,
    kernel_basis,
    restricted_injectivity_constant,
)
from decoreg.norms import (
    decompose_at,
    dual_norm_value,
    group,
    l1,
    norm_subgradient,
    norm_value,
    nuclear,
)
from decoreg.solver import (
    Problem,
    SolverOptions,
    _min_dual_norm_affine,
    ic_context,
    minimize_ic_full,
    solve_penalized,
)
from decoreg.experiments import difference_operator_1d, noise_in_ball
from test_certificates import certificate
from test_norms import separable_split

rng = np.random.default_rng(400)


def l1_model(u0):
    u0 = np.asarray(u0, dtype=float)
    return decompose_at(l1(u0.size), u0)


def nsp_margin(l_op, T, e, norm, h):
    """g(h) = norm(L_S^* h) - <L_T^* h, e>, straight from the definition."""
    lh = l_op.T.apply(h)
    return norm_value(norm, lh - T.project(lh)) - float(T.project(lh) @ e)


def sampled_nsp_minimum(phi, l_op, T, e, norm, restarts=64, steps=400):
    """Oracle: multi-start projected subgradient descent of g over the unit
    sphere of ker(phi), seeded deterministically.  Returns the smallest value
    seen and its unit kernel vector; it can miss the minimum, never undercut
    it."""
    ker = kernel_basis(phi)
    a_full = l_op.entries.T @ ker.basis
    a_s = T.complement().projector_matrix() @ a_full
    q = a_full.T @ T.project(e)

    def value(c):
        return norm_value(norm, a_s @ c) - float(q @ c)

    step0 = 1.0 / (1.0 + float(np.linalg.norm(a_s, 2)))
    best, c_best = np.inf, None
    for restart in range(restarts):
        c = np.random.default_rng(restart).standard_normal(ker.dim)
        c /= np.linalg.norm(c)
        for t in range(steps):
            for cand in (c, -c):
                val = value(cand)
                if val < best:
                    best, c_best = val, cand.copy()
            c = c - (step0 / np.sqrt(t + 1.0)) * (
                a_s.T @ norm_subgradient(norm, a_s @ c) - q
            )
            nc = np.linalg.norm(c)
            if nc == 0.0:
                break
            c /= nc
    return best, ker.basis @ c_best


def nsp_instance(seed, kind, kernel_dim):
    """(phi, L, norm, model) with dim ker(phi) = kernel_dim: l1 with identity
    or tv1d analysis, group over pairs, nuclear on 3 x 3 matrices."""
    r = np.random.default_rng(seed)
    if kind == "tv1d":
        n = 9
        l_adj = difference_operator_1d(n)
        u0 = np.zeros(n - 1)
        jumps = r.choice(n - 1, size=int(r.integers(1, 3)), replace=False)
        u0[jumps] = r.standard_normal(jumps.size) + np.sign(r.standard_normal(jumps.size))
        x0 = np.r_[0.0, np.cumsum(u0)]
        norm = l1(n - 1)
    else:
        n = 8 if kind != "nuclear" else 9
        l_adj = identity(n)
        if kind == "l1":
            norm = l1(n)
            x0 = np.zeros(n)
            on = r.choice(n, size=int(r.integers(1, 3)), replace=False)
            x0[on] = r.standard_normal(on.size) + np.sign(r.standard_normal(on.size))
        elif kind == "group":
            norm = group([[0, 1], [2, 3], [4, 5], [6, 7]])
            x0 = r.standard_normal(n) * np.repeat(np.arange(4) == r.integers(4), 2)
        else:
            norm = nuclear(3, 3)
            x0 = np.outer(r.standard_normal(3), r.standard_normal(3)).reshape(-1)
    m = n - kernel_dim
    phi = LinearOperator(r.standard_normal((m, n)) / np.sqrt(m))
    return phi, l_adj.T, norm, decompose_at(norm, l_adj.apply(x0))


def standalone_nsp_program(phi, l_op, norm, model):
    """min{dual_norm(w) : A_S^T w = q} built from the definitions with scipy's
    null space, apart from the SVD inside ``strong_nsp_check``."""
    ker = kernel_basis(phi).basis
    a_s = model.T.complement().projector_matrix() @ (l_op.entries.T @ ker)
    q = ker.T @ (l_op.entries @ model.T.project(model.e))
    assert np.linalg.matrix_rank(a_s) == ker.shape[1]
    w_p = np.linalg.lstsq(a_s.T, q, rcond=None)[0]
    _, value, gap, _, _ = _min_dual_norm_affine(
        norm, w_p, null_space(a_s.T), SolverOptions()
    )
    return value, gap


class TestStrongNsp:
    def test_injective_design_is_vacuous(self):
        phi = LinearOperator(np.eye(3) + 0.1 * rng.standard_normal((3, 3)))
        model = l1_model([1.0, 0.0, 0.0])
        verdict = strong_nsp_check(phi, identity(3), model.T, model.e, l1(3))
        assert verdict.status == STATUS_UNIQUE
        assert verdict.witness is None

    def test_boundary_kernel_detected(self):
        # kernel direction (1, -1)/sqrt(2) makes the margin exactly zero;
        # rounding may land on either side of it, but the verdict must not
        # claim uniqueness
        phi = LinearOperator([[1.0, 1.0]])
        model = l1_model([1.0, 0.0])
        verdict = strong_nsp_check(phi, identity(2), model.T, model.e, l1(2))
        assert verdict.status in (STATUS_VIOLATED, STATUS_UNDECIDED)
        if verdict.status == STATUS_VIOLATED:
            assert np.linalg.norm(verdict.witness) == pytest.approx(1.0)
            assert np.linalg.norm(phi.apply(verdict.witness)) <= 1e-12

    def test_one_dimensional_kernel_exhaustive(self):
        # the 1-d kernel of [1, 2] is spanned by (2, -1)/sqrt(5); evaluating
        # both signs by hand decides the verdict
        phi = LinearOperator([[1.0, 2.0]])
        model = l1_model([1.0, 0.0])
        h = np.array([2.0, -1.0]) / np.sqrt(5)
        g = min(
            abs(h[1]) - h[0] * 1.0,
            abs(-h[1]) - (-h[0]) * 1.0,
        )
        verdict = strong_nsp_check(phi, identity(2), model.T, model.e, l1(2))
        assert g < 0
        assert verdict.status == STATUS_VIOLATED
        # witness must realize the nonpositive margin
        w = verdict.witness
        assert abs(w[1]) - w[0] == pytest.approx(g, abs=1e-12)

    def test_one_dimensional_kernel_positive_case(self):
        # support on the small coefficient: margin is strictly positive
        phi = LinearOperator([[1.0, 2.0]])
        model = l1_model([0.0, 1.0])
        verdict = strong_nsp_check(phi, identity(2), model.T, model.e, l1(2))
        assert verdict.status == STATUS_UNIQUE

    @pytest.mark.parametrize(
        "a, status",
        [
            (1.0 - 1e-4, STATUS_UNIQUE),
            (1.0 - 1e-7, STATUS_UNDECIDED),  # inside the 1e-6 margin
            (1.0 + 1e-4, STATUS_VIOLATED),
        ],
    )
    def test_near_boundary_kernel(self, a, status):
        # ker [1, a] is spanned by h = (a, -1); at the model of (1, 0),
        # g(+-h) = 1 -+ a, and the program's value is a
        phi = LinearOperator([[1.0, a]])
        model = l1_model([1.0, 0.0])
        verdict = strong_nsp_check(phi, identity(2), model.T, model.e, l1(2))
        assert verdict.status == status
        if status == STATUS_VIOLATED:
            h = np.array([a, -1.0]) / np.hypot(a, 1.0)
            assert verdict.witness == pytest.approx(h, abs=1e-12)

    def test_multidimensional_kernel_decided(self):
        r = np.random.default_rng(17)
        phi = LinearOperator(r.standard_normal((4, 7)) / 2.0)
        x0 = np.zeros(7)
        x0[0] = 2.0
        model = l1_model(x0)
        verdict = strong_nsp_check(phi, identity(7), model.T, model.e, l1(7))
        assert verdict.status in (STATUS_UNIQUE, STATUS_VIOLATED)
        if verdict.status == STATUS_VIOLATED:
            w = verdict.witness
            assert np.linalg.norm(w) == pytest.approx(1.0)
            assert np.linalg.norm(phi.apply(w)) <= 1e-9
            assert nsp_margin(identity(7), model.T, model.e, l1(7), w) <= 1e-9
        else:
            assert verdict.witness is None

    def test_rank_deficient_restriction_violated(self):
        # ker(phi) = span(e_0, e_1) with both coordinates in the model:
        # L_S^* h = 0 on the whole kernel, so g = -<h, e> takes a value <= 0
        phi = LinearOperator(np.c_[np.zeros((2, 2)), np.eye(2)])
        model = l1_model([1.0, -1.0, 0.0, 0.0])
        verdict = strong_nsp_check(phi, identity(4), model.T, model.e, l1(4))
        assert verdict.status == STATUS_VIOLATED
        w = verdict.witness
        assert np.linalg.norm(phi.apply(w)) <= 1e-12
        assert float(model.e @ w) >= 0.0
        assert nsp_margin(identity(4), model.T, model.e, l1(4), w) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "tv1d", "group", "nuclear"]),
        kernel_dim=st.integers(2, 4),
    )
    def test_sampler_never_undercuts_the_verdict(self, seed, kind, kernel_dim):
        phi, l_op, norm, model = nsp_instance(seed, kind, kernel_dim)
        verdict = strong_nsp_check(phi, l_op, model.T, model.e, norm)
        if verdict.status == STATUS_VIOLATED:
            w = verdict.witness
            assert np.linalg.norm(w) == pytest.approx(1.0)
            assert np.linalg.norm(phi.apply(w)) <= 1e-9
            assert nsp_margin(l_op, model.T, model.e, norm, w) <= 1e-9
            return
        assert verdict.witness is None
        best, h = sampled_nsp_minimum(
            phi, l_op, model.T, model.e, norm, restarts=8, steps=150
        )
        assert nsp_margin(l_op, model.T, model.e, norm, h) == pytest.approx(best)
        if verdict.status == STATUS_UNIQUE:
            assert best > 0.0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "tv1d", "group", "nuclear"]),
        kernel_dim=st.integers(1, 4),
    )
    def test_program_value_equals_the_joint_ic_value(self, seed, kind, kernel_dim):
        # "L alpha in Im Phi^*" is "A_S^T alpha_S = -q": both programs range
        # over the same affine set, which is what lets run_scenario hand its
        # joint value to the null-space check
        phi, l_op, norm, model = nsp_instance(seed, kind, kernel_dim)
        try:
            ctx = ic_context(phi, l_op, model.T)
        except ValueError:
            assume(False)
        joint = minimize_ic_full(ctx, norm, model.e)
        value, gap = standalone_nsp_program(phi, l_op, norm, model)
        assert abs(value - joint.value) <= gap + joint.gap + 1e-12 * (1.0 + value)
        alone = strong_nsp_check(phi, l_op, model.T, model.e, norm)
        reused = strong_nsp_check(
            phi, l_op, model.T, model.e, norm, joint=(joint.value, joint.gap)
        )
        assert reused.status == alone.status

    def test_sampled_minimum_never_below_true_minimum_1d(self):
        # on 1-d kernels the exhaustive value can be recomputed directly
        for seed in range(20):
            r = np.random.default_rng(seed)
            phi = LinearOperator(r.standard_normal((3, 4)))
            x0 = np.zeros(4)
            x0[int(r.integers(4))] = 1.0
            model = l1_model(x0)
            verdict = strong_nsp_check(phi, identity(4), model.T, model.e, l1(4))
            ker = kernel_basis(phi)
            assert ker.dim == 1
            h = ker.basis[:, 0]
            s_proj = h - model.T.project(h)
            vals = []
            for sgn in (1.0, -1.0):
                vals.append(
                    np.abs(sgn * s_proj).sum() - float(model.e @ (sgn * h))
                )
            true_min = min(vals)
            if true_min > 1e-6:
                assert verdict.status == STATUS_UNIQUE
            elif true_min <= 0:
                assert verdict.status == STATUS_VIOLATED


class TestUniquenessFromCertificate:
    def test_certified(self):
        cert = DualCertificate(np.zeros(2), np.zeros(2), 0.5, 0.0)
        assert uniqueness_from_certificate(cert, 0.3).status == STATUS_UNIQUE

    def test_saturated_undecided(self):
        cert = DualCertificate(np.zeros(2), np.zeros(2), 1.0, 0.0)
        assert uniqueness_from_certificate(cert, 0.3).status == STATUS_UNDECIDED

    def test_no_injectivity_undecided(self):
        cert = DualCertificate(np.zeros(2), np.zeros(2), 0.5, 0.0)
        assert uniqueness_from_certificate(cert, 0.0).status == STATUS_UNDECIDED


def separable_uniqueness(cert, model, first_part, norm, phi, l_op):
    """Reference: the certificate criterion weakened for the separable norms
    (l1 and group) on S = V + W, V the inactive blocks that ``first_part``
    names (``separable_split``).  Unique when alpha is a certificate on W,
    dual_norm(P_W alpha) <= 1, stays below 1 on V, and phi is injective on
    ker(L_V^*) = {x : L^* x in T + W}.  The certificate must attain e on
    the model: P_T alpha = e.  The strong null-space check subsumes it."""
    V, W = separable_split(norm, model, first_part)
    miss = np.linalg.norm(model.T.project(cert.alpha) - model.e)
    if miss > 1e-6 * (1.0 + np.linalg.norm(model.e)):
        raise ValueError("the certificate does not attain e on the model")
    sat_v = dual_norm_value(norm, V.project(cert.alpha))
    sat_w = dual_norm_value(norm, W.project(cert.alpha))
    lv_adj = LinearOperator((l_op.entries @ V.projector_matrix()).T)
    c_phi_v = restricted_injectivity_constant(phi, kernel_basis(lv_adj))
    if sat_w <= 1.0 and sat_v < 1.0 and c_phi_v > 0.0:
        return UniquenessVerdict(STATUS_UNIQUE)
    return UniquenessVerdict(STATUS_UNDECIDED)


class TestSeparableUniqueness:
    # u0 supported on the first coordinate: T = span{e_0}, e = e_0
    model = l1_model([1.0, 0.0, 0.0, 0.0])

    def make_cert(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return DualCertificate(
            eta=np.zeros(4),
            alpha=alpha,
            saturation=float(np.max(np.abs(alpha[1:]))),
            source_residual=0.0,
        )

    def test_degenerate_split_reduces_to_plain_criterion(self):
        # V = whole inactive space
        cert = self.make_cert([1.0, 0.6, -0.2, 0.1])
        phi = LinearOperator(np.eye(4))
        verdict = separable_uniqueness(cert, self.model, [1, 2, 3], l1(4), phi, identity(4))
        assert verdict.status == STATUS_UNIQUE

    def test_weakened_margin(self):
        # saturation reaches 1 on W = {2} but V = {1, 3} stays below 1 with
        # injectivity
        cert = self.make_cert([1.0, 0.9, 1.0, 0.0])
        phi = LinearOperator(np.eye(4))
        verdict = separable_uniqueness(cert, self.model, [1, 3], l1(4), phi, identity(4))
        assert verdict.status == STATUS_UNIQUE
        # the plain criterion is undecided on the same certificate
        plain = uniqueness_from_certificate(cert, 1.0)
        assert plain.status == STATUS_UNDECIDED

    def test_non_unique_instance_undecided(self):
        # ker(phi) = span{h} and alpha = (1, 1/2, 1, 1) is a valid
        # certificate, yet every x0 + s h, s in [0, 1], has the norm and the
        # measurements of x0.  phi is injective on ker(L_{V^perp}^*) =
        # span{e_1} but not on ker(L_V^*) = {x : x_1 = 0}, which contains h.
        h = np.array([-1.0, 0.0, 0.5, 0.5])
        phi = LinearOperator(null_space(h[None, :]).T)
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        for s in np.linspace(0.0, 1.0, 5):
            assert norm_value(l1(4), x0 + s * h) == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(phi.apply(x0 + s * h), phi.apply(x0), atol=1e-15)
        alpha = np.array([1.0, 0.5, 1.0, 1.0])
        cert = DualCertificate(phi.apply(alpha), alpha, 1.0, 0.0)
        assert np.allclose(phi.adjoint_apply(cert.eta), alpha)
        verdict = separable_uniqueness(cert, self.model, [1], l1(4), phi, identity(4))
        assert verdict.status == STATUS_UNDECIDED

    def test_no_certificate_on_w_is_undecided(self):
        # alpha meets the criterion on V = {1, 3}, but |alpha_2| = 3.5 on W
        # makes it no certificate: x0 is not even a minimizer, since x0 + s h
        # has the measurements of x0 and the norm 1 - s / 2.  Without its
        # check of W the criterion would certify uniqueness here
        h = np.array([-1.0, 0.0, 0.25, 0.25])
        phi = LinearOperator(null_space(h[None, :]).T)
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        assert norm_value(l1(4), x0 + 0.5 * h) == pytest.approx(0.75, abs=1e-15)
        assert np.allclose(phi.apply(x0 + 0.5 * h), phi.apply(x0), atol=1e-15)
        alpha = np.array([1.0, 0.5, 3.5, 0.5])
        cert = DualCertificate(phi.apply(alpha), alpha, 3.5, 0.0)
        assert np.allclose(phi.adjoint_apply(cert.eta), alpha)
        # ker(L_V^*) = span{e_0, e_2} misses h
        assert restricted_injectivity_constant(phi, Subspace.from_coordinates(4, [0, 2])) > 0
        verdict = separable_uniqueness(cert, self.model, [1, 3], l1(4), phi, identity(4))
        assert verdict.status == STATUS_UNDECIDED
        nsp = strong_nsp_check(phi, identity(4), self.model.T, self.model.e, l1(4))
        assert nsp.status == STATUS_VIOLATED

    def test_certificate_must_attain_e(self):
        cert = self.make_cert([0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="attain"):
            separable_uniqueness(cert, self.model, [1], l1(4), identity(4), identity(4))

    def test_nuclear_rejected(self):
        norm = nuclear(2, 2)
        model = decompose_at(norm, np.array([1.0, 0.0, 0.0, 0.0]))
        cert = self.make_cert([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            separable_uniqueness(cert, model, [1], norm, identity(4), identity(4))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "tv1d", "group"]),
        kernel_dim=st.integers(0, 2),
    )
    def test_whole_inactive_space_matches_plain_criterion(self, seed, kind, kernel_dim):
        phi, l_op, norm, model = nsp_instance(seed, kind, kernel_dim)
        try:
            ctx = ic_context(phi, l_op, model.T)
        except ValueError:
            assume(False)
        cert = certificate(ctx, norm, model.e)
        if norm.kind == "l1":
            parts = range(norm.ambient_dim)
        else:
            parts = range(len(norm.blocks))
        inactive = sorted(set(parts) - set(model.active))
        verdict = separable_uniqueness(cert, model, inactive, norm, phi, l_op)
        assert verdict.status == uniqueness_from_certificate(cert, ctx.c_phi).status

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "tv1d", "group"]),
        kernel_dim=st.integers(0, 3),
        mode=st.sampled_from(["full", "u_only", "zero"]),
    )
    def test_certified_only_where_the_strong_nsp_check_certifies(
        self, seed, kind, kernel_dim, mode
    ):
        # V: every inactive block where alpha is below 1, the largest V the
        # criterion can use
        phi, l_op, norm, model = nsp_instance(seed, kind, kernel_dim)
        try:
            ctx = ic_context(phi, l_op, model.T)
        except ValueError:
            assume(False)
        cert = certificate(ctx, norm, model.e, mode)
        inactive = sorted(set(range(len(norm.blocks))) - set(model.active))
        below = [b for b in inactive if np.linalg.norm(cert.alpha[list(norm.blocks[b])]) < 1.0]
        if separable_uniqueness(cert, model, below, norm, phi, l_op).status == STATUS_UNIQUE:
            verdict = strong_nsp_check(phi, l_op, model.T, model.e, norm)
            assert verdict.status == STATUS_UNIQUE


class TestStabilityConstants:
    def test_total_constant_formula(self):
        assert assemble_total_constant(
            c1=1.0, c2=1.0, c=1.0, eta_norm=2.0, saturation=0.5
        ) == pytest.approx(12.0)

    def test_diverges_at_saturation(self):
        prev = 0.0
        for sat in (0.9, 0.99, 0.999, 0.9999):
            val = assemble_total_constant(1.0, 1.0, 1.0, 2.0, sat)
            assert val > prev
            prev = val
        with pytest.raises(ValueError):
            assemble_total_constant(1.0, 1.0, 1.0, 2.0, 1.0)

    def test_saturated_certificate_rejected(self):
        cert = DualCertificate(np.zeros(3), np.zeros(4), 1.2, 0.0)
        model = l1_model([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            stability_constants(
                ic_context(LinearOperator(np.eye(3, 4)), identity(4), model.T), l1(4), cert, 1.0
            )

    def test_frame_mode_matches_standard_on_orthonormal_analysis(self):
        # a square orthonormal analysis operator is a Parseval frame whose
        # restricted smallest singular value equals sqrt(a) = 1
        r = np.random.default_rng(3)
        q, _ = np.linalg.qr(r.standard_normal((5, 5)))
        l_op = LinearOperator(q.T)  # L^* = q: orthonormal columns
        phi = LinearOperator(r.standard_normal((5, 5)) + 2 * np.eye(5))
        norm = l1(5)
        u0 = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        x0 = np.linalg.solve(q, u0)
        model = decompose_at(norm, l_op.T.apply(x0))
        ctx = ic_context(phi, l_op, model.T)
        cert = certificate(ctx, norm, model.e)
        plain = stability_constants(ctx, norm, cert, 1.0)
        framed = stability_constants(ctx, norm, cert, 1.0, frame=True)
        assert plain.c_l == pytest.approx(1.0, abs=1e-10)
        assert framed.c_l == pytest.approx(plain.c_l, abs=1e-10)

    def test_frame_mode_requires_trivial_kernel(self):
        # L^*: R^4 -> R^3 cannot be a frame analysis operator
        cert = DualCertificate(np.zeros(4), np.zeros(3), 0.1, 0.0)
        model = decompose_at(l1(3), np.array([1.0, 0.0, 0.0]))
        l_op = LinearOperator(np.eye(4, 3))  # L: R^3 -> R^4, L^* = 3x4
        with pytest.raises(ValueError, match="frame"):
            stability_constants(
                ic_context(LinearOperator(np.eye(4)), l_op, model.T), l1(3), cert, 1.0,
                frame=True,
            )


class TestElementaryBounds:
    def test_prediction_bregman_formulas(self):
        breg, pred = prediction_bregman_bounds(0.1, 1.0, 2.0)
        assert breg == pytest.approx(0.4)
        assert pred == pytest.approx(0.4)

    def test_noiseless(self):
        assert prediction_bregman_bounds(0.0, 2.0, 3.0) == (0.0, 0.0)

    def test_coupling_scaling(self):
        b1, _ = prediction_bregman_bounds(0.5, 1.0, 0.0)
        b2, _ = prediction_bregman_bounds(0.5, 2.0, 0.0)
        assert b2 == pytest.approx(b1 / 2.0)

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError):
            prediction_bregman_bounds(0.1, 0.0, 1.0)

    def test_bregman_to_l2(self):
        assert bregman_to_l2(1.0, 0.0, 1.0) == pytest.approx(1.0)
        assert bregman_to_l2(0.0, 0.5, 1.0) == 0.0
        assert bregman_to_l2(0.4, 0.5, 1.0) == pytest.approx(0.8)

    def test_bregman_to_l2_guards(self):
        with pytest.raises(ValueError):
            bregman_to_l2(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bregman_to_l2(-0.1, 0.0, 1.0)


def stability_instance(seed=0, m=6, n=8):
    r = np.random.default_rng(seed)
    phi = LinearOperator(r.standard_normal((m, n)) / np.sqrt(m))
    norm = l1(n)
    x0 = np.zeros(n)
    x0[1] = 2.0
    x0[5] = -1.5
    model = decompose_at(norm, x0)
    ctx = ic_context(phi, identity(n), model.T)
    cert = certificate(ctx, norm, model.e)
    bound = stability_constants(ctx, norm, cert, 1.0)
    return ctx, norm, x0, cert, bound


class TestVerifyBounds:
    def test_all_pass_across_noise_draws(self):
        ctx, norm, x0, cert, bound = stability_instance()
        phi, l_op = ctx.phi, ctx.l_op
        c = 1.0
        for eps in (1e-3, 1e-2, 1e-1):
            for draw in range(5):
                w = noise_in_ball(np.random.default_rng([draw, int(eps * 1e4)]), 6, eps)
                y = phi.apply(x0) + w
                p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=c * eps)
                report = solve_penalized(p, SolverOptions(tol=1e-9))
                chk = verify_bounds(ctx, norm, x0, cert, eps, report, bound)
                assert chk.preconditions_ok
                assert chk.pass_all

    def test_failed_comparison_recorded_not_raised(self):
        # shrink the assembled constant until the l2 check cannot hold
        ctx, norm, x0, cert, bound = stability_instance()
        phi, l_op = ctx.phi, ctx.l_op
        tiny = type(bound)(
            c=bound.c, eta_norm=bound.eta_norm, saturation=bound.saturation,
            c_phi=bound.c_phi, c_l=bound.c_l, c_a=bound.c_a,
            phi_norm=bound.phi_norm, c1=bound.c1, c2=bound.c2, total_c=1e-9,
        )
        eps = 0.1
        y = phi.apply(x0) + noise_in_ball(np.random.default_rng(1), 6, eps)
        p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=eps)
        report = solve_penalized(p, SolverOptions(tol=1e-9))
        chk = verify_bounds(ctx, norm, x0, cert, eps, report, tiny)
        assert chk.preconditions_ok
        assert not chk.l2.passed
        assert not chk.pass_all

    def test_mis_scaled_lambda_flagged(self):
        ctx, norm, x0, cert, bound = stability_instance()
        phi, l_op = ctx.phi, ctx.l_op
        eps = 0.01
        y = phi.apply(x0) + noise_in_ball(np.random.default_rng(0), 6, eps)
        p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=0.5)
        report = solve_penalized(p, SolverOptions(tol=1e-9))
        chk = verify_bounds(ctx, norm, x0, cert, eps, report, bound)
        assert not chk.preconditions_ok
        assert "lambda" in chk.reason
        assert not chk.pass_all

    def test_noiseless_check_needs_a_vanishing_penalty(self):
        ctx, norm, x0, cert, bound = stability_instance()
        phi, l_op = ctx.phi, ctx.l_op
        p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=phi.apply(x0), lam=0.01)
        report = solve_penalized(p, SolverOptions(tol=1e-9))
        chk = verify_bounds(ctx, norm, x0, cert, 0.0, report, bound)
        assert not chk.preconditions_ok
        assert chk.reason == "epsilon = 0 requires a vanishing penalty"
        assert not chk.pass_all

    def test_noise_outside_ball_flagged(self):
        ctx, norm, x0, cert, bound = stability_instance()
        phi, l_op = ctx.phi, ctx.l_op
        eps = 0.01
        y = phi.apply(x0) + 10 * eps * np.ones(6) / np.sqrt(6)
        p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=eps)
        report = solve_penalized(p, SolverOptions(tol=1e-9))
        chk = verify_bounds(ctx, norm, x0, cert, eps, report, bound)
        assert not chk.preconditions_ok
        assert "noise" in chk.reason

    def test_separable_margin_substitution_still_passes(self):
        # substitute the V-part margin and injectivity constant; on this
        # instance the weaker-margin constants must still dominate the error
        ctx, norm, x0, cert, bound = stability_instance(seed=4)
        phi, l_op = ctx.phi, ctx.l_op
        model = decompose_at(norm, x0)
        inactive = [i for i in range(8) if i not in model.active]
        # V carries the attaining coordinates: its margin equals the full one
        sat_by_coord = np.abs(cert.alpha)
        v_coords = sorted(inactive, key=lambda i: -sat_by_coord[i])[:4]
        v = Subspace.from_coordinates(8, sorted(v_coords))
        from decoreg.norms import dual_norm_value
        from decoreg.linops import kernel_basis, restricted_injectivity_constant

        sat_v = dual_norm_value(norm, v.project(cert.alpha))
        assert sat_v == pytest.approx(cert.saturation, abs=1e-12)
        # injectivity on ker(L_V^*) = {x : L^* x in T + W}
        lv_adj = LinearOperator((l_op.entries @ v.projector_matrix()).T)
        c_phi_v = restricted_injectivity_constant(phi, kernel_basis(lv_adj))
        assert c_phi_v > 0
        sub_cert = DualCertificate(cert.eta, cert.alpha, sat_v, cert.source_residual)
        sub_bound = stability_constants(ctx, norm, sub_cert, 1.0)
        patched = type(sub_bound)(
            c=sub_bound.c,
            eta_norm=sub_bound.eta_norm,
            saturation=sat_v,
            c_phi=c_phi_v,
            c_l=sub_bound.c_l,
            c_a=sub_bound.c_a,
            phi_norm=sub_bound.phi_norm,
            c1=1.0 / c_phi_v,
            c2=(sub_bound.phi_norm + c_phi_v) / (sub_bound.c_l * c_phi_v * sub_bound.c_a),
            total_c=assemble_total_constant(
                1.0 / c_phi_v,
                (sub_bound.phi_norm + c_phi_v)
                / (sub_bound.c_l * c_phi_v * sub_bound.c_a),
                1.0,
                sub_bound.eta_norm,
                sat_v,
            ),
        )
        for eps in (1e-2, 1e-1):
            y = phi.apply(x0) + noise_in_ball(np.random.default_rng(5), 6, eps)
            p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=eps)
            report = solve_penalized(p, SolverOptions(tol=1e-9))
            chk = verify_bounds(ctx, norm, x0, sub_cert, eps, report, patched)
            assert chk.pass_all

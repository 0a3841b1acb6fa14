import numpy as np
import pytest

from decoreg.certificates import DualCertificate, build_certificate
from decoreg.guarantees import (
    STATUS_SAMPLED,
    STATUS_UNDECIDED,
    STATUS_UNIQUE,
    STATUS_VIOLATED,
    assemble_total_constant,
    bregman_to_l2,
    prediction_bregman_bounds,
    separable_uniqueness,
    stability_constants,
    strong_nsp_check,
    uniqueness_from_certificate,
    verify_bounds,
)
from decoreg.linops import LinearOperator, Subspace, identity
from decoreg.norms import decompose_at, group, l1, nuclear
from decoreg.solver import Problem, SolverOptions, solve_penalized
from decoreg.experiments import noise_in_ball

rng = np.random.default_rng(400)


def l1_model(u0):
    u0 = np.asarray(u0, dtype=float)
    return decompose_at(l1(u0.size), u0)


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

    def test_multidimensional_kernel_reports_sampling(self):
        r = np.random.default_rng(17)
        phi = LinearOperator(r.standard_normal((4, 7)) / 2.0)
        x0 = np.zeros(7)
        x0[0] = 2.0
        model = l1_model(x0)
        verdict = strong_nsp_check(phi, identity(7), model.T, model.e, l1(7))
        assert verdict.status in (STATUS_SAMPLED, STATUS_VIOLATED, STATUS_UNDECIDED)
        if verdict.status == STATUS_VIOLATED:
            w = verdict.witness
            assert np.linalg.norm(phi.apply(w)) <= 1e-9

    def test_sampled_minimum_never_below_true_minimum_1d(self):
        # on 1-d kernels the exhaustive value can be recomputed directly
        for seed in range(20):
            r = np.random.default_rng(seed)
            phi = LinearOperator(r.standard_normal((3, 4)))
            x0 = np.zeros(4)
            x0[int(r.integers(4))] = 1.0
            model = l1_model(x0)
            verdict = strong_nsp_check(phi, identity(4), model.T, model.e, l1(4))
            from decoreg.linops import kernel_basis

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


class TestSeparableUniqueness:
    def make_cert(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return DualCertificate(
            eta=np.zeros(4),
            alpha=alpha,
            saturation=float(np.max(np.abs(alpha[1:]))),
            source_residual=0.0,
        )

    def test_degenerate_split_reduces_to_plain_criterion(self):
        # u0 supported on the first coordinate; V = whole inactive space
        alpha = [1.0, 0.6, -0.2, 0.1]
        cert = self.make_cert(alpha)
        v = Subspace.from_coordinates(4, [1, 2, 3])
        w = Subspace.zero(4)
        phi = LinearOperator(np.eye(4))
        verdict = separable_uniqueness(cert, v, w, l1(4), phi, identity(4))
        assert verdict.status == STATUS_UNIQUE

    def test_weakened_margin(self):
        # saturation reaches 1 on W but V stays below 1 with injectivity
        alpha = [1.0, 0.9, 1.0, 0.0]
        cert = self.make_cert(alpha)
        v = Subspace.from_coordinates(4, [1, 3])
        w = Subspace.from_coordinates(4, [2])
        phi = LinearOperator(np.eye(4))
        verdict = separable_uniqueness(cert, v, w, l1(4), phi, identity(4))
        assert verdict.status == STATUS_UNIQUE
        # the plain criterion is undecided on the same certificate
        plain = uniqueness_from_certificate(cert, 1.0)
        assert plain.status == STATUS_UNDECIDED

    def test_nuclear_rejected(self):
        cert = self.make_cert([1.0, 0.0, 0.0, 0.0])
        v = Subspace.from_coordinates(4, [1])
        w = Subspace.from_coordinates(4, [2, 3])
        with pytest.raises(ValueError):
            separable_uniqueness(cert, v, w, nuclear(2, 2), identity(4), identity(4))

    def test_partition_mismatch_rejected(self):
        cert = self.make_cert([1.0, 0.5, 0.5, 0.5])
        v = Subspace.from_coordinates(4, [1])
        w = Subspace.from_coordinates(4, [2])  # misses coordinate 3
        with pytest.raises(ValueError):
            separable_uniqueness(cert, v, w, l1(4), identity(4), identity(4))

    def test_group_split_may_not_cut_blocks(self):
        norm = group([[0, 1], [2, 3]])
        cert = DualCertificate(
            eta=np.zeros(4),
            alpha=np.array([0.6, 0.0, 0.5, 0.0]),
            saturation=0.78,
            source_residual=0.0,
        )
        v = Subspace.from_coordinates(4, [0])
        w = Subspace.from_coordinates(4, [1, 2, 3])
        with pytest.raises(ValueError):
            separable_uniqueness(cert, v, w, norm, identity(4), identity(4))


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
                LinearOperator(np.eye(3, 4)),
                identity(4),
                l1(4),
                model.T,
                cert,
                1.0,
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
        cert = build_certificate(phi, l_op, norm, model.T, model.e)
        plain = stability_constants(phi, l_op, norm, model.T, cert, 1.0)
        framed = stability_constants(
            phi, l_op, norm, model.T, cert, 1.0, frame_mode=1.0
        )
        assert plain.c_l == pytest.approx(1.0, abs=1e-10)
        assert framed.c_l == pytest.approx(plain.c_l, abs=1e-10)

    def test_frame_mode_requires_trivial_kernel(self):
        # L^*: R^4 -> R^3 cannot be a frame analysis operator
        cert = DualCertificate(np.zeros(4), np.zeros(3), 0.1, 0.0)
        model = decompose_at(l1(3), np.array([1.0, 0.0, 0.0]))
        l_op = LinearOperator(np.eye(4, 3))  # L: R^3 -> R^4, L^* = 3x4
        with pytest.raises(ValueError, match="frame"):
            stability_constants(
                LinearOperator(np.eye(4)),
                l_op,
                l1(3),
                model.T,
                cert,
                1.0,
                frame_mode=1.0,
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
    cert = build_certificate(phi, identity(n), norm, model.T, model.e)
    bound = stability_constants(phi, identity(n), norm, model.T, cert, 1.0)
    return phi, identity(n), norm, x0, cert, bound


class TestVerifyBounds:
    def test_all_pass_across_noise_draws(self):
        phi, l_op, norm, x0, cert, bound = stability_instance()
        c = 1.0
        for eps in (1e-3, 1e-2, 1e-1):
            for draw in range(5):
                w = noise_in_ball(np.random.default_rng([draw, int(eps * 1e4)]), 6, eps)
                y = phi.apply(x0) + w
                p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=c * eps)
                report = solve_penalized(p, SolverOptions(tol=1e-9))
                chk = verify_bounds(phi, l_op, norm, x0, cert, eps, c, report, bound)
                assert chk.preconditions_ok
                assert chk.pass_all

    def test_failed_comparison_recorded_not_raised(self):
        # shrink the assembled constant until the l2 check cannot hold
        phi, l_op, norm, x0, cert, bound = stability_instance()
        tiny = type(bound)(
            c=bound.c, eta_norm=bound.eta_norm, saturation=bound.saturation,
            c_phi=bound.c_phi, c_l=bound.c_l, c_a=bound.c_a,
            phi_norm=bound.phi_norm, c1=bound.c1, c2=bound.c2, total_c=1e-9,
        )
        eps = 0.1
        y = phi.apply(x0) + noise_in_ball(np.random.default_rng(1), 6, eps)
        p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=eps)
        report = solve_penalized(p, SolverOptions(tol=1e-9))
        chk = verify_bounds(
            phi, l_op, norm, x0, cert, eps, 1.0, report, tiny, slack=0.0
        )
        assert chk.preconditions_ok
        assert not chk.l2.passed
        assert not chk.pass_all

    def test_mis_scaled_lambda_flagged(self):
        phi, l_op, norm, x0, cert, bound = stability_instance()
        eps = 0.01
        y = phi.apply(x0) + noise_in_ball(np.random.default_rng(0), 6, eps)
        p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=0.5)
        report = solve_penalized(p, SolverOptions(tol=1e-9))
        chk = verify_bounds(phi, l_op, norm, x0, cert, eps, 1.0, report, bound)
        assert not chk.preconditions_ok
        assert "lambda" in chk.reason
        assert not chk.pass_all

    def test_noise_outside_ball_flagged(self):
        phi, l_op, norm, x0, cert, bound = stability_instance()
        eps = 0.01
        y = phi.apply(x0) + 10 * eps * np.ones(6) / np.sqrt(6)
        p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=eps)
        report = solve_penalized(p, SolverOptions(tol=1e-9))
        chk = verify_bounds(phi, l_op, norm, x0, cert, eps, 1.0, report, bound)
        assert not chk.preconditions_ok
        assert "noise" in chk.reason

    def test_separable_margin_substitution_still_passes(self):
        # substitute the V-part margin and injectivity constant; on this
        # instance the weaker-margin constants must still dominate the error
        phi, l_op, norm, x0, cert, bound = stability_instance(seed=4)
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
        v_perp = v.complement()
        ls_adj = LinearOperator((l_op.entries @ v_perp.projector_matrix()).T)
        c_phi_v = restricted_injectivity_constant(phi, kernel_basis(ls_adj))
        assert c_phi_v > 0
        sub_cert = DualCertificate(cert.eta, cert.alpha, sat_v, cert.source_residual)
        sub_bound = stability_constants(
            phi, l_op, norm, model.T, sub_cert, 1.0
        )
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
            chk = verify_bounds(
                phi, l_op, norm, x0, sub_cert, eps, 1.0, report, patched
            )
            assert chk.pass_all

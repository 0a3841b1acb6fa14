from pathlib import Path

import numpy as np
import pytest

from decoreg.certificates import (
    DualCertificate,
    build_certificate,
    certificate_quality,
    write_certificate_csv,
)
from decoreg.linops import (
    LinearOperator,
    identity,
    kernel_basis,
    restricted_injectivity_constant,
)
from decoreg.norms import decompose_at, l1, group, nuclear, subdiff_membership
from decoreg.solver import (
    ICSolution,
    Problem,
    SolverOptions,
    ic_context,
    ic_value,
    minimize_ic_full,
    minimize_ic_u,
    solve_penalized,
)

rng = np.random.default_rng(31)


def read_certificate_csv(path) -> DualCertificate:
    """Read a certificate back; every row ``write_certificate_csv`` writes is
    required.  The file stores no separate IC value: the saturation stands
    in for it."""
    rows: dict[str, list[str]] = {}
    for line in Path(path).read_text().strip().splitlines():
        parts = line.split(",")
        rows[parts[0]] = parts[1:]
    try:
        converged = rows["ic_converged"][0]
        if converged not in ("True", "False"):
            raise ValueError(f"{path}: ic_converged is {converged!r}, not True or False")
        saturation = float(rows["saturation"][0])
        return DualCertificate(
            eta=np.array([float(v) for v in rows["eta"]]),
            alpha=np.array([float(v) for v in rows["alpha"]]),
            saturation=saturation,
            source_residual=float(rows["source_residual"][0]),
            ic_converged=converged == "True",
            ic_value=saturation,
            ic_gap=float(rows["ic_gap"][0]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing certificate field {exc}") from exc


def ic_solution(ctx, norm, e, mode="full", opts=None):
    """The irrepresentability solution of a certificate mode: the joint
    minimizer ("full"), the u-only minimizer ("u_only") or (u, z) = 0
    ("zero"), as the scenario analysis picks it."""
    if mode == "zero":
        zeros = (np.zeros(ctx.l_op.cols), np.zeros(ctx.phi.rows))
        return ICSolution(*zeros, ic_value(ctx, norm, e, *zeros), 0.0, True)
    program = minimize_ic_full if mode == "full" else minimize_ic_u
    return program(ctx, norm, e, opts)


def certificate(ctx, norm, e, mode="full", opts=None):
    return build_certificate(ctx, norm, e, ic_solution(ctx, norm, e, mode, opts))


def random_orthonormal(n, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return LinearOperator(q)


def certificate_instance(seed, m=6, n=8, support=2):
    """Random compressed-sensing style instance with a sparse generator."""
    r = np.random.default_rng(seed)
    phi = LinearOperator(r.standard_normal((m, n)) / np.sqrt(m))
    norm = l1(n)
    x0 = np.zeros(n)
    idx = r.choice(n, size=support, replace=False)
    x0[idx] = r.standard_normal(support) + np.sign(r.standard_normal(support))
    model = decompose_at(norm, x0)
    return phi, identity(n), norm, x0, model


class TestBuildCertificate:
    def test_orthonormal_design_closed_form(self):
        phi = random_orthonormal(4, seed=2)
        norm = l1(4)
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        model = decompose_at(norm, x0)
        cert = certificate(ic_context(phi, identity(4), model.T), norm, model.e)
        assert np.allclose(cert.eta, phi.entries[:, 0], atol=1e-9)
        assert np.allclose(cert.alpha, model.e, atol=1e-9)
        assert cert.saturation == pytest.approx(0.0, abs=1e-9)

    def test_injectivity_failure_raises(self):
        phi = LinearOperator(np.zeros((2, 2)))
        norm = l1(2)
        model = decompose_at(norm, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ic_context(phi, identity(2), model.T)

    def test_built_certificates_satisfy_source_condition(self):
        for seed in range(10):
            phi, l_op, norm, x0, model = certificate_instance(seed)
            cert = certificate(ic_context(phi, l_op, model.T), norm, model.e)
            assert cert.source_residual <= 1e-7
            l_alpha = l_op.apply(cert.alpha)
            range_resid = np.linalg.norm(phi.adjoint_apply(cert.eta) - l_alpha)
            assert range_resid <= 1e-7 * (1.0 + np.linalg.norm(l_alpha))
            if cert.saturation <= 1.0:
                assert subdiff_membership(norm, l_op.T.apply(x0), cert.alpha, tol=1e-7)

    def test_model_part_matches_direction(self):
        phi, l_op, norm, x0, model = certificate_instance(7)
        cert = certificate(ic_context(phi, l_op, model.T), norm, model.e)
        assert np.linalg.norm(model.T.project(cert.alpha) - model.e) <= 1e-9

    def test_saturation_recomputable(self):
        phi, l_op, norm, x0, model = certificate_instance(3)
        cert = certificate(ic_context(phi, l_op, model.T), norm, model.e)
        from decoreg.norms import dual_norm_value

        s = model.T.complement()
        assert cert.saturation == pytest.approx(
            dual_norm_value(norm, s.project(cert.alpha)), abs=1e-12
        )

    def test_modes_order_saturation(self):
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            assert seed < 300, "instance generation starved"
            phi, l_op, norm, x0, model = certificate_instance(seed, m=6, n=8)
            try:
                ctx = ic_context(phi, l_op, model.T)
                full, u_only, zero = (
                    certificate(ctx, norm, model.e, mode) for mode in ("full", "u_only", "zero")
                )
            except ValueError:
                continue
            assert full.saturation <= u_only.saturation + 1e-7
            assert u_only.saturation <= zero.saturation + 1e-7
            checked += 1

    def test_carries_its_program_value_and_gap(self):
        phi, l_op, norm, _, model = certificate_instance(3)
        T, e = model.T, model.e
        ctx = ic_context(phi, l_op, T)
        for mode in ("full", "u_only", "zero"):
            sol = ic_solution(ctx, norm, e, mode)
            cert = build_certificate(ctx, norm, e, sol)
            assert cert.ic_value == sol.value
            assert cert.ic_gap == sol.gap
            assert cert.ic_converged == sol.converged
            # P_S alpha is the program's vector: the value is the saturation
            assert cert.ic_value == pytest.approx(cert.saturation, abs=1e-12)

    def test_saturated_certificate_still_returned(self):
        # starve the measurements until the coefficient exceeds one
        found = False
        for seed in range(40):
            phi, l_op, norm, x0, model = certificate_instance(seed, m=3, n=8, support=2)
            try:
                cert = certificate(ic_context(phi, l_op, model.T), norm, model.e)
            except ValueError:
                continue
            if cert.saturation >= 1.0:
                found = True
                assert certificate_quality(cert) <= 0.0
                break
        assert found

    def test_group_and_nuclear_certificates(self):
        r = np.random.default_rng(5)
        phi = LinearOperator(r.standard_normal((8, 9)) / np.sqrt(8))
        norm = group([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        x0 = np.zeros(9)
        x0[:3] = [1.0, -2.0, 0.5]
        model = decompose_at(norm, x0)
        cert = certificate(ic_context(phi, identity(9), model.T), norm, model.e)
        assert cert.source_residual <= 1e-7
        assert np.linalg.norm(model.T.project(cert.alpha) - model.e) <= 1e-9

        nuc = nuclear(3, 3)
        phi2 = LinearOperator(r.standard_normal((8, 9)) / np.sqrt(8))
        u0 = np.outer(r.standard_normal(3), r.standard_normal(3)).reshape(-1, order="F")
        model2 = decompose_at(nuc, u0)
        cert2 = certificate(ic_context(phi2, identity(9), model2.T), nuc, model2.e)
        assert cert2.source_residual <= 1e-7
        assert np.linalg.norm(model2.T.project(cert2.alpha) - model2.e) <= 1e-9


class TestCertificateQuality:
    def test_zero_saturation(self):
        cert = DualCertificate(np.zeros(2), np.zeros(2), 0.0, 0.0)
        assert certificate_quality(cert) == 1.0

    def test_full_saturation(self):
        cert = DualCertificate(np.zeros(2), np.zeros(2), 1.0, 0.0)
        assert certificate_quality(cert) == 0.0


class TestUniquenessCrossCheck:
    def test_certified_instances_have_unique_minimizers(self):
        # noiseless data generated by x0; certificate margin + injectivity
        # imply restart agreement of the solver
        from decoreg.guarantees import STATUS_UNIQUE, uniqueness_from_certificate

        for seed in (1, 4, 9):
            phi, l_op, norm, x0, model = certificate_instance(seed)
            cert = certificate(ic_context(phi, l_op, model.T), norm, model.e)
            if cert.saturation >= 1.0:
                continue
            s = model.T.complement()
            ls_adj = LinearOperator((l_op.entries @ s.projector_matrix()).T)
            c_phi = restricted_injectivity_constant(phi, kernel_basis(ls_adj))
            verdict = uniqueness_from_certificate(cert, c_phi)
            if verdict.status != STATUS_UNIQUE:
                continue
            y = phi.apply(x0)
            p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=1e-3)
            r1 = solve_penalized(p, SolverOptions(tol=1e-10))
            r2 = solve_penalized(
                p,
                SolverOptions(
                    tol=1e-10, init=np.random.default_rng(99).standard_normal(8)
                ),
            )
            assert np.linalg.norm(r1.x_star - r2.x_star) <= 1e-6 * (
                1 + np.linalg.norm(x0)
            )


class TestCsv:
    def test_roundtrip(self, tmp_path):
        cert = DualCertificate(
            eta=np.array([1.0, -0.25]),
            alpha=np.array([0.5, 0.0, 1.0]),
            saturation=0.5,
            source_residual=1e-9,
        )
        path = tmp_path / "cert.csv"
        write_certificate_csv(cert, path)
        back = read_certificate_csv(path)
        assert np.array_equal(back.eta, cert.eta)
        assert np.array_equal(back.alpha, cert.alpha)
        assert back.saturation == cert.saturation
        assert back.source_residual == cert.source_residual
        assert back.ic_converged and back.ic_gap == 0.0

        # a certificate whose program ran out of iterations must read back
        # as unconverged, with its gap; l1 programs are exact LPs, so the
        # iteration budget only binds for the group norm's splitting
        r = np.random.default_rng(5)
        phi = LinearOperator(r.standard_normal((8, 9)) / np.sqrt(8))
        norm = group([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        x0 = np.zeros(9)
        x0[:3] = [1.0, -2.0, 0.5]
        model = decompose_at(norm, x0)
        short = certificate(
            ic_context(phi, identity(9), model.T), norm, model.e, opts=SolverOptions(max_iter=3)
        )
        assert not short.ic_converged and short.ic_gap > 0
        write_certificate_csv(short, path)
        back = read_certificate_csv(path)
        assert back.ic_converged is False
        assert back.ic_gap == short.ic_gap
        assert back.saturation == short.saturation
        assert np.array_equal(back.alpha, short.alpha)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("eta,1.0\nsaturation,0.5\n")
        with pytest.raises(ValueError):
            read_certificate_csv(path)

    @pytest.mark.parametrize("dropped", ["ic_gap", "ic_converged"])
    def test_ic_rows_required(self, tmp_path, dropped):
        cert = DualCertificate(np.zeros(2), np.zeros(2), 0.5, 0.0)
        path = tmp_path / "cert.csv"
        write_certificate_csv(cert, path)
        kept = [
            line for line in path.read_text().splitlines()
            if not line.startswith(dropped + ",")
        ]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match=dropped):
            read_certificate_csv(path)

    def test_ic_converged_must_be_boolean(self, tmp_path):
        cert = DualCertificate(np.zeros(2), np.zeros(2), 0.5, 0.0)
        path = tmp_path / "cert.csv"
        write_certificate_csv(cert, path)
        path.write_text(path.read_text().replace("ic_converged,True", "ic_converged,yes"))
        with pytest.raises(ValueError, match="ic_converged"):
            read_certificate_csv(path)

"""Tests for linear inversion, the profile-scan solver, block solve and oracle."""

import math

import numpy as np
import pytest

from sctomo import invert
from sctomo.errors import (DimensionMismatch, InvalidRange,
                           StructuralSingularity)
from sctomo.forward import NoiseModel, predicted_statistics, simulate_counts
from sctomo.invert import (SolverOptions, block_solve_v, grid_oracle,
                           linear_invert, objective_eval, polish, reconstruct)
from sctomo.model import circular_distance, qubit_state, vtype_state
from sctomo.protocol import (pack_values, qubit_unknowns, scenario,
                             vtype_unknowns, with_unknown_phase)
from sctomo.validation import max_param_error, sample_truth


def exact_counts(name, state, unknowns):
    return predicted_statistics(scenario(name), state, unknowns)


def test_linear_invert_roundtrip():
    truth = qubit_state(0.6, 0.4, 0.3, 1.0)
    counts = exact_counts("A", truth, None)
    result = linear_invert(counts, scenario("A"))
    assert np.allclose(result.state.populations, truth.populations, atol=1e-10)
    assert result.state.coherences[0] == pytest.approx(0.3, abs=1e-10)
    assert circular_distance(result.state.phases[0], 1.0) < 1e-10
    assert result.phase_undefined == ()


def test_linear_invert_zero_coherence_flags_phase():
    truth = qubit_state(0.6, 0.4, 0.0, 0.0)
    result = linear_invert(exact_counts("A", truth, None), scenario("A"))
    assert result.phase_undefined == ("gamma",)
    assert result.state.phases[0] == 0.0
    assert np.allclose(result.state.populations, (0.6, 0.4), atol=1e-10)


def test_linear_invert_scale_invariance():
    truth = qubit_state(600.0, 400.0, 300.0, 1.0)
    result = linear_invert(exact_counts("A", truth, None), scenario("A"))
    n = result.state.trace
    assert n == pytest.approx(1000.0, rel=1e-10)
    assert result.state.populations[0] / n == pytest.approx(0.6, abs=1e-12)
    assert result.state.coherences[0] / n == pytest.approx(0.3, abs=1e-12)


def test_linear_invert_needs_known_rotations():
    with pytest.raises(InvalidRange):
        linear_invert(np.zeros(5), scenario("B"))


def test_objective_zero_at_truth():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    counts = exact_counts("B", truth, unknowns)
    x = pack_values(scenario("B").unknown_names, truth, unknowns)
    f, grad = objective_eval(x, counts, scenario("B"))
    assert f < 1e-20
    assert np.abs(grad).max() < 1e-9


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(51)
    proto = scenario("B")
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    counts = exact_counts("B", truth, qubit_unknowns(lam_c=1.3))
    for kind in ("least_squares", "poisson_mle"):
        for _ in range(5):
            x = np.array([rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.3),
                          rng.uniform(0.2, 0.8), rng.uniform(0.5, 2.5),
                          rng.uniform(0, 2 * np.pi)])
            f0, grad = objective_eval(x, counts, proto, kind)
            fd = np.empty_like(x)
            for k in range(x.size):
                h = 1e-7 * max(1, abs(x[k]))
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fp, _ = objective_eval(xp, counts, proto, kind)
                fm, _ = objective_eval(xm, counts, proto, kind)
                fd[k] = (fp - fm) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(grad - fd).max() / scale < 1e-6


def test_perturbed_count_increases_objective():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    counts = exact_counts("B", truth, unknowns)
    x = pack_values(scenario("B").unknown_names, truth, unknowns)
    bumped = counts.copy()
    bumped[2] += 0.01
    f, _ = objective_eval(x, bumped, scenario("B"))
    assert f > 1e-6


def test_objective_checks_its_counts():
    proto = scenario("B")
    x = np.array([0.55, 0.45, 0.2, 1.3, 2.0])
    with pytest.raises(DimensionMismatch):
        objective_eval(x, np.array([0.5]), proto)
    counts = np.full(5, 0.3)
    counts[2] = np.nan
    with pytest.raises(InvalidRange):
        objective_eval(x, counts, proto)


def test_poisson_objective_infinite_for_nonpositive_model():
    proto = scenario("B")
    counts = np.full(5, 0.3)
    # a pure-|0> model point drives the unrotated statistic to zero
    x = np.array([1.0, 0.0, 0.0, 1.3, 0.0])
    f, grad = objective_eval(x, counts, proto, "poisson_mle")
    assert math.isinf(f)
    assert np.all(grad == 0.0)


def test_reconstruct_scenario_b_example():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    counts = exact_counts("B", truth, unknowns)
    result = reconstruct(counts, scenario("B"))
    expected = pack_values(scenario("B").unknown_names, truth, unknowns)
    assert result.converged
    assert max_param_error(result.names, result.x, expected) < 1e-6
    assert result.residual < 1e-15
    assert result.gauge == "controls-known"
    assert result.psd_clip == 0.0
    assert result.physicality > 0


def test_reconstruct_reports_twin_canonically():
    # a truth with strength above pi is indistinguishable from its reflected
    # twin on this protocol; the canonical (lam <= pi) member is reported
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=2 * np.pi - 1.3)
    counts = exact_counts("B", truth, unknowns)
    result = reconstruct(counts, scenario("B"))
    assert result.x[3] == pytest.approx(1.3, abs=1e-6)
    assert circular_distance(result.x[4], 2.0 + np.pi) < 1e-6


def test_reconstruct_flags_singular_locus():
    # phase at the sin+cos zero locus: Jacobian singular at the solution
    truth = qubit_state(0.55, 0.45, 0.2, 3 * np.pi / 4)
    unknowns = qubit_unknowns(lam_c=1.3)
    counts = exact_counts("B", truth, unknowns)
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        result = reconstruct(counts, scenario("B"))
    assert result.singular_at_solution or not result.converged


def test_reconstruct_poisson_mle():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    counts = simulate_counts(truth, unknowns, scenario("B"),
                             NoiseModel("poisson", shots=10 ** 6, seed=3))
    result = reconstruct(counts, scenario("B"),
                         SolverOptions(objective="poisson_mle"))
    expected = pack_values(scenario("B").unknown_names, truth, unknowns)
    assert result.converged
    assert max_param_error(result.names, result.x, expected) < 5e-2
    assert result.residual >= 0.0


def test_reconstruct_rejects_non_finite_counts():
    counts = np.array([0.3, 0.2, np.nan, 0.25, 0.1])
    with pytest.raises(InvalidRange, match="finite"):
        reconstruct(counts, scenario("B"))
    counts[2] = np.inf
    with pytest.raises(InvalidRange, match="finite"):
        reconstruct(counts, scenario("B"))


def test_reconstruct_refuses_structurally_singular_protocol():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3, lam_z=1.1)
    counts = predicted_statistics(scenario("C"), truth, unknowns)
    with pytest.raises(StructuralSingularity, match="C-alt"):
        reconstruct(counts, scenario("C"))


def test_reconstruct_c_alt_roundtrip():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3, lam_z=1.1)
    proto = scenario("C-alt")
    counts = predicted_statistics(proto, truth, unknowns)
    result = reconstruct(counts, proto)
    expected = pack_values(proto.unknown_names, truth, unknowns)
    assert result.converged
    assert max_param_error(result.names, result.x, expected) < 1e-5


def test_block_solve_matches_joint():
    # known control phases, then unknown ones (the beta parametrization)
    rng = np.random.default_rng(52)
    state, unknowns = sample_truth("V", rng)
    for proto in (scenario("V"), with_unknown_phase(scenario("V"))):
        counts = predicted_statistics(proto, state, unknowns)
        joint = reconstruct(counts, proto)
        block = block_solve_v(counts, proto)
        assert max_param_error(proto.unknown_names, block.x, joint.x) < 1e-6


@pytest.mark.filterwarnings("ignore::sctomo.errors.SingularAtSolutionWarning")
def test_block_solve_zero_02_coherence():
    proto = scenario("V")
    state = vtype_state(0.42, 0.33, 0.25, 0.12, 0.0, 0.08, 0.9, 0.0, 1.4)
    unknowns = vtype_unknowns(1.2, 1.7)
    counts = predicted_statistics(proto, state, unknowns)
    result = block_solve_v(counts, proto)
    assert "gamma02" in result.phase_undefined
    assert result.state.populations == pytest.approx(state.populations,
                                                     abs=1e-6)
    assert result.state.coherences[0] == pytest.approx(0.12, abs=1e-6)
    assert result.state.coherences[2] == pytest.approx(0.08, abs=1e-6)


def test_block_three_sensitive_to_strength_errors():
    # forward sensitivity probe: with the estimated state held, a 0.1 error
    # in either strength leaves a strictly positive block-3 residual
    # (settings 9-10)
    from sctomo.forward import ProtocolLayout
    from sctomo.invert import _objective_values
    proto = scenario("V")
    state = vtype_state(0.4, 0.35, 0.25, 0.1, 0.11, 0.09, 0.9, 2.2, 1.4)
    unknowns = vtype_unknowns(1.2, 1.7)
    counts = predicted_statistics(proto, state, unknowns)
    good = pack_values(proto.unknown_names, state, unknowns)
    layout = ProtocolLayout(proto)

    def block3_residual(x):
        stats = layout.statistics(x[None, :])[:, 9:11]
        return float(_objective_values(stats, counts[9:11],
                                       "least_squares")[0])

    assert block3_residual(good) < 1e-20
    for lam in ("lam1", "lam2"):
        bad = good.copy()
        bad[proto.unknown_names.index(lam)] += 0.1
        assert block3_residual(bad) > 1e-6


def test_grid_oracle_scenario_b():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    proto = scenario("B")
    counts = exact_counts("B", truth, unknowns)
    expected = pack_values(proto.unknown_names, truth, unknowns)
    oracle = grid_oracle(counts, proto, grid=15, refine_levels=4)
    assert max_param_error(proto.unknown_names, oracle.values, expected) < 1e-3
    out = polish(counts, proto, oracle.values)
    assert out.f < 1e-16
    assert max_param_error(proto.unknown_names, out.x, expected) < 1e-8


def test_polish_box_covers_start():
    # criterion 6's seed-106 B truth #2: rho00 lies above twice the largest
    # count, outside a magnitude box taken from the counts alone
    truth = qubit_state(0.7548124626278403, 0.2451875373721597,
                        0.4024406084746919, 2.7106494081574346)
    unknowns = qubit_unknowns(lam_c=0.8222451317939832)
    proto = scenario("B")
    counts = exact_counts("B", truth, unknowns)
    expected = pack_values(proto.unknown_names, truth, unknowns)
    assert expected[0] > 2 * counts.max()
    out = polish(counts, proto, expected)
    assert max_param_error(proto.unknown_names, out.x, expected) <= 1e-6
    oracle = grid_oracle(counts, proto, grid=15, refine_levels=4)
    out = polish(counts, proto, oracle.values)
    assert max_param_error(proto.unknown_names, out.x, expected) <= 1e-6


def test_grid_oracle_v_then_polish():
    # draws 0-7 of default_rng(54) on B and V: the oracle alone lands in
    # the truth's basin, and the polish takes it to the truth
    for name in ("B", "V"):
        rng = np.random.default_rng(54)
        proto = scenario(name)
        for _ in range(8):
            state, unknowns = sample_truth(name, rng)
            counts = predicted_statistics(proto, state, unknowns)
            expected = pack_values(proto.unknown_names, state, unknowns)
            oracle = grid_oracle(counts, proto, grid=15, refine_levels=4)
            assert max_param_error(proto.unknown_names, oracle.values,
                                   expected) <= 1e-3
            out = polish(counts, proto, oracle.values)
            assert max_param_error(proto.unknown_names, out.x, expected) <= 1e-6


def test_grid_oracle_without_strengths():
    # scenario A has no strengths: the oracle is the one linear solve
    rng = np.random.default_rng(54)
    proto = scenario("A")
    for _ in range(4):
        state, unknowns = sample_truth("A", rng)
        counts = predicted_statistics(proto, state, unknowns)
        oracle = grid_oracle(counts, proto, grid=15, refine_levels=4)
        linear = pack_values(proto.unknown_names,
                             linear_invert(counts, proto).state, None)
        assert max_param_error(proto.unknown_names, oracle.values,
                               linear) <= 1e-12
        assert oracle.objective <= 1e-28


def test_grid_oracle_objective_reaches_truth_floor():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    counts = exact_counts("B", truth, unknowns)
    oracle = grid_oracle(counts, scenario("B"), grid=15, refine_levels=8)
    assert oracle.objective <= 1e-12


def test_grid_oracle_deterministic():
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    counts = exact_counts("B", truth, unknowns)
    a = grid_oracle(counts, scenario("B"), grid=9, refine_levels=2)
    b = grid_oracle(counts, scenario("B"), grid=9, refine_levels=2)
    assert np.array_equal(a.values, b.values)
    assert a.objective == b.objective


TWO_PI = 2 * math.pi
TWIN_CASES = [("B", (TWO_PI - 1.3,))] + [
    ("V", lams) for lams in ((TWO_PI - 1.2, 1.7), (1.2, TWO_PI - 1.7),
                             (TWO_PI - 1.2, TWO_PI - 1.7))]


@pytest.mark.parametrize("beta", [False, True], ids=["gamma", "beta"])
@pytest.mark.parametrize("name, lams", TWIN_CASES)
def test_every_solver_settles_the_twins_alike(name, lams, beta):
    # truths with strengths above pi: every member of the reflection family
    # fits exactly, and every solver must pick the same one
    proto = scenario(name)
    if beta:
        proto = with_unknown_phase(proto)
    if name == "B":
        state = qubit_state(0.55, 0.45, 0.2, 2.0)
        unknowns = qubit_unknowns(lam_c=lams[0])
    else:
        state = vtype_state(0.4, 0.35, 0.25, 0.1, 0.11, 0.09, 0.9, 2.2, 1.4)
        unknowns = vtype_unknowns(*lams)
    counts = predicted_statistics(proto, state, unknowns)
    joint = reconstruct(counts, proto).x
    others = [polish(counts, proto, grid_oracle(
        counts, proto, grid=15, refine_levels=4).values).x]
    if name == "V":
        others.append(block_solve_v(counts, proto).x)
    for x in others:
        assert max_param_error(proto.unknown_names, x, joint) <= 1e-6


def test_gauge_quotient_reconstruction():
    base = scenario("B")
    proto = with_unknown_phase(base)
    truth = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    eta = 0.9
    twin = qubit_state(0.55, 0.45, 0.2, 2.0 + eta)
    counts1 = predicted_statistics(proto, truth, unknowns, phase_ref=0.0)
    counts2 = predicted_statistics(proto, twin, unknowns, phase_ref=eta)
    assert np.abs(counts1 - counts2).max() < 1e-12
    rec = reconstruct(counts1, proto)
    expected = pack_values(proto.unknown_names, truth, unknowns, phase_ref=0.0)
    assert max_param_error(proto.unknown_names, rec.x, expected) < 1e-6
    assert rec.gauge == "generator-phases-zeroed"
    # the reported state is the canonical representative of the orbit
    assert circular_distance(rec.state.phases[0], 2.0) < 1e-6


def test_noisy_reconstruction_is_physical():
    rng = np.random.default_rng(53)
    state, unknowns = sample_truth("B", rng)
    counts = simulate_counts(state, unknowns, scenario("B"),
                             NoiseModel("poisson", shots=10 ** 5, seed=9))
    result = reconstruct(counts, scenario("B"))
    assert result.psd_clip >= 0.0
    from sctomo.model import state_matrix
    evs = np.linalg.eigvalsh(state_matrix(result.state)) / result.state.trace
    assert evs[0] >= -1e-9


# ---------------------------------------------------------------------------
# Closed-form Jacobians and the refine's stall stop
# ---------------------------------------------------------------------------


def test_profile_jacobian_matches_differences_of_residual():
    from sctomo.identify import central_differences
    rng = np.random.default_rng(91)
    proto = scenario("V")
    state, unknowns = sample_truth("V", rng)
    # noisy counts, so that no point below fits them exactly
    counts = predicted_statistics(proto, state, unknowns) \
        + 1e-2 * rng.standard_normal(proto.n_settings)
    # the profile of V block 2: settings 5-8 and its own coordinates
    full_v = invert._Profile(proto, counts)
    indices, names = invert.V_BLOCKS[1]
    block2 = invert._Profile(proto, counts,
                             invert._free_coordinates(proto, names))
    cases = [
        (block2, np.column_stack([np.full(6, 1.1), rng.uniform(0.3, 2.8, 6)]),
         [1], list(indices)),
        # the V scan's first stage: lam1 on settings 0-4, lam2 held
        (full_v, np.column_stack([rng.uniform(0.3, 2.8, 6), np.full(6, 1.1)]),
         [0], [0, 1, 2, 3, 4]),
        (full_v, rng.uniform(0.3, 2.8, (6, 2)), [0, 1], [0, 5, 6, 7, 8, 9, 10]),
        (full_v, rng.uniform(0.3, 2.8, (6, 2)), [0, 1], None),
    ]
    for profile, lam, free, rows in cases:
        coords, resid, jac = profile.fit(lam, rows, free)
        assert (resid ** 2).sum(axis=1).min() > 1e-8
        fd, _ = central_differences(lambda p: profile.fit(p, rows)[1], lam,
                                    free)
        assert jac.shape == fd.shape
        assert np.abs(jac - fd).max() <= 1e-6
        c2, r2 = profile.fit(lam, rows)
        assert np.array_equal(c2, coords) and np.array_equal(r2, resid)


@pytest.mark.parametrize("name", ["A", "B", "B~beta", "C-alt", "C-alt~beta",
                                  "V", "V~beta"])
def test_polish_jacobian_matches_numeric_jacobian(name):
    from sctomo.forward import ProtocolLayout
    from sctomo.identify import central_differences
    base = name.split("~")[0]
    proto = scenario(base)
    if name.endswith("~beta"):
        proto = with_unknown_phase(proto)
    rng = np.random.default_rng(92)
    layout = ProtocolLayout(proto)
    for _ in range(5):
        state, unknowns = sample_truth(base, rng)
        x = pack_values(proto.unknown_names, state, unknowns)
        jac = layout.jacobian(x[None, :])[0]
        numeric = central_differences(layout.statistics, x)[0][0]
        assert np.abs(jac - numeric).max() <= 1e-6 * np.abs(numeric).max()


def test_solve_path_uses_no_eigh_kernel_or_differences(monkeypatch):
    from sctomo import identify, smallmat

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the solve path")

    rng = np.random.default_rng(93)
    proto = scenario("V")
    state, unknowns = sample_truth("V", rng)
    counts = predicted_statistics(proto, state, unknowns)
    expected = pack_values(proto.unknown_names, state, unknowns)
    for name in ("expi_neg", "expi_neg_batch"):
        monkeypatch.setattr(smallmat, name, forbidden)
    monkeypatch.setattr(identify, "central_differences", forbidden)
    monkeypatch.setattr(identify, "_STRUCTURAL_CACHE", {})
    assert max_param_error(proto.unknown_names, reconstruct(counts, proto).x,
                           expected) < 1e-8
    assert max_param_error(proto.unknown_names, block_solve_v(counts, proto).x,
                           expected) < 1e-8
    assert max_param_error(proto.unknown_names,
                           polish(counts, proto, expected + 1e-3).x,
                           expected) < 1e-6


def test_jacobian_reports_use_no_differences(monkeypatch, tmp_path):
    from sctomo import cli, identify, io

    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences on a production path")

    monkeypatch.setattr(identify, "central_differences", forbidden)
    rng = np.random.default_rng(95)
    for name in ("B", "C-alt", "V"):
        sample_truth(name, rng)
    state = qubit_state(0.6, 0.4, 0.25, 0.8)
    unknowns = qubit_unknowns(lam_c=1.3, lam_z=1.1)
    assert identify.numeric_jacobian(scenario("C-alt"), state,
                                     unknowns).smallest_singular_value > 1e-2
    scan = identify.singularity_scan(scenario("B"), state,
                                     qubit_unknowns(lam_c=1.3),
                                     {"gamma": (0.0, 2 * np.pi)}, 8)
    assert len(scan.rows) == 8
    point = tmp_path / "point.json"
    point.write_text(io.canonical_json({
        "schema_version": 1,
        "state": {"rho00": 0.6, "rho11": 0.4, "rho01": 0.25, "gamma": 0.8},
        "unknowns": {"lam_c": 1.3, "lam_z": 1.1},
    }) + "\n")
    assert cli.main(["jacobian", "--protocol", "C-alt",
                     "--point", str(point)]) == 0
    assert cli.main(["sweep", "--protocol", "C", "--point", str(point),
                     "--axis", "lam_c=0.5:2", "--grid", "8",
                     "--out", str(tmp_path / "sweep.csv")]) == 0


@pytest.mark.parametrize("name", ["V", "C-alt"])
def test_stall_stop_keeps_the_best_minimum(monkeypatch, name):
    rng = np.random.default_rng(94)
    proto = scenario(name)
    for _ in range(3):
        state, unknowns = sample_truth(name, rng)
        counts = predicted_statistics(proto, state, unknowns)
        profile = invert._Profile(proto, counts)
        stages = invert._scan_stages(proto)
        runs = []
        for ftol in (0.0, invert.REFINE_FTOL):
            monkeypatch.setattr(invert, "REFINE_FTOL", ftol)
            cand = invert._scan(profile, stages)
            f = profile.objective(cand)
            best = invert._best_minimum(cand, f, profile.scale)
            runs.append((cand[best], f[best], reconstruct(counts, proto).x))
        (lam0, f0, x0), (lam1, f1, x1) = runs
        assert np.abs(lam0 - lam1).max() <= 1e-10
        assert max(f0, f1) <= 1e-20
        assert np.abs(x0 - x1).max() <= 1e-10


def test_stall_stop_halves_design_evaluations(monkeypatch):
    # the first sample_truth("V") draw of default_rng(0): the eigh kernel
    # with central differences in the refine and no stall stop made 93
    # design evaluations; the closed-form kernel with the variable-projection
    # Jacobian and the stall stop makes 27
    from sctomo.forward import ProtocolLayout
    calls = []
    for method in ("design", "design_and_derivative"):
        original = getattr(ProtocolLayout, method)

        def counted(self, x, _original=original):
            calls.append(1)
            return _original(self, x)

        monkeypatch.setattr(ProtocolLayout, method, counted)
    proto = scenario("V")
    state, unknowns = sample_truth("V", np.random.default_rng(0))
    counts = predicted_statistics(proto, state, unknowns)
    result = reconstruct(counts, proto)
    expected = pack_values(proto.unknown_names, state, unknowns)
    assert max_param_error(proto.unknown_names, result.x, expected) < 1e-8
    assert len(calls) <= 93 // 2


# ---------------------------------------------------------------------------
# One damped Gauss-Newton loop on Cartesian coordinates
# ---------------------------------------------------------------------------


def test_oracle_then_polish_reaches_round_off():
    # draws 2, 6 and 7 of default_rng(54): the magnitude/phase polish
    # stopped at errors of 3.7e-8, 1.3e-10 and 1.1e-7
    rng = np.random.default_rng(54)
    proto = scenario("V")
    truths = [sample_truth("V", rng) for _ in range(8)]
    for i in (2, 6, 7):
        state, unknowns = truths[i]
        counts = predicted_statistics(proto, state, unknowns)
        expected = pack_values(proto.unknown_names, state, unknowns)
        oracle = grid_oracle(counts, proto, grid=15, refine_levels=4)
        out = polish(counts, proto, oracle.values)
        assert out.converged
        assert max_param_error(proto.unknown_names, out.x, expected) <= 1e-12


def test_polish_holds_a_population_at_zero():
    # counts of a point with rho00 = -0.03: the best physical fit sits on
    # the bound rho00 = 0, which the polish holds while the rest converges
    from sctomo.forward import ProtocolLayout
    proto = scenario("B")
    point = np.array([-0.03, 0.01, 0.6, 1.3, 2.0])
    counts = ProtocolLayout(proto).statistics(point[None, :])[0]
    assert counts.min() > 0
    for objective in ("least_squares", "poisson_mle"):
        options = SolverOptions(objective=objective)
        out = polish(counts, proto, point, options)
        assert out.x[0] == 0.0
        assert out.converged
        # the same minimum from a start inside the box
        other = polish(counts, proto, [0.1, 0.1, 0.5, 1.0, 1.5], options)
        assert other.x[0] == 0.0
        assert other.f == pytest.approx(out.f, rel=1e-9)


def test_damped_gauss_newton_rows_are_independent():
    rng = np.random.default_rng(95)
    proto = scenario("V")
    state, unknowns = sample_truth("V", rng)
    # noisy counts, so that no row stops at the floor objective
    counts = predicted_statistics(proto, state, unknowns) \
        + 1e-3 * rng.standard_normal(proto.n_settings)
    profile = invert._Profile(proto, counts)
    truth = profile.start(pack_values(proto.unknown_names, state, unknowns))
    starts = truth + 0.05 * rng.standard_normal((6, truth.size))
    lo, hi = profile.bounds()

    def run(rows):
        return invert._damped_gauss_newton(
            lambda z: profile.model(z, jacobian=True), rows, lo, hi, counts,
            "least_squares", profile.scale, 200)

    together = run(starts)
    assert together[2].all()
    for i in range(len(starts)):
        alone = run(starts[i:i + 1])
        assert np.abs(alone[0][0] - together[0][i]).max() <= 1e-12
        assert abs(alone[1][0] - together[1][i]) <= 1e-12 * together[1][i]
        assert alone[2][0] == together[2][i]


def test_poisson_polish_takes_a_zero_count_at_a_zero_statistic():
    # setting 0 of B sees rho11 alone: a zero count there puts the
    # least-squares start at rho11 = 0, where the deviance term is 0 log 0
    # = 0, not an invalid point
    from sctomo.forward import ProtocolLayout
    proto = scenario("B")
    point = np.array([0.95, 0.05, 0.05, 1.3, 2.0])
    counts = ProtocolLayout(proto).statistics(point[None, :])[0]
    counts[0] = 0.0
    result = reconstruct(counts, proto, SolverOptions(objective="poisson_mle"))
    assert result.converged
    assert math.isfinite(result.residual)
    assert result.x[2] == 0.0


# ---------------------------------------------------------------------------
# The profile's inner least squares: batched QR, pinv for rank-deficient rows
# ---------------------------------------------------------------------------


def _inner_solve_cases():
    """(label, profile, free strengths, setting rows) for A, B, C-alt,
    each stage of the V scan and each V block, on noisy counts (so that no
    residual is zero), with strength rows from default_rng(8): 32 random
    ones at least 0.3 from 0, pi and 2*pi, then degenerate ones, every
    strength or one at a time at LAM_FLOOR, pi and 2*pi.  A and V block 3
    free no strength and get the one row of true strengths (none for A)."""
    rng = np.random.default_rng(8)

    def noisy(name):
        proto = scenario(name)
        state, unknowns = sample_truth(name, rng)
        y = predicted_statistics(proto, state, unknowns)
        truth = pack_values(proto.unknown_names, state, unknowns)
        return proto, y + 1e-2 * rng.standard_normal(y.size), truth

    cases = []
    for name in ("A", "B", "C-alt"):
        proto, y, _ = noisy(name)
        cases.append((name, invert._Profile(proto, y),
                      list(range(len(proto.process_unknown_names))), None))
    proto, y, truth = noisy("V")
    joint = invert._Profile(proto, y)
    for k, (free, rows) in enumerate(invert._scan_stages(proto)):
        cases.append((f"V stage {k + 1}", joint, free, rows))
    # each V block: its settings and coordinates of the full profile
    for b, (indices, names) in enumerate(invert.V_BLOCKS):
        cols = invert._free_coordinates(proto, names)
        free = [k for k, n in enumerate(proto.process_unknown_names)
                if n in names]
        cases.append((f"V block {b + 1}", invert._Profile(proto, y, cols),
                      free, list(indices)))
    out = []
    for label, profile, free, rows in cases:
        n = len(profile.lam_cols)
        if not free:  # A, V block 3: one linear solve at the true strengths
            out.append((label, profile, free, rows,
                        truth[profile.lam_cols][None, :]))
            continue
        lam = (rng.uniform(0.3, math.pi - 0.3, (32, n))
               + math.pi * rng.integers(0, 2, (32, n)))
        degenerate = []
        for value in (invert.LAM_FLOOR, math.pi, invert.TWO_PI):
            degenerate.append(np.full(n, value))
            for j in range(n if n > 1 else 0):
                row = np.full(n, 1.1)
                row[j] = value
                degenerate.append(row)
        out.append((label, profile, free, rows, np.vstack([lam, degenerate])))
    return out


def _pinv_fit(profile, lam, rows, free):
    """The variable-projection fit by the pseudo-inverse (cutoff 1e-10) with
    the Golub-Pereyra Jacobian, and per row the singular-value ratio
    sigma_min/sigma_max of A.  Columns of A that are zero at every row are
    left out: the pseudo-inverse of [A, 0] is [A⁺; 0], and leaving them in
    only adds round-off of the SVD.  Both are formed from the SVD A = U S Vᵀ,
    and P⊥ = I - U Uᵀ on the kept singular vectors: I - A A⁺ would lose
    digits in proportion to the size of the coordinates, which the
    rho00 constant makes large in V block 2 near lam2 = pi/2, 3*pi/2."""
    rows = slice(None) if rows is None else rows
    design, d_design = profile.layout.design_and_derivative(profile._at(lam))
    design, d_design = design[:, rows], d_design[:, rows][..., free]
    cols = [c for c in profile.cols if design[:, :, c].any()]
    a = design[:, :, cols]
    y = np.broadcast_to(profile.y[rows], a.shape[:2])
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    keep = sv > 1e-10 * sv[:, :1]
    inv = np.zeros_like(sv)
    inv[keep] = 1.0 / sv[keep]
    a_pinv = np.einsum("pkc,pk,psk->pcs", vt, inv, u)
    u = u * keep[:, None, :]
    kept = np.einsum("pcs,ps->pc", a_pinv, y)
    resid = np.einsum("psc,pc->ps", a, kept) - y
    c_full = np.zeros((len(lam), design.shape[2]))
    c_full[:, cols] = kept
    v = np.einsum("psck,pc->psk", d_design, c_full)
    v -= u @ (np.swapaxes(u, 1, 2) @ v)
    w = np.einsum("psck,ps->pck", d_design[:, :, cols], resid)
    coords = np.zeros((len(lam), len(profile.cols)))
    coords[:, [profile.cols.index(c) for c in cols]] = kept
    jac = v - np.einsum("pcs,pck->psk", a_pinv, w)
    ratio = (sv[:, -1] / sv[:, 0] if a.shape[1] >= a.shape[2]
             else np.zeros(len(lam)))
    return coords, resid, jac, ratio, np.abs(y).max(axis=1)


def test_inner_solve_matches_pinv_reference():
    # the coordinates to max(1, |c|) and the residuals to |y| on every row;
    # degenerate rows are solved in the same batch as the random ones, and
    # each row the pseudo-inverse truncates (singular-value ratio <= 1e-10)
    # must fail the rank test, so it keeps the pseudo-inverse's solution.
    # The Jacobian is checked to its own size on the well-conditioned rows
    # (ratio > 1e-6): on the rest it is dominated by round-off of the
    # coordinates, in the reference as much as in `fit`.
    for label, profile, free, rows, lam in _inner_solve_cases():
        coords, resid, jac = (profile.fit(lam, rows, free) if free
                              else profile.fit(lam, rows) + (None,))
        ref_c, ref_r, ref_j, ratio, y_size = _pinv_fit(profile, lam, rows,
                                                       free)
        c_scale = np.maximum(1.0, np.abs(ref_c).max(axis=1))
        assert (np.abs(coords - ref_c).max(axis=1) <= 1e-10 * c_scale).all(), label
        assert (np.abs(resid - ref_r).max(axis=1) <= 1e-10 * y_size).all(), label
        truncated = ratio <= invert.RANK_RTOL
        if truncated.any():
            a = profile.layout.design(profile._at(lam[truncated]))
            a = a[:, slice(None) if rows is None else rows][:, :, profile.cols]
            a = a[..., a.any(axis=(0, 1))]
            if a.shape[1] >= a.shape[2]:
                assert not invert._full_rank(np.linalg.qr(a)[1])[0].any(), label
        well = ratio > 1e-6
        assert well[:32].all(), label
        if free:
            err = np.abs(jac - ref_j).max(axis=(1, 2))[well]
            own = np.abs(ref_j).max(axis=(1, 2))[well]
            assert (err <= 1e-10 * own).all(), label


def test_inner_solve_rank_test_uses_singular_values_not_pivots():
    # unit upper triangular with -1 above the diagonal: every pivot of its
    # QR is 1, yet sigma_min/sigma_max is far below 1e-10; the second row
    # is well conditioned.  The first must take the pseudo-inverse's
    # truncated solution, the second the full one.
    k = 40
    tri = np.eye(k) - np.triu(np.ones((k, k)), 1)
    a = np.stack([np.vstack([tri, np.zeros((1, k))]),
                  np.vstack([np.eye(k), np.ones((1, k))])])
    sv = np.linalg.svd(a, compute_uv=False)
    assert sv[0, -1] / sv[0, 0] < invert.RANK_RTOL
    diag = np.abs(np.diagonal(np.linalg.qr(a)[1], axis1=1, axis2=2))
    assert diag[0].min() / diag[0].max() > 0.99
    ok, _ = invert._full_rank(np.linalg.qr(a)[1])
    assert ok.tolist() == [False, True]
    y = np.random.default_rng(8).standard_normal((2, k + 1))
    coords, resid = invert._lstsq(a, y)
    ref = np.einsum("pcs,ps->pc", np.linalg.pinv(a, rcond=invert.RANK_RTOL), y)
    assert np.abs(coords - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(resid - (np.einsum("psc,pc->ps", a, ref) - y)).max() <= 1e-12


def test_inner_solve_jacobian_matches_differences_of_residual():
    from sctomo.identify import central_differences
    for label, profile, free, rows, lam in _inner_solve_cases():
        if not free:
            continue
        lam = lam[:32]  # the rows away from the degenerate strengths
        jac = profile.fit(lam, rows, free)[2]
        fd, _ = central_differences(lambda p: profile.fit(p, rows)[1], lam,
                                    free)
        assert np.abs(jac - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max()), label


@pytest.mark.parametrize("max_iter", [0, -5, 2.5, True, "10"])
def test_solver_options_reject_bad_max_iter(max_iter):
    with pytest.raises(InvalidRange):
        SolverOptions(max_iter=max_iter)

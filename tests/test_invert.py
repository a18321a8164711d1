"""Tests for linear inversion, the profile-scan solver, block solve and oracle."""

import math

import numpy as np
import pytest

from sctomo import invert
from sctomo.errors import (InvalidRange, StructuralSingularity, TooManyDims)
from sctomo.forward import NoiseModel, predicted_statistics, simulate_counts
from sctomo.invert import (SolverOptions, block_solve_v, grid_oracle,
                           linear_invert, objective_eval, polish, reconstruct)
from sctomo.model import circular_distance, qubit_state, vtype_state
from sctomo.protocol import (Protocol, pack_values, qubit_unknowns, scenario,
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
    # forward sensitivity probe: with the estimated coherence held, a 0.1
    # error in either strength leaves a strictly positive block-3 residual
    proto = scenario("V")
    state = vtype_state(0.4, 0.35, 0.25, 0.1, 0.11, 0.09, 0.9, 2.2, 1.4)
    unknowns = vtype_unknowns(1.2, 1.7)
    counts = predicted_statistics(proto, state, unknowns)
    y3 = counts[9:11]
    good = dict(zip(proto.unknown_names,
                    pack_values(proto.unknown_names, state, unknowns)))
    from sctomo.forward import ProtocolLayout
    from sctomo.invert import _objective_values
    from sctomo.protocol import V_BLOCKS
    indices, names3 = V_BLOCKS[2]
    sub = Protocol("V#b3", 3, tuple(proto.settings[i] for i in indices),
                   names3)
    x3 = np.array([good[n] for n in names3])

    def block3_residual(fixed):
        layout = ProtocolLayout(sub, names=names3, fixed=fixed)
        return float(_objective_values(layout.statistics(x3[None, :]),
                                       y3, "least_squares")[0])

    fixed_ok = {k: v for k, v in good.items() if k not in names3}
    assert block3_residual(fixed_ok) < 1e-20
    for lam in ("lam1", "lam2"):
        fixed_bad = dict(fixed_ok)
        fixed_bad[lam] += 0.1
        assert block3_residual(fixed_bad) > 1e-6


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
    rng = np.random.default_rng(54)
    proto = scenario("V")
    for _ in range(3):
        state, unknowns = sample_truth("V", rng)
        counts = predicted_statistics(proto, state, unknowns)
        expected = pack_values(proto.unknown_names, state, unknowns)
        oracle = grid_oracle(counts, proto, grid=15, refine_levels=4)
        out = polish(counts, proto, oracle.values)
        assert max_param_error(proto.unknown_names, out.x, expected) <= 1e-6


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


def test_grid_oracle_refuses_high_dimension():
    proto = scenario("V")
    wide = Protocol("wide", 3, proto.settings,
                    proto.unknown_names[:7], phase_known=True)
    with pytest.raises(TooManyDims):
        grid_oracle(np.zeros(11), wide)


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
    # the profile of V block 2 (settings 5-8) with block 1 held at the truth
    indices, names = invert.V_BLOCKS[1]
    sub = Protocol(name="V#b2", dim=3,
                   settings=tuple(proto.settings[i] for i in indices),
                   unknown_names=names)
    truth = dict(zip(proto.unknown_names,
                     pack_values(proto.unknown_names, state, unknowns)))
    block2 = invert._Profile(sub, counts[list(indices)],
                             held={n: truth[n] for n in invert.V_BLOCKS[0][1]})
    full_v = invert._Profile(proto, counts)
    cases = [
        (block2, rng.uniform(0.3, 2.8, (6, 1)), [0], None),
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
    from sctomo.identify import jacobian_from_vector
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
        numeric = jacobian_from_vector(proto, x).matrix
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

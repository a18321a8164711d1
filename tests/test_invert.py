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
    counts[2] = 2 * invert.COUNT_MAX
    with pytest.raises(InvalidRange, match="at most"):
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


# scenario V with its settings reordered: block 1 is settings 0, 7-10 and
# block 2 settings 3-6
V_REORDER = [0, 9, 10, 5, 6, 7, 8, 1, 2, 3, 4]


def _reordered_v():
    v = scenario("V")
    return Protocol("V", 3, tuple(v.settings[i] for i in V_REORDER),
                    v.unknown_names)


def test_scan_stages_follow_the_protocol():
    # (strengths, setting rows, coordinates) per stage, derived from the
    # settings and not from their order
    b_stage = ([0], [0, 1, 2, 3, 4], [0, 1, 2, 3])
    v_blocks = [([0], [0, 1, 2, 3, 4], [0, 1, 3, 4]),
                ([1], [5, 6, 7, 8], [2, 5, 6])]
    cases = {
        "A": (scenario("A"), []),
        "B": (scenario("B"), [b_stage]),
        "B~beta": (with_unknown_phase(scenario("B")), [b_stage]),
        "C-alt": (scenario("C-alt"), [([0, 1], None, [0, 1, 2, 3])]),
        "V": (scenario("V"), v_blocks),
        "V~beta": (with_unknown_phase(scenario("V")), v_blocks),
        "V reordered": (_reordered_v(), [
            (free, sorted(V_REORDER.index(i) for i in rows), cols)
            for free, rows, cols in v_blocks]),
    }
    for label, (proto, stages) in cases.items():
        profile = invert._Profile(proto, np.zeros(proto.n_settings))
        assert invert._scan_stages(profile) == stages, label


def test_block_solve_follows_reordered_settings():
    # a literal table of V's setting blocks sent block_solve_v to a wrong
    # root here (parameter error 15) while reconstruct was exact
    proto = _reordered_v()
    state, unknowns = sample_truth("V", np.random.default_rng(52))
    counts = predicted_statistics(proto, state, unknowns)
    expected = pack_values(proto.unknown_names, state, unknowns)
    for solve in (reconstruct, block_solve_v):
        assert max_param_error(proto.unknown_names, solve(counts, proto).x,
                               expected) < 1e-8, solve.__name__


@pytest.mark.filterwarnings("ignore::sctomo.errors.SingularAtSolutionWarning")
def test_block_solve_zero_02_coherence():
    proto = scenario("V")
    state = vtype_state(0.42, 0.33, 0.25, 0.12, 0.0, 0.08, 0.9, 0.0, 1.4)
    unknowns = vtype_unknowns(1.2, 1.7)
    counts = predicted_statistics(proto, state, unknowns)
    result = block_solve_v(counts, proto)
    # with rho02 = 0 the counts fit exactly at lam2 = 1.7 and at 1.4224
    # (rho22 0.291), both physical with every strength below pi, so the
    # data cannot decide; the stage rule of `_stage_minima` does: the
    # populations-only block-2 Jacobian is better conditioned at 1.7
    # (smallest singular value 0.065 against 0.050), which round-off
    # cannot flip
    assert "gamma02" in result.phase_undefined
    assert result.state.populations == pytest.approx(state.populations,
                                                     abs=1e-6)
    assert result.state.coherences[0] == pytest.approx(0.12, abs=1e-6)
    assert result.state.coherences[2] == pytest.approx(0.08, abs=1e-6)


# a vanished coherence leaves a whole curve of exact fits: (protocol, state,
# strengths, the phases left undefined)
VANISHED = {
    "B": (scenario("B"), qubit_state(0.55, 0.45, 0.0, 0.0),
          qubit_unknowns(lam_c=1.3), ("gamma",)),
    "B~beta": (with_unknown_phase(scenario("B")),
               qubit_state(0.55, 0.45, 0.0, 0.0), qubit_unknowns(lam_c=1.3),
               ("beta",)),
    "V rho01 = 0": (scenario("V"),
                    vtype_state(0.42, 0.33, 0.25, 0.0, 0.1, 0.08, 0.0, 0.9,
                                1.4),
                    vtype_unknowns(1.2, 1.7), ("gamma01",)),
    "V rho01 = rho02 = 0": (scenario("V"),
                            vtype_state(0.42, 0.33, 0.25, 0.0, 0.0, 0.08,
                                        0.0, 0.0, 1.4),
                            vtype_unknowns(1.2, 1.7), ("gamma01", "gamma02")),
}


@pytest.mark.filterwarnings("ignore::sctomo.errors.SingularAtSolutionWarning")
@pytest.mark.parametrize("label", sorted(VANISHED))
def test_vanished_coherence_settled_in_one_scan(monkeypatch, label):
    # the flat stage is re-solved inside the one staged scan, with no
    # rescan per coherence pair
    proto, state, unknowns, undefined = VANISHED[label]
    counts = predicted_statistics(proto, state, unknowns)
    expected = pack_values(proto.unknown_names, state, unknowns)
    defined = [i for i, n in enumerate(proto.unknown_names)
               if n not in undefined]
    scans = []
    original = invert._scan

    def counted(*args):
        scans.append(1)
        return original(*args)

    monkeypatch.setattr(invert, "_scan", counted)
    solvers = [reconstruct] + ([block_solve_v] if proto.dim == 3 else [])
    for solve in solvers:
        scans.clear()
        result = solve(counts, proto)
        assert len(scans) == 1, solve.__name__
        assert result.phase_undefined == undefined, solve.__name__
        assert np.abs(result.x[defined] - expected[defined]).max() <= 1e-8, \
            solve.__name__


# noisy V draws whose block-1 profile falls towards the degenerate
# lam1 -> 0, where the stage fit has coordinates of 1e7 and more that block
# 2 would hold: (sample_truth seed, draw, Poisson seed), 1e4 shots
DEGENERATE_V = {"default_rng(77) #28": (77, 28, 1028),
                "default_rng(123) #29": (123, 29, 529)}


@pytest.mark.filterwarnings("ignore::sctomo.errors.SingularAtSolutionWarning")
@pytest.mark.parametrize("label", sorted(DEGENERATE_V))
def test_near_singular_stage_is_resolved_without_its_coherence(monkeypatch,
                                                               label):
    seed, draw, noise_seed = DEGENERATE_V[label]
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        state, unknowns = sample_truth("V", rng)
    proto = scenario("V")
    counts = simulate_counts(state, unknowns, proto,
                             NoiseModel("poisson", shots=10 ** 4,
                                        seed=noise_seed))
    rows = []
    original = invert.prefer_sparse_coherences

    def counted(profile, pts, stage_rows, cols, held):
        rows.append(list(stage_rows))
        return original(profile, pts, stage_rows, cols, held)

    monkeypatch.setattr(invert, "prefer_sparse_coherences", counted)
    result = reconstruct(counts, proto)
    assert rows == [[0, 1, 2, 3, 4]]
    truth = pack_values(proto.unknown_names, state, unknowns)
    assert result.residual <= 1.01 * polish(counts, proto, truth).f
    assert block_solve_v(counts, proto).residual <= 1e-3


@pytest.mark.filterwarnings("ignore::sctomo.errors.SingularAtSolutionWarning")
def test_tiny_counts_keep_their_coherence(monkeypatch):
    # the flat test is relative to |y|^2: counts scaled by 1e-10 put every
    # grid objective below 1e-18, yet no stage is flat (the Jacobian report
    # still reads near-singular: its floor is max(1, |J|))
    proto = scenario("B")
    counts = 1e-10 * exact_counts("B", qubit_state(0.55, 0.45, 0.2, 0.7),
                                  qubit_unknowns(lam_c=1.3))
    calls = []
    original = invert.prefer_sparse_coherences

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(invert, "prefer_sparse_coherences", counted)
    result = reconstruct(counts, proto)
    assert calls == []
    assert result.state.coherences[0] == pytest.approx(0.2e-10, rel=1e-2)


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
    profile = invert._Profile(proto, counts)
    (_, rows1, cols1), (_, rows2, cols2) = invert._scan_stages(profile)
    # block 1's coordinates held at non-zero values, as the scan holds
    # them in block 2, on all of block 2's coordinates and on its
    # populations alone (a flat stage): there rho00's column, which moves
    # with lam2, is no longer in the span of the block's columns
    held = np.zeros(profile.layout.dim + 2 * profile.layout.npair)
    held[cols1] = rng.uniform(0.1, 0.5, len(cols1))
    lam2 = np.column_stack([np.full(6, 1.1), rng.uniform(0.3, 2.8, 6)])
    pops2 = [c for c in cols2 if c < proto.dim]
    cases = [
        # V block 2: lam2 on its settings and coordinates, lam1 held
        (lam2, [1], rows2, cols2, None),
        (lam2, [1], rows2, cols2, held),
        (lam2, [1], rows2, pops2, held),
        # V block 1: lam1 on its settings and coordinates, lam2 held
        (np.column_stack([rng.uniform(0.3, 2.8, 6), np.full(6, 1.1)]),
         [0], rows1, cols1, None),
        (rng.uniform(0.3, 2.8, (6, 2)), [0, 1], [0, 5, 6, 7, 8, 9, 10], None,
         None),
        (rng.uniform(0.3, 2.8, (6, 2)), [0, 1], None, None, None),
    ]
    for lam, free, rows, cols, hold in cases:
        coords, resid, jac = profile.fit(lam, rows, cols, free, hold)
        assert (resid ** 2).sum(axis=1).min() > 1e-8
        fd, _ = central_differences(
            lambda p: profile.fit(p, rows, cols, held=hold)[1], lam, free)
        assert jac.shape == fd.shape
        assert np.abs(jac - fd).max() <= 1e-6
        c2, r2 = profile.fit(lam, rows, cols, held=hold)
        assert np.array_equal(c2, coords) and np.array_equal(r2, resid)
    # on the populations alone the held coordinates move the Jacobian
    unheld = profile.fit(lam2, rows2, pops2, [1])[2]
    assert np.abs(profile.fit(lam2, rows2, pops2, [1], held)[2]
                  - unheld).max() > 1e-2


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
        runs = []
        for ftol in (0.0, invert.REFINE_FTOL):
            monkeypatch.setattr(invert, "REFINE_FTOL", ftol)
            cand = invert._scan(profile)
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
    """(label, profile, free strengths, setting rows, coordinates, strength
    rows) for the whole profile of A, B, C-alt and V and each stage of the
    V scan, on noisy counts (so that no residual is zero), with strength
    rows from default_rng(8): 32 random ones at least 0.3 from 0, pi and
    2*pi, then degenerate ones, every strength or one at a time at
    LAM_FLOOR, pi and 2*pi.  A frees no strength and gets one empty row."""
    rng = np.random.default_rng(8)

    def noisy(name):
        proto = scenario(name)
        state, unknowns = sample_truth(name, rng)
        y = predicted_statistics(proto, state, unknowns)
        return invert._Profile(proto, y + 1e-2 * rng.standard_normal(y.size))

    cases = []
    for name in ("A", "B", "C-alt", "V"):
        profile = noisy(name)
        cases.append((name, profile, list(range(len(profile.lam_cols))),
                      None, None))
    for k, stage in enumerate(invert._scan_stages(profile)):
        cases.append((f"V stage {k + 1}", profile) + stage)
    out = []
    for label, profile, free, rows, cols in cases:
        n = len(profile.lam_cols)
        if not free:  # A: one linear solve
            out.append((label, profile, free, rows, cols, np.zeros((1, 0))))
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
        out.append((label, profile, free, rows, cols,
                    np.vstack([lam, degenerate])))
    return out


def _pinv_fit(profile, lam, rows, cols, free):
    """The variable-projection fit by the pseudo-inverse (cutoff 1e-10) with
    the Golub-Pereyra Jacobian, and per row the singular-value ratio
    sigma_min/sigma_max of A.  Both are formed from the SVD A = U S Vᵀ,
    and P⊥ = I - U Uᵀ on the kept singular vectors: I - A A⁺ would lose
    digits in proportion to the size of the coordinates."""
    rows = slice(None) if rows is None else rows
    cols = profile.cols if cols is None else cols
    design, d_design = profile.layout.design_and_derivative(profile._at(lam))
    design, d_design = design[:, rows], d_design[:, rows][..., free]
    a = design[:, :, cols]
    y = np.broadcast_to(profile.y[rows], a.shape[:2])
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    keep = sv > 1e-10 * sv[:, :1]
    inv = np.zeros_like(sv)
    inv[keep] = 1.0 / sv[keep]
    a_pinv = np.einsum("pkc,pk,psk->pcs", vt, inv, u)
    u = u * keep[:, None, :]
    coords = np.einsum("pcs,ps->pc", a_pinv, y)
    resid = np.einsum("psc,pc->ps", a, coords) - y
    c_full = np.zeros((len(lam), design.shape[2]))
    c_full[:, cols] = coords
    v = np.einsum("psck,pc->psk", d_design, c_full)
    v -= u @ (np.swapaxes(u, 1, 2) @ v)
    w = np.einsum("psck,ps->pck", d_design[:, :, cols], resid)
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
    for label, profile, free, rows, cols, lam in _inner_solve_cases():
        coords, resid, jac = (profile.fit(lam, rows, cols, free) if free
                              else profile.fit(lam, rows, cols) + (None,))
        ref_c, ref_r, ref_j, ratio, y_size = _pinv_fit(profile, lam, rows,
                                                       cols, free)
        c_scale = np.maximum(1.0, np.abs(ref_c).max(axis=1))
        assert (np.abs(coords - ref_c).max(axis=1) <= 1e-10 * c_scale).all(), label
        assert (np.abs(resid - ref_r).max(axis=1) <= 1e-10 * y_size).all(), label
        truncated = ratio <= invert.RANK_RTOL
        if truncated.any():
            a = profile.layout.design(profile._at(lam[truncated]))
            a = a[:, slice(None) if rows is None else rows]
            a = a[:, :, profile.cols if cols is None else cols]
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
    for label, profile, free, rows, cols, lam in _inner_solve_cases():
        if not free:
            continue
        lam = lam[:32]  # the rows away from the degenerate strengths
        jac = profile.fit(lam, rows, cols, free)[2]
        fd, _ = central_differences(
            lambda p: profile.fit(p, rows, cols)[1], lam, free)
        assert np.abs(jac - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max()), label


@pytest.mark.parametrize("max_iter", [0, -5, 2.5, True, "10"])
def test_solver_options_reject_bad_max_iter(max_iter):
    with pytest.raises(InvalidRange):
        SolverOptions(max_iter=max_iter)


# ---------------------------------------------------------------------------
# Exact one-strength stages
# ---------------------------------------------------------------------------


def _raised_v():
    # scenario V with setting 3 (block 1, phase 0) at multiplier 3, not 2
    from dataclasses import replace
    v = scenario("V")
    settings = list(v.settings)
    settings[3] = replace(settings[3], multipliers=(3.0, 0.0))
    return Protocol("V", 3, tuple(settings), v.unknown_names)


# protocol and the degree K of each stage, from its multipliers
DEGREE_CASES = {
    "B": (scenario("B"), [12]),
    "B~beta": (with_unknown_phase(scenario("B")), [12]),
    "V": (scenario("V"), [12, 12]),
    "V~beta": (with_unknown_phase(scenario("V")), [12, 12]),
    "V multiplier 3": (_raised_v(), [14, 12]),
}


@pytest.mark.parametrize("label", sorted(DEGREE_CASES))
def test_stage_determinants_stay_within_their_degree(label):
    # N = det Gram([A b]) and D = det Gram(A) sampled for degree 2K: no
    # Fourier content above K, on every stage (V block 2 held at block 1's
    # fit) and on its populations alone, with noisy counts
    proto, degrees = DEGREE_CASES[label]
    base = label.split("~")[0].split()[0]
    rng = np.random.default_rng(96)
    for _ in range(3):
        state, unknowns = sample_truth(base, rng)
        counts = predicted_statistics(proto, state, unknowns) \
            + 1e-2 * rng.standard_normal(proto.n_settings)
        profile = invert._Profile(proto, counts)
        lam = pack_values(proto.unknown_names, state,
                          unknowns)[profile.lam_cols]
        held = np.zeros(profile.layout.dim + 2 * profile.layout.npair)
        stages = invert._scan_stages(profile)
        assert [invert._stage_degree(profile, free, rows)
                for free, rows, _ in stages] == degrees
        for (free, rows, cols), k in zip(stages, degrees):
            n_pts = 4 * k + 1
            pts = np.tile(lam, (n_pts, 1))
            pts[:, free[0]] = TWO_PI * np.arange(n_pts) / n_pts
            freq = np.abs(np.fft.fftfreq(n_pts, 1.0 / n_pts))
            for stage_cols in (cols, [c for c in cols if c < proto.dim]):
                for det in invert._gram_determinants(profile, pts, rows,
                                                     stage_cols, held):
                    content = np.abs(np.fft.fft(det))
                    assert content[freq > k].max() < 1e-12 * content.max()
            held[cols] = profile.fit(lam, rows, cols, held=held)[0][0]


def test_stage_degree_needs_integer_multipliers_on_one_generator():
    # a non-integer multiplier, or a setting that also drives another
    # generator, leaves the stage to the grid; a fixed angle on the same
    # generator does not
    from dataclasses import replace
    b = scenario("B")
    cases = {
        "multiplier 2.5": (replace(b.settings[2], multipliers=(2.5,)), None),
        "diagonal offset": (replace(b.settings[2], fixed_diag=0.3), None),
        "coupling offset": (replace(b.settings[2], fixed_couplings=(0.3,)),
                            12),
    }
    for label, (setting, degree) in cases.items():
        settings = list(b.settings)
        settings[2] = setting
        proto = Protocol("B", 2, tuple(settings), b.unknown_names)
        profile = invert._Profile(proto, np.zeros(proto.n_settings))
        [(free, rows, _)] = invert._scan_stages(profile)
        assert invert._stage_degree(profile, free, rows) == degree, label
        pts = invert._stage_points(profile, np.array([1.0]), free, rows)
        assert len(pts) == (invert.SCAN_POINTS[1] if degree is None
                            else 2 * degree + 1), label


def test_grid_stage_keeps_one_strength_without_a_degree():
    # B with a diagonal offset on setting 2: the stage is scanned on the
    # grid and still round-trips
    from dataclasses import replace
    b = scenario("B")
    settings = list(b.settings)
    settings[2] = replace(settings[2], fixed_diag=0.3)
    proto = Protocol("B", 2, tuple(settings), b.unknown_names)
    rng = np.random.default_rng(97)
    for _ in range(3):
        state, unknowns = sample_truth("B", rng)
        counts = predicted_statistics(proto, state, unknowns)
        expected = pack_values(proto.unknown_names, state, unknowns)
        assert max_param_error(proto.unknown_names,
                               reconstruct(counts, proto).x, expected) < 1e-8


@pytest.mark.filterwarnings("ignore::sctomo.errors.SingularAtSolutionWarning")
@pytest.mark.parametrize("name", ["B", "V"])
def test_stage_candidates_reach_a_fine_scan(monkeypatch, name):
    # every stage the scan solves (held stages at the fit they are held
    # at, re-solved ones on their populations) chooses a minimum that ties
    # with the lowest of a 4096-point scan of the same stage profile
    proto = scenario(name)
    rng = np.random.default_rng(98)
    stages = []
    original = invert._stage_minima

    def recorded(profile, starts, free, rows, cols, held):
        out = original(profile, starts, free, rows, cols, held)
        stages.append((profile, out[1], free, rows, list(cols), held.copy()))
        return out

    monkeypatch.setattr(invert, "_stage_minima", recorded)
    axis = TWO_PI * (np.arange(4096) + 0.5) / 4096
    for i in range(20):
        state, unknowns = sample_truth(name, rng)
        exact = predicted_statistics(proto, state, unknowns)
        noisy = simulate_counts(state, unknowns, proto,
                                NoiseModel("poisson", shots=10 ** 4,
                                           seed=2000 + i))
        for counts in (exact, noisy):
            stages.clear()
            invert._scan(invert._Profile(proto, _count_values(counts)))
            assert stages
            for profile, lam, free, rows, cols, held in stages:
                pts = np.tile(lam, (len(axis), 1))
                pts[:, free[0]] = axis
                scan = profile.objective(pts, rows, cols, held).min()
                chosen = profile.objective(lam[None, :], rows, cols, held)[0]
                assert 1 in invert._ties(np.array([scan, chosen]),
                                         float((profile.y ** 2).sum())), \
                    (i, free, chosen, scan)


def _count_values(counts):
    return counts if isinstance(counts, np.ndarray) else \
        np.array([r.value for r in counts])


def test_one_strength_stages_evaluate_no_grid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a strength grid on a one-strength stage")

    monkeypatch.setattr(invert, "_grid_minima", forbidden)
    rng = np.random.default_rng(99)
    for name in ("B", "B~beta", "V", "V~beta"):
        base = name.split("~")[0]
        proto = scenario(base)
        if name.endswith("~beta"):
            proto = with_unknown_phase(proto)
        state, unknowns = sample_truth(base, rng)
        counts = predicted_statistics(proto, state, unknowns)
        expected = pack_values(proto.unknown_names, state, unknowns)
        solvers = [reconstruct] + ([block_solve_v] if base == "V" else [])
        for solve in solvers:
            assert max_param_error(proto.unknown_names,
                                   solve(counts, proto).x, expected) < 1e-8, \
                (name, solve.__name__)

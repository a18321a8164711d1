"""Acceptance checks shared by the test suite and `sct validate`.

Each check returns a CheckResult with a PASS/FAIL line.  The checks follow
the shipped acceptance list:

 1 completeness of the statistics (sum over labels = trace)
 2 closed-form coefficient cross-check after sign-convention resolution
 3 closed-form Jacobian cross-checks and zero loci (discrepancies reported)
 4 block zero pattern of the V-type Jacobian
 5 gauge invariance, gauge fixing, gauge-quotient reconstruction
 6 noiseless identifiability round trips (A, B, V) + block/joint agreement
 7 grid-oracle vs reconstruct equivalence
 8 Poisson noise behavior (full suite only)
 9 scenario C structural check and the C-alt variant
10 generator spectrum structure

Checks 2, 3 and 9 also document known defects of the transcribed closed
forms; the computed statistics and Jacobians are authoritative throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import identify, invert
from .errors import StructuralSingularity
from .forward import (NoiseModel, closed_form_statistic, predicted_statistics,
                      probabilities, resolve_sign_convention, simulate_counts,
                      observed_values)
from .model import (DensityParams, GeneratorParams, TWO_PI, assemble_generator,
                    circular_distance, gauge_fix, gauge_transform, qubit_state,
                    random_generator, random_physical_state, state_matrix,
                    vtype_state, wrap_phase)
from .protocol import (UnknownParams, pack_values, qubit_unknowns, scenario,
                       values_dict, vtype_unknowns, with_unknown_phase)


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.criterion}: {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# Samplers and metrics
# ---------------------------------------------------------------------------


def sample_truth(scenario_name: str, rng):
    """Random physical truth kept away from the singular loci.

    Rejection is on the smallest singular value of the closed-form Jacobian
    (`identify.numeric_jacobian`) at the truth, i.e. on the actual local
    invertibility of the protocol: a truth below the scenario's floor is
    drawn again.
    """
    proto = scenario(scenario_name)
    smin_floor = {"A": 0.05, "B": 0.02, "C-alt": 0.01, "V": 0.008}[scenario_name]
    while True:
        if proto.dim == 2:
            state = random_physical_state(2, rng, min_coherence=0.1,
                                          eig_margin=0.02)
            lam = {}
            if "lam_c" in proto.process_unknown_names:
                lam["lam_c"] = rng.uniform(0.6, 2.4)
            if "lam_z" in proto.process_unknown_names:
                lam["lam_z"] = rng.uniform(0.6, 2.4)
            unknowns = UnknownParams(2, tuple(sorted(lam.items())))
        else:
            state = random_physical_state(3, rng, min_coherence=0.05,
                                          eig_margin=0.02)
            unknowns = vtype_unknowns(rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5))
        report = identify.numeric_jacobian(proto, state, unknowns)
        if report.smallest_singular_value >= smin_floor:
            return state, unknowns


def fidelity(state_a: DensityParams, state_b: DensityParams) -> float:
    """Uhlmann fidelity of the trace-normalized states."""
    a = state_matrix(state_a) / state_a.trace
    b = state_matrix(state_b) / state_b.trace
    w, v = np.linalg.eigh(a)
    sqrt_a = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_a @ b @ sqrt_a
    evs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sqrt(evs).sum() ** 2)


def max_param_error(names, x_est, x_true) -> float:
    """Worst-case parameter error; phase-like entries compared on the circle."""
    worst = 0.0
    for name, a, b in zip(names, x_est, x_true):
        if not name.startswith(("lam", "rho")):
            worst = max(worst, circular_distance(a, b))
        else:
            worst = max(worst, abs(float(a) - float(b)))
    return worst


def _result(criterion, name, passed, detail) -> CheckResult:
    return CheckResult(str(criterion), name, bool(passed), detail)


# ---------------------------------------------------------------------------
# Criterion 1: completeness
# ---------------------------------------------------------------------------


def check_completeness(seed: int = 1, draws: int = 1000) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dim in (2, 3):
        for _ in range(draws):
            state = random_physical_state(dim, rng)
            gen = random_generator(dim, rng)
            total = probabilities(state, gen).sum()
            worst = max(worst, abs(total - state.trace))
    return _result(1, "completeness",
                   worst <= 1e-12,
                   f"max |sum_j n_j - N| = {worst:.3e} over {draws} draws/dim "
                   "(tol 1e-12)")


# ---------------------------------------------------------------------------
# Criterion 2: closed-form coefficients
# ---------------------------------------------------------------------------


def check_closed_forms(seed: int = 2, draws: int = 1000,
                       sign_override: dict = None) -> CheckResult:
    rng = np.random.default_rng(seed)
    signs = {dim: resolve_sign_convention(dim) for dim in (2, 3)}
    if sign_override:
        signs.update(sign_override)
    worst = 0.0
    for dim in (2, 3):
        labels = (0, 1) if dim == 2 else (0, 1, 2)
        for _ in range(draws):
            state = random_physical_state(dim, rng)
            gen = random_generator(dim, rng)
            for label in labels:
                exact = probabilities(state, gen)[label]
                approx = closed_form_statistic(state, gen, label, signs[dim])
                worst = max(worst, abs(approx - exact))
    return _result(2, "closed-form coefficients",
                   worst <= 1e-10,
                   f"resolved sign conventions {signs}; max |contracted - trace| "
                   f"= {worst:.3e} over {draws} draws/dim (tol 1e-10)")


# ---------------------------------------------------------------------------
# Criterion 3: closed-form Jacobians and zero loci
# ---------------------------------------------------------------------------


def _b_point(rng):
    state = random_physical_state(2, rng, min_coherence=0.08, eig_margin=0.01)
    lam = rng.uniform(0.4, 2.7)
    return state, qubit_unknowns(lam_c=lam)


def check_jacobian_formulas(seed: int = 3, draws: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    proto_a, proto_b, proto_v = scenario("A"), scenario("B"), scenario("V")
    lines = []
    ok = True

    worst_a = 0.0
    for _ in range(draws):
        state = random_physical_state(2, rng, min_coherence=0.05)
        report = identify.numeric_jacobian(proto_a, state, None)
        worst_a = max(worst_a, abs(report.abs_determinant - state.coherences[0]))
    ok &= worst_a <= 1e-6
    lines.append(f"|J_A|=rho01 max err {worst_a:.2e} (tol 1e-6)")

    worst_b = 0.0
    worst_b_literal = 0.0
    n_used = 0
    while n_used < draws:
        state, unknowns = _b_point(rng)
        point = values_dict(state, unknowns)
        resolved = abs(identify.closed_form_jacobian("B", point, phase_sign=-1))
        if resolved < 1e-3:
            continue
        n_used += 1
        det = identify.numeric_jacobian(proto_b, state, unknowns).abs_determinant
        worst_b = max(worst_b, abs(det - resolved) / resolved)
        literal = abs(identify.closed_form_jacobian("B", point, phase_sign=1))
        if literal > 1e-3:
            worst_b_literal = max(worst_b_literal, abs(det - literal) / literal)
    ok &= worst_b <= 1e-4
    lines.append(f"|J_B| rel err {worst_b:.2e} with the resolved phase "
                 f"convention (tol 1e-4); literal-phase evaluation deviates by "
                 f"up to {worst_b_literal:.2f} (defect reported, not hidden)")

    worst_v = 0.0
    worst_v_printed = 0.0
    n_used = 0
    rngv = np.random.default_rng(seed + 17)
    while n_used < draws:
        state, unknowns = sample_truth("V", rngv)
        point = values_dict(state, unknowns)
        corrected = abs(identify.closed_form_jacobian(
            "Vtotal", point, phase_sign=-1, j3_corrected=True))
        if corrected < 1e-9:
            continue
        n_used += 1
        det = identify.numeric_jacobian(proto_v, state, unknowns).abs_determinant
        worst_v = max(worst_v, abs(det - corrected) / corrected)
        printed = abs(identify.closed_form_jacobian(
            "Vtotal", point, phase_sign=-1, j3_corrected=False))
        if printed > 1e-9:
            worst_v_printed = max(worst_v_printed, abs(det - printed) / printed)
    ok &= worst_v <= 1e-3
    lines.append(f"|J1*J2*J3| vs 11x11 Jacobian rel err {worst_v:.2e} with the "
                 f"corrected third block (tol 1e-3); as printed the third "
                 f"block misplaces cos(Omega/2) and deviates by up to "
                 f"{worst_v_printed:.2f}")

    # zero loci of the B determinant
    state = qubit_state(0.62, 0.38, 0.24, 1.1)
    base = qubit_unknowns(lam_c=1.3)
    det_at = {}
    for tag, vec in {
        "rho01=0": pack_values(proto_b.unknown_names,
                               qubit_state(0.62, 0.38, 0.0, 1.1), base),
        "lam_c~0": None, "lam_c=pi": None, "lam_c=pi/2": None,
        "gamma=3pi/4": None, "gamma=7pi/4": None, "gamma=pi/4": None,
    }.items():
        x = pack_values(proto_b.unknown_names, state, base) if vec is None else vec
        names = list(proto_b.unknown_names)
        if tag == "lam_c~0":
            x[names.index("lam_c")] = 1e-7
        elif tag == "lam_c=pi":
            x[names.index("lam_c")] = math.pi
        elif tag == "lam_c=pi/2":
            x[names.index("lam_c")] = math.pi / 2
        elif tag.startswith("gamma"):
            x[names.index("gamma")] = {"gamma=3pi/4": 3 * math.pi / 4,
                                       "gamma=7pi/4": 7 * math.pi / 4,
                                       "gamma=pi/4": math.pi / 4}[tag]
        det_at[tag] = identify.jacobian_from_vector(proto_b, x).abs_determinant
    zeros_ok = (det_at["rho01=0"] <= 1e-8 and det_at["lam_c~0"] <= 1e-8
                and det_at["lam_c=pi"] <= 1e-8
                and det_at["gamma=3pi/4"] <= 1e-8
                and det_at["gamma=7pi/4"] <= 1e-8)
    not_zeros_ok = det_at["lam_c=pi/2"] > 1e-3 and det_at["gamma=pi/4"] > 1e-3
    ok &= zeros_ok and not_zeros_ok
    lines.append(
        "zero loci: rho01=0, lam_c=0, lam_c=pi confirmed; the catalog's "
        "lam_c=pi/2 entry is NOT a zero (|det|={:.3g}), matching the "
        "determinant formula instead of the printed zero list; the phase "
        "zeros sit at gamma=3pi/4 and 7pi/4 in this phase convention "
        "(the flipped-convention image of the printed pi/4, 5pi/4), and "
        "gamma=pi/4 itself is NOT a zero (|det|={:.3g})".format(
            det_at["lam_c=pi/2"], det_at["gamma=pi/4"]))

    return _result(3, "Jacobian closed forms", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# Criterion 4: V-type Jacobian block pattern
# ---------------------------------------------------------------------------


def check_block_pattern(seed: int = 4, draws: int = 50) -> CheckResult:
    rng = np.random.default_rng(seed)
    proto = scenario("V")
    worst_zero = 0.0
    gray_ok = True
    blocks_ok = True
    for _ in range(draws):
        state, unknowns = sample_truth("V", rng)
        jac = identify.numeric_jacobian(proto, state, unknowns).matrix
        # zeros above-right of each solved block, and block-2 rows touch no
        # block-1 parameter other than the ground population (column 0)
        zero_zones = [jac[0:5, 5:11], jac[5:9, 9:11], jac[5:9, 1:5]]
        worst_zero = max(worst_zero, max(np.abs(z).max() for z in zero_zones))
        gray_ok &= bool(np.abs(jac[5:9, 0]).max() > 1e-6)
        blocks_ok &= (abs(np.linalg.det(jac[0:5, 0:5])) > 1e-12
                      and abs(np.linalg.det(jac[5:9, 5:9])) > 1e-12
                      and abs(np.linalg.det(jac[9:11, 9:11])) > 1e-12)
    passed = worst_zero < 1e-10 and gray_ok and blocks_ok
    return _result(4, "V-type block pattern", passed,
                   f"max |entry| in the structural-zero zones {worst_zero:.2e} "
                   f"(tol 1e-10) over {draws} generic points; ground-population "
                   "column active in the second block; diagonal blocks "
                   "nonsingular")


# ---------------------------------------------------------------------------
# Criterion 5: gauge invariance and fixing
# ---------------------------------------------------------------------------


def check_gauge_invariance(seed: int = 5, draws: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_inv = 0.0
    worst_fix = 0.0
    for dim in (2, 3):
        for _ in range(draws):
            state = random_physical_state(dim, rng, min_coherence=0.02)
            gen = random_generator(dim, rng)
            eta = rng.uniform(0, TWO_PI) if dim == 2 else rng.uniform(0, TWO_PI, 2)
            gstate, ggen = gauge_transform(state, gen, eta)
            worst_inv = max(worst_inv, np.abs(
                probabilities(gstate, ggen) - probabilities(state, gen)).max())
            f1 = gauge_fix(gstate, ggen)
            f2 = gauge_fix(*gauge_fix(gstate, ggen))
            f0 = gauge_fix(state, gen)
            for a, b in ((f1, f2), (f1, f0)):
                worst_fix = max(
                    worst_fix,
                    max(circular_distance(pa, pb) for pa, pb in
                        zip(a[0].phases, b[0].phases)),
                    max(circular_distance(pa, pb) for pa, pb in
                        zip(a[1].phases, b[1].phases)))

    # gauge-quotient reconstruction on the phase-unknown B variant
    proto = with_unknown_phase(scenario("B"))
    rng2 = np.random.default_rng(seed + 1)
    worst_counts = 0.0
    worst_recon = 0.0
    for _ in range(5):
        state, unknowns = sample_truth("B", rng2)
        eta = rng2.uniform(0.3, 5.9)
        # gauge partner: state phase and the controls' reference offset both
        # shift by eta
        gstate = DensityParams(state.populations, state.coherences,
                               (wrap_phase(state.phases[0] + eta),))
        counts1 = predicted_statistics(proto, state, unknowns, phase_ref=0.0)
        counts2 = predicted_statistics(proto, gstate, unknowns, phase_ref=eta)
        worst_counts = max(worst_counts, np.abs(counts1 - counts2).max())
        expected = pack_values(proto.unknown_names, state, unknowns,
                               phase_ref=0.0)
        rec = invert.reconstruct(counts1, proto)
        worst_recon = max(worst_recon, max_param_error(
            proto.unknown_names, rec.x, expected))
    passed = worst_inv <= 1e-12 and worst_fix <= 1e-9 and \
        worst_counts <= 1e-12 and worst_recon <= 1e-6
    return _result(5, "gauge invariance and fixing", passed,
                   f"statistics invariance {worst_inv:.2e} (tol 1e-12); "
                   f"gauge_fix idempotence/absorption {worst_fix:.2e}; "
                   f"gauge-related truths: identical counts ({worst_counts:.2e}) "
                   f"and gauge-fixed reconstruction error {worst_recon:.2e} "
                   "(tol 1e-6)")


# ---------------------------------------------------------------------------
# Criterion 6: noiseless identifiability
# ---------------------------------------------------------------------------


def check_roundtrips(seed: int = 6, draws: int = 100) -> CheckResult:
    rng = np.random.default_rng(seed)
    details = []
    ok = True
    for name in ("A", "B", "V"):
        proto = scenario(name)
        worst = 0.0
        worst_block = 0.0
        for _ in range(draws):
            state, unknowns = sample_truth(name, rng)
            truth = pack_values(proto.unknown_names, state, unknowns)
            counts = predicted_statistics(proto, state, unknowns)
            rec = invert.reconstruct(counts, proto)
            worst = max(worst, max_param_error(proto.unknown_names, rec.x, truth))
            if name == "V":
                blk = invert.block_solve_v(counts, proto)
                worst_block = max(worst_block, max_param_error(
                    proto.unknown_names, blk.x, rec.x))
        ok &= worst <= 1e-5
        msg = f"{name}: max parameter error {worst:.2e} over {draws} truths"
        if name == "V":
            ok &= worst_block <= 1e-6
            msg += (f"; block vs joint agreement {worst_block:.2e} over "
                    f"{draws} (tol 1e-6)")
        details.append(msg)
    return _result(6, "noiseless identifiability (tol 1e-5)", ok,
                   "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 7: oracle equivalence
# ---------------------------------------------------------------------------


def check_oracle(seed: int = 7, draws: int = 25) -> CheckResult:
    rng = np.random.default_rng(seed)
    proto = scenario("B")
    worst = 0.0
    for _ in range(draws):
        state, unknowns = sample_truth("B", rng)
        counts = predicted_statistics(proto, state, unknowns)
        oracle = invert.grid_oracle(counts, proto, grid=15, refine_levels=4)
        polished = invert.polish(counts, proto, oracle.values)
        rec = invert.reconstruct(counts, proto)
        worst = max(worst, abs(polished.f - rec.residual))
    return _result(7, "oracle equivalence", worst <= 1e-10,
                   f"max |objective(oracle+polish) - objective(reconstruct)| "
                   f"= {worst:.2e} over {draws} instances (tol 1e-10)")


# ---------------------------------------------------------------------------
# Criterion 8: Poisson noise behavior (full suite)
# ---------------------------------------------------------------------------


def check_noise(seed: int = 8, draws: int = 50) -> CheckResult:
    rng = np.random.default_rng(seed)
    proto = scenario("B")
    fids_hi, infid_hi, infid_lo, physicality = [], [], [], []
    for i in range(draws):
        state, unknowns = sample_truth("B", rng)
        for shots, sink in ((10 ** 6, infid_hi), (10 ** 4, infid_lo)):
            noise = NoiseModel("poisson", shots=shots, seed=seed * 1000 + i)
            counts = simulate_counts(state, unknowns, proto, noise)
            rec = invert.reconstruct(counts, proto)
            f = fidelity(state, rec.state)
            sink.append(1.0 - f)
            if shots == 10 ** 6:
                fids_hi.append(f)
                physicality.append(rec.physicality)
    med_fid = float(np.median(fids_hi))
    ratio = float(np.median(infid_lo) / max(np.median(infid_hi), 1e-300))
    frac_phys = float(np.mean(np.array(physicality) >= -0.02))
    passed = med_fid >= 0.99 and ratio >= 5.0 and frac_phys >= 0.95
    return _result(8, "Poisson noise behavior", passed,
                   f"median fidelity at 1e6 shots {med_fid:.5f} (need >=0.99); "
                   f"median infidelity ratio 1e4/1e6 shots {ratio:.1f} "
                   f"(need >=5); physicality >= -0.02 in {frac_phys:.0%} "
                   "of trials (need >=95%)")


# ---------------------------------------------------------------------------
# Criterion 9: scenario C structural check
# ---------------------------------------------------------------------------


def check_scenario_c(seed: int = 9, draws: int = 10) -> CheckResult:
    rng = np.random.default_rng(seed)
    dead = identify.structural_zero_columns(scenario("C"))
    dead_alt = identify.structural_zero_columns(scenario("C-alt"))
    proto_c = scenario("C")
    # refusal path
    state, unknowns = sample_truth("C-alt", rng)
    counts_c = predicted_statistics(proto_c, state, unknowns)
    refused = False
    try:
        invert.reconstruct(counts_c, proto_c)
    except StructuralSingularity:
        refused = True
    # C-alt: lam_z enters only the last two settings (rows 5-6 of the 7x6
    # Jacobian), the first of which has a live lam_z entry; and round trips
    proto = scenario("C-alt")
    worst_tri = 0.0
    worst_diag = np.inf
    worst_round = 0.0
    for _ in range(draws):
        state, unknowns = sample_truth("C-alt", rng)
        jac = identify.numeric_jacobian(proto, state, unknowns).matrix
        worst_tri = max(worst_tri, np.abs(jac[0:5, 5]).max())
        worst_diag = min(worst_diag, abs(jac[5, 5]))
        counts = predicted_statistics(proto, state, unknowns)
        rec = invert.reconstruct(counts, proto)
        truth = pack_values(proto.unknown_names, state, unknowns)
        worst_round = max(worst_round,
                          max_param_error(proto.unknown_names, rec.x, truth))
    passed = (dead == ("lam_z",) and dead_alt == () and refused
              and worst_tri < 1e-10 and worst_diag > 1e-4
              and worst_round <= 1e-5)
    return _result(9, "scenario C structural check", passed,
                   "the published sixth setting is diagonal, so its statistic "
                   "is independent of lam_z: the lam_z column is structurally "
                   f"zero (dead columns {list(dead)}) and the printed nonzero "
                   "determinant claim is unreproducible; reconstruct refuses "
                   f"(refused={refused}); C-alt has no dead columns, its "
                   f"lam_z column vanishes on the five B rows (max "
                   f"{worst_tri:.1e}) and is live on the first mixed row "
                   f"(min {worst_diag:.3f}), and the second mixed row "
                   "(m_z = 2) leaves a single exact root, so it round-trips "
                   f"to {worst_round:.2e} over {draws} truths (tol 1e-5)")


# ---------------------------------------------------------------------------
# Criterion 10: generator spectrum
# ---------------------------------------------------------------------------


def check_spectrum(seed: int = 10, draws: int = 500) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        h1, h2 = rng.uniform(0, 6, 2)
        p1, p2 = rng.uniform(0, TWO_PI, 2)
        gen = GeneratorParams(3, 0.0, (h1, h2), (p1, p2))
        evs = np.linalg.eigvalsh(assemble_generator(gen))
        om = gen.omega
        expected = np.array([-om / 2, 0.0, om / 2])
        worst = max(worst, np.abs(evs - expected).max())
    return _result(10, "V-type generator spectrum", worst <= 1e-12,
                   f"max |spec - (-Omega/2, 0, Omega/2)| = {worst:.3e} over "
                   f"{draws} draws (tol 1e-12)")


# ---------------------------------------------------------------------------
# Suite driver and conventions report
# ---------------------------------------------------------------------------


def run_suite(suite: str = "quick", seed: int = 20260810) -> list:
    checks = [
        check_completeness(seed + 1),
        check_closed_forms(seed + 2),
        check_jacobian_formulas(seed + 3),
        check_block_pattern(seed + 4),
        check_gauge_invariance(seed + 5),
        check_roundtrips(seed + 6),
        check_oracle(seed + 7),
        check_scenario_c(seed + 9),
        check_spectrum(seed + 10),
    ]
    if suite == "full":
        checks.insert(7, check_noise(seed + 8))
    return checks


def conventions_report() -> str:
    signs = {dim: resolve_sign_convention(dim) for dim in (2, 3)}
    lines = [
        "Conventions resolved against the direct-trace statistics",
        "=======================================================",
        "",
        "Statistic definition (authoritative): n = tr(rho' U^dag |j><j| U),",
        "U = exp(-iG); state entry (i,j), i<j, is rho_ij * exp(-i*gamma_ij);",
        "generator entry (i,j), i<j, is (h/2) * exp(-i*phi).",
        "",
        f"Coefficient sign convention, dim 2: {signs[2]:+d}",
        f"Coefficient sign convention, dim 3: {signs[3]:+d}",
        "(+1: sine terms evaluated at +beta as printed; -1: at -beta.",
        " The two-level closed forms require the flip; the three-level",
        " forms hold verbatim; the source evidently switches projector",
        " conventions between its two-level and three-level parts.)",
        "",
        "Closed-form determinant cross-checks:",
        " * the two-level scan determinant and the first two three-level",
        "   blocks match the computed Jacobian after the same phase flip",
        "   (gamma -> -gamma), consistent with the dim-2 coefficient",
        "   resolution above;",
        " * the third-block expression misplaces cos(Omega/2): the 2x2",
        "   coherence-block determinant is proportional to",
        "   (cos(Omega/2)*lam1^2 + lam2^2)^2, not (lam1^2 +",
        "   lam2^2*cos(Omega/2))^2; the corrected form matches the computed",
        "   determinant to round-off;",
        " * the published zero list entry lam_c = pi/2 disagrees with both",
        "   the determinant formula and the computed Jacobian; the true zero",
        "   is at lam_c = pi (where the doubled-control settings coincide);",
        " * the published scenario-C sixth setting is diagonal, making its",
        "   statistic independent of lam_z; the printed block-determinant",
        "   claim is unreproducible and C-alt is provided instead: two",
        "   settings drive the coupling and the diagonal together",
        "   (m_z = 1 and 2), since one scalar equation in lam_z leaves",
        "   several exact roots in (0, 2*pi].",
        "",
        "Branch rule for exact ties (the reflections lam_j -> 2*pi - lam_j):",
        " every solver compares the reflection family of its best strengths,",
        " with the state re-solved linearly at each member.  Members whose",
        " least-squares objective exceeds the lowest by at most",
        f" max({invert.TIE_RTOL:g} * lowest, {invert.TIE_ATOL:g} * max(1, |y|^2))",
        " are exact ties; among them the physical member comes first, then",
        " the one with the fewest strengths above pi, then the order offered.",
        "",
        "Flat-stage rule (a vanished coherence leaves a curve of exact fits):",
        " the strengths are solved in stages, each holding what the earlier",
        " ones fitted.  A stage with one strength whose design is a",
        " trigonometric polynomial of it (B, both V blocks) has the profile",
        " N/D, N and D the Gram determinants of its design with and without",
        " the counts; both have a degree K fixed by the setting multipliers,",
        " and the stage's minima come from the roots of N'D - ND'.  That",
        " stage is flat when N is identically zero: at most",
        f" {invert.TIE_ATOL:g} * |y|^2 * max D at each of its 2K+1 samples.  A",
        " grid stage (C-alt's joint one) is flat when its objective is",
        f" at most {invert.TIE_ATOL:g} * |y|^2 at more than half of its grid",
        " points.  A flat stage is re-solved on its populations alone, with",
        " its coherence at zero, and that phase is undefined.  A stage that a",
        " later one holds is also re-solved on its populations when its",
        " Jacobian at its chosen minimum is near-singular (the rule of",
        " singular_at_solution), a degenerate strength; the state is then",
        " fitted on every coordinate at the strengths found.",
        "",
        "Stage rule for exact ties at distinct strengths:",
        " each stage refines every candidate that can tie with its lowest.",
        " Among the end points whose objective ties with the lowest",
        f" (within max({invert.TIE_RTOL:g} * lowest, {invert.TIE_ATOL:g} * |y|^2))",
        " it goes on from the one with the fewest strengths above pi, then",
        " the one whose stage Jacobian has the largest smallest singular",
        f" value (values within {invert.SMIN_RTOL:g} of each other, relative, are",
        " equal), then the first offered.  V with rho02 = 0 and",
        " lam = (1.2, 1.7) fits its populations-only block 2 exactly at",
        " lam2 = 1.7 (smallest singular value 0.065) and 1.4224 (0.050), so",
        " 1.7 is chosen; round-off cannot flip that order.",
        "",
    ]
    return "\n".join(lines)

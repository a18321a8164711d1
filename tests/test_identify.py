"""Tests for the identifiability analysis."""

import io as std_io
import math

import numpy as np
import pytest

from sctomo import identify
from sctomo.errors import EmptyRegion, MissingSymbol
from sctomo.identify import (closed_form_jacobian, jacobian_from_vector,
                             numeric_jacobian, singularity_scan,
                             structural_zero_columns)
from sctomo.model import qubit_state, vtype_state
from sctomo.protocol import (pack_values, qubit_unknowns, scenario,
                             values_dict, vtype_unknowns)


def test_scenario_a_determinant_equals_coherence():
    proto = scenario("A")
    state = qubit_state(0.6, 0.4, 0.3, 1.0)
    report = numeric_jacobian(proto, state, None)
    assert report.abs_determinant == pytest.approx(0.3, abs=1e-6)
    assert report.matrix.shape == (4, 4)
    assert report.condition_number > 1


def test_scenario_b_zero_coherence_locus():
    proto = scenario("B")
    state = qubit_state(0.6, 0.4, 0.0, 1.0)
    report = numeric_jacobian(proto, state, qubit_unknowns(lam_c=1.3))
    assert report.abs_determinant <= 1e-8


def test_scenario_b_printed_value_point():
    proto = scenario("B")
    state = qubit_state(0.6, 0.4, 0.25, 0.0)
    report = numeric_jacobian(proto, state, qubit_unknowns(lam_c=np.pi / 2))
    assert report.abs_determinant == pytest.approx(0.125, abs=1e-5)
    point = values_dict(state, qubit_unknowns(lam_c=np.pi / 2))
    assert closed_form_jacobian("B", point) == pytest.approx(-0.125)


def test_closed_form_j3_frozen_value():
    # value of the transcribed expression at lam1 = lam2 = 1, rho12 = 0.1
    # (computed from the expression itself; at lam1 = lam2 the corrected and
    # printed cosine placements coincide)
    point = {"lam1": 1.0, "lam2": 1.0, "rho12": 0.1}
    value = closed_form_jacobian("J3", point)
    assert value == pytest.approx(-0.004452694040039544, rel=1e-12)
    assert closed_form_jacobian("J3", point, j3_corrected=True) == \
        pytest.approx(value, rel=1e-12)


def test_closed_form_j1_zero_at_zero_coherence():
    assert closed_form_jacobian(
        "J1", {"rho01": 0.0, "lam1": 1.2, "gamma01": 0.3}) == 0.0


def test_closed_form_missing_symbol():
    with pytest.raises(MissingSymbol):
        closed_form_jacobian("B", {"rho01": 0.1})
    with pytest.raises(MissingSymbol):
        closed_form_jacobian("nope", {})


def test_numeric_matches_resolved_closed_form():
    rng = np.random.default_rng(41)
    proto = scenario("B")
    for _ in range(30):
        state = qubit_state(0.6, 0.4, rng.uniform(0.1, 0.4),
                            rng.uniform(0, 2 * np.pi))
        unknowns = qubit_unknowns(lam_c=rng.uniform(0.4, 2.6))
        point = values_dict(state, unknowns)
        resolved = abs(closed_form_jacobian("B", point, phase_sign=-1))
        if resolved < 1e-3:
            continue
        det = numeric_jacobian(proto, state, unknowns).abs_determinant
        assert det == pytest.approx(resolved, rel=1e-4)


def test_v_product_with_corrected_block():
    proto = scenario("V")
    state = vtype_state(0.4, 0.35, 0.25, 0.1, 0.11, 0.09, 0.9, 2.2, 1.4)
    unknowns = vtype_unknowns(1.2, 1.7)
    det = numeric_jacobian(proto, state, unknowns).abs_determinant
    point = values_dict(state, unknowns)
    corrected = abs(closed_form_jacobian("Vtotal", point, phase_sign=-1,
                                         j3_corrected=True))
    assert det == pytest.approx(corrected, rel=1e-3)
    printed = abs(closed_form_jacobian("Vtotal", point, phase_sign=-1))
    assert abs(det - printed) / printed > 0.1  # documented defect


def test_scenario_c_block_structure():
    state = qubit_state(0.6, 0.4, 0.25, 0.8)
    unknowns = unknowns = qubit_unknowns(lam_c=1.3, lam_z=1.1)
    report_c = numeric_jacobian(scenario("C"), state, unknowns)
    # rows of the five-setting block never touch lam_z; neither does the
    # published sixth setting (diagonal rotation), hence the dead column
    assert np.abs(report_c.matrix[:, 5]).max() < 1e-10
    assert report_c.abs_determinant < 1e-10

    report_alt = numeric_jacobian(scenario("C-alt"), state, unknowns)
    assert np.abs(report_alt.matrix[0:5, 5]).max() < 1e-10
    # the (6,6) entry equals an independent finite difference of the sixth
    # statistic with respect to lam_z
    from sctomo.forward import predicted_statistics
    eps = 1e-6
    up = predicted_statistics(scenario("C-alt"), state,
                              qubit_unknowns(lam_c=1.3, lam_z=1.1 + eps))[5]
    dn = predicted_statistics(scenario("C-alt"), state,
                              qubit_unknowns(lam_c=1.3, lam_z=1.1 - eps))[5]
    assert report_alt.matrix[5, 5] == pytest.approx((up - dn) / (2 * eps),
                                                    rel=1e-4)
    # the 7x6 Jacobian has full column rank (locally invertible), with the
    # margin `validation.sample_truth` demands of C-alt truths
    assert report_alt.smallest_singular_value > 1e-2


def test_structural_zero_columns():
    assert structural_zero_columns(scenario("C")) == ("lam_z",)
    assert structural_zero_columns(scenario("C-alt")) == ()
    assert structural_zero_columns(scenario("B")) == ()


def test_singularity_scan_phase_axis():
    proto = scenario("B")
    state = qubit_state(0.6, 0.4, 0.25, 0.8)
    unknowns = qubit_unknowns(lam_c=1.3)
    scan = singularity_scan(proto, state, unknowns,
                            {"gamma": (0.0, 2 * np.pi)}, 64)
    flagged = [row[0] for row in scan.rows if row[-1]]
    # zeros of the phase factor sit at 3*pi/4 and 7*pi/4 in this convention
    assert len(flagged) == 2
    assert min(abs(g - 3 * np.pi / 4) for g in flagged) < 1e-9
    assert min(abs(g - 7 * np.pi / 4) for g in flagged) < 1e-9


def test_singularity_scan_strength_axis():
    proto = scenario("B")
    state = qubit_state(0.6, 0.4, 0.25, 0.8)
    unknowns = qubit_unknowns(lam_c=1.3)
    scan = singularity_scan(proto, state, unknowns,
                            {"lam_c": (1e-6, 2 * np.pi)}, 64)
    flagged = [row[0] for row in scan.rows if row[-1]]
    assert any(lam < 0.2 for lam in flagged)            # lam ~ 0
    assert any(abs(lam - np.pi) < 0.2 for lam in flagged)  # lam = pi
    assert not any(abs(lam - np.pi / 2) < 0.2 for lam in flagged)


def test_singularity_scan_chunks_match_pointwise_reports():
    proto = scenario("V")
    state = vtype_state(0.4, 0.35, 0.25, 0.1, 0.11, 0.09, 0.9, 2.2, 1.4)
    unknowns = vtype_unknowns(1.2, 1.7)
    # one full chunk and a partial one
    grid = math.isqrt(identify.SCAN_CHUNK) + 1
    assert identify.SCAN_CHUNK < grid ** 2 < 2 * identify.SCAN_CHUNK
    lo, hi = 0.2, 3.0
    scan = singularity_scan(proto, state, unknowns,
                            {"lam1": (lo, hi), "lam2": (lo, hi)}, grid)
    assert len(scan.rows) == grid ** 2
    base = pack_values(proto.unknown_names, state, unknowns)
    axis = lo + (hi - lo) * np.arange(grid) / grid
    worst = 0.0
    for k, (lam1, lam2, abs_det, flag) in enumerate(scan.rows):
        # rows in itertools.product order, the last axis fastest
        assert (lam1, lam2) == (axis[k // grid], axis[k % grid])
        x = base.copy()
        x[[proto.unknown_names.index("lam1"),
           proto.unknown_names.index("lam2")]] = lam1, lam2
        ref = jacobian_from_vector(proto, x).abs_determinant
        worst = max(worst, abs(abs_det - ref) / ref)
    assert worst <= 1e-12


def test_singularity_scan_flags_a_grid_singular_everywhere():
    # scenario C's lam_z column is structurally zero, so every grid point is
    # singular although no |det| stands out against the grid median
    proto = scenario("C")
    state = qubit_state(0.6, 0.4, 0.25, 0.8)
    scan = singularity_scan(proto, state, qubit_unknowns(lam_c=1.3, lam_z=1.1),
                            {"lam_c": (0.5, 2.0)}, 8)
    assert len(scan.rows) == 8
    assert all(row[-1] for row in scan.rows)


def test_scan_rows_are_one_array_written_in_chunks():
    proto = scenario("V")
    state = vtype_state(0.4, 0.35, 0.25, 0.1, 0.11, 0.09, 0.9, 2.2, 1.4)
    unknowns = vtype_unknowns(1.2, 1.7)
    # one full chunk and a partial one, with lam2 = pi flagged
    grid = math.isqrt(identify.SCAN_CHUNK) + 1
    scan = singularity_scan(proto, state, unknowns,
                            {"lam1": (0.2, 2 * np.pi), "lam2": (0.2, 2 * np.pi)},
                            grid)
    assert isinstance(scan.rows, np.ndarray)
    assert scan.rows.shape == (grid ** 2, 4)
    assert 0 < scan.rows[:, -1].sum() < grid ** 2
    buf = std_io.StringIO()
    scan.to_csv(buf)
    lines = ["lam1,lam2,abs_det,flag\n"]
    for *vals, flag in scan.rows.tolist():
        lines.append(",".join([f"{v:.17g}" for v in vals] + [str(int(flag))])
                     + "\n")
    assert buf.getvalue() == "".join(lines)


def test_scan_csv_format():
    proto = scenario("B")
    state = qubit_state(0.6, 0.4, 0.25, 0.8)
    scan = singularity_scan(proto, state, qubit_unknowns(lam_c=1.3),
                            {"gamma": (0.0, 2 * np.pi)}, 8)
    buf = std_io.StringIO()
    scan.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "gamma,abs_det,flag"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) > 0
    assert first[2] in ("0", "1")


def test_scan_errors():
    proto = scenario("B")
    state = qubit_state(0.6, 0.4, 0.25, 0.8)
    unknowns = qubit_unknowns(lam_c=1.3)
    with pytest.raises(EmptyRegion):
        singularity_scan(proto, state, unknowns, {}, 8)
    with pytest.raises(EmptyRegion):
        singularity_scan(proto, state, unknowns, {"gamma": (0, 1)}, 1)
    with pytest.raises(MissingSymbol):
        singularity_scan(proto, state, unknowns, {"lam_z": (0, 1)}, 4)


def test_block_pattern_single_point():
    proto = scenario("V")
    state = vtype_state(0.4, 0.35, 0.25, 0.1, 0.11, 0.09, 0.9, 2.2, 1.4)
    jac = numeric_jacobian(proto, state, vtype_unknowns(1.2, 1.7)).matrix
    assert np.abs(jac[0:5, 5:11]).max() < 1e-10
    assert np.abs(jac[5:9, 9:11]).max() < 1e-10
    assert np.abs(jac[5:9, 1:5]).max() < 1e-10
    assert np.abs(jac[5:9, 0]).max() > 1e-4  # shared ground population
    mask = numeric_jacobian(proto, state, vtype_unknowns(1.2, 1.7)).near_zero_mask()
    assert mask[0, 5:].all()

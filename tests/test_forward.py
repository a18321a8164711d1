"""Tests for the forward measurement model."""

import numpy as np
import pytest

from sctomo import forward
from sctomo.errors import BadLabel, DimensionMismatch
from sctomo.forward import (NoiseModel, ProtocolLayout, closed_form_statistic,
                            coefficients, evolve, predicted_statistics,
                            probabilities, probability, resolve_sign_convention,
                            simulate_counts)
from sctomo.model import (derived_angles, qubit_generator, qubit_state,
                          state_matrix, vtype_generator, vtype_state,
                          gauge_transform)
from sctomo.protocol import pack_values, qubit_unknowns, scenario
from sctomo.validation import random_generator, random_physical_state


def test_evolve_examples():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(evolve(rho, qubit_generator(0, 0, 0)), rho)
    flipped = evolve(rho, qubit_generator(0, np.pi, 0))
    assert np.allclose(flipped, np.diag([0, 1]), atol=1e-12)
    mixed = np.eye(2) / 2
    assert np.allclose(evolve(mixed, qubit_generator(1.0, 2.0, 0.3)), mixed)
    with pytest.raises(DimensionMismatch):
        evolve(np.eye(3) / 3, qubit_generator(0, 1, 0))


def test_probability_examples():
    assert probability(qubit_state(1, 0, 0, 0), qubit_generator(0, 0, 0), 0) \
        == pytest.approx(1.0)
    mixed = qubit_state(0.5, 0.5, 0, 0)
    assert probability(mixed, qubit_generator(0.7, 1.3, 0.9), 1) \
        == pytest.approx(0.5)
    state = qubit_state(0.3, 0.7, 0, 0)
    assert probability(state, qubit_generator(0, np.pi, 0), 0) \
        == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(BadLabel):
        probability(mixed, qubit_generator(0, 1, 0), 2)


def test_probability_stays_in_range():
    rng = np.random.default_rng(31)
    for _ in range(200):
        dim = 2 if rng.random() < 0.5 else 3
        state = random_physical_state(dim, rng)
        gen = random_generator(dim, rng)
        for label in range(dim):
            p = probability(state, gen, label)
            assert -1e-12 <= p <= state.trace + 1e-12


def test_completeness_small():
    rng = np.random.default_rng(32)
    for dim in (2, 3):
        for _ in range(100):
            state = random_physical_state(dim, rng)
            gen = random_generator(dim, rng)
            assert abs(probabilities(state, gen).sum() - state.trace) < 1e-12


def test_coefficients_half_turn_example():
    coeff = coefficients(qubit_generator(0, np.pi, 0), 0, 1).as_dict()
    assert coeff[(0, 0)] == pytest.approx(0.0, abs=1e-15)
    assert coeff[(1, 1)] == pytest.approx(1.0)
    assert coeff[(0, 1)] == pytest.approx(0.0, abs=1e-15)


def test_coefficients_vtype_half_turn_example():
    coeff = coefficients(vtype_generator(np.pi, 0, 0, 0), 1, 1).as_dict()
    assert coeff[(0, 0)] == pytest.approx(1.0)
    assert coeff[(1, 1)] == pytest.approx(0.0, abs=1e-15)
    assert coeff[(2, 2)] == pytest.approx(0.0, abs=1e-15)
    assert coeff[(1, 2)] == pytest.approx(0.0, abs=1e-15)


def test_coefficient_families_resolve_identity():
    rng = np.random.default_rng(33)
    for dim in (2, 3):
        sign = resolve_sign_convention(dim)
        for _ in range(100):
            gen = random_generator(dim, rng)
            betas = rng.uniform(0, 2 * np.pi, 1 if dim == 2 else 3)
            total_diag = np.zeros(dim)
            total_off = np.zeros(1 if dim == 2 else 3)
            for label in range(dim):
                coeff = coefficients(gen, label, sign, betas=betas).as_dict()
                total_diag += [coeff[(i, i)] for i in range(dim)]
                pairs = [(0, 1)] if dim == 2 else [(0, 1), (0, 2), (1, 2)]
                total_off += [coeff[p] for p in pairs]
                for i in range(dim):
                    assert -1e-12 <= coeff[(i, i)] <= 1 + 1e-12
            assert np.allclose(total_diag, 1.0, atol=1e-12)
            assert np.allclose(total_off, 0.0, atol=1e-12)


def test_zero_rotation_identity_limit():
    coeff = coefficients(qubit_generator(0, 0, 0), 1, 1).as_dict()
    assert coeff[(1, 1)] == 1.0
    assert coeff[(0, 0)] == 0.0 and coeff[(0, 1)] == 0.0


def test_sign_convention_resolution_is_stable():
    assert resolve_sign_convention(2) == -1
    assert resolve_sign_convention(3) == 1


def test_closed_forms_match_trace_path():
    rng = np.random.default_rng(34)
    worst = 0.0
    for dim in (2, 3):
        sign = resolve_sign_convention(dim)
        for _ in range(150):
            state = random_physical_state(dim, rng)
            gen = random_generator(dim, rng)
            for label in range(dim):
                exact = probability(state, gen, label)
                approx = closed_form_statistic(state, gen, label, sign)
                worst = max(worst, abs(exact - approx))
    assert worst < 1e-10


def test_wrong_sign_convention_disagrees():
    # mutation sensitivity: flipping the convention must break the agreement
    state = qubit_state(0.5, 0.5, 0.5, 0.0)
    gen = qubit_generator(0, np.pi / 2, np.pi / 2)
    exact = probability(state, gen, 0)
    assert exact == pytest.approx(0.0, abs=1e-12)
    wrong = closed_form_statistic(state, gen, 0, sign_convention=1)
    assert abs(wrong - exact) > 0.5


def test_gauge_invariance_of_statistics():
    rng = np.random.default_rng(35)
    for dim in (2, 3):
        for _ in range(100):
            state = random_physical_state(dim, rng)
            gen = random_generator(dim, rng)
            eta = rng.uniform(0, 2 * np.pi) if dim == 2 else \
                rng.uniform(0, 2 * np.pi, 2)
            gstate, ggen = gauge_transform(state, gen, eta)
            assert np.abs(probabilities(gstate, ggen)
                          - probabilities(state, gen)).max() < 1e-12


def test_reduction_to_qubit_block():
    rng = np.random.default_rng(36)
    for _ in range(100):
        state3 = random_physical_state(3, rng)
        h1, phi1 = rng.uniform(0.1, 5), rng.uniform(0, 2 * np.pi)
        gen3 = vtype_generator(h1, 0.0, phi1, rng.uniform(0, 2 * np.pi))
        # embedded qubit: same {0,1} block, trace carried by the block
        p = state3.populations
        state2 = qubit_state(p[0], p[1], state3.coherences[0], state3.phases[0])
        gen2 = qubit_generator(0.0, h1, phi1)
        for label in (0, 1):
            assert probability(state3, gen3, label) == pytest.approx(
                probability(state2, gen2, label), abs=1e-12)


def test_coupling_necessity_for_excited_coherence():
    # with either coupling off, statistics carry no excited-excited phase info
    rng = np.random.default_rng(37)
    h = rng.uniform(0.2, 4)
    for couplings in ((h, 0.0), (0.0, h)):
        gen = vtype_generator(*couplings, 0.4, 1.9)
        eps = 1e-6
        for label in range(3):
            up = probability(
                vtype_state(0.4, 0.3, 0.3, 0.1, 0.1, 0.1, 0.5, 1.0, 2.0 + eps),
                gen, label)
            dn = probability(
                vtype_state(0.4, 0.3, 0.3, 0.1, 0.1, 0.1, 0.5, 1.0, 2.0 - eps),
                gen, label)
            assert abs(up - dn) / (2 * eps) < 1e-9


def test_layout_matches_scalar_path():
    rng = np.random.default_rng(38)
    for name in ("A", "B", "C-alt", "V"):
        proto = scenario(name)
        for _ in range(10):
            state = random_physical_state(proto.dim, rng)
            lam = {n: rng.uniform(0.2, 6.0)
                   for n in proto.process_unknown_names}
            from sctomo.protocol import unknowns_from_dict
            unknowns = unknowns_from_dict(proto.dim, lam)
            x = pack_values(proto.unknown_names, state, unknowns)
            batch = ProtocolLayout(proto).statistics(x[None, :])[0]
            scalar = predicted_statistics(proto, state, unknowns)
            assert np.abs(batch - scalar).max() < 1e-13


def test_layout_statistics_are_design_times_coordinates():
    from sctomo.protocol import with_unknown_phase
    rng = np.random.default_rng(39)
    for proto in (scenario("B"), with_unknown_phase(scenario("B")),
                  scenario("V"), with_unknown_phase(scenario("V"))):
        names = proto.unknown_names
        x = np.array([rng.uniform(0.2, 6.0) if n.startswith(("lam", "gamma",
                                                             "beta"))
                      else rng.uniform(0.05, 0.5) for n in names])
        layout = ProtocolLayout(proto)
        stats = np.einsum("sc,c->s", layout.design(x[None, :])[0],
                          layout.coordinates(x[None, :])[0])
        assert np.abs(stats - layout.statistics(x[None, :])[0]).max() < 1e-13


KERNEL_PROTOCOLS = ("A", "B", "B~beta", "C-alt", "V")


def kernel_protocol(name):
    from sctomo.protocol import with_unknown_phase
    base = scenario(name.split("~")[0])
    return with_unknown_phase(base) if name.endswith("~beta") else base


def kernel_points(proto, rng, n=12):
    """Random parameter rows, the first rows with every strength at the
    solver's floor, at 2*pi, and small enough for the kernel's series."""
    from sctomo.invert import LAM_FLOOR
    x = np.array([[rng.uniform(0.2, 6.0) if name.startswith(("lam", "gamma",
                                                            "beta"))
                   else rng.uniform(0.05, 0.5) for name in proto.unknown_names]
                  for _ in range(n)])
    lam = [k for k, name in enumerate(proto.unknown_names)
           if name.startswith("lam")]
    x[0, lam], x[1, lam] = LAM_FLOOR, 2 * np.pi
    x[2, lam], x[3, lam] = 0.03, 0.09
    return x


@pytest.mark.parametrize("name", KERNEL_PROTOCOLS)
def test_closed_form_rows_match_eigh(name):
    # oracle: the label row of exp(-iG) by the Hermitian eigensolver, on
    # generators assembled from the resolved settings, among them a
    # setting with G = 0 in every protocol here
    from sctomo import smallmat
    from sctomo.model import assemble_generator
    from sctomo.protocol import resolve, split_values
    proto = kernel_protocol(name)
    layout = ProtocolLayout(proto)
    x = kernel_points(proto, np.random.default_rng(81))
    rows = layout._label_rows(layout._decode(x)[3])
    for k, point in enumerate(x):
        _, unknowns = split_values(proto, point)
        gens = np.array([assemble_generator(resolve(st, unknowns))
                         for st in proto.settings])
        u = smallmat.expi_neg_batch(gens)
        oracle = u[np.arange(len(gens)), layout.labels]
        assert np.abs(rows[k] - oracle).max() <= 1e-14
    zero = [s for s, st in enumerate(proto.settings)
            if not any(st.multipliers) and not any(st.fixed_couplings)
            and st.mz == 0 and st.fixed_diag == 0]
    assert zero
    assert np.array_equal(rows[:, zero], np.broadcast_to(
        np.eye(proto.dim)[layout.labels[zero]], rows[:, zero].shape))


@pytest.mark.parametrize("name", KERNEL_PROTOCOLS)
def test_design_derivative_matches_central_differences(name):
    from differences import central_differences
    proto = kernel_protocol(name)
    layout = ProtocolLayout(proto)
    x = kernel_points(proto, np.random.default_rng(82))
    design, d_design = layout.design_and_derivative(x)
    assert np.array_equal(design, layout.design(x))
    assert d_design.shape == design.shape + (len(layout.lam_cols),)
    if not layout.lam_cols:
        return
    # the floor and 2*pi rows sit on the edge of the scan box, not of the
    # kernel's domain: differences step across them
    fd, _ = central_differences(
        lambda p: layout.design(p).reshape(len(p), -1), x, layout.lam_cols)
    assert np.abs(fd.reshape(d_design.shape) - d_design).max() <= 1e-7


@pytest.mark.parametrize("name", KERNEL_PROTOCOLS)
def test_restricted_layout_is_rows_of_the_full_layout(name):
    # a layout on some settings gives those rows of the full layout, and
    # both stay read-only; equal protocols share one layout
    from sctomo.protocol import Protocol
    proto = kernel_protocol(name)
    layout = forward.layout_of(proto)
    assert forward.layout_of(Protocol.from_dict(proto.to_dict())) is layout
    rows = list(range(proto.n_settings))[::-2]
    part = layout.restrict(rows)
    assert layout.rows is None and part.rows == rows
    x = kernel_points(proto, np.random.default_rng(83))
    for method in ("statistics", "design", "jacobian"):
        whole = getattr(layout, method)(x)
        assert np.array_equal(getattr(part, method)(x), whole[:, rows]), method
    design, d_design = part.design_and_derivative(x)
    full, d_full = layout.design_and_derivative(x)
    assert np.array_equal(design, full[:, rows])
    assert np.array_equal(d_design, d_full[:, rows])
    for obj in (layout, part):
        arrays = [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


def test_simulate_exact_and_deterministic():
    proto = scenario("A")
    mixed = qubit_state(0.5, 0.5, 0, 0)
    records = simulate_counts(mixed, None, proto, NoiseModel("exact"))
    assert [r.value for r in records] == pytest.approx([0.5, 0.5, 0.5, 0.5])
    noise = NoiseModel("poisson", shots=10_000, seed=42)
    twice = [simulate_counts(mixed, None, proto, noise) for _ in range(2)]
    assert twice[0] == twice[1]
    # records must differ across independent per-setting streams
    values = [r.value for r in twice[0]]
    assert len(set(values)) > 1


def test_poisson_sampler_mean_within_standard_error():
    # mean over repetitions of a Poisson-sampled statistic with truth 0.25
    # stays within 4 standard errors (se = sqrt(n/shots/reps))
    proto = scenario("A")
    state = qubit_state(0.25, 0.75, 0, 0)
    shots, reps = 10 ** 6, 1000
    values = np.empty(reps)
    for k in range(reps):
        rec = simulate_counts(state, None, proto,
                              NoiseModel("poisson", shots=shots, seed=k))
        values[k] = rec[0].value
    se = np.sqrt(0.25 / shots / reps)
    assert abs(values.mean() - 0.25) < 4 * se


def test_gaussian_noise_truncated_at_zero():
    proto = scenario("A")
    state = qubit_state(1e-4, 1 - 1e-4, 0, 0)
    noise = NoiseModel("gaussian", sigma=0.05, seed=7)
    for _ in range(3):
        records = simulate_counts(state, None, proto, noise)
        assert all(r.value >= 0.0 for r in records)


def test_phase_reference_shifts_statistics_consistently():
    proto = scenario("B")
    state = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    eta = 0.9
    shifted_state = qubit_state(0.55, 0.45, 0.2, 2.0 + eta)
    a = predicted_statistics(proto, state, unknowns, phase_ref=0.0)
    b = predicted_statistics(proto, shifted_state, unknowns, phase_ref=eta)
    assert np.abs(a - b).max() < 1e-12

"""Tests for state/generator parametrizations and gauge handling."""

import numpy as np
import pytest

from sctomo import model
from sctomo.errors import InvalidRange
from sctomo.model import (assemble_generator, gauge_fix,
                          gauge_transform, qubit_generator, qubit_state,
                          state_matrix, state_params_from_matrix,
                          vtype_generator, vtype_state, wrap_phase)


def test_assemble_state_examples():
    assert np.allclose(state_matrix(qubit_state(1, 0, 0, 0)), np.diag([1, 0]))
    plus = state_matrix(qubit_state(0.5, 0.5, 0.5, 0.0))
    assert np.allclose(plus, 0.5 * np.ones((2, 2)))
    third = state_matrix(vtype_state(1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0, 0, 0))
    assert np.allclose(third, np.eye(3) / 3)


def test_assemble_state_phase_sign():
    m = state_matrix(qubit_state(0.5, 0.5, 0.3, 1.2))
    assert m[0, 1] == pytest.approx(0.3 * np.exp(-1j * 1.2))
    assert m[1, 0] == pytest.approx(0.3 * np.exp(1j * 1.2))


def test_assemble_generator_examples():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(assemble_generator(qubit_generator(0, np.pi, 0)),
                       (np.pi / 2) * sx)
    evs = np.linalg.eigvalsh(assemble_generator(vtype_generator(3, 4, 0, 0)))
    assert np.allclose(evs, [-2.5, 0.0, 2.5], atol=1e-12)
    diag = assemble_generator(qubit_generator(1, 0, 2.2))
    assert np.allclose(diag, np.diag([0.5, -0.5]))


def test_parameter_roundtrip():
    rng = np.random.default_rng(22)
    for _ in range(200):
        pops = rng.dirichlet([2, 2, 2])
        mags = rng.uniform(0.01, 0.2, 3)
        phases = rng.uniform(0, 2 * np.pi, 3)
        state = model.DensityParams(tuple(pops), tuple(mags), tuple(phases))
        back = state_params_from_matrix(model.state_matrix(state))
        assert np.allclose(back.populations, state.populations, atol=1e-12)
        assert np.allclose(back.coherences, state.coherences, atol=1e-12)
        for a, b in zip(back.phases, state.phases):
            assert model.circular_distance(a, b) < 1e-12


def test_phases_wrapped_and_ranges_enforced():
    state = qubit_state(0.5, 0.5, 0.1, 7.0)
    assert 0 <= state.phases[0] < 2 * np.pi
    with pytest.raises(InvalidRange):
        qubit_state(0.5, 0.5, -0.1, 0.0)
    with pytest.raises(InvalidRange):
        qubit_state(-0.1, 0.5, 0.1, 0.0)
    with pytest.raises(InvalidRange):
        qubit_generator(0.0, -1.0, 0.0)
    with pytest.raises(InvalidRange):
        model.GeneratorParams(3, 1.0, (1.0, 1.0), (0.0, 0.0))


def test_gauge_transform_examples():
    state = qubit_state(0.5, 0.5, 0.2, 0.2)
    gen = qubit_generator(0.3, 1.0, 0.5)
    new_state, new_gen = gauge_transform(state, gen, 0.7)
    assert new_state.phases[0] == pytest.approx(0.9)
    assert new_gen.phases[0] == pytest.approx(1.2)
    # beta = phi - gamma unchanged
    assert (new_gen.phases[0] - new_state.phases[0]) == pytest.approx(0.3)
    same = gauge_transform(state, gen, 0.0)
    assert same[0] == state and same[1] == gen
    ws, wg = gauge_transform(qubit_state(0.5, 0.5, 0.2, 6.0),
                             qubit_generator(0, 1, 6.0), 1.0)
    assert ws.phases[0] == pytest.approx(0.7168146928204138)
    assert wg.phases[0] == pytest.approx(0.7168146928204138)


def test_gauge_transform_vtype_preserves_beta12():
    state = vtype_state(0.4, 0.3, 0.3, 0.1, 0.1, 0.1, 0.5, 1.5, 2.5)
    gen = vtype_generator(1.0, 2.0, 0.7, 1.9)
    new_state, new_gen = gauge_transform(state, gen, (0.9, 2.1))
    beta12_old = state.phases[2] + gen.phases[0] - gen.phases[1]
    beta12_new = new_state.phases[2] + new_gen.phases[0] - new_gen.phases[1]
    assert model.circular_distance(beta12_old, beta12_new) < 1e-12


def test_gauge_fix_examples():
    state = qubit_state(0.5, 0.5, 0.2, 0.4)
    gen = qubit_generator(0.0, 1.0, 1.1)
    fixed_state, fixed_gen = gauge_fix(state, gen)
    assert fixed_gen.phases[0] == 0.0
    assert fixed_state.phases[0] == pytest.approx(5.583185307179586)
    # idempotence
    again = gauge_fix(fixed_state, fixed_gen)
    assert again[0] == fixed_state and again[1] == fixed_gen
    # zero coupling: phase set to zero by convention, state untouched
    state2, gen2 = gauge_fix(state, qubit_generator(0.5, 0.0, 2.2))
    assert gen2.phases[0] == 0.0
    assert state2 == state


def test_gauge_fix_absorbs_any_gauge_shift():
    rng = np.random.default_rng(23)
    for _ in range(50):
        state = vtype_state(0.4, 0.3, 0.3, 0.1, 0.12, 0.08,
                            *rng.uniform(0, 2 * np.pi, 3))
        gen = vtype_generator(1.2, 0.8, *rng.uniform(0, 2 * np.pi, 2))
        eta = rng.uniform(0, 2 * np.pi, 2)
        direct = gauge_fix(state, gen)
        via = gauge_fix(*gauge_transform(state, gen, eta))
        for a, b in zip(direct[0].phases, via[0].phases):
            assert model.circular_distance(a, b) < 1e-9


def test_wrap_phase():
    assert wrap_phase(2 * np.pi) == 0.0
    assert wrap_phase(-0.1) == pytest.approx(2 * np.pi - 0.1)
    arr = wrap_phase(np.array([7.0, -1.0]))
    assert arr[0] == pytest.approx(7.0 - 2 * np.pi)

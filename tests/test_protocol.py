"""Tests for the protocol catalog and control resolution."""

import dataclasses

import numpy as np
import pytest

from sctomo import io
from sctomo.errors import (DimensionMismatch, InvalidRange, MissingUnknown,
                           UnknownScenario)
from sctomo.model import qubit_state, vtype_state
from sctomo.protocol import (MeasurementSetting, Protocol, pack_values,
                             qubit_unknowns, resolve, scenario, split_values,
                             unknowns_from_dict, vtype_unknowns,
                             with_unknown_phase)


def test_scenario_shapes():
    for name, n_settings, n_unknowns in (("A", 4, 4), ("B", 5, 5),
                                         ("C", 6, 6), ("C-alt", 7, 6),
                                         ("V", 11, 11)):
        proto = scenario(name)
        assert proto.n_settings == n_settings
        assert len(proto.unknown_names) == n_unknowns
    with pytest.raises(UnknownScenario):
        scenario("Z")


def test_scenario_a_is_fully_known():
    proto = scenario("A")
    assert proto.process_unknown_names == ()
    gens = [resolve(s, None) for s in proto.settings]
    assert gens[0].omega == 0.0 and gens[1].omega == 0.0
    assert gens[2].couplings[0] == pytest.approx(np.pi / 2)
    assert gens[3].phases[0] == pytest.approx(np.pi / 2)


def test_scenario_b_setting_order():
    proto = scenario("B")
    assert [s.label for s in proto.settings] == [1] * 5
    assert [s.multipliers[0] for s in proto.settings] == [0, 1, 2, 1, 2]
    assert [s.phases[0] for s in proto.settings] == \
        pytest.approx([0, 0, 0, np.pi / 2, np.pi / 2])
    assert proto.unknown_names == ("rho00", "rho01", "rho11", "lam_c", "gamma")


def test_scenario_v_blocks():
    proto = scenario("V")
    labels = [s.label for s in proto.settings]
    assert labels == [1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1]
    # single-coupling blocks: multipliers (m, 0) then (0, m), m in {1,1,2,2}
    assert [s.multipliers for s in proto.settings[1:5]] == \
        [(1, 0), (1, 0), (2, 0), (2, 0)]
    assert [s.multipliers for s in proto.settings[5:9]] == \
        [(0, 1), (0, 1), (0, 2), (0, 2)]
    # dual-coupling settings with the second control phase stepped
    assert proto.settings[9].multipliers == (1, 1)
    assert proto.settings[10].phases[1] == pytest.approx(np.pi / 2)


def test_resolve_examples():
    proto = scenario("B")
    gen = resolve(proto.settings[2], qubit_unknowns(lam_c=0.9))
    assert gen.couplings[0] == pytest.approx(1.8)
    gen0 = resolve(proto.settings[0], qubit_unknowns(lam_c=0.9))
    assert gen0.couplings[0] == 0.0
    setting = MeasurementSetting(multipliers=(1, 1), phases=(0, np.pi / 2),
                                 label=1)
    gen_v = resolve(setting, vtype_unknowns(1.2, 0.7))
    assert gen_v.couplings == pytest.approx((1.2, 0.7))
    assert gen_v.phases == pytest.approx((0.0, np.pi / 2))


def test_resolve_missing_unknown():
    proto = scenario("B")
    with pytest.raises(MissingUnknown):
        resolve(proto.settings[1], None)
    with pytest.raises(MissingUnknown):
        resolve(scenario("C").settings[5], qubit_unknowns(lam_c=1.0))


def test_unknowns_range_enforced():
    with pytest.raises(InvalidRange):
        qubit_unknowns(lam_c=0.0)
    with pytest.raises(InvalidRange):
        qubit_unknowns(lam_c=7.0)
    with pytest.raises(InvalidRange):
        unknowns_from_dict(2, {"lam_q": 1.0})


def test_protocols_immutable():
    proto = scenario("B")
    with pytest.raises(dataclasses.FrozenInstanceError):
        proto.name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        proto.settings[0].label = 0


def test_serialization_roundtrip_bit_exact():
    for name in ("A", "B", "C", "C-alt", "V"):
        proto = scenario(name)
        text = io.canonical_json(proto.to_dict())
        back = Protocol.from_dict(__import__("json").loads(text))
        assert back == proto
        assert io.canonical_json(back.to_dict()) == text
        assert io.protocol_fingerprint(back) == io.protocol_fingerprint(proto)


def test_fingerprint_distinguishes_protocols():
    prints = {io.protocol_fingerprint(scenario(n))
              for n in ("A", "B", "C", "C-alt", "V")}
    assert len(prints) == 5
    assert all(len(p) == 16 for p in prints)


def test_pack_and_split_roundtrip():
    proto = scenario("V")
    state = vtype_state(0.4, 0.35, 0.25, 0.1, 0.11, 0.09, 0.9, 2.2, 1.4)
    unknowns = vtype_unknowns(1.2, 1.7)
    x = pack_values(proto.unknown_names, state, unknowns)
    state2, unknowns2 = split_values(proto, x)
    assert state2 == state
    assert unknowns2 == unknowns


def test_beta_variant_names_and_split():
    proto = with_unknown_phase(scenario("B"))
    assert proto.phase_known is False
    assert proto.unknown_names == ("rho00", "rho01", "rho11", "lam_c", "beta")
    state = qubit_state(0.55, 0.45, 0.2, 2.0)
    unknowns = qubit_unknowns(lam_c=1.3)
    x = pack_values(proto.unknown_names, state, unknowns, phase_ref=0.0)
    # beta = phase_ref - gamma, canonical split restores gamma = -beta
    assert x[4] == pytest.approx(2 * np.pi - 2.0)
    state2, _ = split_values(proto, x)
    assert state2.phases[0] == pytest.approx(2.0)


def test_name_table_decodes_every_unknown_once():
    # every catalog name and its beta variant decode to distinct
    # coordinates, the beta name to its state phase's, with sign -1 for a
    # ground-excited pair; phase_known is read from the names
    from sctomo.invert import _free_coordinates
    from sctomo.protocol import GAMMA_ORDER, NAMES
    for name, names in GAMMA_ORDER.items():
        proto, beta = scenario(name), with_unknown_phase(scenario(name))
        table = NAMES[proto.dim]
        slots = [table[n][:2] for n in names]
        assert len(set(slots)) == len(names)
        assert [table[n][:2] for n in beta.unknown_names] == slots
        for n in set(beta.unknown_names) - set(names):
            assert table[n][2] == (1.0 if n == "beta12" else -1.0)
        assert proto.phase_known is True and beta.phase_known is False
        # the Cartesian coordinates the unknowns move
        cols = [0, 1, 2, 3] if proto.dim == 2 else list(range(9))
        assert _free_coordinates(proto) == _free_coordinates(beta) == cols
    # a magnitude without its phase moves x alone
    settings = scenario("B").settings
    assert _free_coordinates(
        Protocol("B", 2, settings, ("rho01", "rho11", "lam_c"))) == [1, 2]
    for names in (("rho00", "rho10", "rho11", "lam_c"),
                  ("rho00", "rho01", "rho11", "gamma", "beta")):
        with pytest.raises(InvalidRange):
            Protocol("bad", 2, settings, names)


def test_protocol_requires_enough_settings():
    proto = scenario("B")
    with pytest.raises(InvalidRange):
        Protocol("tiny", 2, proto.settings[:3], proto.unknown_names)


def test_dimension_mismatch_guard():
    with pytest.raises(DimensionMismatch):
        resolve(scenario("B").settings[1], vtype_unknowns(1.0, 1.0))

import dataclasses

import pytest

from brainpbpk.params import (ALL_PARAM_NAMES, DrugParams, SystemParams,
                              reference_value, substitute)


def test_system_defaults_match_reference_table():
    s = SystemParams()
    assert s.Vbb == 0.064952435
    assert s.Vbm == 1.104115461
    assert s.Vccsf == 0.103984624
    assert s.Vscsf == 0.025996156
    assert s.Qbrain == 38.0
    assert s.Qcsink == 0.01277633
    assert s.Qssink == 0.007761342
    assert s.QbulkBC == 0.005164106
    assert s.QbulkCB == 0.005164106
    assert s.Qsout == 0.007489995
    assert s.Qsin == 0.015251337
    assert s.PSB == 135.0
    assert s.PSC == 67.5
    assert s.PSE == 300.0


def test_drug_defaults_match_reference_table():
    d = DrugParams()
    assert d.CLBin == 0.0
    assert d.CLBout == 110.0
    assert d.CLCin == 11.9
    assert d.CLCout == 0.0
    assert d.CLmet == 0.0
    assert d.fubb == 0.125
    assert d.fubm == 0.044
    assert d.fuccsf == 1.0
    assert d.lam_bb == 0.033
    assert d.lam_bm == 0.017
    assert d.lam_ccsf == 0.026


def test_spinal_flow_balance_is_exact():
    s = SystemParams()
    assert s.Qsin == s.Qsout + s.Qssink


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        SystemParams(Vbb=0.0)
    with pytest.raises(ValueError):
        SystemParams(Qbrain=-1.0)
    with pytest.raises(ValueError):
        DrugParams(CLBout=-0.1)
    with pytest.raises(ValueError):
        DrugParams(fubb=1.5)


def test_reference_value_covers_all_names():
    assert len(ALL_PARAM_NAMES) == 25
    for name in ALL_PARAM_NAMES:
        assert reference_value(name) == getattr(
            SystemParams(), name, None) or reference_value(name) == getattr(
            DrugParams(), name, None)
    with pytest.raises(KeyError):
        reference_value("nope")


def test_substitute_routes_to_correct_dataclass():
    s, d = substitute({"Vbb": 0.07, "fubb": 0.2})
    assert s.Vbb == 0.07 and d.fubb == 0.2
    assert s.Vbm == SystemParams().Vbm
    with pytest.raises(KeyError):
        substitute({"bogus": 1.0})


def test_params_frozen():
    s = SystemParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.Vbb = 1.0

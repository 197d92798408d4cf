import math

import pytest

from qcvz.resources import (
    PEAK_PW,
    STANDBY_PW,
    ResourceError,
    cable_count,
    max_tones,
    power_estimate,
    resource_report,
)


def test_power_constants():
    assert STANDBY_PW == 1.92
    assert PEAK_PW == 220.0


def test_power_estimate_default():
    avg_pw, total_w = power_estimate(1)
    assert avg_pw == pytest.approx(110.96)
    assert total_w == pytest.approx(110.96e-12)
    _, total_m = power_estimate(1_000_000)
    assert total_m == pytest.approx(110.96e-12 * 1e6)


def test_max_tones():
    assert max_tones(1.0e4, 2.0e9, 5.0e9) == 4000
    # floor behavior
    assert max_tones(1.0e4, 2.0e9, 5.1e9) == 3921


def test_cable_count():
    assert cable_count(1_000_000, 4000) == 250
    assert cable_count(4001, 4000) == 2
    assert cable_count(1, 4000) == 1


def test_invalid_inputs():
    with pytest.raises(ResourceError):
        power_estimate(0)
    with pytest.raises(ResourceError):
        max_tones(-1.0, 2.0e9, 5.0e9)
    with pytest.raises(ResourceError):
        cable_count(10, 0)
    for args in ((math.nan, 2.0e9, 5.0e9), (1.0e4, math.inf, 5.0e9), (1e300, 1e300, 1.0)):
        with pytest.raises(ResourceError):  # not a ValueError or OverflowError from int()
            max_tones(*args)


def test_resource_report():
    rep = resource_report(1_000_000)
    d = rep.to_dict()
    assert d["n_qubits"] == 1_000_000
    assert d["avg_pw_per_qubit"] == pytest.approx(110.96)
    assert d["max_tones_per_cable"] == 4000
    assert d["cable_count"] == 250
    assert d["max_output_power_pw"] == pytest.approx(4.11)
    text = rep.table()
    assert "110.96" in text
    assert "4000" in text
    assert "250" in text

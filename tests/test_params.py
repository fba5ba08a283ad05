import math

import pytest
from hypothesis import given, strategies as st

from hexnet import default_config_text, load_config, serialize_config, with_updates
from hexnet.errors import ConfigError
from hexnet.params import from_db


def _doc(**overrides):
    """Baseline document with individual lines replaced by key."""
    lines = []
    for line in default_config_text().splitlines():
        key = line.split("=")[0].strip() if "=" in line else None
        if key in overrides:
            lines.append(f"{key} = {overrides.pop(key)}")
        else:
            lines.append(line)
    assert not overrides, f"keys not found: {overrides}"
    return "\n".join(lines)


def test_table3_document_loads(table3):
    g, r = table3.geometry, table3.radio
    assert g.r_d == 80 and g.N_A == 20 and g.delta_T == 0.8
    assert g.n_thz == 16 and g.n_rf == 4
    assert r.k_a == 0.07512
    assert r.P_T == pytest.approx(10 ** (5 / 10) * 1e-3, rel=1e-12)
    assert r.theta == pytest.approx(1.0, rel=1e-12)
    assert table3.antenna.g_T_max == pytest.approx(10 ** 2.5, rel=1e-12)
    assert table3.antenna.phi_T == pytest.approx(math.radians(10), rel=1e-12)


def test_derived_constants(table3):
    r, g = table3.radio, table3.geometry
    c = 3.0e8
    assert r.gamma_R == pytest.approx(c**2 / (4 * math.pi * 2.1e9) ** 2, rel=1e-14)
    assert r.gamma_R == pytest.approx(1.2923620362543083e-4, rel=1e-12)
    assert r.gamma_T == pytest.approx(c**2 / (4 * math.pi * 1.05e12) ** 2, rel=1e-14)
    # blockage prefactor: 2 * 0.3 * 0.22 * (0.3 / 3.1)
    assert table3.blockage.beta(g.h_A, g.h_U) == pytest.approx(
        0.012774193548387098, rel=1e-12)
    assert g.delta_h == pytest.approx(3.1)


def test_beta_zero_when_blockers_at_ue_height(table3):
    g = table3.geometry
    cfg = with_updates(table3, h_B=g.h_U)
    assert cfg.blockage.beta(g.h_A, g.h_U) == 0.0


def test_round_trip(table3):
    assert load_config(serialize_config(table3)) == table3


def test_integer_thz_count_rule():
    # 0.35 * 20 = 7 is fine; 0.33 * 20 = 6.6 is not
    load_config(_doc(delta_T="0.35"))
    with pytest.raises(ConfigError, match=r"delta_T \* N_A = .* is not an integer"):
        load_config(_doc(delta_T="0.33"))


def test_out_of_range_v0():
    with pytest.raises(ConfigError, match="v_0"):
        load_config(_doc(v_0="81"))


def test_missing_key():
    doc = "\n".join(l for l in default_config_text().splitlines()
                    if not l.startswith("r_d"))
    with pytest.raises(ConfigError, match="r_d"):
        load_config(doc)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(default_config_text().replace("r_d = 80", "r_d = 80\nbogus = 1"))


def test_duplicate_unit_variant_rejected():
    with pytest.raises(ConfigError, match="both"):
        load_config(default_config_text().replace(
            "P_T_dbm = 5", "P_T_dbm = 5\nP_T = 0.003"))


def test_nakagami_shape_cap():
    with pytest.raises(ConfigError, match="m_L"):
        load_config(_doc(m_L="11"))


def test_bias_defaults_to_unbiased():
    doc = "\n".join(l for l in default_config_text().splitlines()
                    if not l.startswith("B_T"))
    assert load_config(doc).radio.B_T == 1.0


@given(st.floats(min_value=-120.0, max_value=120.0))
def test_db_round_trip(x):
    assert 10.0 * math.log10(from_db(x)) == pytest.approx(x, abs=1e-12)


def _without_section(name):
    """Baseline document with section ``name`` and all its lines removed."""
    kept, skip = [], False
    for line in default_config_text().splitlines():
        if line.startswith("["):
            skip = line == f"[{name}]"
        if not skip:
            kept.append(line)
    return "\n".join(kept)


@pytest.mark.parametrize("doc, message", [
    (_doc(r_d="eighty"), "key 'r_d': cannot parse number from 'eighty'"),
    (_doc(N_A="10.5"), "parameter 'N_A' = 10.5 violates: integer expected"),
    (_doc(N_A="nan"), "parameter 'N_A' = nan violates: integer expected"),
    (_doc(N_A="inf"), "parameter 'N_A' = inf violates: integer expected"),
    (_doc(m_L="inf"), "parameter 'm_L' = inf violates: integer expected"),
    (_doc(r_d="inf"), "parameter 'r_d' = inf violates: finite value"),
    (_doc(W_T="inf"), "parameter 'W_T' = inf violates: finite value"),
    (default_config_text().replace("r_d = 80", "r_d 80"), "malformed config"),
    (default_config_text() + "\n[extra]\nx = 1\n",
     "unknown section(s): ['extra']"),
    (_without_section("blockage"), "missing required section [blockage]"),
], ids=["non-numeric", "non-integer-N_A", "nan-N_A", "inf-N_A", "inf-m_L",
        "inf-r_d", "inf-W_T", "malformed-line", "unknown-section",
        "missing-section"])
def test_config_rejections(doc, message):
    with pytest.raises(ConfigError) as info:
        load_config(doc)
    assert str(info.value).startswith(message)


def test_with_updates_rejects_unknown_field(table3):
    with pytest.raises(ConfigError, match="unknown config field 'bogus'"):
        with_updates(table3, bogus=1.0)


@pytest.mark.parametrize("key, value", [
    ("N_A", math.inf), ("N_A", math.nan), ("N_A", 10**400), ("k_a", math.inf),
    ("v_0", math.nan), ("B_T", math.inf),
], ids=["N_A=inf", "N_A=nan", "N_A=1e400-int", "k_a=inf", "v_0=nan", "B_T=inf"])
def test_with_updates_rejects_non_finite_values(table3, key, value):
    # an int past the float range fails as an infinity does, not with an
    # OverflowError
    with pytest.raises(ConfigError) as info:
        with_updates(table3, **{key: value})
    assert str(info.value) == f"parameter '{key}' = {value!r} violates: finite value"

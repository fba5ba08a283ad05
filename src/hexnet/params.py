"""Scenario parameters: validation, unit conversion, and config I/O.

All internal values are strictly SI / linear (watts, hertz, meters, radians,
linear gains).  The text config format accepts dBm / dB / degree variants via
key suffixes ``_dbm``, ``_db`` and ``_deg``; conversion happens once at load.
"""

from __future__ import annotations

import configparser
import io
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .errors import ConfigError

C_LIGHT = 3.0e8  # speed of light, m/s

#: tolerance for the delta_T * N_A integrality rule
THZ_COUNT_TOL = 1e-9

#: Nakagami shapes above this are rejected: the coverage sums have m terms and
#: the derivative-order budget of the jet engine is fixed at load time.
MAX_NAKAGAMI_M = 10


def from_db(x: float) -> float:
    """dB -> linear power ratio."""
    return 10.0 ** (x / 10.0)


def dbm_to_watt(x: float) -> float:
    return 10.0 ** ((x - 30.0) / 10.0)


@dataclass(frozen=True)
class GeometryParams:
    r_d: float      # disk radius, m
    h_A: float      # AP ceiling height, m
    h_U: float      # UE height, m
    v_0: float      # UE horizontal offset from disk center, m
    N_A: int        # total AP count
    delta_T: float  # fraction of THz APs, in [0, 1]

    @property
    def n_thz(self) -> int:
        """Authoritative THz AP count (delta_T * N_A, validated integral)."""
        return int(round(self.delta_T * self.N_A))

    @property
    def n_rf(self) -> int:
        return self.N_A - self.n_thz

    @property
    def delta_h(self) -> float:
        """AP-UE height gap, the shortest AP-UE distance z_l."""
        return self.h_A - self.h_U


@dataclass(frozen=True)
class RadioParams:
    P_T: float       # THz transmit power, W
    P_R: float       # RF transmit power, W
    f_T: float       # THz carrier frequency, Hz
    f_R: float       # RF carrier frequency, Hz
    W_T: float       # THz bandwidth, Hz
    W_R: float       # RF bandwidth, Hz
    k_a: float       # molecular absorption coefficient at f_T, 1/m
    alpha_R: float   # RF path-loss exponent
    alpha_L: float   # THz LOS path-loss exponent
    alpha_N: float   # THz NLOS path-loss exponent
    m_L: int         # Nakagami shape, THz LOS
    m_N: int         # Nakagami shape, THz NLOS
    sigma2_T: float  # THz noise power, W
    sigma2_R: float  # RF noise power, W
    B_T: float       # THz association bias, linear, >= 0
    theta: float     # SINR threshold, linear

    @property
    def gamma_T(self) -> float:
        """Free-space reference gain c^2 / (4 pi f_T)^2, recomputed on demand."""
        return C_LIGHT**2 / (4.0 * math.pi * self.f_T) ** 2

    @property
    def gamma_R(self) -> float:
        return C_LIGHT**2 / (4.0 * math.pi * self.f_R) ** 2


@dataclass(frozen=True)
class BlockageParams:
    lambda_B: float  # blocker density, 1/m^2
    r_B: float       # blocker radius, m
    h_B: float       # blocker height, m

    def beta(self, h_A: float, h_U: float) -> float:
        """Effective LOS-blocking rate 2 lambda_B r_B |h_B-h_U| / |h_A-h_U|."""
        return 2.0 * self.lambda_B * self.r_B * abs(self.h_B - h_U) / abs(h_A - h_U)


@dataclass(frozen=True)
class AntennaParams:
    g_T_max: float      # AP main-lobe gain, linear
    g_T_min: float      # AP side-lobe gain, linear
    g_U_max: float      # UE main-lobe gain, linear
    g_U_min: float      # UE side-lobe gain, linear
    phi_T: float        # AP beamwidth, rad
    phi_U: float        # UE beamwidth, rad
    sigma_eps_T: float  # AP beam-steering error std-dev, rad
    sigma_eps_U: float  # UE beam-steering error std-dev, rad


@dataclass(frozen=True)
class NetworkConfig:
    geometry: GeometryParams
    radio: RadioParams
    blockage: BlockageParams
    antenna: AntennaParams

    def __post_init__(self):
        _validate(self)


def _require(key, value, ok: bool, bound: str):
    if not ok:
        raise ConfigError(f"parameter '{key}' = {value!r} violates: {bound}")


def _validate(cfg: NetworkConfig) -> None:
    # non-finite values first, so every rule below compares finite floats:
    # NaN, the infinities and ints past the float range fail, with no
    # OverflowError; each group's own field table, as in with_updates
    for section in cfg.__dataclass_fields__:
        group = getattr(cfg, section)
        for key in group.__dataclass_fields__:
            value = getattr(group, key)
            _require(key, value, abs(value) <= sys.float_info.max, "finite value")

    g, r, b, a = cfg.geometry, cfg.radio, cfg.blockage, cfg.antenna

    _require("r_d", g.r_d, g.r_d > 0, "r_d > 0")
    _require("h_U", g.h_U, g.h_U >= 0, "h_U >= 0")
    _require("h_A", g.h_A, g.h_A > g.h_U, "h_A > h_U")
    _require("v_0", g.v_0, 0 <= g.v_0 <= g.r_d, "0 <= v_0 <= r_d")
    _require("N_A", g.N_A, g.N_A >= 1 and float(g.N_A).is_integer(), "N_A integer >= 1")
    _require("delta_T", g.delta_T, 0.0 <= g.delta_T <= 1.0, "0 <= delta_T <= 1")
    n_thz = g.delta_T * g.N_A
    if abs(n_thz - round(n_thz)) > THZ_COUNT_TOL:
        raise ConfigError(f"delta_T * N_A = {n_thz!r} is not an integer "
                          f"(delta_T={g.delta_T!r}, N_A={g.N_A!r})")

    for key in ("P_T", "P_R", "f_T", "f_R", "W_T", "W_R", "sigma2_T", "sigma2_R"):
        val = getattr(r, key)
        _require(key, val, val > 0, f"{key} > 0")
    _require("k_a", r.k_a, r.k_a >= 0, "k_a >= 0")
    for key in ("alpha_R", "alpha_L", "alpha_N"):
        val = getattr(r, key)
        _require(key, val, val >= 2, f"{key} >= 2")
    for key in ("m_L", "m_N"):
        val = getattr(r, key)
        _require(key, val, float(val).is_integer() and 1 <= val <= MAX_NAKAGAMI_M,
                 f"{key} integer in [1, {MAX_NAKAGAMI_M}]")
    _require("B_T", r.B_T, r.B_T >= 0, "B_T >= 0")
    _require("theta", r.theta, r.theta > 0, "theta > 0 (linear)")

    _require("lambda_B", b.lambda_B, b.lambda_B >= 0, "lambda_B >= 0")
    _require("r_B", b.r_B, b.r_B >= 0, "r_B >= 0")
    _require("h_B", b.h_B, b.h_B > 0, "h_B > 0")

    for side in ("T", "U"):
        gmax = getattr(a, f"g_{side}_max")
        gmin = getattr(a, f"g_{side}_min")
        _require(f"g_{side}_min", gmin, gmin > 0, f"g_{side}_min > 0")
        _require(f"g_{side}_max", gmax, gmax >= gmin, f"g_{side}_max >= g_{side}_min")
        phi = getattr(a, f"phi_{side}")
        _require(f"phi_{side}", phi, 0 < phi < 2 * math.pi, f"0 < phi_{side} < 2*pi")
        se = getattr(a, f"sigma_eps_{side}")
        _require(f"sigma_eps_{side}", se, se >= 0, f"sigma_eps_{side} >= 0")


# --- text config format ------------------------------------------------------
#
# One `key = value` per line, `#` comments, one section per NetworkConfig
# field ([geometry] [radio] [blockage] [antenna]).  Key names are exactly the
# field names of the section's dataclass; dB/degree variants carry a unit
# suffix.  Conversion kinds, of the fields that are not plain (stored as
# given):
#   int    - integer
#   power  - watts, or dBm via `<key>_dbm`
#   gain   - linear, or dB via `<key>_db`
#   angle  - radians, or degrees via `<key>_deg`

_KINDS = {
    "N_A": "int", "m_L": "int", "m_N": "int",
    "P_T": "power", "P_R": "power", "sigma2_T": "power", "sigma2_R": "power",
    "B_T": "gain", "theta": "gain",
    "g_T_max": "gain", "g_T_min": "gain", "g_U_max": "gain", "g_U_min": "gain",
    "phi_T": "angle", "phi_U": "angle",
    "sigma_eps_T": "angle", "sigma_eps_U": "angle",
}

_SUFFIX = {"power": "_dbm", "gain": "_db", "angle": "_deg"}

#: keys that may be omitted, with their SI default (B_T is absent from typical
#: scenario tables; 1 means unbiased max-power association)
_DEFAULTS = {("radio", "B_T"): 1.0}


def _convert(kind: str, raw: str, suffixed: bool, key: str):
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse number from {raw!r}") from exc
    if kind == "int":
        _require(key, val, val.is_integer(), "integer expected")
        return int(val)
    if not suffixed:
        return val
    if kind == "power":
        return dbm_to_watt(val)
    if kind == "gain":
        return from_db(val)
    return math.radians(val)  # angle


def load_config(text: str) -> NetworkConfig:
    """Parse a configuration document into a validated NetworkConfig."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), comment_prefixes=("#",), strict=True,
        interpolation=None,
    )
    parser.optionxform = str  # keep key case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    groups = get_type_hints(NetworkConfig)
    unknown_sections = set(parser.sections()) - set(groups)
    if unknown_sections:
        raise ConfigError(f"unknown section(s): {sorted(unknown_sections)}")

    out = {}
    for section, group in groups.items():
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")
        present = dict(parser[section])
        values = {}
        for key in (f.name for f in fields(group)):
            kind = _KINDS.get(key, "plain")
            candidates = [(key, False)]
            if kind in _SUFFIX:
                candidates.append((key + _SUFFIX[kind], True))
            found = [(k, sfx) for k, sfx in candidates if k in present]
            if len(found) > 1:
                raise ConfigError(
                    f"section [{section}] defines both "
                    f"{found[0][0]!r} and {found[1][0]!r}"
                )
            if not found:
                if (section, key) in _DEFAULTS:
                    values[key] = _DEFAULTS[(section, key)]
                    continue
                raise ConfigError(
                    f"missing required key '{key}' in section [{section}]")
            name, suffixed = found[0]
            values[key] = _convert(kind, present.pop(name), suffixed, name)
        if present:
            raise ConfigError(
                f"unknown key(s) in section [{section}]: {sorted(present)}"
            )
        out[section] = group(**values)

    return NetworkConfig(**out)


def serialize_config(cfg: NetworkConfig) -> str:
    """Canonical SI-linear text form; load_config(serialize_config(c)) == c."""
    buf = io.StringIO()
    for section in fields(cfg):
        obj = getattr(cfg, section.name)
        buf.write(f"[{section.name}]\n")
        for key in fields(obj):
            buf.write(f"{key.name} = {getattr(obj, key.name)!r}\n")
        buf.write("\n")
    return buf.getvalue()


def with_updates(cfg: NetworkConfig, **updates) -> NetworkConfig:
    """Return a revalidated copy with scalar fields replaced by name.

    Accepts any field of the four parameter groups, e.g.
    ``with_updates(cfg, B_T=10.0, delta_T=0.5)``; an unknown field or a
    rejected value raises ``ConfigError``.
    """
    # each dataclass's own field table, as dataclasses.replace reads it:
    # dataclasses.fields builds a tuple per call, and CPython's tuple free
    # list keeps up to 2000 of each size, about 1 MB over a long sweep
    groups = {section: {} for section in cfg.__dataclass_fields__}
    for key, value in updates.items():
        for section, vals in groups.items():
            if key in getattr(cfg, section).__dataclass_fields__:
                vals[key] = value
                break
        else:
            raise ConfigError(f"unknown config field {key!r}")
    new = cfg
    for section, vals in groups.items():
        if vals:
            new = replace(new, **{section: replace(getattr(new, section), **vals)})
    return new

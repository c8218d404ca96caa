import math
import pathlib
from dataclasses import replace

import pytest

from holo_isac.config import (
    ALGORITHM_NAMES,
    PRESET_NAMES,
    ScenarioConfig,
    dbm_to_watts,
    parse_config,
    parse_config_text,
    preset_config,
)
from holo_isac.objective import ObjectiveWeights, QosLimits
from holo_isac.optimizers import OptimizerConfig

GOLDEN = pathlib.Path(__file__).parent / "data" / "desk_small.cfg"


# =====================================================================
# Unit conversions
# =====================================================================

def test_dbm_watts_round_trip():
    assert dbm_to_watts(50.0) == pytest.approx(100.0, rel=1e-12)
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    for dbm in [-30.0, 0.0, 17.0, 50.0]:
        watts = dbm_to_watts(dbm)
        assert 10.0 * math.log10(watts) + 30.0 == pytest.approx(dbm, abs=1e-10)


# =====================================================================
# Presets and derived values
# =====================================================================

def test_preset_registry():
    assert preset_config("desk_small") == ScenarioConfig()
    tiny = preset_config("desk_tiny")
    assert tiny.geometry.mx == tiny.geometry.my == 4
    assert tiny.experiment.trials == 20
    full = preset_config("paper_full")
    assert full.geometry.mx == full.geometry.my == 32
    assert full.population.num_users == 64
    with pytest.raises(ValueError) as err:
        preset_config("nope")
    for name in PRESET_NAMES:
        assert name in str(err.value)


def test_derived_scalars():
    cfg = ScenarioConfig()
    assert cfg.wavelength == pytest.approx(3.0e-3, rel=1e-12)
    assert cfg.p_max_watts == pytest.approx(100.0, rel=1e-12)
    assert cfg.sigma_n2_watts == pytest.approx(1e-12, rel=1e-12)
    assert cfg.sigma_s2_watts == pytest.approx(10.0 ** (-11.5), rel=1e-12)


def test_full_scale_rayleigh_distance():
    geom = preset_config("paper_full").array_geometry()
    # 32 quarter-wave elements per side: aperture 32 * 0.75 mm = 24 mm, and
    # 2 * (0.024)^2 / 0.003 = 0.384 exactly
    assert geom.rayleigh_distance == pytest.approx(0.384, abs=1e-12)


def test_builder_objects_mirror_sections():
    cfg = preset_config("desk_small")
    geom = cfg.array_geometry()
    assert geom.mx == 8 and geom.my == 8
    assert geom.dx == pytest.approx(0.25 * cfg.wavelength)
    w = cfg.objective_weights()
    assert w.alpha_rate == pytest.approx(0.6)
    lim = cfg.qos_limits()
    assert lim.p_max == pytest.approx(100.0)
    assert lim.crlb_max == math.inf
    opt = cfg.optimizer_config()
    assert opt.max_iters == 50 and opt.inner_steps == 20


def test_validate_reports_key_paths():
    cfg = ScenarioConfig()
    cfg.geometry.mx = 0
    with pytest.raises(ValueError, match="geometry.mx"):
        cfg.validate()
    cfg = ScenarioConfig()
    cfg.population.num_groups = 99
    with pytest.raises(ValueError, match="population.num_groups"):
        cfg.validate()
    cfg = ScenarioConfig()
    cfg.impairments.csi_eps = 1.0
    with pytest.raises(ValueError, match="impairments.csi_eps"):
        cfg.validate()
    cfg = ScenarioConfig()
    cfg.experiment.algorithms = ("hao_sca", "mystery")
    with pytest.raises(ValueError, match="mystery"):
        cfg.validate()


@pytest.mark.parametrize("line", [
    "powers.p_max_dbm = nan",
    "limits.r_min = nan",
    "optimizer.epsilon = nan",
    "limits.crlb_max = nan",
    "geometry.spacing_over_lambda = inf",
    "targets.rcs_hi = inf",
])
def test_parse_text_rejects_non_finite_numbers(line):
    key = line.split(" =", 1)[0]
    with pytest.raises(ValueError, match=key):
        parse_config_text(line + "\n")


@pytest.mark.parametrize("key", ["p_max_dbm", "sigma_n_dbm", "sigma_s_dbm"])
@pytest.mark.parametrize("dbm", [4000.0, -4000.0])
def test_powers_out_of_watt_range_rejected_by_key(key, dbm):
    # +4000 dBm overflows a float and -4000 dBm underflows to 0 W
    assert dbm_to_watts(dbm) in (math.inf, 0.0)
    with pytest.raises(ValueError, match=f"powers\\.{key}"):
        parse_config_text(f"powers.{key} = {dbm}\n")


@pytest.mark.parametrize("field, value", [
    ("max_backtracks", 0), ("qos_penalty", -1.0), ("max_iters", 0),
    ("backtrack", 1.0),
])
def test_optimizer_section_checked_in_one_place(field, value):
    # library callers get the same checks as config files
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})
    cfg = ScenarioConfig()
    setattr(cfg.optimizer, field, value)
    with pytest.raises(ValueError, match=f"optimizer\\.{field}"):
        cfg.validate()


@pytest.mark.parametrize("field, value", [
    ("r_min", -1.0), ("r_min", math.nan), ("p_d_min", 1.0),
    ("p_d_min", math.nan), ("crlb_max", 0.0), ("crlb_max", math.nan),
    ("p_fa", 0.0),
])
def test_limit_section_checked_in_one_place(field, value):
    # library callers get the same checks as config files
    with pytest.raises(ValueError, match=field):
        QosLimits(p_max=1.0, **{field: value})
    cfg = ScenarioConfig()
    setattr(cfg.limits, field, value)
    with pytest.raises(ValueError, match=f"limits\\.{field}"):
        cfg.validate()


def test_budget_and_weights_checked_by_the_library_objects():
    for p_max in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="p_max"):
            QosLimits(p_max=p_max)
    QosLimits(p_max=1.0, crlb_max=math.inf)
    for bad in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="alpha"):
            ObjectiveWeights(bad, 0.2, 0.1, 0.1)
    cfg = ScenarioConfig()
    cfg.weights.alpha2 = -0.2
    with pytest.raises(ValueError, match="weights\\.alpha"):
        cfg.validate()
    cfg.weights = replace(cfg.weights, alpha1=0.0, alpha2=0.0, alpha3=0.0,
                          alpha4=0.0)
    with pytest.raises(ValueError, match="weights\\.alpha.*positive sum"):
        cfg.validate()


def test_inf_still_disables_where_documented():
    cfg = parse_config_text("limits.crlb_max = inf\nimpairments.irr_db = inf\n")
    assert cfg.limits.crlb_max == math.inf
    assert cfg.impairments.irr_db == math.inf


def test_parse_text_rejects_duplicate_algorithms():
    with pytest.raises(ValueError, match="more than once"):
        parse_config_text("experiment.algorithms = fp, conv_noma, fp\n")


# =====================================================================
# File grammar
# =====================================================================

def test_golden_file_matches_preset():
    assert parse_config(str(GOLDEN)) == preset_config("desk_small")


def test_parse_text_overrides_and_types():
    cfg = parse_config_text(
        "geometry.mx = 4\n"
        "geometry.my = 4\n"
        "population.num_users = 4   # trailing comment\n"
        "population.num_groups = 2\n"
        "\n"
        "optimizer.adaptive_weights = yes\n"
        "experiment.algorithms = fp, conv_noma\n"
    )
    assert cfg.geometry.mx == 4
    assert cfg.optimizer.adaptive_weights is True
    assert cfg.experiment.algorithms == ("fp", "conv_noma")
    # untouched keys keep their defaults
    assert cfg.powers.p_max_dbm == 50.0


def test_parse_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("geometry.mx = 8\nmystery.key = 1\n")
    with pytest.raises(ValueError, match="geometry.unknown"):
        parse_config_text("geometry.unknown = 1\n")
    with pytest.raises(ValueError, match="integer"):
        parse_config_text("geometry.mx = eight\n")
    with pytest.raises(ValueError, match="boolean"):
        parse_config_text("optimizer.adaptive_weights = maybe\n")
    # parsed values still go through scenario validation
    with pytest.raises(ValueError, match="num_groups"):
        parse_config_text("population.num_groups = 0\n")


def test_parse_config_missing_file():
    with pytest.raises(OSError):
        parse_config("/no/such/file.cfg")


def test_algorithm_names_fixed():
    assert ALGORITHM_NAMES == ("hao_sca", "e_wmmse", "fp", "conv_noma")

"""Scenario configuration: typed sections, strict file parsing, presets.

Config files are flat key-value text: one ``section.key = value`` per line,
``#`` starts a comment, blank lines are ignored. Unknown keys are errors, as
are values that violate a field's invariant. All dB-milliwatt quantities are
converted to watts here at the boundary; the rest of the package only ever
sees watts.
"""

from __future__ import annotations

import math
from dataclasses import (asdict, dataclass, field, fields, make_dataclass,
                         replace)

from .geometry import ArrayGeometry
from .objective import ObjectiveWeights, QosLimits
from .optimizers import OptimizerConfig

# Propagation speed used to turn the carrier into a wavelength. The round
# 3e8 keeps the 100 GHz desk carrier at exactly a 3 mm wavelength, which is
# what all the derived distances (element spacing, Rayleigh distance) assume.
SPEED_OF_LIGHT = 3.0e8

ALGORITHM_NAMES = ("hao_sca", "e_wmmse", "fp", "conv_noma")

# The only keys where +inf is a documented setting ("disabled"); every other
# number must be finite, and NaN is never accepted.
INF_MEANS_DISABLED = ("limits.crlb_max", "impairments.irr_db")


def dbm_to_watts(dbm: float) -> float:
    """Watts of a dBm value; +inf above about 3,100 dBm, where a float
    overflows (validate rejects such a value by its key)."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


# =====================================================================
# Sections
# =====================================================================

@dataclass
class GeometrySection:
    mx: int = 8
    my: int = 8
    spacing_over_lambda: float = 0.25
    carrier_hz: float = 1.0e11


@dataclass
class PopulationSection:
    num_users: int = 8
    num_targets: int = 2
    num_groups: int = 4


@dataclass
class PowerSection:
    p_max_dbm: float = 50.0
    sigma_n_dbm: float = -90.0
    sigma_s_dbm: float = -85.0


@dataclass
class TargetSection:
    """Sampling box for sensing targets (angles in radians)."""
    rcs_lo: float = 0.1
    rcs_hi: float = 1.0
    theta_abs: float = 1.0
    phi_abs: float = 3.0


@dataclass
class ChannelSection:
    num_paths: int = 6
    rho_c: float = 0.0


@dataclass
class ImpairmentSection:
    """Hardware impairment levels; the defaults are effectively 'off'."""
    phase_noise_dbc: float = -1000.0
    irr_db: float = math.inf
    coupling_kappa: float = 0.0
    csi_eps: float = 0.0


@dataclass
class WeightSection:
    alpha1: float = 0.6
    alpha2: float = 0.2
    alpha3: float = 0.1
    alpha4: float = 0.1


def _section_of(cls, name: str, skip=()):
    """cls's fields and defaults, less skip, as a mutable section, so each
    key, default and check exists once, in cls."""
    return make_dataclass(
        name, [(f.name, f.type, field(default=f.default))
               for f in fields(cls) if f.name not in skip],
        namespace={"__module__": __name__})


# the budget comes from powers.p_max_dbm
LimitSection = _section_of(QosLimits, "LimitSection", skip=("p_max",))
OptimizerSection = _section_of(OptimizerConfig, "OptimizerSection")


@dataclass
class ExperimentSection:
    trials: int = 200
    master_seed: int = 12345
    algorithms: tuple = ALGORITHM_NAMES


@dataclass
class ScenarioConfig:
    geometry: GeometrySection = field(default_factory=GeometrySection)
    population: PopulationSection = field(default_factory=PopulationSection)
    powers: PowerSection = field(default_factory=PowerSection)
    targets: TargetSection = field(default_factory=TargetSection)
    channel: ChannelSection = field(default_factory=ChannelSection)
    impairments: ImpairmentSection = field(default_factory=ImpairmentSection)
    weights: WeightSection = field(default_factory=WeightSection)
    limits: LimitSection = field(default_factory=LimitSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)

    # -- derived quantities -------------------------------------------
    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.geometry.carrier_hz

    @property
    def p_max_watts(self) -> float:
        return dbm_to_watts(self.powers.p_max_dbm)

    @property
    def sigma_n2_watts(self) -> float:
        return dbm_to_watts(self.powers.sigma_n_dbm)

    @property
    def sigma_s2_watts(self) -> float:
        return dbm_to_watts(self.powers.sigma_s_dbm)

    def array_geometry(self) -> ArrayGeometry:
        lam = self.wavelength
        d = self.geometry.spacing_over_lambda * lam
        return ArrayGeometry(self.geometry.mx, self.geometry.my, d, d, lam)

    def objective_weights(self) -> ObjectiveWeights:
        w = self.weights
        return ObjectiveWeights(w.alpha1, w.alpha2, w.alpha3, w.alpha4)

    def qos_limits(self) -> QosLimits:
        return QosLimits(p_max=self.p_max_watts, **asdict(self.limits))

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(**asdict(self.optimizer))

    # -- validation ---------------------------------------------------
    def validate(self) -> None:
        for sec_name in _SECTIONS:
            section = getattr(self, sec_name)
            for f in fields(section):
                value = getattr(section, f.name)
                key = f"{sec_name}.{f.name}"
                if isinstance(value, float) and not math.isfinite(value) and (
                        math.isnan(value) or key not in INF_MEANS_DISABLED):
                    raise ValueError(f"{key} must be a finite number, got {value}")
        g = self.geometry
        if g.mx < 1 or g.my < 1:
            raise ValueError("geometry.mx/geometry.my must be at least 1")
        if g.spacing_over_lambda <= 0.0:
            raise ValueError("geometry.spacing_over_lambda must be positive")
        if g.carrier_hz <= 0.0:
            raise ValueError("geometry.carrier_hz must be positive")
        p = self.population
        if p.num_users < 1:
            raise ValueError("population.num_users must be at least 1")
        if p.num_targets < 0:
            raise ValueError("population.num_targets must be nonnegative")
        if not 1 <= p.num_groups <= p.num_users:
            raise ValueError(
                "population.num_groups must lie in [1, population.num_users]")
        t = self.targets
        if not 0.0 < t.rcs_lo <= t.rcs_hi:
            raise ValueError("targets.rcs_lo/rcs_hi must satisfy 0 < lo <= hi")
        if t.theta_abs <= 0.0 or t.theta_abs > math.pi / 2:
            raise ValueError("targets.theta_abs must lie in (0, pi/2]")
        if t.phi_abs <= 0.0 or t.phi_abs > math.pi:
            raise ValueError("targets.phi_abs must lie in (0, pi]")
        c = self.channel
        if c.num_paths < 1:
            raise ValueError("channel.num_paths must be at least 1")
        if not 0.0 <= c.rho_c <= 1.0:
            raise ValueError("channel.rho_c must lie in [0, 1]")
        for f in fields(self.powers):
            dbm = getattr(self.powers, f.name)
            if not 0.0 < dbm_to_watts(dbm) < math.inf:
                raise ValueError(f"powers.{f.name} = {dbm} dBm gives no "
                                 f"finite power above 0 W")
        imp = self.impairments
        if abs(imp.coupling_kappa) >= 0.5:
            raise ValueError("impairments.coupling_kappa magnitude must be < 0.5")
        if imp.irr_db <= 0.0:
            raise ValueError("impairments.irr_db must be positive")
        if not 0.0 <= imp.csi_eps < 1.0:
            raise ValueError("impairments.csi_eps must lie in [0, 1)")
        # the library objects check their own fields
        for prefix, build in (("weights", self.objective_weights),
                              ("limits", self.qos_limits),
                              ("optimizer", self.optimizer_config)):
            try:
                build()
            except ValueError as exc:
                raise ValueError(f"{prefix}.{exc}") from None
        e = self.experiment
        if e.trials < 2:
            raise ValueError("experiment.trials must be at least 2")
        if e.master_seed < 0:
            raise ValueError("experiment.master_seed must be nonnegative")
        if not e.algorithms:
            raise ValueError("experiment.algorithms must not be empty")
        if len(set(e.algorithms)) != len(e.algorithms):
            raise ValueError(f"experiment.algorithms lists an algorithm more "
                             f"than once: {', '.join(e.algorithms)}")
        for name in e.algorithms:
            if name not in ALGORITHM_NAMES:
                raise ValueError(f"experiment.algorithms: unknown algorithm "
                                 f"{name!r}")


_SECTIONS = {
    "geometry": GeometrySection,
    "population": PopulationSection,
    "powers": PowerSection,
    "targets": TargetSection,
    "channel": ChannelSection,
    "impairments": ImpairmentSection,
    "weights": WeightSection,
    "limits": LimitSection,
    "optimizer": OptimizerSection,
    "experiment": ExperimentSection,
}


def _parse_value(raw: str, kind, key: str):
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{key}: cannot parse {raw!r} as a boolean")
    if kind is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"{key}: cannot parse {raw!r} as an integer") from exc
    if kind is float:
        try:
            return float(raw)
        except ValueError as exc:
            raise ValueError(f"{key}: cannot parse {raw!r} as a number") from exc
    if kind is tuple:
        parts = tuple(s.strip() for s in raw.split(",") if s.strip())
        if not parts:
            raise ValueError(f"{key}: empty list value")
        return parts
    return raw


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse the dotted-key config grammar from a string."""
    cfg = ScenarioConfig()
    field_types = {
        name: {f.name: f.type for f in fields(section)}
        for name, section in _SECTIONS.items()
    }
    # dataclass field annotations arrive as strings under future-import
    # semantics; resolve the handful of primitive names we use
    prim = {"int": int, "float": float, "bool": bool, "tuple": tuple, "str": str}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected 'section.key = value', "
                             f"got {body!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if "." not in key:
            raise ValueError(f"line {lineno}: key {key!r} is missing its "
                             f"section prefix")
        sec_name, field_name = key.split(".", 1)
        if sec_name not in _SECTIONS:
            raise ValueError(f"line {lineno}: unknown section {sec_name!r} "
                             f"in key {key!r}")
        types = field_types[sec_name]
        if field_name not in types:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        kind = types[field_name]
        if isinstance(kind, str):
            kind = prim.get(kind, str)
        value = _parse_value(raw, kind, key)
        setattr(getattr(cfg, sec_name), field_name, value)
    cfg.validate()
    return cfg


def parse_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario config file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text)


# =====================================================================
# Presets
# =====================================================================

PRESET_NAMES = ("desk_small", "desk_tiny", "paper_full")


def preset_config(name: str) -> ScenarioConfig:
    """Named scenario presets.

    desk_small: the default desk-scale scenario (8x8 array, 8 users).
    desk_tiny:  a fast smoke-test scenario (4x4 array, 4 users, 20 trials).
    paper_full: the full-scale scenario (32x32 array, 64 users, 5000 trials);
                accepted but far beyond desk runtimes.
    """
    if name == "desk_small":
        return ScenarioConfig()
    if name == "desk_tiny":
        cfg = ScenarioConfig()
        cfg.geometry = replace(cfg.geometry, mx=4, my=4)
        cfg.population = PopulationSection(num_users=4, num_targets=2,
                                           num_groups=2)
        cfg.experiment = replace(cfg.experiment, trials=20)
        cfg.optimizer = replace(cfg.optimizer, max_iters=25)
        cfg.validate()
        return cfg
    if name == "paper_full":
        cfg = ScenarioConfig()
        cfg.geometry = replace(cfg.geometry, mx=32, my=32)
        cfg.population = PopulationSection(num_users=64, num_targets=8,
                                           num_groups=16)
        cfg.experiment = replace(cfg.experiment, trials=5000)
        cfg.validate()
        return cfg
    raise ValueError(f"unknown preset {name!r}; available: "
                     f"{', '.join(PRESET_NAMES)}")

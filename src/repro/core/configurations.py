"""The backup configuration space of Table 3.

A configuration expresses DG and UPS capacities *relative* to the facility
peak (the paper's normalisation), so the same nine named points apply to a
4-server rack and a 10 MW hall.  ``materialize`` turns a configuration plus
a concrete peak power into physical :class:`UPSSpec`/:class:`DieselGeneratorSpec`
objects for the simulator, and the cost model prices them.

Table 3, normalised to MaxPerf:

=====================  ====  =====  =========  =====
configuration          DG    UPS P  UPS E      cost
=====================  ====  =====  =========  =====
MaxPerf                1     1      2 min      1.00
MinCost                0     0      0 min      0.00
NoDG                   0     1      2 min      0.38
NoUPS                  1     0      0 min      0.63
DG-SmallPUPS           1     0.5    2 min      0.81
SmallDG-SmallPUPS      0.5   0.5    2 min      0.50
SmallPUPS              0     0.5    2 min      0.19
LargeEUPS              0     1      30 min     0.55
SmallP-LargeEUPS       0     0.5    62 min     0.38
=====================  ====  =====  =========  =====
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.core.costs import BackupCostModel
from repro.errors import ConfigurationError
from repro.memo import BoundedMemo
from repro.power.generator import DieselGeneratorSpec
from repro.power.ups import UPSSpec
from repro.units import minutes


@dataclass(frozen=True)
class BackupConfiguration:
    """One point in the underprovisioning space, relative to facility peak.

    Attributes:
        name: Table 3 name.
        dg_power_fraction: DG rating / facility peak.
        ups_power_fraction: UPS rating / facility peak.
        ups_runtime_seconds: Battery runtime at the UPS's rated power.
    """

    name: str
    dg_power_fraction: float
    ups_power_fraction: float
    ups_runtime_seconds: float

    def __post_init__(self) -> None:
        if self.dg_power_fraction < 0 or self.ups_power_fraction < 0:
            raise ConfigurationError("capacity fractions must be >= 0")
        if self.ups_runtime_seconds < 0:
            raise ConfigurationError("UPS runtime must be >= 0")
        if self.ups_power_fraction == 0 and self.ups_runtime_seconds > 0:
            raise ConfigurationError("runtime without UPS power is meaningless")

    # -- materialisation ------------------------------------------------------

    def ups_spec(self, peak_power_watts: float) -> UPSSpec:
        if self.ups_power_fraction == 0:
            return UPSSpec.none()
        return UPSSpec(
            power_capacity_watts=self.ups_power_fraction * peak_power_watts,
            rated_runtime_seconds=self.ups_runtime_seconds,
        )

    def generator_spec(self, peak_power_watts: float) -> DieselGeneratorSpec:
        if self.dg_power_fraction == 0:
            return DieselGeneratorSpec.none()
        return DieselGeneratorSpec(
            power_capacity_watts=self.dg_power_fraction * peak_power_watts
        )

    def materialize(
        self, peak_power_watts: float
    ) -> Tuple[UPSSpec, DieselGeneratorSpec]:
        """Physical specs for a facility of ``peak_power_watts``."""
        if peak_power_watts <= 0:
            raise ConfigurationError("peak power must be positive")
        return self.ups_spec(peak_power_watts), self.generator_spec(peak_power_watts)

    def normalized_cost(self, model: "BackupCostModel | None" = None) -> float:
        """Cost relative to MaxPerf (peak-independent; Table 3 column).

        Memoized process-wide: a cost model prices with its class's
        equations and its frozen parameters, so the key is the frozen
        configuration, that class and those parameters.
        """
        if model is None:
            model = BackupCostModel()
        key = (self, type(model), model.parameters)
        cost = _COSTS.get(key)
        if cost is None:
            reference_peak = 1000.0  # 1 KW; the ratio is scale-free
            ups, dg = self.materialize(reference_peak)
            cost = _COSTS.put(key, model.normalized_cost(ups, dg, reference_peak))
        return cost

    # -- derivation helpers ------------------------------------------------------

    def with_runtime(self, ups_runtime_seconds: float) -> "BackupConfiguration":
        return replace(self, ups_runtime_seconds=ups_runtime_seconds)


#: (configuration, cost model class, cost parameters) -> normalised cost.
_COSTS = BoundedMemo(1024)


def _table3() -> Dict[str, BackupConfiguration]:
    free = minutes(2)
    rows = [
        BackupConfiguration("MaxPerf", 1.0, 1.0, free),
        BackupConfiguration("MinCost", 0.0, 0.0, 0.0),
        BackupConfiguration("NoDG", 0.0, 1.0, free),
        BackupConfiguration("NoUPS", 1.0, 0.0, 0.0),
        BackupConfiguration("DG-SmallPUPS", 1.0, 0.5, free),
        BackupConfiguration("SmallDG-SmallPUPS", 0.5, 0.5, free),
        BackupConfiguration("SmallPUPS", 0.0, 0.5, free),
        BackupConfiguration("LargeEUPS", 0.0, 1.0, minutes(30)),
        BackupConfiguration("SmallP-LargeEUPS", 0.0, 0.5, minutes(62)),
    ]
    return {row.name.lower(): row for row in rows}


_CONFIGURATIONS = _table3()

#: Table 3, in row order.
PAPER_CONFIGURATIONS: Tuple[BackupConfiguration, ...] = tuple(
    _CONFIGURATIONS.values()
)

#: The six configurations Figure 5 plots.
FIGURE5_CONFIGURATIONS: Tuple[str, ...] = (
    "MaxPerf",
    "DG-SmallPUPS",
    "LargeEUPS",
    "NoDG",
    "SmallP-LargeEUPS",
    "MinCost",
)


def configuration_names() -> List[str]:
    return [config.name for config in PAPER_CONFIGURATIONS]


def get_configuration(name: str) -> BackupConfiguration:
    """Look up a Table 3 configuration by name (case-insensitive)."""
    config = _CONFIGURATIONS.get(name.lower())
    if config is None:
        raise ConfigurationError(
            f"unknown configuration {name!r}; known: {', '.join(configuration_names())}"
        )
    return config

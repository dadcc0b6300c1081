"""Power-infrastructure substrate: batteries, UPS units, diesel generators.

This subpackage models the physical backup power equipment the paper
underprovisions:

* :mod:`repro.power.battery` -- Peukert-law battery packs reproducing the
  nonlinear runtime chart of Figure 3.
* :mod:`repro.power.ups` -- rack-level offline/online UPS units.
* :mod:`repro.power.generator` -- diesel generators with start-up and
  load-transfer delays.
* :mod:`repro.power.psu` -- server power-supply hold-up capacitance.
* :mod:`repro.power.placement` -- rack-level UPS versus server-level
  batteries.
* :mod:`repro.power.redundancy` -- N, N+1 and 2N arrangements and the
  Tier presets.
"""

from repro.power.battery import (
    LEAD_ACID,
    LI_ION,
    Battery,
    BatteryChemistry,
    BatterySpec,
    fit_peukert_exponent,
)
from repro.power.generator import DieselGenerator, DieselGeneratorSpec
from repro.power.placement import ServerLevelBatteryBank, UPSPlacement
from repro.power.psu import PowerSupplySpec
from repro.power.redundancy import (
    ALL_TIERS,
    TIER_I,
    TIER_II,
    TIER_III,
    TIER_IV,
    RedundancyScheme,
    TierLevel,
)
from repro.power.ups import UPSSpec, UPSUnit

__all__ = [
    "ALL_TIERS",
    "Battery",
    "BatteryChemistry",
    "BatterySpec",
    "DieselGenerator",
    "DieselGeneratorSpec",
    "LEAD_ACID",
    "LI_ION",
    "PowerSupplySpec",
    "ServerLevelBatteryBank",
    "UPSPlacement",
    "RedundancyScheme",
    "TIER_I",
    "TIER_II",
    "TIER_III",
    "TIER_IV",
    "TierLevel",
    "UPSSpec",
    "UPSUnit",
    "fit_peukert_exponent",
]

"""Name-based construction of the paper's techniques (Tables 4 and 6).

Names accepted (case-insensitive):

=====================  =====================================================
name                   technique
=====================  =====================================================
``full-service``       run unchanged (MaxPerf / MinCost endpoint)
``throttling``         DVFS throttle (optionally ``throttling-p<k>``)
``sleep``              suspend to RAM
``sleep-l``            suspend under deepest P-state
``hibernate``          persist to disk, power off
``hibernate-l``        persist under deepest P-state
``proactive-hibernate``  periodic flush + residual persist
``migration``          consolidate + shutdown (optionally ``migration-p<k>``)
``proactive-migration``  Remus-style flush + residual migrate
``throttle+sleep-l``   Table 6 hybrid
``throttle+hibernate`` Table 6 hybrid
``migration+sleep-l``  Table 6 hybrid
``geo-failover``       redirect load to surviving fleet sites
``cloud-burst``        redirect load to rented cloud capacity
=====================  =====================================================
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

from repro.errors import TechniqueError
from repro.techniques.base import OutageTechnique
from repro.techniques.hibernation import Hibernation
from repro.techniques.hybrid import SustainThenSave
from repro.techniques.migration import Migration
from repro.techniques.nop import FullService
from repro.techniques.nvdimm import NVDIMMPersistence
from repro.techniques.proactive import ProactiveHibernation, ProactiveMigration
from repro.techniques.rdma_sleep import RDMASleep
from repro.techniques.sleep import Sleep
from repro.techniques.throttling import Throttling

_FACTORIES: Dict[str, Callable[[], OutageTechnique]] = {
    "full-service": FullService,
    "throttling": Throttling,
    "sleep": Sleep,
    "sleep-l": lambda: Sleep(low_power=True),
    "hibernate": Hibernation,
    "hibernate-l": lambda: Hibernation(low_power=True),
    "proactive-hibernate": ProactiveHibernation,
    "migration": Migration,
    "proactive-migration": ProactiveMigration,
    "throttle+sleep-l": lambda: SustainThenSave(
        Throttling(), Sleep(low_power=True), name="throttle+sleep-l"
    ),
    "throttle+hibernate": lambda: SustainThenSave(
        Throttling(), Hibernation(low_power=True), name="throttle+hibernate"
    ),
    "migration+sleep-l": lambda: SustainThenSave(
        Migration(), Sleep(low_power=True), name="migration+sleep-l"
    ),
    "nvdimm": NVDIMMPersistence,
    "rdma-sleep": RDMASleep,
    "geo-failover": lambda: _geo_failover(),
    "cloud-burst": lambda: _cloud_burst(),
}


def _geo_failover() -> OutageTechnique:
    """Geo-failover on the reference ``us-triad`` fleet, local site first.

    Imported lazily: :mod:`repro.fleet` depends on this registry for its
    per-site plans, so the fleet-backed techniques must not import it at
    module load.
    """
    from repro.fleet.failover import GeoFailoverTechnique
    from repro.fleet.spec import get_fleet

    fleet = get_fleet("us-triad")
    return GeoFailoverTechnique(fleet, fleet.sites[0].name)


def _cloud_burst() -> OutageTechnique:
    """Cloud burst on the reference ``cloud-hybrid`` fleet."""
    from repro.fleet.failover import CloudBurstTechnique
    from repro.fleet.spec import get_fleet

    return CloudBurstTechnique(get_fleet("cloud-hybrid"), "onprem")

_PSTATE_SUFFIX = re.compile(
    r"^(throttling|migration|proactive-migration)-p(\d+)(?:t(\d+))?$"
)


def technique_names() -> List[str]:
    """Canonical technique names, basic techniques first."""
    return list(_FACTORIES)


def get_technique(name: str) -> OutageTechnique:
    """Instantiate a technique by name (supports ``-p<k>`` P-state pins)."""
    key = name.lower()
    factory = _FACTORIES.get(key)
    if factory is not None:
        return factory()
    match = _PSTATE_SUFFIX.match(key)
    if match:
        base, index = match.group(1), int(match.group(2))
        tstate = int(match.group(3)) if match.group(3) is not None else None
        if base == "throttling":
            return Throttling(pstate_index=index, tstate_index=tstate)
        if tstate is not None:
            raise TechniqueError(f"{base} does not take a T-state suffix")
        if base == "migration":
            return Migration(pstate_index=index)
        return ProactiveMigration(pstate_index=index)
    raise TechniqueError(
        f"unknown technique {name!r}; known: {', '.join(technique_names())}"
    )


#: The techniques compared in Figures 6-9 (MinCost is a *configuration*;
#: its technique is full-service with no backup).
PAPER_TECHNIQUES = (
    "throttling",
    "sleep",
    "sleep-l",
    "hibernate",
    "hibernate-l",
    "proactive-hibernate",
    "migration",
    "proactive-migration",
    "throttle+sleep-l",
    "throttle+hibernate",
    "migration+sleep-l",
)

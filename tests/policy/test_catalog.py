"""ModeCatalog: the compiled menu of single-technique steady states."""

from dataclasses import replace

import pytest

from repro.core.configurations import get_configuration
from repro.core.performability import make_datacenter
from repro.errors import PolicyError
from repro.policy import (
    MODE_TECHNIQUES,
    ModeCatalog,
    SAVE_MODE_ORDER,
    SERVE_MODE_ORDER,
)
from repro.workloads.registry import get_workload


def _catalog(config="LargeEUPS", workload="websearch", budget=None):
    """The catalog, on a UPS rated for ``budget`` watts when one is given."""
    datacenter = make_datacenter(
        get_workload(workload), get_configuration(config)
    )
    if budget is not None:
        datacenter = replace(
            datacenter,
            ups=replace(datacenter.ups, power_capacity_watts=budget),
        )
    return ModeCatalog.compile(datacenter)


def test_mode_names_are_registered_subset():
    catalog = _catalog()
    assert set(catalog.names()) <= set(MODE_TECHNIQUES)
    assert len(catalog) == len(catalog.names())
    for mode in catalog:
        assert mode.name in catalog


def test_orders_cover_disjoint_mode_kinds():
    assert not set(SERVE_MODE_ORDER) & set(SAVE_MODE_ORDER)
    assert set(SERVE_MODE_ORDER) | set(SAVE_MODE_ORDER) == set(MODE_TECHNIQUES)


def test_full_mode_phases_match_plan_path():
    """A mode's phases are byte-for-byte the compiled plan's phases."""
    from repro.core.performability import plan_power_budget_watts
    from repro.techniques.base import TechniqueContext
    from repro.techniques.registry import get_technique

    datacenter = make_datacenter(
        get_workload("websearch"), get_configuration("LargeEUPS")
    )
    catalog = ModeCatalog.compile(datacenter)
    context = TechniqueContext(
        cluster=datacenter.cluster,
        workload=datacenter.workload,
        power_budget_watts=plan_power_budget_watts(datacenter),
    )
    for mode in catalog:
        plan = get_technique(MODE_TECHNIQUES[mode.name]).compile_plan(context)
        assert mode.program() == tuple(plan.phases)
        assert mode.technique_name == plan.technique_name
        assert mode.steady_phase.is_terminal


def test_budget_filters_infeasible_modes():
    """A starvation budget shrinks the menu instead of crashing."""
    wide = _catalog("LargeEUPS")
    assert "full" in wide
    # 2 kW cannot carry full service (~3.7 kW), but the low-power
    # state-save entries (~1.9 kW) still fit.
    narrow = _catalog("LargeEUPS", budget=2000.0)
    assert "full" not in narrow
    assert len(narrow) < len(wide)


def test_empty_catalog_raises():
    with pytest.raises(PolicyError, match="empty"):
        _catalog("LargeEUPS", budget=1e-12)


def test_get_unknown_mode_raises():
    catalog = _catalog()
    with pytest.raises(PolicyError, match="unknown mode"):
        catalog.get("warp-drive")


def test_entry_accounting():
    catalog = _catalog()
    hibernate = catalog.get("hibernate-l")
    assert hibernate.entry_seconds == sum(
        p.duration_seconds for p in hibernate.entry_phases
    )
    assert hibernate.entry_seconds > 0  # image write is not free
    assert hibernate.performance == hibernate.steady_phase.performance
    full = catalog.get("full")
    assert full.performance == pytest.approx(1.0)

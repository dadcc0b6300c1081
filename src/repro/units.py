"""Unit helpers used throughout the library.

Internally the library standardises on:

* time      -- seconds (float)
* power     -- watts (float)
* energy    -- joules (float)
* data size -- bytes (float)
* money     -- dollars per year for amortised cap-ex (float)

The paper, however, quotes values in minutes, kilowatts, kilowatt-hours and
gigabytes, so this module provides explicit, readable conversion functions in
both directions.  Using named functions rather than bare multiplications keeps
every magic constant out of the model code and makes each call site
self-documenting: ``minutes(2)`` instead of ``120``.
"""

from __future__ import annotations

from typing import Iterable

# ---------------------------------------------------------------------------
# Time.
# ---------------------------------------------------------------------------

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.0 * SECONDS_PER_DAY


def seconds(value: float) -> float:
    """Identity conversion, for call-site symmetry with :func:`minutes`."""
    return float(value)


def minutes(value: float) -> float:
    """Convert minutes to seconds."""
    return float(value) * SECONDS_PER_MINUTE


def hours(value: float) -> float:
    """Convert hours to seconds."""
    return float(value) * SECONDS_PER_HOUR


def days(value: float) -> float:
    """Convert days to seconds."""
    return float(value) * SECONDS_PER_DAY


def to_minutes(value_seconds: float) -> float:
    """Convert seconds to minutes."""
    return float(value_seconds) / SECONDS_PER_MINUTE


def to_hours(value_seconds: float) -> float:
    """Convert seconds to hours."""
    return float(value_seconds) / SECONDS_PER_HOUR


# ---------------------------------------------------------------------------
# Power and energy.
# ---------------------------------------------------------------------------

WATTS_PER_KILOWATT = 1000.0
WATTS_PER_MEGAWATT = 1e6
JOULES_PER_WATT_HOUR = 3600.0
JOULES_PER_KILOWATT_HOUR = 3.6e6


def kilowatts(value: float) -> float:
    """Convert kilowatts to watts."""
    return float(value) * WATTS_PER_KILOWATT


def megawatts(value: float) -> float:
    """Convert megawatts to watts."""
    return float(value) * WATTS_PER_MEGAWATT


def to_kilowatts(value_watts: float) -> float:
    """Convert watts to kilowatts."""
    return float(value_watts) / WATTS_PER_KILOWATT


def to_megawatts(value_watts: float) -> float:
    """Convert watts to megawatts."""
    return float(value_watts) / WATTS_PER_MEGAWATT


def watt_hours(value: float) -> float:
    """Convert watt-hours to joules."""
    return float(value) * JOULES_PER_WATT_HOUR


def kilowatt_hours(value: float) -> float:
    """Convert kilowatt-hours to joules."""
    return float(value) * JOULES_PER_KILOWATT_HOUR


def to_kilowatt_hours(value_joules: float) -> float:
    """Convert joules to kilowatt-hours."""
    return float(value_joules) / JOULES_PER_KILOWATT_HOUR


def energy(power_watts: float, duration_seconds: float) -> float:
    """Energy in joules for a constant ``power_watts`` over ``duration_seconds``."""
    return float(power_watts) * float(duration_seconds)


def runtime_at_power(energy_joules: float, power_watts: float) -> float:
    """How long ``energy_joules`` lasts at a constant draw of ``power_watts``.

    Returns ``float('inf')`` for a non-positive draw, matching the physical
    intuition that an unloaded store never drains.
    """
    if power_watts <= 0.0:
        return float("inf")
    return float(energy_joules) / float(power_watts)


# ---------------------------------------------------------------------------
# Data sizes.
# ---------------------------------------------------------------------------

BYTES_PER_MEGABYTE = 1e6
BYTES_PER_GIGABYTE = 1e9
BITS_PER_BYTE = 8.0


def megabytes(value: float) -> float:
    """Convert megabytes (decimal) to bytes."""
    return float(value) * BYTES_PER_MEGABYTE


def gigabytes(value: float) -> float:
    """Convert gigabytes (decimal) to bytes."""
    return float(value) * BYTES_PER_GIGABYTE


def to_gigabytes(value_bytes: float) -> float:
    """Convert bytes to gigabytes (decimal)."""
    return float(value_bytes) / BYTES_PER_GIGABYTE


def gigabits_per_second(value: float) -> float:
    """Convert a link speed in Gb/s to bytes per second."""
    return float(value) * BYTES_PER_GIGABYTE / BITS_PER_BYTE


def megabytes_per_second(value: float) -> float:
    """Convert a bandwidth in MB/s to bytes per second."""
    return float(value) * BYTES_PER_MEGABYTE


def transfer_time(size_bytes: float, bandwidth_bytes_per_second: float) -> float:
    """Seconds to move ``size_bytes`` at ``bandwidth_bytes_per_second``.

    Zero-sized transfers take zero time regardless of bandwidth; a
    non-positive bandwidth with a positive size is an error state surfaced
    as ``float('inf')`` so that feasibility checks upstream reject the plan.
    """
    if size_bytes <= 0.0:
        return 0.0
    if bandwidth_bytes_per_second <= 0.0:
        return float("inf")
    return float(size_bytes) / float(bandwidth_bytes_per_second)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval ``[low, high]``."""
    if low > high:
        raise ValueError(f"clamp range is inverted: [{low}, {high}]")
    return max(low, min(high, value))


# ---------------------------------------------------------------------------
# Reductions.
# ---------------------------------------------------------------------------


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, starting from ``0``.

    Builtin ``sum`` does exactly this up to Python 3.11; from 3.12 it
    compensates float additions, which can move a total's last bit.
    Every float reduce that feeds a payload uses this instead, so
    payloads are bit-identical on every Python.
    """
    total = 0
    for value in values:
        total += value
    return total

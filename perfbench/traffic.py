"""Seeded request sequences for each workload.

Every request is a ``/v1/eval`` protocol body (``{"v":1,"analysis":…,
"params":…}``) encoded with sorted keys, so the same workload seed gives
the same bytes.  Each closed-loop client walks its own sequence; the
sequences are unbounded and a run takes as many as fit in its seconds.
The names below mirror the program's registries and are written out so
that the request bytes do not depend on program code.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, Iterator, List

WORKLOAD_NAMES = ("specjbb", "websearch", "memcached", "speccpu")
CONFIGURATIONS = (
    "MaxPerf", "MinCost", "NoDG", "NoUPS", "DG-SmallPUPS",
    "SmallDG-SmallPUPS", "SmallPUPS", "LargeEUPS", "SmallP-LargeEUPS",
)
TECHNIQUES = (
    "throttling", "sleep", "sleep-l", "hibernate", "hibernate-l",
    "proactive-hibernate", "migration", "proactive-migration",
    "throttle+sleep-l", "throttle+hibernate", "migration+sleep-l",
)

#: The paper techniques that compile on every Table-3 configuration;
#: ``whatif`` refuses the others on the power-limited ones (HTTP 500),
#: so serve-mix asks ``whatif`` only about these.
WHATIF_TECHNIQUES = (
    "throttling", "sleep-l", "hibernate-l", "throttle+sleep-l",
    "throttle+hibernate",
)

#: (configuration, technique) pairs left out of ``availability``
#: requests because the program fails on them.  MaxPerf with
#: proactive-migration has no real down time in most years, and the
#: year's accounting leaves rounding residue such as -3.6e-15 s; when a
#: request's mean down time comes out negative, the TCO reduce step
#: raises ("outage minutes must be >= 0") and the request gets HTTP 500.
#: test_harness.py replays one such request as a strict expected
#: failure, so this entry must go once the program is fixed.
KNOWN_FAILING = frozenset({("MaxPerf", "proactive-migration")})
AVAILABILITY_PAIRS = tuple(
    (c, t) for c in CONFIGURATIONS for t in TECHNIQUES
    if (c, t) not in KNOWN_FAILING
)

#: Clients per workload (closed loop: each waits for its reply).
CLIENTS = {"serve-mix": 2, "mc-years": 1, "fleet-frontier": 1}

#: Request seeds are drawn below this; warm-ups use seeds above it, so a
#: warm-up never pre-fills a cache entry a timed request reads.
SEED_SPACE = 2**31
WARMUP_SEED = SEED_SPACE + 7

MC_YEARS = 1000
REPEAT_SHARE = 0.2
#: serve-mix shares of fresh requests (repeats come on top).
MIX = (
    ("whatif", 0.30),
    ("availability", 0.30),
    ("rank", 0.15),
    ("sweep", 0.20),
    ("policy_frontier", 0.05),
)


def encode(analysis: str, params: Dict[str, object]) -> bytes:
    body = {"v": 1, "analysis": analysis, "params": params}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _minutes(rng: random.Random) -> float:
    return round(rng.uniform(1.0, 120.0), 1)


def _fresh_mix(shape: random.Random, seeds: random.Random) -> bytes:
    kind = shape.choices([k for k, _ in MIX], weights=[w for _, w in MIX])[0]
    workload = shape.choice(WORKLOAD_NAMES)
    if kind == "whatif":
        return encode(kind, {
            "workload": workload,
            "configuration": shape.choice(CONFIGURATIONS),
            "technique": shape.choice(WHATIF_TECHNIQUES),
            "nodes_per_bucket": shape.randint(1, 6),
        })
    if kind == "availability":
        configuration, technique = shape.choice(AVAILABILITY_PAIRS)
        return encode(kind, {
            "workload": workload,
            "configuration": configuration,
            "technique": technique,
            "years": shape.randint(20, 200),
            "seed": seeds.randrange(SEED_SPACE),
        })
    if kind == "rank":
        return encode(kind, {
            "workload": workload,
            "outage_minutes": _minutes(shape),
            "techniques": shape.sample(TECHNIQUES, shape.randint(3, len(TECHNIQUES))),
        })
    if kind == "sweep":
        rows_kind = shape.choice(("techniques", "configurations"))
        names = TECHNIQUES if rows_kind == "techniques" else CONFIGURATIONS
        return encode(kind, {
            "workload": workload,
            "kind": rows_kind,
            "rows": shape.sample(names, shape.randint(2, len(names))),
            "outage_minutes": [_minutes(shape) for _ in range(shape.randint(1, 3))],
        })
    return encode(kind, {
        "workload": workload,
        "configurations": shape.sample(CONFIGURATIONS, shape.randint(2, 5)),
    })


def _serve_mix(seeds: random.Random, client: int) -> Iterator[bytes]:
    # The shape of the mix (kinds, sizes, names, which requests repeat)
    # is the same in every run, so every run prices the same work; the
    # workload seed draws the Monte-Carlo seeds of the availability
    # requests, which therefore always miss a fresh cache.
    shape = random.Random(f"serve-mix/shape/{client}")
    sent: List[bytes] = []
    while True:
        if sent and shape.random() < REPEAT_SHARE:
            yield shape.choice(sent)
            continue
        body = _fresh_mix(shape, seeds)
        sent.append(body)
        yield body


def _mc_years(rng: random.Random, client: int) -> Iterator[bytes]:
    # Request i asks about (workload i mod 4, configuration i mod 9,
    # technique i mod 11): 4, 9 and 11 are coprime, so the rotation
    # visits every triple and any 11 consecutive requests cover every
    # technique.  The order is fixed, so every run prices the same mix of
    # triples (per-year cost differs 2x between them) and the workload
    # seed only draws the Monte-Carlo seeds.
    for i in itertools.count():
        configuration = CONFIGURATIONS[i % len(CONFIGURATIONS)]
        technique = TECHNIQUES[i % len(TECHNIQUES)]
        if (configuration, technique) in KNOWN_FAILING:
            continue
        yield encode("availability", {
            "workload": WORKLOAD_NAMES[i % len(WORKLOAD_NAMES)],
            "configuration": configuration,
            "technique": technique,
            "years": MC_YEARS,
            "seed": rng.randrange(SEED_SPACE),
        })


#: The default ``fleet_frontier`` request with its grid written out, so
#: the request pins the work ``site_years`` counts: the us-triad fleet
#: (3 sites), the 9 Table-3 configurations, each routed and unrouted,
#: 40 years.  test_harness.py holds it equal to the program's defaults.
FLEET = "us-triad"
FLEET_SITES = {FLEET: 3}
FLEET_YEARS = 40


def _fleet_frontier(rng: random.Random, client: int) -> Iterator[bytes]:
    while True:
        yield encode("fleet_frontier", {
            "fleet": FLEET,
            "configurations": list(CONFIGURATIONS),
            "years": FLEET_YEARS,
            "seed": rng.randrange(SEED_SPACE),
        })


_SEQUENCES = {
    "serve-mix": _serve_mix,
    "mc-years": _mc_years,
    "fleet-frontier": _fleet_frontier,
}


def sequence(workload: str, seed: object, client: int) -> Iterator[bytes]:
    """Client ``client``'s request bytes for ``workload`` at ``seed``."""
    return _SEQUENCES[workload](random.Random(f"{workload}/{seed}/{client}"), client)


def site_years(body: bytes) -> int:
    """Simulated site-years a request asks for: sites x years x cells."""
    request = json.loads(body)
    params = request["params"]
    if request["analysis"] == "availability":
        return int(params["years"])
    if request["analysis"] == "fleet_frontier":
        # Each configuration is simulated routed and unrouted.
        cells = 2 * len(params["configurations"])
        return FLEET_SITES[params["fleet"]] * int(params["years"]) * cells
    return 0


def warmups(workload: str) -> List[bytes]:
    """One minimal request per analysis kind the workload sends."""
    kinds = {
        "serve-mix": [k for k, _ in MIX],
        "mc-years": ["availability"],
        "fleet-frontier": ["fleet_frontier"],
    }[workload]
    small = {
        "whatif": {"workload": "memcached", "configuration": "NoDG",
                   "technique": "sleep-l", "nodes_per_bucket": 1},
        "availability": {"workload": "memcached", "configuration": "NoDG",
                         "technique": "sleep-l", "years": 1,
                         "seed": WARMUP_SEED},
        "rank": {"workload": "memcached", "outage_minutes": 7.0,
                 "techniques": ["sleep-l"]},
        "sweep": {"workload": "memcached", "rows": ["sleep-l"],
                  "outage_minutes": [7.0]},
        "policy_frontier": {"workload": "memcached",
                            "configurations": ["NoDG"]},
        "fleet_frontier": {"configurations": ["NoDG"], "years": 1,
                           "seed": WARMUP_SEED},
    }
    return [encode(kind, small[kind]) for kind in kinds]

"""Seeded inputs of the four workloads.

Everything here is a pure function of the workload seed: the same seed gives
the same targets, request sequences and frame seeds, so a run can be repeated
exactly and a different seed gives a different draw.  The program under test
only ever sees the targets built here.

Target keys (``<dag>@<width>x<height>[+lc]``) name one compile in
``expected.json``; DAG keys are ``cat:<algorithm>``, ``dsl:<text name>`` or
``syn:<stages>:<interval>``.
"""

from __future__ import annotations

import random

#: Resolutions of the catalog compiles (the paper's Fig. 8 and Fig. 9 sizes).
SMALL = (480, 320)
LARGE = (1920, 1080)

#: Stage-count bands of the synthetic scaling draw (paper Sec. 8.2: 9 to 60
#: stages).  Each pass draws one count per band, so every pass spans the
#: whole range and passes of different seeds cost about the same.
SYNTHETIC_BANDS = ((9, 12, 15), (18, 21, 24), (36, 40, 44), (52, 56, 60))
SYNTHETIC_INTERVALS = (2, 3, 4, 5)
COMPILE_CYCLE = 3

#: DSL texts parsed on every compile-cold pass.  The first is the paper's
#: Sec. 4 example.
DSL_TEXTS = {
    "paper-example": """
input K0;
K1 = im(x,y) (K0(x-1,y-1) + K0(x,y-1) + K0(x+1,y-1) +
              K0(x-1,y)   + K0(x,y)   + K0(x+1,y)   +
              K0(x-1,y+1) + K0(x,y+1) + K0(x+1,y+1)) / 9 end
output K2 = im(x,y) (K0(x,y) + K0(x+1,y) + K0(x,y+1) + K0(x+1,y+1)) / 4 +
                    (K1(x-1,y-1) + K1(x+1,y+1) + K1(x,y)) / 3 end
""",
    "separable-sharpen": """
input I;
BX = im(x,y) (I(x-1,y) + I(x,y) + I(x+1,y)) / 3 end
BY = im(x,y) (BX(x,y-1) + BX(x,y) + BX(x,y+1)) / 3 end
output S = im(x,y) I(x,y) + (I(x,y) - BY(x,y)) end
""",
    "sobel-magnitude": """
input I;
GX = im(x,y) I(x+1,y-1) + 2*I(x+1,y) + I(x+1,y+1) - I(x-1,y-1) - 2*I(x-1,y) - I(x-1,y+1) end
GY = im(x,y) I(x-1,y+1) + 2*I(x,y+1) + I(x+1,y+1) - I(x-1,y-1) - 2*I(x,y-1) - I(x+1,y-1) end
M = im(x,y) GX(x,y)*GX(x,y) + GY(x,y)*GY(x,y) end
output E = im(x,y) (M(x-1,y-1) + M(x,y) + M(x+1,y+1)) / 3 end
""",
}

#: Verify-mix checks per algorithm per round: two frame seeds each for the
#: expensive replay kinds, one request each for the cheap ones.
VERIFY_SLOTS = (("golden", 0), ("rtl", 0), ("golden", 1), ("rtl", 1), ("cycle", 0), ("perf", 0))
VERIFY_FRAMES = 1

#: Share of http-serve requests that are cold misses.
HTTP_MISS_RATE = 0.05


def catalog_names() -> tuple[str, ...]:
    from repro.algorithms import algorithm_names

    return tuple(algorithm_names())


def target_key(dag_key: str, width: int, height: int, coalescing: bool) -> str:
    return f"{dag_key}@{width}x{height}{'+lc' if coalescing else ''}"


def build_dag(dag_key: str):
    """Build the DAG a key names (``cat:``, ``dsl:`` or ``syn:``)."""
    kind, _, rest = dag_key.partition(":")
    if kind == "cat":
        from repro.algorithms import build_algorithm

        return build_algorithm(rest)
    if kind == "dsl":
        from repro.dsl.parser import parse_pipeline

        return parse_pipeline(DSL_TEXTS[rest], name=rest)
    if kind == "syn":
        from repro.algorithms import build_synthetic_pipeline

        stages, interval = (int(part) for part in rest.split(":"))
        return build_synthetic_pipeline(
            stages, multi_consumer_interval=interval, name=f"synthetic-{stages}-i{interval}"
        )
    raise ValueError(f"unknown DAG key {dag_key!r}")


def make_target(dag, width: int, height: int, coalescing: bool):
    from repro.api.target import CompileTarget

    return CompileTarget(dag, image_width=width, image_height=height).with_options(
        coalescing=coalescing
    )


# ---------------------------------------------------------------- compile-cold
def catalog_specs() -> list[tuple[str, int, int, bool]]:
    """The fixed part of a compile-cold pass: 9 algorithms x 2 sizes x +-lc."""
    return [
        (f"cat:{name}", width, height, coalescing)
        for name in catalog_names()
        for width, height in (SMALL, LARGE)
        for coalescing in (False, True)
    ]


def dsl_specs() -> list[tuple[str, int, int, bool]]:
    return [
        (f"dsl:{name}", width, height, False)
        for name in DSL_TEXTS
        for width, height in (SMALL, LARGE)
    ]


def synthetic_pool() -> list[str]:
    """Every synthetic DAG key a draw can produce."""
    return [
        f"syn:{stages}:{interval}"
        for band in SYNTHETIC_BANDS
        for stages in band
        for interval in SYNTHETIC_INTERVALS
    ]


def compile_passes(rng: random.Random):
    """Endless compile-cold passes: catalog + DSL texts + a synthetic draw.

    Each pass draws one stage count per band and a multi-consumer interval,
    each compiled at 1080p with and without coalescing; the order of the
    whole pass is shuffled.  Stage counts are dealt from a fresh seeded
    permutation of each band every :data:`COMPILE_CYCLE` passes, so a cycle
    compiles every count of every band exactly once.
    """
    while True:
        deals = [rng.sample(band, len(band)) for band in SYNTHETIC_BANDS]
        for index in range(COMPILE_CYCLE):
            specs = catalog_specs() + dsl_specs()
            for deal in deals:
                dag_key = f"syn:{deal[index]}:{rng.choice(SYNTHETIC_INTERVALS)}"
                specs += [(dag_key, *LARGE, False), (dag_key, *LARGE, True)]
            rng.shuffle(specs)
            yield specs


# ------------------------------------------------------------------ verify-mix
def verify_rounds(rng: random.Random):
    """Endless verify-mix rounds of ``(algorithm, check, frame seed)`` requests.

    Every algorithm gets every slot of :data:`VERIFY_SLOTS` once per round,
    with two fresh frame seeds per algorithm, so every request is a new
    verdict.
    """
    while True:
        requests = []
        for name in catalog_names():
            seeds = (rng.randrange(1, 2**31), rng.randrange(1, 2**31))
            requests += [(name, check, seeds[slot]) for check, slot in VERIFY_SLOTS]
        rng.shuffle(requests)
        yield requests


# ------------------------------------------------------------------ http-serve
def http_warm_specs() -> list[tuple[str, int, int, bool]]:
    """The pre-warmed working set: the compile-cold catalog set."""
    return catalog_specs()


def http_requests(rng: random.Random, lane: int):
    """Endless http-serve request stream: ``("hit", spec)`` or ``("miss", spec)``.

    A miss is a catalog DAG, or a small synthetic DAG, at a resolution no
    earlier request of the run used.  Widths are offset by ``lane`` (the
    client thread's index, 0 or 1), so two threads never draw the same miss.
    """
    warm = http_warm_specs()
    names = catalog_names()
    used: set[str] = set()
    while True:
        if rng.random() >= HTTP_MISS_RATE:
            yield "hit", rng.choice(warm)
            continue
        if rng.random() < 0.5:
            dag_key = f"cat:{rng.choice(names)}"
        else:
            dag_key = f"syn:{rng.randrange(9, 17)}:{rng.choice(SYNTHETIC_INTERVALS)}"
        spec = (dag_key, 16 * rng.randrange(6, 33) + 8 * lane, 8 * rng.randrange(8, 41), False)
        key = target_key(*spec)
        if key not in used and spec[1:3] not in (SMALL, LARGE):
            used.add(key)
            yield "miss", spec


# ------------------------------------------------------------------- dse-sweep
def sweep_specs() -> list[tuple[str, int, int]]:
    return [
        (f"cat:{name}", width, height)
        for name in catalog_names()
        for width, height in (SMALL, LARGE)
    ]


def sweep_passes(rng: random.Random):
    """Endless dse-sweep passes: every sweep spec once, in seeded order."""
    while True:
        specs = sweep_specs()
        rng.shuffle(specs)
        yield specs

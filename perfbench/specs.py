"""Seeded workload generators for the repository benchmark.

Every input the benchmark sends is a *spec*: a plain dict of
``SimRequest`` (or ``OptimizeRequest``) keyword arguments. Specs are
drawn from fixed universes of *cells*. A workload's *round* is a fixed
subset of its cells; the seed only picks a cost-neutral variant of a
cell (a static clock ceiling, a serving trace seed) and the order of the
round. Each run of a workload therefore performs the same multiset of
simulation shapes, which keeps run-to-run spread small while different
seeds still send different requests. A run repeats its round several
times and the benchmark reports per-operation medians over the rounds.
``goldens.json`` (built by ``make_goldens.py``) holds one expected
output digest for every spec any seed can produce.
"""

from __future__ import annotations

import itertools
import json
import random

#: Model / cluster axes shared by the training-style universes.
MODELS = ("gpt3-13b", "gpt3-30b", "llama3-30b", "mixtral-8x7b")
CLUSTERS = ("mi250x32", "h100x64", "h200x32")
DENSE_PLANS = ("TP4-PP2", "TP2-PP4")
MOE_PLANS = ("TP2-PP2-EP4", "TP4-PP2-EP2")
SCHEDULES = ("1f1b", "zb-h1", "interleaved")

#: Power variants of a cold-run cell: ``None`` is the default
#: (no governor); the rest are static clock ceilings.
POWER_VARIANTS = (None, 0.95, 0.9, 0.85)

#: Static setpoints of the sweep universe, and the three setpoint
#: triples that cover them; sweep cell i always asks triple i mod 3.
SETPOINTS = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)
SWEEP_TRIPLES = (SETPOINTS[0::3], SETPOINTS[1::3], SETPOINTS[2::3])

#: Search-bracket variants of an optimize cell; search cell i always
#: asks bracket i mod 3 (the bracket changes how much a search does).
SETPOINT_LOS = (0.55, 0.6, 0.65)

#: Serving trace-seed variants of a serving cell.
TRACE_SEEDS = (1, 2, 3, 4)

COLD_BATCH = 32
SWEEP_BATCH = 16

#: cold-run round: every COLD_STRIDE-th cold cell (61 of 241, spanning
#: every model, cluster, plan shape, microbatch, schedule and kind).
COLD_STRIDE = 4

#: sweep round: these search cells (one mi250x32-sized, one
#: h200x32-sized), then one grid cell of each (model, cluster, plan)
#: group of four, rotating through the microbatch x schedule members
#: (23 of 94).
SWEEP_SEARCHES = (0, 3)
SWEEP_GROUP = 4

#: serve-mix round: 60 requests. 41 repeat the 8 hot simulations and 3
#: repeat the 2 hot searches (hits); 16 are cold misses (12 training,
#: 2 inference, 2 serving). Training misses are a fifth of the round, so
#: the 90th percentile falls inside them rather than at an edge; they
#: are drawn from the middle of the training cells by simulated size
#: (kernel records), so it does not hinge on one outsized cell.
SERVE_HOT = 8
SERVE_OPTIMIZE = 2
SERVE_ROUND = 60
SERVE_MISSES = {"training": 12, "inference": 2, "serving": 2}
SERVE_OPTIMIZE_SLOTS = (9, 29, 49)

#: serve-mix runs at most this many rounds: every miss cell has four
#: variants, and each round asks a different one, so misses stay cold.
SERVE_MAX_ROUNDS = 4


def key(spec: dict) -> str:
    """Canonical spelling of a spec (the goldens index)."""
    return json.dumps(spec, sort_keys=True)


def plans_for(model: str) -> tuple[str, ...]:
    return MOE_PLANS if model.startswith("mixtral") else DENSE_PLANS


def _power(spec: dict, setpoint: float | None) -> dict:
    if setpoint is None:
        return dict(spec)
    return dict(spec, governor="static", freq_setpoint=setpoint)


# -- candidate universes (make_goldens.py validates them) -------------


def cold_cell_candidates() -> list[dict]:
    """Training cells over every shape axis plus a minority of
    inference cells, before validation."""
    cells = []
    for model, cluster in itertools.product(MODELS, CLUSTERS):
        for plan in plans_for(model):
            for mb, schedule in itertools.product((1, 2, 4), SCHEDULES):
                cells.append(dict(
                    kind="training", model=model, cluster=cluster,
                    parallelism=plan, microbatch_size=mb,
                    global_batch_size=COLD_BATCH,
                    pipeline_schedule=schedule,
                ))
            for mb in (1, 4):
                cells.append(dict(
                    kind="inference", model=model, cluster=cluster,
                    parallelism=plan, microbatch_size=mb,
                    global_batch_size=COLD_BATCH,
                    pipeline_schedule="1f1b",
                ))
    return cells


def cold_variants(cell: dict) -> list[dict]:
    return [_power(cell, setpoint) for setpoint in POWER_VARIANTS]


def sweep_cell_candidates() -> list[dict]:
    """One grid cell per (model, cluster, plan, microbatch, schedule);
    the setpoint axis is the grid."""
    cells = []
    for model, cluster in itertools.product(MODELS, CLUSTERS):
        for plan in plans_for(model):
            for mb, schedule in itertools.product((1, 2), ("1f1b", "zb-h1")):
                cells.append(dict(
                    kind="training", model=model, cluster=cluster,
                    parallelism=plan, microbatch_size=mb,
                    global_batch_size=SWEEP_BATCH,
                    pipeline_schedule=schedule,
                ))
    return cells


def sweep_variants(cell: dict) -> list[dict]:
    return [_power(cell, setpoint) for setpoint in SETPOINTS]


def sweep_grid(index: int, cell: dict) -> list[dict]:
    """The grid sweep cell ``index`` asks: its fixed setpoint triple."""
    triple = SWEEP_TRIPLES[index % len(SWEEP_TRIPLES)]
    return [_power(cell, setpoint) for setpoint in triple]


def optimize_cells() -> list[dict]:
    """Small joint searches (about a second each)."""
    cells = []
    for model, cluster in (
        ("gpt3-13b", "mi250x32"), ("gpt3-13b", "h200x32"),
        ("gpt3-30b", "mi250x32"), ("llama3-30b", "h200x32"),
    ):
        cells.append({"optimize": dict(
            model=model, cluster=cluster, global_batch_size=16,
            microbatch_sizes=[1, 2], schedules=["1f1b", "zb-h1"],
            beam_width=2, refine_top=1, setpoint_tolerance=0.1,
        )})
    return cells


def optimize_variants(cell: dict) -> list[dict]:
    return [
        {"optimize": dict(cell["optimize"], setpoint_lo=lo)}
        for lo in SETPOINT_LOS
    ]


def serving_cells() -> list[dict]:
    cells = []
    for model, cluster in (
        ("gpt3-13b", "mi250x32"), ("gpt3-13b", "h200x32"),
        ("llama3-30b", "h200x32"), ("llama3-30b", "h100x64"),
    ):
        for replicas in (1, 2):
            cells.append(dict(
                kind="serving", model=model, cluster=cluster,
                serving={
                    "trace": {"kind": "poisson", "duration_s": 30.0,
                              "mean_rate_per_s": 1.0, "seed": 0},
                    "replicas": replicas,
                },
            ))
    return cells


def serving_variants(cell: dict) -> list[dict]:
    out = []
    for seed in TRACE_SEEDS:
        serving = json.loads(json.dumps(cell["serving"]))
        serving["trace"]["seed"] = seed
        out.append(dict(cell, serving=serving))
    return out


# -- seeded streams ----------------------------------------------------


def _balanced(rng: random.Random, n: int, choices) -> list:
    """``n`` draws with every choice used equally often (up to one)."""
    pool = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(pool)
    return pool


def search_spec(index: int, cell: dict) -> dict:
    """The search optimize cell ``index`` asks: its fixed bracket."""
    lo = SETPOINT_LOS[index % len(SETPOINT_LOS)]
    return {"optimize": dict(cell["optimize"], setpoint_lo=lo)}


def cold_run_stream(cells: list[dict], seed: int) -> list[dict]:
    """One cold-run round: every ``COLD_STRIDE``-th cold cell, each with
    a balanced power variant, in seeded order. All distinct, so with a
    fresh store every request misses."""
    rng = random.Random(f"cold-run/{seed}")
    chosen = cells[::COLD_STRIDE]
    variants = _balanced(rng, len(chosen), POWER_VARIANTS)
    stream = [_power(c, v) for c, v in zip(chosen, variants)]
    rng.shuffle(stream)
    return stream


def sweep_stream(cells: list[dict], searches: list[dict],
                 seed: int) -> list[tuple[str, object]]:
    """One sweep round: the ``SWEEP_SEARCHES`` (``("search", spec)``),
    then grid asks (``("grid", [spec, ...])``) over one cell of each
    group of ``SWEEP_GROUP`` sweep cells, in seeded order.

    Setpoints and brackets are fixed per cell: which grid points replay
    and which fall back to a full simulation depends on the (cell,
    setpoint) pair, and a bracket changes how many probes a search
    simulates, so seeding them would change the amount of work from run
    to run. The searches come first because a search whose probes find
    grid results already in the store does less; after them, the grids
    meet the same stored probes in any order. The seed orders the grids.
    """
    rng = random.Random(f"sweep/{seed}")
    grids: list[tuple[str, object]] = [
        ("grid", sweep_grid(index, cell)) for index, cell in enumerate(cells)
        if index % SWEEP_GROUP == (index // SWEEP_GROUP) % SWEEP_GROUP
    ]
    rng.shuffle(grids)
    return [("search", search_spec(i, searches[i]))
            for i in SWEEP_SEARCHES] + grids


def serve_mix_stream(cold_cells: list[dict], serve_cells: list[dict],
                     searches: list[dict], entries: dict, seed: int,
                     rounds: int):
    """(hot set, rounds) for serve-mix; a round is a list of
    ``SERVE_ROUND`` entries ``(path, spec)``, as is the hot set.
    ``entries`` are the goldens, which give each cell's size.

    The hot set (8 simulations and 2 searches) is requested once before
    timing, so its repeats are hits. Every round has the same timing
    structure: misses sit at evenly spaced slots and the search asks at
    fixed slots. (A seeded shuffle let misses cluster, which moved
    latency from run to run.) Rounds differ only in the variant each
    miss cell asks, so every miss stays cold; over ``SERVE_MAX_ROUNDS``
    rounds a miss slot asks every variant of its cell once. The seed
    picks the hot variants, which miss cell fills which slot, where each
    miss cell starts in its variant cycle, and the order of the hot
    repeats.
    """
    if not 1 <= rounds <= SERVE_MAX_ROUNDS:
        raise ValueError(f"serve-mix runs 1..{SERVE_MAX_ROUNDS} rounds")
    rng = random.Random(f"serve-mix/{seed}")
    training = [c for c in cold_cells if c["kind"] == "training"]
    inference = [c for c in cold_cells if c["kind"] == "inference"]
    hot_cells = training[::len(training) // SERVE_HOT][:SERVE_HOT]
    hot = [("/v1/simulate", _power(c, rng.choice(POWER_VARIANTS)))
           for c in hot_cells]
    count = SERVE_MISSES["training"]
    by_size = sorted(
        (c for c in training if c not in hot_cells),
        key=lambda c: (entries[key(c)]["events"], key(c)),
    )
    middle = len(by_size) // 2 - 2 * count
    cold_train = by_size[middle:middle + 4 * count:4]
    miss_cells = (
        [cold_variants(c) for c in cold_train]
        + [cold_variants(c) for c in
           inference[5::24][:SERVE_MISSES["inference"]]]
        + [serving_variants(c) for c in
           serve_cells[1::4][:SERVE_MISSES["serving"]]]
    )
    offsets = [rng.randrange(len(v)) for v in miss_cells]
    order = list(range(len(miss_cells)))
    rng.shuffle(order)
    asks = {}
    for slot, index in zip(SERVE_OPTIMIZE_SLOTS,
                           itertools.cycle(range(SERVE_OPTIMIZE))):
        asks[slot] = search_spec(index, searches[index])
    hot += [("/v1/optimize", search_spec(i, searches[i]))
            for i in range(SERVE_OPTIMIZE)]
    size = SERVE_ROUND - len(asks)
    misses = len(miss_cells)
    miss_slots = [(2 * k + 1) * size // (2 * misses) for k in range(misses)]
    repeats = [hot[i % SERVE_HOT][1] for i in range(size - misses)]
    rng.shuffle(repeats)
    out = []
    for number in range(rounds):
        body = list(repeats)
        for slot, index in zip(miss_slots, order):
            variants = miss_cells[index]
            body.insert(slot, variants[(offsets[index] + number)
                                       % len(variants)])
        stream = [("/v1/simulate", spec) for spec in body]
        for slot in sorted(asks):
            stream.insert(slot, ("/v1/optimize", asks[slot]))
        out.append(stream)
    return hot, out


# -- spec -> request -----------------------------------------------------


def to_request(spec: dict):
    """Build the typed request a spec describes."""
    from repro.api import OptimizeRequest, SimRequest

    if "optimize" in spec:
        return OptimizeRequest.from_dict(spec["optimize"])
    return SimRequest.from_dict(spec)


def to_wire(spec: dict) -> str:
    """JSON body of the HTTP request for a spec."""
    if "optimize" in spec:
        return json.dumps(spec["optimize"])
    return json.dumps(spec)

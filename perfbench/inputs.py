"""Seeded input generators for the benchmark workloads.

Every generator takes the benchmark seed and returns plain data (image
lists and corpus class ranks); the same seed always yields the same
inputs.  The generators use only the standard library, so a change to
the program under test never changes the inputs it is measured on.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

#: Share of ``serve_mix`` requests per kind: relabelings of classes
#: seeded into the store (hits), first requests for unseeded classes
#: (misses), and relabelings of classes already missed (hits on fresh
#: writes).  There is no record of real daemon traffic, so the mix is
#: synthetic and set by a rule, not measured:
#:
#: * hits (seeded + repeat) are 85 %, far above half, so the median
#:   request is a hit and ``latency_p50_ms`` measures the read path;
#: * misses are 15 %, far above the 1 % beyond the tail percentile (p99
#:   at 1,600 requests), so ``latency_tail_ms`` measures the miss path,
#:   and a pass holds enough misses (240) for a steady miss median;
#: * repeats equal misses, so each fresh write is read back about once.
SERVE_SHARES = {"seeded": 0.70, "miss": 0.15, "repeat": 0.15}

#: Classes seeded into the store per request in the stream.  Half as
#: many classes as requests spreads the seeded hits over many keys
#: (about 1.4 reads each) instead of a few hot ones.
SERVE_SEEDED_PER_REQUEST = 0.5

#: Random 4-variable functions in the Table II pool.
TABLE2_POOL_SIZE = 1000


def rng_for(workload: str, seed: int) -> random.Random:
    """One independent generator per workload and seed (string seeding
    is stable across interpreter runs and hash seeds)."""
    return random.Random(f"{workload}:{seed}")


def random_images(num_vars: int, rng: random.Random) -> list[int]:
    """A uniformly random reversible function as its output images."""
    images = list(range(1 << num_vars))
    rng.shuffle(images)
    return images


def table2_pool() -> list[list[int]]:
    """The fixed pool of random 4-variable functions that the Table II
    workloads sample from."""
    rng = random.Random("table2-pool")
    return [random_images(4, rng) for _ in range(TABLE2_POOL_SIZE)]


def table2_specs(costs, seed: int, count: int) -> list[list[int]]:
    """A cost-stratified sample of the pool (``costs`` are the pool's
    search costs); the serial and the portfolio workloads share it for
    the same seed."""
    pool = table2_pool()
    return [pool[index]
            for index in stratified_ranks(costs, seed, count, "table2")]


def relabel(images, wires) -> list[int]:
    """Rename the wires of a function: wire ``i`` becomes ``wires[i]``
    (conjugation by the matching bit permutation)."""
    sigma = []
    for value in range(len(images)):
        moved = 0
        for wire, target in enumerate(wires):
            if value >> wire & 1:
                moved |= 1 << target
        sigma.append(moved)
    out = [0] * len(images)
    for value, image in enumerate(images):
        out[sigma[value]] = sigma[image]
    return out


def stratified_ranks(costs, seed: int, count: int, salt: str) -> list[int]:
    """Pick ``count`` indices into ``costs``, one from each of ``count``
    equal strata of the indices ordered by cost, in seeded random order.

    Search cost per function is heavy-tailed (3-variable classes take
    from microseconds to two seconds; capped 4-variable searches vary
    ±30 %), so a plain random sample makes the total work swing with the
    seed.  One function per cost stratum keeps every run's work mix the
    same while the functions themselves still vary with the seed.
    """
    if not 0 < count <= len(costs):
        raise ValueError(f"count must be in 1..{len(costs)}, got {count}")
    rng = rng_for(salt, seed)
    ordered = sorted(range(len(costs)), key=lambda rank: (costs[rank], rank))
    picks = []
    for stratum in range(count):
        low = stratum * len(ordered) // count
        high = (stratum + 1) * len(ordered) // count
        picks.append(ordered[rng.randrange(low, high)])
    rng.shuffle(picks)
    return picks


@dataclass(frozen=True)
class ServeRequest:
    """One request of the ``serve_mix`` stream."""

    kind: str          # "seeded", "miss" or "repeat"
    rank: int          # corpus class rank
    images: tuple      # the relabeled function sent to the daemon


@dataclass(frozen=True)
class ServeStream:
    """The store seed set plus the request stream of one ``serve_mix`` run."""

    seeded_ranks: tuple
    requests: tuple


def serve_stream(records, costs, seed: int, count: int,
                 light_cost: int) -> ServeStream:
    """A seeded ``serve_mix`` stream of ``count`` 3-variable requests.

    ``SERVE_SEEDED_PER_REQUEST`` classes per request are seeded into
    the store; the stream's seeded requests are random relabelings of
    them.  Misses are drawn from the unseeded classes whose search cost
    is at most ``light_cost``, so a miss costs the daemon's batching,
    fork and durable write rather than the search.  Repeats are relabelings
    of classes missed earlier in the stream.
    """
    rng = rng_for("serve_mix", seed)
    wirings = list(itertools.permutations(range(3)))
    kinds = {
        kind: round(count * share) for kind, share in SERVE_SHARES.items()
    }
    kinds["seeded"] = count - kinds["miss"] - kinds["repeat"]
    light = [rank for rank, cost in enumerate(costs) if cost <= light_cost]
    if len(light) < kinds["miss"]:
        raise ValueError(
            f"{kinds['miss']} misses need as many classes of cost at most "
            f"{light_cost}; the corpus has {len(light)}"
        )
    miss_ranks = rng.sample(light, kinds["miss"])
    taken = set(miss_ranks)
    others = [rank for rank in range(len(records)) if rank not in taken]
    seeded_ranks = rng.sample(
        others, max(1, int(count * SERVE_SEEDED_PER_REQUEST))
    )
    events = (["seeded"] * kinds["seeded"] + ["miss"] * kinds["miss"]
              + ["repeat"] * kinds["repeat"])
    rng.shuffle(events)
    pending = iter(miss_ranks)
    missed: list[int] = []
    requests = []
    for kind in events:
        if kind == "repeat" and not missed:
            kind = "seeded"
        if kind == "seeded":
            rank = rng.choice(seeded_ranks)
        elif kind == "miss":
            rank = next(pending)
            missed.append(rank)
        else:
            rank = rng.choice(missed)
        images = relabel(records[rank]["images"], rng.choice(wirings))
        requests.append(ServeRequest(kind, rank, tuple(images)))
    return ServeStream(tuple(seeded_ranks), tuple(requests))

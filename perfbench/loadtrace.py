"""Request traces for the lcld_mixed workload.

Everything lcld receives is generated here from the benchmark seed, so a
seed fixes the trace byte for byte. A trace row is
``due_ns<TAB>conn<TAB>request``: the offset from the start of the phase
at which the request is due, the connection it goes out on, and the
protocol line itself.

The mix:
  * classify (about 97%): a problem seed drawn Zipf(ZIPF_S) from a hot
    set of HOT_SET seeds, which the warm-up puts in the cache, or, with
    probability UNIQUE_SHARE, an inline random alphabet-3 table. Random
    tables rarely share a canonical key, so they miss and classify;
    fresh generator seeds would not, as most of them land on a few
    canonical keys;
  * solve (SOLVE_SHARE): one of SOLVERS on SOLVE_FAMILY at SOLVE_N
    nodes with a fresh instance seed. bw_generic solves the protocol's
    default problem (the free table): a sampled table may have no
    solution on the instance, and an uncertified solve counts as failed.

Open-loop phases draw exponential gaps at the offered rate (a Poisson
schedule); burst and warm-up phases have every request due at 0.
"""

import bisect
import json
import random

HOT_SET = 256
ZIPF_S = 1.1
UNIQUE_SHARE = 0.10
# Multisets of 1, 2 and 3 labels over an alphabet of 3: the mask widths
# of an inline alphabet-3, degree-3 table.
TABLE_BITS = (3, 6, 10)
SOLVE_SHARE = 0.03
SOLVERS = ("generic_hier_35", "apoly", "pi35", "rake_compress", "bw_generic",
           "dfree_a")
SOLVE_FAMILY = "random_attach"
SOLVE_N = 4096
CONNS = 4
HOT_BASE = 1000

_ZIPF_CDF = []
_acc = 0.0
for _rank in range(1, HOT_SET + 1):
    _acc += 1.0 / _rank ** ZIPF_S
    _ZIPF_CDF.append(_acc)


def _rng(seed, stream):
    # String seeding hashes with SHA-512, so it does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random("lcld_mixed:%d:%s" % (seed, stream))


def _line(obj):
    return json.dumps(obj, separators=(",", ":"))


def _hot_seed(rng):
    u = rng.random() * _ZIPF_CDF[-1]
    return HOT_BASE + bisect.bisect_left(_ZIPF_CDF, u)


def _solve(rng, rid, solver):
    return _line({"type": "solve", "id": rid, "solver": solver,
                  "family": SOLVE_FAMILY, "n": SOLVE_N,
                  "seed": rng.getrandbits(32)})


def _classify(rng, rid):
    if rng.random() < UNIQUE_SHARE:
        density = rng.uniform(0.35, 0.95)
        allowed = [sum(1 << b for b in range(bits) if rng.random() < density)
                   for bits in TABLE_BITS]
        return _line({"type": "classify", "id": rid,
                      "table": {"alphabet": 3, "max_degree": 3,
                                "allowed": allowed}})
    return _line({"type": "classify", "id": rid,
                  "problem_seed": _hot_seed(rng)})


def warmup(seed):
    """One classify per hot-set problem, all due at once."""
    del seed  # the hot set is the same for every seed
    return [(0, i % CONNS, _line({"type": "classify", "id": i,
                                  "problem_seed": HOT_BASE + i}))
            for i in range(HOT_SET)]


def _request(rng, rid):
    if rng.random() < SOLVE_SHARE:
        return _solve(rng, rid, SOLVERS[rng.randrange(len(SOLVERS))])
    return _classify(rng, rid)


def burst(seed, stream, count):
    """`count` requests of the mix, all due at once. The solves are
    stratified: exactly SOLVE_SHARE of the requests, the same number of
    each solver, at seeded positions. Solves dominate a burst's time, so
    they depend on the seed alone: every stream of one seed carries the
    same solves, and its passes differ only in their classifies (fresh
    inline tables keep missing the cache)."""
    rng = _rng(seed, stream)
    srng = _rng(seed, "burst-solves")
    solves = sorted(srng.sample(range(count), round(count * SOLVE_SHARE)))
    order = {pos: SOLVERS[k % len(SOLVERS)] for k, pos in enumerate(solves)}
    return [(0, i % CONNS, _solve(srng, i, order[i]) if i in order
             else _classify(rng, i)) for i in range(count)]


def open_loop(seed, stream, rate, seconds):
    """The mix on a Poisson schedule at `rate` requests per second."""
    rng = _rng(seed, stream)
    rows = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return rows
        i = len(rows)
        rows.append((int(t * 1e9), i % CONNS, _request(rng, i)))


def render(rows):
    return "".join("%d\t%d\t%s\n" % row for row in rows)


def write(path, rows):
    with open(path, "w") as f:
        f.write(render(rows))

"""Randomized verification of the two redundancy bounds, the neighbor-
similarity diagnostic, and the closed-form cost model.

Bound 1: if N unit vectors all have cosine >= eps with a common anchor, their
average pairwise cosine is at least (N*eps^2 - 1)/(N - 1).

Bound 2: if a node's neighbors share its representation norm and have cosine
>= eps with it, one extra convex aggregation step changes the cross-entropy
loss by at most 2*B*||W_c||_2*sqrt(1-eps).

Trials derive their randomness from (seed, trial index), so results are
independent of execution order. Each trial is drawn on its own generator, in
the order ``sample_cone`` draws; the bounds are then evaluated for a block of
trials at once, by elementwise products and segment sums and one stacked SVD,
so no result depends on the BLAS thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, MetricError
from .gnn import spectral_norm
from .gsl import build_candidates

BOUND_TOL = 1e-9
_LEMMA2_MAX_NEIGHBORS = 8


@dataclass
class LemmaReport:
    """Tally of randomized bound checks.

    ``max_slack`` is the worst (most negative) signed margin in the safe
    direction (NaN if any margin is NaN); any margin that is not finite or
    not at least -BOUND_TOL counts as a violation, so a bound that overflows
    to inf checks nothing and fails.
    """

    trials: int
    violations: int
    max_slack: float
    config: dict = field(default_factory=dict)


def _mean_pair_cosines(vectors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean cosine over the unordered pairs within each run of ``counts[i]``
    consecutive rows (each at least 2), from segment sums of the unit rows."""
    norms = T.row_norms(vectors)
    if not T.nonzero_rows(vectors, norms).all():
        raise MetricError("pairwise similarity undefined for zero rows")
    unit = vectors / norms[:, None]
    starts = np.cumsum(counts) - counts
    # |sum u|^2 = sum |u_i|^2 + 2 * (sum over pairs)
    total = np.add.reduceat(unit, starts, axis=0)
    squares = np.add.reduceat((unit * unit).sum(axis=1), starts)
    return ((total * total).sum(axis=1) - squares) / (counts * (counts - 1))


def avg_pairwise_similarity(vectors) -> float:
    """Mean cosine over all unordered pairs of rows."""
    data = vectors.data if isinstance(vectors, T.Tensor) else np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 2:
        raise MetricError("pairwise similarity needs at least two vectors")
    return float(_mean_pair_cosines(data, np.array([data.shape[0]]))[0])


def lemma1_bound(n_neighbors, eps):
    """(N*eps^2 - 1)/(N - 1), the floor on average pairwise neighbor cosine;
    elementwise over arrays of N and eps."""
    if np.any(np.less(n_neighbors, 2)):
        raise DomainError("the bound needs at least two neighbors")
    return (n_neighbors * eps * eps - 1.0) / (n_neighbors - 1.0)


def _unit_sphere(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = math.sqrt(v @ v)
        if norm > 1e-12:
            return v / norm


def _cone_draws(rng: np.random.Generator, eps: float, n: int, dim: int):
    """The cosines c, uniform in [eps, 1], then the raw directions w of n cone points."""
    return rng.uniform(eps, 1.0, n), rng.standard_normal((n, dim))


def cone_points(anchor: np.ndarray, c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows c*anchor + sqrt(1-c^2)*unit(w ⟂ anchor), or the anchor where |w ⟂ anchor| < 1e-12.

    ``anchor`` holds one unit anchor per row of ``w``; a single 1-D anchor
    serves every row. Only elementwise products and row sums are used, so
    the result does not depend on the BLAS library or its thread count.
    """
    w = w - (w * anchor).sum(axis=1, keepdims=True) * anchor
    norm = T.row_norms(w, keepdims=True)
    flat = norm < 1e-12
    if not flat.any():
        w /= norm
        return c[:, None] * anchor + np.sqrt(np.maximum(0.0, 1.0 - c * c))[:, None] * w
    w /= np.where(flat, 1.0, norm)
    u = c[:, None] * anchor + np.sqrt(np.maximum(0.0, 1.0 - c * c))[:, None] * w
    return np.where(flat, anchor, u)


def sample_cone(rng: np.random.Generator, anchor: np.ndarray, eps: float, n: int) -> np.ndarray:
    """n unit vectors with cosine >= eps to the unit anchor, c uniform in [eps, 1]."""
    return cone_points(anchor, *_cone_draws(rng, eps, n, len(anchor)))


# Each sampling range's domain: a test on (low, high) and its wording.
_COUNT_DOMAIN = (lambda lo, hi: 2 <= lo <= hi, "2 <= low <= high")
_RANGE_DOMAINS = {
    "dim_range": _COUNT_DOMAIN,
    "n_range": _COUNT_DOMAIN,
    "class_range": _COUNT_DOMAIN,
    "eps_range": (lambda lo, hi: 0 <= lo <= hi <= 1, "0 <= low <= high <= 1"),
    "b_range": (lambda lo, hi: 0 < lo <= hi, "0 < low <= high"),
}


def _run_lemma(margins, trials: int, seed: int, **ranges) -> LemmaReport:
    """Check ``trials`` and each sampling range, then tally the signed
    margins that ``margins(trials, **ranges, seed=seed)`` yields block by block
    into a count and a NaN-propagating minimum, as ``LemmaReport`` says.
    The report's config holds the ranges, in order, and the seed."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    for name, (lo, hi) in ranges.items():
        ok, wording = _RANGE_DOMAINS[name]
        if not ok(lo, hi):
            raise ConfigError(f"infeasible {name} [{lo}, {hi}]: need {wording}")
    violations = 0
    worst = np.inf
    for m in margins(trials, **ranges, seed=seed):
        violations += m.size - int(np.count_nonzero(np.isfinite(m) & (m >= -BOUND_TOL)))
        worst = np.minimum(worst, np.minimum.reduce(m))
    config = {**{name: list(r) for name, r in ranges.items()}, "seed": seed}
    return LemmaReport(trials=trials, violations=violations, max_slack=float(worst), config=config)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding step (pcg64.h), through which default_rng(key) starts its
# generator. Constants and their running products stay Python ints, since a
# numpy scalar that overflows warns; the uint32 arrays wrap silently.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Trial keys hashed at once: 256 keep the arrays of a chunk under 20 KB.
_RESEED_CHUNK = 256


def _entropy_words(prefix) -> list[int] | None:
    """The uint32 words SeedSequence splits the non-negative ints of
    ``prefix`` into, least significant first; None for any other entry."""
    words = []
    for v in prefix:
        if not isinstance(v, (int, np.integer)) or v < 0:
            return None
        v = int(v)
        words.append(v & _MASK32)
        while v > _MASK32:
            v >>= 32
            words.append(v & _MASK32)
    return words


def _hash_steps(c: int, mult: int) -> Iterator[tuple[int, int]]:
    """The (xor, multiplier) pair of each successive hashmix: the running
    hash constant before and after its update by ``mult``."""
    while True:
        nxt = c * mult & _MASK32
        yield c, nxt
        c = nxt


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    out ^= out >> 16
    return out


def _pcg64_states(words: list[int], t: np.ndarray) -> Iterator[dict]:
    """For each t of the uint32 array ``t``, the ``bit_generator.state`` in
    which ``default_rng(key)`` starts, where key's entropy words are
    ``words`` followed by t."""
    entropy = [np.full(t.size, w, dtype=np.uint32) for w in words] + [t]
    entropy += [np.zeros(t.size, dtype=np.uint32)] * (_POOL_WORDS - len(entropy))
    a = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i], a) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], a))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], _hashmix(word, a))
    # generate_state(4, np.uint64): 8 words, little-endian pairs.
    b = _hash_steps(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % _POOL_WORDS], b).astype(np.uint64) for i in range(8)]
    seeds = np.array([lo | hi << 32 for lo, hi in zip(out[0::2], out[1::2])]).T.tolist()
    # pcg64_set_seed: the first pair is the initial state, the second the
    # stream; inc = 2*stream + 1, then two LCG steps around adding the state.
    for s_hi, s_lo, i_hi, i_lo in seeds:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        pcg = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        state = {"state": pcg, "inc": inc}
        yield {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


# Keys of one to five entropy words (a 5-word key runs SeedSequence's
# remaining-entropy loop) on which the fast reseed must match default_rng.
_RESEED_CHECK_KEYS = ((0, 0), (7, 1, 255), (2**32 + 5, 1, 3), (2**64 - 1, 2**31), (2**70, 1, 9))


@functools.cache
def _reseed_works() -> bool:
    """Whether ``_pcg64_states``, assigned to a reused PCG64 generator, starts
    it in ``default_rng``'s state on every key of ``_RESEED_CHECK_KEYS``."""
    rng = np.random.Generator(np.random.PCG64())
    for *prefix, t in _RESEED_CHECK_KEYS:
        want = np.random.default_rng([*prefix, t])
        state = next(_pcg64_states(_entropy_words(prefix), np.array([t], np.uint32)))
        try:
            rng.bit_generator.state = state
        except (KeyError, TypeError, ValueError):  # a state format this code does not know
            return False
        if rng.bit_generator.state != want.bit_generator.state:
            return False
        if rng.random(2).tolist() != want.random(2).tolist():
            return False
    return True


def _trial_generators(prefix, trials: int) -> Iterator[np.random.Generator]:
    """For t in range(trials), a generator in the state that
    ``np.random.default_rng([*prefix, t])`` starts in, so every draw is the
    same double.

    One generator is reseeded for each t, which costs a small fraction of
    building one, so each must be drawn from before the next is taken.
    Keys are hashed in chunks of _RESEED_CHUNK. Where ``_reseed_works`` does
    not hold (another numpy), or for a key the hash does not cover, each
    trial gets its own ``default_rng``.
    """
    words = _entropy_words(prefix)
    if words is None or trials > 1 << 32 or not _reseed_works():
        for t in range(trials):
            yield np.random.default_rng([*prefix, t])
        return
    rng = np.random.Generator(np.random.PCG64())
    bitgen = rng.bit_generator
    for start in range(0, trials, _RESEED_CHUNK):
        t = np.arange(start, min(start + _RESEED_CHUNK, trials), dtype=np.uint32)
        for state in _pcg64_states(words, t):
            bitgen.state = state
            yield rng


# Float64 cells in the widest array of one block of lemma trials: 2^13
# cells, 64 KB. A block holds about eight such arrays at its peak. Blocks of
# 2^14 cells ran no faster on verify rounds but raised their peak RSS by
# 1.3 MB; 2^12 cells leave about 5 trials per Lemma-1 block. A trial larger
# than the budget is a block of its own.
_BLOCK_CELLS = 1 << 13


def _blocks(generators, draw, cells) -> Iterator[list]:
    """The draws ``draw(rng)`` for each generator of ``generators``, in
    order, grouped so the ``cells`` of each block's trials sum to at most
    _BLOCK_CELLS."""
    block: list = []
    used = 0
    for rng in generators:
        trial = draw(rng)
        size = cells(trial)
        if block and used + size > _BLOCK_CELLS:
            yield block
            block, used = [], 0
        block.append(trial)
        used += size
    if block:
        yield block


def _stack_rows(arrays, width: int) -> np.ndarray:
    """The rows of the 2-D ``arrays`` stacked in order, zero-padded to ``width`` columns."""
    out = np.zeros((sum(a.shape[0] for a in arrays), width))
    r = 0
    for a in arrays:
        out[r : r + a.shape[0], : a.shape[1]] = a
        r += a.shape[0]
    return out


def _stack_padded(arrays, shape: tuple[int, ...]) -> np.ndarray:
    """A zero array of ``shape`` whose i-th entry holds ``arrays[i]`` in its leading corner."""
    out = np.zeros(shape)
    for o, a in zip(out, arrays):
        o[tuple(slice(0, k) for k in a.shape)] = a
    return out


def _lemma1_margins(trials, dim_range, n_range, eps_range, seed) -> Iterator[np.ndarray]:
    """Signed margins observed - floor of each trial, one array per block."""

    def draw(rng):
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        eps = rng.uniform(eps_range[0], eps_range[1])
        anchor = _unit_sphere(rng, dim)
        return (n, eps, anchor, *_cone_draws(rng, eps, n, dim))

    generators = _trial_generators((seed,), trials)
    for block in _blocks(generators, draw, lambda trial: trial[0] * dim_range[1]):
        n, eps, anchors, c, w = zip(*block)
        n = np.array(n)
        width = max(a.shape[0] for a in anchors)
        u = cone_points(
            np.repeat(_stack_padded(anchors, (len(block), width)), n, axis=0),
            np.concatenate(c),
            _stack_rows(w, width),
        )
        yield _mean_pair_cosines(u, n) - lemma1_bound(n, np.array(eps))


def lemma1_check(
    trials: int,
    dim_range=(2, 32),
    n_range=(2, 50),
    eps_range=(0.0, 0.99),
    seed: int = 0,
) -> LemmaReport:
    """Sample neighbor cones and verify the average-similarity floor."""
    return _run_lemma(
        _lemma1_margins, trials, seed, dim_range=dim_range, n_range=n_range, eps_range=eps_range
    )


def _cross_entropy(z: np.ndarray, w: np.ndarray, classes: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Softmax cross-entropy of each row of logits z[b] @ w[b] over its first
    ``classes[b]`` columns, at ``labels[b]``."""
    logits = (z[:, :, None] * w).sum(axis=1)
    logits[np.arange(logits.shape[1]) >= classes[:, None]] = -np.inf
    m = np.maximum.reduce(logits, axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return lse - logits[np.arange(logits.shape[0]), labels]


def _lemma2_margins(trials, dim_range, class_range, eps_range, b_range, seed) -> Iterator[np.ndarray]:
    """Signed margins ceiling - |loss change| of each trial, one array per block."""

    def draw(rng):
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        classes = int(rng.integers(class_range[0], class_range[1] + 1))
        n = int(rng.integers(1, _LEMMA2_MAX_NEIGHBORS + 1))
        eps = rng.uniform(eps_range[0], eps_range[1])
        b_norm = rng.uniform(b_range[0], b_range[1])
        rho = rng.uniform(0.0, 1.0) * b_norm
        anchor = _unit_sphere(rng, dim)
        c, w = _cone_draws(rng, eps, n, dim)
        weights = rng.uniform(0.0, 1.0, n)
        w_c = rng.standard_normal((dim, classes))
        return n, eps, b_norm, rho, anchor, c, w, weights, w_c, int(rng.integers(classes))

    width = dim_range[1] * max(class_range[1], _LEMMA2_MAX_NEIGHBORS)
    for block in _blocks(_trial_generators((seed, 1), trials), draw, lambda trial: width):
        n, eps, b_norm, rho, anchors, c, w, weights, w_c, labels = zip(*block)
        n, eps, b_norm, rho = np.array(n), np.array(eps), np.array(b_norm), np.array(rho)
        dim = max(a.shape[0] for a in anchors)
        classes = np.array([m.shape[1] for m in w_c])
        starts = np.cumsum(n) - n
        anchors = _stack_padded(anchors, (len(block), dim))
        neighbors = cone_points(np.repeat(anchors, n, axis=0), np.concatenate(c), _stack_rows(w, dim))
        neighbors *= np.repeat(rho, n)[:, None]
        # Aggregation weights sum to one per trial; they are uniform where a
        # trial's draws are all zero.
        weights = np.concatenate(weights)
        total = np.add.reduceat(weights, starts)
        flat = total <= 0
        weights[np.repeat(flat, n)] = 1.0
        total[flat] = n[flat]
        weights /= np.repeat(total, n)
        z_next = np.add.reduceat(weights[:, None] * neighbors, starts, axis=0)
        z_i = rho[:, None] * anchors

        w_c = _stack_padded(w_c, (len(block), dim, int(classes.max())))
        labels = np.array(labels)
        lhs = np.abs(_cross_entropy(z_next, w_c, classes, labels) - _cross_entropy(z_i, w_c, classes, labels))
        rhs = 2.0 * b_norm * spectral_norm(w_c) * np.sqrt(1.0 - eps)
        yield rhs - lhs


def lemma2_check(
    trials: int,
    dim_range=(2, 16),
    class_range=(2, 8),
    eps_range=(0.0, 0.99),
    b_range=(0.1, 5.0),
    seed: int = 0,
) -> LemmaReport:
    """Sample one aggregation step and verify the loss-change ceiling.

    Anchor and neighbors share a common representation norm drawn in
    (0, B]; neighbors sit in the cosine cone around the anchor and the
    aggregation weights are non-negative and sum to one.
    """
    return _run_lemma(
        _lemma2_margins, trials, seed,
        dim_range=dim_range, class_range=class_range, eps_range=eps_range, b_range=b_range,
    )


def redundancy_profile(e, k_values) -> list[tuple[int, float]]:
    """Mean over nodes of the average pairwise cosine among each node's top-k
    most cosine-similar other nodes, for each requested k.

    Zero rows (``tensor.nonzero_rows``) have no cosine and are left out, both
    as nodes and as neighbors. Neighbors are ranked by ``gsl.build_candidates``
    with the cosine metric, so the profile is invariant under row-wise
    positive rescaling, and ties go to the smaller column. Nodes need >= 2
    neighbors to contribute; for k < 2 the entry is NaN.
    """
    data = e.data if isinstance(e, T.Tensor) else np.asarray(e, dtype=np.float64)
    if data.ndim != 2:
        raise ConfigError("embeddings must be 2-D")
    data = data[T.nonzero_rows(data)]
    n = data.shape[0]
    k_values = [int(k) for k in k_values]
    if not k_values or any(k < 1 for k in k_values):
        raise ConfigError(f"k values must be a non-empty list of integers >= 1, got {k_values}")
    top = max(k_values)
    if top >= n:
        raise ConfigError(f"max k must be < {n}, the number of non-zero rows")
    # Each row's max(k) candidates come column-sorted with their cosines;
    # a stable sort by descending cosine keeps ties on the smaller column.
    cand = build_candidates(T.constant(data), top, "cosine")
    cols = cand.sparse.col_indices.reshape(n, top)
    neg = -cand.sparse.values.data.reshape(n, top)
    order = np.take_along_axis(cols, np.argsort(neg, axis=1, kind="stable"), axis=1)

    def mean_over_nodes(k):
        # Node i's k neighbors are the i-th run of k rows.
        rows = data[order[:, :k]].reshape(n * k, -1)
        return float(np.mean(_mean_pair_cosines(rows, np.full(n, k))))

    return [(k, mean_over_nodes(k) if k >= 2 else float("nan")) for k in k_values]


def complexity_estimate(
    n: int, d: int, m: int, r: float, layers: int, b_size: int
) -> float:
    """Extra operation count of the pruning pipeline:
    n*d*(d + b_size + layers*d + 1) + m*(layers*r*d + d + 1).

    Returned unrounded so linearity in each argument is exact.
    """
    if min(n, d, m, layers, b_size) < 0:
        raise ConfigError("all arguments must be non-negative")
    if not (0.0 <= r < 1.0):
        raise ConfigError(f"reduction level must lie in [0, 1), got {r}")
    return float(n * d * (d + b_size + layers * d + 1) + m * (layers * r * d + d + 1))

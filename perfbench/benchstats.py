"""Order statistics, machine pace and span accounting used by the
benchmark report."""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

TAIL_BEYOND = 10

# Median time of one Pace sample on the 2-core x86 virtual machine the
# benchmark was defined on, in a quiet period.
PACE_REF_S = 0.0075


def tail(values, beyond=TAIL_BEYOND):
    """Value at the highest percentile that still has at least `beyond`
    samples above it, as (value, percentile, sample count).

    With n samples sorted ascending that is the (n - beyond)-th smallest;
    below beyond + 1 samples no percentile qualifies and the maximum is
    returned with percentile 100, so the caller can see the count.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond  # 1-based rank; `beyond` samples rank above it
    return xs[k - 1], 100.0 * k / n, n


def union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Self time of every span and the parallel overlap of its children.

    spans: iterable of (id, name, start, end, parent, ...).  Self time is
    the span's duration minus the part of it that child spans cover.
    Overlap is the children's summed duration minus the length they
    cover; it is nonzero only where children ran concurrently.  Over a
    tree, sum(self) - sum(overlap) equals the root's duration.
    """
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    selfs, overlaps = {}, {}
    for s in spans:
        sid, start, end = s[0], s[2], s[3]
        kids = [(max(a, start), min(b, end)) for a, b in children.get(sid, ())]
        kids = [(a, b) for a, b in kids if b > a]
        covered = union_length(kids)
        selfs[sid] = (end - start) - covered
        overlaps[sid] = sum(b - a for a, b in kids) - covered
    return selfs, overlaps


def layer_of(name):
    return name.split(".", 1)[0]


def accounting(spans, layers):
    """Per-layer self time, the job spans' own (untraced) remainder and the
    parallel overlap, summed over every job span.

    Returns (per-layer self seconds, remainder, overlap, job seconds) with
    sum(per-layer) + remainder - overlap == job seconds up to rounding.
    """
    selfs, overlaps = self_times(spans)
    per_layer = dict.fromkeys(layers, 0.0)
    remainder = overlap = job_total = 0.0
    for s in spans:
        sid, name = s[0], s[1]
        overlap += overlaps[sid]
        if name == "job":
            remainder += selfs[sid]
            job_total += s[3] - s[2]
        else:
            per_layer[layer_of(name)] += selfs[sid]
    return per_layer, remainder, overlap, job_total


class Pace:
    """A fixed kernel, independent of graphhardy, timed between jobs.

    It mixes what the package's jobs spend their time on: interpreted
    loops around small sparse products, and dense masked products.  The
    virtual machine the benchmark was defined on changes speed by up to 2x
    over minutes, and job times follow; the kernel's median time over a
    run measures that speed, so times scaled by `factor()` compare across
    runs made at different moments.
    """

    def __init__(self, n=32, seed=0):
        rng = np.random.default_rng(seed)
        grid = np.arange(n * n).reshape(n, n)
        rows = np.tile(grid.ravel(), 4)
        cols = np.concatenate([np.roll(grid, shift, axis).ravel()
                               for axis in (0, 1) for shift in (1, -1)])
        self.W = sp.csr_matrix((np.full(rows.size, 0.25), (rows, cols)),
                               shape=(n * n, n * n))
        self.D = rng.integers(0, n + 1, size=(n * n, n * n)).astype(float)
        self.w = rng.random(n * n)
        self.samples = []
        self.last = -math.inf

    def sample(self):
        t0 = time.perf_counter()
        u = self.w
        for _ in range(150):
            u = self.W @ u
            u = u - 0.1 * u
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        for r in (3, 9):
            (self.D < r) @ self.w
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def sample_every(self, seconds):
        if time.perf_counter() - self.last >= seconds:
            self.sample()

    def factor(self):
        """Scale from this run's seconds to seconds at the reference pace."""
        return PACE_REF_S / statistics.median(self.samples)

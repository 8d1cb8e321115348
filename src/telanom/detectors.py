"""From-scratch unsupervised detectors: isolation forest, local outlier
factor and density clustering, and the model files of all four models.

All three share the conventions of the rest of the package: rows are float
matrices of shape (n, d), anomaly scores are "higher means more anomalous",
predicted labels are 0 for anomaly and 1 for normal, and models round-trip
through JSON. Neighbour searches are exact; nothing here approximates.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .errors import DataError, _array, _number, load_json, whole_file
from .autoencoder import Autoencoder, TrainConfig
from .child import run_all, usable_cpus
from .thresholding import (_Detector, _as_matrix, _check_width,
                           contamination_threshold, contamination_top)

EULER_GAMMA = 0.5772156649
_HARMONIC_EXACT_LIMIT = 10 ** 6

# growing table of exact harmonic numbers; _harmonic_table[n] = H(n)
_harmonic_table = [0.0]


def harmonic(n):
    """H(n); exact partial sum for n <= 1e6, ln(n) + gamma beyond."""
    if n <= 0:
        return 0.0
    if n > _HARMONIC_EXACT_LIMIT:
        return math.log(n) + EULER_GAMMA
    while len(_harmonic_table) <= n:
        k = len(_harmonic_table)
        _harmonic_table.append(_harmonic_table[-1] + 1.0 / k)
    return _harmonic_table[n]


def expected_path_length(n):
    """Average unsuccessful-search path length c(n) of a binary search tree
    over n points; the isolation-forest normaliser."""
    if n < 2:
        return 0.0
    return 2.0 * harmonic(n - 1) - 2.0 * (n - 1) / n


def scores_from_mean_depths(mean_depths, sample_size):
    """Anomaly scores 2^(-E[h]/c(sample_size)); always in (0, 1]."""
    c = expected_path_length(sample_size)
    if c <= 0.0:
        return np.ones_like(np.asarray(mean_depths, dtype=np.float64))
    return np.power(2.0, -np.asarray(mean_depths, dtype=np.float64) / c)


# Floats in each of the kernel's two distance buffers (512 KB): both stay in
# a core's L2 cache up to 8,192 reference rows. Past that, blocks keep at
# least _MIN_BLOCK_ROWS rows: BLAS multiplies a single row by a separate
# matrix-vector routine, and one-row blocks made LOF and DBSCAN fits on
# 40,000 rows about twice as slow.
_BLOCK_FLOATS = 2 ** 16
_MIN_BLOCK_ROWS = 8

# BLAS multiplies a block by a row-major copy of b^T faster than by the view
# b.T (study's 6,502-row fit pass: 0.048 -> 0.030 s). For blocks of 2 to
# _ROW_MAJOR_ROWS rows and at most _ROW_MAJOR_WIDTH columns the bits are the
# same either way. Every sweep against more than 5,461 rows of the
# pipeline's 11 features has such blocks. The rest keep b.T, whose bits a
# copy would change: one row goes through gemv, from 12 rows up a product of
# under about 10^6 multiply-adds takes a small-matrix kernel for one layout
# only, and from 16 columns up the products differ. The whole of b times
# itself keeps b.T too: numpy hands a @ a.T to syrk and the copy's product to
# gemm, whose bits differ on the Haswell and generic (Prescott) kernels. The
# rest was checked on SkylakeX (OpenBLAS 0.3.31, 400k shapes of widths 1-32),
# and tests/test_detectors.py's kernel oracle on all three.
_ROW_MAJOR_ROWS = 11
_ROW_MAJOR_WIDTH = 15


def _block_rows(b):
    """Rows per block of ``_sq_dist_blocks(a, b)``."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_FLOATS // max(1, len(b)))


def _sq_dist_blocks(a, b, start=0, stop=None):
    """Squared Euclidean distances from the rows of ``a`` to every row of
    ``b``, streamed as blocks ``(lo, hi, d2)``, ``d2`` of shape
    (hi - lo, len(b)) and computed as ``(|a|^2 + |b|^2) - 2 a.b`` clipped at
    zero. ``d2`` is one buffer rewritten for every block: reduce each block
    before asking for the next. Only the rows from ``start``, a block
    boundary, to ``stop`` are swept; their blocks are the whole sweep's."""
    rows = _block_rows(b)
    stop = len(a) if stop is None else stop
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    bt = b.T
    if (stop - start > 1 and rows <= _ROW_MAJOR_ROWS
            and b.shape[1] <= _ROW_MAJOR_WIDTH):
        bt = np.ascontiguousarray(bt)
    sums = np.empty((min(rows, stop - start), len(b)))
    prods = np.empty_like(sums)
    for lo in range(start, stop, rows):
        hi = min(stop, lo + rows)
        d2, ab = sums[:hi - lo], prods[:hi - lo]
        np.add(aa[lo:hi, None], bb, out=d2)
        view = hi - lo == 1 or (a is b and hi - lo == len(b))
        np.matmul(a[lo:hi], b.T if view else bt, out=ab)
        ab *= 2.0
        d2 -= ab
        np.maximum(d2, 0.0, out=d2)
        yield lo, hi, d2


# A sweep of less work than this runs in one process, work being counted in
# query x reference pairs of a distance sweep. On a shared 2-vCPU Xeon VM a
# child process's round trip took about 2 ms returning nothing and 5 ms
# returning 1 MB, in a process holding 64 MB, and the cheapest sweep (_nearest) about
# 2.5 ns per pair. Halving a sweep of p pairs saves about 1.25 p ns, which
# pays for an empty round trip from about 2M pairs; the floor leaves a
# factor of two for the results' transfer. The forest's heap walk takes
# about 25 ns per row and tree on one CPU (39,000 rows x 100 trees of 11
# features), 10 pairs' worth. One row and tree counts as _WALK_PAIRS = 16
# pairs, so a walk splits from 250k rows x trees, about 6 ms of walking:
# the 1.6-fold overcount stays inside the floor's factor of two.
_SPLIT_PAIRS = 4 * 10 ** 6
_WALK_PAIRS = 16


def _split_sweep(sweep, n, rows, work):
    """The arrays ``sweep(0, n)`` returns, each in row order, made as
    ``sweep(start, stop)`` over contiguous ranges of the ``n`` rows and
    joined range after range. There is one range per usable CPU, and
    ``run_all`` runs them across the CPUs. Ranges start on multiples of
    ``rows``, the sweep's block height, so every block is computed as in
    one sweep of all rows and the arrays are bit-identical. A sweep of
    less than ``_SPLIT_PAIRS`` ``work`` is one range."""
    blocks = -(-n // rows)
    parts = 1
    if work >= _SPLIT_PAIRS:
        parts = min(blocks, usable_cpus())
    cuts = [min(n, rows * (blocks * i // parts)) for i in range(parts + 1)]
    results = run_all([functools.partial(sweep, lo, hi)
                       for lo, hi in zip(cuts, cuts[1:])])
    return [np.concatenate(arrays) for arrays in zip(*results)]


# Scales a squared k-distance past every double whose square root rounds to
# the k-distance: at most three adjacent doubles share a root, so those lie
# within 2^-50 relative above it. Entries under the scaled bound are candidates, and the exact test
# sqrt(d2) <= kdist picks the neighbours among them.
_ROOT_SLACK = 1.0 + 2.0 ** -44


class NeighbourPass:
    """Everything LOF and DBSCAN read off the distances from the rows of
    ``q`` to the rows of ``x``, for every k in ``ks`` and every radius in
    ``radii``, from one sweep of ``_sq_dist_blocks(q, x)``.

    The sweep runs on the first read, so its time falls in whichever fit or
    scoring call needs it first, and is split across the CPUs by
    ``_split_sweep``. Per block it counts the rows within each
    radius, then takes every k-th smallest squared distance with one
    ``np.partition``; square roots are taken only of the selected entries.
    With ``self_excluded`` the rows of ``q`` are the rows of ``x`` and row i
    is not its own k-neighbour (it still counts within every radius).
    """

    def __init__(self, q, x, ks=(), radii=(), self_excluded=False):
        self.q = q
        self.x = x
        self.ks = sorted({int(k) for k in ks})
        self.radii = list(radii)
        self.self_excluded = self_excluded
        self._counts = None
        self._hoods = None

    def counts(self, radius):
        """How many rows of ``x`` lie within ``radius`` of each row of
        ``q``."""
        if radius not in self.radii:
            raise ValueError("the pass does not cover radius %r" % radius)
        self._sweep()
        return self._counts[self.radii.index(radius)]

    def neighbourhood(self, k):
        """k-distances of the rows of ``q`` and their tie-inclusive
        k-neighbourhoods, as (kdist, ids, dists, sizes): the neighbours of
        row i are the i-th run of ``sizes[i]`` entries of ``ids`` and
        ``dists``, in ascending id order."""
        if k not in self.ks:
            raise ValueError("the pass does not cover k=%r" % k)
        self._sweep()
        return self._hoods[k]

    def _sweep(self):
        if self._counts is not None:
            return
        arrays = _split_sweep(self._sweep_rows, len(self.q),
                              _block_rows(self.x), len(self.q) * len(self.x))
        n = len(self.radii)
        self._counts = arrays[:n]
        self._hoods = {k: tuple(arrays[n + 4 * j:n + 4 * j + 4])
                       for j, k in enumerate(self.ks)}

    def _sweep_rows(self, start, stop):
        """For the rows of ``q`` from ``start`` to ``stop``: the counts
        within each radius, then each k's (kdist, ids, dists, sizes)."""
        q, x, ks = self.q, self.x, self.ks
        radii2 = [r * r for r in self.radii]
        counts = np.empty((len(radii2), stop - start), dtype=np.int64)
        kdist = np.empty((stop - start, len(ks)))
        parts = {k: ([], [], []) for k in ks}
        for lo, hi, d2 in _sq_dist_blocks(q, x, start, stop):
            for j, r2 in enumerate(radii2):
                counts[j, lo - start:hi - start] = np.count_nonzero(
                    d2 <= r2, axis=1)
            if not ks:
                continue
            if self.self_excluded:
                r = np.arange(hi - lo)
                d2[r, lo + r] = np.inf
            # the largest k's smallest entries, sorted, hold every k-th one
            smallest = np.partition(d2, ks[-1] - 1, axis=1)[:, :ks[-1]]
            smallest.sort(axis=1)
            kd2 = smallest[:, [k - 1 for k in ks]]
            kd = kdist[lo - start:hi - start]
            np.sqrt(kd2, out=kd)
            # flatnonzero scans the block ten times faster than nonzero
            r, c = np.divmod(
                np.flatnonzero(d2 <= kd2[:, -1:] * _ROOT_SLACK), d2.shape[1])
            d = np.sqrt(d2[r, c])
            for j, k in enumerate(ks):
                near = d <= kd[r, j]
                ids, dists, sizes = parts[k]
                ids.append(c[near])
                dists.append(d[near])
                sizes.append(np.bincount(r[near], minlength=hi - lo))
        return list(counts) + [
            a for j, k in enumerate(ks) for a in (kdist[:, j],) + tuple(
                np.concatenate(p) if p else np.empty(0, np.intp)
                for p in parts[k])]


def _run_means(values, sizes):
    """Mean of each consecutive run of ``values``, run i being ``sizes[i]``
    long. Runs of one length are averaged as the rows of one gathered
    matrix, so each mean is bit-identical to ``values[run].mean()``."""
    starts = np.cumsum(sizes) - sizes
    out = np.empty(len(sizes))
    for size in np.unique(sizes):
        runs = np.flatnonzero(sizes == size)
        out[runs] = values[starts[runs, None] + np.arange(size)].mean(axis=1)
    return out


def _nearest(a, b):
    """For each row of ``a``: the index of its nearest row of ``b`` and the
    squared distance to it."""
    def nearest_rows(start, stop):
        idx = np.empty(stop - start, dtype=np.int64)
        d2_min = np.empty(stop - start)
        for lo, hi, d2 in _sq_dist_blocks(a, b, start, stop):
            i = idx[lo - start:hi - start]
            i[...] = np.argmin(d2, axis=1)
            d2_min[lo - start:hi - start] = d2[np.arange(hi - lo), i]
        return idx, d2_min
    return tuple(_split_sweep(nearest_rows, len(a), _block_rows(b),
                              len(a) * len(b)))


# ---------------------------------------------------------------------------
# isolation forest

_TREE_KEYS = ("feature", "threshold", "left", "right", "size")

# Rows per block of the packed forest walk. Its buffers take about 33 bytes
# per tree and row, 845 KB for 100 trees, so they stay in a core's L2 cache
# whatever the number of rows scored.
_FOREST_BLOCK_ROWS = 256

# The contamination threshold's pruned walk (_PackedForest._least_totals):
# every row is walked _BOUND_LEVEL levels before any is dropped, and
# 2r + _CANDIDATE_EXTRA rows are walked in full for the bound. A row is
# dropped when its least total exceeds the bound by the factor
# _PRUNE_SLACK. A sum of t positive terms rounds by under t * 2**-53 of
# itself (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
# 4.2), and the division and power of the score by an ulp each: 1e-9
# covers any forest under 10**6 trees many times over.
_BOUND_LEVEL = 3           # at most 8: a row's slot of a tree fits a byte
_CANDIDATE_EXTRA = 32
_PRUNE_SLACK = 1.0 + 1e-9


class _PackedForest:
    """The trees of an isolation forest packed level by level into a heap,
    and walked for every tree at once.

    Slot p of level L of tree t is entry ``t * 2**L + p`` of that level's
    arrays; its right child is slot 2p of level L + 1 and its left child
    slot 2p + 1, so a row at entry i of level L moves on to entry
    ``2*i + (x[feature[L][i]] < threshold[L][i])`` of level L + 1: the left
    child only when ``x[f] < v`` holds, so NaN goes right. A leaf above the
    last level fills every slot below it with feature 0 and threshold +inf,
    so a row that reaches it stays in its slots for the remaining levels,
    and every slot of the last level holds the ``value`` of its leaf: the
    leaf's depth + c(size). There are ``max_depth`` levels of splits, and
    one when every tree is a single leaf. Packing checks the trees: lists
    of unequal length, a child that is not after its parent in its own
    tree, a node with two parents, a negative size, a split whose
    children's sizes do not sum to its own, a tree deeper than
    ``height_limit`` and, when ``sample_size`` is given, a root of another
    size are DataErrors. All are checked before the heap, 2**L slots per
    tree at level L, is made.
    """

    def __init__(self, trees, height_limit, sample_size=None):
        if not isinstance(trees, list) or not trees:
            raise DataError("trees must be a non-empty list")
        try:
            lengths = np.array([[len(tree[k]) for k in _TREE_KEYS]
                                for tree in trees], dtype=np.intp)
            feature, threshold, left, right, size = (
                np.array([v for tree in trees for v in tree[k]], dtype=dtype)
                for k, dtype in zip(_TREE_KEYS, (np.intp, np.float64, np.intp,
                                                 np.intp, np.int64)))
        except (TypeError, ValueError, OverflowError):
            raise DataError("trees must be objects of number lists") from None
        n = lengths[:, 0]
        bad = np.flatnonzero((lengths != n[:, None]).any(axis=1) | (n < 1))
        if len(bad):
            raise DataError("tree %d: %s are empty or differ in length"
                            % (bad[0], ", ".join(_TREE_KEYS)))
        roots = np.cumsum(n) - n
        node = np.arange(len(feature))
        own_root = np.repeat(roots, n)
        own_end = own_root + np.repeat(n, n)
        split = feature >= 0
        left += own_root
        right += own_root
        for child in (left, right):
            if (split & ((child <= node) | (child >= own_end))).any():
                raise DataError("a tree node's child is out of range or not "
                                "after its parent")
        if np.bincount(np.concatenate([left[split], right[split]]),
                       minlength=len(node)).max(initial=0) > 1:
            raise DataError("a tree node is the child of two nodes")
        if (size < 0).any():
            raise DataError("negative node size")
        self.n_trees = len(trees)
        self.width = int(feature.max(initial=-1)) + 1

        depth = np.zeros(len(node), dtype=np.int64)
        frontier = roots[split[roots]]
        self.max_depth = 0
        while len(frontier):
            if self.max_depth == height_limit:
                tree = np.searchsorted(roots, frontier.min(), "right") - 1
                raise DataError("tree %d is deeper than its height limit %d"
                                % (tree, height_limit))
            self.max_depth += 1
            kids = np.concatenate([left[frontier], right[frontier]])
            depth[kids] = self.max_depth
            frontier = kids[split[kids]]
        splits = np.flatnonzero(split)
        uneven = splits[size[left[splits]] + size[right[splits]]
                        != size[splits]]
        if len(uneven):
            raise DataError("tree %d: a split's children's sizes do not sum "
                            "to its own"
                            % (np.searchsorted(roots, uneven[0], "right") - 1))
        if sample_size is not None and (size[roots] != sample_size).any():
            tree = np.flatnonzero(size[roots] != sample_size)[0]
            raise DataError("tree %d's root size %d is not sample_size %d"
                            % (tree, size[roots[tree]], sample_size))
        sizes, size_of = np.unique(size, return_inverse=True)
        value = depth + np.array(
            [expected_path_length(int(s)) for s in sizes])[size_of]

        leaf = ~split
        feature[leaf] = 0
        threshold[leaf] = np.inf
        # a leaf's children are itself: it fills every slot below it
        children = np.column_stack([np.where(leaf, node, right),
                                    np.where(leaf, node, left)])
        self.feature, self.threshold = [], []
        at = roots
        for _ in range(max(1, self.max_depth)):
            self.feature.append(feature[at])
            self.threshold.append(threshold[at])
            at = children[at].ravel()
        self.value = value[at]

    @property
    def depth(self):
        """The level of the leaf values: the levels of splits walked."""
        return len(self.feature)

    def _bounds(self):
        """[(least, greatest) leaf value in the slots below each entry of
        level L] for every level L, the last level's being ``value``. An
        entry's slots are its two children's, so each level is the
        elementwise min and max of the next one's even and odd entries.
        Made for each pruned walk: kept, they would add 16 bytes per slot
        to the model."""
        least = greatest = self.value
        bounds = [(least, greatest)]
        for _ in range(self.depth):
            least = np.minimum(least[0::2], least[1::2])
            greatest = np.maximum(greatest[0::2], greatest[1::2])
            bounds.append((least, greatest))
        return bounds[::-1]

    def _check_rows(self, x):
        if x.shape[1] < self.width:
            raise DataError("the forest splits on feature %d; rows have %d"
                            % (self.width - 1, x.shape[1]))

    def mean_depths(self, x, sizes):
        """For each t of ``sizes``: each row's path length averaged over the
        first t trees, the mean depths of a forest of those t trees. The
        leaf values are summed tree by tree in tree order, and the sum is
        read after tree t, so the means are bit-identical to walking the t
        trees one at a time, and one walk serves every t. The rows are
        split across the CPUs by ``_split_sweep``."""
        self._check_rows(x)
        n = len(x)
        totals = _split_sweep(functools.partial(self._walk, x, sizes), n,
                              _FOREST_BLOCK_ROWS,
                              n * self.n_trees * _WALK_PAIRS)
        return [total / t for total, t in zip(totals, sizes)]

    def shallowest_depths(self, x, r):
        """The mean depths over all the trees of the rows of ``x`` that can
        be among its ``r`` shallowest, each bit-identical to its
        ``mean_depths``, in no particular order. Every row left out is
        deeper than the r-th shallowest by far more than rounding can
        close, so its score ranks below the r-th highest.

        The rows are split across the CPUs by ``_split_sweep``, and each
        range keeps what can be among its own r shallowest
        (``_least_totals``): the r-th shallowest of a range is no
        shallower than that of all the rows. Where 2r + 32 candidates are
        over an eighth of the rows, pruning cannot pay, and every row's
        mean depth is returned."""
        self._check_rows(x)
        n = len(x)
        if 8 * (2 * r + _CANDIDATE_EXTRA) > n:
            return self.mean_depths(x, [self.n_trees])[0]
        totals, = _split_sweep(functools.partial(self._least_totals, x, r),
                               n, _FOREST_BLOCK_ROWS,
                               n * self.n_trees * _WALK_PAIRS)
        return totals / self.n_trees

    def _walk(self, x, sizes, start, stop):
        """[the leaf values of the rows of ``x`` from ``start`` to ``stop``,
        summed over the first t trees] for each t of ``sizes``."""
        reads = np.asarray(sizes, dtype=np.intp) - 1
        totals = np.empty((len(reads), stop - start))
        for lo, hi, node, v in self._blocks(x, start, stop, self.depth):
            np.take(self.value, node, out=v, mode="clip")
            np.cumsum(v, axis=0, out=v)
            totals[:, lo - start:hi - start] = v[reads]
        return list(totals)

    def _buffers(self, rows):
        """Flat buffers for blocks of up to ``rows`` rows in every tree: one
        of entries, then ``_descend``'s scratch. A block's arrays are views
        of them (``_shaped``): made for every block, arrays of this size
        cost a page fault per 4 KB."""
        size = self.n_trees * max(1, min(rows, _FOREST_BLOCK_ROWS))
        return [np.empty(size, dtype) for dtype in (
            np.intp, np.intp, np.float64, np.float64, bool)]

    def _shaped(self, buffers, rows):
        return [b[:self.n_trees * rows].reshape(self.n_trees, rows)
                for b in buffers]

    def _blocks(self, x, start, stop, level):
        """For each block of the rows of ``x`` from ``start`` to ``stop``:
        (lo, hi, node, v), ``node`` the entries of ``level`` that rows lo
        to hi reach in each tree (trees x rows) and ``v`` a float buffer of
        its shape. Both are rewritten for the next block."""
        buffers = self._buffers(stop - start)
        for lo in range(start, stop, _FOREST_BLOCK_ROWS):
            hi = min(stop, lo + _FOREST_BLOCK_ROWS)
            node, *scratch = self._shaped(buffers, hi - lo)
            self._descend(x[lo:hi], node, 0, level, scratch)
            yield lo, hi, node, scratch[2]

    def _descend(self, block, node, first, last, scratch):
        """Moves the rows of ``block`` in each tree from the entries
        ``node`` of level ``first`` (trees x rows, rewritten in place) to
        the entries of level ``last`` they reach. From level 0 ``node`` is
        not read. ``scratch``: (index, float, float, bool) buffers of
        ``node``'s shape."""
        at, xv, v, go_left = scratch
        offsets = np.arange(node.shape[1]) * block.shape[1]
        block = block.ravel()
        # mode="clip": every index is in range by construction, and the
        # default mode="raise" copies through a buffer when given out=
        if first == 0:
            # level 0's slots are the trees, read by broadcasting
            np.add(self.feature[0][:, None], offsets, out=at)
            np.take(block, at, out=xv, mode="clip")
            np.less(xv, self.threshold[0][:, None], out=go_left)
            np.add(2 * np.arange(self.n_trees)[:, None], go_left, out=node)
            first = 1
        for feature, threshold in zip(self.feature[first:last],
                                      self.threshold[first:last]):
            np.take(feature, node, out=at, mode="clip")
            at += offsets
            np.take(block, at, out=xv, mode="clip")
            np.take(threshold, node, out=v, mode="clip")
            np.less(xv, v, out=go_left)
            node += node
            node += go_left

    def _least_totals(self, x, r, start, stop):
        """[The totals over all the trees of the rows of ``x`` from
        ``start`` to ``stop`` that can be among the r least of those rows'
        totals], each bit-identical to ``_walk``'s.

        Every row is walked ``_BOUND_LEVEL`` levels, where its total lies
        between the sums of its entries' least and greatest leaf values
        (``_bounds``). The 2r + 32 rows of least upper bound are walked in
        full, and the r-th least of their totals, U, is at least the r-th
        least of all. Of the other rows, one whose lower bound exceeds
        U * ``_PRUNE_SLACK`` is dropped, and the rest go on a level at a
        time, pruned again at each level, and are summed at the last. No
        row is walked twice."""
        k = min(_BOUND_LEVEL, self.depth)
        bounds = self._bounds()
        least, greatest = bounds[k]
        m = stop - start
        # the slot every row reaches at level k in each tree, its entry
        # less the tree's first, kept for the rows that go on
        slots = np.empty((self.n_trees, m), np.uint8)
        firsts = np.arange(self.n_trees)[:, None] << k
        low, high = np.empty(m), np.empty(m)
        for lo, hi, node, v in self._blocks(x, start, stop, k):
            np.subtract(node, firsts, out=slots[:, lo - start:hi - start],
                        casting="unsafe")
            np.take(least, node, out=v, mode="clip")
            v.sum(axis=0, out=low[lo - start:hi - start])
            np.take(greatest, node, out=v, mode="clip")
            v.sum(axis=0, out=high[lo - start:hi - start])
        n_first = min(m, 2 * r + _CANDIDATE_EXTRA)
        first = np.argpartition(high, n_first - 1)[:n_first]
        lows = [least for least, _ in bounds]
        totals = self._finish(x[start:stop], slots, first, k, lows, np.inf)
        if n_first == m:
            return [totals]
        bound = np.partition(totals, r - 1)[r - 1] * _PRUNE_SLACK
        rest = low <= bound
        rest[first] = False
        return [np.concatenate([totals, self._finish(
            x[start:stop], slots, np.flatnonzero(rest), k, lows, bound)])]

    def _finish(self, x, slots, rows, level, lows, bound):
        """The totals of the ``rows`` of ``x`` from their slots ``slots[:,
        rows]`` of ``level`` in each tree, summed as ``_walk`` sums them,
        in blocks of rows; a row whose lower bound, from ``lows`` (each
        level's least leaf values), exceeds ``bound`` at a level on the way
        is dropped."""
        firsts = np.arange(self.n_trees)[:, None] << level
        buffers = self._buffers(len(rows))
        # a block's kept entries are copied to the spare entry buffer
        spare = np.empty_like(buffers[0])
        totals = []
        for i in range(0, len(rows), _FOREST_BLOCK_ROWS):
            some = rows[i:i + _FOREST_BLOCK_ROWS]
            block, at = x[some], level
            node, *scratch = self._shaped(buffers, len(some))
            np.add(slots[:, some], firsts, out=node)
            for deeper in range(level + 1, self.depth):
                self._descend(block, node, at, deeper, scratch)
                at = deeper
                v = scratch[2]
                np.take(lows[deeper], node, out=v, mode="clip")
                kept = v.sum(axis=0) <= bound
                if not kept.all():
                    block = block[kept]
                    buffers[0], spare = spare, buffers[0]
                    kept_node, *scratch = self._shaped(buffers, len(block))
                    np.compress(kept, node, axis=1, out=kept_node)
                    node = kept_node
            self._descend(block, node, at, self.depth, scratch)
            v = scratch[2]
            np.take(self.value, node, out=v, mode="clip")
            totals.append(np.cumsum(v, axis=0, out=v)[-1].copy())
        return np.concatenate(totals) if totals else np.empty(0)


_LOW_HALF = 0xFFFFFFFF


class _Draws:
    """``with _Draws(rng) as draws``: ``draws.integer(m)`` and
    ``draws.uniform(lo, hi)`` return what ``rng.integers(m)`` and
    ``rng.uniform(lo, hi)`` would, at a fraction of the cost of a numpy
    call, and leaving the block puts ``rng`` where those calls would have.
    ``rng`` is a PCG64 Generator; nothing else may draw from it inside the
    block.

    Both follow numpy's own code over the generator's raw 64-bit outputs,
    fetched a block at a time. ``integers(m)``, for m up to 2**32, is
    Lemire's bounded draw (ACM TOMACS, 2019) on 32-bit halves: PCG64 hands
    out a raw output's low half and keeps the high half for the next 32-bit
    draw (the state's ``has_uint32``/``uinteger``); a product whose low
    word falls under 2**32 mod m is drawn again, and m = 1 draws nothing.
    ``uniform`` is lo + (hi - lo) * u, u the top 53 bits of one raw output
    times 2**-53, and an infinite hi - lo raises as numpy does.
    """

    def __init__(self, rng):
        self.bitgen = rng.bit_generator
        self.saved = self.bitgen.state
        self.has_half = self.saved["has_uint32"]
        self.half = self.saved["uinteger"]
        self.raw = []
        self.used = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # back to the saved state, then on by the outputs used; advance()
        # clears the kept half, so it is set again
        bitgen = self.bitgen
        bitgen.state = self.saved
        bitgen.advance(self.used)
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = self.has_half, self.half
        bitgen.state = state

    def _next(self):
        if self.used == len(self.raw):
            self.raw += self.bitgen.random_raw(256).tolist()
        self.used += 1
        return self.raw[self.used - 1]

    def integer(self, m):
        if m == 1:
            return 0
        if not 1 <= m <= 1 << 32:
            raise ValueError("m must be in [1, 2**32], got %r" % (m,))
        threshold = (1 << 32) % m
        while True:
            if self.has_half:
                self.has_half = 0
                low = self.half
            else:
                raw = self._next()
                low = raw & _LOW_HALF
                self.has_half, self.half = 1, raw >> 32
            product = low * m
            if product & _LOW_HALF >= threshold:
                return product >> 32

    def uniform(self, lo, hi):
        span = hi - lo
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        return lo + span * ((self._next() >> 11) * 2.0 ** -53)


class IsolationForest(_Detector):
    """Isolation forest with random axis-aligned splits.

    Trees are grown on subsamples of ``subsample`` points with height capped
    at ceil(log2(subsample size)); a leaf reached at depth h containing s
    training points contributes h + c(s) to the path length. The decision
    threshold is the (1 - contamination) nearest-rank quantile of the
    training scores and a row is anomalous when its score is strictly above
    the threshold. A tree's random draws come from ``_Draws``, the
    generator's own draws replayed. Scoring walks the trees as one
    ``_PackedForest``, packed whenever ``trees`` is set: once per fit or
    load.

    ``fit`` grows the trees, and the threshold is taken from the training
    rows' scores on its first read; the model keeps the rows till then.
    ``threshold_of`` walks in full only the rows that can score among the
    top contamination share, and gives the threshold of all the scores
    bit for bit.
    Fits of one seed and subsample draw the same trees in the same order,
    so the first t trees of a fit are a t-tree fit's trees, and
    ``prefix_scores`` scores every such forest from one walk: a grid reads
    all its tree counts off one fit.
    """

    kind = "iforest"

    def __init__(self, n_estimators=100, contamination=0.001, subsample=256,
                 seed=0):
        if n_estimators < 1:
            raise DataError("n_estimators must be >= 1")
        if not 0.0 < contamination < 1.0:
            raise DataError("contamination must be in (0, 1)")
        if subsample < 1:
            raise DataError("subsample must be >= 1")
        self.n_estimators = int(n_estimators)
        self.contamination = float(contamination)
        self.subsample = int(subsample)
        self.seed = int(seed)
        self.trees = None
        self.sample_size = None
        self.threshold = None

    @property
    def n_parameters(self):
        # scalar configuration constants: estimators, contamination,
        # subsample, seed, fitted threshold
        return 5

    @property
    def threshold(self):
        if self._fit_x is not None:
            x, self._fit_x = self._fit_x, None
            self._threshold = self.threshold_of(x)
        return self._threshold

    @threshold.setter
    def threshold(self, threshold):
        self._fit_x = None
        self._threshold = threshold

    @property
    def trees(self):
        """The trees as parallel node lists, the model file's form."""
        return self._trees

    @trees.setter
    def trees(self, trees):
        # scoring walks the packed form, which packing checks
        self._forest = None if trees is None else _PackedForest(
            trees, math.ceil(math.log2(self.sample_size)))
        self._trees = trees

    def _build_tree(self, x, rng, height_limit):
        # nodes as parallel lists; feature -1 marks a leaf. Each split draws
        # rng.integers(len(usable)), then rng.uniform(lo[f], hi[f]), in
        # preorder; _Draws replays those calls. Each child gets its own rows
        # (compress gathers them about twice as fast as a boolean index)
        feature, threshold, left, right, size = [], [], [], [], []
        minimum, maximum = np.minimum.reduce, np.maximum.reduce

        def grow(sub, depth):
            node = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            size.append(len(sub))
            if depth >= height_limit or len(sub) <= 1:
                return node
            lo = minimum(sub)
            hi = maximum(sub)
            usable = (hi > lo).nonzero()[0]
            if len(usable) == 0:
                return node
            f = int(usable[draws.integer(len(usable))])
            v = draws.uniform(lo.item(f), hi.item(f))
            go_left = sub[:, f] < v
            feature[node] = f
            threshold[node] = v
            left[node] = grow(sub.compress(go_left, axis=0), depth + 1)
            right[node] = grow(sub.compress(~go_left, axis=0), depth + 1)
            return node

        with _Draws(rng) as draws:
            grow(x, 0)
        return {"feature": feature, "threshold": threshold,
                "left": left, "right": right, "size": size}

    def fit(self, rows):
        x = _as_matrix(rows)
        n = len(x)
        if n < 2:
            raise DataError("need at least 2 rows to fit")
        rng = np.random.default_rng(self.seed)
        self.sample_size = min(self.subsample, n)
        height_limit = math.ceil(math.log2(self.sample_size))
        trees = []
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=self.sample_size, replace=False)
            trees.append(self._build_tree(x[idx], rng, height_limit))
        self.trees = trees
        self._fit_x = x
        return self

    def threshold_of(self, rows):
        """``contamination_threshold(self.scores(rows), contamination)``,
        bit for bit: the r-th highest score, read off the scores of the
        rows that can be among the r highest (``shallowest_depths``)."""
        if self._forest is None:
            raise DataError("model is not fitted")
        x = _as_matrix(rows)
        r = contamination_top(len(x), self.contamination)
        scores = np.sort(scores_from_mean_depths(
            self._forest.shallowest_depths(x, r), self.sample_size))
        return float(scores[-r])

    def mean_depths(self, rows):
        return self._prefix_depths(rows)[0]

    def scores(self, rows):
        return scores_from_mean_depths(self.mean_depths(rows), self.sample_size)

    def prefix_scores(self, rows, sizes):
        """For each t of ``sizes``: the scores of the forest of the first t
        trees, which are a t-tree fit's scores (its threshold being the
        contamination threshold of its scores of the training rows). One
        walk of the rows serves every t."""
        return [scores_from_mean_depths(depths, self.sample_size)
                for depths in self._prefix_depths(rows, sizes)]

    def _prefix_depths(self, rows, sizes=None):
        # the mean depths over the first t trees for each t of sizes, or
        # over all the trees
        if self._forest is None:
            raise DataError("model is not fitted")
        return self._forest.mean_depths(_as_matrix(rows),
                                        sizes or [len(self.trees)])

    def to_json(self):
        return {
            "kind": self.kind,
            "n_estimators": self.n_estimators,
            "contamination": self.contamination,
            "subsample": self.subsample,
            "seed": self.seed,
            "sample_size": self.sample_size,
            "threshold": self.threshold,
            "trees": self.trees,
        }

    @classmethod
    def from_json(cls, obj):
        model = cls(_number(obj, "n_estimators", integer=True),
                    _number(obj, "contamination"),
                    _number(obj, "subsample", integer=True),
                    _number(obj, "seed", integer=True))
        model.sample_size = _number(obj, "sample_size", integer=True)
        if not 1 <= model.sample_size <= model.subsample:
            raise DataError("sample_size must be in [1, subsample %d], got %r"
                            % (model.subsample, model.sample_size))
        model.threshold = _number(obj, "threshold")
        # as the trees setter, with every root's size checked too
        model._forest = _PackedForest(
            obj["trees"], math.ceil(math.log2(model.sample_size)),
            model.sample_size)
        model._trees = obj["trees"]
        return model


# ---------------------------------------------------------------------------
# local outlier factor


class LocalOutlierFactor(_Detector):
    """Local outlier factor in novelty mode.

    Fitting computes k-distances, tie-inclusive k-neighbourhoods, local
    reachability densities and LOF values of the training rows straight from
    the definitions. New rows are scored against the training set. Local
    reachability density is capped at ``lrd_cap`` so exact duplicates cannot
    divide by zero. The decision threshold is the (1 - contamination)
    nearest-rank quantile of the training LOF values.
    """

    kind = "lof"

    def __init__(self, k=5, contamination=0.01, lrd_cap=1e12):
        if k < 1:
            raise DataError("k must be >= 1")
        if not 0.0 < contamination < 1.0:
            raise DataError("contamination must be in (0, 1)")
        if not lrd_cap > 0:
            raise DataError("lrd_cap must be positive")
        self.k = int(k)
        self.contamination = float(contamination)
        self.lrd_cap = float(lrd_cap)
        self.x = None
        self.kdist = None
        self.lrd = None
        self.train_lof = None
        self.threshold = None

    @property
    def n_parameters(self):
        # scalar configuration constants: k, contamination, cap, threshold
        return 4

    def _lrd(self, ids, dists, sizes):
        """Capped local reachability densities of the rows whose
        neighbourhoods are given; a zero mean reach distance gives the
        cap."""
        reach = np.maximum(dists, self.kdist[ids])
        with np.errstate(divide="ignore"):
            return np.minimum(self.lrd_cap, 1.0 / _run_means(reach, sizes))

    def fit(self, rows, neighbours=None):
        """``neighbours``: a NeighbourPass of the rows against themselves,
        self excluded, that covers this k; one is made when not given."""
        x = _as_matrix(rows)
        n = len(x)
        if n <= self.k:
            raise DataError("need more than k=%d rows to fit" % self.k)
        self.x = x
        if neighbours is None:
            neighbours = NeighbourPass(x, x, ks=[self.k], self_excluded=True)
        self.kdist, ids, _, sizes = neighbours.neighbourhood(self.k)
        # training reach distances come from coordinate differences
        own = np.repeat(np.arange(n), sizes)
        dists = np.sqrt(((x[ids] - x[own]) ** 2).sum(axis=1))
        self.lrd = self._lrd(ids, dists, sizes)
        self.train_lof = _run_means(self.lrd[ids], sizes) / self.lrd
        self.threshold = contamination_threshold(self.train_lof,
                                                 self.contamination)
        return self

    def scores(self, rows, neighbours=None):
        """LOF of new rows against the training set (novelty scoring).
        ``neighbours``: a NeighbourPass of the rows against the training
        rows that covers this k; one is made when not given."""
        if self.x is None:
            raise DataError("model is not fitted")
        q = _check_width(_as_matrix(rows), self.x.shape[1])
        if neighbours is None:
            neighbours = NeighbourPass(q, self.x, ks=[self.k])
        _, ids, dists, sizes = neighbours.neighbourhood(self.k)
        return _run_means(self.lrd[ids], sizes) / self._lrd(ids, dists, sizes)

    def to_json(self):
        return {
            "kind": self.kind,
            "k": self.k,
            "contamination": self.contamination,
            "lrd_cap": self.lrd_cap,
            "threshold": self.threshold,
            "x": self.x.tolist(),
            "kdist": self.kdist.tolist(),
            "lrd": self.lrd.tolist(),
            "train_lof": self.train_lof.tolist(),
        }

    @classmethod
    def from_json(cls, obj):
        model = cls(_number(obj, "k", integer=True),
                    _number(obj, "contamination"), _number(obj, "lrd_cap"))
        model.threshold = _number(obj, "threshold")
        model.x = _array(obj, "x", 2)
        for key in ("kdist", "lrd", "train_lof"):
            value = _array(obj, key, 1)
            if (value < 0).any():
                raise DataError("%s must be non-negative, got %r"
                                % (key, float(value[value < 0][0])))
            setattr(model, key, value)
        # scoring indexes kdist and lrd by training row
        n = len(model.x)
        if any(len(a) != n for a in (model.kdist, model.lrd, model.train_lof)):
            raise DataError("x, kdist, lrd and train_lof differ in length")
        if n <= model.k:
            raise DataError("%d training rows, need more than k=%d"
                            % (n, model.k))
        return model


# ---------------------------------------------------------------------------
# density clustering


class Dbscan(_Detector):
    """Exact density clustering with Euclidean distances.

    A training row is a core point when at least ``min_pts`` rows (itself
    included) lie within ``eps``. Clusters are the connected components of
    core points under eps-adjacency; a non-core row joins the cluster of its
    nearest core point within eps (a deterministic, order-independent border
    rule), otherwise it is noise. Training noise is anomalous. A new row is
    predicted normal iff it lies within eps of any core point.

    ``fit`` finds the core points, which are all that scoring reads. The
    clusters (``core_labels``, ``n_clusters`` and the training rows'
    ``labels_``) are made by ``cluster``, on their first read; the model
    keeps its fit rows till then. A loaded model reads ``core_labels`` and
    ``n_clusters`` from its file and has no ``labels_``.
    """

    kind = "dbscan"

    NOISE = -1

    def __init__(self, eps=0.5, min_pts=10):
        if eps <= 0:
            raise DataError("eps must be positive")
        if min_pts < 1:
            raise DataError("min_pts must be >= 1")
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.core_points = None
        self._unclustered = None  # (fit rows, core mask) till clustered
        self._core_labels = None
        self._labels = None       # training cluster ids, NOISE for noise
        self._n_clusters = None
        # a row further than eps from every core point is anomalous
        self.threshold = self.eps

    @property
    def n_parameters(self):
        # scalar configuration constants: eps, min_pts
        return 2

    @property
    def core_labels(self):
        return self.cluster()._core_labels

    @property
    def labels_(self):
        return self.cluster()._labels

    @property
    def n_clusters(self):
        return self.cluster()._n_clusters

    def fit(self, rows, neighbours=None):
        """``neighbours``: a NeighbourPass of the rows against themselves
        that covers this eps; one is made when not given."""
        x = _as_matrix(rows)
        if neighbours is None:
            neighbours = NeighbourPass(x, x, radii=[self.eps])
        core_mask = neighbours.counts(self.eps) >= self.min_pts
        self.core_points = x[np.flatnonzero(core_mask)]
        self._unclustered = (x, core_mask)
        self._core_labels = self._labels = self._n_clusters = None
        return self

    def cluster(self):
        """Cluster the fit rows, once, and let them go; returns the
        model."""
        if self._unclustered is None:
            return self
        x, core_mask = self._unclustered
        eps2 = self.eps * self.eps
        core_x = self.core_points
        comp = np.full(len(core_x), -1)
        n_comp = 0
        for seed in range(len(core_x)):
            if comp[seed] >= 0:
                continue
            frontier = np.array([seed])
            comp[seed] = n_comp
            while len(frontier):
                remaining = np.flatnonzero(comp < 0)
                reached = np.zeros(len(remaining), dtype=bool)
                for _, _, d2 in _sq_dist_blocks(core_x[frontier],
                                                core_x[remaining]):
                    reached |= (d2 <= eps2).any(axis=0)
                frontier = remaining[reached]
                comp[frontier] = n_comp
            n_comp += 1

        labels = np.full(len(x), self.NOISE)
        labels[core_mask] = comp
        non_core = np.flatnonzero(~core_mask)
        if len(core_x) and len(non_core):
            nearest, d2 = _nearest(x[non_core], core_x)
            within = d2 <= eps2
            labels[non_core[within]] = comp[nearest[within]]

        self._core_labels = comp
        self._labels = labels
        self._n_clusters = n_comp
        self._unclustered = None
        return self

    def scores(self, rows):
        """Distance to the nearest core point (inf when no cores exist);
        higher means more anomalous."""
        if self.core_points is None:
            raise DataError("model is not fitted")
        q = _as_matrix(rows)
        if len(self.core_points) == 0:
            return np.full(len(q), np.inf)
        _check_width(q, self.core_points.shape[1])
        return np.sqrt(_nearest(q, self.core_points)[1])

    def to_json(self):
        return {
            "kind": self.kind,
            "eps": self.eps,
            "min_pts": self.min_pts,
            "n_clusters": self.n_clusters,
            "core_points": ([] if self.core_points is None
                            else self.core_points.tolist()),
            "core_labels": ([] if self.core_labels is None
                            else self.core_labels.tolist()),
        }

    @classmethod
    def from_json(cls, obj):
        model = cls(_number(obj, "eps"), _number(obj, "min_pts", integer=True))
        # a model without core points is saved with an empty list
        if obj["core_points"] == []:
            model.core_points = np.empty((0, 1))
        else:
            model.core_points = _array(obj, "core_points", 2)
        model._core_labels = _array(obj, "core_labels", 1, dtype=np.int64)
        if len(model.core_labels) != len(model.core_points):
            raise DataError("core_points and core_labels differ in length")
        model._n_clusters = _number(obj, "n_clusters", integer=True)
        if model._n_clusters < 0:
            raise DataError("n_clusters must be >= 0")
        outside = ((model._core_labels < 0)
                   | (model._core_labels >= model._n_clusters))
        if outside.any():
            raise DataError("core_labels must lie in [0, n_clusters=%d), "
                            "got %d" % (model._n_clusters,
                                        model._core_labels[outside][0]))
        return model


MODEL_KINDS = {cls.kind: cls for cls in (Autoencoder, IsolationForest,
                                         LocalOutlierFactor, Dbscan)}

# Each model's grid parameters, True for those that take an integer. The
# autoencoder's units and bottleneck shape the model, the rest configure
# its training.
MODEL_PARAMS = {
    "autoencoder": {"units": True, "bottleneck": True,
                    "learning_rate": False, "batch_size": True,
                    "epochs": True},
    "iforest": {"n_estimators": True, "contamination": False,
                "subsample": True},
    "lof": {"k": True, "contamination": False},
    "dbscan": {"eps": False, "min_pts": True},
}


def build_model(kind, params, width, seed):
    """The unfitted model ``kind`` for rows of ``width`` features, with the
    grid parameters ``params``; a parameter they leave out takes its
    class's default (RunConfig's default too). Returns (model, the
    TrainConfig that trains it) for the autoencoder and (model, None) for
    the others. An unknown model or parameter and a value of the wrong
    type are DataErrors that name it."""
    if kind not in MODEL_PARAMS:
        raise DataError("unknown model kind %r" % (kind,))
    integer = MODEL_PARAMS[kind]
    unknown = sorted(set(params) - set(integer))
    if unknown:
        raise DataError("%s has no parameter %r; its parameters are %s"
                        % (kind, unknown[0], ", ".join(integer)))
    p = {key: _number(params, key, integer=integer[key]) for key in params}
    if kind == "autoencoder":
        shape = {key: p.pop(key) for key in ("units", "bottleneck")
                 if key in p}
        return (Autoencoder(width, seed=seed, **shape),
                TrainConfig(seed=seed, **p))
    if kind == "iforest":
        p["seed"] = seed
    return MODEL_KINDS[kind](**p), None


def save_model(model, path):
    """Compact JSON of ``model.to_json()``: the writer of every model file
    and of scaler.json."""
    # json.dumps takes the C encoder; json.dump streams through the Python
    # one and writes the same bytes about three times slower
    with whole_file(path) as f:
        f.write(json.dumps(model.to_json()))
        f.write("\n")


def _from_json(obj):
    kind = obj.get("kind")
    if kind not in MODEL_KINDS:
        raise DataError("unknown model kind %r" % (kind,))
    return MODEL_KINDS[kind].from_json(obj)


def load_model(path):
    """The model of any kind that ``save_model`` wrote to ``path``, checked
    by its ``from_json``."""
    return load_json(path, _from_json)

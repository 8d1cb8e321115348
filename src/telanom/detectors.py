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

from .errors import DataError, _array, _number, load_json
from .autoencoder import Autoencoder, TrainConfig
from .child import run_all, usable_cpus
from .thresholding import (_Detector, _as_matrix, _check_width,
                           contamination_threshold)

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
# same either way, a set's one block times itself (syrk) included. Every
# sweep against more than 5,461 rows of the pipeline's 11 features has such
# blocks. The rest keep b.T, whose bits a copy would change: one row goes
# through gemv, from 12 rows up a product of under about 10^6 multiply-adds
# takes a small-matrix kernel for one layout only, and from 16 columns up
# the products differ. (OpenBLAS 0.3.31, Haswell and SkylakeX kernels,
# checked on 400k shapes of widths 1-32.)
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
        np.matmul(a[lo:hi], b.T if hi - lo == 1 else bt, out=ab)
        ab *= 2.0
        d2 -= ab
        np.maximum(d2, 0.0, out=d2)
        yield lo, hi, d2


# A sweep of fewer query x reference pairs than this runs in one process.
# On a shared 2-vCPU Xeon VM an _in_child round trip took about 2 ms
# returning nothing and 5 ms returning 1 MB, in a process holding 64 MB, and
# the cheapest sweep (_nearest) about 2.5 ns per pair. Halving a sweep of p
# pairs saves about 1.25 p ns, which pays for an empty round trip from about
# 2M pairs; the floor leaves a factor of two for the results' transfer.
_SPLIT_PAIRS = 4 * 10 ** 6


def _split_sweep(sweep, a, b):
    """The arrays ``sweep(0, len(a))`` returns, each in the row order of
    ``a``, made as ``sweep(start, stop)`` over contiguous ranges of the rows
    and joined range after range. There is one range per usable CPU, and
    ``run_all`` runs them across the CPUs. Ranges start on block boundaries
    of ``_sq_dist_blocks(a, b)``, so every block is computed as in one
    sweep of all rows and the arrays are bit-identical. A sweep of fewer
    than ``_SPLIT_PAIRS`` pairs is one range."""
    rows = _block_rows(b)
    blocks = -(-len(a) // rows)
    parts = 1
    if len(a) * len(b) >= _SPLIT_PAIRS:
        parts = min(blocks, usable_cpus())
    cuts = [min(len(a), rows * (blocks * i // parts))
            for i in range(parts + 1)]
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
        arrays = _split_sweep(self._sweep_rows, self.q, self.x)
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
    return tuple(_split_sweep(nearest_rows, a, b))


# ---------------------------------------------------------------------------
# isolation forest

_TREE_KEYS = ("feature", "threshold", "left", "right", "size")

# Rows per block of the packed forest walk. Its buffers take about 33 bytes
# per tree and row, 845 KB for 100 trees, so they stay in a core's L2 cache
# whatever the number of rows scored.
_FOREST_BLOCK_ROWS = 256


class _PackedForest:
    """The trees of an isolation forest packed into flat arrays over all
    their nodes, and walked for every tree at once.

    Node i of tree t is node ``roots[t] + i``. A row at node j moves on to
    ``children[2*j + 1 - (x[feature[j]] < threshold[j])]``: the left child
    only when ``x[f] < v`` holds, so NaN goes right. A leaf is both its own
    children and has threshold +inf, so a row that reaches one stays there
    for the remaining levels; its ``value`` is its depth + c(size). Packing
    checks the trees: lists of unequal length, a child that is not after its
    parent in its own tree, a node with two parents and a negative size are
    DataErrors.
    """

    def __init__(self, trees):
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
        self.roots = np.cumsum(n) - n
        node = np.arange(len(feature))
        own_root = np.repeat(self.roots, n)
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
        self.width = int(feature.max(initial=-1)) + 1

        depth = np.zeros(len(node), dtype=np.int64)
        frontier = self.roots[split[self.roots]]
        self.max_depth = 0
        while len(frontier):
            self.max_depth += 1
            kids = np.concatenate([left[frontier], right[frontier]])
            depth[kids] = self.max_depth
            frontier = kids[split[kids]]
        sizes, size_of = np.unique(size, return_inverse=True)
        self.value = depth + np.array(
            [expected_path_length(int(s)) for s in sizes])[size_of]

        leaf = ~split
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.where(leaf, np.inf, threshold)
        self.children = np.column_stack([np.where(leaf, node, left),
                                         np.where(leaf, node, right)]).ravel()

    def mean_depths(self, x):
        """Each row's path length averaged over the trees. The leaf values
        are summed tree by tree in tree order, so the means are
        bit-identical to walking the trees one at a time."""
        n, width = x.shape
        if width < self.width:
            raise DataError("the forest splits on feature %d; rows have %d"
                            % (self.width - 1, width))
        n_trees = len(self.roots)
        rows = max(1, min(n, _FOREST_BLOCK_ROWS))
        buffers = (np.empty(n_trees * rows, np.intp),
                   np.empty(n_trees * rows, np.intp),
                   np.empty(n_trees * rows), np.empty(n_trees * rows),
                   np.empty(n_trees * rows, bool))
        total = np.empty(n)
        # mode="clip": every index is in range by construction, and the
        # default mode="raise" copies through a buffer when given out=
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            node, at, xv, v, go_left = (
                b[:n_trees * (hi - lo)].reshape(n_trees, hi - lo)
                for b in buffers)
            block = x[lo:hi].ravel()
            offsets = np.arange(hi - lo) * width
            node[...] = self.roots[:, None]
            for _ in range(self.max_depth):
                np.take(self.feature, node, out=at, mode="clip")
                at += offsets
                np.take(block, at, out=xv, mode="clip")
                np.take(self.threshold, node, out=v, mode="clip")
                np.less(xv, v, out=go_left)
                node *= 2
                node += 1
                node -= go_left
                np.take(self.children, node, out=node, mode="clip")
            np.take(self.value, node, out=v, mode="clip")
            np.cumsum(v, axis=0, out=v)
            total[lo:hi] = v[-1]
        return total / n_trees


class IsolationForest(_Detector):
    """Isolation forest with random axis-aligned splits.

    Trees are grown on subsamples of ``subsample`` points with height capped
    at ceil(log2(subsample size)); a leaf reached at depth h containing s
    training points contributes h + c(s) to the path length. The decision
    threshold is the (1 - contamination) nearest-rank quantile of the
    training scores and a row is anomalous when its score is strictly above
    the threshold. Scoring walks the trees as one ``_PackedForest``, packed
    whenever ``trees`` is set: once per fit or load.
    """

    kind = "iforest"

    def __init__(self, n_estimators=100, contamination=0.001, subsample=256,
                 seed=0):
        if n_estimators < 1:
            raise DataError("n_estimators must be >= 1")
        if not 0.0 < contamination < 1.0:
            raise DataError("contamination must be in (0, 1)")
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
    def trees(self):
        """The trees as parallel node lists, the model file's form."""
        return self._trees

    @trees.setter
    def trees(self, trees):
        # scoring walks the packed form, which packing checks
        self._forest = None if trees is None else _PackedForest(trees)
        self._trees = trees

    def _build_tree(self, x, rng, height_limit):
        # nodes as parallel lists; feature -1 marks a leaf
        feature, threshold, left, right, size = [], [], [], [], []

        def grow(idx, depth):
            node = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            size.append(len(idx))
            if depth >= height_limit or len(idx) <= 1:
                return node
            sub = x[idx]
            lo = sub.min(axis=0)
            hi = sub.max(axis=0)
            usable = np.flatnonzero(hi > lo)
            if len(usable) == 0:
                return node
            f = int(usable[rng.integers(len(usable))])
            v = float(rng.uniform(lo[f], hi[f]))
            go_left = sub[:, f] < v
            feature[node] = f
            threshold[node] = v
            left[node] = grow(idx[go_left], depth + 1)
            right[node] = grow(idx[~go_left], depth + 1)
            return node

        grow(np.arange(len(x)), 0)
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
        self.threshold = contamination_threshold(self.scores(x),
                                                 self.contamination)
        return self

    def mean_depths(self, rows):
        if self._forest is None:
            raise DataError("model is not fitted")
        return self._forest.mean_depths(_as_matrix(rows))

    def scores(self, rows):
        return scores_from_mean_depths(self.mean_depths(rows), self.sample_size)

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
        if model.sample_size < 1:
            raise DataError("sample_size must be >= 1, got %r"
                            % (model.sample_size,))
        model.threshold = _number(obj, "threshold")
        model.trees = obj["trees"]
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
        model.kdist = _array(obj, "kdist", 1)
        model.lrd = _array(obj, "lrd", 1)
        model.train_lof = _array(obj, "train_lof", 1)
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
        self.core_labels = None
        self.labels_ = None       # training cluster ids, NOISE for noise
        self.n_clusters = None
        # a row further than eps from every core point is anomalous
        self.threshold = self.eps

    @property
    def n_parameters(self):
        # scalar configuration constants: eps, min_pts
        return 2

    def fit(self, rows, neighbours=None):
        """``neighbours``: a NeighbourPass of the rows against themselves
        that covers this eps; one is made when not given."""
        x = _as_matrix(rows)
        n = len(x)
        eps2 = self.eps * self.eps
        if neighbours is None:
            neighbours = NeighbourPass(x, x, radii=[self.eps])
        core_mask = neighbours.counts(self.eps) >= self.min_pts

        core_idx = np.flatnonzero(core_mask)
        core_x = x[core_idx]
        comp = np.full(len(core_idx), -1)
        n_comp = 0
        for seed in range(len(core_idx)):
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

        labels = np.full(n, self.NOISE)
        labels[core_idx] = comp
        non_core = np.flatnonzero(~core_mask)
        if len(core_idx) and len(non_core):
            nearest, d2 = _nearest(x[non_core], core_x)
            within = d2 <= eps2
            labels[non_core[within]] = comp[nearest[within]]

        self.core_points = core_x
        self.core_labels = comp
        self.labels_ = labels
        self.n_clusters = n_comp
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
        model.core_labels = _array(obj, "core_labels", 1, dtype=np.int64)
        if len(model.core_labels) != len(model.core_points):
            raise DataError("core_points and core_labels differ in length")
        model.n_clusters = _number(obj, "n_clusters", integer=True)
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
    with open(path, "w") as f:
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

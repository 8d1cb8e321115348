"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the textbook definition, not
from the production code, so the two can disagree; the exceptions are the
row-at-a-time front end, the scalar code the columnar one replaced (and
the csv.reader tokeniser the byte tokeniser replaced), and at the end the
allocating autoencoder training loop and the rank loop that buffered and
array code replaced, the per-model confidence-interval repeats
the all-models-per-repeat ones replaced, the two table helpers only tests
use, the per-model LOF neighbourhood sweep the shared neighbour pass
replaced, the scalar generator and csv.writer writers that the batched
generator and the columnar CSV writer replaced, and the isolation-tree
builder that calls the generator once per draw, which the replayed draws
replaced, and DBSCAN's clustering as its fit made it, before the clusters
were made on first read. scipy/mpmath are test
dependencies only and must never leak into src/.
"""

import csv
import dataclasses
import math
from datetime import date
from itertools import islice

import mpmath
import numpy as np
from scipy.spatial.distance import cdist

from telanom.detectors import _nearest, _sq_dist_blocks, expected_path_length
from telanom.errors import TrainingError
from telanom.features import (CONTINUOUS_DIMS, FEATURE_NAMES, STEPWISE_DIMS,
                              FeatureTable, haversine_km)
from telanom.ingest import (_BLOCK_ROWS, DETECTION_COLUMNS, DROP_REASONS,
                            UTC_OFFSET_S, DetectionRecord, Detections,
                            ParseReport, _check_header, _clock_seconds,
                            _Codebook, _day_number, _decode,
                            format_timestamp, local_day, parse_timestamp)
from telanom.metrics import SUMMARY_COLUMNS, reshuffle_ci
from telanom.pipeline import run_pipeline
from telanom.synthgen import GroundTruth, _adjacent_step, make_station_map
from telanom.thresholding import METRIC_COLUMNS, contamination_threshold


def haversine_law_of_cosines(lat1, lon1, lat2, lon2, radius_km=6371.0):
    """Great-circle distance via the spherical law of cosines.

    Evaluated at 50 significant digits so rounding in the reference is
    negligible next to the 1e-9 tolerance used by the tests.
    """
    with mpmath.workdps(50):
        p1, l1, p2, l2 = (mpmath.radians(v) for v in (lat1, lon1, lat2, lon2))
        c = (mpmath.sin(p1) * mpmath.sin(p2)
             + mpmath.cos(p1) * mpmath.cos(p2) * mpmath.cos(l2 - l1))
        c = max(-1, min(1, c))
        return float(radius_km * mpmath.acos(c))


def brute_force_lof(train, queries, k, lrd_cap=1e12):
    """LOF by direct definition, one point at a time.

    Neighbourhood = every point with distance <= k-distance (ties kept).
    reach-dist_k(a, b) = max(kdist(b), d(a, b)); lrd is the inverse mean
    reach distance with the duplicate-point cap applied. queries=None asks
    for the training rows' own LOF values (self excluded).
    """
    train = np.asarray(train, dtype=float)
    n = len(train)
    d_tt = cdist(train, train)
    np.fill_diagonal(d_tt, np.inf)

    kdist = np.array([np.sort(d_tt[i])[k - 1] for i in range(n)])
    hoods = [np.flatnonzero(d_tt[i] <= kdist[i]) for i in range(n)]

    def lrd_of(dists, hood):
        reach = np.maximum(kdist[hood], dists[hood])
        mean = reach.mean()
        if mean == 0.0:
            return lrd_cap
        return min(lrd_cap, 1.0 / mean)

    lrd = np.array([lrd_of(d_tt[i], hoods[i]) for i in range(n)])

    if queries is None:
        return np.array([lrd[hoods[i]].mean() / lrd[i] for i in range(n)])

    queries = np.asarray(queries, dtype=float)
    d_qt = cdist(queries, train)
    out = np.empty(len(queries))
    for i in range(len(queries)):
        kd = np.sort(d_qt[i])[k - 1]
        hood = np.flatnonzero(d_qt[i] <= kd)
        lrd_q = lrd_of(d_qt[i], hood)
        out[i] = lrd[hood].mean() / lrd_q
    return out


def reference_dbscan(x, eps, min_pts):
    """Textbook DBSCAN with explicit adjacency lists and a queue.

    Border points go to the nearest core within eps (same deterministic rule
    as the implementation under test); unreachable points are -1.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    d = cdist(x, x)
    neighbours = [np.flatnonzero(d[i] <= eps) for i in range(n)]  # incl self
    core = np.array([len(nb) >= min_pts for nb in neighbours])

    labels = np.full(n, -1)
    cluster = 0
    for start in range(n):
        if not core[start] or labels[start] != -1:
            continue
        queue = [start]
        labels[start] = cluster
        while queue:
            p = queue.pop()
            for q in neighbours[p]:
                if core[q] and labels[q] == -1:
                    labels[q] = cluster
                    queue.append(q)
        cluster += 1

    core_idx = np.flatnonzero(core)
    for i in range(n):
        if core[i] or len(core_idx) == 0:
            continue
        dists = d[i, core_idx]
        j = int(np.argmin(dists))
        if dists[j] <= eps:
            labels[i] = labels[core_idx[j]]
    return labels


def eager_dbscan(x, eps, min_pts):
    """(core_labels, labels_, n_clusters) as Dbscan(eps, min_pts).fit(x)
    made them when it clustered at once: the core mask from one count
    sweep, components by frontier sweeps over the core points in index
    order, and each border row's nearest core within eps."""
    x = np.asarray(x, dtype=np.float64)
    eps2 = eps * eps
    counts = np.zeros(len(x), dtype=np.int64)
    for lo, hi, d2 in _sq_dist_blocks(x, x):
        counts[lo:hi] = np.count_nonzero(d2 <= eps2, axis=1)
    core_idx = np.flatnonzero(counts >= min_pts)
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
    labels = np.full(len(x), -1)
    labels[core_idx] = comp
    non_core = np.flatnonzero(counts < min_pts)
    if len(core_idx) and len(non_core):
        nearest, d2 = _nearest(x[non_core], core_x)
        within = d2 <= eps2
        labels[non_core[within]] = comp[nearest[within]]
    return comp, labels, n_comp


def isolation_mean_depths(trees, x):
    """Mean isolation-forest path length of each row of ``x``, walking every
    tree node by node for one row at a time.

    A row goes left only when x[feature] < threshold (so NaN goes right);
    a leaf at depth h holding s points gives h + c(s). Path lengths are
    summed tree by tree in tree order, then divided by the tree count.
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros(len(x))
    for tree in trees:
        for i, row in enumerate(x):
            node, depth = 0, 0
            while tree["feature"][node] >= 0:
                go_left = row[tree["feature"][node]] < tree["threshold"][node]
                node = tree["left" if go_left else "right"][node]
                depth += 1
            total[i] += depth + expected_path_length(tree["size"][node])
    return total / len(trees)


def _rng_isolation_tree(x, rng, height_limit):
    """One isolation tree as parallel node lists (feature -1 marks a leaf),
    grown in preorder with one rng.integers and one rng.uniform call per
    split."""
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


def rng_isolation_trees(x, n_estimators, subsample, seed):
    """The trees IsolationForest(n_estimators, subsample=subsample,
    seed=seed).fit(x) grows, and its generator's state once they are
    grown, drawing each tree's subsample and then its splits from the
    generator itself."""
    rng = np.random.default_rng(seed)
    n = len(x)
    sample_size = min(subsample, n)
    height_limit = math.ceil(math.log2(sample_size))
    trees = []
    for _ in range(n_estimators):
        idx = rng.choice(n, size=sample_size, replace=False)
        trees.append(_rng_isolation_tree(x[idx], rng, height_limit))
    return trees, rng.bit_generator.state


def run_threshold(model, fit_x):
    """The threshold run gives ``model``, fitted on ``fit_x``: the
    contamination rule over the scores of every fit row for the forest
    (which run takes off its candidates alone) and over ``train_lof`` for
    LOF; DBSCAN's own eps."""
    if model.kind == "iforest":
        return contamination_threshold(model.scores(fit_x),
                                       model.contamination)
    if model.kind == "lof":
        return contamination_threshold(model.train_lof, model.contamination)
    return model.threshold


def same_partition(a, b):
    """True when two label vectors describe the same partition.

    Noise (-1) must match exactly; cluster ids may be permuted.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    if not np.array_equal(a == -1, b == -1):
        return False
    mapping = {}
    seen = set()
    for x, y in zip(a, b):
        if x == -1:
            continue
        if x in mapping:
            if mapping[x] != y:
                return False
        else:
            if y in seen:
                return False
            mapping[x] = y
            seen.add(y)
    return True


def pair_count_auc(scores, labels):
    """AUC by counting concordant pairs, anomaly (label 0) is positive."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 0]
    neg = scores[labels == 1]
    if len(pos) == 0 or len(neg) == 0:
        return None
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def recount_metrics(predicted, actual):
    """Confusion counts and derived ratios by a plain python loop."""
    ta = fa = tn = fn = 0
    for p, t in zip(predicted, actual):
        if t == 0 and p == 0:
            ta += 1
        elif t == 1 and p == 0:
            fa += 1
        elif t == 1 and p == 1:
            tn += 1
        else:
            fn += 1

    def ratio(num, den):
        return num / den if den else None

    precision = ratio(ta, ta + fa)
    recall = ratio(ta, ta + fn)
    f1 = None
    if precision is not None and recall is not None and precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    return {
        "counts": (ta, fa, tn, fn),
        "accuracy": ratio(ta + tn, ta + fa + tn + fn),
        "precision": precision,
        "recall": recall,
        "specificity": ratio(tn, tn + fa),
        "f1_score": f1,
    }


def finite_difference_gradients(model, x, eps=1e-5):
    """Central-difference loss gradients for every parameter array.

    Returns {param_name: gradient array} matching model.backward's keys.
    """
    grads = {}
    for name, w in model.params.items():
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            up = model.loss(x)
            w[idx] = orig - eps
            down = model.loss(x)
            w[idx] = orig
            g[idx] = (up - down) / (2.0 * eps)
            it.iternext()
        grads[name] = g
    return grads


def haversine_direct(lat1, lon1, lat2, lon2, radius_km=6371.0):
    """Plain float64 haversine, an extra sanity reference."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = (math.sin((p2 - p1) / 2.0) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2.0) ** 2)
    return 2.0 * radius_km * math.asin(min(1.0, math.sqrt(a)))


# -- the row-at-a-time front end ----------------------------------------------
#
# The scalar ingest/feature/label/resample code that the columnar front end
# replaced, kept as its reference: the columnar code must reproduce it
# bit for bit. Inputs are DetectionRecord lists.


def row_parse_csv(path, station_map):
    """parse_csv as csv.reader rows, _BLOCK_ROWS at a time, every column's
    strings numbered by a codebook and decoded once per distinct string:
    the tokeniser that the byte tokeniser replaced. A file csv.reader
    cannot read raises its csv.Error."""
    report = ParseReport()
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        _check_header(header, DETECTION_COLUMNS, path)
        where = {name: i for i, name in enumerate(header)}  # last one wins
        columns = [where[c] for c in DETECTION_COLUMNS]
        width = max(columns) + 1
        books = [_Codebook() for _ in columns]
        blocks = [[] for _ in columns]
        for block in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
            rows = [r for r in block if len(r) >= width]
            n_rows = sum(map(bool, block))  # blank lines are not rows
            report.n_rows += n_rows
            if n_rows > len(rows):
                report.drop("missing_field", n_rows - len(rows))
            if not rows:
                continue
            fields = list(zip(*rows))
            for book, col, out in zip(books, columns, blocks):
                out.append(np.fromiter(map(book.__getitem__, fields[col]),
                                       np.int64, len(rows)))
    fish, recv, station, lat, lon, day, clock = (
        np.concatenate(b) if b else np.empty(0, np.int64) for b in blocks)

    fish_ids, recv_ids, station_ids = (
        np.array([s.strip() for s in book], dtype=object)
        for book in books[:3])
    known = np.array([s in station_map for s in station_ids], dtype=bool)
    lat_v, lat_ok = _decode(books[3], float)
    lon_v, lon_ok = _decode(books[4], float)
    day_v, day_ok = _decode(books[5], _day_number)
    clock_v, clock_ok = _decode(books[6], _clock_seconds)

    lat_deg, lon_deg = lat_v[lat], lon_v[lon]
    checks = ((fish_ids != "")[fish] & (station_ids != "")[station]
              & lat_ok[lat] & lon_ok[lon],
              (-90.0 <= lat_deg) & (lat_deg <= 90.0)
              & (-180.0 <= lon_deg) & (lon_deg <= 180.0),
              day_ok[day] & clock_ok[clock],
              known[station])
    kept = np.ones(len(fish), dtype=bool)
    for reason, ok in zip(DROP_REASONS, checks):
        n_bad = int(np.count_nonzero(kept & ~ok))
        if n_bad:
            report.drop(reason, n_bad)
        kept &= ok
    idx = np.flatnonzero(kept)
    report.n_parsed = len(idx)
    return Detections(
        fish_ids[fish[idx]], recv_ids[recv[idx]], station_ids[station[idx]],
        lat_deg[idx], lon_deg[idx],
        day_v[day[idx]] * 86400 + clock_v[clock[idx]] - UTC_OFFSET_S), report


def deduplicate_records(records):
    """Exact repeats of (fish, station, timestamp) dropped, first kept."""
    seen = set()
    out = []
    for r in records:
        key = (r.fish_id, r.station_id, r.timestamp)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


def group_records(records):
    """[(fish_id, detections sorted by (timestamp, station_id))], fish in
    sorted id order."""
    by_fish = {}
    for r in records:
        by_fish.setdefault(r.fish_id, []).append(r)
    return [(fid, sorted(by_fish[fid], key=lambda r: (r.timestamp,
                                                      r.station_id)))
            for fid in sorted(by_fish)]


def _day_of_year_norm(ts):
    d = date.fromordinal(local_day(ts) + date(1970, 1, 1).toordinal())
    return (d.timetuple().tm_yday - 1) / 365.0


def _hour_angle(ts):
    sod = (int(ts) + UTC_OFFSET_S) % 86400
    return 2.0 * math.pi * sod / 86400.0


def time_features(values, timestamps):
    """The time-encoding dims of ``values`` filled row by row."""
    for k, ts in enumerate(timestamps):
        ang = _hour_angle(ts)
        values[k, 8] = math.sin(ang)
        values[k, 9] = math.cos(ang)
        values[k, 10] = _day_of_year_norm(ts)
    return values


def engineer_track(dets, station_map):
    """11-dim feature rows of one time-sorted fish track."""
    n = len(dets)
    ts = [d.timestamp for d in dets]
    stations = [d.station_id for d in dets]
    num_days = float(len({local_day(t) for t in ts}))
    num_unique = float(len(set(stations)))

    run_span = np.zeros(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and stations[j + 1] == stations[i]:
            j += 1
        run_span[i:j + 1] = float(ts[j] - ts[i])
        i = j + 1

    rows = np.empty((n, 11))
    for i, d in enumerate(dets):
        if i == 0:
            dist = missing = 0.0
        else:
            prev = dets[i - 1]
            dist = haversine_km(prev.lat, prev.lon, d.lat, d.lon)
            gap = abs(station_map.order_of(d.station_id)
                      - station_map.order_of(prev.station_id))
            missing = float(max(0, gap - 1))
        rows[i, :8] = [d.lat, d.lon, dist, run_span[i], float(n), num_days,
                       num_unique, missing]
    return time_features(rows, ts)


def engineer_records(records, station_map):
    """Dedup, group and engineer a record list; uids run in track order."""
    tracks = group_records(deduplicate_records(records))
    dets = [d for _fid, track in tracks for d in track]
    if not dets:
        return FeatureTable.empty()
    values = np.vstack([engineer_track(track, station_map)
                        for _fid, track in tracks])
    return FeatureTable(np.arange(len(dets)), [d.fish_id for d in dets],
                        [d.station_id for d in dets],
                        [d.timestamp for d in dets], values)


def criterion_stationary(station_ids, timestamps, span_s=120 * 86400):
    """One fish's maximal same-station runs longer than span_s, for a fish
    with at least two distinct stations."""
    n = len(station_ids)
    mask = np.zeros(n, dtype=bool)
    if len(set(station_ids)) < 2:
        return mask
    i = 0
    while i < n:
        j = i
        while j + 1 < n and station_ids[j + 1] == station_ids[i]:
            j += 1
        if timestamps[j] - timestamps[i] > span_s:
            mask[i:j + 1] = True
        i = j + 1
    return mask


def fish_groups(table):
    """[(fish_id, row indices in time order, ties in row order)]."""
    by_fish = {}
    for i, fid in enumerate(table.fish_id):
        by_fish.setdefault(fid, []).append(i)
    out = []
    for fid in sorted(by_fish):
        idx = np.asarray(by_fish[fid])
        out.append((fid, idx[np.argsort(table.timestamp[idx],
                                         kind="stable")]))
    return out


def criterion_masks(table):
    """(3-bit criterion mask per row, {fish_id: OR of its rows' masks})."""
    mask = np.zeros(len(table), dtype=np.uint8)
    per_fish = {}
    for fid, idx in fish_groups(table):
        m = np.zeros(len(idx), dtype=np.uint8)
        m[table.values[idx, 6] == 1.0] |= 1
        m[criterion_stationary(list(table.station_id[idx]),
                               table.timestamp[idx])] |= 2
        m[table.values[idx, 7] > 1.0] |= 4
        mask[idx] = m
        per_fish[fid] = int(np.bitwise_or.reduce(m))
    return mask, per_fish


def day_groups(table):
    """[(fish_id, row indices of one local day, in time order)]."""
    for fid, idx in fish_groups(table):
        days = np.array([local_day(t) for t in table.timestamp[idx]])
        for day in np.unique(days):
            yield fid, idx[days == day]


def collect_candidates(table):
    """(sorted distinct per-(fish, day) minimum positive gaps, total span,
    {gap: number of groups})."""
    gaps, span = [], 0
    for _fid, idx in day_groups(table):
        ts = table.timestamp[idx]
        span += int(ts.max() - ts.min())
        diffs = np.diff(np.sort(ts))
        if np.any(diffs > 0):
            gaps.append(int(diffs[diffs > 0].min()))
    return sorted(set(gaps)), span, {g: gaps.count(g) for g in set(gaps)}


def sorted_by_fish_time(table):
    """The rows ordered by fish id (as text), then timestamp."""
    return table.take(np.lexsort((table.timestamp, table.fish_id.astype(str))))


def resample(table, delta_t):
    """Per-(fish, day) grids from the first to the last detection, one
    np.interp call per group and dimension."""
    uid, fish, station, ts_out, vals = [], [], [], [], []
    for fid, idx in day_groups(table):
        src_ts = table.timestamp[idx].astype(np.float64)
        if len(idx) == 1:
            uid.append(int(table.uid[idx[0]]))
            fish.append(fid)
            station.append(table.station_id[idx[0]])
            ts_out.append(int(table.timestamp[idx[0]]))
            vals.append(table.values[idx[0]].reshape(1, -1))
            continue
        t0, t1 = int(src_ts[0]), int(src_ts[-1])
        grid = t0 + delta_t * np.arange((t1 - t0) // delta_t + 1,
                                        dtype=np.int64)
        if grid[-1] < t1:
            grid = np.append(grid, t1)
        out = np.empty((len(grid), table.values.shape[1]))
        for d in CONTINUOUS_DIMS:
            out[:, d] = np.interp(grid.astype(np.float64), src_ts,
                                  table.values[idx, d])
        hold = np.clip(np.searchsorted(src_ts, grid.astype(np.float64),
                                       side="right") - 1, 0, len(idx) - 1)
        for d in STEPWISE_DIMS:
            out[:, d] = table.values[idx[hold], d]
        time_features(out, grid)
        uid += [-1] * len(grid)
        fish += [fid] * len(grid)
        station += list(table.station_id[idx[hold]])
        ts_out += grid.tolist()
        vals.append(out)
    if not ts_out:
        return FeatureTable.empty()
    return sorted_by_fish_time(FeatureTable(uid, fish, station, ts_out,
                                            np.vstack(vals)))


# ---------------------------------------------------------------------------
# autoencoder training: the allocating loop the workspace one replaced


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(p, x):
    """Forward pass with the parameter dict ``p``; every activation by
    name."""
    z1 = x @ p["w1"] + p["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p["w2"] + p["b2"]
    z3 = z2 @ p["w3"] + p["b3"]
    a3 = np.maximum(z3, 0.0)
    y = _reference_sigmoid(a3 @ p["w4"] + p["b4"])
    return dict(x=x, z1=z1, a1=a1, z2=z2, z3=z3, a3=a3, y=y)


def _reference_backward(p, cache):
    x, y = cache["x"], cache["y"]
    n = x.size
    dz4 = (2.0 / n) * (y - x) * y * (1.0 - y)
    grads = {"w4": cache["a3"].T @ dz4, "b4": dz4.sum(axis=0)}
    da3 = dz4 @ p["w4"].T
    dz3 = da3 * (cache["z3"] > 0.0)
    grads["w3"] = cache["z2"].T @ dz3
    grads["b3"] = dz3.sum(axis=0)
    dz2 = dz3 @ p["w3"].T
    grads["w2"] = cache["a1"].T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    da1 = dz2 @ p["w2"].T
    dz1 = da1 * (cache["z1"] > 0.0)
    grads["w1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return grads


def reference_scores(params, rows):
    """Per-row mean squared reconstruction error through the allocating
    forward pass."""
    x = np.asarray(rows, dtype=np.float64)
    return np.mean((reference_forward(params, x)["y"] - x) ** 2, axis=1)


def reference_train(params, rows, cfg, val_rows=None):
    """Train the parameter dict ``params`` in place with fresh temporaries
    per step and Adam applied array by array; returns (train_losses,
    val_losses). Raises TrainingError with the message of
    ``autoencoder.train`` at the first non-finite batch loss."""
    x = np.asarray(rows, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    val = x[:0] if val_rows is None else np.asarray(val_rows,
                                                    dtype=np.float64)

    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    train_losses, val_losses = [], []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        for lo in range(0, len(x), cfg.batch_size):
            batch = x[order[lo:lo + cfg.batch_size]]
            cache = reference_forward(params, batch)
            batch_loss = float(np.mean((cache["y"] - batch) ** 2))
            if not math.isfinite(batch_loss):
                raise TrainingError(
                    "non-finite loss at epoch %d, batch starting %d"
                    % (epoch + 1, lo))
            epoch_loss += batch_loss * len(batch)
            grads = _reference_backward(params, cache)
            step += 1
            bc1 = 1.0 - cfg.beta1 ** step
            bc2 = 1.0 - cfg.beta2 ** step
            for k, g in grads.items():
                adam_m[k] = cfg.beta1 * adam_m[k] + (1.0 - cfg.beta1) * g
                adam_v[k] = cfg.beta2 * adam_v[k] + (1.0 - cfg.beta2) * g * g
                m_hat = adam_m[k] / bc1
                v_hat = adam_v[k] / bc2
                params[k] -= (cfg.learning_rate * m_hat
                              / (np.sqrt(v_hat) + cfg.adam_eps))
        train_losses.append(epoch_loss / len(x))
        if len(val):
            y = reference_forward(params, val)["y"]
            val_losses.append(float(np.mean((y - val) ** 2)))
        else:
            val_losses.append(None)
    return train_losses, val_losses


def average_ranks_loop(x):
    """The per-row tie scan `metrics._average_ranks` replaced: 1-based
    ranks, each run of equal sorted values sharing its average rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(sx):
        j = i
        while j + 1 < len(sx) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# confidence-interval repeats: one pipeline run per model and repeat


def reshuffle_report(labelled, cfg):
    """Split-reshuffle confidence intervals per model (mean, half-width),
    each model run on its own in every repeat."""
    out = {}
    for name in cfg.model_list:
        one = dataclasses.replace(cfg, models=name)

        def run_once(data, run_seed, _cfg=one):
            res = run_pipeline(data, _cfg, run_seed)
            return res.report["models"][_cfg.models]["metrics"]

        out[name] = reshuffle_ci(run_once, labelled, cfg.ci_repeats, cfg.seed)
    return out


# ---------------------------------------------------------------------------
# feature CSV reader: the inverse of write_feature_csv


def read_feature_csv(path):
    """Reload a table written by write_feature_csv."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        uid, fish, station, ts, vals, label, mask = [], [], [], [], [], [], []
        for row in reader:
            uid.append(int(row["uid"]))
            fish.append(row["fish_id"])
            station.append(row["station_id"])
            ts.append(int(row["timestamp"]))
            vals.append([float(row[name]) for name in FEATURE_NAMES])
            label.append(int(row["label"]))
            mask.append(int(row["criterion_mask"]))
    if not uid:
        return FeatureTable.empty()
    return FeatureTable(uid, fish, station, ts, np.asarray(vals), label, mask)


# ---------------------------------------------------------------------------
# the distance kernel with the view b.T as BLAS's right operand


def transposed_sq_dist_blocks(a, b, rows):
    """detectors._sq_dist_blocks as it was before it gave BLAS a row-major
    copy of b^T: blocks of ``rows`` rows of ``(|a|^2 + |b|^2) - 2 a.b``,
    each multiplied by the view ``b.T``, clipped at zero."""
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    sums = np.empty((min(rows, len(a)), len(b)))
    prods = np.empty_like(sums)
    for lo in range(0, len(a), rows):
        hi = min(len(a), lo + rows)
        d2, ab = sums[:hi - lo], prods[:hi - lo]
        np.add(aa[lo:hi, None], bb, out=d2)
        np.matmul(a[lo:hi], b.T, out=ab)
        ab *= 2.0
        d2 -= ab
        np.maximum(d2, 0.0, out=d2)
        yield lo, hi, d2


# ---------------------------------------------------------------------------
# LOF neighbourhoods: one sweep per k, selected on square roots


def lof_neighbourhoods(q, x, k, self_excluded):
    """k-distances of the rows of ``q`` against the rows of ``x`` and their
    tie-inclusive k-neighbourhoods, as (kdist, ids, dists, sizes): the
    neighbours of row i are the i-th run of ``sizes[i]`` entries of ``ids``
    and ``dists``, in ascending id order. With ``self_excluded`` row i of
    ``q`` is row i of ``x`` and not its own neighbour. Every block takes the
    square root of all its entries before it selects."""
    kdist = np.empty(len(q))
    ids, dists, sizes = [], [], []
    for lo, hi, d in _sq_dist_blocks(q, x):
        np.sqrt(d, out=d)
        if self_excluded:
            r = np.arange(hi - lo)
            d[r, lo + r] = np.inf
        kd = np.partition(d, k - 1, axis=1)[:, k - 1]
        kdist[lo:hi] = kd
        r, c = np.divmod(np.flatnonzero(d <= kd[:, None]), d.shape[1])
        ids.append(c)
        dists.append(d[r, c])
        sizes.append(np.bincount(r, minlength=hi - lo))
    return (kdist, np.concatenate(ids), np.concatenate(dists),
            np.concatenate(sizes))


# ---------------------------------------------------------------------------
# the scalar generator and the csv.writer writers
#
# synthgen's detection loop as it was before its gaps were drawn in batches:
# one scalar exponential draw and one emit per detection. The batched
# generator must return equal records and ground truth, in equal order, and
# leave the rng after each dwell where this one does. The csv_* writers are
# telanom's CSV writers as they were before ingest.write_csv, one csv.writer
# row per table row; write_csv must write their bytes.


class _ScalarEmitter:
    def __init__(self, fish_id, coords, gt):
        self.fish_id = fish_id
        self.coords = coords
        self.gt = gt
        self.records = []
        self.last_ts = None
        self.last_marker = False

    def emit(self, order, ts, criterion):
        ts = int(ts)
        if self.last_ts is not None and ts <= self.last_ts:
            ts = self.last_ts + 1
        self.last_ts = ts
        sid, lat, lon = self.coords[order]
        self.records.append(DetectionRecord(
            self.fish_id, "R%02d" % order, sid, lat, lon, ts))
        if criterion:
            self.gt.criterion[(self.fish_id, ts)] = criterion


def _scalar_dwell(emitter, rng, order, t_start, t_end, mean_gap_s,
                  arrival_criterion=0):
    emitter.emit(order, t_start, arrival_criterion)
    t = t_start
    while True:
        t += max(1.0, rng.exponential(mean_gap_s))
        if t >= t_end:
            return
        emitter.emit(order, t, 0)


def _scalar_walk(emitter, rng, cfg, t0, t_end, allow_jumps):
    s_max = cfg.n_stations - 1
    order = int(rng.integers(0, s_max + 1))
    last_emitted = order
    t = t0 + rng.uniform(0, 86400.0)
    while t < t_end:
        dwell = min(rng.exponential(cfg.mean_dwell_days),
                    cfg.max_dwell_days) * 86400.0
        dwell = max(dwell, 3600.0)
        stop = min(t + dwell, t_end)
        criterion = 3 if (emitter.records and emitter.last_marker) else 0
        _scalar_dwell(emitter, rng, order, t, stop, cfg.mean_gap_s, criterion)
        emitter.last_marker = False
        last_emitted = order
        t = stop + rng.uniform(60.0, 600.0)
        if allow_jumps and rng.random() < cfg.skip_rate:
            targets = [o for o in range(0, s_max + 1) if abs(o - order) >= 3]
            if targets:
                order = int(targets[rng.integers(len(targets))])
                emitter.last_marker = True
                continue
        order = _adjacent_step(order, s_max, rng)
    return last_emitted


def scalar_generate(cfg):
    """(records, station map, ground truth) of the scalar generator."""
    cfg.validate()
    station_map = make_station_map(cfg)
    coords = {station_map.order_of(sid): (sid,) + station_map.coords(sid)
              for sid in station_map.ids()}
    gt = GroundTruth()
    t0 = parse_timestamp(cfg.start_date, "00:00:00")
    t_end = t0 + cfg.span_days * 86400.0
    n_c1 = round(cfg.fraction_single_station * cfg.n_fish)
    n_c2 = round(cfg.fraction_stationary * cfg.n_fish)
    all_records = []
    s_max = cfg.n_stations - 1
    for i in range(cfg.n_fish):
        fish_id = "F%03d" % i
        rng = np.random.default_rng((cfg.seed, i))
        emitter = _ScalarEmitter(fish_id, coords, gt)
        if i < n_c1:
            order = int(rng.integers(0, s_max + 1))
            start = t0 + rng.uniform(0, 86400.0)
            _scalar_dwell(emitter, rng, order, start, t_end, cfg.mean_gap_s)
            for rec in emitter.records:
                gt.criterion[(fish_id, rec.timestamp)] = 1
        elif i < n_c1 + n_c2:
            t_still = t0 + cfg.normal_phase_days * 86400.0
            order = _scalar_walk(emitter, rng, cfg, t0, t_still,
                                 allow_jumps=False)
            still_order = _adjacent_step(order, s_max, rng)
            run_start = emitter.last_ts + max(1.0, rng.uniform(60.0, 600.0))
            n_before = len(emitter.records)
            _scalar_dwell(emitter, rng, still_order, run_start, t_end,
                          cfg.stationary_gap_s)
            for rec in emitter.records[n_before:]:
                gt.criterion[(fish_id, rec.timestamp)] = 2
        else:
            _scalar_walk(emitter, rng, cfg, t0, t_end,
                         allow_jumps=cfg.skip_rate > 0)
        all_records.extend(emitter.records)
    return all_records, station_map, gt


def _csv_rows(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def csv_detections(detections, path):
    """write_detections_csv as csv.writer rows; takes Detections."""
    days, clocks = [], []
    for ts in detections.timestamp.tolist():
        day, clock = format_timestamp(ts)
        days.append(day)
        clocks.append(clock)
    _csv_rows(path, DETECTION_COLUMNS, zip(
        detections.fish_id.tolist(), detections.receiver_id.tolist(),
        detections.station_id.tolist(), map(repr, detections.lat.tolist()),
        map(repr, detections.lon.tolist()), days, clocks))


def csv_stations(station_map, path):
    _csv_rows(path, ["station", "lat", "lon", "order"],
              ([sid, repr(station_map.coords(sid)[0]),
                repr(station_map.coords(sid)[1]), station_map.order_of(sid)]
               for sid in station_map.ids()))


def csv_ground_truth(gt, path):
    _csv_rows(path, ["fishid", "timestamp", "criterion"],
              ([fid, ts, crit]
               for (fid, ts), crit in sorted(gt.criterion.items())))


def csv_labels(table, path):
    _csv_rows(path, ["fish_id", "timestamp", "label", "criterion_mask"],
              zip(table.fish_id.tolist(), table.timestamp.tolist(),
                  table.label.tolist(), table.criterion_mask.tolist()))


def csv_features(table, path):
    _csv_rows(path, (["uid", "station_id", "fish_id", "timestamp"]
                     + FEATURE_NAMES + ["label", "criterion_mask"]),
              ([u, s, f, t] + list(map(repr, v)) + [lab, m]
               for u, s, f, t, v, lab, m in zip(
                   table.uid.tolist(), table.station_id.tolist(),
                   table.fish_id.tolist(), table.timestamp.tolist(),
                   table.values.tolist(), table.label.tolist(),
                   table.criterion_mask.tolist())))


def csv_percentile_table(table, path):
    _csv_rows(path, ["percentile", "optimal_threshold"] + METRIC_COLUMNS,
              ([p, repr(thr)] + ["" if m[k] is None else repr(m[k])
                                 for k in METRIC_COLUMNS]
               for p, thr, m in zip(table.percentiles, table.thresholds,
                                    table.metrics)))


def csv_loss_curve(result, path):
    _csv_rows(path, ["epoch", "train_loss", "val_loss"],
              ([e, repr(tr), "" if vl is None else repr(vl)]
               for e, (tr, vl) in enumerate(zip(result.train_losses,
                                                result.val_losses), start=1)))


def csv_tune_rows(result, path):
    names = sorted(result.best_params)
    score_cols = [k for k in result.rows[0] if k not in names]
    _csv_rows(path, names + score_cols,
              ([row[k] for k in names]
               + ["" if row[k] is None else row[k] for k in score_cols]
               for row in result.rows))


def csv_summary(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=SUMMARY_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow({k: ("" if row.get(k) is None else row.get(k))
                        for k in SUMMARY_COLUMNS})

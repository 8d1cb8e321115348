"""End-to-end experiment orchestration.

Stage order: ingest -> engineer -> label -> split -> resample (normal
training rows only) -> scale -> fit -> threshold -> evaluate -> report.

The held-out test rows are tracked by uid in a LeakageGuard; every
training-side stage asserts none of them slipped in and aborts the run with
LeakageError if one did. Test rows are never resampled. prepare_training
builds that training side once, through the guard, for run, tune, resample
and the confidence-interval repeats alike.

Reruns with the same seed and an injected deterministic timer produce
byte-identical reports; with the default wall clock only the runtime_s
fields differ.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import train
from .child import run_all
from .detectors import (MODEL_PARAMS, NeighbourPass, build_model, load_model,
                        save_model)
from .errors import (DataError, LeakageError, TrainingError, _number,
                     load_json, read_file, remove_temporaries, whole_file)
from .features import FeatureTable, Scaler, engineer_tracks, write_feature_csv
from .ingest import parse_csv, load_station_map, deduplicate, group_tracks
from .labelling import (CRIT_SINGLE_STATION, CRIT_SKIPPED, CRIT_STATIONARY,
                         label_all, write_label_csv)
from .metrics import (confusion, compute_metrics, reshuffle_ci, roc_auc,
                      save_report, write_summary_csv)
from .resampling import collect_candidates, fixed_plan, plan_for, resample
from .thresholding import (build_table, contamination_threshold, flag,
                           select_threshold)

# sub-seed tags so every seeded stage draws from its own stream
_SEED_SPLIT = 1
_SEED_AE_SPLIT = 2
_SEED_MODEL = 3

MODEL_NAMES = tuple(MODEL_PARAMS)
# run reads grid parameter p of model m from the RunConfig field
# _CONFIG_PREFIX[m] + p
_CONFIG_PREFIX = {"autoencoder": "ae_", "iforest": "if_", "lof": "lof_",
                  "dbscan": "dbscan_"}

# boolean spellings a config file may use, matched case-insensitively
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


@dataclass
class RunConfig:
    input_csv: str = ""
    station_csv: str = ""
    out_dir: str = "out"
    seed: int = 0
    resample_interval: str = "auto"      # "auto" | "none" | seconds
    max_points: int = 5_000_000
    normal_test_fraction: float = 0.10
    anomaly_test_fraction: float = 0.50
    ae_val_fraction: float = 0.20
    split_unit: str = "detection"        # "detection" | "fish"
    models: str = "autoencoder,iforest,lof,dbscan"
    ci_repeats: int = 0
    dump_features: bool = False
    ae_units: int = 128
    ae_bottleneck: int = 2
    ae_learning_rate: float = 0.001
    ae_batch_size: int = 512
    ae_epochs: int = 50
    if_n_estimators: int = 100
    if_contamination: float = 0.001
    if_subsample: int = 256
    lof_k: int = 5
    lof_contamination: float = 0.01
    dbscan_eps: float = 0.5
    dbscan_min_pts: int = 10

    @property
    def model_list(self):
        names = [m.strip() for m in self.models.split(",") if m.strip()]
        if not names:
            raise DataError("no models requested; choose from %s"
                            % ", ".join(MODEL_NAMES))
        bad = [m for m in names if m not in MODEL_NAMES]
        if bad:
            raise DataError("unknown model(s) %s; choose from %s"
                            % (bad, ", ".join(MODEL_NAMES)))
        twice = sorted({m for m in names if names.count(m) > 1})
        if twice:
            raise DataError("model(s) %s named more than once" % twice)
        return names

    def model_params(self, name):
        """Model ``name``'s grid parameters as this config sets them."""
        return {p: getattr(self, _CONFIG_PREFIX[name] + p)
                for p in MODEL_PARAMS[name]}

    def interval_mode(self):
        """Returns "none", "auto" or an integer number of seconds: a whole
        number in [1, 2**63), such as 600 or 600.0."""
        v = str(self.resample_interval).strip().lower()
        if v in ("none", "auto"):
            return v
        try:
            seconds = float(v)
        except ValueError:
            seconds = math.nan
        if seconds.is_integer() and 1 <= seconds < 2.0 ** 63:
            return int(seconds)
        raise DataError("bad resample_interval %r: not a whole number of "
                        "seconds in [1, 2**63)" % self.resample_interval)

    def validate(self):
        for name, frac in (("normal_test_fraction", self.normal_test_fraction),
                           ("anomaly_test_fraction", self.anomaly_test_fraction),
                           ("ae_val_fraction", self.ae_val_fraction)):
            if not 0.0 < frac < 1.0:
                raise DataError("%s must be in (0, 1)" % name)
        if self.split_unit not in ("detection", "fish"):
            raise DataError("split_unit must be 'detection' or 'fish'")
        if _number(vars(self), "seed", integer=True) < 0:
            raise DataError("seed must be at least 0")
        if _number(vars(self), "max_points", integer=True) < 1:
            raise DataError("max_points must be at least 1")
        repeats = _number(vars(self), "ci_repeats", integer=True)
        if repeats != 0 and repeats < 2:
            raise DataError("ci_repeats must be 0 or at least 2, got %d"
                            % repeats)
        self.model_list
        self.interval_mode()
        return self

    def to_json(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_file(cls, path):
        """Flat ``key = value`` config file; '#' starts a comment."""
        values = {}
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        defaults = cls()
        with read_file(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError("%s:%d: expected key = value"
                                    % (path, lineno))
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in types:
                    raise DataError("%s:%d: unknown key %r" % (path, lineno, key))
                current = getattr(defaults, key)
                try:
                    if isinstance(current, bool):
                        values[key] = _BOOLEANS[value.lower()]
                    elif isinstance(current, int):
                        values[key] = int(value)
                    elif isinstance(current, float):
                        values[key] = float(value)
                    else:
                        values[key] = value
                except (KeyError, ValueError):
                    raise DataError("%s:%d: bad value %r for %s"
                                    % (path, lineno, value, key)) from None
        return cls(**values).validate()


@dataclass
class DatasetSplit:
    normal_test: FeatureTable
    normal_train: FeatureTable
    anomaly_test: FeatureTable
    anomaly_val: FeatureTable

    def counts(self):
        return {part.name: len(getattr(self, part.name))
                for part in dataclasses.fields(self)}

    def test_table(self):
        return FeatureTable.concat([self.normal_test, self.anomaly_test])


def write_split_csv(split, path):
    """split.csv: a ``uid,partition`` line for every row of the split,
    partition by partition in field order."""
    with whole_file(path) as f:
        f.write("uid,partition\n")
        for part in dataclasses.fields(split):
            uids = getattr(split, part.name).uid.tolist()
            if uids:
                end = ",%s\n" % part.name
                f.write(end.join(map(str, uids)) + end)


class LeakageGuard:
    """Remembers the held-out test uids; any training-side stage that sees
    one aborts the run."""

    def __init__(self, test_uids):
        self.test_uids = np.unique(np.asarray(test_uids, dtype=np.int64))

    @classmethod
    def from_split(cls, split):
        return cls(np.concatenate([split.normal_test.uid,
                                   split.anomaly_test.uid]))

    def check(self, table, stage):
        uids = np.asarray(table.uid, dtype=np.int64)
        leaked = np.unique(uids[np.isin(uids, self.test_uids)])
        if len(leaked):
            raise LeakageError(stage, leaked.tolist())
        return table


def _class_split(table, idx, fraction, rng, unit):
    """Split one label class into (held-out, rest) index arrays."""
    n_held = int(round(fraction * len(idx)))
    if unit == "detection":
        perm = idx[rng.permutation(len(idx))]
        return perm[:n_held], perm[n_held:]
    # fish unit: whole per-fish row groups go to one side
    groups = {}
    for i in idx:
        groups.setdefault(table.fish_id[i], []).append(i)
    fish = sorted(groups)
    order = rng.permutation(len(fish))
    held, rest, taken = [], [], 0
    for g in order:
        rows = groups[fish[g]]
        if taken < n_held:
            held.extend(rows)
            taken += len(rows)
        else:
            rest.extend(rows)
    return np.asarray(held, dtype=np.int64), np.asarray(rest, dtype=np.int64)


def split_rows(table, cfg, seed):
    """Stratified split: normals into test/training pool, anomalies into
    test/threshold-validation halves. Seeded and disjoint by construction."""
    rng = np.random.default_rng((seed, _SEED_SPLIT))
    normal_idx = np.flatnonzero(table.label == 1)
    anomaly_idx = np.flatnonzero(table.label == 0)
    if len(normal_idx) == 0 or len(anomaly_idx) == 0:
        raise DataError("split needs both labels present")

    n_test, n_train = _class_split(table, normal_idx,
                                   cfg.normal_test_fraction, rng,
                                   cfg.split_unit)
    a_test, a_val = _class_split(table, anomaly_idx,
                                 cfg.anomaly_test_fraction, rng,
                                 cfg.split_unit)
    return DatasetSplit(table.take(n_test), table.take(n_train),
                        table.take(a_test), table.take(a_val))


def train_val_split(table, val_fraction, seed):
    """Seeded (train, validation) row split of one table."""
    rng = np.random.default_rng((seed, _SEED_AE_SPLIT))
    perm = rng.permutation(len(table))
    n_val = int(round(val_fraction * len(table)))
    return table.take(perm[n_val:]), table.take(perm[:n_val])


def _model_seed(seed):
    return int(np.random.default_rng((seed, _SEED_MODEL)).integers(2 ** 31))


def _evaluate(predicted, scores, actual):
    cm = confusion(predicted, actual)
    m = compute_metrics(cm)
    m["auc"] = roc_auc(scores, actual)
    m["fn_fraction"] = (cm.fn / (cm.ta + cm.fn)) if (cm.ta + cm.fn) else None
    m["fa_fraction"] = (cm.fa / (cm.fa + cm.tn)) if (cm.fa + cm.tn) else None
    return cm, m


@dataclass
class ExperimentResult:
    report: dict
    split: DatasetSplit
    train_pool: FeatureTable
    scaler: Scaler
    plan: object
    models: dict = field(default_factory=dict)
    threshold: object = None
    percentile_table: object = None
    loss_curve: object = None
    table: FeatureTable = None
    label_report: object = None


def ingest_detections(cfg):
    """Stage ingest: returns (station map, parsed and deduplicated
    detections, ingest summary)."""
    station_map = load_station_map(cfg.station_csv)
    detections, parse_report = parse_csv(cfg.input_csv, station_map)
    detections, n_dups = deduplicate(detections)
    return station_map, detections, {
        "rows_read": parse_report.n_rows,
        "rows_parsed": parse_report.n_parsed,
        "rows_dropped": parse_report.dropped,
        "duplicates_removed": n_dups,
        "n_fish": len(set(detections.fish_id.tolist())),
    }


def prepare_table(cfg):
    """Stages ingest + engineer + label; returns (table, label_report,
    ingest summary)."""
    station_map, detections, ingest_summary = ingest_detections(cfg)
    table = engineer_tracks(group_tracks(detections), station_map)
    labelled, label_report = label_all(table)
    return labelled, label_report, ingest_summary


@dataclass
class TrainingData:
    """The training side of one split, built through the leakage guard.

    ``pool`` is the resampled normal training rows (the raw ones with
    interval "none") and ``scaler`` is fitted on it. Each model matrix is
    built on first read, after the guard has checked its source rows under
    the stage that uses them, so no caller can build one unchecked.
    """

    split: DatasetSplit
    guard: LeakageGuard
    plan: object
    pool: FeatureTable
    scaler: Scaler
    val_fraction: float
    seed: int

    def _scaled(self, stage, *tables):
        for table in tables:
            self.guard.check(table, stage)
        x = [self.scaler.transform(table.values) for table in tables]
        return x[0] if len(x) == 1 else np.vstack(x)

    @functools.cached_property
    def _ae_tables(self):
        return train_val_split(self.pool, self.val_fraction, self.seed)

    @functools.cached_property
    def fit_x(self):
        """Pool + anomaly_val: the rows every classical detector fits on."""
        return self._scaled("fit", self.pool, self.split.anomaly_val)

    @functools.cached_property
    def ae_train(self):
        """The pool rows the autoencoder trains on."""
        return self._scaled("ae_fit", self._ae_tables[0])

    @functools.cached_property
    def ae_val(self):
        """The pool rows held out of autoencoder training."""
        return self._scaled("ae_fit", self._ae_tables[1])

    @functools.cached_property
    def val_x(self):
        """ae_val + anomaly_val: the labelled rows thresholds and grid
        candidates are chosen on."""
        anomalies = self.split.anomaly_val
        self.guard.check(self._ae_tables[1], "threshold")
        self.guard.check(anomalies, "threshold")
        return np.vstack([self.ae_val, self.scaler.transform(anomalies.values)])

    @functools.cached_property
    def val_y(self):
        """Labels of val_x: 1 for the normal rows, 0 for the anomalies."""
        return np.concatenate([np.ones(len(self._ae_tables[1]), dtype=int),
                               np.zeros(len(self.split.anomaly_val), dtype=int)])


def prepare_training(labelled, cfg, seed):
    """Split, guard, resample and scale: the training side shared by every
    caller. Only the normal training rows are resampled."""
    interval = cfg.interval_mode()
    split = split_rows(labelled, cfg, seed)
    guard = LeakageGuard.from_split(split)
    plan = None
    pool = split.normal_train
    if interval != "none":
        guard.check(pool, "resample")
        plan = (plan_for(pool, cfg.max_points) if interval == "auto"
                else fixed_plan(interval, cfg.max_points))
        pool = resample(pool, plan)
    if len(pool) == 0:
        raise DataError("empty training pool after resampling")
    guard.check(pool, "scaler_fit")
    scaler = Scaler().fit(pool.values)
    return TrainingData(split, guard, plan, pool, scaler, cfg.ae_val_fraction,
                        seed)


def _per_criterion(predicted, test):
    """For each labelling criterion, keyed as in label_report.json: the
    test anomalies it marks, how many of them were missed (predicted
    normal), and that fraction, None where it marks none."""
    out = {}
    for key, bit in (("1", CRIT_SINGLE_STATION), ("2", CRIT_STATIONARY),
                     ("3", CRIT_SKIPPED)):
        marked = (test.criterion_mask & bit) != 0
        n = int(marked.sum())
        missed = int((predicted[marked] == 1).sum())
        out[key] = {"anomalies": n, "missed": missed,
                    "fn_fraction": missed / n if n else None}
    return out


def _model_entry(name, model, x_test, test, interval,
                 nan_error=TrainingError):
    """Score the test rows of the table ``test`` once; the model's report
    entry, less its runtime_s. A NaN score, which no threshold can flag or
    rank, is a ``nan_error``: a TrainingError for a model fitted here and a
    DataError for a loaded one."""
    scores = model.scores(x_test)
    if np.isnan(scores).any():
        raise nan_error("%s scores %d of %d test rows as NaN"
                        % (name, np.isnan(scores).sum(), len(scores)))
    predicted = flag(scores, model.threshold)
    cm, m = _evaluate(predicted, scores, test.label)
    return {"model": name, "resample_interval": interval,
            "confusion": cm.to_json(), "metrics": m,
            "per_criterion": _per_criterion(predicted, test), "ci": None,
            "n_parameters": model.n_parameters}


def _autoencoder_job(data, cfg, x_test, test, interval, model_seed, timer):
    """The autoencoder's part of a run, which shares nothing with the
    classical models': trained on normal rows, thresholded on labelled
    ones, then scored on the test rows. Returns (model, loss curve,
    percentile table, threshold, report entry)."""
    t0 = timer()
    model, train_cfg = build_model("autoencoder",
                                   cfg.model_params("autoencoder"),
                                   x_test.shape[1], model_seed)
    loss_curve = train(model, data.ae_train, train_cfg, val_rows=data.ae_val)
    table = build_table(model.scores(data.val_x), data.val_y)
    threshold = select_threshold(table)
    model.threshold = threshold.threshold
    entry = _model_entry("autoencoder", model, x_test, test, interval)
    entry["runtime_s"] = timer() - t0
    entry["threshold"] = threshold.to_json()
    return model, loss_curve, table, threshold, entry


def run_pipeline(labelled, cfg, seed, timer=time.perf_counter,
                 stage_writers=None):
    """Split/resample/fit/threshold/evaluate on an already labelled table.

    Returns an ExperimentResult whose report carries one entry per model.
    run_all runs one job per model, in cfg.model_list order, then the
    writers that ``stage_writers(data)`` lists, where given, of the files
    that depend on no model. The writers, and the autoencoder's job where
    classical models fit beside it, run apart in one child process while
    this one fits the classical models. A run given stage writers saves
    its models, so DBSCAN's clusters are made in its job; elsewhere (the
    confidence-interval repeats) only a read of them makes them. Every
    result, and the first error raised, is the same as when all of it runs
    one after another.
    """
    data = prepare_training(labelled, cfg, seed)
    interval = data.plan.delta_t if data.plan else "none"
    test = data.split.test_table()
    x_test = data.scaler.transform(test.values)
    model_seed = _model_seed(seed)
    result = ExperimentResult(report={}, split=data.split,
                              train_pool=data.pool, scaler=data.scaler,
                              plan=data.plan)

    names = cfg.model_list
    # every matrix is built through the guard in this process, in the order
    # the models read them
    for name in names:
        if name == "autoencoder":
            data.ae_train, data.val_x, data.val_y
        else:
            data.fit_x
    # LOF's k-neighbourhoods and DBSCAN's eps-counts over fit_x come from
    # one neighbour pass, made by whichever of the two fits first
    neighbours = None

    def classical(name):
        nonlocal neighbours
        t0 = timer()
        model, _ = build_model(name, cfg.model_params(name),
                               x_test.shape[1], model_seed)
        if name == "iforest":
            model.fit(data.fit_x)
            # the contamination rule reads only the scores that can rank
            # among its r highest, which the forest walks in full
            model.threshold = contamination_threshold(
                functools.partial(model.top_scores, data.fit_x),
                model.contamination, len(data.fit_x))
        else:
            if neighbours is None:
                neighbours = NeighbourPass(
                    data.fit_x, data.fit_x, self_excluded=True,
                    ks=[cfg.lof_k] if "lof" in names else [],
                    radii=[cfg.dbscan_eps] if "dbscan" in names else [])
            model.fit(data.fit_x, neighbours=neighbours)
        if name == "lof":
            model.threshold = contamination_threshold(model.train_lof,
                                                      model.contamination)
        if name == "dbscan" and stage_writers:
            # the run saves dbscan.json, which holds the clusters: they
            # are made here, while the autoencoder's child trains, not in
            # the file's writer
            model.cluster()
        entry = _model_entry(name, model, x_test, test, interval)
        entry["runtime_s"] = timer() - t0
        return model, entry

    jobs = [functools.partial(_autoencoder_job, data, cfg, x_test, test,
                              interval, model_seed, timer)
            if name == "autoencoder" else functools.partial(classical, name)
            for name in names]
    writers = stage_writers(data) if stage_writers else []
    apart = set(range(len(jobs), len(jobs) + len(writers)))
    if "autoencoder" in names and len(names) > 1:
        apart.add(names.index("autoencoder"))
    model_reports = {}
    for name, outcome in zip(names, run_all(jobs + writers, apart)):
        if name == "autoencoder":
            (model, result.loss_curve, result.percentile_table,
             result.threshold, entry) = outcome
        else:
            model, entry = outcome
        result.models[name] = model
        model_reports[name] = entry

    result.report = {
        "seed": seed,
        "resample_interval": interval,
        "split": data.split.counts(),
        "resample_plan": data.plan.to_json() if data.plan else None,
        "n_train_pool": len(data.pool),
        "models": model_reports,
    }
    return result


def run_experiment(cfg, timer=time.perf_counter):
    """Full pipeline from CSVs to report files under cfg.out_dir. The
    files of the stages before the models are written while the models
    fit (run_pipeline's stage_writers), the rest once they are fitted.
    Once the inputs are read, every file an earlier run left under
    cfg.out_dir (_RUN_OUTPUTS) is removed. A run that raises stops at its
    first error in serial order, once every child is reaped; each file it
    leaves is whole and its own, and the temporary file of a writer killed
    halfway is removed."""
    cfg.validate()
    labelled, label_report, ingest_summary = prepare_table(cfg)
    writers = functools.partial(_stage_writers, cfg, labelled, label_report)
    try:
        _remove_outputs(cfg.out_dir)
        result = run_pipeline(labelled, cfg, cfg.seed, timer=timer,
                              stage_writers=writers)
        result.table = labelled
        result.label_report = label_report
        result.report["config"] = cfg.to_json()
        result.report["ingest"] = ingest_summary
        result.report["labels"] = label_report.to_json()

        if cfg.ci_repeats >= 2:
            result.report["ci"] = _reshuffle_report(labelled, cfg)
            for name, entry in result.report["models"].items():
                entry["ci"] = result.report["ci"].get(name)

        _write_artifacts(cfg, result)
    except BaseException:
        remove_temporaries(cfg.out_dir)
        raise
    return result


def _reshuffle_report(labelled, cfg):
    """Split-reshuffle confidence intervals per model (mean, half-width);
    every repeat runs all the models once."""
    def run_once(data, run_seed):
        models = run_pipeline(data, cfg, run_seed).report["models"]
        return {(name, metric): value for name, entry in models.items()
                for metric, value in entry["metrics"].items()}

    out = {name: {} for name in cfg.model_list}
    cis = reshuffle_ci(run_once, labelled, cfg.ci_repeats, cfg.seed)
    for (name, metric), ci in cis.items():
        out[name][metric] = ci
    return out


def _run_interval(report, cfg, ingest_summary):
    """The resample interval of the run that wrote ``report``; DataError
    naming the field when ``cfg`` or the inputs would rebuild another test
    split than that run held out."""
    for name in ("seed", "normal_test_fraction", "anomaly_test_fraction",
                 "split_unit"):
        if report["config"][name] != getattr(cfg, name):
            raise DataError("%s is %r, the run's was %r" % (
                name, getattr(cfg, name), report["config"][name]))
    if report["ingest"] != ingest_summary:
        raise DataError("ingest summary differs: not the run's input CSVs")
    return report["resample_interval"]


def evaluate_saved(cfg, models_dir, timer=time.perf_counter):
    """Evaluate previously trained model files on the test split rebuilt
    from the same inputs, config and seed.

    ``models_dir`` is the output directory of an earlier run/train: it must
    hold report.json, scaler.json, models/*.json and (for the autoencoder,
    whose model file holds no threshold) threshold.json.
    """
    cfg.validate()
    labelled, _label_report, ingest_summary = prepare_table(cfg)
    interval = load_json(os.path.join(models_dir, "report.json"),
                         lambda report: _run_interval(report, cfg,
                                                      ingest_summary))
    split = split_rows(labelled, cfg, cfg.seed)

    test = split.test_table()
    x_test = load_json(os.path.join(models_dir, "scaler.json"),
                       lambda obj: Scaler.from_json(obj).transform(
                           test.values))

    reports = {}
    for name in cfg.model_list:
        path = os.path.join(models_dir, "models", "%s.json" % name)
        if not os.path.exists(path):
            raise DataError("no saved model %r under %s" % (name, models_dir))
        t0 = timer()
        model = load_model(path)
        if model.kind != name:
            raise DataError("%s: holds a %s model" % (path, model.kind))
        if name == "autoencoder":
            model.threshold = load_json(
                os.path.join(models_dir, "threshold.json"),
                lambda obj: _number(obj, "threshold"))
        try:
            reports[name] = _model_entry(name, model, x_test, test,
                                         interval, nan_error=DataError)
        except DataError as e:
            raise DataError("%s: %s" % (path, e)) from None
        reports[name]["runtime_s"] = timer() - t0
    return {"seed": cfg.seed, "split": split.counts(), "models": reports}


def save_labels(table, label_report, out):
    """The labelling stage's files: labels.csv and label_report.json."""
    write_label_csv(table, os.path.join(out, "labels.csv"))
    save_report(label_report.to_json(), os.path.join(out, "label_report.json"))


def save_plan(plan, normals, pool, out):
    """The resampling stage's files: plan.json, with the gap histogram of
    the normal training rows the plan was made for, and resampled.csv, the
    pool it made of them."""
    histogram = plan.gap_histogram or collect_candidates(normals)[2]
    save_report(dict(plan.to_json(), gap_histogram={
        str(gap): n for gap, n in histogram.items()}),
        os.path.join(out, "plan.json"))
    write_feature_csv(pool, os.path.join(out, "resampled.csv"))


# Every file that _stage_writers and _write_artifacts can write under
# cfg.out_dir
_RUN_OUTPUTS = (
    "labels.csv", "label_report.json", "plan.json", "resampled.csv",
    "features.csv", "split.csv", "scaler.json", "report.json",
    "threshold.json", "percentile_table.csv", "loss_curve.csv",
    "summary.csv") + tuple(os.path.join("models", "%s.json" % name)
                           for name in ("autoencoder", "iforest", "lof",
                                        "dbscan"))


def _remove_outputs(out):
    """Remove every file of _RUN_OUTPUTS that an earlier run left under
    ``out``, so a run never leaves another run's files beside its own."""
    for name in _RUN_OUTPUTS:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out, name))


def _stage_writers(cfg, table, label_report, data):
    """Writers of the files under cfg.out_dir that depend on no model: the
    output directories, then the labelling, resampling and split stages'
    files, and features.csv with dump_features."""
    out = cfg.out_dir
    write = functools.partial
    writers = [write(os.makedirs, os.path.join(out, "models"),
                     exist_ok=True),
               write(save_labels, table, label_report, out)]
    if data.plan is not None:
        writers.append(write(save_plan, data.plan, data.split.normal_train,
                             data.pool, out))
    if cfg.dump_features:
        writers.append(write(write_feature_csv, table,
                             os.path.join(out, "features.csv")))
    writers.append(write(write_split_csv, data.split,
                         os.path.join(out, "split.csv")))
    return writers


def _write_artifacts(cfg, result):
    """Every file of a run under cfg.out_dir that depends on the models.
    The writers share nothing. Where the LOF or DBSCAN model file is among
    them, run_all deals them across the CPUs, round robin, and raises the
    first error in their order; they are listed heaviest first so that the
    shares come out even, and those two files, which hold their fit rows,
    take the most time. Without them the writers run here, in order: the
    other files are small, and writing them costs less than a fork."""
    out = cfg.out_dir
    write = functools.partial

    writers = [write(save_model, result.models[name],
                     os.path.join(out, "models", "%s.json" % name))
               for name in ("lof", "dbscan", "iforest", "autoencoder")
               if name in result.models]
    writers += [write(save_model, result.scaler,
                      os.path.join(out, "scaler.json")),
                write(save_report, result.report,
                      os.path.join(out, "report.json"))]
    if result.threshold is not None:
        writers += [write(save_report, result.threshold.to_json(),
                          os.path.join(out, "threshold.json")),
                    write(result.percentile_table.save_csv,
                          os.path.join(out, "percentile_table.csv"))]
    if result.loss_curve is not None:
        writers.append(write(result.loss_curve.save_csv,
                             os.path.join(out, "loss_curve.csv")))

    rows = []
    for name, entry in result.report["models"].items():
        m = entry["metrics"]
        rows.append({
            "model": name,
            "resampling": entry["resample_interval"],
            "accuracy": m["accuracy"], "recall": m["recall"],
            "specificity": m["specificity"], "precision": m["precision"],
            "f1_score": m["f1_score"], "auc": m["auc"],
            "n_parameters": entry["n_parameters"],
            "train_time_minutes": entry["runtime_s"] / 60.0,
            "fn_fraction": m["fn_fraction"], "fa_fraction": m["fa_fraction"],
        })
    writers.append(write(write_summary_csv, rows,
                         os.path.join(out, "summary.csv")))
    if {"lof", "dbscan"} & set(result.models):
        run_all(writers)
    else:
        for writer in writers:
            writer()

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
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import train
from .child import _in_child, run_all
from .detectors import (MODEL_PARAMS, NeighbourPass, build_model, load_model,
                        save_model)
from .errors import DataError, LeakageError, _number, load_json
from .features import FeatureTable, Scaler, engineer_tracks, write_feature_csv
from .ingest import parse_csv, load_station_map, deduplicate, group_tracks
from .labelling import label_all, write_label_csv
from .metrics import (confusion, compute_metrics, reshuffle_ci, roc_auc,
                      save_report, write_summary_csv)
from .resampling import collect_candidates, fixed_plan, plan_for, resample
from .thresholding import build_table, flag, select_threshold

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
        return names

    def model_params(self, name):
        """Model ``name``'s grid parameters as this config sets them."""
        return {p: getattr(self, _CONFIG_PREFIX[name] + p)
                for p in MODEL_PARAMS[name]}

    def interval_mode(self):
        """Returns "none", "auto" or an integer number of seconds."""
        v = str(self.resample_interval).strip().lower()
        if v in ("none", "auto"):
            return v
        try:
            return int(float(v))
        except ValueError:
            raise DataError("bad resample_interval %r"
                            % self.resample_interval) from None

    def validate(self):
        for name, frac in (("normal_test_fraction", self.normal_test_fraction),
                           ("anomaly_test_fraction", self.anomaly_test_fraction),
                           ("ae_val_fraction", self.ae_val_fraction)):
            if not 0.0 < frac < 1.0:
                raise DataError("%s must be in (0, 1)" % name)
        if self.split_unit not in ("detection", "fish"):
            raise DataError("split_unit must be 'detection' or 'fish'")
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
        with open(path) as fh:
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
        return {
            "normal_test": len(self.normal_test),
            "normal_train": len(self.normal_train),
            "anomaly_test": len(self.anomaly_test),
            "anomaly_val": len(self.anomaly_val),
        }

    def test_table(self):
        return FeatureTable.concat([self.normal_test, self.anomaly_test])


def write_split_csv(split, path):
    """split.csv: a ``uid,partition`` line for every row of the split,
    partition by partition in field order."""
    with open(path, "w") as f:
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


def _model_entry(name, model, x_test, y_test, interval):
    """Score the test rows once; the model's report entry, less its
    runtime_s."""
    scores = model.scores(x_test)
    cm, m = _evaluate(flag(scores, model.threshold), scores, y_test)
    return {"model": name, "resample_interval": interval,
            "confusion": cm.to_json(), "metrics": m, "ci": None,
            "n_parameters": model.n_parameters}


def _autoencoder_job(data, cfg, x_test, y_test, interval, model_seed, timer):
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
    entry = _model_entry("autoencoder", model, x_test, y_test, interval)
    entry["runtime_s"] = timer() - t0
    entry["threshold"] = threshold.to_json()
    return model, loss_curve, table, threshold, entry


def run_pipeline(labelled, cfg, seed, timer=time.perf_counter):
    """Split/resample/fit/threshold/evaluate on an already labelled table.

    Returns an ExperimentResult whose report carries one entry per model.
    The autoencoder's job runs in a child process (see _in_child) while
    this one fits the classical models; every result is the same as when
    they run one after another.
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
    classical = [name for name in names if name != "autoencoder"]
    # every matrix is built through the guard in this process, in the order
    # the models read them
    for name in names:
        if name == "autoencoder":
            data.ae_train, data.val_x, data.val_y
        else:
            data.fit_x
    job = None
    if "autoencoder" in names:
        job = functools.partial(_autoencoder_job, data, cfg, x_test,
                                test.label, interval, model_seed, timer)

    # LOF's k-neighbourhoods and DBSCAN's eps-counts over fit_x come from
    # one neighbour pass, made by whichever of the two fits first
    neighbours = None
    model_reports = {}
    with (_in_child(job) if job and classical
          else contextlib.nullcontext(job)) as autoencoder:
        try:
            for name in classical:
                t0 = timer()
                model, _ = build_model(name, cfg.model_params(name),
                                       x_test.shape[1], model_seed)
                if name == "iforest":
                    model.fit(data.fit_x)
                else:
                    if neighbours is None:
                        neighbours = NeighbourPass(
                            data.fit_x, data.fit_x, self_excluded=True,
                            ks=[cfg.lof_k] if "lof" in names else [],
                            radii=[cfg.dbscan_eps] if "dbscan" in names
                            else [])
                    model.fit(data.fit_x, neighbours=neighbours)
                result.models[name] = model
                entry = _model_entry(name, model, x_test, test.label,
                                     interval)
                entry["runtime_s"] = timer() - t0
                model_reports[name] = entry
        except Exception:
            # run one after another, the models before the failing one
            # would have raised first
            if job and names.index("autoencoder") < names.index(name):
                autoencoder()
            raise
        if job:
            (result.models["autoencoder"], result.loss_curve,
             result.percentile_table, result.threshold,
             model_reports["autoencoder"]) = autoencoder()
    result.models = {name: result.models[name] for name in names}
    model_reports = {name: model_reports[name] for name in names}

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
    """Full pipeline from CSVs to report files under cfg.out_dir."""
    cfg.validate()
    labelled, label_report, ingest_summary = prepare_table(cfg)
    result = run_pipeline(labelled, cfg, cfg.seed, timer=timer)
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
            reports[name] = _model_entry(name, model, x_test, test.label,
                                         interval)
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


def _write_artifacts(cfg, result):
    """Every file of a run under cfg.out_dir. The writers share nothing,
    so run_all deals them across the CPUs, round robin. Each one runs to
    its end, and the first error in the list is raised after all of them,
    so a failed run leaves whole files beside the one that failed. They
    are listed heaviest first so that the shares come out even: the LOF
    and DBSCAN model files take the most time when those models run, and
    without them resampled.csv does, then labels.csv. labels.csv comes
    before resampled.csv, so that those two fall into different shares."""
    out = cfg.out_dir
    os.makedirs(os.path.join(out, "models"), exist_ok=True)
    write = functools.partial

    def model_writers(*names):
        return [write(save_model, result.models[name],
                      os.path.join(out, "models", "%s.json" % name))
                for name in names if name in result.models]

    writers = model_writers("lof", "dbscan")
    writers.append(write(save_labels, result.table, result.label_report,
                         out))
    if result.plan is not None:
        writers.append(write(save_plan, result.plan,
                             result.split.normal_train, result.train_pool,
                             out))
    writers += model_writers("iforest")
    if cfg.dump_features:
        writers.append(write(write_feature_csv, result.table,
                             os.path.join(out, "features.csv")))
    writers.append(write(write_split_csv, result.split,
                         os.path.join(out, "split.csv")))
    writers += model_writers("autoencoder")
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
    errors = run_all([write(_error_of, writer) for writer in writers])
    for error in errors:
        if error is not None:
            raise error


def _error_of(writer):
    """What ``writer()`` raised, or None. A writer that fails then ends no
    other, and none is killed halfway through its file."""
    try:
        writer()
    except Exception as e:  # noqa: BLE001 - raised by _write_artifacts
        return e
    return None

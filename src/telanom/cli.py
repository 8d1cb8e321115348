"""Command line interface.

Every subcommand is a stage of the pipeline (plus ``synth`` and ``run``);
stage artifacts land as CSV/JSON under --out so any stage can be rerun and
inspected in isolation.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .errors import DataError

log = logging.getLogger("telanom")


def _load_config(args):
    from .pipeline import RunConfig

    cfg = (RunConfig.from_file(args.config) if getattr(args, "config", None)
           else RunConfig())
    for key in ("input_csv", "station_csv", "out_dir", "seed"):
        flag = {"input_csv": "input", "station_csv": "stations",
                "out_dir": "out", "seed": "seed"}[key]
        value = getattr(args, flag, None)
        if value is not None:
            cfg = dataclasses.replace(cfg, **{key: value})
    if getattr(args, "resample_interval", None) is not None:
        cfg = dataclasses.replace(cfg,
                                  resample_interval=args.resample_interval)
    if getattr(args, "max_points", None) is not None:
        cfg = dataclasses.replace(cfg, max_points=args.max_points)
    if getattr(args, "models", None) is not None:
        cfg = dataclasses.replace(cfg, models=args.models)
    if getattr(args, "ci_repeats", None) is not None:
        cfg = dataclasses.replace(cfg, ci_repeats=args.ci_repeats)
    return cfg.validate()


def _need(cfg, *attrs):
    for attr in attrs:
        if not getattr(cfg, attr):
            raise DataError("missing required setting %r "
                            "(flag or config file)" % attr)


def _outdir(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    print(path)


# --------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    from .synthgen import SynthConfig, generate, write_station_csv, config_json
    from .ingest import write_detections_csv

    scfg = SynthConfig()
    if args.config:
        with open(args.config) as f:
            raw = json.load(f)
        try:
            scfg = SynthConfig(**raw)
        except TypeError as e:
            raise DataError("bad generator config: %s" % e)
    overrides = {"n_fish": args.fish, "span_days": args.days,
                 "seed": args.seed}
    for key, val in overrides.items():
        if val is not None:
            scfg = dataclasses.replace(scfg, **{key: val})
    records, station_map, gt = generate(scfg)

    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    write_detections_csv(records, os.path.join(out, "detections.csv"))
    write_station_csv(station_map, os.path.join(out, "stations.csv"))
    gt.save_csv(os.path.join(out, "ground_truth.csv"))
    _write_json({"config": config_json(scfg),
                 "n_detections": len(records),
                 "n_anomalous": gt.n_anomalous()},
                os.path.join(out, "synth.json"))
    return 0


def cmd_ingest(args):
    from .ingest import (parse_csv, load_station_map, deduplicate,
                         write_detections_csv)

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    station_map = load_station_map(cfg.station_csv)
    detections, report = parse_csv(cfg.input_csv, station_map)
    detections, n_dups = deduplicate(detections)
    out = _outdir(cfg)
    write_detections_csv(detections,
                         os.path.join(out, "detections_clean.csv"))
    _write_json({"rows_read": report.n_rows, "rows_parsed": report.n_parsed,
                 "rows_dropped": report.dropped,
                 "duplicates_removed": n_dups,
                 "n_fish": len(set(detections.fish_id.tolist()))},
                os.path.join(out, "ingest.json"))
    return 0


def cmd_features(args):
    from .features import write_feature_csv
    from .pipeline import prepare_table

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    table, _report, _ingest = prepare_table(cfg)
    out = _outdir(cfg)
    write_feature_csv(table, os.path.join(out, "features.csv"), full=True)
    print(os.path.join(out, "features.csv"))
    return 0


def cmd_label(args):
    from .labelling import write_label_csv
    from .pipeline import prepare_table

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    table, report, _ingest = prepare_table(cfg)
    out = _outdir(cfg)
    write_label_csv(table, os.path.join(out, "labels.csv"))
    report.save(os.path.join(out, "label_report.json"))
    print(os.path.join(out, "labels.csv"))
    return 0


def cmd_resample(args):
    import numpy as np
    from .features import write_feature_csv
    from .pipeline import prepare_table
    from .resampling import collect_candidates, fixed_plan, plan_for, resample

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    table, _report, _ingest = prepare_table(cfg)
    normals = table.take(np.flatnonzero(table.label == 1))
    mode = cfg.interval_mode()
    if mode == "none":
        raise DataError("resample_interval is 'none'; nothing to do")
    plan = (plan_for(normals, cfg.max_points) if mode == "auto"
            else fixed_plan(mode, cfg.max_points))
    resampled = resample(normals, plan)
    out = _outdir(cfg)
    plan.save(os.path.join(out, "plan.json"),
              histogram=plan.gap_histogram or collect_candidates(normals)[2])
    write_feature_csv(resampled, os.path.join(out, "resampled.csv"), full=True)
    print(os.path.join(out, "resampled.csv"))
    return 0


def cmd_split(args):
    from .pipeline import prepare_table, split_rows, write_split_csv

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    table, _report, _ingest = prepare_table(cfg)
    split = split_rows(table, cfg, cfg.seed)
    out = _outdir(cfg)
    write_split_csv(split, os.path.join(out, "split.csv"))
    _write_json(split.counts(), os.path.join(out, "split.json"))
    return 0


def cmd_train(args):
    from .pipeline import run_experiment

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    result = run_experiment(cfg)
    print(os.path.join(cfg.out_dir, "report.json"))
    for name in result.models:
        print(os.path.join(cfg.out_dir, "models", "%s.json" % name))
    return 0


def cmd_tune(args):
    import numpy as np
    from .features import Scaler
    from .pipeline import prepare_table, split_rows, train_val_split
    from .resampling import fixed_plan, plan_for, resample
    from .tuning import DEFAULT_GRIDS, grid_search

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    grid = DEFAULT_GRIDS[args.model]
    if args.grid:
        with open(args.grid) as f:
            grid = json.load(f)

    table, _report, _ingest = prepare_table(cfg)
    split = split_rows(table, cfg, cfg.seed)
    mode = cfg.interval_mode()
    pool = split.normal_train
    if mode != "none":
        plan = (plan_for(pool, cfg.max_points) if mode == "auto"
                else fixed_plan(mode, cfg.max_points))
        pool = resample(pool, plan)
    scaler = Scaler().fit(pool.values)

    # candidates are scored on the labelled validation split (held-out
    # normal rows + the anomalous validation half); the test rows stay out
    ae_train_t, ae_val_t = train_val_split(pool, cfg.ae_val_fraction,
                                           cfg.seed)
    val_x = np.vstack([scaler.transform(ae_val_t.values),
                       scaler.transform(split.anomaly_val.values)])
    val_y = np.concatenate([np.ones(len(ae_val_t), dtype=int),
                            np.zeros(len(split.anomaly_val), dtype=int)])
    if args.model == "autoencoder":
        train_x = scaler.transform(ae_train_t.values)
    else:
        train_x = np.vstack([scaler.transform(pool.values),
                             scaler.transform(split.anomaly_val.values)])

    result = grid_search(args.model, grid, train_x, val_x, val_y,
                         seed=cfg.seed)
    out = _outdir(cfg)
    path = os.path.join(out, "tune_%s.csv" % args.model)
    result.save_csv(path)
    _write_json({"model": args.model, "best_params": result.best_params,
                 "best_score": list(result.best_score)},
                os.path.join(out, "tune_%s.json" % args.model))
    print(path)
    return 0


def cmd_threshold(args):
    from .pipeline import run_experiment

    cfg = _load_config(args)
    cfg = dataclasses.replace(cfg, models="autoencoder").validate()
    _need(cfg, "input_csv", "station_csv")
    run_experiment(cfg)
    print(os.path.join(cfg.out_dir, "percentile_table.csv"))
    print(os.path.join(cfg.out_dir, "threshold.json"))
    return 0


def cmd_evaluate(args):
    from .pipeline import evaluate_saved
    from .metrics import save_report

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    report = evaluate_saved(cfg, args.models_dir)
    out = _outdir(cfg)
    save_report(report, os.path.join(out, "evaluation.json"))
    print(os.path.join(out, "evaluation.json"))
    return 0


def cmd_run(args):
    from .pipeline import run_experiment

    cfg = _load_config(args)
    _need(cfg, "input_csv", "station_csv")
    result = run_experiment(cfg)
    for name, entry in sorted(result.report["models"].items()):
        m = entry["metrics"]
        print("%-12s recall=%s precision=%s fn_fraction=%s fa_fraction=%s"
              % (name, m["recall"], m["precision"], m["fn_fraction"],
                 m["fa_fraction"]))
    print(os.path.join(cfg.out_dir, "report.json"))
    return 0


# --------------------------------------------------------------------------


class UsageError(Exception):
    def __init__(self, code, message=""):
        self.code = code
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(1, message)


def _add_common(p, need_data=True):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="global random seed")
    p.add_argument("--out", help="output directory")
    if need_data:
        p.add_argument("--input", help="detections CSV")
        p.add_argument("--stations", help="station map CSV")
        p.add_argument("--resample-interval", dest="resample_interval",
                       help="'auto', 'none' or seconds")
        p.add_argument("--max-points", dest="max_points", type=int,
                       help="row budget for the resampled table")
        p.add_argument("--models", help="comma separated model names")
        p.add_argument("--ci-repeats", dest="ci_repeats", type=int,
                       help="reshuffle repeats for confidence intervals")


def build_parser():
    parser = _Parser(prog="telanom",
                     description="Unsupervised anomaly detection for "
                                 "acoustic fish-telemetry records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="JSON file of generator settings")
    p.add_argument("--fish", type=int)
    p.add_argument("--days", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_synth)

    for name, fn, extra in (
            ("ingest", cmd_ingest, None),
            ("features", cmd_features, None),
            ("label", cmd_label, None),
            ("resample", cmd_resample, None),
            ("split", cmd_split, None),
            ("train", cmd_train, None),
            ("threshold", cmd_threshold, None),
            ("run", cmd_run, None)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("tune", help="hyperparameter grid search")
    _add_common(p)
    p.add_argument("--model", required=True,
                   choices=["iforest", "lof", "dbscan", "autoencoder"])
    p.add_argument("--grid", help="JSON file overriding the default grid")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("evaluate", help="evaluate saved models on the "
                                        "rebuilt test split")
    _add_common(p)
    p.add_argument("--models-dir", required=True,
                   help="output directory of an earlier train/run")
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        if e.message:
            print("error: %s" % e.message, file=sys.stderr)
        return e.code
    except (DataError, FileNotFoundError, json.JSONDecodeError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print("internal error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

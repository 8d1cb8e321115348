"""Command line interface.

Every subcommand is a stage of the pipeline (plus ``synth``); stage
artifacts land as CSV/JSON under --out so any stage can be rerun and
inspected in isolation. ``train``, ``threshold`` and ``run`` are one path
that prints different files. ``resample`` and ``tune`` read the training
side that ``run`` builds (pipeline.prepare_training), so they see the same
leakage-guarded pool and never a held-out test row.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .errors import DataError, load_json


# command-line flag (argparse dest) -> the RunConfig field it sets
_FLAG_FIELDS = {"input": "input_csv", "stations": "station_csv",
                "out": "out_dir", "seed": "seed",
                "resample_interval": "resample_interval",
                "max_points": "max_points", "models": "models",
                "ci_repeats": "ci_repeats"}


def _load_config(args):
    """RunConfig from the flags, then the --config file, then defaults.
    Every subcommand that reads one needs both input CSVs."""
    from .pipeline import RunConfig

    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    flags = {name: getattr(args, flag) for flag, name in _FLAG_FIELDS.items()
             if getattr(args, flag) is not None}
    cfg = dataclasses.replace(cfg, **flags).validate()
    for name in ("input_csv", "station_csv"):
        if not getattr(cfg, name):
            raise DataError("missing required setting %r "
                            "(flag or config file)" % name)
    return cfg


def _outdir(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_json(obj, path):
    from .metrics import save_report

    save_report(obj, path)
    print(path)


# --------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    from .synthgen import SynthConfig, generate, write_station_csv, config_json
    from .ingest import write_detections_csv

    scfg = SynthConfig()
    if args.config:
        raw = load_json(args.config, dict)
        try:
            scfg = SynthConfig(**raw)
        except TypeError as e:
            raise DataError("bad generator config: %s" % e)
    flags = {"n_fish": args.fish, "span_days": args.days, "seed": args.seed}
    scfg = dataclasses.replace(scfg, **{key: val for key, val in flags.items()
                                        if val is not None})
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
    from .ingest import write_detections_csv
    from .pipeline import ingest_detections

    cfg = _load_config(args)
    _station_map, detections, summary = ingest_detections(cfg)
    out = _outdir(cfg)
    write_detections_csv(detections,
                         os.path.join(out, "detections_clean.csv"))
    _write_json(summary, os.path.join(out, "ingest.json"))
    return 0


def cmd_label(args):
    """``features`` and ``label``: the labelled feature table, written as
    features.csv or as labels.csv and label_report.json."""
    from .features import write_feature_csv
    from .pipeline import prepare_table, save_labels

    cfg = _load_config(args)
    table, report, _ingest = prepare_table(cfg)
    out = _outdir(cfg)
    if args.command == "features":
        path = os.path.join(out, "features.csv")
        write_feature_csv(table, path)
    else:
        path = os.path.join(out, "labels.csv")
        save_labels(table, report, out)
    print(path)
    return 0


def cmd_resample(args):
    from .pipeline import prepare_table, prepare_training, save_plan

    cfg = _load_config(args)
    if cfg.interval_mode() == "none":
        raise DataError("resample_interval is 'none'; nothing to do")
    data = prepare_training(prepare_table(cfg)[0], cfg, cfg.seed)
    out = _outdir(cfg)
    save_plan(data.plan, data.split.normal_train, data.pool, out)
    print(os.path.join(out, "resampled.csv"))
    return 0


def cmd_split(args):
    from .pipeline import prepare_table, split_rows, write_split_csv

    cfg = _load_config(args)
    table, _report, _ingest = prepare_table(cfg)
    split = split_rows(table, cfg, cfg.seed)
    out = _outdir(cfg)
    write_split_csv(split, os.path.join(out, "split.csv"))
    _write_json(split.counts(), os.path.join(out, "split.json"))
    return 0


def cmd_tune(args):
    from .pipeline import prepare_table, prepare_training
    from .tuning import DEFAULT_GRIDS, grid_search

    cfg = _load_config(args)
    grid = (load_json(args.grid, dict) if args.grid
            else DEFAULT_GRIDS[args.model])

    # candidates fit on run's training rows and are scored on its labelled
    # validation rows; the test rows stay out
    data = prepare_training(prepare_table(cfg)[0], cfg, cfg.seed)
    result = grid_search(args.model, grid, data.fit_x, data.val_x,
                         data.val_y, seed=cfg.seed)
    out = _outdir(cfg)
    path = os.path.join(out, "tune_%s.csv" % args.model)
    result.save_csv(path)
    _write_json({"model": args.model, "best_params": result.best_params,
                 "best_score": list(result.best_score)},
                os.path.join(out, "tune_%s.json" % args.model))
    print(path)
    return 0


def cmd_evaluate(args):
    from .pipeline import evaluate_saved

    cfg = _load_config(args)
    report = evaluate_saved(cfg, args.models_dir)
    _write_json(report, os.path.join(_outdir(cfg), "evaluation.json"))
    return 0


def cmd_run(args):
    """``run``, ``train`` and ``threshold``: the full pipeline (the
    autoencoder alone for ``threshold``); they differ in what they print."""
    from .pipeline import run_experiment

    cfg = _load_config(args)
    if args.command == "threshold":
        cfg = dataclasses.replace(cfg, models="autoencoder").validate()
    result = run_experiment(cfg)
    if args.command == "threshold":
        printed = ["percentile_table.csv", "threshold.json"]
    elif args.command == "train":
        printed = ["report.json"] + [os.path.join("models", "%s.json" % name)
                                     for name in result.models]
    else:
        for name, entry in sorted(result.report["models"].items()):
            m = entry["metrics"]
            print("%-12s recall=%s precision=%s fn_fraction=%s "
                  "fa_fraction=%s" % (name, m["recall"], m["precision"],
                                      m["fn_fraction"], m["fa_fraction"]))
        printed = ["report.json"]
    for name in printed:
        print(os.path.join(cfg.out_dir, name))
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


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="global random seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--input", help="detections CSV")
    p.add_argument("--stations", help="station map CSV")
    p.add_argument("--resample-interval", dest="resample_interval",
                   help="'auto', 'none' or seconds")
    p.add_argument("--max-points", dest="max_points", type=int,
                   help="budget on the automatic plan's projected grid "
                   "count; the resampled pool can exceed it")
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

    for name, fn in (
            ("ingest", cmd_ingest),
            ("features", cmd_label),
            ("label", cmd_label),
            ("resample", cmd_resample),
            ("split", cmd_split),
            ("train", cmd_run),
            ("threshold", cmd_run),
            ("run", cmd_run)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("tune", help="hyperparameter grid search")
    _add_common(p)
    p.add_argument("--model", required=True,
                   choices=["iforest", "lof", "dbscan"])
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
    except (DataError, FileNotFoundError) as e:
        print("data error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print("internal error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Batch CLI: ingest, train, classify, experiment, sweep, roc, bench, analyze.

ingest --synthetic, experiment, sweep and roc read a JSON config (--config)
whose fields can be overridden with --set key=value (dotted keys reach nested
sections). Errors exit nonzero with a machine-readable JSON object on
stderr.
"""

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from . import analysis, harness, io
from .classifiers import CLASSIFIERS, fit
from .dictionary import build_dictionary, build_projector
from .errors import ConfigInvalid, RepclassError
from .harness import ExperimentConfig
from .solvers import solve_constrained_lp


def _load_config(args, path=None):
    """The JSON config object at path (default --config), with --set applied."""
    path = path or getattr(args, "config", None)
    obj = {}
    if path:
        obj = json.loads(Path(path).read_text())
        if not isinstance(obj, dict):
            raise ConfigInvalid(f"{path}: config is not an object")
    for item in getattr(args, "set", None) or []:
        key, _, val = item.partition("=")
        try:
            val = json.loads(val)
        except json.JSONDecodeError:
            pass
        node = obj
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigInvalid(f"cannot set {key!r}: {part!r} is not an object")
        node[parts[-1]] = val
    return obj


def _write_text(path, text, end="\n"):
    """Write text to the file at path, or print it followed by end."""
    if path:
        Path(path).write_text(text)
    else:
        print(text, end=end)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2))


def _write_csv(path, header, rows):
    """Write the header line, then one "a,b" line per pair (a, b) of rows."""
    lines = [header] + [f"{a},{b}" for a, b in rows]
    _write_text(path, "\n".join(lines) + "\n", end="")


# the flags of the other source, which ingest rejects rather than ignores
_INGEST_EXCLUDES = {"synthetic": ("path", "train_per_class"), "path": ("config", "set", "seed")}


def cmd_ingest(args):
    source = "synthetic" if args.synthetic else "path" if args.path is not None else None
    if source is None:
        raise ConfigInvalid("ingest needs --path or --synthetic")
    for flag in _INGEST_EXCLUDES[source]:
        if getattr(args, flag) is not None:
            raise ConfigInvalid(f"--{flag.replace('_', '-')} does not go with --{source}")
    if args.synthetic:
        if args.seed is None:
            raise ConfigInvalid("--seed is required for synthetic generation")
        cfg = _load_config(args)
        if "seed" in cfg:
            raise ConfigInvalid("the synthetic seed is --seed; drop 'seed' from the config")
        cfg["seed"] = args.seed
        unknown = set(cfg) - set(inspect.signature(harness.synthetic_dataset).parameters)
        if unknown:
            raise ConfigInvalid(f"synthetic config has unknown key {min(unknown)!r}")
        data = harness.synthetic_dataset(**cfg)
    else:
        data = harness.ingest_dataset(args.path, train_per_class=args.train_per_class)
    harness.save_dataset(data, args.out)
    print(json.dumps({"columns": data.n_columns, "classes": len(set(data.labels))}))


def _number(flag, text):
    """text, an entry of --flag, as a float; ConfigInvalid names the flag and
    the entry when it is not a number. Commands parse their numbers before
    they read a file."""
    try:
        return float(text)
    except ValueError:
        raise ConfigInvalid(f"--{flag}: {text!r} is not a number") from None


def cmd_train(args):
    lam = args.lam if args.lam == "auto" else _number("lambda", args.lam)
    data = harness.load_dataset(args.data)
    feats, labels = data.columns("train")
    dictionary = build_dictionary(zip(feats.T, labels))
    lam = ExperimentConfig(lam=lam).resolve_lambda(dictionary.n)
    projector = build_projector(dictionary, lam)
    io.save_dictionary(dictionary, args.out)
    io.save_projector(projector, args.out + ".proj")
    print(json.dumps({"columns": dictionary.n, "classes": dictionary.k, "lambda": lam}))


def cmd_classify(args):
    lam = args.lam if args.lam == "auto" else _number("lambda", args.lam)
    dictionary = io.load_dictionary(args.dict)
    y = io.read_matrix(args.query).ravel()
    config = ExperimentConfig(classifier=args.classifier, lam=lam)
    # fit reuses the trained projector when it was built at the requested lambda
    projector = io.load_projector(args.dict + ".proj") if args.classifier == "crc_rls" else None
    b = fit(dictionary, config, projector).decide_block(y[:, None])
    residuals = dict(zip(dictionary.classes, harness._jsonable(b.scores[:, 0])))
    print(json.dumps({"predicted": dictionary.classes[b.predicted[0]], "residuals": residuals}))


def cmd_experiment(args):
    """Run one experiment; the report's stages add the seconds of `load`
    (load_dataset) and `log_write` (the query log, 0 when none is asked
    for), so the log is written before the report."""
    config = ExperimentConfig.from_json(_load_config(args))
    stages = harness.Stages(load=0.0, log_write=0.0)
    data = stages.time("load", harness.load_dataset, args.data)
    report = harness.run_experiment(config, data)
    if args.log:
        stages.time("log_write", report.write_query_log, args.log)
    report.stages.update(stages)
    _write_json(args.out, report.to_json())


def cmd_sweep(args):
    config = ExperimentConfig.from_json(_load_config(args))
    lambdas = sorted(_number("lambdas", x) for x in args.lambdas.split(","))
    data = harness.load_dataset(args.data)
    reports = harness.lambda_sweep(config, data, lambdas)
    rates = [r.recognition_rate for r in reports]
    _write_csv(args.out, "lambda,recognition_rate", zip(lambdas, rates))


def cmd_roc(args):
    config = ExperimentConfig.from_json(_load_config(args))
    thresholds = [_number("thresholds", x) for x in args.thresholds.split(",")]
    gallery = harness.load_dataset(args.gallery)
    customers = harness.load_dataset(args.customers)
    imposters = harness.load_dataset(args.imposters)
    points = harness.run_roc(config, gallery, customers, imposters, thresholds)
    _write_json(args.out, {"points": points, "auc": harness.roc_auc(points)})


def cmd_bench(args):
    data = harness.load_dataset(args.data)
    configs = [ExperimentConfig.from_json(_load_config(args, p)) for p in args.configs.split(",")]
    table = harness.bench(configs, data, repetitions=args.repetitions)
    _write_json(args.out, table)


# the flags each analyze mode needs beyond --input
_ANALYZE_FLAGS = {
    "residual_curve": ("query", "grid"),
    "geometry": ("query", "label"),
    "perturbation": ("delta", "query"),
}


def cmd_analyze(args):
    for flag in _ANALYZE_FLAGS.get(args.mode, ()):
        if getattr(args, flag) is None:
            raise ConfigInvalid(f"--mode {args.mode} needs --{flag}")
    if args.mode == "coef_fit":
        coefs = io.read_matrix(args.input).ravel()
        rep = dataclasses.asdict(analysis.coef_distribution_fit(coefs, bins=args.bins))
        del rep["bin_edges"], rep["counts"]
        _write_json(args.out, rep)
    elif args.mode == "residual_curve":
        grid = [_number("grid", x) for x in args.grid.split(",")]
        Phi = io.read_matrix(args.input)
        y = io.read_matrix(args.query).ravel()
        _write_csv(args.out, "epsilon,residual", solve_constrained_lp(Phi, y, args.p, grid))
    elif args.mode == "geometry":
        dictionary = io.load_dictionary(args.input)
        y = io.read_matrix(args.query).ravel()
        rep = analysis.geometry_check(dictionary, y, args.label)
        _write_json(args.out, dataclasses.asdict(rep))
    else:  # perturbation
        X = io.read_matrix(args.input)
        delta = io.read_matrix(args.delta)
        y = io.read_matrix(args.query).ravel()
        _write_json(args.out, analysis.perturbation_demo(X, delta, y))


def build_parser():
    parser = argparse.ArgumentParser(prog="repclass")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")

    p = sub.add_parser("ingest", help="load or generate a dataset")
    common(p)
    p.add_argument("--seed", type=int, help="seed of --synthetic generation")
    p.add_argument("--path", help="directory with one subdirectory of PGM images per class")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--train-per-class", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="build dictionary and projector")
    p.add_argument("--data", required=True)
    p.add_argument("--lambda", dest="lam", default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify one query vector")
    p.add_argument("--dict", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--classifier", default="crc_rls", choices=CLASSIFIERS)
    p.add_argument("--lambda", dest="lam", default="auto")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("experiment", help="run one batch experiment")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--log", help="per-query JSON-lines log path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("sweep", help="lambda sweep")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--lambdas", required=True, help="comma-separated positive values")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roc", help="SCI-threshold ROC over customer/imposter sets")
    common(p)
    p.add_argument("--gallery", required=True)
    p.add_argument("--customers", required=True)
    p.add_argument("--imposters", required=True)
    p.add_argument("--thresholds", default=",".join(str(t / 20) for t in range(21)))
    p.add_argument("--out")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("bench", help="timing comparison across configs")
    p.add_argument("--configs", required=True, help="comma-separated config paths")
    p.add_argument("--data", required=True)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="diagnostic studies")
    p.add_argument("--mode", required=True,
                   choices=("coef_fit", "residual_curve", "geometry", "perturbation"))
    p.add_argument("--input", required=True)
    p.add_argument("--query")
    p.add_argument("--delta")
    p.add_argument("--label")
    p.add_argument("--bins", type=int, default=101)
    p.add_argument("--p", type=int, default=2, choices=(0, 1, 2))
    p.add_argument("--grid")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (RepclassError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

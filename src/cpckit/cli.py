"""Command-line interface.

Subcommands: synth, preprocess, train-extractor, extract, baseline, cpc,
sweep, cv. Exit codes: 0 success, 1 usage or configuration error, 2 data
error, 3 numerical failure. Reports embed the full configuration and seed,
and identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from .classifiers import ClassifierSpec, forest_spec, softmax_spec, svm_spec
from .cpc import (
    EXCLUDE_IN_FOLD,
    INCLUDE_ALL,
    SINGLE_FOLD,
    COMPLEMENT,
    CpcConfig,
    check_theta,
)
from .dataset import generate_two_regime, load_dataset, write_dataset
from .errors import ConfigError, DataError, NumericalError, load_json, save_json
from .harness import (
    ExtractorConfig,
    PipelineConfig,
    PreprocessConfig,
    cross_validate,
    evaluate,
    run_pipeline,
    theta_sweep,
    write_report,
    write_sweep_curve,
)
from .mlp import (TrainConfig, check_arch, extract_features, fit_extractor, mlp_from_json,
                  mlp_to_json, parse_arch)
from .preprocess import (
    apply_whitening,
    fit_zca,
    normalize_samples,
    transform_from_json,
    transform_to_json,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this CLI reserves 2 for
    data errors, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _domain(cast, ok, what: str):
    """An argparse type= that refuses a value outside the domain its config
    checks, so a bad flag exits 1 whether or not the run uses it."""
    def parse(text):
        if not ok(value := cast(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value!r}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid int value" names it
    return parse


def _at_least(low: int):
    return _domain(int, lambda v: v >= low, f"an integer of at least {low}")


_seed = _at_least(0)  # numpy seeds are non-negative integers
_positive = _domain(float, lambda v: 0 < v < math.inf, "finite and positive")
_theta = _domain(float, lambda v: 0 <= v <= 2, "in [0, 2]")  # check_theta's domain


def _echo(args: argparse.Namespace, spec) -> dict:
    """The flags of a run and its classifier's hyperparameters, for reports."""
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    return {**echo, "spec": asdict(spec.hyperparams)}


def _clf_spec(args) -> ClassifierSpec:
    if args.clf == "forest":
        return forest_spec(tree_count=args.trees, max_depth=args.max_depth, seed=args.seed)
    linear_spec = softmax_spec if args.clf == "softmax" else svm_spec
    return linear_spec(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch,
                       l2=args.l2, seed=args.seed)


MAX_GRID_POINTS = 10**6


def _parse_grid(text: str) -> list[float]:
    """start:stop:step, both ends included. The point count is checked
    against MAX_GRID_POINTS first, then each value as it is generated, so
    the expansion stops at the first one outside [0, 2], or at the first
    that, rounded to 10 decimals, does not exceed the last."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {text!r} must look like start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid {text!r} has non-numeric parts") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"grid {text!r} has non-finite parts")
    if step <= 0 or stop < start:
        raise ConfigError(f"grid {text!r} needs step > 0 and stop >= start")
    if math.floor((stop + 1e-9 - start) / step) + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    out = []
    i = 0
    while True:
        v = round(start + i * step, 10)
        if v > stop + 1e-9:
            break
        check_theta(v)
        if out and v <= out[-1]:
            raise ConfigError(f"grid {text!r} step is below the 1e-10 resolution")
        out.append(v)
        i += 1
    return out


def _cpc_config(args, spec) -> CpcConfig:
    return CpcConfig(
        base_spec=spec,
        expert_spec=spec,
        k_folds=args.k_folds,
        repetitions=args.m,
        theta=getattr(args, "theta", 0.5),
        disc_k=args.disc_k,
        ease_mode=args.ease_mode,
        fold_training=args.fold_training,
        seed=args.seed,
    )


def _pipeline_config(args, spec) -> PipelineConfig:
    """cv's pipeline; baseline and cpc name their mode by their command and
    have no preprocessing or extractor flags. The cpc mode's learner is a
    CpcConfig around spec, the baseline's is spec itself."""
    mode = getattr(args, "mode", args.command)
    learner = _cpc_config(args, spec) if mode == "cpc" else spec
    if args.command != "cv":
        return PipelineConfig(learner)
    extractor = None
    if args.arch:
        train = TrainConfig(epochs=args.extractor_epochs, seed=args.seed)
        extractor = ExtractorConfig(args.arch, train)
    preprocess = PreprocessConfig(normalize=args.normalize, zca=args.zca, epsilon=args.epsilon)
    return PipelineConfig(learner, preprocess, extractor)


# handlers ----------------------------------------------------------------

def _cmd_synth(args) -> int:
    ds = generate_two_regime(
        args.n_easy,
        args.n_hard,
        args.classes,
        args.dim,
        args.easy_margin,
        args.hard_margin,
        seed=args.seed,
    )
    write_dataset(ds, args.out)
    return 0


def _cmd_preprocess(args) -> int:
    if args.transform_in and (args.zca or args.transform_out):
        raise ConfigError("--transform-in takes neither --zca nor --transform-out")
    if args.transform_out and not args.zca:
        raise ConfigError("--transform-out needs --zca")
    ds = load_dataset(args.input, has_header=args.has_header)
    if args.normalize:
        ds = normalize_samples(ds, args.eps_norm)
    if args.transform_in or args.zca:
        t = (load_json(args.transform_in, transform_from_json) if args.transform_in
             else fit_zca(ds, args.epsilon))
        ds = apply_whitening(t, ds)
    if args.transform_out:
        save_json(transform_to_json(t), args.transform_out)
    write_dataset(ds, args.out)
    return 0


def _cmd_train_extractor(args) -> int:
    cfg = TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        dropout=args.dropout,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
    )
    check_arch(*parse_arch(args.arch), feature_tap=args.feature_tap)  # before the data
    ds = load_dataset(args.input, has_header=args.has_header)
    model, trace = fit_extractor(ds, args.arch, cfg, feature_tap=args.feature_tap)
    save_json(mlp_to_json(model), args.model_out)
    if trace:
        print(f"final epoch loss {trace[-1]:.6f}")
    return 0


def _cmd_extract(args) -> int:
    model = load_json(args.model, mlp_from_json)
    ds = load_dataset(args.input, has_header=args.has_header)
    write_dataset(extract_features(model, ds), args.out)
    return 0


def _cmd_train_test(args) -> int:
    """baseline and cpc: the pipeline of cv, in the mode named by the
    command, on one (train, test) split."""
    train_ds = load_dataset(args.train, has_header=args.has_header)
    test_ds = load_dataset(
        args.test, has_header=args.has_header, label_map=train_ds.label_map
    )
    spec = _clf_spec(args)
    [(preds, routes)] = run_pipeline([(train_ds, test_ds)], _pipeline_config(args, spec))
    report = evaluate(
        preds,
        test_ds.labels,
        train_ds.class_count,
        routes=routes,
        config=_echo(args, spec),
        seed=args.seed,
    )
    write_report(report, args.report)
    print(f"accuracy {report['accuracy']:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    train_ds = load_dataset(args.train, has_header=args.has_header)
    val_ds = load_dataset(
        args.val, has_header=args.has_header, label_map=train_ds.label_map
    )
    spec = _clf_spec(args)
    cfg = _cpc_config(args, spec)
    grid = _parse_grid(args.grid)
    result = theta_sweep(train_ds, val_ds, grid, cfg)
    if args.curve_out:
        write_sweep_curve(result, args.curve_out)
    if args.report:
        write_report({**asdict(result), "config": _echo(args, spec), "seed": args.seed},
                     args.report)
    print(f"best theta {result.best_theta}")
    return 0


def _cmd_cv(args) -> int:
    ds = load_dataset(args.input, has_header=args.has_header)
    spec = _clf_spec(args)
    result = cross_validate(ds, _pipeline_config(args, spec), folds=args.folds, seed=args.seed)
    write_report({**result, "config": _echo(args, spec), "seed": args.seed}, args.report)
    print(f"mean accuracy {result['mean_accuracy']:.4f} (+/- {result['std_accuracy']:.4f})")
    return 0


# parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cpckit", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    # flag groups that several commands share, each declared once
    header, seed, prep, clf, cpc = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    header.add_argument("--has-header", action="store_true")
    seed.add_argument("--seed", type=_seed, default=0)
    prep.add_argument("--normalize", action="store_true")
    prep.add_argument("--zca", action="store_true")
    prep.add_argument("--epsilon", type=_positive, default=1e-6)
    clf.add_argument("--clf", choices=["softmax", "svm", "forest"], default="softmax")
    clf.add_argument("--lr", type=_positive, default=0.05)
    clf.add_argument("--epochs", type=_at_least(0), default=100)
    clf.add_argument("--batch", type=_at_least(1), default=128)
    clf.add_argument("--l2", default=1e-4,
                     type=_domain(float, lambda v: 0 <= v < math.inf, "finite and non-negative"))
    clf.add_argument("--trees", type=_at_least(1), default=100)
    clf.add_argument("--max-depth", type=_at_least(1), default=None)
    cpc.add_argument("--k-folds", type=_at_least(2), default=5)
    cpc.add_argument("--m", type=_at_least(1), default=3)
    cpc.add_argument("--disc-k", type=_at_least(1), default=25)
    cpc.add_argument("--ease-mode", choices=[INCLUDE_ALL, EXCLUDE_IN_FOLD], default=INCLUDE_ALL)
    cpc.add_argument("--fold-training", choices=[SINGLE_FOLD, COMPLEMENT], default=SINGLE_FOLD)

    p = sub.add_parser("synth", parents=[seed], help="generate two-regime Gaussian data")
    p.add_argument("--n-easy", type=int, required=True)
    p.add_argument("--n-hard", type=int, required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--easy-margin", type=float, default=6.0)
    p.add_argument("--hard-margin", type=float, default=0.8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", parents=[header, prep],
                       help="normalize and whiten a dataset CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--eps-norm", type=_positive, default=1e-8)
    p.add_argument("--transform-in", default=None)
    p.add_argument("--transform-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train-extractor", parents=[header, seed],
                       help="train the residual MLP extractor")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.5)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--feature-tap", type=int, default=None)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_train_extractor)

    p = sub.add_parser("extract", parents=[header], help="export tap-layer features to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("baseline", parents=[header, clf, seed],
                       help="train and score a single classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_train_test)

    p = sub.add_parser("cpc", parents=[header, clf, cpc, seed],
                       help="train and score the routed model")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--theta", type=_theta, required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_train_test)

    p = sub.add_parser("sweep", parents=[header, clf, cpc, seed],
                       help="validation sweep over the ease threshold")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--grid", default="0.0:1.0:0.1")
    p.add_argument("--curve-out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cv", parents=[header, prep, clf, cpc, seed],
                       help="k-fold cross-validation of a pipeline")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--folds", type=_at_least(2), default=5)
    p.add_argument("--mode", choices=["baseline", "cpc"], default="baseline")
    p.add_argument("--theta", type=_theta, default=0.5)
    p.add_argument("--arch", default=None)
    p.add_argument("--extractor-epochs", type=_at_least(0), default=10)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_cv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return int(args.func(args) or 0)
    except ConfigError as e:
        print(f"cpckit: configuration error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"cpckit: data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"cpckit: numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: train-wsvm, train-svmplus, learn-weights, equiv, experiment,
counterexample, figure3, wshape.  Flags may be preloaded from a plain-text
``key=value`` config file via --config; explicit flags win.  All tabular
output is CSV and deterministic for a fixed seed.  A solve that does not
converge ends the command with one ``error:`` line on stderr and exit
status 1.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import data as dataio
from .equivalence import (NotRepresentableError, construct_privileged,
                          equivalence_report)
from .experiments import (ExperimentConfig, counterexample_dataset,
                          emit_results, figure3_study, run_experiment,
                          wshape_study)
from .kernels import KernelSpec, LINEAR, GAUSSIAN_RBF
from .kkt import b_uniqueness, check_svmplus_kkt, check_wsvm_kkt
from .qp import ConvergenceError
from .serialize import model_to_text
from .svmplus import solve_svmplus
from .weightlearn import WeightLearningConfig, learn_weights
from .wsvm import solve_wsvm

__all__ = ["main", "build_parser"]


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: expected key=value, got {line!r}")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _add_kernel_args(p, prefix=""):
    dash = f"--{prefix}" if prefix else "--"
    p.add_argument(f"{dash}kernel", default=LINEAR,
                   choices=[LINEAR, GAUSSIAN_RBF])
    p.add_argument(f"{dash}bandwidth", type=float, default=None)


def _kernel_from(args, prefix="") -> KernelSpec:
    kind = getattr(args, f"{prefix}kernel" if prefix else "kernel")
    bw = getattr(args, f"{prefix}bandwidth" if prefix else "bandwidth")
    return KernelSpec(kind, bw)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="privsvm")
    top.add_argument("--config", default=None,
                     help="key=value file supplying flag defaults")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-wsvm", help="train a weighted SVM")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", default=None,
                   help="companion file; default uniform")
    p.add_argument("--cost", type=float, default=1.0,
                   help="uniform scale applied to the weights")
    _add_kernel_args(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--b-override", type=float, default=None)
    p.add_argument("--model-out", default=None)
    p.add_argument("--check", action="store_true",
                   help="print the optimality report; exit 1 if it fails")

    p = sub.add_parser("train-svmplus", help="train with privileged features")
    p.add_argument("--data", required=True)
    p.add_argument("--priv", required=True)
    p.add_argument("--cost", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    _add_kernel_args(p)
    _add_kernel_args(p, prefix="priv-")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--model-out", default=None)
    p.add_argument("--check", action="store_true",
                   help="print the optimality report; exit 1 if it fails")

    p = sub.add_parser("learn-weights",
                       help="learn instance weights on a validation split")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    _add_kernel_args(p)
    p.add_argument("--deltas", default="0.01,0.1,1")
    p.add_argument("--mode", default="log", choices=["log", "projected"])
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--weights-out", default=None)
    p.add_argument("--log-out", default=None,
                   help="per-iteration CSV (iteration,objective,val_error)")

    p = sub.add_parser("equiv",
                       help="equivalence diagnostics for a weighted solution")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--cost", type=float, default=1.0)
    _add_kernel_args(p)
    p.add_argument("--candidate", default=None,
                   help="weight file to test for family membership")

    p = sub.add_parser("experiment", help="run the evaluation protocol")
    p.add_argument("--source", default="blobs",
                   choices=["blobs", "wmixture"])
    p.add_argument("--methods", default="svm")
    p.add_argument("--subset-sizes", default="40")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="1-to-2",
                   choices=["fixed-validation", "1-to-2", "2-to-1"])
    p.add_argument("--kernel", default=LINEAR,
                   choices=[LINEAR, GAUSSIAN_RBF])
    p.add_argument("--n-pool", type=int, default=200)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--c-grid", default=None,
                   help="comma-separated override of the cost grid")
    p.add_argument("--gamma-grid", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("counterexample",
                       help="solve the stored three-point instance and "
                            "verify it against expected values")

    p = sub.add_parser("figure3", help="blob-outlier comparison study")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("wshape", help="W-mixture weight-learning study")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return top


def _load_weighted(args):
    data = dataio.load_sparse(args.data)
    if args.weights is not None:
        c = dataio.load_weights(args.weights, data.n)
    else:
        c = np.ones(data.n)
    return data, args.cost * c


def _emit(text: str, path) -> None:
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_train_wsvm(args) -> int:
    data, c = _load_weighted(args)
    model = solve_wsvm(data, _kernel_from(args), c, tol=args.tol,
                       b_override=args.b_override)
    if args.model_out:
        with open(args.model_out, "w") as fh:
            fh.write(model_to_text(model))
    print(f"objective_primal {model.objective_primal:.17g}")
    print(f"objective_dual {model.objective_dual:.17g}")
    print(f"b {model.b:.17g}")
    if args.check:
        report = check_wsvm_kkt(model, tol=max(args.tol, 1e-8))
        print(report.to_text())
        print(b_uniqueness(model).to_text())
        return 0 if report.passed else 1
    return 0


def _cmd_train_svmplus(args) -> int:
    data = dataio.load_sparse(args.data)
    priv = dataio.load_privileged(args.priv, data)
    model = solve_svmplus(data, priv, _kernel_from(args),
                          _kernel_from(args, "priv_"), args.cost, args.gamma,
                          tol=args.tol)
    if args.model_out:
        with open(args.model_out, "w") as fh:
            fh.write(model_to_text(model))
    print(f"objective_primal {model.objective_primal:.17g}")
    print(f"objective_dual {model.objective_dual:.17g}")
    print(f"b {model.b:.17g}")
    print(f"b_tilde {model.b_tilde:.17g}")
    if args.check:
        report = check_svmplus_kkt(model, tol=max(args.tol, 1e-8))
        print(report.to_text())
        return 0 if report.passed else 1
    return 0


def _cmd_learn_weights(args) -> int:
    train = dataio.load_sparse(args.train)
    val = dataio.load_sparse(args.val)
    deltas = tuple(float(t) for t in args.deltas.split(","))
    config = WeightLearningConfig(deltas=deltas, mode=args.mode,
                                  max_outer_iter=args.max_iter)
    result = learn_weights(train, val, _kernel_from(args), config)
    if args.weights_out:
        dataio.save_weights(args.weights_out, result.weights)
    if args.log_out:
        with open(args.log_out, "w") as fh:
            fh.write("iteration,objective,val_error\n")
            for i, (obj, err) in enumerate(result.history):
                fh.write(f"{i},{obj:.6g},{err:.6g}\n")
    print(f"delta {result.delta:.17g}")
    print(f"val_error {result.val_error:.6g}")
    print(f"val_loss {result.val_loss:.6g}")
    return 0


def _cmd_equiv(args) -> int:
    data, c = _load_weighted(args)
    model = solve_wsvm(data, _kernel_from(args), c)
    candidate = (dataio.load_weights(args.candidate, data.n)
                 if args.candidate else None)
    print(equivalence_report(model, candidate=candidate).to_text())
    return 0


def _cmd_experiment(args) -> int:
    kwargs = dict(
        source=args.source,
        methods=tuple(args.methods.split(",")),
        subset_sizes=tuple(int(t) for t in args.subset_sizes.split(",")),
        repetitions=args.repetitions,
        seed=args.seed,
        split=args.split,
        kernel=args.kernel,
        n_pool=args.n_pool,
        n_test=args.n_test,
    )
    if args.c_grid:
        kwargs["C_grid"] = tuple(float(t) for t in args.c_grid.split(","))
    if args.gamma_grid:
        kwargs["gamma_grid"] = tuple(
            float(t) for t in args.gamma_grid.split(","))
    table = run_experiment(ExperimentConfig(**kwargs))
    _emit(emit_results(table), args.out)
    return 0


COUNTEREXAMPLE_EXPECTED = {
    "alpha": (4.0, 6.0, 2.0),
    "beta": (0.0, 0.0, 0.0),
    "slope": -2.0,
    "b": 3.0,
    "xi": (0.0, 0.0, 4.0),
    "rho_unnormalized": -8.0,
    "rho_normalized": -2.0 / 3.0,
}


def _cmd_counterexample(args) -> int:
    data, c = counterexample_dataset()
    model = solve_wsvm(data, KernelSpec(LINEAR), c)
    slope = float(np.sum(model.alpha * data.y * data.X[:, 0]))
    report = equivalence_report(model)
    try:
        construct_privileged(model)
        representable = True
    except NotRepresentableError:
        representable = False
    got = {
        "alpha": tuple(model.alpha),
        "beta": tuple(model.beta),
        "slope": slope,
        "b": model.b,
        "xi": tuple(model.xi),
        "rho_unnormalized": report.rho_unnormalized,
        "rho_normalized": report.rho_normalized,
    }
    ok = not representable
    for key, want in COUNTEREXAMPLE_EXPECTED.items():
        have = got[key]
        close = np.allclose(have, want, atol=1e-6)
        ok = ok and close
        fmt = (lambda v: " ".join(f"{x:.17g}" for x in np.atleast_1d(v)))
        print(f"{key} {fmt(have)} expected {fmt(want)} "
              f"{'ok' if close else 'MISMATCH'}")
    print(f"representable_as_privileged {int(representable)} expected 0 "
          f"{'ok' if not representable else 'MISMATCH'}")
    print(f"check {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _cmd_figure3(args) -> int:
    rows = figure3_study(repetitions=args.reps, seed=args.seed)
    lines = ["rep,svm_error,wsvm_error"]
    lines += [f"{r['rep']},{r['svm_error']:.6g},{r['wsvm_error']:.6g}"
              for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_wshape(args) -> int:
    rows = wshape_study(repetitions=args.reps, seed=args.seed)
    lines = ["rep,svm_error,learned_error"]
    lines += [f"{r['rep']},{r['svm_error']:.6g},{r['learned_error']:.6g}"
              for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


COMMANDS = {
    "train-wsvm": _cmd_train_wsvm,
    "train-svmplus": _cmd_train_svmplus,
    "learn-weights": _cmd_learn_weights,
    "equiv": _cmd_equiv,
    "experiment": _cmd_experiment,
    "counterexample": _cmd_counterexample,
    "figure3": _cmd_figure3,
    "wshape": _cmd_wshape,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # resolve --config before the real parse so file values become defaults
    config_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
    if config_path:
        values = _read_config_file(config_path)
        for subparser in parser._subparsers._group_actions[0].choices.values():
            defaults = {}
            for action in subparser._actions:
                if action.dest not in values:
                    continue
                raw = values[action.dest]
                if isinstance(action, argparse._StoreTrueAction):
                    defaults[action.dest] = raw.lower() in ("1", "true", "yes")
                elif action.type is not None:
                    defaults[action.dest] = action.type(raw)
                else:
                    defaults[action.dest] = raw
                action.required = False  # the file satisfied it
            subparser.set_defaults(**defaults)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

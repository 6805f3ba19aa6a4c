"""Command-line front end.

Subcommands: train-wsvm, train-svmplus, learn-weights, equiv, experiment,
counterexample, figure3, wshape.  The defaults of the experiment,
learn-weights and --tol flags are read from ExperimentConfig,
WeightLearningConfig and wsvm.DEFAULT_TOL, and those of figure3 and wshape
from the signatures of figure3_study and wshape_study.

Flag defaults may be preloaded from a plain-text ``key=value`` config file
via --config (``#`` starts a comment; a key is a flag name without the
leading dashes).  The parser is built with the file's values as defaults:
explicit flags win, a file value satisfies a required flag, true/yes/1
turns a switch on (any other value leaves it off), and keys that no flag
of the chosen subcommand takes are ignored.

All tabular output is CSV and deterministic for a fixed seed.  A solve
that does not converge, an input that a solver or a config rejects, or a
file that cannot be read or parsed (a --config file included) ends the
command with one ``error:`` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from dataclasses import fields

import numpy as np

from . import data as dataio
from .equivalence import equivalence_report
from .experiments import (SPLITS, ExperimentConfig, counterexample_dataset,
                          emit_results, figure3_study, run_experiment,
                          wshape_study)
from .kernels import KernelSpec, LINEAR, GAUSSIAN_RBF
from .kkt import b_uniqueness, check_svmplus_kkt, check_wsvm_kkt
from .qp import ConvergenceError
from .serialize import model_to_text
from .svmplus import solve_svmplus
from .weightlearn import WeightLearningConfig, learn_weights
from .wsvm import DEFAULT_TOL, solve_wsvm

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


def _comma_list(cast):
    """A ``type=`` converter for comma-separated values."""
    def parse(text):
        return tuple(cast(t) for t in text.split(","))
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _kernel_from(args, prefix="") -> KernelSpec:
    return KernelSpec(getattr(args, f"{prefix}kernel"),
                      getattr(args, f"{prefix}bandwidth"))


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The privsvm parser.  ``defaults`` maps flag names (dashes written as
    underscores) to raw strings from a --config file; each replaces that
    flag's default, so explicit flags still win, argparse converts it
    through the flag's ``type=``, and it satisfies a required flag.  For a
    switch, true/yes/1 turns it on.  Keys that no flag takes are ignored."""
    file = defaults or {}
    exp, wl = ExperimentConfig(), WeightLearningConfig()
    fig3 = inspect.signature(figure3_study).parameters
    wsh = inspect.signature(wshape_study).parameters

    def add(p, name, default=None, required=False, **kwargs):
        raw = file.get(name[2:].replace("-", "_"))
        if raw is not None and kwargs.get("action") == "store_true":
            default = raw.lower() in ("1", "true", "yes")
        elif raw is not None:
            default, required = raw, False
        p.add_argument(name, default=default, required=required, **kwargs)

    def add_kernel(p, prefix=""):
        add(p, f"--{prefix}kernel", LINEAR, choices=[LINEAR, GAUSSIAN_RBF])
        add(p, f"--{prefix}bandwidth", type=float)

    top = argparse.ArgumentParser(prog="privsvm")
    top.add_argument("--config", default=None,
                     help="key=value file supplying flag defaults")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-wsvm", help="train a weighted SVM")
    add(p, "--data", required=True)
    add(p, "--weights", help="companion file; default uniform")
    add(p, "--cost", 1.0, type=float,
        help="uniform scale applied to the weights")
    add_kernel(p)
    add(p, "--tol", DEFAULT_TOL, type=float)
    add(p, "--b-override", type=float)
    add(p, "--model-out")
    add(p, "--check", False, action="store_true",
        help="print the optimality report; exit 1 if it fails")

    p = sub.add_parser("train-svmplus", help="train with privileged features")
    add(p, "--data", required=True)
    add(p, "--priv", required=True)
    add(p, "--cost", 1.0, type=float)
    add(p, "--gamma", 1.0, type=float)
    add_kernel(p)
    add_kernel(p, prefix="priv-")
    add(p, "--tol", DEFAULT_TOL, type=float)
    add(p, "--model-out")
    add(p, "--check", False, action="store_true",
        help="print the optimality report; exit 1 if it fails")

    p = sub.add_parser("learn-weights",
                       help="learn instance weights on a validation split")
    add(p, "--train", required=True)
    add(p, "--val", required=True)
    add_kernel(p)
    add(p, "--deltas", wl.deltas, type=_comma_list(float))
    add(p, "--mode", wl.mode, choices=["log", "projected"])
    add(p, "--max-iter", wl.max_outer_iter, type=int)
    add(p, "--weights-out")
    add(p, "--log-out",
        help="CSV of each accepted iterate (iteration,objective,val_error)")

    p = sub.add_parser("equiv",
                       help="equivalence diagnostics for a weighted solution")
    add(p, "--data", required=True)
    add(p, "--weights")
    add(p, "--cost", 1.0, type=float)
    add_kernel(p)
    add(p, "--candidate", help="weight file to test for family membership")

    p = sub.add_parser("experiment", help="run the evaluation protocol")
    add(p, "--source", exp.source, choices=["blobs", "wmixture"])
    add(p, "--methods", exp.methods, type=_comma_list(str))
    add(p, "--subset-sizes", exp.subset_sizes, type=_comma_list(int))
    add(p, "--repetitions", exp.repetitions, type=int)
    add(p, "--seed", exp.seed, type=int)
    add(p, "--split", exp.split, choices=SPLITS)
    add(p, "--kernel", exp.kernel, choices=[LINEAR, GAUSSIAN_RBF])
    add(p, "--n-pool", exp.n_pool, type=int)
    add(p, "--n-test", exp.n_test, type=int)
    add(p, "--c-grid", exp.C_grid, type=_comma_list(float), dest="C_grid",
        help="comma-separated cost grid")
    add(p, "--gamma-grid", exp.gamma_grid, type=_comma_list(float))
    add(p, "--out")

    sub.add_parser("counterexample",
                   help="solve the stored three-point instance and "
                        "verify it against expected values")

    p = sub.add_parser("figure3", help="blob-outlier comparison study")
    add(p, "--reps", fig3["repetitions"].default, type=int)
    add(p, "--seed", fig3["seed"].default, type=int)
    add(p, "--out")

    p = sub.add_parser("wshape", help="W-mixture weight-learning study")
    add(p, "--reps", wsh["repetitions"].default, type=int)
    add(p, "--seed", wsh["seed"].default, type=int)
    add(p, "--out")
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
        report = check_wsvm_kkt(model, tol=args.tol)
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
        report = check_svmplus_kkt(model, tol=args.tol)
        print(report.to_text())
        return 0 if report.passed else 1
    return 0


def _cmd_learn_weights(args) -> int:
    train = dataio.load_sparse(args.train)
    val = dataio.load_sparse(args.val)
    config = WeightLearningConfig(deltas=args.deltas, mode=args.mode,
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
    names = {f.name for f in fields(ExperimentConfig)}
    config = ExperimentConfig(
        **{k: v for k, v in vars(args).items() if k in names})
    _emit(emit_results(run_experiment(config)), args.out)
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
    slope = float(np.sum(model.coef * data.X[:, 0]))
    report = equivalence_report(model)
    representable = report.constructed is not None
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


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    """The parser without a --config file, built once and reused."""
    return build_parser()


def main(argv=None) -> int:
    # read --config first, so its values become the flags' defaults
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    try:
        parser = (build_parser(_read_config_file(path)) if path
                  else _default_parser())
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except (ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Synthetic generators, the subsample/grid-search protocol, and study drivers.

Two data families are built in: well-separated Gaussian blobs with a few
far-away wrong-label points (where uniform-cost training collapses), and a
five-component Gaussian mixture laid out in a W shape whose exact label
posterior is available in closed form.  ``run_experiment`` wires the
solvers, the weighting schemes and weight learning into one deterministic
evaluation loop; everything is keyed off a single integer seed.

Model selection has one winner rule: every candidate fit is keyed
(validation error, C, kernel rank, extra rank), the lowest key wins and
the first one wins a tie.  Only each method's winner is evaluated on the
test sample.  Each grid is fitted once per split: svm's is the tau = 0
row of wsvm-prob's, and wsvm-from-svmplus is the WSVM built from the SVM+
winner (``equivalence.wsvm_from_svmplus``), with no solve of its own.
Within wsvm-prob's grid a tau row whose weights repeat an earlier row's
bit for bit is not fitted: its fits would repeat that row's bit for bit
under a larger extra rank, so none of them could win.  On the blobs
source, whose confidences are 0 or 1, every tau > 0 row equals the
tau = 0.5 row, and without a planted point all rows are ones.
The kernel matrices are built once per split, not once per fit: one
Q = YKY row source per decision kernel, which the weighted and the SVM+
grids share, and one per privileged kernel (above 256 training points
each fit still computes its own rows).  The test sample and the
fixed-validation pool are draws of the source without planted points.

``ExperimentConfig`` holds only what callers vary.  The C and gamma grid
(DEFAULT_LOG_GRID), the wsvm-prob sharpness grid (DEFAULT_TAU_GRID), the
fixed-validation pool size (N_VAL), the RBF bandwidth quantiles
(``bandwidth_grid``'s default), the shapes of both data families (BLOB_*,
W_*), weight learning's widths and budget (LEARN_*) and the study sizes
(FIGURE3_*, WSHAPE_*) are constants.  In the
1-to-2 and 2-to-1 split modes every subset needs at least 3 points: two
to train on and one to validate on.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, PrivilegedSet
from .equivalence import wsvm_from_svmplus
from .kernels import KernelSpec, LINEAR, GAUSSIAN_RBF, _KernelRows, _sq_dists
from .schemes import probability_weights
from .svmplus import solve_svmplus
from .weightlearn import WeightLearningConfig, learn_weights
from .wsvm import solve_wsvm

__all__ = [
    "BlobsSample",
    "WMixture",
    "generate_blobs_with_outliers",
    "generate_w_mixture",
    "ExperimentConfig",
    "ResultRow",
    "ResultTable",
    "run_experiment",
    "emit_results",
    "parse_results",
    "bandwidth_grid",
    "counterexample_dataset",
    "figure3_study",
    "wshape_study",
]

METHODS = ("svm", "wsvm-prob", "wsvm-learned", "svmplus", "wsvm-from-svmplus")
SPLITS = ("fixed-validation", "1-to-2", "2-to-1")
DEFAULT_TAU_GRID = (0.0, 0.5, 1.0, 2.0, 4.0)  # wsvm-prob sharpness grid
N_VAL = 200  # validation pool size in fixed-validation mode
# C and gamma grid: powers of two from 2^-5 to 2^15, each 4 times the last
DEFAULT_LOG_GRID = tuple(float(2.0**e) for e in range(-5, 16, 2))
BLOB_STD = 0.4     # standard deviation of each blob, and of the jitter
BLOB_OFFSET = 1.5  # distance of each blob center from the origin
FIGURE3_C = 1.0           # cost of every non-planted point, both fits
FIGURE3_N_PER_CLASS = 30  # training blob size per class
WSHAPE_N_TRAIN, WSHAPE_N_VAL, WSHAPE_N_TEST = 60, 600, 1000
WSHAPE_MAX_OUTER = 40  # outer steps of wshape's weight learning
LEARN_DELTAS = (0.1, 1.0)  # smoothing widths of wsvm-learned and wshape
LEARN_MAX_OUTER = 30       # outer steps of wsvm-learned's weight learning


def bandwidth_grid(X, quantiles=(0.1, 0.5, 0.9)) -> tuple[float, ...]:
    """Candidate RBF bandwidths: quantiles of the pairwise distances."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        return (1.0,)
    d = np.sqrt(_sq_dists(X, X)[np.triu_indices(n, k=1)])
    vals = tuple(float(max(q, 1e-12)) for q in np.quantile(d, quantiles))
    out = []
    for v in vals:
        if v not in out:
            out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# generators


@dataclass
class BlobsSample:
    data: Dataset
    outlier_mask: np.ndarray  # True on planted wrong-label points
    priv: PrivilegedSet       # 1-D flag feature marking the planted points


def generate_blobs_with_outliers(n_per_class: int = 30,
                                 outlier_count: int = 2,
                                 outlier_distance: float = 100.0,
                                 seed: int = 0) -> BlobsSample:
    """Two Gaussian blobs on the x-axis (centers +-BLOB_OFFSET, the positive
    class on the right), plus wrong-label points planted the stated distance
    beyond the opposite blob.  Deterministic per seed."""
    if n_per_class < 0 or outlier_count < 0:
        raise ValueError("counts must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    X_pos = rng.normal([BLOB_OFFSET, 0.0], BLOB_STD, size=(n_per_class, 2))
    X_neg = rng.normal([-BLOB_OFFSET, 0.0], BLOB_STD, size=(n_per_class, 2))
    parts_X = [X_pos, X_neg]
    parts_y = [np.ones(n_per_class), -np.ones(n_per_class)]
    for k in range(outlier_count):
        lab = 1.0 if k % 2 == 0 else -1.0
        # a positive-labeled outlier sits deep in negative territory
        x = -lab * (BLOB_OFFSET + outlier_distance)
        jitter = rng.normal(0.0, BLOB_STD, size=2)
        parts_X.append(np.array([[x + jitter[0], jitter[1]]]))
        parts_y.append(np.array([lab]))
    X = np.vstack(parts_X)
    y = np.concatenate(parts_y)
    mask = np.zeros(y.shape[0], dtype=bool)
    mask[2 * n_per_class:] = True
    return BlobsSample(
        data=Dataset(X, y),
        outlier_mask=mask,
        priv=PrivilegedSet(mask.astype(float)[:, None]),
    )


W_CENTERS = np.array(
    [[-2.0, 1.0], [-1.0, -1.0], [0.0, 1.0], [1.0, -1.0], [2.0, 1.0]])
W_LABELS = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
W_STD = 0.5


@dataclass
class WMixture:
    data: Dataset
    eta: np.ndarray  # exact E[y | x] at the sampled points

    @staticmethod
    def exact_eta(points) -> np.ndarray:
        """Closed-form E[y | x] of the five-component mixture."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        sq = np.sum((X[:, None, :] - W_CENTERS[None, :, :]) ** 2, axis=2)
        sq -= sq.min(axis=1)[:, None]
        dens = np.exp(-sq / (2.0 * W_STD**2))
        return (dens @ W_LABELS) / dens.sum(axis=1)


def generate_w_mixture(n: int, seed: int = 0) -> WMixture:
    """Equal-weight samples from the W-shaped five-Gaussian mixture; labels
    follow each point's component.  Deterministic per seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    comp = rng.integers(0, 5, size=n)
    X = W_CENTERS[comp] + rng.normal(0.0, W_STD, size=(n, 2))
    y = W_LABELS[comp]
    data = Dataset(X, y)
    return WMixture(data=data, eta=WMixture.exact_eta(X))


def counterexample_dataset() -> tuple[Dataset, np.ndarray]:
    """The three-point line instance with weights (4, 6, 2) whose optimal
    slacks average higher under the weights than uniformly."""
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, -1.0, 1.0])
    return Dataset(X, y), np.array([4.0, 6.0, 2.0])


# ---------------------------------------------------------------------------
# experiment protocol


@dataclass(frozen=True)
class ExperimentConfig:
    source: str = "blobs"                  # "blobs" | "wmixture"
    methods: tuple[str, ...] = ("svm",)
    subset_sizes: tuple[int, ...] = (40,)
    repetitions: int = 1
    seed: int = 0
    split: str = "1-to-2"                  # one of SPLITS
    kernel: str = LINEAR
    n_pool: int = 200
    n_test: int = 1000
    C_grid: tuple[float, ...] = DEFAULT_LOG_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_LOG_GRID

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split mode {self.split!r}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if self.source not in ("blobs", "wmixture"):
            raise ValueError(f"unknown source {self.source!r}")
        # a split needs two training points and one validation point
        least = 2 if self.split == "fixed-validation" else 3
        if any(s < least for s in self.subset_sizes):
            raise ValueError(
                f"subset sizes must be >= {least} in {self.split!r} mode")
        if any(s > self.n_pool for s in self.subset_sizes):
            raise ValueError("subset sizes must not exceed the pool")
        for name in ("C_grid", "gamma_grid"):
            grid = np.asarray(getattr(self, name), dtype=float)
            if grid.size == 0 or not np.all((grid > 0) & (grid < np.inf)):
                raise ValueError(f"{name} must be nonempty, finite and > 0")


@dataclass(frozen=True)
class ResultRow:
    method: str
    subset: int
    split: str
    mean_error: float
    std: float
    reps: int


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    resample_events: int = 0


def emit_results(table: ResultTable) -> str:
    """The table as CSV text with 6-significant-digit decimals."""
    buf = io.StringIO()
    buf.write("method,subset,split,mean_error,std,reps\n")
    for r in table.rows:
        buf.write(f"{r.method},{r.subset},{r.split},"
                  f"{r.mean_error:.6g},{r.std:.6g},{r.reps}\n")
    return buf.getvalue()


def parse_results(text: str) -> ResultTable:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != "method,subset,split,mean_error,std,reps":
        raise ValueError("missing results header")
    rows = []
    for ln in lines[1:]:
        m, s, sp, me, sd, rp = ln.split(",")
        rows.append(ResultRow(m, int(s), sp, float(me), float(sd), int(rp)))
    return ResultTable(rows=rows)


def _clean_sample(source: str, n: int, seed: int) -> Dataset:
    """A draw of the source without planted points (blobs: n // 2 per
    class): the test sample and the fixed-validation pool."""
    if source == "blobs":
        return generate_blobs_with_outliers(
            n_per_class=n // 2, outlier_count=0, seed=seed).data
    return generate_w_mixture(n, seed=seed).data


def _generate_pool(config: ExperimentConfig, seed_seq):
    s_pool, s_test = (int(s.generate_state(1)[0]) for s in seed_seq.spawn(2))
    test = _clean_sample(config.source, config.n_test, s_test)
    if config.source == "blobs":
        pool = generate_blobs_with_outliers(
            n_per_class=config.n_pool // 2, seed=s_pool)
        # planted points carry full confidence in the opposite label
        eta = pool.data.y * (1.0 - 2.0 * pool.outlier_mask)
        return pool.data, pool.priv.X, eta, test
    mix = generate_w_mixture(config.n_pool, seed=s_pool)
    return mix.data, mix.eta[:, None], mix.eta, test


def _sample_subset(rng, pool_n: int, size: int, y: np.ndarray):
    """Index sample without replacement; redrawn (seed advances) until both
    classes are present.  Returns (indices, number of redraws)."""
    redraws = 0
    while True:
        idx = rng.choice(pool_n, size=size, replace=False)
        if np.any(y[idx] > 0) and np.any(y[idx] < 0):
            return idx, redraws
        redraws += 1
        if redraws > 1000:
            raise RuntimeError("could not sample a two-class subset")


def _split_indices(rng, idx: np.ndarray, mode: str, y: np.ndarray):
    perm = rng.permutation(idx)
    n = perm.size
    n_train = n // 3 if mode == "1-to-2" else (2 * n) // 3
    n_train = max(2, n_train)
    tr, va = perm[:n_train], perm[n_train:]
    if not (np.any(y[tr] > 0) and np.any(y[tr] < 0)):
        # degenerate split: rotate until the training side has both classes
        for shift in range(1, n):
            rolled = np.roll(perm, shift)
            tr, va = rolled[:n_train], rolled[n_train:]
            if np.any(y[tr] > 0) and np.any(y[tr] < 0):
                break
    return tr, va


def _kernel_candidates(config: ExperimentConfig, X) -> list[KernelSpec]:
    if config.kernel == LINEAR:
        return [KernelSpec(LINEAR)]
    # larger bandwidths first so ties resolve toward them
    bws = sorted(bandwidth_grid(X), reverse=True)
    return [KernelSpec(GAUSSIAN_RBF, h) for h in bws]


def _error(y, f) -> float:
    return float(np.mean(y * f <= 0))


def _winner(grid):
    """The fit of the (key, fit) pair with the lowest key; the first one
    wins a tie."""
    return min(grid, key=lambda pair: pair[0])[1]


def _fit_methods(train: Dataset, val: Dataset, test: Dataset,
                 config: ExperimentConfig, priv_X, eta_train
                 ) -> dict[str, float]:
    """Grid-search every method of ``config`` on one split; returns each
    method's test error at its validation winner.

    Each candidate fit is keyed (validation error, C, kernel rank, extra
    rank) and the lowest key wins, so ties go to the smaller C, then to
    the larger bandwidth (candidate enumeration order encodes the rest).
    Only the winners see the test sample.  svm and wsvm-prob share one
    WSVM grid, fitted once: svm's candidates are its tau = 0 row (extra
    rank 0), whose weights are 1 exactly.  A tau row whose weights have
    the bytes of an earlier row's is dropped before fitting: each of its
    fits would tie the earlier row's fit of the same kernel and C on
    validation error and lose on extra rank.  The tau = 0 row comes first,
    so it is always kept.  The SVM+ grid is
    searched once for both svmplus and wsvm-from-svmplus; the latter
    evaluates the WSVM built from the winner (``wsvm_from_svmplus``).
    Every fit of both grids solves on the row sources built here, one
    per kernel candidate.
    """
    methods = set(config.methods)
    specs = _kernel_candidates(config, train.X)
    qs = ([_KernelRows(spec, train, train.y) for spec in specs]
          if methods - {"wsvm-learned"} else [])

    def wsvm_grid(weights):  # (extra rank, weight vector) pairs, scaled by C
        for si, (spec, Q) in enumerate(zip(specs, qs)):
            for ei, w in weights:
                for C in config.C_grid:
                    model = solve_wsvm(train, spec, C * w, _Q=Q)
                    val_err = _error(val.y, model.predict(val))
                    yield (val_err, C, si, ei), model

    def svmplus_grid():
        priv = PrivilegedSet(priv_X)
        priv_specs = _kernel_candidates(config, priv_X)
        kts = [_KernelRows(pspec, priv) for pspec in priv_specs]
        for si, (spec, Q) in enumerate(zip(specs, qs)):
            for pi, (pspec, Kt) in enumerate(zip(priv_specs, kts)):
                for C in config.C_grid:
                    for gi, gam in enumerate(config.gamma_grid):
                        plus = solve_svmplus(train, priv, spec, pspec, C, gam,
                                             _Q=Q, _Kt=Kt)
                        val_err = _error(val.y, plus.predict(val))
                        yield (val_err, C, si, pi * 1000 + gi), plus

    f_test = {}  # method -> the winner's decision values on the test sample
    if methods & {"svm", "wsvm-prob"}:
        # the tau grid starts at 0, whose weights are 1 exactly: svm's
        # grid is that row, extra rank 0
        taus = DEFAULT_TAU_GRID if "wsvm-prob" in methods else (0.0,)
        weights, seen = [], set()
        for ti, tau in enumerate(taus):
            w = probability_weights(eta_train, train.y, tau)
            # a row with an earlier row's bytes would refit that row's
            # models bit for bit under a larger extra rank: it cannot win
            if np.any(w > 0) and w.tobytes() not in seen:
                seen.add(w.tobytes())
                weights.append((ti, w))
        grid = list(wsvm_grid(weights))
        if "svm" in methods:
            model = _winner(pair for pair in grid if pair[0][3] == 0)
            f_test["svm"] = model.predict(test)
        if "wsvm-prob" in methods:
            f_test["wsvm-prob"] = _winner(grid).predict(test)
    if "wsvm-learned" in methods:
        wl = WeightLearningConfig(deltas=LEARN_DELTAS,
                                  max_outer_iter=LEARN_MAX_OUTER)
        results = (learn_weights(train, val, spec, wl) for spec in specs)
        model = _winner(((res.val_error, 0.0, si, 0), res.model)
                        for si, res in enumerate(results))
        f_test["wsvm-learned"] = model.predict(test)
    if methods & {"svmplus", "wsvm-from-svmplus"}:
        plus = _winner(svmplus_grid())
        if "svmplus" in methods:
            f_test["svmplus"] = plus.predict(test)
        if "wsvm-from-svmplus" in methods:
            f_test["wsvm-from-svmplus"] = wsvm_from_svmplus(plus).predict(test)
    return {m: _error(test.y, f) for m, f in f_test.items()}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """The full protocol: sample subsets from a fixed pool, split into
    train/validation, grid-search by validation error, report test error
    mean and population standard deviation across repetitions."""
    root = np.random.SeedSequence(config.seed)
    data_seq, proto_seq = root.spawn(2)
    pool, priv_X, eta, test = _generate_pool(config, data_seq)
    if config.split == "fixed-validation":
        # data_seq's third child, after the pool's and the test sample's
        s_val = int(data_seq.spawn(1)[0].generate_state(1)[0])
        val_pool = _clean_sample(config.source, N_VAL, s_val)
    table = ResultTable()
    rep_seqs = proto_seq.spawn(config.repetitions)
    for subset in config.subset_sizes:
        errors = {m: [] for m in config.methods}
        for rep in range(config.repetitions):
            rng = np.random.default_rng(rep_seqs[rep].spawn(1)[0])
            idx, redraws = _sample_subset(rng, pool.n, subset, pool.y)
            table.resample_events += redraws
            if config.split == "fixed-validation":
                tr_idx, val = idx, val_pool
            else:
                tr_idx, va_idx = _split_indices(rng, idx, config.split,
                                                pool.y)
                val = pool.subset(va_idx)
            train = pool.subset(tr_idx)
            fitted = _fit_methods(train, val, test, config, priv_X[tr_idx],
                                  eta[tr_idx])
            for m in config.methods:
                errors[m].append(fitted[m])
        for m in config.methods:
            e = np.asarray(errors[m])
            table.rows.append(ResultRow(
                method=m, subset=subset, split=config.split,
                mean_error=float(np.mean(e)), std=float(np.std(e)),
                reps=config.repetitions))
    return table


# ---------------------------------------------------------------------------
# study drivers


def figure3_study(repetitions: int = 50, seed: int = 0) -> list[dict]:
    """Per repetition: uniform-cost SVM versus a WSVM with zero weight on
    the planted wrong-label points, both linear, evaluated on a clean test
    sample.  Returns one record per repetition."""
    root = np.random.SeedSequence(seed)
    out = []
    for rep, seq in enumerate(root.spawn(repetitions)):
        s1, s2 = (int(s.generate_state(1)[0]) for s in seq.spawn(2))
        sample = generate_blobs_with_outliers(
            n_per_class=FIGURE3_N_PER_CLASS, seed=s1)
        test = _clean_sample("blobs", 1000, s2)
        spec = KernelSpec(LINEAR)
        svm = solve_wsvm(sample.data, spec, np.full(sample.data.n, FIGURE3_C))
        c = np.full(sample.data.n, FIGURE3_C)
        c[sample.outlier_mask] = 0.0
        wsvm = solve_wsvm(sample.data, spec, c)
        out.append({
            "rep": rep,
            "svm_error": _error(test.y, svm.predict(test)),
            "wsvm_error": _error(test.y, wsvm.predict(test)),
        })
    return out


def wshape_study(repetitions: int = 20, seed: int = 0) -> list[dict]:
    """W-mixture comparison of the uniform-weight smooth baseline against
    learned weights, with a large validation set (the 1-to-10 regime)."""
    root = np.random.SeedSequence(seed)
    out = []
    for rep, seq in enumerate(root.spawn(repetitions)):
        s1, s2, s3 = (int(s.generate_state(1)[0]) for s in seq.spawn(3))
        train = generate_w_mixture(WSHAPE_N_TRAIN, seed=s1).data
        val = generate_w_mixture(WSHAPE_N_VAL, seed=s2).data
        test = generate_w_mixture(WSHAPE_N_TEST, seed=s3).data
        spec = KernelSpec(GAUSSIAN_RBF, float(np.median(
            bandwidth_grid(train.X, (0.5,)))))
        res = learn_weights(train, val, spec, WeightLearningConfig(
            deltas=LEARN_DELTAS, max_outer_iter=WSHAPE_MAX_OUTER))
        svm = solve_wsvm(train, spec, np.ones(train.n))
        out.append({
            "rep": rep,
            "svm_error": _error(test.y, svm.predict(test)),
            "learned_error": _error(test.y, res.model.predict(test)),
        })
    return out

"""Benchmark protocol: held-out r-squared, multi-run averaging, significance.

Each run draws a fresh training set from the generating process, fits every
configured model on that same set, and scores predictions at freshly drawn
holdout points against the analytic ground-truth effect.  Per-model r-squared
values across runs aggregate into mean, standard error and a two-sided paired
t-test against the reference model (the first configured one), giving a table
with one row per model.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import CartSpec, ForestSpec, KnnSpec, fit_t_learner
from .causal_tree import (
    CausalForestSettings,
    CausalTreeParams,
    DifficultyPredictor,
    fit_causal_forest,
    fit_causal_tree,
)
from .domain import Dataset, derived_seeds
from .errors import (
    BenchmarkError,
    InsufficientSamples,
    LengthMismatch,
    MalformedConfig,
    ReachmapError,
    ZeroVariance,
)
from .fileio import decode_json, expect_dict, from_fields, get, reject_unknown
from .synth import DgpSpec, _draw_features, dgp_from_mapping, generate_dataset, true_tau


# --- metrics -----------------------------------------------------------------


def r_squared(truth: Sequence[float], pred: Sequence[float]) -> float:
    """Coefficient of determination 1 - RSS/TSS; may be negative, never > 1."""
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 1:
        raise LengthMismatch(f"truth has {t.size} values, pred has {p.size}")
    if t.size < 2 or t.max() == t.min():
        raise ZeroVariance("ground truth is constant; r^2 is undefined")
    rss = float(np.sum((t - p) ** 2))
    tss = float(np.sum((t - np.mean(t)) ** 2))
    return 1.0 - rss / tss


def std_error(values: Sequence[float]) -> float:
    """Standard error of the mean: sample sd (n-1 denominator) over sqrt(n)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise InsufficientSamples(f"std_error needs >= 2 values, got {v.size}")
    return float(np.std(v, ddof=1) / math.sqrt(v.size))


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided paired t-test p-value on d = a - b with n-1 degrees of freedom.

    Degenerate rule: when every d_i is identical the p-value is 1.0 for zero
    mean difference and 0.0 otherwise.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"a has {x.size} values, b has {y.size}")
    if x.size < 2:
        raise InsufficientSamples(f"paired t-test needs >= 2 pairs, got {x.size}")
    d = x - y
    if np.all(d == d[0]):
        return 1.0 if d[0] == 0.0 else 0.0
    n = d.size
    t = float(np.mean(d) / (np.std(d, ddof=1) / math.sqrt(n)))
    from scipy.special import stdtr  # imported here: at the top it adds ~0.3 s to every cold start

    return float(2.0 * stdtr(n - 1, -abs(t)))  # stdtr: Student's t CDF


# --- benchmark ---------------------------------------------------------------


@dataclass(frozen=True)
class ModelEntry:
    """A named model: ``fit(dataset, seed)`` returns a fitted predictor.

    The seed is derived per run from the benchmark's master seed, so the same
    entry can be reused across runs and benches.  ``describe`` spells out the
    resolved hyperparameters for the benchmark report.
    """

    name: str
    fit: Callable[[Dataset, int], DifficultyPredictor]
    describe: str = ""


#: most runs, and holdout points per run, a bench may ask for
MAX_RUNS = 1_000
MAX_HOLDOUT_POINTS = 1_000_000


@dataclass(frozen=True)
class BenchConfig:
    dgp: DgpSpec
    models: tuple[ModelEntry, ...]
    n_control: int
    n_individual: int
    runs: int = 10
    holdout_points: int = 500
    master_seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("at least one model is required")
        if not 2 <= self.runs <= MAX_RUNS:  # >= 2 for significance tests
            raise ValueError(f"runs must be in 2..{MAX_RUNS}, got {self.runs}")
        if self.n_control < 1 or self.n_individual < 1:
            raise ValueError("per-group sample counts must be >= 1")
        if not 2 <= self.holdout_points <= MAX_HOLDOUT_POINTS:
            raise ValueError(f"holdout_points must be in 2..{MAX_HOLDOUT_POINTS}, "
                             f"got {self.holdout_points}")


@dataclass(frozen=True)
class BenchRow:
    model_name: str
    mean_r2: float
    stderr_r2: float
    p_vs_reference: Optional[float]  # None on the reference row


def run_benchmark(cfg: BenchConfig) -> list[BenchRow]:
    """Execute the multi-run protocol; rows come back in configured model order.

    The first model is the reference: its row carries no p-value, every other
    row reports the paired t-test of its per-run r-squared against the
    reference's.  All models see identical training data and holdout points
    within a run.  Deterministic given the master seed.
    """
    n_models = len(cfg.models)
    per_model_r2: list[list[float]] = [[] for _ in range(n_models)]

    for run in range(cfg.runs):
        # the fit seed is shared by every model in the run: entries are pure
        # functions of (training data, seed), so the same entry configured
        # twice produces identical rows
        data_seed, holdout_seed, fit_seed = derived_seeds(cfg.master_seed, 3, (run,))
        try:
            train, _ = generate_dataset(
                cfg.dgp, cfg.n_control, cfg.n_individual, data_seed
            )
            rng = np.random.default_rng(holdout_seed)
            X, _ = _draw_features(cfg.dgp.workspace, rng, cfg.holdout_points)
            truth = true_tau(cfg.dgp, X)
        except (ReachmapError, ValueError) as e:
            raise BenchmarkError(f"run {run}: {type(e).__name__}: {e}") from e

        for i, entry in enumerate(cfg.models):
            try:
                model = entry.fit(train, fit_seed)
                per_model_r2[i].append(r_squared(truth, model.predict(X).tau_hat))
            except (ReachmapError, ValueError) as e:
                raise BenchmarkError(
                    f"run {run}, model {entry.name!r}: {type(e).__name__}: {e}"
                ) from e

    reference = per_model_r2[0]
    rows = []
    for i, entry in enumerate(cfg.models):
        r2s = per_model_r2[i]
        rows.append(
            BenchRow(
                model_name=entry.name,
                mean_r2=float(np.mean(r2s)),
                stderr_r2=std_error(r2s),
                p_vs_reference=None if i == 0 else paired_t_test(r2s, reference),
            )
        )
    return rows


# --- model registry ----------------------------------------------------------

#: the seeded config dataclass each model kind's fits take
_CONFIG_TYPES = {
    "causal_tree": CausalTreeParams,
    "causal_forest": CausalTreeParams,
    "t_cart": CartSpec,
    "t_forest": ForestSpec,
    "t_knn": KnnSpec,
}

MODEL_KINDS = tuple(_CONFIG_TYPES)

#: hyperparameters each model kind accepts: its config fields except the seed,
#: and the causal forest's ensemble settings
HYPERPARAMETERS = {
    kind: tuple(f.name for f in fields(cls) if f.name != "seed")
    + (tuple(f.name for f in fields(CausalForestSettings)) if kind == "causal_forest" else ())
    for kind, cls in _CONFIG_TYPES.items()
}


def _entry(kind, name: Optional[str], hyper: dict, build: Callable) -> ModelEntry:
    """The entry fitting ``kind``; ``build(cls, **given)`` makes each config
    dataclass from ``hyper``, with a placeholder seed that each fit replaces."""
    if not isinstance(kind, str) or kind not in HYPERPARAMETERS:
        raise ValueError(f"unknown model kind {kind!r}; known: {', '.join(MODEL_KINDS)}")
    if name is not None and (not name.isprintable() or "," in name or '"' in name):
        # the name is written as is into a bench CSV field and a table row
        raise ValueError(f"model name {name!r} must be printable, without ',' or '\"'")
    unknown = set(hyper) - set(HYPERPARAMETERS[kind])
    if unknown:
        raise ValueError(f"model kind {kind!r} does not accept {sorted(unknown)}")
    params = build(_CONFIG_TYPES[kind], seed=0)
    resolved = asdict(params)
    del resolved["seed"]
    if kind == "causal_forest":
        ensemble = build(CausalForestSettings)
        resolved.update(asdict(ensemble))
        fit = lambda d, seed: fit_causal_forest(
            d, replace(params, seed=seed), ensemble.n_trees, ensemble.subsample_ratio
        )
    elif kind == "causal_tree":
        fit = lambda d, seed: fit_causal_tree(d, replace(params, seed=seed))
    else:
        fit = lambda d, seed: fit_t_learner(d, replace(params, seed=seed))
    text = ", ".join(f"{k}={v}" for k, v in sorted(resolved.items()))
    return ModelEntry(name or kind, fit, f"{kind}({text})")


def model_entry(kind: str, name: Optional[str] = None, **hyper) -> ModelEntry:
    """A ModelEntry for one of :data:`MODEL_KINDS`, taking the kind's
    :data:`HYPERPARAMETERS`; seeds are supplied at fit time, not here."""
    def build(cls, **given):
        return cls(**{f.name: hyper[f.name] for f in fields(cls) if f.name in hyper}, **given)

    return _entry(kind, name, hyper, build)


def _entry_from_dict(m, path: str) -> ModelEntry:
    """One bench model: its kind, an optional name and typed hyperparameters."""
    hyper = dict(expect_dict(m, path, MalformedConfig))
    kind, name = hyper.pop("kind", None), hyper.pop("name", None)
    if name is not None and not isinstance(name, str):
        raise MalformedConfig(f"{path}.name", f"expected a string, got {name!r}")

    def build(cls, **given):
        return from_fields(cls, hyper, path, MalformedConfig, defaults=True, **given)

    try:
        return _entry(kind, name, hyper, build)
    except ValueError as e:
        raise MalformedConfig(path, str(e)) from None


def _bench_config_from_dict(doc) -> BenchConfig:
    doc = expect_dict(doc, "$", MalformedConfig)
    reject_unknown(doc, (f.name for f in fields(BenchConfig)), "$", MalformedConfig)
    models = get(doc, "models", "$", MalformedConfig)
    if not isinstance(models, list):
        raise MalformedConfig("$.models", f"expected a list, got {type(models).__name__}")
    cfg = from_fields(
        BenchConfig, doc, "$", MalformedConfig, defaults=True,
        dgp=dgp_from_mapping(get(doc, "dgp", "$", MalformedConfig), "$.dgp"),
        models=tuple(_entry_from_dict(m, f"$.models[{i}]") for i, m in enumerate(models)),
    )
    if cfg.master_seed < 0:  # numpy's SeedSequence takes no negative seed
        raise MalformedConfig("$.master_seed",
                              f"expected a non-negative integer, got {cfg.master_seed}")
    return cfg


def bench_config_from_json(text: str) -> BenchConfig:
    """Parse a benchmark config document.

    Shape: {"dgp": {<flat DGP keys>}, "models": [{"kind": ..., "name": ...,
    <hyperparameters>}, ...], "n_control": int, "n_individual": int,
    "runs": int, "holdout_points": int, "master_seed": int}.  The first model
    is the reference row.  Per-run fitting seeds are derived from master_seed,
    so model entries carry no seeds.  Absent keys take their defaults.
    """
    return decode_json(text, _bench_config_from_dict, MalformedConfig)


# --- output formats ----------------------------------------------------------

BENCH_CSV_HEADER = "model,mean_r2,stderr_r2,p_vs_reference"


def bench_rows_to_csv(rows: Sequence[BenchRow]) -> str:
    lines = [BENCH_CSV_HEADER]
    for row in rows:
        p = "" if row.p_vs_reference is None else repr(row.p_vs_reference)
        lines.append(f"{row.model_name},{row.mean_r2!r},{row.stderr_r2!r},{p}")
    return "\n".join(lines) + "\n"


def _format_p(p: Optional[float]) -> str:
    if p is None:
        return "--"
    if p < 0.001:
        return "<.001"
    return f"{p:.3f}"


def format_bench_table(
    rows: Sequence[BenchRow], descriptions: Sequence[str] = ()
) -> str:
    """Aligned plain-text table: model, avg r2, std err r2, p-value.

    ``descriptions`` (one per row, optional) lists each model's resolved
    hyperparameters in a footer so reported numbers are reproducible.
    """
    header = ("Model", "avg r2", "std err r2", "p-value")
    body = [
        (row.model_name, f"{row.mean_r2:.3f}", f"{row.stderr_r2:.3f}", _format_p(row.p_vs_reference))
        for row in rows
    ]
    widths = [
        max(len(header[c]), *(len(r[c]) for r in body)) for c in range(len(header))
    ]
    def fmt(cells) -> str:
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join([first, *rest]).rstrip()

    lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(r) for r in body)
    lines.append("")
    lines.append("ground truth: analytic effect of the synthetic generating process")
    for row, desc in zip(rows, descriptions):
        if desc:
            lines.append(f"{row.model_name}: {desc}")
    return "\n".join(lines) + "\n"

"""Dataset ingestion, preprocessing, and synthetic data generators.

CSV ingestion applies one action per column: standardize (mean 0,
population variance 1), dummy_code (indicators, alphabetically first
level dropped), likert_sigma (ordered levels scored by truncated
standard-normal band means), or passthrough.  The response column is
either already a 1..M label or a numeric column binned by strictly
increasing edges.

The two generators reproduce the synthetic designs used throughout
the tests: a deterministic covariate grid with a single coefficient,
and a contaminated mixture design with a binary regressor and an
interaction.  Both draw the latent noise by inverting the link cdf at
uniforms, so the generator and the fitted link agree exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from .links import Link, get_link
from .model import ContractError, Dataset, Theta

__all__ = [
    "ACTIONS",
    "PreprocessError",
    "PreprocessSpec",
    "load_csv",
    "likert_sigma",
    "simulate_grid",
    "simulate_contaminated",
    "inject_outlier",
    "ERROR_LINKS",
]

ACTIONS = ("standardize", "dummy_code", "likert_sigma", "passthrough")

# Latent error name -> the link whose cdf is that error's distribution.
ERROR_LINKS = {"normal": "probit", "logistic": "logit", "gumbel": "loglog"}

_TRUTH_BETA = (2.5, 1.2, 0.7)
_TRUTH_DELTA = {
    "normal": (-3.0, -0.7, 1.6, 3.9),
    "logistic": (-3.3, -0.8, 1.7, 4.2),
    "gumbel": (-2.9, 1.0, 2.9, 4.8),
}

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class PreprocessError(ValueError):
    """A data cell or column cannot be preprocessed as requested."""


@dataclass(frozen=True)
class PreprocessSpec:
    """Columnwise preprocessing plan plus the response designation."""

    response: str
    edges: tuple = None
    columns: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.edges is not None:
            edges = tuple(float(e) for e in self.edges)
            object.__setattr__(self, "edges", edges)
            if len(edges) == 0:
                raise ContractError("edges must be nonempty when given")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ContractError("edges must be strictly increasing")
        for name, action in self.columns.items():
            if action not in ACTIONS:
                raise ContractError(
                    f"column {name!r}: unknown action {action!r}; valid "
                    "actions: " + ", ".join(ACTIONS)
                )
        if self.response in self.columns:
            raise ContractError(
                f"response column {self.response!r} cannot also have an action"
            )

    @classmethod
    def from_mapping(cls, obj) -> "PreprocessSpec":
        """Build from the JSON document form {response, edges?, columns?}."""
        if not isinstance(obj, dict):
            raise ContractError("preprocess spec must be a JSON object")
        unknown = set(obj) - {"response", "edges", "columns"}
        if unknown:
            raise ContractError(
                f"unknown preprocess keys: {sorted(unknown)}"
            )
        if "response" not in obj:
            raise ContractError("preprocess spec needs a 'response' key")
        response = obj["response"]
        edges, columns = obj.get("edges"), obj.get("columns", {})
        if not isinstance(response, str):
            raise ContractError("preprocess key 'response' must be a column "
                                f"name string, got {response!r}")
        if edges is not None and not (isinstance(edges, list) and all(
                type(e) in (int, float) and math.isfinite(e) for e in edges)):
            raise ContractError("preprocess key 'edges' must be an array of "
                                f"finite numbers, got {edges!r}")
        if not (isinstance(columns, dict)
                and all(isinstance(a, str) for a in columns.values())):
            raise ContractError("preprocess key 'columns' must map column "
                                f"names to action names, got {columns!r}")
        return cls(response=response, columns=dict(columns),
                   edges=None if edges is None else tuple(edges))


def _parse_float(cell: str, line: int, name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise PreprocessError(
            f"line {line}, column {name!r}: not numeric: {cell!r}"
        ) from None
    # float() also reads 'nan' and 'inf'; neither is a usable response
    # or covariate, and binning or standardizing them fails silently.
    if not math.isfinite(value):
        raise PreprocessError(
            f"line {line}, column {name!r}: not a finite number: {cell!r}"
        )
    return value


def load_csv(path, spec: PreprocessSpec) -> Dataset:
    """Read a headered CSV and apply the preprocessing plan.

    Any empty cell is an error naming its line and column; silent
    imputation would corrupt the robustness diagnostics downstream.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise PreprocessError(f"{path}: empty file") from None
        # A repeated name would keep only its last column.
        for k, name in enumerate(header):
            if name in header[:k]:
                raise PreprocessError(
                    f"{path}: header names column {name!r} more than once"
                )
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise PreprocessError(
                    f"line {line_no}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            rows.append([c.strip() for c in row])
    if not rows:
        raise PreprocessError(f"{path}: no data rows")

    if spec.response not in header:
        raise ContractError(f"response column {spec.response!r} not in header")
    for name in spec.columns:
        if name not in header:
            raise ContractError(f"column {name!r} in spec but not in header")

    cells = {name: [r[j] for r in rows] for j, name in enumerate(header)}
    for name, col in cells.items():
        for k, cell in enumerate(col):
            if cell == "":
                raise PreprocessError(
                    f"line {k + 2}, column {name!r}: missing value"
                )

    y_raw = np.array(
        [_parse_float(c, k + 2, spec.response)
         for k, c in enumerate(cells[spec.response])]
    )
    if spec.edges is not None:
        edges = np.asarray(spec.edges)
        y = 1 + (y_raw[:, None] > edges[None, :]).sum(axis=1)
        M = edges.size + 1
    else:
        if not np.all(y_raw == np.round(y_raw)):
            raise PreprocessError(
                f"response {spec.response!r} must hold integer labels "
                "when no binning edges are given"
            )
        y = y_raw.astype(int)
        if y.min() < 1:
            raise PreprocessError("response labels must start at 1")
        M = int(y.max())

    feature_cols = []
    names = []
    for name in header:
        if name == spec.response:
            continue
        action = spec.columns.get(name, "passthrough")
        col = cells[name]
        if action == "dummy_code":
            levels = sorted(set(col))
            if len(levels) < 2:
                raise PreprocessError(
                    f"column {name!r}: needs at least two levels to dummy code"
                )
            for lev in levels[1:]:
                feature_cols.append(
                    np.array([1.0 if c == lev else 0.0 for c in col])
                )
                names.append(f"{name}={lev}")
            continue
        vals = np.array(
            [_parse_float(c, k + 2, name) for k, c in enumerate(col)]
        )
        if action == "standardize":
            sd = vals.std()  # population variance, ddof 0
            if sd == 0.0:
                raise PreprocessError(f"column {name!r}: constant, cannot standardize")
            vals = (vals - vals.mean()) / sd
        elif action == "likert_sigma":
            if not np.all(vals == np.round(vals)):
                raise PreprocessError(
                    f"column {name!r}: likert_sigma needs integer levels"
                )
            ints = vals.astype(int)
            levels, counts = np.unique(ints, return_counts=True)
            if levels.size < 2:
                raise PreprocessError(
                    f"column {name!r}: needs at least two observed levels"
                )
            scores = likert_sigma(counts)
            lookup = dict(zip(levels.tolist(), scores))
            vals = np.array([lookup[v] for v in ints])
        feature_cols.append(vals)
        names.append(name)

    if not feature_cols:
        raise PreprocessError("no covariate columns remain after preprocessing")
    return Dataset(
        y=y, X=np.column_stack(feature_cols), n_categories=M,
        column_names=tuple(names),
    )


def likert_sigma(counts) -> np.ndarray:
    """Scores for ordered levels: standard-normal means over quantile bands.

    With cumulative proportions c_k and z_k their normal quantiles, the
    score of level k is (phi(z_{k-1}) - phi(z_k)) / (c_k - c_{k-1}),
    the mean of a standard normal truncated to the level's band; the
    boundary densities phi(z_0), phi(z_K) are 0.  Scores increase
    strictly in k and average to 0 under the count weights.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size < 2:
        raise ContractError("need counts for at least two levels")
    if np.any(counts <= 0):
        k = int(np.flatnonzero(counts <= 0)[0])
        raise PreprocessError(
            f"level {k + 1} has count {counts[k]}; merge empty levels upstream"
        )
    c = np.cumsum(counts) / counts.sum()
    z = special.ndtri(c[:-1])
    phi = np.exp(-0.5 * z * z) / _SQRT_2PI
    phipad = np.concatenate([[0.0], phi, [0.0]])
    band = np.diff(np.concatenate([[0.0], c]))
    return (phipad[:-1] - phipad[1:]) / band


def simulate_grid(beta: float = 0.7, delta=(-1.6, 0.0, 1.6), link="probit",
                  seed: int = 0, epsilon=None) -> Dataset:
    """Single covariate on the fixed grid -5(0.05)5, n = 201.

    The latent variable is z = beta * x + eps with eps drawn by
    inverting the link cdf at uniforms; y thresholds z at the
    cutpoints.  epsilon overrides the noise with a fixed scalar or
    array (a testing hook; epsilon=0 makes the response deterministic).
    """
    link = get_link(link) if isinstance(link, str) else link
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 1 or delta.size < 1 or (
        delta.size > 1 and not np.all(np.diff(delta) > 0)
    ):
        raise ContractError("delta must be strictly increasing")
    x = np.linspace(-5.0, 5.0, 201)
    if epsilon is None:
        rng = np.random.default_rng(seed)
        eps = np.asarray(link.quantile(rng.random(x.size)), dtype=float)
    else:
        eps = np.broadcast_to(np.asarray(epsilon, dtype=float), x.shape)
    z = beta * x + eps
    y = 1 + (z[:, None] > delta[None, :]).sum(axis=1)
    return Dataset(
        y=y, X=x[:, None], n_categories=delta.size + 1, column_names=("x",)
    )


def simulate_contaminated(rho: float, error: str, n: int, seed: int):
    """Contaminated three-covariate design with known truth.

    The response is generated from the clean model: x ~ N(0,1),
    d ~ Bernoulli(0.25), z = 2.5 x + 1.2 d + 0.7 x d + eps with eps
    following the named error law, and y by thresholding z at the true
    cutpoints.  A fraction rho of the recorded x values is then shifted
    by +20, so the observed covariate is the (1 - rho) N(0,1)
    + rho N(20,1) mixture while y still reflects the clean covariate.
    The recorded interaction column uses the contaminated x, so a
    contaminated unit is outlying in both the main effect and the
    interaction.  Under the true parameters such a unit's category
    probability is essentially zero, which is what makes it a genuine
    outlier rather than a benign high-leverage point.  Returns
    (dataset, true Theta).
    """
    if not 0.0 <= rho <= 0.5:
        raise ContractError("rho must lie in [0, 0.5]")
    if n < 50:
        raise ContractError("n must be at least 50")
    if error not in ERROR_LINKS:
        raise ContractError(
            f"unknown error {error!r}; valid: " + ", ".join(ERROR_LINKS)
        )
    link = get_link(ERROR_LINKS[error])
    delta = np.asarray(_TRUTH_DELTA[error])
    beta = np.asarray(_TRUTH_BETA)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    contaminated = rng.random(n) < rho
    d = (rng.random(n) < 0.25).astype(float)
    eps = np.asarray(link.quantile(rng.random(n)), dtype=float)
    z = beta[0] * x + beta[1] * d + beta[2] * x * d + eps
    y = 1 + (z[:, None] > delta[None, :]).sum(axis=1)
    # Corrupt the record after the response is fixed; xd is rebuilt
    # from the contaminated column.
    x = x + 20.0 * contaminated
    data = Dataset(
        y=y,
        X=np.column_stack([x, d, x * d]),
        n_categories=delta.size + 1,
        column_names=("x", "d", "xd"),
    )
    return data, Theta(beta=beta, delta=delta)


def inject_outlier(data: Dataset, unit: int, covariate: int, b: int,
                   omega: float) -> Dataset:
    """Copy of the dataset with one covariate cell dragged outward.

    The cell is shifted by -b * omega so that, under a positive unit
    coefficient on that covariate, the latent index delta_{y_i} - x_i
    @ beta moves by +b * omega: b = +1 drags the unit above its
    category's band, b = -1 below.  Shifts compose additively.
    """
    if not 0 <= unit < data.n:
        raise ContractError(f"unit {unit} outside 0..{data.n - 1}")
    if not 0 <= covariate < data.p:
        raise ContractError(f"covariate {covariate} outside 0..{data.p - 1}")
    if b not in (-1, 1):
        raise ContractError("b must be +1 or -1")
    if omega < 0:
        raise ContractError("omega must be nonnegative")
    X = data.X.copy()
    X[unit, covariate] -= b * omega
    return replace(data, y=data.y.copy(), X=X)

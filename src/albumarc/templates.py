"""Prototypical template-curve extraction with a genetic algorithm.

An individual is a set of k templates, each a vector of control values on a
shared knot grid.  Fitness is the summed per-album fitting cost: each album
(as a min-max normalized essence series) is charged the mean squared gap to
its best-matching template, with templates min-max renormalized before spline
construction.  Because natural-spline evaluation at fixed relative positions
is linear in the control values, the whole population is scored with a few
matrix products per distinct album length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EssenceSeries,
    check_field_types,
    check_type,
    minmax_series,
    normalize_minmax,
    relative_positions,
)
from .spline import DEFAULT_KNOTS, TemplateCurve, build_spline, check_knots, sampling_matrix


@dataclass(frozen=True)
class TemplateSet:
    """k template curves as control values over one shared knot grid."""

    xs: np.ndarray
    templates: np.ndarray
    seed: int | None = None
    final_cost: float | None = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        templates = np.atleast_2d(np.asarray(self.templates, dtype=np.float64))
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("xs must be a 1-D grid with at least 2 knots")
        if templates.ndim != 2 or templates.shape[1] != xs.size:
            raise ValueError(
                f"templates must be (k, {xs.size}), got {templates.shape}"
            )
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(templates))):
            raise ValueError("non-finite template data")
        check_knots(xs)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "templates", templates)

    @property
    def n_templates(self) -> int:
        return self.templates.shape[0]

    def curves(self) -> list[TemplateCurve]:
        """Splines over the min-max renormalized control values."""
        return [build_spline(self.xs, row) for row in normalize_minmax(self.templates)]

    def to_dict(self) -> dict:
        doc = {
            "xs": self.xs.tolist(),
            "templates": self.templates.tolist(),
            "k": int(self.n_templates),
        }
        if self.seed is not None:
            doc["seed"] = int(self.seed)
        if self.final_cost is not None:
            doc["final_cost"] = float(self.final_cost)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TemplateSet":
        """The set a :meth:`to_dict` document holds: ``xs`` a list of JSON
        numbers, ``templates`` a list of such rows, ``k``, if given, the
        number of rows, and ``seed`` and ``final_cost``, if given, numbers."""
        xs, rows = doc["xs"], doc["templates"]
        check_type("xs", xs, "list")
        check_type("templates", rows, "list")
        for i, x in enumerate(xs):
            check_type(f"xs[{i}]", x, "float")
        for i, row in enumerate(rows):
            check_type(f"templates[{i}]", row, "list")
            for j, value in enumerate(row):
                check_type(f"templates[{i}][{j}]", value, "float")
        k = doc.get("k", len(rows))
        check_type("k", k, "int")
        if k != len(rows):
            raise ValueError(f"k={k} but {len(rows)} template rows")
        seed, final_cost = doc.get("seed"), doc.get("final_cost")
        if seed is not None:
            check_type("seed", seed, "int")
        if final_cost is not None:
            check_type("final_cost", final_cost, "float")
        return cls(
            xs=np.array(xs, dtype=np.float64),
            templates=np.array(rows, dtype=np.float64),
            seed=seed,
            final_cost=final_cost,
        )


@dataclass(frozen=True)
class GAConfig:
    """Evolution settings: population s, b children per generation, k
    templates per individual."""

    n_templates: int = 4
    population_size: int = 64
    children_per_gen: int = 64
    crossover_prob: float = 0.5
    generations: int = 500
    stagnation_patience: int = 50
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.children_per_gen < 1:
            raise ValueError("children_per_gen must be at least 1")
        if self.n_templates < 1:
            raise ValueError("n_templates must be at least 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if self.generations < 1:
            raise ValueError("generations must be positive")
        if self.stagnation_patience < 1:
            raise ValueError("stagnation_patience must be positive")


def _length_groups(values_list: list[np.ndarray], xs: np.ndarray):
    """Group albums by length and precompute the spline sampling matrix and
    the albums' squared norms for each length, so population cost reduces to
    matrix products."""
    by_len: dict[int, list[np.ndarray]] = {}
    for v in values_list:
        by_len.setdefault(v.shape[0], []).append(v)
    groups = []
    for length in sorted(by_len):
        sampler = sampling_matrix(xs, relative_positions(length))
        album_values = np.stack(by_len[length])
        groups.append((sampler, album_values, (album_values**2).sum(axis=1), length))
    return groups


def _population_cost(population: np.ndarray, groups) -> np.ndarray:
    """Summed per-album fitting cost for every individual, shape (m,)."""
    m, k, q = population.shape
    normalized = normalize_minmax(population.reshape(m * k, q))
    total = np.zeros(m)
    for sampler, album_values, album_norms, length in groups:
        samples = normalized @ sampler.T
        sq = (
            (samples**2).sum(axis=1)[:, None]
            + album_norms[None, :]
            - 2.0 * (samples @ album_values.T)
        )
        np.maximum(sq, 0.0, out=sq)
        per_album = sq.reshape(m, k, -1).min(axis=1)
        total += per_album.sum(axis=1) / length
    return total


def evolve_templates(
    albums,
    config: GAConfig,
    xs=None,
) -> tuple[TemplateSet, np.ndarray]:
    """Evolve a template set minimizing the summed fitting cost.

    Returns the best individual (templates min-max renormalized) and the
    per-generation best-cost history.  Truncation selection over parents plus
    children keeps the best individual alive, so the history never increases.
    Deterministic for a given config seed.  A series of fewer than 2 values
    is rejected up front, naming its album (id, or index for a plain array).
    """
    if not albums:
        raise ValueError("no albums to fit")
    for i, album in enumerate(albums):
        n = len(album) if isinstance(album, EssenceSeries) else np.size(album)
        if n < 2:
            name = album.album_id if isinstance(album, EssenceSeries) else i
            raise ValueError(f"album {name!r} has {n} track(s); template extraction needs at least 2")
    values_list = [minmax_series(a) for a in albums]
    grid = np.array(DEFAULT_KNOTS if xs is None else xs, dtype=np.float64)
    groups = _length_groups(values_list, grid)
    s, b, k, q = (
        config.population_size,
        config.children_per_gen,
        config.n_templates,
        grid.size,
    )
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))

    population = rng.standard_normal((s, k, q))
    costs = _population_cost(population, groups)
    order = np.argsort(costs, kind="stable")
    population, costs = population[order], costs[order]

    history = []
    best_cost = np.inf
    stale = 0
    for _ in range(config.generations):
        sigma = abs(rng.standard_normal())
        fathers = rng.integers(0, s, size=b)
        mothers = (fathers + 1 + rng.integers(0, s - 1, size=b)) % s
        take_father = rng.random((b, k, q)) < config.crossover_prob
        children = np.where(take_father, population[fathers], population[mothers])
        children = children + sigma * rng.standard_normal((b, k, q))
        child_costs = _population_cost(children, groups)

        population = np.concatenate([population, children])
        costs = np.concatenate([costs, child_costs])
        order = np.argsort(costs, kind="stable")[:s]
        population, costs = population[order], costs[order]

        generation_best = float(costs[0])
        history.append(generation_best)
        if generation_best < best_cost:
            best_cost = generation_best
            stale = 0
        else:
            stale += 1
            if stale >= config.stagnation_patience:
                break

    best = TemplateSet(
        xs=grid,
        templates=normalize_minmax(population[0]),
        seed=config.seed,
        final_cost=float(costs[0]),
    )
    return best, np.array(history)

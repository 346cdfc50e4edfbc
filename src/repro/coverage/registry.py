"""Coverage-recommender registrations in the unified component registry."""

from __future__ import annotations

from repro.coverage.base import CoverageRecommender
from repro.coverage.dynamic import DynamicCoverage
from repro.coverage.random import RandomCoverage
from repro.coverage.static import StaticCoverage
from repro.registry import create, register

register("coverage", "rand", aliases=("random",))(RandomCoverage)
register("coverage", "stat", aliases=("static",))(StaticCoverage)
register("coverage", "dyn", aliases=("dynamic",))(DynamicCoverage)


def make_coverage(name: str, **kwargs: object) -> CoverageRecommender:
    """Instantiate a coverage recommender from its (case-insensitive) name.

    Unknown hyper-parameters raise :class:`ConfigurationError`; the reserved
    ``seed`` kwarg is threaded to Rand and dropped for the seedless models.
    """
    return create("coverage", name, **kwargs)

"""Coverage recommenders (Section III-B of the paper).

A coverage recommender supplies the coverage score ``c(i) ∈ [0, 1]`` of every
item, rewarding recommendations that spread across the item space:

* :class:`~repro.coverage.random.RandomCoverage` — ``c(i) ~ Uniform(0, 1)``,
* :class:`~repro.coverage.static.StaticCoverage` — a monotone decreasing
  function of the item's *train* popularity, ``c(i) = 1 / sqrt(f^R_i + 1)``,
* :class:`~repro.coverage.dynamic.DynamicCoverage` — the same decreasing
  function applied to the item's frequency in the *recommendations assigned so
  far*, giving a diminishing-returns (submodular) coverage gain.

The dynamic recommender's assignment bookkeeping lives in
:mod:`repro.coverage.state`: :class:`~repro.coverage.state.CoverageState`
keeps counts and scores in lockstep with O(N) delta updates, and
:class:`~repro.coverage.state.DeltaSnapshots` records OSLG's per-step
snapshots compactly.
"""

from repro.coverage.base import CoverageRecommender
from repro.coverage.random import RandomCoverage
from repro.coverage.static import StaticCoverage
from repro.coverage.dynamic import DynamicCoverage
from repro.coverage.state import CoverageState, DeltaSnapshots
from repro.coverage.registry import make_coverage

__all__ = [
    "CoverageRecommender",
    "RandomCoverage",
    "StaticCoverage",
    "DynamicCoverage",
    "CoverageState",
    "DeltaSnapshots",
    "make_coverage",
]

"""Contracts of the public API surface (the top-level lazy name tables)."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro
import repro.serving
import repro.simulate


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") >= 1


def test_all_names_resolve():
    """Each lazily re-exported name resolves to its module's own object."""
    for package in (repro, repro.serving, repro.simulate):
        listed = dir(package)
        for name in package.__all__:
            assert hasattr(package, name), (
                f"{package.__name__}.__all__ lists {name} but it is missing"
            )
            assert name in listed
            value = getattr(package, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                defining = importlib.import_module(value.__module__)
                assert getattr(defining, value.__name__) is value
            if name != "__version__":
                source = importlib.import_module(package._EXPORTS[name])
                assert getattr(source, name) is value


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.data",
        "repro.data.io",
        "repro.preferences",
        "repro.recommenders",
        "repro.coverage",
        "repro.ganc",
        "repro.rerankers",
        "repro.metrics",
        "repro.metrics.beyond",
        "repro.evaluation",
        "repro.experiments",
        "repro.experiments.report_writer",
        "repro.parallel",
        "repro.pipeline",
        "repro.serving",
        "repro.serving.service",
        "repro.utils",
        "repro.utils.plotting",
        "repro.cli",
    ],
)
def test_every_subpackage_imports_cleanly(module_name):
    assert importlib.import_module(module_name) is not None


def test_paper_template_components_compose(tiny_dataset):
    """The README's GANC(ARec, theta, CRec) template composes from the top-level API."""
    model = repro.GANC(
        repro.MostPopular(),
        repro.TfidfPreference(),
        repro.StaticCoverage(),
    )
    top = model.fit(tiny_dataset).recommend_all(2)
    assert top.items.shape == (tiny_dataset.n_users, 2)
    assert model.template.startswith("GANC(MostPopular")

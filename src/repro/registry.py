"""One component registry for every pluggable piece of the GANC framework.

The paper frames GANC as a *generic* framework: any accuracy recommender,
preference model and coverage strategy plug together.  This module is the
single mechanism behind that composability.  Components are registered under a
``(kind, name)`` pair with the :func:`register` decorator::

    @register("recommender", "pop")
    class MostPopular(Recommender): ...

and instantiated by name with :func:`create`::

    model = create("recommender", "psvd100", scale_hint=0.3)

Four kinds exist: ``recommender`` (accuracy models), ``preference`` (long-tail
novelty estimators), ``coverage`` (coverage recommenders) and ``reranker``
(re-ranking baselines).  The built-in components of each kind register
themselves in the per-kind registry modules, which are imported lazily on
first lookup so that ``import repro.registry`` stays cycle-free.

Construction is **strict**: keyword arguments are validated against the
component's ``__init__`` signature and unknown names raise
:class:`~repro.exceptions.ConfigurationError` instead of being silently
swallowed (the failure mode of the old per-kind ``lambda **kw`` factories,
which hid typos like ``n_factor=``).  Two keyword arguments are reserved:

``seed``
    Threaded to components that accept it and dropped for the ones that do
    not (``seed`` is execution context, not a hyper-parameter, so passing it
    uniformly from a pipeline must not fail on seedless models like Pop).
``scale_hint``
    Consumed by the registry itself: entries may declare *scaled parameters*
    (the SVD-family latent ranks) whose default values are multiplied by the
    clamped hint so that the factors-to-items ratio on a scaled-down
    surrogate dataset stays comparable to the paper's full-size datasets.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.exceptions import ConfigurationError

#: Component kinds the registry knows about.
KINDS = ("recommender", "preference", "coverage", "reranker")

#: Modules that register the built-in components of each kind.  Imported
#: lazily by :func:`_ensure_loaded` the first time a kind is looked up.
_KIND_MODULES: Mapping[str, str] = {
    "recommender": "repro.recommenders.registry",
    "preference": "repro.preferences.registry",
    "coverage": "repro.coverage.registry",
    "reranker": "repro.rerankers.registry",
}

#: Bounds applied to ``scale_hint`` before it multiplies a scaled parameter.
_MIN_RANK_SCALE = 0.05
_MAX_RANK_SCALE = 1.0


@dataclass(frozen=True)
class ComponentEntry:
    """One registered component: its class plus name-specific defaults.

    Attributes
    ----------
    kind, name:
        The registry key.  ``name`` is stored lower-cased.
    cls:
        The component class instantiated by :func:`create`.
    defaults:
        Keyword defaults baked into this *name* (e.g. ``psvd10`` is
        :class:`PureSVD` with ``n_factors=10``).  Explicit user kwargs win.
    scaled_params:
        ``{parameter: minimum}`` — parameters whose **default** value is
        multiplied by the clamped ``scale_hint`` and floored at ``minimum``.
        Explicitly passed values are never rescaled.
    """

    kind: str
    name: str
    cls: type
    defaults: Mapping[str, Any] = field(default_factory=dict)
    scaled_params: Mapping[str, int] = field(default_factory=dict)


_ENTRIES: dict[tuple[str, str], ComponentEntry] = {}
_RESOLVERS: dict[str, list[Callable[[str], ComponentEntry | None]]] = {}
_LOADED: set[str] = set()


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ConfigurationError(
            f"unknown component kind {kind!r}; available kinds: {sorted(KINDS)}"
        )


def _ensure_loaded(kind: str) -> None:
    if kind in _LOADED:
        return
    # Mark loaded only after a successful import: a broken registration module
    # must keep raising its real error instead of leaving an empty registry.
    # (Re-entrant calls during that import hit sys.modules, not a re-exec.)
    importlib.import_module(_KIND_MODULES[kind])
    _LOADED.add(kind)


def register(
    kind: str,
    name: str,
    *,
    defaults: Mapping[str, Any] | None = None,
    scaled_params: Mapping[str, int] | None = None,
    aliases: tuple[str, ...] = (),
) -> Callable[[type], type]:
    """Class decorator registering a component under ``(kind, name)``.

    ``aliases`` registers the same class/defaults under additional names.
    Registering a name twice is a :class:`ConfigurationError` — every name
    has exactly one source of truth.
    """
    _check_kind(kind)

    def decorator(cls: type) -> type:
        """Register ``cls`` under every alias and return it unchanged."""
        for alias in (name, *aliases):
            key = (kind, alias.strip().lower())
            if key in _ENTRIES:
                raise ConfigurationError(
                    f"{kind} name {alias!r} is already registered "
                    f"(to {_ENTRIES[key].cls.__name__})"
                )
            _ENTRIES[key] = ComponentEntry(
                kind=kind,
                name=key[1],
                cls=cls,
                defaults=dict(defaults or {}),
                scaled_params=dict(scaled_params or {}),
            )
        return cls

    return decorator


def register_resolver(kind: str, resolver: Callable[[str], ComponentEntry | None]) -> None:
    """Add a fallback resolver for dynamic names of one kind.

    Resolvers run (in registration order) when a name has no static entry and
    may return a synthesized :class:`ComponentEntry` — e.g. ``psvd37`` maps to
    :class:`PureSVD` with ``n_factors=37`` without a dedicated entry.
    """
    _check_kind(kind)
    _RESOLVERS.setdefault(kind, []).append(resolver)


def available(kind: str) -> list[str]:
    """Sorted names registered for ``kind`` (static entries only)."""
    _check_kind(kind)
    _ensure_loaded(kind)
    return sorted(entry_name for entry_kind, entry_name in _ENTRIES if entry_kind == kind)


def component_entry(kind: str, name: str) -> ComponentEntry:
    """Look up the entry of ``(kind, name)``, consulting dynamic resolvers.

    Names are case-insensitive and the paper's ``θ`` spelling is accepted
    everywhere (``θG`` → ``thetag``), so CLI arguments, spec files and direct
    ``create`` calls all resolve identically.
    """
    _check_kind(kind)
    _ensure_loaded(kind)
    key = name.strip().lower().replace("θ", "theta")
    entry = _ENTRIES.get((kind, key))
    if entry is not None:
        return entry
    for resolver in _RESOLVERS.get(kind, ()):
        entry = resolver(key)
        if entry is not None:
            return entry
    raise ConfigurationError(
        f"unknown {kind} {name!r}; available: {available(kind)}"
    )


def _constructor_params(cls: type) -> tuple[frozenset[str], bool]:
    """Names accepted by ``cls.__init__`` and whether it takes ``**kwargs``."""
    if cls.__init__ is object.__init__:  # no explicit constructor anywhere
        return frozenset(), False
    signature = inspect.signature(cls.__init__)
    names = []
    has_var_keyword = False
    for parameter in signature.parameters.values():
        if parameter.name == "self":
            continue
        if parameter.kind == inspect.Parameter.VAR_KEYWORD:
            has_var_keyword = True
        elif parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.append(parameter.name)
    return frozenset(names), has_var_keyword


def _validated_kwargs(entry: ComponentEntry, kwargs: dict[str, Any]) -> dict[str, Any]:
    accepted, has_var_keyword = _constructor_params(entry.cls)
    if has_var_keyword:
        return kwargs
    if "seed" in kwargs and "seed" not in accepted:
        kwargs = {key: value for key, value in kwargs.items() if key != "seed"}
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        raise ConfigurationError(
            f"{entry.kind} {entry.name!r} ({entry.cls.__name__}) got unexpected "
            f"parameter(s) {unknown}; valid parameters: {sorted(accepted)}"
        )
    return kwargs


def _scaled_rank(requested: Any, scale_hint: float, minimum: int) -> int:
    rank_scale = min(max(float(scale_hint), _MIN_RANK_SCALE), _MAX_RANK_SCALE)
    return max(int(minimum), int(round(float(requested) * rank_scale)))


def create(kind: str, name: str, **kwargs: Any) -> Any:
    """Instantiate the component registered as ``(kind, name)``.

    ``kwargs`` override the entry's defaults.  ``scale_hint`` and ``seed``
    are reserved (see the module docstring); every other unknown keyword
    raises :class:`ConfigurationError`.
    """
    entry = component_entry(kind, name)
    scale_hint = kwargs.pop("scale_hint", None)
    params: dict[str, Any] = dict(entry.defaults)
    if scale_hint is not None:
        for parameter, minimum in entry.scaled_params.items():
            if parameter in params and parameter not in kwargs:
                params[parameter] = _scaled_rank(params[parameter], scale_hint, minimum)
    params.update(kwargs)
    params = _validated_kwargs(entry, params)
    return entry.cls(**params)


# --------------------------------------------------------------------------- #
# Parameter introspection
# --------------------------------------------------------------------------- #
class ParamsMixin:
    """``get_params()`` / ``from_params()`` via constructor introspection.

    ``get_params`` maps every ``__init__`` parameter onto the attribute the
    component stores it under (``self.<name>``, falling back to
    ``self._<name>``), so a fitted component can always report the exact
    configuration that would rebuild it.  Components whose storage deviates
    from that convention must override :meth:`get_params`.
    """

    def get_params(self) -> dict[str, Any]:
        """The constructor parameters of this component, by introspection."""
        params: dict[str, Any] = {}
        for name in sorted(_constructor_params(type(self))[0]):
            if hasattr(self, name):
                params[name] = getattr(self, name)
            elif hasattr(self, f"_{name}"):
                params[name] = getattr(self, f"_{name}")
            else:
                raise ConfigurationError(
                    f"{type(self).__name__} stores no attribute for constructor "
                    f"parameter {name!r}; override get_params()"
                )
        return params

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "ParamsMixin":
        """Instantiate from a :meth:`get_params`-style mapping (strict)."""
        accepted, has_var_keyword = _constructor_params(cls)
        if not has_var_keyword:
            unknown = sorted(set(params) - accepted)
            if unknown:
                raise ConfigurationError(
                    f"{cls.__name__} got unexpected parameter(s) {unknown}; "
                    f"valid parameters: {sorted(accepted)}"
                )
        return cls(**dict(params))

"""User long-tail novelty preference models (Section II of the paper).

Each estimator maps a train :class:`~repro.data.dataset.RatingDataset` to a
vector ``θ`` with one entry per user, always inside ``[0, 1]``:

* ``θA`` — Activity (number of rated items),
* ``θN`` — Normalized long-tail fraction (Eq. II.1),
* ``θT`` — TFIDF-based measure combining user interest and inverse item
  popularity (Eq. II.2),
* ``θG`` — Generalized preference learned by the paper's alternating minimax
  optimization over item weights and user preferences (Eq. II.4–II.6),
* ``θR`` / ``θC`` — random / constant control models used in Figure 5.
"""

from repro.preferences.base import PreferenceModel, PreferenceResult
from repro.preferences.simple import (
    ActivityPreference,
    NormalizedLongTailPreference,
    TfidfPreference,
    RandomPreference,
    ConstantPreference,
    per_user_item_preference,
)
from repro.preferences.generalized import GeneralizedPreference, MinimaxTrace
from repro.preferences.registry import make_preference_model

__all__ = [
    "PreferenceModel",
    "PreferenceResult",
    "ActivityPreference",
    "NormalizedLongTailPreference",
    "TfidfPreference",
    "RandomPreference",
    "ConstantPreference",
    "per_user_item_preference",
    "GeneralizedPreference",
    "MinimaxTrace",
    "make_preference_model",
]

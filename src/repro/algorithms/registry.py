"""The algorithm registry: every trainable classifier, keyed by the
paper's abbreviation.

Importing this module imports every classifier.  Inference never needs
it — a fitted model carries its classifiers, and a compiled one only
their :mod:`~repro.algorithms.compiled` scorers — so :mod:`repro.algorithms`
loads it on first use of :data:`ALGORITHMS`, :func:`make_classifier` or
:func:`compile_support`.
"""

from __future__ import annotations

from repro.algorithms.base import BinaryClassifier
from repro.algorithms.decision_tree import DecisionTreeClassifier
from repro.algorithms.knn import KNearestNeighborsClassifier
from repro.algorithms.markov import MarkovChainClassifier
from repro.algorithms.maxent import MaxEntClassifier
from repro.algorithms.naive_bayes import NaiveBayesClassifier
from repro.algorithms.rank_order import RankOrderClassifier
from repro.algorithms.relative_entropy import RelativeEntropyClassifier

#: Factory registry keyed by the paper's abbreviations.  NB/DT/RE/ME are
#: the paper's four algorithms; kNN is the one it dropped; RO (rank
#: order) and MM (Markov model) are the related-work methods the authors
#: rejected in favour of RE in preliminary experiments.
ALGORITHMS = {
    "NB": NaiveBayesClassifier,
    "DT": DecisionTreeClassifier,
    "RE": RelativeEntropyClassifier,
    "ME": MaxEntClassifier,
    "kNN": KNearestNeighborsClassifier,
    "RO": RankOrderClassifier,
    "MM": MarkovChainClassifier,
}


def make_classifier(name: str, **kwargs) -> BinaryClassifier:
    """Instantiate a classifier by its paper abbreviation (NB/DT/RE/ME/kNN)."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return factory(**kwargs)


def compile_support() -> dict[str, bool]:
    """Which algorithms have a vectorized (compiled) lowering, measured.

    Fits every registered algorithm — plus the ``ME:iis`` trainer
    variant, which shares the ``ME`` registry entry but scores over
    L1-normalised inputs — on a tiny separable problem and reports
    whether :meth:`~repro.algorithms.base.BinaryClassifier.compile`
    produced a scorer.  This is the *runtime truth* behind the backend
    matrix in ``README.md``; ``tools/check_docs.py`` asserts the
    documented matrix against it so the docs cannot drift from the
    code.
    """
    from repro.features.indexer import FeatureIndexer

    # Trigram-shaped feature names ("t:" + 3 chars) so the Markov
    # chain — which parses the gram out of the name — fits too.
    vectors = [
        {"t:aaa": 2.0, "t:aab": 1.0, "t:sha": 1.0},
        {"t:bba": 2.0, "t:bbb": 1.0, "t:sha": 1.0},
    ] * 4
    labels = [True, False] * 4
    indexer = FeatureIndexer().fit(vectors)
    support: dict[str, bool] = {}
    for name in ALGORITHMS:
        classifier = make_classifier(name).fit(vectors, labels)
        support[name] = classifier.compile(indexer) is not None
    iis = MaxEntClassifier(method="iis").fit(vectors, labels)
    support["ME:iis"] = iis.compile(indexer) is not None
    return support

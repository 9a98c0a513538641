"""repro — URL-based web page language identification.

A full reproduction of Baykan, Henzinger & Weber, *Web Page Language
Identification Based on URLs* (VLDB 2008): word/trigram/custom feature
sets, Naive Bayes / Decision Tree / Relative Entropy / Maximum Entropy
classifiers, ccTLD baselines, classifier combination, the evaluation
methodology, and synthetic stand-ins for the paper's corpora and human
study.

Quickstart
----------
>>> from repro import LanguageIdentifier, build_datasets
>>> data = build_datasets(scale=0.2)
>>> identifier = LanguageIdentifier(feature_set="words", algorithm="NB")
>>> _ = identifier.fit(data.combined_train)

For inference against an already-trained model — wherever it lives —
use the :mod:`repro.api` facade:

>>> from repro import open_model
>>> model = open_model("model.urlmodel")  # doctest: +SKIP
"""

from repro._lazy import lazy_exports

# Each name loads its defining module on first use, so a process pays
# only for what it runs: the serving daemon and bulk workers never load
# the trainers, the corpus generator or the human study.
__getattr__, __dir__ = lazy_exports(globals(), {
    "ALGORITHMS": "repro.algorithms.registry",
    "make_classifier": "repro.algorithms.registry",
    "BinaryClassifier": "repro.algorithms.base",
    "CcTldLabeler": "repro.algorithms.cctld",
    "DecisionTreeClassifier": "repro.algorithms.decision_tree",
    "KNearestNeighborsClassifier": "repro.algorithms.knn",
    "MaxEntClassifier": "repro.algorithms.maxent",
    "NaiveBayesClassifier": "repro.algorithms.naive_bayes",
    "RelativeEntropyClassifier": "repro.algorithms.relative_entropy",
    "ResolveError": "repro.api.errors",
    "Predictor": "repro.api.protocol",
    "open_model": "repro.api.resolver",
    "register_scheme": "repro.api.resolver",
    "BatchResult": "repro.api.types",
    "Prediction": "repro.api.types",
    "BEST_COMBINATIONS": "repro.core.combination",
    "CombinedIdentifier": "repro.core.combination",
    "build_best_combination": "repro.core.combination",
    "LanguageIdentifier": "repro.core.pipeline",
    "make_extractor": "repro.core.pipeline",
    "forward_select": "repro.core.selection",
    "TrainedPool": "repro.core.training",
    "UrlCorpusGenerator": "repro.corpus.generator",
    "Corpus": "repro.corpus.records",
    "LabeledUrl": "repro.corpus.records",
    "train_test_split": "repro.corpus.records",
    "DatasetBundle": "repro.datasets",
    "build_datasets": "repro.datasets",
    "ConfusionMatrix": "repro.evaluation.confusion",
    "confusion_matrix": "repro.evaluation.confusion",
    "BinaryMetrics": "repro.evaluation.metrics",
    "evaluate_binary": "repro.evaluation.metrics",
    "CustomFeatureExtractor": "repro.features.custom",
    "TrigramFeatureExtractor": "repro.features.ngrams",
    "WordFeatureExtractor": "repro.features.words",
    "HumanEvaluator": "repro.humans.evaluator",
    "default_evaluators": "repro.humans.evaluator",
    "LANGUAGES": "repro.languages",
    "Language": "repro.languages",
    "ServingIdentifier": "repro.store.artifact",
    "load_identifier": "repro.store.artifact",
    "save_identifier": "repro.store.artifact",
    "ModelStore": "repro.store.registry",
    "parse_url": "repro.urls.parsing",
    "tokenize": "repro.urls.tokenizer",
    "url_trigrams": "repro.urls.trigrams",
})

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "BEST_COMBINATIONS",
    "BatchResult",
    "BinaryClassifier",
    "BinaryMetrics",
    "CcTldLabeler",
    "CombinedIdentifier",
    "ConfusionMatrix",
    "Corpus",
    "CustomFeatureExtractor",
    "DatasetBundle",
    "DecisionTreeClassifier",
    "HumanEvaluator",
    "KNearestNeighborsClassifier",
    "LANGUAGES",
    "LabeledUrl",
    "Language",
    "LanguageIdentifier",
    "MaxEntClassifier",
    "ModelStore",
    "NaiveBayesClassifier",
    "Prediction",
    "Predictor",
    "RelativeEntropyClassifier",
    "ResolveError",
    "ServingIdentifier",
    "TrainedPool",
    "TrigramFeatureExtractor",
    "UrlCorpusGenerator",
    "WordFeatureExtractor",
    "build_best_combination",
    "build_datasets",
    "confusion_matrix",
    "default_evaluators",
    "evaluate_binary",
    "forward_select",
    "load_identifier",
    "make_classifier",
    "make_extractor",
    "open_model",
    "register_scheme",
    "save_identifier",
    "parse_url",
    "tokenize",
    "train_test_split",
    "url_trigrams",
]

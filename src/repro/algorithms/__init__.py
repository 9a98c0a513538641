"""Classification algorithms of the study (S6-S11).

Naive Bayes, Decision Tree, Relative Entropy and Maximum Entropy are the
paper's four main algorithms; kNN is the one it dropped after preliminary
experiments; ccTLD/ccTLD+ are the training-free baselines.

Every name below loads its module on first use: a process that only
scores with a fitted model imports :mod:`repro.algorithms.compiled`,
never the trainers.  :data:`ALGORITHMS`, :func:`make_classifier` and
:func:`compile_support` live in :mod:`repro.algorithms.registry`, which
imports every classifier.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "ALGORITHMS": "repro.algorithms.registry",
    "make_classifier": "repro.algorithms.registry",
    "compile_support": "repro.algorithms.registry",
    "BinaryClassifier": "repro.algorithms.base",
    "ConstantClassifier": "repro.algorithms.base",
    "check_fit_inputs": "repro.algorithms.base",
    "CcTldBinaryClassifier": "repro.algorithms.cctld",
    "CcTldLabeler": "repro.algorithms.cctld",
    "CompiledLinear": "repro.algorithms.compiled",
    "CompiledNormalizedLinear": "repro.algorithms.compiled",
    "CompiledRankOrder": "repro.algorithms.compiled",
    "CompiledScorer": "repro.algorithms.compiled",
    "DecisionTreeClassifier": "repro.algorithms.decision_tree",
    "KNearestNeighborsClassifier": "repro.algorithms.knn",
    "MarkovChainClassifier": "repro.algorithms.markov",
    "MaxEntClassifier": "repro.algorithms.maxent",
    "NaiveBayesClassifier": "repro.algorithms.naive_bayes",
    "RankOrderClassifier": "repro.algorithms.rank_order",
    "RelativeEntropyClassifier": "repro.algorithms.relative_entropy",
})

__all__ = [
    "ALGORITHMS",
    "BinaryClassifier",
    "CcTldBinaryClassifier",
    "CcTldLabeler",
    "CompiledLinear",
    "CompiledNormalizedLinear",
    "CompiledRankOrder",
    "CompiledScorer",
    "ConstantClassifier",
    "DecisionTreeClassifier",
    "KNearestNeighborsClassifier",
    "MarkovChainClassifier",
    "MaxEntClassifier",
    "NaiveBayesClassifier",
    "RankOrderClassifier",
    "RelativeEntropyClassifier",
    "check_fit_inputs",
    "make_classifier",
]

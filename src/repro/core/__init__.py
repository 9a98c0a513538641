"""Core pipeline: identifiers, combination, selection, training helpers.

Each name loads its module on first use, so inference, which needs only
:mod:`repro.core.pipeline`, never imports combination, selection or
the training grid.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "BEST_COMBINATIONS": "repro.core.combination",
    "PRECISION": "repro.core.combination",
    "RECALL": "repro.core.combination",
    "CombinationSpec": "repro.core.combination",
    "CombinedIdentifier": "repro.core.combination",
    "build_best_combination": "repro.core.combination",
    "merge_decisions": "repro.core.combination",
    "search_best_combination": "repro.core.combination",
    "BACKENDS": "repro.core.pipeline",
    "BASELINE_ALGORITHMS": "repro.core.pipeline",
    "FEATURE_SETS": "repro.core.pipeline",
    "CompiledIdentifier": "repro.core.pipeline",
    "LanguageIdentifier": "repro.core.pipeline",
    "make_extractor": "repro.core.pipeline",
    "SelectionResult": "repro.core.selection",
    "SelectionStep": "repro.core.selection",
    "forward_select": "repro.core.selection",
    "EvaluationRun": "repro.core.training",
    "TrainedPool": "repro.core.training",
    "evaluate_grid": "repro.core.training",
    "language_f_table": "repro.core.training",
})

__all__ = [
    "BACKENDS",
    "BASELINE_ALGORITHMS",
    "BEST_COMBINATIONS",
    "CombinationSpec",
    "CombinedIdentifier",
    "CompiledIdentifier",
    "EvaluationRun",
    "FEATURE_SETS",
    "LanguageIdentifier",
    "PRECISION",
    "RECALL",
    "SelectionResult",
    "SelectionStep",
    "TrainedPool",
    "build_best_combination",
    "evaluate_grid",
    "forward_select",
    "language_f_table",
    "make_extractor",
    "merge_decisions",
    "search_best_combination",
]

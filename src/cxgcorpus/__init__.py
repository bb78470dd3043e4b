"""Construction-grammar corpus engine.

Matches an inventory of slot-constraint constructions against annotated
corpora, builds the construction-clustered / article / randomized
pre-training corpus variants, generates audited same-construction pair
datasets, and ships a linear baseline probe for them.

Submodules, and the names below that come from them, load on first
access, so that importing the package, or one stage, does not import
the whole pipeline.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "ingest": (
        "AnnotatedSentence", "AnnotationResources", "Token", "annotate_corpus",
        "parse_wikitext", "split_sentences", "tag_pos", "tokenize",
    ),
    "inventory": (
        "Construction", "InductionParams", "Inventory", "SlotConstraint",
        "induce_inventory", "load_inventory", "parse_construction_spec",
        "render_name", "write_inventory",
    ),
    "matcher": (
        "MatchIndex", "OccurrenceTable", "brute_force_match",
        "build_index", "match_corpus", "match_sentence", "occurrence_stats",
    ),
    "corpus_builder": (
        "BuildManifest", "build_base_clone", "build_cxg_corpus", "build_random",
        "verify_multiset", "write_pretraining_file",
    ),
    "pair_sampler": (
        "PairExample", "PairText", "SamplerConfig", "audit_pairs",
        "make_inoculation_subsets", "read_pairs", "sample_pairs", "write_pairs",
    ),
    "baseline": (
        "Hyperparams", "LinearModel", "evaluate", "featurize_pair",
        "shuffle_control", "train",
    ),
}
_SUBMODULES = (*_EXPORTS, "errors", "workspace")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, *_SUBMODULES]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

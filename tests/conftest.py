"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import copy
import os
import random
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.core import pipeline
from repro.corpus.records import Corpus, LabeledUrl
from repro.datasets import build_datasets
from repro.languages import Language

#: Conservative cross-platform bound on AF_UNIX's ``sun_path`` (Linux
#: allows 107 usable bytes, the BSDs 103); kept lower so daemon sidecar
#: files derived from the socket path (``<socket>.pid``, ``<socket>.log``)
#: stay well clear too.
SUN_PATH_BUDGET = 92


@pytest.fixture
def sockpath(tmp_path):
    """Factory for Unix-socket paths that always fit ``sun_path``.

    pytest's ``tmp_path`` encodes the full test id, and parametrized
    ids can push ``<tmp_path>/x.sock`` past the AF_UNIX path limit —
    ``bind()`` then fails with a baffling ``OSError``.  Paths that fit
    stay inside ``tmp_path`` (auto-cleaned); long ones fall back to a
    short ``mkdtemp`` directory removed at teardown.
    """
    fallback_dirs: list[str] = []

    def make(name: str = "daemon.sock") -> Path:
        candidate = tmp_path / name
        if len(os.fsencode(candidate)) <= SUN_PATH_BUDGET:
            return candidate
        short = tempfile.mkdtemp(prefix="sk-")
        fallback_dirs.append(short)
        return Path(short) / name

    yield make
    for directory in fallback_dirs:
        shutil.rmtree(directory, ignore_errors=True)


@pytest.fixture(scope="session")
def toy_training():
    """A small, noisy but separable binary problem over sparse vectors.

    Positive vectors emphasise features f0/f1, negative ones f2/f3, with
    a shared neutral feature.  Deterministic.
    """
    rng = random.Random(7)
    vectors, labels = [], []
    for _ in range(60):
        vectors.append(
            {
                "f0": 1.0 + rng.random(),
                "f1": rng.random(),
                "shared": 1.0,
                **({"f2": 0.3} if rng.random() < 0.2 else {}),
            }
        )
        labels.append(True)
        vectors.append(
            {
                "f2": 1.0 + rng.random(),
                "f3": rng.random(),
                "shared": 1.0,
                **({"f0": 0.3} if rng.random() < 0.2 else {}),
            }
        )
        labels.append(False)
    return vectors, labels


@pytest.fixture(scope="session")
def toy_test():
    positive = {"f0": 1.2, "f1": 0.5, "shared": 1.0}
    negative = {"f2": 1.2, "f3": 0.5, "shared": 1.0}
    return positive, negative


@pytest.fixture(scope="session")
def small_bundle():
    """A small but realistic dataset bundle shared across tests."""
    return build_datasets(seed=11, scale=0.15, wc_scale=0.5)


@pytest.fixture(scope="session")
def small_train(small_bundle):
    return small_bundle.combined_train


def make_corpus(counts: dict[str, int], name: str = "toy") -> Corpus:
    """Tiny deterministic corpus with per-language hand-written URLs."""
    stems = {
        "en": "http://www.weather-news.com/story{i}.html",
        "de": "http://www.blumen-haus.de/garten{i}.html",
        "fr": "http://www.recherche.fr/produits{i}.html",
        "es": "http://www.noticias.es/paginas{i}.html",
        "it": "http://www.giornale.it/pagina{i}.html",
    }
    records = []
    for code, count in counts.items():
        for i in range(count):
            records.append(
                LabeledUrl(
                    url=stems[code].format(i=i),
                    language=Language.coerce(code),
                )
            )
    return Corpus(records=records, name=name)


@contextlib.contextmanager
def fused_plans_off():
    """Inside, every :class:`~repro.core.pipeline.CompiledIdentifier`
    built gets no fused plan, so it extracts through the reference path
    for its whole life."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "build_fused_plan", lambda *_: None)
        yield


def reference_extraction(compiled):
    """A twin of ``compiled`` built on the reference extraction path:
    the same weights, no fused plan and an empty row memo."""
    with fused_plans_off():
        return copy.copy(compiled)

"""Seeded inputs: the trained artifact, URL pools, shard files and their digest.

Everything a workload feeds the program is derived from ``--seed``
here, through the program's own synthetic corpus generator
(``repro.corpus``, the generator behind ``repro generate``).  The
program only ever receives URLs and files, never the seed.  The
artifact is trained from a fixed seed, so all runs of one commit score
with the same model and only the traffic varies with ``--seed``.
"""

from __future__ import annotations

import gzip
import hashlib
import random
from pathlib import Path

#: Training settings of the benchmark artifact (``repro train`` defaults).
TRAIN_SEED = 0
TRAIN_SCALE = 0.4


def train_artifact(path: Path) -> Path:
    """Train NB/words (the ``repro train`` default) and save an artifact."""
    from repro.core.pipeline import LanguageIdentifier
    from repro.datasets import build_datasets
    from repro.store import save_identifier

    data = build_datasets(seed=TRAIN_SEED, scale=TRAIN_SCALE)
    identifier = LanguageIdentifier(
        feature_set="words", algorithm="NB", seed=TRAIN_SEED, backend="auto"
    )
    identifier.fit(data.combined_train)
    save_identifier(identifier, path)
    return path


def unique_urls(seed: int, per_language: int) -> list[str]:
    """Distinct URLs of a ``repro generate --profile odp`` corpus, in a
    seeded order."""
    from repro.corpus import UrlCorpusGenerator
    from repro.languages import LANGUAGES

    corpus = UrlCorpusGenerator(seed=seed).generate_corpus(
        "odp", {language: per_language for language in LANGUAGES}
    )
    urls = list(dict.fromkeys(record.url for record in corpus))
    random.Random(seed).shuffle(urls)
    return urls


def zipf_batches(pool: list[str], batches: int, size: int,
                 rng: random.Random) -> list[list[str]]:
    """``batches`` lists of ``size`` URLs drawn Zipf-skewed from ``pool``
    (rank ``r``, counted from 1, has weight ``1 / r``)."""
    cumulative = []
    total = 0.0
    for rank in range(1, len(pool) + 1):
        total += 1.0 / rank
        cumulative.append(total)
    return [
        rng.choices(pool, cum_weights=cumulative, k=size)
        for _ in range(batches)
    ]


def split(urls: list[str], parts: int) -> list[list[str]]:
    """``urls`` cut into ``parts`` contiguous slices of near-equal size."""
    step, extra = divmod(len(urls), parts)
    out, start = [], 0
    for index in range(parts):
        stop = start + step + (1 if index < extra else 0)
        out.append(urls[start:stop])
        start = stop
    return out


def write_shards(shards: list[list[str]], directory: Path,
                 compressed: bool) -> list[Path]:
    """One text shard (one URL per line) per slice; ``part-NNNNN.txt[.gz]``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, urls in enumerate(shards):
        data = "".join(url + "\n" for url in urls).encode("utf-8")
        path = directory / f"part-{index:05d}.txt"
        if compressed:
            path = path.with_name(path.name + ".gz")
            data = gzip.compress(data, compresslevel=6, mtime=0)
        path.write_bytes(data)
        paths.append(path)
    return paths


def digest(*parts) -> str:
    """sha256 over URL lists (or nested lists of them), order-sensitive."""
    hasher = hashlib.sha256()

    def feed(item) -> None:
        if isinstance(item, str):
            hasher.update(item.encode("utf-8", "surrogatepass") + b"\n")
        else:
            hasher.update(b"[")
            for inner in item:
                feed(inner)
            hasher.update(b"]")

    for part in parts:
        feed(part)
    return hasher.hexdigest()

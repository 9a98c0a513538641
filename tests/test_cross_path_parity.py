"""One batch, every answering path, one answer.

Wherever a URL is scored — in process on the compiled or the sparse
backend, through the daemon over its Unix socket, TCP or HTTP, through
the async client, by a bulk run or by the CLI — it must get the same
best label and the same positive languages.  One seeded adversarial
batch (:func:`repro.testing.urlgen.adversarial_urls`) is scored on every
path by a rank-order model: its compiled and sparse scores are
bit-identical, and its top scores tie often, so the tie rule is pinned
too — a tied row's best label is the earliest tied language in
:data:`~repro.languages.LANGUAGES`.
"""

from __future__ import annotations

import asyncio
import io
import json
import urllib.request
from types import SimpleNamespace

import pytest

from repro import bulk
from repro.cli import main
from repro.core.pipeline import LanguageIdentifier
from repro.languages import LANGUAGES
from repro.store import save_identifier
from repro.store.client import AsyncRemoteIdentifier, DaemonClient
from repro.store.daemon import start_daemon, stop_daemon
from repro.testing.urlgen import adversarial_urls

URLS = adversarial_urls(2000, seed=0)


@pytest.fixture(scope="module")
def models(small_train, tmp_path_factory):
    """``(compiled, sparse, artifact path)`` of one RO/words model."""
    compiled = LanguageIdentifier("words", "RO", seed=0).fit(small_train)
    sparse = LanguageIdentifier(
        "words", "RO", seed=0, backend="sparse"
    ).fit(small_train)
    assert compiled.compiled is not None and sparse.compiled is None
    artifact = tmp_path_factory.mktemp("parity") / "ro.urlmodel"
    save_identifier(compiled, artifact)
    return compiled, sparse, artifact


@pytest.fixture(scope="module")
def daemon(models, tmp_path_factory):
    """One daemon over the artifact, listening on every front door."""
    _, _, artifact = models
    socket_path = tmp_path_factory.mktemp("parity-d") / "p.sock"
    start_daemon(artifact, socket_path, workers=1, http_port=0,
                 tcp="127.0.0.1:0")
    with DaemonClient(socket_path) as client:
        status = client.status()
    yield SimpleNamespace(
        socket=socket_path,
        tcp=(status["tcp"]["host"], status["tcp"]["port"]),
        http=status["http_port"],
    )
    stop_daemon(socket_path)


def from_predictions(result) -> list[tuple]:
    return [
        (
            prediction.url,
            prediction.best.value if prediction.best is not None else None,
            tuple(language.value for language in prediction.positives),
        )
        for prediction in result
    ]


def from_rows(rows) -> list[tuple]:
    return [(row.url, row.best, tuple(row.positives)) for row in rows]


def from_tsv(text: str) -> list[tuple]:
    out = []
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            continue  # the trailing newline; a bulk provenance header
        best, positives, url = line.split("\t", 2)
        out.append((
            url,
            None if best == "-" else best,
            () if positives == "-" else tuple(positives.split(",")),
        ))
    return out


def paths(models, daemon, tmp_path, monkeypatch):
    """Every answering path: ``name -> urls -> [(url, best, positives)]``."""
    compiled, sparse, artifact = models

    def over(endpoint):
        def classify(urls):
            with DaemonClient(endpoint) as client:
                return from_rows(client.classify(urls))
        return classify

    def http(urls):
        request = urllib.request.Request(
            f"http://127.0.0.1:{daemon.http}/v1/classify",
            data=json.dumps({"urls": urls}).encode(), method="POST",
        )
        with urllib.request.urlopen(request) as response:
            rows = json.loads(response.read())["results"]
        return [(row["url"], row["best"], tuple(row["positives"]))
                for row in rows]

    def asynchronous(urls):
        async def run():
            async with AsyncRemoteIdentifier.connect(daemon.socket) as model:
                return await model.apredict(urls)
        return from_predictions(asyncio.run(run()))

    def bulk_tsv(urls):
        shard = tmp_path / f"shard-{len(urls)}.txt"
        shard.write_text("".join(url + "\n" for url in urls), encoding="utf-8")
        report = bulk.run(artifact, shard, tmp_path / f"run-{len(urls)}",
                          workers=1, sink="tsv")
        return from_tsv("".join(
            (tmp_path / f"run-{len(urls)}" / name).read_text(encoding="utf-8")
            for name in report.outputs if name.endswith(".tsv")
        ))

    def cli(urls):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        out = io.StringIO()
        assert main(["classify", "--model", str(artifact), "--", *urls],
                    out=out) == 0
        return from_tsv(out.getvalue())

    return {
        "compiled": lambda urls: from_predictions(compiled.predict(urls)),
        "sparse": lambda urls: from_predictions(sparse.predict(urls)),
        "unix": over(daemon.socket),
        "tcp": over(daemon.tcp),
        "http": http,
        "async": asynchronous,
        "bulk-tsv": bulk_tsv,
        "cli": cli,
    }


def line_safe(url: str) -> bool:
    """Survives a line-oriented UTF-8 text file (the bulk source strips
    and skips blank lines, and cannot hold lone surrogates)."""
    return bool(url) and url == url.strip() and not any(
        0xD800 <= ord(char) <= 0xDFFF for char in url
    )


def test_every_path_gives_the_same_answer(
    models, daemon, tmp_path, monkeypatch
):
    compiled, _, _ = models
    expected = from_predictions(compiled.predict(URLS))
    for name, answer in paths(models, daemon, tmp_path, monkeypatch).items():
        if name == "bulk-tsv":
            assert answer([url for url in URLS if line_safe(url)]) == [
                row for row in expected if line_safe(row[0])
            ], name
        else:
            assert answer(URLS) == expected, name


def test_ties_go_to_the_earliest_language(models):
    compiled, _, _ = models
    scores = compiled.scores_many(URLS)
    assert list(scores) == list(LANGUAGES)
    result = compiled.predict(URLS)
    tied = 0
    for row in range(len(URLS)):
        values = [scores[language][row] for language in LANGUAGES]
        top = max(values)
        if top > 0.0 and values.count(top) > 1:
            tied += 1
            assert result.best[row] == LANGUAGES[values.index(top)]
    assert tied >= 20  # the rule is observable on this batch


def test_an_empty_batch_answers_empty_everywhere(
    models, daemon, tmp_path, monkeypatch
):
    for name, answer in paths(models, daemon, tmp_path, monkeypatch).items():
        assert answer([]) == [], name

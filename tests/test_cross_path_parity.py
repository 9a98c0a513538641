"""One batch, every answering path, one answer.

Wherever a URL is scored — in process on the compiled (fused or
reference extraction) or the sparse backend, off a float32 artifact,
through the daemon over its Unix socket, TCP or HTTP, through the async
client, by a bulk run into any sink or by the CLI — it must get the
same best label and the same positive languages, and every path that
answers ``decisions`` must answer the sparse oracle's map exactly.  One
seeded adversarial batch (:func:`repro.testing.urlgen.adversarial_urls`)
is scored on every path by a rank-order model: its compiled and sparse
scores are bit-identical, and its top scores tie often, so the tie rule
is pinned too — a tied row's best label is the earliest tied language
in :data:`~repro.languages.LANGUAGES`.  Every bulk sink, which formats
whole chunks from the score matrix, must also write byte for byte what
formatting each row alone writes.
"""

from __future__ import annotations

import asyncio
import csv
import io
import json
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro import bulk
from repro.api import BatchResult, ModelInfo, open_model
from repro.bulk import SummaryAccumulator, make_sink
from repro.bulk.engine import model_fingerprint
from repro.cli import main
from repro.core.pipeline import LanguageIdentifier
from repro.languages import LANGUAGES
from repro.query import open_index
from repro.store import load_identifier, save_identifier, score_batch
from repro.store.client import (
    AsyncRemoteIdentifier,
    DaemonClient,
    RemoteIdentifier,
)
from repro.store.daemon import MAX_BATCH_URLS, start_daemon, stop_daemon
from repro.testing.faults import FAULTS_ENV, FAULTS_STATE_ENV
from repro.testing.urlgen import adversarial_urls
from tests.conftest import fused_plans_off

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
def float32_artifact(models, tmp_path_factory):
    """The same model saved with float32 weights."""
    compiled, _, _ = models
    path = tmp_path_factory.mktemp("parity-f32") / "ro-f32.urlmodel"
    save_identifier(compiled, path, dtype="float32")
    return path


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


def from_jsonl(text: str) -> list[tuple]:
    rows = [json.loads(line) for line in text.split("\n") if line]
    return [
        (row["url"], row["best"], tuple(row["positives"])) for row in rows
    ]


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


def paths(models, float32_artifact, daemon, tmp_path, monkeypatch):
    """Every answering path: ``name -> urls -> [(url, best, positives)]``."""
    compiled, sparse, artifact = models
    with fused_plans_off():
        reference = load_identifier(artifact)
    float32 = open_model(float32_artifact)

    def over(endpoint):
        def classify(urls):
            with DaemonClient(endpoint) as client:
                return from_predictions(client.classify(urls))
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

    def bulk_into(sink):
        def answer(urls):
            name = f"{sink}-{len(urls)}"
            shard = tmp_path / f"shard-{name}.txt"
            shard.write_text(
                "".join(url + "\n" for url in urls), encoding="utf-8"
            )
            run_dir = tmp_path / f"run-{name}"
            report = bulk.run(artifact, shard, run_dir, workers=1, sink=sink)
            text = "".join(
                (run_dir / output).read_text(encoding="utf-8")
                for output in report.outputs
            )
            rows = from_tsv(text) if sink == "tsv" else from_jsonl(text)
            if sink == "sqlite":
                with open_index(run_dir) as index:
                    for url, best, positives in rows:
                        found = index.lookup(url)
                        assert found, url
                        assert all(
                            (row["best"], tuple(row["positives"]))
                            == (best, positives)
                            for row in found
                        ), url
            return rows
        return answer

    def cli(urls):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        out = io.StringIO()
        assert main(["classify", "--model", str(artifact), "--", *urls],
                    out=out) == 0
        return from_tsv(out.getvalue())

    return {
        "compiled": lambda urls: from_predictions(compiled.predict(urls)),
        "compiled-reference": lambda urls: from_predictions(
            reference.predict(urls)
        ),
        "float32": lambda urls: from_predictions(float32.predict(urls)),
        "sparse": lambda urls: from_predictions(sparse.predict(urls)),
        "score_batch": lambda urls: from_predictions(
            score_batch(compiled, urls)
        ),
        "unix": over(daemon.socket),
        "tcp": over(daemon.tcp),
        "http": http,
        "async": asynchronous,
        "bulk-tsv": bulk_into("tsv"),
        "bulk-jsonl": bulk_into("jsonl"),
        "bulk-sqlite": bulk_into("sqlite"),
        "cli": cli,
    }


def line_safe(url: str) -> bool:
    """Survives a line-oriented UTF-8 text file (the bulk source strips
    and skips blank lines, and cannot hold lone surrogates)."""
    return bool(url) and url == url.strip() and not any(
        0xD800 <= ord(char) <= 0xDFFF for char in url
    )


def test_every_path_gives_the_same_answer(
    models, float32_artifact, daemon, tmp_path, monkeypatch
):
    compiled, _, _ = models
    expected = from_predictions(compiled.predict(URLS))
    for name, answer in paths(
        models, float32_artifact, daemon, tmp_path, monkeypatch
    ).items():
        if name.startswith("bulk-"):
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
    models, float32_artifact, daemon, tmp_path, monkeypatch
):
    for name, answer in paths(
        models, float32_artifact, daemon, tmp_path, monkeypatch
    ).items():
        assert answer([]) == [], name


def canonical(decisions) -> str:
    """A decisions map as sorted-key JSON: the same bytes exactly when
    the languages, the order of every list and every ``true``/``false``
    agree."""
    return json.dumps(
        {getattr(code, "value", code): values
         for code, values in decisions.items()},
        sort_keys=True,
    )


def test_every_decisions_path_answers_the_sparse_oracle(models, daemon):
    compiled, sparse, _ = models
    oracle = canonical(sparse._sparse_decisions(URLS))

    def remote(endpoint):
        with RemoteIdentifier.connect(endpoint) as model:
            return model.decisions(URLS)

    async def adecisions():
        async with AsyncRemoteIdentifier.connect(daemon.socket) as model:
            return await model.adecisions(URLS)

    request = urllib.request.Request(
        f"http://127.0.0.1:{daemon.http}/v1/decisions",
        data=json.dumps({"urls": URLS}).encode(), method="POST",
    )
    with urllib.request.urlopen(request) as response:
        http = json.loads(response.read())["decisions"]
    answers = {
        "compiled": compiled.decisions(URLS),
        "sparse": sparse.decisions(URLS),
        "unix": remote(daemon.socket),
        "tcp": remote(daemon.tcp),
        "async": asyncio.run(adecisions()),
        "http": http,
        "compiled predict": compiled.predict(URLS).decisions,
        "sparse predict": sparse.predict(URLS).decisions,
    }
    for name, decisions in answers.items():
        assert canonical(decisions) == oracle, name


@pytest.fixture(scope="module")
def nb_daemon(small_train, tmp_path_factory):
    """``(identifier, socket, http port)`` of an NB/words model and a
    daemon serving it; NB scores a maximal batch in a fraction of a
    second, where rank-order takes several."""
    identifier = LanguageIdentifier("words", "NB", seed=0).fit(small_train)
    directory = tmp_path_factory.mktemp("parity-nb")
    save_identifier(identifier, directory / "nb.urlmodel")
    socket_path = directory / "nb.sock"
    start_daemon(directory / "nb.urlmodel", socket_path, workers=1,
                 http_port=0)
    with DaemonClient(socket_path) as client:
        http_port = client.status()["http_port"]
    yield identifier, socket_path, http_port
    stop_daemon(socket_path)


def test_a_maximal_batch_gives_the_same_answer(nb_daemon):
    """One ``MAX_BATCH_URLS`` batch: in process, over the unix socket
    and over HTTP."""
    identifier, socket_path, http_port = nb_daemon
    urls = [URLS[i % len(URLS)] for i in range(MAX_BATCH_URLS)]
    expected = from_predictions(identifier.predict(urls))
    with DaemonClient(socket_path) as client:
        assert from_predictions(client.classify(urls)) == expected
    request = urllib.request.Request(
        f"http://127.0.0.1:{http_port}/v1/classify",
        data=json.dumps({"urls": urls}).encode(), method="POST",
    )
    with urllib.request.urlopen(request) as response:
        rows = json.loads(response.read())["results"]
    assert [
        (row["url"], row["best"], tuple(row["positives"])) for row in rows
    ] == expected


class TestBatchResultOverAHandBuiltMatrix:
    """Every derived field of :class:`~repro.api.BatchResult`, from a
    matrix whose answers are known."""

    model = ModelInfo(name="m", backend="compiled", languages=LANGUAGES)

    def result(self, rows, urls=None):
        matrix = np.array(rows, dtype=np.float64).reshape(-1, len(LANGUAGES))
        if urls is None:
            urls = tuple(f"u{i}" for i in range(len(matrix)))
        return BatchResult(urls, matrix, self.model)

    def test_all_32_positive_masks_give_code_sorted_positives(self):
        masks = range(1 << len(LANGUAGES))
        result = self.result([
            [1.0 if mask >> bit & 1 else -1.0 for bit in range(5)]
            for mask in masks
        ])
        for mask, positives in zip(masks, result.positives):
            expected = sorted(
                (language for bit, language in enumerate(LANGUAGES)
                 if mask >> bit & 1),
                key=lambda language: language.value,
            )
            assert positives == tuple(expected)
            assert result[mask].positives == tuple(expected)
        assert [row.positives for row in result] == list(result.positives)

    def test_a_tied_row_goes_to_the_earliest_language(self):
        en, de, fr, es, it = LANGUAGES
        result = self.result([
            [0.5, 2.0, 2.0, -1.0, 2.0],
            [3.0, -1.0, -1.0, -1.0, 3.0],
        ])
        assert result.best == (de, en)
        assert result.positives == ((de, en, fr, it), (en, it))
        assert [row.best for row in result] == [de, en]

    def test_an_all_non_positive_row_has_no_best_and_no_positives(self):
        result = self.result([[0.0, -0.5, -1.0, 0.0, -3.0]])
        assert result.best == (None,)
        assert result.positives == ((),)
        assert result.decisions == {language: [False] for language in LANGUAGES}
        assert result[0].tsv() == "-\t-\tu0"

    def test_an_empty_batch(self):
        result = self.result([])
        assert len(result) == 0 and list(result) == []
        assert result.best == () and result.positives == ()
        assert result.scores == {language: [] for language in LANGUAGES}
        assert result.decisions == {language: [] for language in LANGUAGES}

    def test_two_results_of_one_batch_are_equal(self, models):
        compiled, _, _ = models
        first, second = compiled.predict(URLS), compiled.predict(URLS)
        assert first is not second and first == second
        assert first != compiled.predict(URLS[:-1])
        hand_built = self.result([[1.0, -1.0, 0.5, 0.0, -2.0]])
        assert hand_built == self.result([[1.0, -1.0, 0.5, 0.0, -2.0]])
        assert hand_built != self.result([[1.0, -1.0, 0.5, 0.0, -1.0]])
        assert hand_built != self.result(
            [[1.0, -1.0, 0.5, 0.0, -2.0]], urls=("other",)
        )


# -- sink bytes: format_batch against per-row references --------------------------

SINKS = ("tsv", "jsonl", "csv", "sqlite")
CODES = sorted(language.value for language in LANGUAGES)


def reference_text(sink: str, predictions, provenance: str) -> str:
    """A shard's bytes written one row at a time, without the sinks:
    ``Prediction.tsv()``, ``json.dumps`` of the row dict, or
    ``csv.writer`` over the row's cells (header included)."""
    if sink == "tsv":
        return "".join(prediction.tsv() + "\n" for prediction in predictions)
    rows = []
    for prediction in predictions:
        scores = {
            language.value: score
            for language, score in prediction.scores.items()
        }
        best = prediction.best.value if prediction.best else None
        positives = [language.value for language in prediction.positives]
        rows.append((prediction.url, best, positives, scores))
    if sink == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["url", "best", "positives",
                         *(f"score_{code}" for code in CODES), "model"])
        for url, best, positives, scores in rows:
            writer.writerow([url, best or "", ",".join(positives),
                             *(repr(scores[code]) for code in CODES),
                             provenance])
        return buffer.getvalue()
    return "".join(
        json.dumps({
            "url": url,
            "best": best,
            "positives": positives,
            "scores": {code: scores[code] for code in sorted(scores)},
            "model": provenance,
        }, separators=(",", ":")) + "\n"
        for url, best, positives, scores in rows
    )


def bulk_text(artifact, urls, run_dir, sink, **options):
    """The concatenated output shards of a 1-worker bulk run."""
    shard = run_dir.parent / f"{run_dir.name}.txt"
    shard.write_text("".join(url + "\n" for url in urls), encoding="utf-8")
    report = bulk.run(artifact, shard, run_dir, workers=1, sink=sink,
                      **options)
    return report, "".join(
        (run_dir / output).read_text(encoding="utf-8")
        for output in report.outputs
    )


@pytest.fixture(scope="module")
def provenance(models):
    _, _, artifact = models
    fingerprint = model_fingerprint(str(artifact))
    return f"{fingerprint['name']}@{fingerprint['checksum'][:12]}"


@pytest.mark.parametrize("sink", SINKS)
def test_every_sink_writes_its_per_row_reference(
    models, provenance, tmp_path, sink
):
    """Adversarial URLs (non-ASCII, non-BMP, quotes, commas) through
    ``bulk.run`` come out byte for byte as the per-row references of
    ``open_model(...).predict``, over several chunks."""
    _, _, artifact = models
    urls = [url for url in URLS if line_safe(url)]
    _, text = bulk_text(artifact, urls, tmp_path / "run", sink,
                        chunk_size=300)
    expected = open_model(artifact).predict(urls)
    assert text == reference_text(sink, expected, provenance)


@pytest.mark.parametrize("sink", SINKS)
def test_the_per_url_retry_writes_the_same_bytes(
    models, provenance, tmp_path, monkeypatch, sink
):
    """A chunk whose predict fails is retried one URL at a time; the
    one-row results format exactly as the whole chunk would have."""
    _, _, artifact = models
    monkeypatch.setenv(FAULTS_ENV, "predict-error:match=POISON,times=inf")
    monkeypatch.delenv(FAULTS_STATE_ENV, raising=False)
    urls = [url for url in URLS[:400] if line_safe(url)]
    poisoned = [*urls[:150], "http://POISON.example/boom", *urls[150:]]
    report, text = bulk_text(artifact, poisoned, tmp_path / "run", sink,
                             chunk_size=64)
    assert report.rows_quarantined == 1
    expected = open_model(artifact).predict(urls)
    assert text == reference_text(sink, expected, provenance)


class TestFormatBatchOverAHandBuiltMatrix:
    """``format_batch`` and ``observe_batch`` on a matrix built to hold
    every positives mask, a tie, a row with no positive score, and
    every non-finite float."""

    model = ModelInfo(name="m", backend="compiled", languages=LANGUAGES)
    provenance = 'NB/words@"quoted", ünï'

    @pytest.fixture()
    def result(self):
        inf, nan = float("inf"), float("nan")
        rows = [
            [1.0 + bit if mask >> bit & 1 else -0.25 * bit
             for bit in range(len(LANGUAGES))]
            for mask in range(1 << len(LANGUAGES))
        ]
        rows += [
            [0.5, 2.0, 2.0, -1.0, 2.0],  # tied: the earliest goes first
            [0.0, -0.5, -1.0, 0.0, -3.0],  # nothing positive
            [inf, -inf, nan, 1e-300, -0.0],
            [nan, 0.1, 0.2, 1e300, -inf],
        ]
        urls = tuple(f'http://x{i}.example/"a,b"/ö🙂' for i in range(len(rows)))
        return BatchResult(urls, np.array(rows, dtype=np.float64), self.model)

    @pytest.mark.parametrize("sink", SINKS)
    def test_format_batch_writes_the_reference(self, result, sink):
        row_sink = make_sink(sink, provenance=self.provenance)
        reference = reference_text(sink, list(result), self.provenance)
        if sink == "csv":
            header, _, reference = reference.partition("\n")
            assert row_sink.header() == header
        assert row_sink.format_batch(result) == reference
        assert "".join(
            row_sink.format(prediction) + "\n" for prediction in result
        ) == reference

    def test_non_finite_scores_are_spelled_as_today(self, result):
        jsonl = make_sink("jsonl").format_batch(result).splitlines()
        assert '"en":Infinity' in jsonl[-2] and '"fr":NaN' in jsonl[-2]
        assert '"de":-Infinity' in jsonl[-2] and '"it":-0.0' in jsonl[-2]
        cells = next(csv.reader([make_sink("csv").format_batch(result)
                                 .splitlines()[-2]]))
        # Code order: de, en, es, fr, it.
        assert cells[3:8] == ["-inf", "inf", "1e-300", "nan", "-0.0"]

    def test_an_empty_result_writes_nothing(self):
        empty = BatchResult((), np.zeros((0, len(LANGUAGES))), self.model)
        for sink in SINKS:
            assert make_sink(sink).format_batch(empty) == ""

    def test_observe_batch_counts_what_observe_counts(self, result):
        batch, rows = SummaryAccumulator(), SummaryAccumulator()
        batch.observe_batch(result)
        for prediction in result:
            rows.observe(prediction)
        assert batch.snapshot() == rows.snapshot()
        # Mask 0, the row with nothing positive, and both NaN rows.
        assert batch.snapshot()["best"]["und"] == 4

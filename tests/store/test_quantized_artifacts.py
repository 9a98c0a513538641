"""Float32-quantised model artifacts: round-trip, bounds, refusal, serving.

The quantisation contract (:data:`repro.store.QUANTIZED_SCORE_TOLERANCE`):
a ``--dtype float32`` artifact halves the mmapped weight matrix, its
``decisions()`` stay byte-identical to the float64 original on real
corpora, and each score moves by at most ``tolerance * (1 + sum_i x_i *
|w64_i|)``.  Artifacts declare quantisation through the ``weights_dtype``
header flag; readers refuse unknown flags/values and flag/buffer
mismatches rather than mis-reading, and the payload checksum still
guards the quantised bytes.  The served-row kernel and the bulk engine
must score a quantised artifact end to end with unchanged answers.
"""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro import bulk
from repro.api import open_model
from repro.core.pipeline import LanguageIdentifier
from repro.store import (
    QUANTIZED_SCORE_TOLERANCE,
    ArtifactChecksumError,
    ArtifactError,
    ArtifactFile,
    load_identifier,
    save_identifier,
)
from repro.store.format import MAGIC, _align
from repro.store.serve import score_batch

#: One matmul-carrying representative per scorer family, plus the
#: column-free rank order (whose float32 artifact is bit-exact).
QUANTIZABLE = [
    ("NB", "words"),
    ("NB", "trigrams"),
    ("RE", "trigrams"),
    ("ME", "words"),
    ("MM", "trigrams"),
    ("RO", "words"),
]


@pytest.fixture(scope="module")
def fitted_cache():
    return {}


def _fitted(algorithm, feature_set, small_train, cache):
    key = (algorithm, feature_set)
    if key not in cache:
        identifier = LanguageIdentifier(
            feature_set=feature_set, algorithm=algorithm, seed=0
        )
        cache[key] = identifier.fit(small_train.subsample(0.5, seed=3))
    return cache[key]


def _rewrite_header(path, mutate):
    """Rewrite an artifact's header in place (payload untouched).

    Buffer offsets are relative to the payload start, so re-padding
    after a header edit keeps the payload valid — exactly how a future
    writer with new flags would lay the file out.
    """
    raw = path.read_bytes()
    header_length = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    header_end = len(MAGIC) + 8 + header_length
    header = json.loads(raw[len(MAGIC) + 8 : header_end])
    payload = raw[_align(header_end) :]
    mutate(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload_start = _align(len(MAGIC) + 8 + len(header_bytes))
    padding = payload_start - len(MAGIC) - 8 - len(header_bytes)
    path.write_bytes(
        MAGIC
        + len(header_bytes).to_bytes(8, "little")
        + header_bytes
        + b"\x00" * padding
        + payload
    )


@pytest.mark.parametrize("algorithm,feature_set", QUANTIZABLE)
class TestQuantizedRoundTrip:
    def test_decisions_byte_identical(
        self, algorithm, feature_set, small_train, small_bundle, tmp_path, fitted_cache
    ):
        identifier = _fitted(algorithm, feature_set, small_train, fitted_cache)
        path = tmp_path / "model.urlmodel"
        save_identifier(identifier, path, dtype="float32")
        loaded = load_identifier(path)
        if identifier.compiled.stacked_columns is None:
            # No matmul columns (rank order): nothing to quantise, so
            # the artifact stays flag-free and exact.
            assert loaded.weights_dtype == "float64"
        else:
            assert loaded.weights_dtype == "float32"
        urls = small_bundle.odp_test.urls[:120]
        assert loaded.decisions(urls) == identifier._sparse_decisions(urls)

    def test_scores_within_documented_bound(
        self, algorithm, feature_set, small_train, small_bundle, tmp_path, fitted_cache
    ):
        identifier = _fitted(algorithm, feature_set, small_train, fitted_cache)
        compiled = identifier.compiled
        path = tmp_path / "model.urlmodel"
        save_identifier(identifier, path, dtype="float32")
        loaded = load_identifier(path)
        urls = small_bundle.odp_test.urls[:60]
        exact = compiled.scores_matrix(urls)
        quantised = loaded.compiled.scores_matrix(urls)
        if compiled.stacked_columns is None:
            # Rank order carries no matmul columns: nothing quantises.
            assert np.array_equal(exact, quantised)
            return
        # Per-row weighted mass sum_i x_i * |w64_i| over every column the
        # scorer contributes — the scale the tolerance contract is
        # relative to.
        batch = compiled.batch(urls)
        mass = batch.matmul(np.abs(compiled.stacked_columns))
        for column, (language, _) in enumerate(compiled.scorers.items()):
            block = compiled.column_slices[language]
            bound = QUANTIZED_SCORE_TOLERANCE * (
                1.0 + mass[:, block].sum(axis=1)
            )
            delta = np.abs(exact[:, column] - quantised[:, column])
            assert (delta <= bound).all()

    def test_float64_dtype_is_exact_default(
        self, algorithm, feature_set, small_train, tmp_path, fitted_cache
    ):
        identifier = _fitted(algorithm, feature_set, small_train, fitted_cache)
        default = save_identifier(identifier, tmp_path / "a.urlmodel")
        explicit = save_identifier(
            identifier, tmp_path / "b.urlmodel", dtype="float64"
        )
        assert default == explicit  # same payload checksum
        assert ArtifactFile(tmp_path / "b.urlmodel").flags == {}


class TestFlagsAndRefusal:
    @pytest.fixture()
    def quantized_path(self, small_train, tmp_path, fitted_cache):
        identifier = _fitted("NB", "words", small_train, fitted_cache)
        path = tmp_path / "model.urlmodel"
        save_identifier(identifier, path, dtype="float32")
        return path

    def test_flag_written_and_resave_preserves_it(self, quantized_path, tmp_path):
        assert ArtifactFile(quantized_path).flags == {
            "weights_dtype": "float32"
        }
        resaved = tmp_path / "resaved.urlmodel"
        save_identifier(load_identifier(quantized_path), resaved)
        assert ArtifactFile(resaved).flags == {"weights_dtype": "float32"}

    def test_unsupported_dtype_rejected_at_save(
        self, small_train, tmp_path, fitted_cache
    ):
        identifier = _fitted("NB", "words", small_train, fitted_cache)
        with pytest.raises(ArtifactError, match="float16"):
            save_identifier(
                identifier, tmp_path / "m.urlmodel", dtype="float16"
            )

    def test_unknown_flag_key_refused(self, quantized_path):
        _rewrite_header(
            quantized_path,
            lambda header: header["flags"].update(compression="zstd"),
        )
        with pytest.raises(ArtifactError, match="compression"):
            load_identifier(quantized_path)

    def test_unknown_dtype_value_refused(self, quantized_path):
        _rewrite_header(
            quantized_path,
            lambda header: header["flags"].update(weights_dtype="float16"),
        )
        with pytest.raises(ArtifactError, match="float16"):
            load_identifier(quantized_path)

    def test_flag_buffer_mismatch_refused(self, quantized_path):
        _rewrite_header(quantized_path, lambda header: header.pop("flags"))
        with pytest.raises(ArtifactError, match="inconsistent"):
            load_identifier(quantized_path)

    def test_checksum_still_guards_quantised_payload(self, quantized_path):
        artifact = ArtifactFile(quantized_path)
        payload_offset = len(quantized_path.read_bytes()) - 1
        artifact.close()
        raw = bytearray(quantized_path.read_bytes())
        raw[payload_offset] ^= 0xFF
        quantized_path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactChecksumError):
            ArtifactFile(quantized_path).verify()


class TestQuantizedServing:
    @pytest.fixture(scope="class")
    def model_pair(self, small_train, tmp_path_factory):
        identifier = LanguageIdentifier("words", "NB", seed=0).fit(
            small_train.subsample(0.5, seed=3)
        )
        root = tmp_path_factory.mktemp("quantized-serving")
        exact, quantised = root / "m64.urlmodel", root / "m32.urlmodel"
        save_identifier(identifier, exact)
        save_identifier(identifier, quantised, dtype="float32")
        return exact, quantised

    def test_served_rows_end_to_end(self, model_pair, small_bundle):
        """The daemon's ``classify`` kernel over a mapped float32
        artifact gives the float64 artifact's rows."""
        exact, quantised = model_pair
        urls = small_bundle.odp_test.urls[:80]
        reference = score_batch(open_model(exact), urls)
        served = score_batch(open_model(quantised), urls)
        assert [row.tsv() for row in served] == [
            row.tsv() for row in reference
        ]

    def test_bulk_end_to_end(self, model_pair, small_bundle, tmp_path):
        exact, quantised = model_pair
        urls = list(small_bundle.odp_test.urls[:60])
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        with gzip.open(shard_dir / "part-00.txt.gz", "wt") as out:
            out.write("\n".join(urls) + "\n")
        reference = bulk.run(exact, shard_dir, tmp_path / "run64", workers=1)
        quantised_run = bulk.run(
            quantised, shard_dir, tmp_path / "run32", workers=1
        )
        assert quantised_run.rows_scored == reference.rows_scored == len(urls)

        def rows(report):
            from pathlib import Path

            (output,) = [
                Path(report.output_dir) / name
                for name in report.outputs
                if name.endswith(".tsv")
            ]
            lines = output.read_text().splitlines()
            # Drop the provenance header: it embeds the model checksum,
            # which legitimately differs between the two artifacts.
            return [line for line in lines if not line.startswith("#")]

        assert rows(quantised_run) == rows(reference)


class TestTrainDtypeFlag:
    def test_cli_trains_quantised_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "model.urlmodel"
        code = main(
            [
                "train", "--out", str(out), "--features", "words",
                "--algorithm", "NB", "--scale", "0.05",
                "--dtype", "float32",
            ]
        )
        assert code == 0
        assert ArtifactFile(out).flags == {"weights_dtype": "float32"}
        assert load_identifier(out).weights_dtype == "float32"

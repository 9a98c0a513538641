"""Quickstart: train, save a model artifact, open it back, classify.

Runs in a few seconds:

    python examples/quickstart.py

Trains the paper's best configuration (Naive Bayes over word features,
one binary classifier per language, balanced negative sampling) on the
synthetic ODP+SER corpus, persists it through the artifact store
(:mod:`repro.store`), and evaluates the *deployed* model the way the
paper does — the exact train -> save -> serve flow of a crawler
deployment.  Inference goes through the public facade:
``repro.api.open_model("store://<name>")`` resolves the stored
artifact (mmap-backed, zero-copy) to the same ``Predictor`` surface
every other backend answers.  See ``examples/serve_daemon.py`` for
the multi-process serving side.
"""

import tempfile
from pathlib import Path

from repro import LanguageIdentifier, ModelStore, build_datasets, open_model
from repro.evaluation import average_f, metrics_table
from repro.languages import LANGUAGES

def main() -> None:
    # 1. Build the three collections (scaled-down stand-ins for Table 1).
    data = build_datasets(seed=0, scale=0.4)
    print(
        f"training URLs: {len(data.combined_train)}  "
        f"(ODP {len(data.odp_train)} + SER {len(data.ser_train)})"
    )

    # 2. Train the paper's best single configuration: NB + word features.
    identifier = LanguageIdentifier(feature_set="words", algorithm="NB")
    identifier.fit(data.combined_train)

    # 3. Persist through the model store and serve from the loaded copy.
    #    The artifact is a mmap-able binary: loading parses only the
    #    header + vocabulary, and N processes share one weight matrix.
    store = ModelStore(Path(tempfile.mkdtemp()) / "models")
    handle = store.save(identifier)
    print(
        f"\nsaved {handle.label} -> {handle.path.name} "
        f"({handle.nbytes} bytes, sha256 {handle.checksum[:12]}...)"
    )
    # 4. Open the deployed model through the facade — the handle names
    #    *where the model lives*, not how to load it, so swapping in a
    #    daemon ("repro://...") or a plain path later changes nothing
    #    downstream.
    served = open_model(f"store://{handle.name}", store_root=store.root)
    info = served.capabilities().model
    print(f"opened store://{handle.name}: {info.name} "
          f"({info.backend} backend, trained on corpus "
          f"{(info.train_corpus or '?')[:12]}...)")

    # 5. Classify some URLs with the deployed model (one batch pass).
    urls = [
        "http://www.zeitung-aktuell.de/wirtschaft/artikel.html",
        "http://www.recherche-emploi.fr/offres/paris",
        "http://www.corriere-sport.it/calcio/risultati",
        "http://www.noticias-hoy.es/madrid/cultura",
        "http://www.weather-forecast.com/new-york/today",
        "http://www.wasserbett-test.com/impressum/kontakt.html",  # paper's example
    ]
    print("\nclassifications (from the deployed artifact):")
    for prediction in served.predict(urls):
        languages = sorted(l.value for l in prediction.positives)
        best = prediction.best
        print(f"  {prediction.url}")
        print(f"    binary yes: {languages or ['-']}, best: "
              f"{best.display_name if best else 'none'}")

    # 6. Evaluate with the paper's measures (P/R/p(-|-)/F) per language.
    for name, test in data.test_sets.items():
        metrics = served.evaluate(test)
        rows = [(lang.display_name, metrics[lang]) for lang in LANGUAGES]
        print()
        print(metrics_table(rows, title=f"{name} test set"))
    print(
        "\n(the paper's NB/words averages: ODP .88, SER .96, WC .90)"
    )


if __name__ == "__main__":
    main()

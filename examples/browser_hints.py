"""The paper's browser scenario: language hints while hovering links.

    python examples/browser_hints.py

Section 1 envisions "a personalized web browser, which automatically
opens foreign language URLs in a split window, with a machine
translation on one side, or which at least shows certain language
related icons, when the user is hovering with the mouse over a URL."

This example implements that hint engine: given the user's preferred
language and a page full of links, annotate each link before anything
is downloaded.
"""

from repro import LanguageIdentifier, build_datasets
from repro.languages import Language

FLAGS = {
    Language.ENGLISH: "[EN]",
    Language.GERMAN: "[DE]",
    Language.FRENCH: "[FR]",
    Language.SPANISH: "[ES]",
    Language.ITALIAN: "[IT]",
}


def hint(identifier: LanguageIdentifier, url: str, preferred: Language) -> str:
    """The hint a browser would render next to a link."""
    best = identifier.classify(url)
    if best is None:
        return "(language unknown)"
    if best is preferred:
        return f"{FLAGS[best]}"
    return f"{FLAGS[best]} foreign language - offer translation"


def main() -> None:
    data = build_datasets(seed=4, scale=0.35)
    identifier = LanguageIdentifier("words", "NB").fit(data.combined_train)

    preferred = Language.ENGLISH
    links = [
        "http://www.weather-news.com/forecast/boston",
        "http://www.giornale-sport.it/calcio/seriea/risultati",
        "http://forum.mamboserver.com/archive/t-7062.html",  # paper's German lookalike
        "http://www.recettes-cuisine.fr/desserts/tarte",
        "http://de.wikipedia.org/wiki/Lausanne",
        "http://www.noticias-economia.es/mercados/bolsa",
        "http://home.arcor.de/peter/modellbau.html",
        "http://www.priceminister.com/navigation/category/126541",  # French lookalike
    ]

    print(f"user's preferred language: {preferred.display_name}\n")
    for url in links:
        print(f"  {hint(identifier, url, preferred):<42} {url}")

    print(
        "\nNote the two 'lookalike' URLs from the paper (mamboserver/"
        "priceminister): they read as English to a person, and only host "
        "memorisation from training data can place them — mamboserver.com "
        "is a genuinely multi-language host, so its hint stays uncertain."
    )


if __name__ == "__main__":
    main()

"""Language registry for the five languages studied in the paper.

The paper (Baykan, Henzinger & Weber, VLDB 2008) evaluates URL-based
language identification for English, German, French, Spanish and Italian.
This module is the single source of truth for:

* the canonical language codes used throughout the library, and the
  order and names of the per-language score columns,
* the country-code top-level domain (ccTLD) -> language mapping of the
  paper's ccTLD baseline (Section 3.2), reproduced verbatim,
* the extra TLDs (.com/.org) that the ccTLD+ variant assigns to English.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable


class Language(str, enum.Enum):
    """The five languages of the study, keyed by ISO-639-1 code."""

    ENGLISH = "en"
    GERMAN = "de"
    FRENCH = "fr"
    SPANISH = "es"
    ITALIAN = "it"

    @property
    def display_name(self) -> str:
        """Human-readable name as used in the paper's tables."""
        return _DISPLAY_NAMES[self]

    @classmethod
    def coerce(cls, value: "Language | str") -> "Language":
        """Accept a :class:`Language`, a code (``"de"``) or a name
        (``"German"``) and return the corresponding enum member.

        Raises ``ValueError`` for anything unrecognised.
        """
        if isinstance(value, Language):
            return value
        lowered = str(value).strip().lower()
        for member in cls:
            if lowered in (member.value, member.display_name.lower()):
                return member
        raise ValueError(f"unknown language: {value!r}")


_DISPLAY_NAMES = {
    Language.ENGLISH: "English",
    Language.GERMAN: "German",
    Language.FRENCH: "French",
    Language.SPANISH: "Spanish",
    Language.ITALIAN: "Italian",
}

#: All five languages in the order used by the paper's tables.
LANGUAGES: tuple[Language, ...] = (
    Language.ENGLISH,
    Language.GERMAN,
    Language.FRENCH,
    Language.SPANISH,
    Language.ITALIAN,
)

#: The language codes in sorted order, and the per-language score
#: columns named after them: a CSV shard's score cells and the result
#: index's REAL columns, in this order.
SCORE_CODES: tuple[str, ...] = tuple(
    sorted(language.value for language in LANGUAGES)
)
SCORE_COLUMNS: tuple[str, ...] = tuple(f"score_{code}" for code in SCORE_CODES)

# ---------------------------------------------------------------------------
# ccTLD -> language map, exactly as listed in Section 3.2 of the paper.
#
#   French:  fr (France), tn (Tunisia), dz (Algeria), mg (Madagascar)
#   German:  de (Germany), at (Austria)
#   Italian: it (Italy)
#   Spanish: es (Spain), cl, mx, ar, co, pe, ve
#   English: au, ie, nz, us, gov, mil, gb, uk
# ---------------------------------------------------------------------------

CCTLDS: dict[Language, tuple[str, ...]] = {
    Language.FRENCH: ("fr", "tn", "dz", "mg"),
    Language.GERMAN: ("de", "at"),
    Language.ITALIAN: ("it",),
    Language.SPANISH: ("es", "cl", "mx", "ar", "co", "pe", "ve"),
    Language.ENGLISH: ("au", "ie", "nz", "us", "gov", "mil", "gb", "uk"),
}

#: TLDs additionally counted as English by the ccTLD+ baseline.
CCTLD_PLUS_EXTRA: tuple[str, ...] = ("com", "org")

#: Generic TLDs tracked as separate binary custom features (Section 3.1).
GENERIC_TLDS: tuple[str, ...] = ("com", "org", "net")


def language_for_cctld(tld: str) -> Language | None:
    """Return the language the paper's baseline assigns to ``tld``.

    Returns ``None`` for TLDs (such as ``.net`` or ``.ch``) that the
    baseline assigns to no language.
    """
    tld = tld.lower().lstrip(".")
    return _CCTLD_INDEX.get(tld)


def cctlds_for(language: Language | str) -> tuple[str, ...]:
    """ccTLDs the paper's baseline maps to ``language``."""
    return CCTLDS[Language.coerce(language)]


def all_known_cctlds() -> frozenset[str]:
    """Every ccTLD the baseline assigns to some language."""
    return frozenset(_CCTLD_INDEX)


def _build_index(mapping: dict[Language, Iterable[str]]) -> dict[str, Language]:
    index: dict[str, Language] = {}
    for language, tlds in mapping.items():
        for tld in tlds:
            index[tld] = language
    return index


_CCTLD_INDEX = _build_index(CCTLDS)

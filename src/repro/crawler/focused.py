"""Focused language-specific crawling over a link graph.

The paper's related work (Somboonviwat et al.) describes language-
specific crawlers whose "crawling strategies are based on the
observation that web pages written in the same languages tend to be
close to each other in the hyperlink structure of the web".  This module
implements that crawler on top of the synthetic link graph
(:mod:`repro.linkgraph`) and the URL classifiers, so the two strategies
the literature contrasts can be compared:

* **BFS** — crawl breadth-first, download everything reachable;
* **Focused** — prioritise frontier URLs that (a) the URL classifier
  scores as target-language, and (b) are linked from already-crawled
  target-language pages.

The quality measure is the *harvest ratio*: the fraction of downloaded
pages that are in the target language.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field

import networkx as nx

from repro.api import open_model
from repro.languages import Language


@dataclass
class FocusedCrawlReport:
    """Outcome of one crawl run."""

    strategy: str
    target: Language
    downloads: int = 0
    target_downloads: int = 0
    crawl_order: list[str] = field(default_factory=list)

    @property
    def harvest_ratio(self) -> float:
        """Fraction of downloaded pages in the target language."""
        if self.downloads == 0:
            return 0.0
        return self.target_downloads / self.downloads

    def summary(self) -> str:
        return (
            f"{self.strategy}: {self.downloads} downloads, "
            f"{self.target_downloads} in {self.target.display_name} "
            f"(harvest ratio {self.harvest_ratio:.0%})"
        )


def _page_language(graph: nx.DiGraph, url: str) -> Language:
    return graph.nodes[url]["language"]


def bfs_crawl(
    graph: nx.DiGraph,
    seeds: Sequence[str],
    target: Language | str,
    budget: int,
) -> FocusedCrawlReport:
    """Breadth-first reference crawler: downloads everything it reaches."""
    target = Language.coerce(target)
    report = FocusedCrawlReport(strategy="bfs", target=target)
    queue: list[str] = list(seeds)
    seen: set[str] = set(seeds)
    while queue and report.downloads < budget:
        url = queue.pop(0)
        report.downloads += 1
        report.crawl_order.append(url)
        if _page_language(graph, url) == target:
            report.target_downloads += 1
        for successor in graph.successors(url):
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return report


def focused_crawl(
    graph: nx.DiGraph,
    seeds: Sequence[str],
    target: Language | str,
    budget: int,
    identifier,
    link_bonus: float = 1.0,
) -> FocusedCrawlReport:
    """Classifier-guided crawler.

    Frontier priority of a URL = its classifier score for the target
    language, plus ``link_bonus`` for every already-downloaded
    target-language page linking to it (the same-language-neighbourhood
    heuristic).  Highest priority is crawled first.

    ``identifier`` may be a fitted identifier or any
    :func:`repro.api.open_model` handle — a store
    :class:`~repro.store.ModelHandle`, a model-artifact path, a
    ``store://<name>`` entry, or a ``repro://<socket>`` daemon handle
    (no weights in this process at all).  This is how a crawler fleet
    consumes one shared model — memory-mapped, or served over a socket
    by one daemon — instead of each process pickling its own copy.
    """
    identifier = open_model(identifier)
    target = Language.coerce(target)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    report = FocusedCrawlReport(strategy="focused", target=target)

    # (negated priority, tiebreaker, url); heapq is a min-heap.
    counter = 0
    frontier: list[tuple[float, int, str]] = []
    best_priority: dict[str, float] = {}
    downloaded: set[str] = set()
    score_cache: dict[str, float] = {}

    def prefetch_scores(urls: Sequence[str]) -> None:
        """Triage a frontier expansion in one batch — a single matrix
        product on compiled-backend identifiers."""
        missing = [url for url in urls if url not in score_cache]
        if missing:
            scores = identifier.scores_many(missing)[target]
            score_cache.update(zip(missing, scores))

    def push(url: str, bonus: float) -> None:
        nonlocal counter
        priority = score_cache[url] + bonus
        if best_priority.get(url, float("-inf")) >= priority:
            return
        best_priority[url] = priority
        counter += 1
        heapq.heappush(frontier, (-priority, counter, url))

    prefetch_scores(seeds)
    for seed in seeds:
        push(seed, bonus=0.0)

    while frontier and report.downloads < budget:
        _, _, url = heapq.heappop(frontier)
        if url in downloaded:
            continue  # stale queue entry
        downloaded.add(url)
        report.downloads += 1
        report.crawl_order.append(url)
        is_target = _page_language(graph, url) == target
        if is_target:
            report.target_downloads += 1
        bonus = link_bonus if is_target else 0.0
        successors = [
            successor
            for successor in graph.successors(url)
            if successor not in downloaded
        ]
        prefetch_scores(successors)
        for successor in successors:
            push(successor, bonus=bonus)
    return report


def compare_crawlers(
    graph: nx.DiGraph,
    seeds: Sequence[str],
    target: Language | str,
    budget: int,
    identifier,
) -> tuple[FocusedCrawlReport, FocusedCrawlReport]:
    """(bfs, focused) reports over identical seeds and budget.

    ``identifier`` accepts the same forms as :func:`focused_crawl`
    (fitted identifier or any :func:`repro.api.open_model` handle) and
    is resolved once for both runs.
    """
    identifier = open_model(identifier)
    bfs = bfs_crawl(graph, seeds, target, budget)
    focused = focused_crawl(graph, seeds, target, budget, identifier)
    return bfs, focused

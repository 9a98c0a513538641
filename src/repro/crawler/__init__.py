"""Language-quota and focused crawler simulations (S16)."""

from repro.crawler.focused import (
    FocusedCrawlReport,
    bfs_crawl,
    compare_crawlers,
    focused_crawl,
)
from repro.crawler.frontier import Frontier
from repro.crawler.quota import (
    CrawlReport,
    classifier_policy,
    crawl_with_quota,
    download_everything_policy,
)
from repro.crawler.simulator import ComparisonResult, compare_policies

__all__ = [
    "ComparisonResult",
    "CrawlReport",
    "FocusedCrawlReport",
    "Frontier",
    "bfs_crawl",
    "compare_crawlers",
    "focused_crawl",
    "classifier_policy",
    "compare_policies",
    "crawl_with_quota",
    "download_everything_policy",
]

"""Start the program from a fresh interpreter, as its command line would.

The benchmark launches the daemon and bulk runs from this small process
rather than forking its own: a fork would hand the program a copy of
the benchmark's heap, which would count in the program's memory and
change its garbage collector's work.  Usage::

    python3 launch.py serve '{"src": ..., "model": ..., "socket": ...}'
    python3 launch.py bulk '{"src": ..., "model": ..., "input": ...,
                             "output": ..., "workers": 2, "sink": "tsv"}'

Each prints one JSON line: ``serve`` the daemon's pid and how long
``start_daemon`` took; ``bulk`` the ``bulk.run`` report.
"""

import json
import sys
import time


def serve(spec: dict) -> dict:
    from repro.store.daemon import start_daemon

    started = time.perf_counter()
    pid = start_daemon(
        spec["model"], spec["socket"], workers=spec["workers"], http_port=0,
        tcp="127.0.0.1:0",
    )
    return {"pid": pid, "ready_s": time.perf_counter() - started}


def bulk(spec: dict) -> dict:
    import repro.bulk

    called = time.time()
    started = time.perf_counter()
    report = repro.bulk.run(
        spec["model"], spec["input"], spec["output"],
        workers=spec["workers"], sink=spec["sink"],
    )
    return {
        "called": called,
        "seconds": time.perf_counter() - started,
        "rows": report.rows_scored,
        "shards": report.shards_scored,
        "wall": report.wall_seconds,
        "quarantined": report.rows_quarantined,
        "latency": report.latency,
        "summary": report.summary,
    }


def main() -> int:
    command, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, spec["src"])
    print(json.dumps({"serve": serve, "bulk": bulk}[command](spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

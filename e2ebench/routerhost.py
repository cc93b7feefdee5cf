"""Process entry point that hosts a ``ShardRouter`` behind its front door.

Usage: ``python routerhost.py SRC_DIR CONFIG_JSON``.  Starts the router
(which forks its shard workers), opens the socket front door, prints the
port on one line and serves until its stdin is closed, then drains the
router and reaps the workers before exiting.
"""

import json
import sys


def main() -> int:
    src, config = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from repro.cluster import ClusterConfig, ShardRouter, WorkerConfig

    router = ShardRouter(ClusterConfig(
        shards=config["shards"], worker=WorkerConfig(**config["worker"])))
    try:
        port = router.listen()
        print(port, flush=True)
        sys.stdin.read()          # returns at EOF: the parent is done
    finally:
        router.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 pibench/run.py --workload pi-read --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a traced run) with
``--trace 1``.  Lines before it tag the environment and, when traced,
list the per-layer figures and the tracing overhead.  The exit code is
0 whenever a result line was printed (a failed check shows as
``"correct": false``) and 2 when the checkout holds no program source.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from pibench import common  # noqa: E402

WORKLOADS = ("pi-read", "pi-update", "htap-wire")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="data size relative to the recorded workload (tests use tiny ones)",
    )
    args = parser.parse_args(argv)
    common.limit_malloc_arenas()
    try:
        common.ensure_src()
    except common.SourceMissingError as exc:
        print(f"pibench: {exc}", file=sys.stderr)
        return 2
    from pibench import inproc, wire

    if args.workload == "htap-wire":
        tags = common.env_tags(common.OUT_DIR, wire.WAL_SYNC)
    else:
        tags = common.env_tags(None, "none (in-memory session)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": tags}))
    run = {
        "pi-read": inproc.run_pi_read,
        "pi-update": inproc.run_pi_update,
        "htap-wire": wire.run_htap_wire,
    }[args.workload]
    # a wrong result is reported in the result line ("correct": false)
    print(run(args.seed, args.seconds, bool(args.trace), scale=args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Entry point of the htap-wire server process (started by pibench/wire.py)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from pibench import wire  # noqa: E402

if __name__ == "__main__":
    wire.serve_main()

"""``python3 -m bench`` — see bench/README.md."""

import sys
from pathlib import Path

# the checkout's src/ (the program under test) ahead of any installed copy
_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))

try:
    import repro  # noqa: F401  (fail early, before any result is printed)
except ImportError as exc:
    sys.stderr.write(f"bench: cannot import the program under test from "
                     f"{_ROOT / 'src'}: {exc}\n")
    sys.exit(2)

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

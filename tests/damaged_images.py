"""Damaged wire images, every one of them.

Every truncation, one-bit flip and past-the-end length field of the
26 pinned wire images (``tests/test_ndr_golden.py``), and of the value
images of ``tests/test_ndr_lanes.py``, must decode or raise
``MarshalError`` — the same value, or the same error, from the fast
reader, the reference reader and each envelope lane — and a length run
past the end must read as a truncation.

Tier-1 runs a fixed sample of the damage (``_stride``); the whole sweep
runs as a script, which reports every failing sweep and exits 1 if
there is one::

    PYTHONPATH=src:. python -m tests.damaged_images

:func:`sample` runs tier-1's sample of every sweep in one call: the
damaged-image driver of ``python -m benchmarks.reach``.
"""

from __future__ import annotations

import sys
import time

from tests.test_ndr_golden import (
    DECODERS,
    FORMATS,
    decode_or_raise,
    lengths_past_the_end_are_truncations,
)
from tests.test_ndr_lanes import lanes_agree_on_damaged_images

SWEEPS = [(f"decode_or_raise[{fmt}-{decoder}]", decode_or_raise,
           (fmt, decoder)) for fmt in FORMATS for decoder in sorted(DECODERS)]
SWEEPS += [(f"lanes_agree[{fmt}]", lanes_agree_on_damaged_images, (fmt,))
           for fmt in FORMATS]
SWEEPS += [(f"lengths_past_the_end[{fmt}]",
            lengths_past_the_end_are_truncations, (fmt,))
           for fmt in FORMATS]


def main() -> int:
    failed = 0
    for name, sweep, args in SWEEPS:
        started = time.monotonic()
        try:
            sweep(*args)
        except Exception as exc:  # report every sweep, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc!r}")
            continue
        print(f"ok   {name} ({time.monotonic() - started:.1f}s)")
    print(f"{len(SWEEPS) - failed}/{len(SWEEPS)} damaged-image sweeps "
          f"held over every offset of every image")
    return 1 if failed else 0


def sample() -> None:
    """Every sweep over tier-1's sample of the damage; raises on the
    first that fails."""
    for _, sweep, args in SWEEPS:
        sweep(*args, sample=True)


if __name__ == "__main__":
    sys.exit(main())

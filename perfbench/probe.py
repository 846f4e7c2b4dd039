"""Cold-start probe: import slitport from a source tree and make one CLI call.

    python3 perfbench/probe.py SRC_DIR '["paper", "--json", "out.json"]'

The last line of its output is ``{"code": EXIT_CODE, "done": T}`` with T
read from ``time.monotonic()``, a clock shared by every process on the
machine, so the parent can time process start through the first call.
"""

import contextlib
import io
import json
import sys
import time


def main() -> None:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from slitport import cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    print(json.dumps({"code": code, "done": time.monotonic()}))


if __name__ == "__main__":
    main()

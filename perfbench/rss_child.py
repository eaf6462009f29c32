"""Run smdcard CLI command lines in a fresh process; report peak memory.

Usage: python3 rss_child.py '<JSON list of argv lists>'

Prints one JSON object: the exit code of each command and this process's
peak resident set size (``ru_maxrss``, KiB on Linux).
"""

import contextlib
import json
import os
import resource
import sys


def main(commands_json: str) -> int:
    from smdcard.cli import main as cli_main
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in json.loads(commands_json):
            codes.append(cli_main(argv))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"codes": codes, "maxrss_kb": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

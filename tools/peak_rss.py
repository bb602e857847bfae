#!/usr/bin/env python3
"""Runs a command and fails if its peak resident set exceeds a limit.

Usage:
  python3 tools/peak_rss.py --max-mb 140 -- ./build/tools/hta solve ...

The peak is the child's ru_maxrss from getrusage(RUSAGE_CHILDREN),
which counts only processes this script waited for. The command's own
exit status wins over the limit: a failing command fails the check.
"""

import argparse
import resource
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="largest allowed peak RSS, in MB (2^20 bytes)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    status = subprocess.run(command, check=False).returncode
    # ru_maxrss is in KiB on Linux; MB here is 2^20 bytes, as perfbench's
    # peak_rss_mb.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (limit {args.max_mb:g} MB): "
          f"{' '.join(command)}")
    if status != 0:
        print(f"command exited with status {status}", file=sys.stderr)
        return status
    if peak_mb > args.max_mb:
        print(f"peak RSS {peak_mb:.1f} MB is above {args.max_mb:g} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

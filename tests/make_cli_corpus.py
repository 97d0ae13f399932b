"""Regenerate tests/data/cli_corpus.jsonl, the CLI's byte corpus.

The inputs are perfbench/gen.py's cli_input for seeds 1-40 and indices
0-11 (480 argv lists, a tenth of them malformed).  Each one runs as a
fresh ``python -m deltastar`` process on this source tree, and its line
records the argv, the exit code and the full stdout and stderr.
test_cli.py replays every line in process and compares the bytes.

Run from the repository root:

    python tests/make_cli_corpus.py

A change that alters an entry regenerates the file and lists each
changed entry in CHANGES.md.  This script is not collected by pytest,
and it only reads perfbench/.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tests", "data", "cli_corpus.jsonl")
SEEDS = range(1, 41)
INDICES = range(12)


def main():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from gen import cli_input

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    lines = []
    for seed in SEEDS:
        for index in INDICES:
            argv = cli_input(seed, index)["argv"]
            done = subprocess.run([sys.executable, "-m", "deltastar", *argv],
                                  env=env, capture_output=True, text=True, timeout=60)
            entry = {"argv": argv, "exit": done.returncode,
                     "stdout": done.stdout, "stderr": done.stderr}
            lines.append(json.dumps(entry, sort_keys=True) + "\n")
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(lines)
    print("wrote %d entries to %s" % (len(lines), os.path.relpath(CORPUS, ROOT)))


if __name__ == "__main__":
    main()

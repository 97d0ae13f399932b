"""Regenerate the CLI's byte pins: tests/data/cli_corpus.jsonl and
tests/data/cli_pins.jsonl.

Each line of either file records one command: its argv, its exit code
and its full stdout and stderr.  ``run_fresh`` records it from a fresh
``python -m deltastar`` process on this source tree, with ``COLUMNS=80``
(argparse wraps its usage text to the terminal width) and a 10 s limit.

- The corpus holds perfbench/gen.py's cli_input for seeds 1-40 and
  indices 0-11 (480 argv lists, a tenth of them malformed).  test_cli.py
  replays every line in process.
- The pins are hand-picked commands; each line also carries ``numpy``.
  Where it is false, the command runs with numpy and scipy blocked, as
  on an install without them.  The pins are re-recorded from their own
  argv and ``numpy``, so a new pin is a line holding just those two,
  appended to the file.  test_cli.py replays every pin through
  ``run_fresh``, the ``numpy`` ones only where numpy and scipy are
  installed.

Run from the repository root, with numpy and scipy installed:

    python tests/make_cli_corpus.py

A change that alters an entry regenerates the files and lists each
changed entry in CHANGES.md.  This script is not collected by pytest,
and it only reads perfbench/.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "data", "cli_corpus.jsonl")
PINS = os.path.join(ROOT, "tests", "data", "cli_pins.jsonl")
SEEDS = range(1, 41)
INDICES = range(12)

# imported first by a fresh interpreter from a directory ahead of src on
# PYTHONPATH; a finder that returned None would let the next one find them
_BLOCK = """\
import sys


class BlockNumpyScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ModuleNotFoundError("No module named %r" % name, name=name)


sys.meta_path.insert(0, BlockNumpyScipy())
"""


def run_fresh(entry):
    """entry with "exit", "stdout" and "stderr" from running its "argv" as
    a fresh process, numpy and scipy blocked when its "numpy" is false."""
    with tempfile.TemporaryDirectory() as site:
        path = [SRC]
        if not entry.get("numpy", True):
            with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
                fh.write(_BLOCK)
            path.insert(0, site)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), COLUMNS="80")
        done = subprocess.run([sys.executable, "-m", "deltastar", *entry["argv"]],
                              env=env, capture_output=True, encoding="utf-8",
                              timeout=10)
    return dict(entry, exit=done.returncode, stdout=done.stdout, stderr=done.stderr)


def write(path, entries):
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.writelines(json.dumps(e, sort_keys=True) + "\n" for e in entries)
    print("wrote %d entries to %s" % (len(entries), os.path.relpath(path, ROOT)))


def main():
    import numpy, scipy  # noqa: F401 (the numpy pins are recorded with both)

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from gen import cli_input

    with open(PINS, encoding="utf-8") as fh:
        pins = [json.loads(line) for line in fh]
    write(CORPUS, [run_fresh({"argv": cli_input(seed, index)["argv"]})
                   for seed in SEEDS for index in INDICES])
    write(PINS, [run_fresh({"argv": pin["argv"], "numpy": pin["numpy"]})
                 for pin in pins])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Record the sha256 of the JSON output of every command in the cli mix.

    python3 bench/record_cli_digests.py

Writes bench/cli_digests.json.  The cli workload fails every operation whose
output differs from the recorded digest, so rerun this only when a change
to the CLI output is intended, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    run.require_checkout()
    import inputs
    import workloads

    digests = {}
    for variants in inputs.CLI_FAMILIES.values():
        for argv in variants:
            code, stdout = workloads.run_cli(argv, run.ROOT)
            if code != 0:
                raise SystemExit(f"error: exit {code} from {' '.join(argv)}")
            digests[" ".join(argv)] = hashlib.sha256(stdout).hexdigest()
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {workloads.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

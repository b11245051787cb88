"""Record the SHA-256 of every output of the default seed in digests.json.

    python3 perfbench/record_digests.py

Run it only when a change to the program is meant to change its output;
the benchmark counts an operation whose digest differs as failed.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.load_program()
    recorded = {}
    for name in run.WORKLOADS:
        session = run.open_session(name, run.DEFAULT_SEED)
        try:
            recorded[name] = {
                str(run.DEFAULT_SEED): {part: session.run_part(part)[1] for part in session.parts}
            }
        finally:
            session.close()
    run.DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")


if __name__ == "__main__":
    main()

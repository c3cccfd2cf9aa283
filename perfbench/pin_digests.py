"""Re-pin the report digests that back identical_ratio.

    python3 perfbench/pin_digests.py

Runs every command of every workload once, untraced, on the default seed's
inputs (and the warm-ups), and writes the sha256 of each output file to
pinned_digests.json.  Commands that do not finish, such as the deliberate
n=200 verify, get no pin.  Re-pin only for a change that is meant to alter
report bytes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import pin_environment


def main() -> int:
    pin_environment()
    import harness
    from workloads import DEFAULT_SEED, WORKLOADS

    cli = harness.import_program()
    pins: dict = {"seed": DEFAULT_SEED}
    with tempfile.TemporaryDirectory(dir=harness.ROOT) as tmp:
        for workload in WORKLOADS:
            prepared = harness.prepare(workload, DEFAULT_SEED, Path(tmp) / workload)
            if "warmup" not in pins:
                warm = [harness.execute(cli.main, c, prepared, warm=True)
                        for c in prepared.warmups]
                pins["warmup"] = _digests(warm)
            runs = [harness.execute(cli.main, c, prepared) for c in prepared.commands]
            pins[workload] = _digests(runs)
            print(f"{workload}: {len(pins[workload])} of {len(runs)} commands pinned",
                  file=sys.stderr)
    with open(harness.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _digests(outcomes) -> dict[str, str]:
    bad = [f"{o.cmd.label}: {o.problems}" for o in outcomes if o.error is None and not o.ok]
    if bad:
        raise SystemExit("refusing to pin failing outputs:\n" + "\n".join(bad))
    return {o.cmd.label: o.digest for o in outcomes if o.ok}


if __name__ == "__main__":
    sys.exit(main())

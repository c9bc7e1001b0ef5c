"""What a user pays before the first operation, in a fresh interpreter.

    python3 perfbench/setup_probe.py dhn|linear

Imports ``capnet.cli``, then loads and builds a scenario config: the DHN
study's (network ``builtin:dhn_calibrated`` under the shipped temperature
profile) or the shipped 2-agent linear one.  Prints one JSON line with
``import_s`` and ``build_s``.  ``run.py`` times the whole process from
outside, interpreter start-up included.
"""

import json
import sys
import time

started = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import capnet.cli as cli  # noqa: E402

imported = time.perf_counter()

DHN_STUDY = {
    "schema_version": 1,
    "system": {"type": "dhn", "network": "builtin:dhn_calibrated"},
    "agents": {"temperature_profile": "builtin"},
    "controller": {"mode": "decentralized", "kP": 1.0, "kI": 1.0, "kA": 1.0,
                   "force": True},
}


def main(kind: str) -> int:
    if kind == "dhn":
        cli.validate_config(DHN_STUDY)
        cfg = cli.ScenarioConfig(data=DHN_STUDY, base_dir=Path.cwd())
    elif kind == "linear":
        cfg = cli.ScenarioConfig.load(cli.shipped_config_path("linear2_decentralized.cfg"))
    else:
        print(f"unknown setup kind {kind!r}", file=sys.stderr)
        return 2
    cli.build_scenario(cfg)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "build_s": built - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))

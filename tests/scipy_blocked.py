"""Run every command at toy size with scipy made unimportable.

    PYTHONPATH=src python tests/scipy_blocked.py OUT_DIR

`sys.modules["scipy"] = None` makes every `import scipy...` raise
ImportError.  The five commands run through `quenchsim.cli.main`, writing
under OUT_DIR.  Prints one JSON object, each command's exit code and the
scipy modules loaded afterwards, and exits 1 unless every code is 0 and no
scipy module was loaded.
"""

import json
import sys
from pathlib import Path

sys.modules["scipy"] = None

from quenchsim.cli import main  # noqa: E402

TOY_CONFIG = "M = 11\nN = 128\nlambda = 1e-5\na = 0.1\nb = 0.1\nbound_paths = 20\n"


def run(out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    config = out / "toy.cfg"
    config.write_text(TOY_CONFIG)
    common = ["--config", str(config), "--seed", "3"]
    commands = {
        "simulate": ["simulate", *common],
        "sweep": ["sweep", "--preset", "t1", "--realizations", "8", *common],
        "eigen": ["eigen", *common],
        "bounds": ["bounds", *common],
        "validate": ["validate"],
    }
    codes = {
        name: main(argv if name == "validate" else [*argv, "--out", str(out / name)])
        for name, argv in commands.items()
    }
    loaded = sorted(m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module)
    return {"exit_codes": codes, "scipy_modules": loaded}


if __name__ == "__main__":
    result = run(Path(sys.argv[1]))
    print(json.dumps(result))
    ok = not result["scipy_modules"] and not any(result["exit_codes"].values())
    sys.exit(0 if ok else 1)

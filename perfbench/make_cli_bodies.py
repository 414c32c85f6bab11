"""Write cli_bodies.json: the table bodies of the README's CLI invocations.

    python3 perfbench/make_cli_bodies.py

Run from the root of a riskbounds source tree.  Each invocation in
``run.INVOCATIONS`` runs once; the body of its stdout and of any output
file (everything after the run manifest, see ``oracles.table_body``) is
stored.  Regenerate only when a change to the printed numbers is intended,
and say why in the change that does it.
"""

import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from oracles import table_body  # noqa: E402


def main() -> int:
    root = Path.cwd()
    tmp = root / ".bench_tmp" / "cli_bodies"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = run.child_env(root)
        bodies = {}
        for key in run.INVOCATIONS:
            child, outputs = run.cli_call(key, root, env, tmp)
            if child.returncode != 0:
                print(f"{key}: exit {child.returncode}", file=sys.stderr)
                return 1
            bodies[key] = {name: table_body(text) for name, text in outputs.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.CLI_BODIES_FILE.write_text(json.dumps(bodies, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs that the benchmark's gates compare against.

    python3 perfbench/record_golden.py

Run from the repository root, only at a commit whose outputs are the
reference (the README promises byte-identical output, so a later commit
must reproduce them).  Writes perfbench/golden.json.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from phq import build, classify, fingerprint, parse_algebra_text, parse_recipe_text, serialize_algebra  # noqa: E402


def _expect(text: str, with_label: bool) -> dict:
    p = parse_algebra_text(text)
    return {
        "fingerprint": repr(fingerprint(p).as_tuple()),
        "label": str(classify(p).label) if with_label else None,
    }


def main() -> None:
    golden = {"ladder": {}, "catalog": {}, "cli": {}}
    for name, tree in inputs.LADDER.items():
        text = serialize_algebra(parse_recipe_text(inputs.recipe_text(tree)).evaluate())
        entry = _expect(text, parse_algebra_text(text).dim <= 8)
        entry["construct_sha256"] = workloads._sha256(text)
        golden["ladder"][name] = entry
    for label in inputs.CATALOG_LABELS:
        model = serialize_algebra(build(label))
        entry = _expect(model, True)
        assert entry["label"] == label, (label, entry["label"])
        entry["model"] = model
        golden["catalog"][label] = entry
    env = workloads.child_env()
    for command, path in inputs.cli_commands():
        proc = workloads.run_child([sys.executable, "-c", workloads.ENTRY, command, path], env)
        golden["cli"][f"{command} {path}"] = {"exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")}
    inputs.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {inputs.GOLDEN_PATH}")


if __name__ == "__main__":
    main()

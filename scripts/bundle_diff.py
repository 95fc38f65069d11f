"""Compare the outputs of ``roomchan`` on this tree with those of another revision.

    python scripts/bundle_diff.py --base HEAD~1 --config campaign.json --config scene.json --runs 200 --seed 5

Exports the committed files of ``--base`` into a temporary directory and runs
the same commands on that export and on this tree (working files included).
For each ``--config`` (the option repeats), the outputs go under a directory
named after the configuration file's stem: ``roomchan mc`` with the given run
count and seed into ``mc/``, and, when the configuration has ``positions``,
``paths`` into ``paths.csv``, ``signal`` with carrier phases into
``signal_carrier.csv`` and with random phases from ``--seed`` into
``signal_random.csv``, and ``theory`` with its default curves into
``theory/``. Prints one line per output file: ``identical`` or
``different``. For a differing CSV with the same layout the line also gives
the largest relative difference of its values. Exit status: 0 when every
file is byte-identical, 1 when one differs, 2 when a command fails or two
configurations share a stem.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> None:
    """Committed tree of ``rev`` unpacked into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, config: str, argv: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "roomchan.cli", "--config", config] + argv
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"bundle_diff: roomchan {argv[0]} failed in {tree} with exit {done.returncode}",
              file=sys.stderr)
        raise SystemExit(2)


def run_all(tree: Path, args, out: Path) -> None:
    """Every output of ``tree`` for each configuration, written under ``out/<stem>``."""
    seed = str(args.seed)
    for path in args.config:
        config = str(Path(path).resolve())
        dest = out / Path(path).stem
        dest.mkdir(parents=True)
        run(tree, config, ["mc", "--runs", str(args.runs), "--seed", seed,
                           "--threads", str(args.threads), "--out-dir", str(dest / "mc")])
        if "positions" in json.loads(Path(config).read_text(encoding="utf-8")):
            run(tree, config, ["paths", "--out", str(dest / "paths.csv")])
            run(tree, config, ["signal", "--out", str(dest / "signal_carrier.csv")])
            run(tree, config, ["signal", "--phase-mode", "random", "--seed", seed,
                               "--out", str(dest / "signal_random.csv")])
            run(tree, config, ["theory", "--out-dir", str(dest / "theory")])


def field(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def csv_values(path: Path) -> list[list[float | str]]:
    """Rows below the header, comment lines left out; numeric fields as floats."""
    lines = [line for line in path.read_text(encoding="utf-8").strip().split("\n")
             if not line.startswith("#")]
    return [[field(v) for v in line.split(",")] for line in lines[1:]]


def max_relative_difference(a: list[list[float | str]], b: list[list[float | str]]) -> float:
    """Largest relative difference of paired fields; infinite where text differs."""
    worst = 0.0
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            if isinstance(x, str) or isinstance(y, str):
                return float("inf")
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale > 0.0 else float("inf"))
    return worst


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(base_dir: Path, head_dir: Path) -> bool:
    same = True
    for name in sorted(files(base_dir) | files(head_dir)):
        a, b = base_dir / name, head_dir / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {'base' if a.is_file() else 'this tree'}")
            same = False
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
            continue
        same = False
        line = f"{name}: different"
        if name.endswith(".csv"):
            va, vb = csv_values(a), csv_values(b)
            if [len(r) for r in va] == [len(r) for r in vb]:
                line += f", max relative difference {max_relative_difference(va, vb):.3g}"
            else:
                line += ", layouts differ"
        print(line)
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--config", required=True, action="append",
                        help="JSON run configuration; repeat to compare several")
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    stems = [Path(path).stem for path in args.config]
    if len(set(stems)) < len(stems):
        parser.error(f"configurations need distinct file stems, got {stems}")

    with tempfile.TemporaryDirectory(prefix="bundle_diff_") as tmp:
        tmp = Path(tmp)
        (tmp / "tree").mkdir()
        try:
            export(args.base, tmp / "tree")
        except subprocess.CalledProcessError as exc:
            print(f"bundle_diff: cannot export {args.base!r}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        run_all(tmp / "tree", args, tmp / "base")
        run_all(ROOT, args, tmp / "head")
        return 0 if compare(tmp / "base", tmp / "head") else 1


if __name__ == "__main__":
    sys.exit(main())

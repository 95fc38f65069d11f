"""Compare the ``roomchan mc`` bundle of this tree with that of another revision.

    python scripts/bundle_diff.py --base HEAD~1 --config campaign.json --runs 200 --seed 5

Exports the committed files of ``--base`` into a temporary directory, runs
``roomchan mc`` with the same configuration, run count and seed on that
export and on this tree (working files included), and prints one line per
bundle file: ``identical`` or ``different``. For a differing CSV with the
same layout the line also gives the largest relative difference of its
values. Exit status: 0 when every file is byte-identical, 1 when one
differs, 2 when a run fails.
"""

from __future__ import annotations

import argparse
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


def run_mc(tree: Path, args, out_dir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [
        sys.executable, "-m", "roomchan.cli", "--config", str(Path(args.config).resolve()),
        "mc", "--runs", str(args.runs), "--seed", str(args.seed),
        "--threads", str(args.threads), "--out-dir", str(out_dir),
    ]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        print(f"bundle_diff: roomchan mc failed in {tree} with exit {done.returncode}", file=sys.stderr)
        raise SystemExit(2)


def csv_values(path: Path) -> list[list[float]] | None:
    """Numeric rows below the header, or None when a field is not a number."""
    rows = path.read_text(encoding="utf-8").strip().split("\n")[1:]
    try:
        return [[float(v) for v in row.split(",")] for row in rows]
    except ValueError:
        return None


def max_relative_difference(a: list[list[float]], b: list[list[float]]) -> float:
    worst = 0.0
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            scale = max(abs(x), abs(y))
            if x != y:
                worst = max(worst, abs(x - y) / scale if scale > 0.0 else float("inf"))
    return worst


def compare(base_dir: Path, head_dir: Path) -> bool:
    same = True
    for name in sorted({p.name for p in base_dir.iterdir()} | {p.name for p in head_dir.iterdir()}):
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
            if va is not None and vb is not None and [len(r) for r in va] == [len(r) for r in vb]:
                line += f", max relative difference {max_relative_difference(va, vb):.3g}"
            else:
                line += ", layouts differ"
        print(line)
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="bundle_diff_") as tmp:
        tmp = Path(tmp)
        (tmp / "tree").mkdir()
        try:
            export(args.base, tmp / "tree")
        except subprocess.CalledProcessError as exc:
            print(f"bundle_diff: cannot export {args.base!r}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        run_mc(tmp / "tree", args, tmp / "base")
        run_mc(ROOT, args, tmp / "head")
        return 0 if compare(tmp / "base", tmp / "head") else 1


if __name__ == "__main__":
    sys.exit(main())

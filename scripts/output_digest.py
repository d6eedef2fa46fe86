"""Digest of everything the shipped commands write, for comparing two checkouts.

    python3 scripts/output_digest.py OUTDIR
    python3 scripts/output_digest.py --against REV

Runs, with this checkout's `src` on the path and each command's outputs sent
to its own directory under OUTDIR (which must not exist yet):

  * `run` on configs/spinodal.cfg and configs/convection.cfg;
  * `sweep-eps configs/spinodal.cfg --eps 0.2,0.1,0.05`;
  * `gamma-sweep configs/spinodal.cfg --eps 0.2,0.1,0.05`;
  * `validate` on configs/spinodal.cfg and configs/convection.cfg (stdout only);
  * `resume` from the spinodal run's snapshot_00000200.bin, into a copy of
    that run's ledger.csv (so the ledger is cut back and appended to);
  * `oracle` on a 16x16 config written to OUTDIR for the run and removed
    after it (stdout only);
  * `run` on a 16x16 config with `phi_preset = random` and a five-word seed
    (2^130 + 7), written to OUTDIR the same way, so the random preset's draws
    reach the digest through the real command.

Prints one `md5  relative-path` line per file written, sorted by path, then
one `md5  stdout:<command>` line per command, with OUTDIR masked in the text
hashed. A snapshot (`.bin`) gets two lines, `relative-path:header` for its
header through the `end` line and `relative-path:payload` for its fields, so
a change to the header alone shows only in header lines. Two checkouts that
write the same bytes print the same lines.

With `--against REV` it exports the commit REV of this repository with
`git archive` into a temporary directory, runs this script's own copy there,
runs the digest of this working tree too, and prints the unified diff of the
two digests. It exits 1 when they differ and 0 when they are the same.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from difflib import unified_diff
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The oracle battery compares with O(N^4) direct sums, so it runs on a small grid.
ORACLE_CONFIG = "[grid]\nnx = 16\nny = 16\n\n[kernel]\nepsilon = 0.3\ngamma = 0.5\n"
RANDOM_CONFIG = (
    "[grid]\nnx = 16\nny = 16\n\n[kernel]\nepsilon = 0.3\n\n"
    "[solver]\ndt = 1e-4\nt_end = 1e-3\ncadence = 5\n\n[initial]\nphi_preset = random\n\n"
    "[output]\nwrite_images = false\n\n[run]\nseed = 1361129467683753853853498429727072845831\n"
)


def run(name: str, args: list[str], outdir: Path) -> str:
    """Run `nlchb <args>` with its outputs in outdir/name; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), NLCHB_OUTPUT_DIR=str(outdir / name))
    proc = subprocess.run(
        [sys.executable, "-m", "nlchb.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def digest(outdir: Path) -> list[str]:
    """Run the commands with their outputs under outdir; returns the digest lines."""
    outdir.mkdir(parents=True, exist_ok=False)
    stdout = {
        "run-spinodal": run("spinodal", ["run", "configs/spinodal.cfg"], outdir),
        "run-convection": run("convection", ["run", "configs/convection.cfg"], outdir),
        "sweep-eps": run(
            "sweep-eps", ["sweep-eps", "configs/spinodal.cfg", "--eps", "0.2,0.1,0.05"], outdir
        ),
        "gamma-sweep": run(
            "gamma-sweep", ["gamma-sweep", "configs/spinodal.cfg", "--eps", "0.2,0.1,0.05"], outdir
        ),
        "validate-spinodal": run("validate", ["validate", "configs/spinodal.cfg"], outdir),
        "validate-convection": run("validate", ["validate", "configs/convection.cfg"], outdir),
    }
    (outdir / "resume").mkdir()
    shutil.copy(outdir / "spinodal" / "ledger.csv", outdir / "resume" / "ledger.csv")
    snapshot = outdir / "spinodal" / "snapshot_00000200.bin"
    stdout["resume"] = run("resume", ["resume", str(snapshot)], outdir)
    for key, command, text in (
        ("oracle", "oracle", ORACLE_CONFIG), ("run-random", "run", RANDOM_CONFIG)
    ):
        cfg = outdir / f"{key}.cfg"
        cfg.write_text(text, encoding="utf-8")
        stdout[key] = run(key, [command, str(cfg)], outdir)
        cfg.unlink()

    lines = []
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        name, data = path.relative_to(outdir), path.read_bytes()
        if path.suffix == ".bin":  # the header through "end", then the payload
            cut = data.index(b"\nend\n") + len(b"\nend\n")
            lines += [f"{md5(data[:cut])}  {name}:header", f"{md5(data[cut:])}  {name}:payload"]
        else:
            lines.append(f"{md5(data)}  {name}")
    for name, text in stdout.items():
        lines.append(f"{md5(text.replace(str(outdir), 'OUTDIR').encode())}  stdout:{name}")
    return lines


def against(rev: str) -> int:
    """Diff the digest of commit `rev` against this working tree's; 1 if they differ."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=False
        )
        if archive.returncode != 0:
            sys.exit(f"git archive {rev}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        (tree / "scripts").mkdir(exist_ok=True)
        shutil.copy(Path(__file__), tree / "scripts" / "output_digest.py")
        proc = subprocess.run(
            [sys.executable, str(tree / "scripts" / "output_digest.py"), str(Path(tmp) / "rev")],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"digest of {rev}: exit {proc.returncode}\n{proc.stderr}{proc.stdout}")
        theirs = proc.stdout.splitlines()
        ours = digest(Path(tmp) / "this")
    diff = list(unified_diff(theirs, ours, fromfile=rev, tofile="working tree", lineterm=""))
    print("\n".join(diff) if diff else f"same {len(ours)} lines as {rev}")
    return 1 if diff else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--against":
        return against(argv[1])
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.exit(__doc__)
    print("\n".join(digest(Path(argv[0]).resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

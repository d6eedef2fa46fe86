"""Digest of everything the shipped commands write, for comparing two checkouts.

    python3 scripts/output_digest.py OUTDIR

Runs, with this checkout's `src` on the path and each command's outputs sent
to its own directory under OUTDIR (which must not exist yet):

  * `run` on configs/spinodal.cfg and configs/convection.cfg;
  * `sweep-eps configs/spinodal.cfg --eps 0.2,0.1,0.05`;
  * `gamma-sweep configs/spinodal.cfg --eps 0.2,0.1,0.05`;
  * `validate` on configs/spinodal.cfg and configs/convection.cfg (stdout only);
  * `resume` from the spinodal run's snapshot_00000200.bin, into a copy of
    that run's ledger.csv (so the ledger is cut back and appended to).

Prints one `md5  relative-path` line per file written, sorted by path, then
one `md5  stdout:<command>` line per command, with OUTDIR masked in the text
hashed. Two checkouts that write the same bytes print the same lines.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    outdir = Path(argv[0]).resolve()
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

    files = sorted(p for p in outdir.rglob("*") if p.is_file())
    for path in files:
        print(f"{md5(path.read_bytes())}  {path.relative_to(outdir)}")
    for name, text in stdout.items():
        print(f"{md5(text.replace(str(outdir), 'OUTDIR').encode())}  stdout:{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""End-to-end CLI tests: run, resume determinism, oracle, sweeps, validation."""

import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nlchb.cli
from nlchb.cli import main
from nlchb.energy import LEDGER_COLUMNS
from nlchb.grid import make_grid
from nlchb.snapshots import LedgerCsvWriter, read_snapshot, write_snapshot

from conftest import spinodal_state
from test_limits import diverge_after
from test_solver import break_from, leak_divergence

FAST_RUN = """
[grid]
nx = 16
ny = 16

[kernel]
epsilon = 0.3
gamma = 0.5

[solver]
dt = 1e-3
t_end = 2e-2
cadence = 5

[output]
directory = {out}
"""

KILL_RUN = """
[grid]
nx = 16
ny = 16

[kernel]
epsilon = 0.3
gamma = 0.5

[solver]
dt = 1e-4
t_end = 0.05
cadence = 50

[output]
directory = {out}
write_images = false
"""

# `python -c KILLED_RUN CONFIG K` runs CONFIG and, as the step from step K
# begins, ends the process at once, with no buffer flushed and no cleanup.
KILLED_RUN = """
import os, sys
import nlchb.solver
from nlchb.cli import main

raw, kill_at = nlchb.solver.advance, int(sys.argv[2])

def advance(model, state, *args):
    if state.step == kill_at:
        os._exit(3)
    return raw(model, state, *args)

nlchb.solver.advance = advance
main(["run", sys.argv[1]])
"""

ORACLE_CFG = """
[grid]
nx = 16
ny = 16

[kernel]
epsilon = 0.3
gamma = 0.5

[output]
directory = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return str(path)


class TestRun:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "ledger.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "validation.txt").exists()
        assert any(p.name.startswith("phi_") and p.suffix == ".ppm" for p in out.iterdir())
        lines = (out / "ledger.csv").read_text().splitlines()
        assert len(lines) == 21  # header + 20 steps

    def test_rest_equilibrium_constant_energy_100_steps(self, tmp_path):
        text = FAST_RUN.replace("t_end = 2e-2", "t_end = 1e-1")
        text += "\n[initial]\nphi_preset = constant\nphi_value = 1.0\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "out" / "ledger.csv").read_text().splitlines()
        assert len(lines) == 101  # header + 100 steps
        header = lines[0].split(",")
        e_col = header.index("E_total")
        energies = [float(l.split(",")[e_col]) for l in lines[1:]]
        assert max(energies) - min(energies) <= 1e-12 * max(abs(energies[0]), 1.0)

    def test_spinodal_run_energy_nonincreasing(self, tmp_path):
        text = (
            "[grid]\nnx = 32\nny = 32\n"
            "[kernel]\nepsilon = 0.25\ngamma = 0.5\n"
            "[solver]\ndt = auto\nt_end = 0.05\n"
            "[output]\ndirectory = {out}\nwrite_images = false\nwrite_snapshots = false\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "out" / "ledger.csv").read_text().splitlines()
        e_col = lines[0].split(",").index("E_total")
        energies = np.array([float(l.split(",")[e_col]) for l in lines[1:]])
        assert np.diff(energies).max() <= 1e-8 * energies[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exits_2_with_snapshot(self, tmp_path):
        text = FAST_RUN + (
            "\n[physics]\nk_cap = 10.0\nalpha2 = 5.0\ng_y = -10.0\n"
            "nu_min = 0.01\nnu_max = 0.01\n"
            "\n[initial]\ntheta_preset = constant\ntheta_value = 1.0\n"
        )
        text = text.replace("dt = 1e-3", "dt = 10.0").replace("t_end = 2e-2", "t_end = 1e4")
        cfg = write_cfg(tmp_path, text)
        rc = main(["run", cfg])
        assert rc == 2
        assert (tmp_path / "out" / "blowup.bin").exists()
        assert (tmp_path / "out" / "ledger.csv").exists()

    def test_invariant_violation_exits_2_without_the_bad_row(self, tmp_path, monkeypatch):
        # from step 7 on the velocity step leaves divergence behind
        break_from(monkeypatch, "step_ns", 7, leak_divergence)
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 2
        out = tmp_path / "out"
        state, _ = read_snapshot(str(out / "blowup.bin"))
        assert state.step == 7
        lines = (out / "ledger.csv").read_text().splitlines()
        assert len(lines) == 1 + 7
        div_col = lines[0].split(",").index("max_div_u")
        assert max(float(line.split(",")[div_col]) for line in lines[1:]) <= 1e-10
        assert not (out / "checkpoint.bin").exists()

    def test_one_under_resolution_warning(self, tmp_path, capsys):
        # epsilon 0.1 spans fewer than two 1/16 cells; only the kernel says so
        text = FAST_RUN.replace("epsilon = 0.3", "epsilon = 0.1")
        cfg = write_cfg(tmp_path, text.replace("t_end = 2e-2", "t_end = 2e-3"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 0
        messages = [str(w.message) for w in caught] + capsys.readouterr().err.splitlines()
        assert sum("fewer than two cells" in m for m in messages) == 1

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, FAST_RUN)
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("NLCHB_OUTPUT_DIR", str(override))
        assert main(["run", cfg]) == 0
        assert (override / "checkpoint.bin").exists()

    def test_bad_config_exits_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[kernel]\ngamma = 7\n")
        assert main(["run", str(path)]) == 1

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("validate", "kernel", "epsilon", "inf"),
            ("run", "solver", "t_end", "inf"),
            ("run", "initial", "phi_amplitude", "nan"),
        ],
    )
    def test_non_finite_config_number_exits_1_writing_nothing(
        self, tmp_path, monkeypatch, capsys, command, section, key, value
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a rejected config must not be run")

        monkeypatch.setattr(nlchb.cli, "integrate", no_run)
        text = FAST_RUN + f"\n[{section}]\n{key} = {value}\n"
        if f"\n{key} = " in FAST_RUN:  # set the key where FAST_RUN has it
            text = re.sub(rf"\n{key} = .*\n", f"\n{key} = {value}\n", FAST_RUN)
        cfg = write_cfg(tmp_path, text)
        assert main([command, cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        expected = f"  [{section}] {key}: must be finite, got {value!r}"
        assert err == ["invalid configuration:", expected]
        assert not (tmp_path / "out").exists()


class TestResume:
    def test_checkpoint_restart_bit_exact(self, tmp_path):
        # full run
        full_cfg = write_cfg(tmp_path, FAST_RUN.replace("{out}", "{out}_full"), "full.cfg")
        assert main(["run", full_cfg]) == 0
        full_state, _ = read_snapshot(str(tmp_path / "out_full" / "checkpoint.bin"))

        # half run, then resume
        half_text = FAST_RUN.replace("{out}", "{out}_half").replace("t_end = 2e-2", "t_end = 1e-2")
        half_cfg = write_cfg(tmp_path, half_text, "half.cfg")
        assert main(["run", half_cfg]) == 0
        half_ckpt = str(tmp_path / "out_half" / "checkpoint.bin")

        # patch the embedded config's horizon by rewriting the checkpoint
        state, meta = read_snapshot(half_ckpt)
        from nlchb.snapshots import write_snapshot

        write_snapshot(
            half_ckpt,
            state,
            meta["grid"],
            mode=meta["mode"],
            epsilon=meta["epsilon"],
            gamma=meta["gamma"],
            config_text=meta["config_text"].replace("t_end = 1e-2", "t_end = 2e-2"),
            dt=meta["dt"],
        )
        assert main(["resume", half_ckpt]) == 0
        resumed_state, _ = read_snapshot(str(tmp_path / "out_half" / "checkpoint.bin"))

        assert resumed_state.t == full_state.t
        assert np.array_equal(resumed_state.phi, full_state.phi)
        assert np.array_equal(resumed_state.theta, full_state.theta)
        assert np.array_equal(resumed_state.vel.u, full_state.vel.u)
        assert np.array_equal(resumed_state.vel.v, full_state.vel.v)

    def test_resume_from_mid_run_snapshot_keeps_ledger(self, tmp_path):
        # resuming cuts ledger.csv back to the snapshot's t before appending,
        # so no row is repeated and the file matches the uninterrupted run's
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        ledger = (out / "ledger.csv").read_bytes()
        checkpoint = (out / "checkpoint.bin").read_bytes()
        with open(out / "ledger.csv", "a", encoding="utf-8") as fh:
            fh.write("0.0")  # a row torn by a killed run; its prefix parses as t = 0
        assert main(["resume", str(out / "snapshot_00000010.bin")]) == 0
        assert (out / "ledger.csv").read_bytes() == ledger
        assert (out / "checkpoint.bin").read_bytes() == checkpoint

    @pytest.mark.parametrize("kill_at", [30, 450])
    def test_resume_after_kill_writes_the_uninterrupted_ledger(self, tmp_path, kill_at):
        # every row up to a snapshot is on disk when the snapshot is written,
        # and a ledger left empty gets its header when the resumed run opens it
        cfg = write_cfg(tmp_path, KILL_RUN)
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        uninterrupted = (out / "ledger.csv").read_bytes()
        shutil.rmtree(out)
        src = os.path.dirname(os.path.dirname(nlchb.cli.__file__))
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_RUN, cfg, str(kill_at)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert killed.returncode == 3, killed.stderr
        assert not (out / "checkpoint.bin").exists()
        assert main(["resume", str(out / f"snapshot_{kill_at // 50 * 50:08d}.bin")]) == 0
        assert (out / "ledger.csv").read_bytes() == uninterrupted

    def test_resume_from_malformed_snapshot_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        path = tmp_path / "out" / "checkpoint.bin"
        path.write_bytes(path.read_bytes().replace(b"\nt=", b"\nx=", 1))
        capsys.readouterr()
        assert main(["resume", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_resume_from_non_finite_header_exits_1_writing_nothing(self, tmp_path, capsys):
        # t = nan used to resume as "finished at t=nan after 0 steps" and write a checkpoint
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        snap = out / "snapshot_00000010.bin"
        blob = snap.read_bytes()
        snap.write_bytes(re.sub(rb"\nt=[^ ]+ ", b"\nt=nan ", blob, count=1))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["resume", str(snap)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite t" in err[0]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_already_finished(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        assert main(["resume", str(tmp_path / "out" / "checkpoint.bin")]) == 0


class TestOracle:
    def test_oracle_passes_on_default_small_config(self, tmp_path):
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        assert main(["oracle", cfg]) == 0

    def test_corrupted_kernel_fails(self, tmp_path, monkeypatch):
        raw = nlchb.cli.sample_kernel

        def asymmetric(*args, **kwargs):
            kernel = raw(*args, **kwargs)
            kernel.values[1, 2] *= 1.5  # breaks the even symmetry of the sampled kernel
            return kernel

        monkeypatch.setattr(nlchb.cli, "sample_kernel", asymmetric)
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        assert main(["oracle", cfg]) == 1

    def test_large_grid_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, ORACLE_CFG.replace("nx = 16", "nx = 64").replace("ny = 16", "ny = 64"))
        assert main(["oracle", cfg]) == 1


class TestValidateAndSweeps:
    def test_validate_prints_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        assert main(["validate", cfg]) == 0
        out = capsys.readouterr().out
        assert "c1" in out and "flags" in out

    def test_gamma_sweep_writes_csv(self, tmp_path):
        text = ORACLE_CFG.replace("nx = 16", "nx = 32").replace("ny = 16", "ny = 32")
        cfg = write_cfg(tmp_path, text)
        assert main(["gamma-sweep", cfg, "--eps", "0.4,0.2"]) == 0
        csv = (tmp_path / "out" / "gamma_sweep.csv").read_text()
        assert "# kind = gamma_sweep" in csv
        assert "e_nl" in csv

    def test_gamma_sweep_non_finite_phi_file_exits_1(self, tmp_path, capsys):
        grid = make_grid(32, 32, 1.0, 1.0)
        donor = spinodal_state(grid)
        donor.phi[7, 9] = np.nan
        write_snapshot(str(tmp_path / "donor.bin"), donor, grid)
        text = ORACLE_CFG.replace("nx = 16", "nx = 32").replace("ny = 16", "ny = 32")
        cfg = write_cfg(tmp_path, text + "\n[initial]\nphi_preset = file\nphi_file = donor.bin\n")
        assert main(["gamma-sweep", cfg, "--eps", "0.4,0.2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "field phi holds NaN or inf" in err[0]
        assert not (tmp_path / "out" / "gamma_sweep.csv").exists()

    @pytest.mark.parametrize("command", ["gamma-sweep", "sweep-eps"])
    @pytest.mark.parametrize("eps", ["inf,0.2", "0.4,nan"])
    def test_non_finite_eps_exits_1(self, tmp_path, capsys, command, eps):
        cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3"))
        assert main([command, cfg, "--eps", eps]) == 1
        err = capsys.readouterr().err.splitlines()
        bad = eps.split(",")[0 if eps.startswith("inf") else 1]
        assert len(err) == 1 and err[0] == f"error: eps must be finite, got {bad}"
        assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]

    def test_sweep_eps_writes_summary_and_subdirs(self, tmp_path):
        text = FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3")
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 0
        out = tmp_path / "out"
        assert (out / "sweep_eps.csv").exists()
        assert (out / "eps_0.4" / "ledger.csv").exists()
        assert (out / "eps_0.2" / "ledger.csv").exists()
        # every data cell is a plain number (no numpy scalar reprs)
        lines = (out / "sweep_eps.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 2
        for row in rows:
            for cell in row:
                float(cell)

    def test_sweep_eps_diverged_reference_exits_2(self, tmp_path, monkeypatch, capsys):
        diverge_after(monkeypatch, 2, "local")
        cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3"))
        capsys.readouterr()
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "local reference run diverged" in err[0]
        assert not (tmp_path / "out" / "sweep_eps.csv").exists()

    def test_sweep_eps_ledgers_written_by_ledger_csv_writer(self, tmp_path, monkeypatch):
        # each member's ledger.csv holds the same bytes LedgerCsvWriter writes
        # for the member's rows: the header, then repr() of every value
        raw = nlchb.cli.solution_sweep
        ledgers = {}

        def sweep(*args, **kwargs):
            report = raw(*args, **kwargs)
            ledgers.update(report.ledgers)
            return report

        monkeypatch.setattr(nlchb.cli, "solution_sweep", sweep)
        cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3"))
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 0
        assert sorted(ledgers) == [0.2, 0.4]
        for eps, ledger in ledgers.items():
            assert len(ledger.rows) == 5
            expected = tmp_path / f"expected_{eps:g}.csv"
            with LedgerCsvWriter(str(expected)) as csv:
                for row in ledger.rows:
                    csv.write_row(row)
            lines = [",".join(LEDGER_COLUMNS)]
            lines += [",".join(repr(row[c]) for c in LEDGER_COLUMNS) for row in ledger.rows]
            written = (tmp_path / "out" / f"eps_{eps:g}" / "ledger.csv").read_bytes()
            assert written == expected.read_bytes() == ("\n".join(lines) + "\n").encode()

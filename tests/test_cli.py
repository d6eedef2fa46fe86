"""End-to-end CLI tests: run, resume determinism, oracle, sweeps, validation."""

import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import nlchb.cli
import nlchb.limits
import nlchb.solver
from nlchb.cli import main
from nlchb.config import RunConfig
from nlchb.energy import LEDGER_COLUMNS, EnergyLedger
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

# `python -c KILLED_AT_CALL COMMAND CONFIG N` runs `nlchb COMMAND CONFIG`
# (sweep-eps over eps 0.4 and 0.2) and, as the N-th call of `advance` begins,
# ends the process at once, with no buffer flushed and no cleanup.
KILLED_AT_CALL = """
import os, sys
import nlchb.limits, nlchb.solver
from nlchb.cli import main

raw, calls = nlchb.solver.advance, [0]

def advance(*args, **kwargs):
    calls[0] += 1
    if calls[0] == int(sys.argv[3]):
        os._exit(3)
    return raw(*args, **kwargs)

nlchb.solver.advance = nlchb.limits.advance = advance
main(sys.argv[1:3] + (["--eps", "0.4,0.2"] if sys.argv[1] == "sweep-eps" else []))
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


def member_rows(out, eps):
    """The rows of a sweep member's ledger.csv, as text, after its header."""
    lines = (out / f"eps_{eps!r}" / "ledger.csv").read_text().splitlines()
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    return lines[1:]


def clean_sweep_rows(tmp_path, monkeypatch, cfg, eps):
    """Each member's ledger rows from a sweep run of `cfg` into tmp_path/clean."""
    monkeypatch.setenv("NLCHB_OUTPUT_DIR", str(tmp_path / "clean"))
    assert main(["sweep-eps", cfg, "--eps", ",".join(map(repr, eps))]) == 0
    monkeypatch.delenv("NLCHB_OUTPUT_DIR")
    return {e: member_rows(tmp_path / "clean", e) for e in eps}


def resume_refused_header(tmp_path, capsys, pattern, replacement, message):
    """Resume from a run's snapshot with `pattern` in its header replaced:
    exit 1 with one error line holding `message`, and no file written."""
    cfg = write_cfg(tmp_path, FAST_RUN)
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    snap = out / "snapshot_00000010.bin"
    blob, count = re.subn(pattern, replacement, snap.read_bytes(), count=1)
    assert count == 1
    snap.write_bytes(blob)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["resume", str(snap)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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

    def test_resume_from_old_header_bit_exact(self, tmp_path):
        # a snapshot whose header still carries mode, epsilon and gamma, as
        # headers did before they were dropped, resumes to the same bytes
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        ledger = (out / "ledger.csv").read_bytes()
        checkpoint = (out / "checkpoint.bin").read_bytes()
        snap = out / "snapshot_00000010.bin"
        blob = snap.read_bytes()
        old = blob.replace(b" step=10 ", b" step=10 mode=nonlocal epsilon=0.3 gamma=0.5 ", 1)
        assert old != blob
        snap.write_bytes(old)
        assert main(["resume", str(snap)]) == 0
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

    @pytest.mark.parametrize(
        "command, rows",
        [
            ("run", {"": 137}),
            # a sweep step advances the reference, then eps 0.4, then eps 0.2
            ("sweep-eps", {"eps_0.4": 46, "eps_0.2": 45}),
        ],
    )
    def test_killed_command_leaves_every_finished_ledger_row(
        self, tmp_path, monkeypatch, capsys, command, rows
    ):
        # each row reaches the operating system as it is written: a kill
        # between snapshots, or anywhere in a sweep, loses no finished row
        cfg = write_cfg(tmp_path, KILL_RUN.replace("t_end = 0.05", "t_end = 0.02"))
        extra = ["--eps", "0.4,0.2"] if command == "sweep-eps" else []
        monkeypatch.setenv("NLCHB_OUTPUT_DIR", str(tmp_path / "clean"))
        assert main([command, cfg, *extra]) == 0
        capsys.readouterr()
        src = os.path.dirname(os.path.dirname(nlchb.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, NLCHB_OUTPUT_DIR=str(tmp_path / "killed"))
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_AT_CALL, command, cfg, "138"],
            env=env, capture_output=True, text=True,
        )
        assert killed.returncode == 3, killed.stderr
        for name, n in rows.items():
            clean = (tmp_path / "clean" / name / "ledger.csv").read_bytes().splitlines(True)
            assert len(clean) == 201
            assert (tmp_path / "killed" / name / "ledger.csv").read_bytes() == b"".join(clean[: n + 1])

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
        resume_refused_header(tmp_path, capsys, rb"\nt=[^ ]+ ", b"\nt=nan ", "non-finite t")

    def test_resume_from_non_positive_dt_exits_1_writing_nothing(self, tmp_path, capsys):
        # dt = -0.5 used to resume with the config's dt and exit 0
        resume_refused_header(tmp_path, capsys, rb" dt=[^ \n]+", b" dt=-0.5", "non-positive dt")

    @pytest.mark.parametrize(
        "config_text, message",
        [
            (None, "checkpoint carries no embedded config; cannot resume"),
            ("[grid]\nnx = 16\nny = 16\n[solver]\ndt = auto\n",
             "checkpoint carries no step size and config dt is auto"),
        ],
    )
    def test_resume_refusals_exit_1_writing_nothing(self, tmp_path, monkeypatch, capsys,
                                                    config_text, message):
        monkeypatch.setenv("NLCHB_OUTPUT_DIR", str(tmp_path / "out"))
        grid = make_grid(16, 16, 1.0, 1.0)
        path = tmp_path / "snapshot.bin"
        write_snapshot(str(path), spinodal_state(grid), grid, config_text=config_text)
        assert main(["resume", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_resume_already_finished(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        assert main(["resume", str(tmp_path / "out" / "checkpoint.bin")]) == 0


class TestStartStateReleased:
    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_start_phi_is_freed_by_the_second_step(self, tmp_path, monkeypatch, command):
        # the command hands its start state to the loop and keeps no name for
        # it, so once the first step is made nothing holds the start fields
        cfg = write_cfg(tmp_path, FAST_RUN)
        if command == "run":
            target, first_step = cfg, 0
        else:
            assert main(["run", cfg]) == 0
            target, first_step = str(tmp_path / "out" / "snapshot_00000010.bin"), 10
        start_phi = []

        def recording(load):
            def wrapped(*args, **kwargs):
                result = load(*args, **kwargs)
                state = result[0] if command == "resume" else result
                start_phi.append(weakref.ref(state.phi))
                return result
            return wrapped

        if command == "run":
            monkeypatch.setattr(RunConfig, "initial_state", recording(RunConfig.initial_state))
        else:
            monkeypatch.setattr(nlchb.cli, "read_snapshot", recording(nlchb.cli.read_snapshot))
        raw, alive_at_step_2 = nlchb.solver.advance, []

        def advance(model, state, *args):
            if state.step == first_step + 1:
                alive_at_step_2.append(start_phi[0]() is not None)
            return raw(model, state, *args)

        monkeypatch.setattr(nlchb.solver, "advance", advance)
        assert main([command, target]) == 0
        assert len(start_phi) == 1 and alive_at_step_2 == [False]

    def test_sweep_start_phi_is_freed_by_the_members_first_steps(self, tmp_path, monkeypatch):
        # neither the command nor the sweep keeps the start state, so once
        # both members have taken their first step nothing holds its fields
        cfg = write_cfg(tmp_path, FAST_RUN)
        start_phi, raw_initial = [], RunConfig.initial_state

        def initial_state(config):
            state = raw_initial(config)
            start_phi.append(weakref.ref(state.phi))
            return state

        monkeypatch.setattr(RunConfig, "initial_state", initial_state)
        raw, alive_at_step_2 = nlchb.limits.advance, []

        def advance(model, state, *args, **kwargs):
            if state.step == 1:
                alive_at_step_2.append(start_phi[0]() is not None)
            return raw(model, state, *args, **kwargs)

        monkeypatch.setattr(nlchb.limits, "advance", advance)
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 0
        assert len(start_phi) == 1 and alive_at_step_2 == [False, False]


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

    def test_sweep_eps_members_equal_under_g_keep_their_own_ledgers(self, tmp_path, capsys):
        # "{:g}" printed 0.4000001 as 0.4, so its member wrote into eps_0.4
        cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3"))
        capsys.readouterr()
        assert main(["sweep-eps", cfg, "--eps", "0.4000001,0.4,0.3"]) == 0
        out = tmp_path / "out"
        names = ["eps_0.4000001", "eps_0.4", "eps_0.3"]
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(names)
        ledgers = {(out / name / "ledger.csv").read_bytes() for name in names}
        assert len(ledgers) == 3
        summary = [line.split()[0] for line in capsys.readouterr().out.splitlines()[:3]]
        assert summary == ["eps=0.4000001", "eps=0.4", "eps=0.3"]

    def test_sweep_eps_diverged_reference_exits_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3"))
        clean = clean_sweep_rows(tmp_path, monkeypatch, cfg, [0.4, 0.2])
        diverge_after(monkeypatch, 2, "local")
        capsys.readouterr()
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "local reference run diverged" in err[0]
        assert not (tmp_path / "out" / "sweep_eps.csv").exists()
        # every member made the 2 steps the reference made before it blew up
        for eps in (0.4, 0.2):
            assert member_rows(tmp_path / "out", eps) == clean[eps][:2]

    def test_sweep_eps_diverged_member_keeps_the_rows_it_made(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3"))
        clean = clean_sweep_rows(tmp_path, monkeypatch, cfg, [0.4, 0.2])
        diverge_after(monkeypatch, 3, "nonlocal", 0.2)
        capsys.readouterr()
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 0
        assert "eps=0.2      DIVERGED (excluded from ratios)" in capsys.readouterr().out
        assert len(clean[0.4]) == 5
        assert member_rows(tmp_path / "out", 0.4) == clean[0.4]
        assert member_rows(tmp_path / "out", 0.2) == clean[0.2][:3]

    def test_sweep_eps_ledgers_written_by_ledger_csv_writer(self, tmp_path, monkeypatch):
        # each member's ledger.csv holds the rows the same sweep keeps in an
        # EnergyLedger: the header, then repr() of every value
        raw = nlchb.cli.solution_sweep
        calls = []

        def sweep(*args, **kwargs):
            calls.append((args, kwargs))
            return raw(*args, **kwargs)

        monkeypatch.setattr(nlchb.cli, "solution_sweep", sweep)
        cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3"))
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 0
        ((args, kwargs),) = calls
        assert [type(sink) for sink in kwargs["ledgers"]] == [LedgerCsvWriter] * 2
        ledgers = [EnergyLedger(), EnergyLedger()]
        raw(*args, **{**kwargs, "ledgers": ledgers})
        for eps, ledger in zip([0.4, 0.2], ledgers):
            assert len(ledger.rows) == 5
            lines = [",".join(LEDGER_COLUMNS)]
            lines += [",".join(repr(row[c]) for c in LEDGER_COLUMNS) for row in ledger.rows]
            written = (tmp_path / "out" / f"eps_{eps!r}" / "ledger.csv").read_bytes()
            assert written == ("\n".join(lines) + "\n").encode()

    def test_sweep_eps_memory_does_not_grow_with_t_end(self, tmp_path, capsys):
        # each member's rows go to its ledger.csv as they are made: 50 or 300
        # steps per run peak within 16 KB (about 23 rows) of each other
        def peak(t_end):
            cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", f"t_end = {t_end}"))
            tracemalloc.start()
            try:
                assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(0.05)  # warm the per-grid and FFT caches outside the measurement
        short, long = peak(0.05), peak(0.3)
        assert abs(long - short) < 16 * 1024

"""Config parsing and the command-line surface, including exit codes."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biphoton_cascade
from biphoton_cascade import cli
from biphoton_cascade.config import ConfigError, parse_config
from biphoton_cascade.interferogram import read_trace_csv
from biphoton_cascade.presets import preset_cascade
from biphoton_cascade.quadrature import Rule

BASE_CONFIG = """\
# minimal single-fringe experiment
cascade.preset = noon
spectrum.sigma_plus = 1.0
spectrum.sigma_minus = 1.0
sweep.swept = 0
sweep.start = -5
sweep.stop = 5
sweep.samples = 801
backend = analytic
"""

TWO_PARAM_CONFIG = """\
cascade.preset = two_param_2002
spectrum.sigma_plus = 1.0
spectrum.sigma_minus = 0.5
spectrum.pump_frequency = 12.0
sweep.swept = 1
sweep.fixed.0 = 5.0
sweep.start = -260
sweep.stop = 260
sweep.samples = 4096
"""


def test_parse_config_happy_path():
    config = parse_config(BASE_CONFIG)
    assert config.cascade == preset_cascade("noon")
    assert config.backend == "analytic"
    assert config.sweep.samples == 801
    assert config.spectrum.pump_frequency == 20.0


def test_parse_config_custom_stages():
    config = parse_config(
        "cascade.stages = -, 0, 1\ncascade.n_delays = 2\nsweep.swept = 1\n"
        "sweep.fixed.0 = 1.0\n"
    )
    assert config.cascade.n_delays == 2
    assert config.cascade.stages[0].delay_label is None
    assert config.cascade.stages[2].delay_label == 1


def test_parse_config_grid_section():
    config = parse_config(
        "cascade.preset = homi\ngrid.nodes = 128\ngrid.rule = gauss-hermite\n"
    )
    assert config.grid.nodes_per_axis == 128
    assert config.grid.rule is Rule.GAUSS_HERMITE


@pytest.mark.parametrize(
    "text",
    [
        "not a key value line\n",
        "cascade.preset = unknown_preset\n",
        "cascade.preset = homi\nbackend = magic\n",
        "cascade.preset = homi\nsweep.swept = x\n",
        "cascade.stages = 0, q\n",
        "spectrum.sigma_plus = 1.0\n",  # no cascade at all
        "cascade.preset = homi\nsweep.swept = 3\n",  # swept out of range
        "cascade.preset = homi\nsweep.swept = 0\nsweep.fixed.3 = 1.0\n",
        "cascade.preset = homi\nsweep.swept = 0\nsweep.fixed.0 = 1.0\n",
        "cascade.preset = two_param_11\nsweep.swept = 1\n",  # fixed.0 missing
        "cascade.preset = noon\nspectrum.pump_frequency = inf\n",
        "cascade.preset = noon\nsweep.swept = 0\nsweep.start = nan\n",
        "cascade.preset = two_param_11\nsweep.swept = 1\nsweep.fixed.0 = -inf\n",
        "cascade.preset = noon\ngrid.nodes = 100000000\n",  # over the memory budget
        "cascade.preset = homi\ngrid.nodes = 400\ngrid.rule = gauss-hermite\n",
        "cascade.preset = noon\nsweep.swept = 0\nprune.threshold = -1\n",
    ],
)
def test_parse_config_rejects_malformed(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_derive_prints_formula(tmp_path, capsys):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG)
    assert cli.main(["derive", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "1 + g+(t1)" in out
    assert "terms: 2" in out


def test_derive_latex_flag(tmp_path, capsys):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG)
    assert cli.main(["derive", "--config", path, "--latex"]) == 0
    assert "g_+(\\tau_{1})" in capsys.readouterr().out


def test_sweep_writes_csv(tmp_path):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["sweep", "--config", path, "--out", out]) == 0
    trace, _ = read_trace_csv(out)
    assert len(trace.taus) == 801
    assert trace.values.max() <= 2.0 + 1e-9


def test_sweep_both_backends_agree(tmp_path, capsys):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG.replace("samples = 801",
                                                           "samples = 41"))
    out = str(tmp_path / "trace.csv")
    assert cli.main(["sweep", "--config", path, "--backend", "both",
                     "--out", out]) == 0
    assert (tmp_path / "trace.quad.csv").exists()
    assert "max |delta|" in capsys.readouterr().err


def test_sweep_detects_backend_disagreement(tmp_path):
    # A deliberately coarse, narrow quadrature grid cannot reproduce the
    # analytic values; the mismatch must surface as exit code 3.
    # around tau = 20 the density oscillation aliases on 32 nodes
    bad = BASE_CONFIG.replace("samples = 801", "samples = 11") \
        .replace("sweep.start = -5", "sweep.start = 19.9") \
        .replace("sweep.stop = 5", "sweep.stop = 20.1") + \
        "grid.nodes = 32\ngrid.extent = 5.0\n"
    path = write(tmp_path, "bad.cfg", bad)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["sweep", "--config", path, "--backend", "both",
                     "--out", out]) == 3


def test_envelope_subcommand(tmp_path):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG)
    out = str(tmp_path / "env.csv")
    assert cli.main(["envelope", "--config", path, "--out", out]) == 0
    trace, env = read_trace_csv(out)
    assert env is not None
    np.testing.assert_allclose(
        env.upper.values, 1.0 + np.exp(-trace.taus**2 / 2.0), atol=1e-9
    )


def test_reconstruct_reports_fits(tmp_path, capsys):
    path = write(tmp_path, "two.cfg", TWO_PARAM_CONFIG)
    out = str(tmp_path / "spectra.csv")
    assert cli.main(["reconstruct", "--config", path, "--out", out]) == 0
    report = capsys.readouterr().out
    assert "fitted sigma_minus" in report and "fitted sigma_plus" in report


def test_reconstruct_requires_carrier(tmp_path, capsys):
    homi_cfg = BASE_CONFIG.replace("cascade.preset = noon",
                                   "cascade.preset = homi")
    path = write(tmp_path, "homi.cfg", homi_cfg)
    assert cli.main(["reconstruct", "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == 4


def test_reconstruct_undersampled_carrier(tmp_path):
    sparse = TWO_PARAM_CONFIG.replace("samples = 4096", "samples = 512")
    path = write(tmp_path, "sparse.cfg", sparse)
    assert cli.main(["reconstruct", "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == 4


def test_reconstruct_short_window_is_config_error(tmp_path):
    short = TWO_PARAM_CONFIG.replace("sweep.start = -260", "sweep.start = -5") \
        .replace("sweep.stop = 260", "sweep.stop = 5")
    path = write(tmp_path, "short.cfg", short)
    result = subprocess.run(
        [sys.executable, "-m", "biphoton_cascade.cli", "reconstruct",
         "--config", path, "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert "sweep window too short" in result.stderr


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "biphoton_cascade.cli", *args],
                          capture_output=True, text=True)


def test_zero_baseline_cascade_is_config_error(tmp_path):
    # One delay-free splitter sends a symmetric pair to the same port.
    path = write(tmp_path, "bunch.cfg", "cascade.stages = -\n")
    result = run_cli("derive", "--config", path)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert "zero asymptotic coincidence baseline" in result.stderr


def test_non_finite_pump_frequency_is_config_error(tmp_path):
    path = write(tmp_path, "inf.cfg",
                 BASE_CONFIG + "spectrum.pump_frequency = inf\n")
    result = run_cli("sweep", "--config", path, "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert result.stderr == \
        "config error: spectrum.pump_frequency: not a finite number: 'inf'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # suggested_grid would ask for 10 185 980 nodes per axis
        ("cascade.preset = noon\nsweep.swept = 0\nsweep.start = 1e6\n"
         "sweep.stop = 1.000001e6\nsweep.samples = 2\n", "GiB budget"),
        ("cascade.preset = homi\nsweep.swept = 0\nsweep.samples = 11\n"
         "grid.nodes = 400\ngrid.rule = gauss-hermite\n", "gauss-hermite weights"),
    ],
)
def test_unusable_quadrature_grid_is_config_error(tmp_path, text, message):
    path = write(tmp_path, "grid.cfg", text)
    result = run_cli("sweep", "--config", path, "--backend", "quadrature",
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert message in result.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ("cascade.preset = noon\nsweep.swept = 0\nprune.threshold = -1\n",
         "config error: prune.threshold: must be >= 0, got -1.0\n"),
        ("cascade.preset = noon\n", "config error: config has no sweep section\n"),
    ],
    ids=["negative_threshold", "no_sweep"],
)
def test_derive_prune_needs_a_usable_sweep_and_threshold(tmp_path, text, message):
    path = write(tmp_path, "prune.cfg", text)
    result = run_cli("derive", "--prune", "--config", path)
    assert result.returncode == 2
    assert result.stderr == message
    assert result.stdout == ""


def test_package_import_loads_no_scipy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, biphoton_cascade; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"


def test_missing_config_file_is_io_error(tmp_path):
    assert cli.main(["derive", "--config", str(tmp_path / "nope.cfg")]) == 5


def test_malformed_config_exit_code(tmp_path):
    path = write(tmp_path, "bad.cfg", "cascade.preset = bogus\n")
    assert cli.main(["derive", "--config", path]) == 2


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_validate_negative_control(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code = cli.main(["validate", "--negative-control", "swap-rule",
                     "--json", report])
    assert code == 1
    assert "FAIL swap-rule" in capsys.readouterr().out
    assert '"passed": false' in open(report).read()


def test_figures_writes_complete_set(tmp_path):
    out = str(tmp_path / "figs")
    assert cli.main(["figures", "--out", out]) == 0
    csvs = sorted(p.name for p in (tmp_path / "figs").glob("*.csv"))
    assert len(csvs) == 18
    svgs = list((tmp_path / "figs").glob("*.svg"))
    assert len(svgs) == 18
    # the dip depends only on the difference-frequency linewidth, which the
    # anticorrelated and uncorrelated classes share
    a = (tmp_path / "figs" / "homi_anticorrelated.csv").read_bytes()
    c = (tmp_path / "figs" / "homi_uncorrelated.csv").read_bytes()
    assert a == c


def test_figures_determinism(tmp_path):
    assert cli.main(["figures", "--out", str(tmp_path / "one")]) == 0
    assert cli.main(["figures", "--out", str(tmp_path / "two")]) == 0
    for path in (tmp_path / "one").glob("*.csv"):
        assert path.read_bytes() == (tmp_path / "two" / path.name).read_bytes()


def test_figures_io_failure():
    assert cli.main(["figures", "--out", "/dev/null/figs"]) == 5


def test_binary_entry_point_runs(tmp_path):
    # exit-code contract is testable by invoking the module as a binary
    result = subprocess.run(
        [sys.executable, "-m", "biphoton_cascade.cli", "derive",
         "--config", str(tmp_path / "missing.cfg")],
        capture_output=True, text=True,
    )
    assert result.returncode == 5


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    assert biphoton_cascade.__version__ == version

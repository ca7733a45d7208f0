import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holonomy.cli import main, table_from_csv, table_to_csv
from holonomy.config import RunConfig, config_from_sources
from holonomy.fields import make_field
from holonomy.orders import LatticeSpec
from holonomy.spectrum import length_spectrum


def run_cli(args):
    return main(args)


class TestConfig:
    def test_digest_stable_and_sensitive(self):
        a = RunConfig().digest()
        b = RunConfig().digest()
        c = RunConfig(precision_bits=256).digest()
        assert a == b and a != c

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            RunConfig(precision_bits=32)

    def test_file_plus_overrides(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("precision_bits = 128\nseed = 7\n# comment\n\nstrict = true\n")
        cfg = config_from_sources(str(p), output_format="json")
        assert cfg.seed == 7 and cfg.strict and cfg.output_format == "json"
        for text, strict in [("1", True), ("YES", True), ("True", True),
                             ("0", False), ("no", False), ("FALSE", False)]:
            p.write_text(f"strict = {text}\n")
            assert config_from_sources(str(p)) == RunConfig(strict=strict)


class TestCliFlows:
    def test_field_info(self, capsys):
        assert run_cli(["field", "info", "--m", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eps"] == "1+w" and out["h_K"] == 1 and "config_digest" in out

    def test_enumerate_and_stats_roundtrip(self, tmp_path, capsys):
        csv_path = str(tmp_path / "x3.csv")
        assert run_cli(["enumerate", "--m", "2", "--x", "3", "--out", csv_path]) == 0
        text = Path(csv_path).read_text()
        assert text.startswith("# m=2 x=3")
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 1 + 4  # header + four trace rows
        assert run_cli(["--format", "json", "stats", "pgt", "--in", csv_path,
                        "--grid", "3"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["rows"][0]["count"] == 8.0

    def test_determinism_byte_identical(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        run_cli(["enumerate", "--m", "2", "--x", "3", "--out", p1])
        run_cli(["enumerate", "--m", "2", "--x", "3", "--out", p2])
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_cache_does_not_change_output(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        cache = str(tmp_path / "cache.jsonl")
        run_cli(["--cache", cache, "enumerate", "--m", "2", "--x", "3", "--out", p1])
        assert os.path.exists(cache)
        run_cli(["--cache", cache, "enumerate", "--m", "2", "--x", "3", "--out", p2])
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_check_narrow(self, capsys):
        assert run_cli(["check", "narrow", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "h_K == h_K+ : false"
        assert run_cli(["check", "narrow", "--m", "2"]) == 0
        assert "true" in capsys.readouterr().out.splitlines()[0]

    def test_equi_rect_mu_column(self, tmp_path, capsys):
        csv_path = str(tmp_path / "x3.csv")
        run_cli(["enumerate", "--m", "2", "--x", "3", "--out", csv_path])
        assert run_cli(["--format", "json", "stats", "equi", "--in", csv_path,
                        "--rect", " -1.5707963267948966:1.5707963267948966",
                        "--N", "8"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["rows"][0]["mu_A"] - 0.181690113816) < 1e-9

    def test_equi_fm(self, tmp_path, capsys):
        csv_path = str(tmp_path / "x3.csv")
        run_cli(["enumerate", "--m", "2", "--x", "3", "--out", csv_path])
        assert run_cli(["--format", "json", "stats", "equi", "--in", csv_path,
                        "--fm", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["rows"][0]["mu_f"] == 0.0

    def test_stats_units(self, capsys, tmp_path):
        cache = str(tmp_path / "c.jsonl")
        assert run_cli(["--cache", cache, "--format", "json", "stats", "units",
                        "--m", "2", "--T", str(math.exp(1.5))]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kind"] == "units"

    def test_trace_geometric(self, tmp_path, capsys):
        csv_path = str(tmp_path / "x4.csv")
        run_cli(["enumerate", "--m", "2", "--x", "4", "--out", csv_path])
        assert run_cli(["trace", "geometric", "--in", csv_path, "--weight", "1",
                        "--vol", "1.0", "--testfn", "bump:3.5"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert "identity_term" in rep and "total" in rep

    def test_oracle_class_number(self, capsys):
        assert run_cli(["oracle", "class-number", "--m", "2", "--D", " -1+2*w"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["h_O"] == 1 and rep["certified"] is True

    def test_exit_codes(self, tmp_path, capsys):
        # usage error
        assert run_cli([]) == 1
        # precondition: non-squarefree field
        assert run_cli(["enumerate", "--m", "4", "--x", "2"]) == 2
        # h_K > 1 out of scope
        assert run_cli(["enumerate", "--m", "10", "--x", "2"]) == 2
        # inconclusive + strict -> 3 (tiny principality budget)
        cfg = tmp_path / "cfg"
        cfg.write_text("principality_budget = 1\n")
        code = run_cli(["--config", str(cfg), "--strict", "oracle", "class-number",
                        "--m", "2", "--D", " -1+2*w"])
        assert code == 3
        capsys.readouterr()
        # malformed input ends in exit 2 with a precondition message, not a traceback
        table = os.path.join(os.path.dirname(__file__), "..", "data", "spectrum_m2_x10.csv")
        cases = [
            (["oracle", "class-number", "--m", "2", "--D", "1+w", "--d", "5"], "2x2 integer HNF"),
            (["oracle", "class-number", "--m", "2", "--D", "1+w", "--d", "[[1,0],[1,1]]"],
             "2x2 integer HNF"),
            (["trace", "geometric", "--in", table, "--weight", "0", "--vol", "1.0",
              "--testfn", "bump"], "takes 1 parameter"),
            (["trace", "geometric", "--in", table, "--weight", "0", "--vol", "1.0",
              "--testfn", "indicator_conv:3"], "takes 2 parameter"),
            (["stats", "pgt", "--in", str(tmp_path / "missing.csv"), "--grid", "4"],
             "missing.csv"),
            (["--config", str(tmp_path / "missing.cfg"), "field", "info", "--m", "2"],
             "missing.cfg"),
            (["stats", "units", "--m", "2", "--T", "0"], "--T must be positive"),
        ]
        # an element with a coordinate that is not an integer
        for bad in ("1/2", "2.5", "x", "1+w/2", ""):
            cases.append((["oracle", "class-number", "--m", "2", "--D", bad],
                          f"--D: {bad!r} is not an element a+b*w with integers a and b"))
        geometric = ["trace", "geometric", "--in", table, "--weight", "2", "--vol", "1.0", "--testfn"]
        cases += [
            (geometric + ["bump:-3"], "bump support s must be positive"),
            (geometric + ["bump:0"], "bump support s must be positive"),
            (geometric + ["bump:inf"], "must be finite"),
            (geometric + ["bump:nan"], "must be finite"),
            (geometric + ["indicator_conv:1,0"], "smoothing eps must be positive"),
            (geometric + ["indicator_conv:1,-0.5"], "smoothing eps must be positive"),
            (geometric + ["indicator_conv:-1,0.5"], "half-width x must be >= 0"),
        ]
        # numeric inputs that are not finite, or whose strip radius overflows a float
        vol = ["trace", "geometric", "--in", table, "--weight", "2", "--testfn", "bump:3", "--vol"]
        cases += [
            (["enumerate", "--m", "2", "--x", "inf"], "cutoff x must be positive"),
            (["enumerate", "--m", "2", "--x", "1e6"], "cutoff x must be positive"),
            (["enumerate", "--m", "2", "--x", "nan"], "cutoff x must be positive"),
            # finite, but a strip walk far beyond any table the program can finish
            (["enumerate", "--m", "2", "--x", "1000"], "2 cosh(x/2) <= 1e+06"),
            (["stats", "units", "--m", "2", "--T", "1e300"], "2 cosh(x/2) <= 1e+06"),
            (["stats", "units", "--m", "2", "--T", "inf"], "--T must be positive and finite"),
            (["stats", "units", "--m", "2", "--T", "3", "--fm", "0"], "char index"),
            (["stats", "equi", "--in", table, "--fm", "0"], "char index"),
            (["stats", "pgt", "--in", table, "--grid", "nan"], "grid point nan is not finite"),
            (["stats", "equi", "--in", table, "--fm", "1", "--grid", "nan"],
             "grid point nan is not finite"),
            (["stats", "equi", "--in", table, "--fm", "1", "--grid", "20"],
             "grid point 20.0 exceeds table coverage"),
            (["stats", "equi", "--in", table, "--rect=-1:1", "--grid", "inf"],
             "grid point inf is not finite"),
            (["stats", "pgt", "--in", table, "--grid", "20"], "grid point 20.0 exceeds table coverage"),
            (vol + ["nan"], "vol must be positive and finite"),
            (vol + ["inf"], "vol must be positive and finite"),
            (vol + ["0"], "vol must be positive and finite"),
        ]
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        short_row = tmp_path / "short_row.csv"
        head = Path(table).read_text().splitlines()[:2]
        short_row.write_text("\n".join(head + ["1,0,3"]) + "\n")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        cases += [
            (["stats", "pgt", "--in", readme, "--grid", "4"], "header lacks t_a"),
            (["stats", "pgt", "--in", str(short_row), "--grid", "4"], "data row 1 has 3 fields"),
            (["stats", "pgt", "--in", str(empty), "--grid", "4"], "no header line"),
        ]
        # a bad config file names the file, the line and the key
        bad_configs = [
            ("foo=1\n", "line 1: key 'foo': unknown key"),
            ("seed = 3\nnoequals\n", "line 2: expected key=value"),
            ("seed = three\n", "line 1: key 'seed': invalid literal"),
            ("ideal_bound_scale = big\n", "line 1: key 'ideal_bound_scale': could not convert"),
            ("ideal_bound_scale = inf\n", "line 1: key 'ideal_bound_scale': expected a finite number"),
            ("seed = 1\nunit_search_height = nan\n", "line 2: key 'unit_search_height': expected a finite number"),
            ("strict = maybe\n", "line 1: key 'strict': expected one of 1/true/yes/0/false/no"),
            ("# formats\noutput_format = xml\n", "line 2: key 'output_format': expected one of csv/json/text"),
        ]
        for i, (text, why) in enumerate(bad_configs):
            bad = tmp_path / f"bad{i}.cfg"
            bad.write_text(text)
            cases.append((["--config", str(bad), "field", "info", "--m", "2"], f"{bad} {why}"))
        for argv, why in cases:
            assert run_cli(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("precondition error:") and why in err, (argv, err)

    def test_empty_table_csv_header_only(self, tmp_path):
        p = str(tmp_path / "empty.csv")
        assert run_cli(["enumerate", "--m", "2", "--x", "0.5", "--out", p]) == 0
        lines = Path(p).read_text().splitlines()
        assert len(lines) == 2  # comment + header, no data rows
        assert lines[1].startswith("t_a,t_b,")

    def test_csv_structural_roundtrip(self):
        K = make_field(2)
        tab = length_spectrum(K, 3.0, LatticeSpec.hilbert(K), with_elliptic=False)
        text = table_to_csv(tab)
        back = table_from_csv(text)
        assert back.field_m == 2 and len(back.rows) == len(tab.rows)
        for a, b in zip(tab.rows, back.rows):
            assert abs(a.length - b.length) < 1e-9
            assert a.q == b.q
            assert a.multiplicity.lo == b.multiplicity.lo


class TestImport:
    """Importing the package keeps numpy's OpenBLAS single-threaded, so no
    idle worker spins beside the caller; an explicit setting is kept."""

    @staticmethod
    def _probe(blas_threads):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        code = ("import os, holonomy.cli; "
                "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        return out[0], int(out[1])

    def test_single_threaded_blas_by_default(self):
        setting, tasks = self._probe(None)
        assert setting == "1"
        assert tasks in (0, 1)  # 0: no /proc to count threads in

    def test_explicit_setting_wins(self):
        assert self._probe("2")[0] == "2"

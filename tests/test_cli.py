import csv
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from kappalab import cli
from kappalab.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE_REFERENCE = ROOT / "perfbench" / "table_reference.csv"
UNRECOGNIZED = "unrecognized arguments"  # argparse: the subcommand has no such option


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_dimacs_ag4(self, capsys):
        code, out = run_cli(capsys, "gen", "--family", "ag", "--n", "4", "--format", "dimacs")
        assert code == 0
        assert out.splitlines()[0] == "p edge 12 24"

    def test_dimacs_s4(self, capsys):
        code, out = run_cli(capsys, "gen", "--family", "s2", "--n", "4", "--format", "dimacs")
        assert code == 0
        assert out.splitlines()[0] == "p edge 24 60"

    def test_json_schema_field(self, capsys):
        code, out = run_cli(capsys, "gen", "--family", "ag", "--n", "4")
        data = json.loads(out)
        assert data["schema"] == 1
        assert len(data["vertices"]) == 12

    def test_out_of_range_usage_error(self, capsys):
        code, _ = run_cli(capsys, "gen", "--family", "ag", "--n", "2")
        assert code == 2

    def test_write_to_file(self, capsys, tmp_path):
        path = tmp_path / "g.dimacs"
        code, _ = run_cli(
            capsys, "gen", "--family", "ag", "--n", "4", "--format", "dimacs",
            "--output", str(path),
        )
        assert code == 0
        assert path.read_text().startswith("p edge 12 24")

    def test_io_failure(self, capsys):
        code, _ = run_cli(
            capsys, "gen", "--family", "ag", "--n", "4",
            "--output", "/nonexistent-dir/g.json",
        )
        assert code == 1


class TestKappa:
    def test_ag4_ell4_exhaustive(self, capsys):
        code, out = run_cli(
            capsys, "kappa", "--family", "ag", "--n", "4", "--ell", "4", "--exhaustive"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 8
        assert data["tier"] == "Exhaustive"
        assert data["witness"]["count"] >= 4

    def test_ag5_witness(self, capsys):
        code, out = run_cli(
            capsys, "kappa", "--family", "ag", "--n", "5", "--ell", "3",
            "--witness", "--B", "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 10
        assert data["tier"] == "WitnessUpperBound"

    def test_witness_reports_its_budget(self, capsys, monkeypatch):
        monkeypatch.delenv("KAPPALAB_BUDGET", raising=False)
        args = ("kappa", "--family", "ag", "--n", "5", "--ell", "3", "--witness")
        _, out = run_cli(capsys, *args)
        assert json.loads(out)["budget"] == 10**8
        _, out = run_cli(capsys, *args, "--budget", "5000")
        data = json.loads(out)
        assert (data["budget"], data["value"]) == (5000, 10)

    # B = 4 on AG_5 grows past 10^4 families (seconds without a budget); at
    # B = 60 listing the first parts alone would never end, so parts are lazy
    @pytest.mark.parametrize("B", ["4", "60"])
    def test_over_budget_witness_search_is_inconclusive(self, capsys, B):
        code = main([
            "kappa", "--family", "ag", "--n", "5", "--ell", "3", "--witness",
            "--B", B, "--budget", "1000",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "kappalab: witness search visited more than 1000 families\n"

    def test_inconclusive_budget_exit_code(self, capsys):
        code, out = run_cli(
            capsys, "kappa", "--family", "ag", "--n", "4", "--ell", "3",
            "--budget", "50",
        )
        assert code == 3
        data = json.loads(out)
        assert data["value"] is None
        assert data["inconclusive_above"] is not None

    def test_negative_k_max_is_usage_error(self, capsys):
        code = main(["kappa", "--family", "ag", "--n", "4", "--ell", "3", "--k-max", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("kappalab: ")
        assert "Traceback" not in captured.err

    def test_k_max_with_witness_is_usage_error(self, capsys):
        code = main(["kappa", "--family", "ag", "--n", "4", "--ell", "3", "--witness",
                     "--k-max", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "kappalab: --k-max applies to the exhaustive tier only, not to --witness\n"
        )

    def test_rerun_is_byte_identical(self, capsys):
        args = ("kappa", "--family", "ag", "--n", "4", "--ell", "3", "--jobs", "2")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_jobs_only_differ_in_metadata(self, capsys):
        _, out1 = run_cli(capsys, "kappa", "--family", "ag", "--n", "4", "--ell", "3",
                          "--jobs", "1")
        _, out4 = run_cli(capsys, "kappa", "--family", "ag", "--n", "4", "--ell", "3",
                          "--jobs", "4")
        d1, d4 = json.loads(out1), json.loads(out4)
        assert d1.pop("jobs") == 1
        assert d4.pop("jobs") == 4
        assert d1 == d4


class TestVerify:
    def test_basic_consistent(self, capsys):
        code, out = run_cli(capsys, "verify", "--lemma", "basic", "--family", "ag", "--n", "5")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "consistent"
        assert data["violations"] == []

    def test_claims_violations_found(self, capsys):
        # the stated cross-neighbor cap fails for 12 pairs at n = 5
        code, out = run_cli(capsys, "verify", "--lemma", "claims", "--family", "ag", "--n", "5")
        assert code == 4
        data = json.loads(out)
        assert data["verdict"] == "violated"
        assert len(data["violations"]) == 12

    def test_cut_structure_lists_exceptions(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--lemma", "cut-structure", "--family", "ag",
            "--n", "4", "--bound", "5",
        )
        assert code == 0
        data = json.loads(out)
        counts = dict((sig, c) for sig, c in data["outcome_counts"])
        assert counts["4-cycle,4-cycle"] == 3
        assert counts["4-cycle,2-path"] == 24
        assert len(data["exceptional_faults"]) == 27

    def test_over_budget_census_is_inconclusive(self, capsys):
        code = main([
            "verify", "--lemma", "cut-structure", "--family", "s2", "--n", "4",
            "--bound", "8", "--budget", "100",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "kappalab: exhaustive census of 1271626 subsets exceeds budget 100\n"
        )

    def test_remark_minima(self, capsys):
        code, out = run_cli(capsys, "verify", "--lemma", "remark", "--family", "ag", "--n", "6")
        assert code == 0
        data = json.loads(out)
        assert data["notes"] == ["three-set minimum 20, four-set minimum 24"]

    def test_neighbor_bounds_requires_set_size(self, capsys):
        code, _ = run_cli(capsys, "verify", "--lemma", "neighbor-bounds",
                          "--family", "ag", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize("argv, verifier, n_range", [
        (("basic", "--family", "ag", "--n", "8"), "verify_basic_ag", "4 <= n <= 6, got 8"),
        (("claims", "--family", "ag", "--n", "3"), "verify_claims_123", "4 <= n <= 6, got 3"),
        (("neighbor-bounds", "--family", "ag", "--n", "7", "--set-size", "3"),
         "verify_neighbor_bounds", "4 <= n <= 6, got 7"),
        (("splitstar-bounds", "--family", "s2", "--n", "7", "--set-size", "2"),
         "verify_neighbor_bounds", "4 <= n <= 5, got 7"),
        (("remark", "--family", "ag", "--n", "3"), "verify_remark_constructions",
         "4 <= n <= 8, got 3"),
    ], ids=["basic", "claims", "neighbor-bounds", "splitstar-bounds", "remark"])
    def test_n_outside_the_verifier_range_is_refused_before_the_build(
            self, capsys, monkeypatch, argv, verifier, n_range):
        def no_build(family, n):
            raise AssertionError("built a graph the verifier refuses")

        monkeypatch.setattr(cli, "build_family", no_build)
        code = main(["verify", "--lemma", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"kappalab: {verifier} supports {n_range}\n"

    def test_unknown_lemma_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--lemma", "nonsense", "--family", "ag", "--n", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("cut-structure", "--family", "ag", "--n", "4", "--rule", "ag-4n-11",
         "--bound", "25", "--mode", "sampled"),
        ("cut-structure", "--family", "ag", "--n", "4", "--bound", "-1", "--mode", "sampled"),
        ("cut-structure", "--family", "ag", "--n", "4", "--bound", "5", "--mode", "sampled",
         "--trials", "-5"),
        ("cut-structure", "--family", "ag", "--n", "4", "--bound", "-1"),
        ("neighbor-bounds", "--family", "ag", "--n", "6", "--set-size", "3",
         "--trials", "-3"),
        ("splitstar-bounds", "--family", "s2", "--n", "5", "--set-size", "2",
         "--trials", "-3"),
    ], ids=["bound-above-V", "sampled-negative-bound", "negative-trials",
            "exhaustive-negative-bound", "neighbor-bounds-negative-trials",
            "splitstar-bounds-negative-trials"])
    def test_out_of_range_size_or_trials_is_usage_error(self, capsys, argv):
        code = main(["verify", "--lemma", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("kappalab: ")
        assert "Traceback" not in captured.err
        assert "randrange" not in captured.err

    @pytest.mark.parametrize("argv", [
        ("basic", "--family", "s2", "--n", "5"),
        ("neighbor-bounds", "--family", "s2", "--n", "5", "--set-size", "3"),
        ("claims", "--family", "s2", "--n", "5"),
        ("remark", "--family", "s2", "--n", "5"),
        ("splitstar-bounds", "--family", "ag", "--n", "5", "--set-size", "2"),
    ], ids=["basic-s2", "neighbor-bounds-s2", "claims-s2", "remark-s2",
            "splitstar-bounds-ag"])
    def test_lemma_of_the_other_family_is_usage_error(self, capsys, argv):
        code = main(["verify", "--lemma", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("kappalab: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ("--family", "ag", "--n", "4", "--bound", "6", "--rule", "ag-4n-11"),
        ("--family", "ag", "--n", "4", "--bound", "4", "--rule", "ag-6n-20"),
        ("--family", "ag", "--n", "4", "--bound", "5", "--rule", "s2-4n-8"),
        ("--family", "s2", "--n", "4", "--bound", "3", "--rule", "ag-4n-11"),
    ], ids=["bound-past-rule", "n-below-min-n", "ag-graph-s2-rule", "s2-graph-ag-rule"])
    def test_rule_outside_its_scope_is_usage_error(self, capsys, argv):
        code = main(["verify", "--lemma", "cut-structure", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("kappalab: rule ")
        assert captured.err.count("\n") == 1

    def test_sampled_cut_structure_deterministic(self, capsys):
        args = (
            "verify", "--lemma", "cut-structure", "--family", "ag", "--n", "5",
            "--bound", "10", "--mode", "sampled", "--trials", "2000", "--seed", "11",
        )
        _, out1 = run_cli(capsys, *args, "--jobs", "1")
        _, out2 = run_cli(capsys, *args, "--jobs", "2")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("jobs")
        d2.pop("jobs")
        assert d1 == d2

    def test_dead_worker_is_an_io_error(self, capsys, monkeypatch):
        # a worker killed mid-census (say by the OOM killer) ends the run with
        # exit 1 instead of hanging it
        from kappalab import kappa
        caller, census = os.getpid(), kappa._census

        def census_or_exit(task):
            if os.getpid() != caller:
                os._exit(9)
            return census(task)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(kappa, "_census", census_or_exit)
        code = main(["verify", "--lemma", "cut-structure", "--family", "ag", "--n", "5",
                     "--bound", "10", "--mode", "sampled", "--trials", "2000", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "kappalab: worker 1 exited before task 1\n"


class TestTable:
    def read_rows(self, out):
        return list(csv.DictReader(out.splitlines()))

    def test_ag_table_small_budget_uses_witness_tier(self, capsys):
        code, out = run_cli(capsys, "table", "--families", "ag", "--n-max", "7",
                            "--budget", "5000")
        assert code == 0
        rows = self.read_rows(out)
        by_key = {(r["family"], r["ell"], r["n"]): r for r in rows}
        r = by_key[("ag", "5", "5")]
        assert r["formula_value"] == r["value"] == "16"
        assert r["match"] == "True"
        r = by_key[("ag", "3", "7")]
        assert r["value"] == "18"
        assert r["tier"] == "WitnessUpperBound"
        # kappa_5 rows start at n = 5
        assert ("ag", "5", "4") not in by_key

    def test_s2_table_witness_rows(self, capsys):
        code, out = run_cli(capsys, "table", "--families", "s2", "--n-max", "5",
                            "--budget", "1000")
        assert code == 0
        rows = self.read_rows(out)
        by_key = {(r["family"], r["ell"], r["n"]): r for r in rows}
        assert by_key[("s2", "4", "4")]["value"] == "10"
        assert by_key[("s2", "4", "4")]["match"] == "True"
        assert by_key[("s2", "5", "4")]["value"] == "12"

    def test_h_extra_column_is_static_reference(self, capsys):
        code, out = run_cli(capsys, "table", "--families", "ag", "--n-max", "5",
                            "--budget", "1000")
        rows = self.read_rows(out)
        for r in rows:
            assert r["h_extra_note"] == "not computed (static reference)"
        by_key = {(r["family"], r["ell"], r["n"]): r for r in rows}
        assert by_key[("ag", "3", "5")]["h_extra_value"] == "9"   # 4n-11
        assert by_key[("ag", "3", "4")]["h_extra_value"] == ""    # outside validity

    def test_exhaustive_tier_when_budget_allows(self, capsys):
        code, out = run_cli(capsys, "table", "--families", "ag", "--n-max", "4",
                            "--budget", "100000")
        rows = self.read_rows(out)
        assert all(r["tier"] in ("Exhaustive", "RuleFewerThanEll") for r in rows)
        assert all(r["match"] == "True" for r in rows)

    def test_bad_family_usage_error(self, capsys):
        code, _ = run_cli(capsys, "table", "--families", "zz")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--ells", "3,3"), ("--ells", "4,3,4"),
                                             ("--families", "ag,s2,ag")])
    def test_repeated_entry_usage_error(self, capsys, flag, value):
        code = main(["table", "--n-max", "4", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"kappalab: {flag} repeats an entry\n"

    def test_empty_ells_entry_is_skipped(self, capsys):
        # as an empty --families entry is
        code, out = run_cli(capsys, "table", "--families", "ag", "--ells", "3,,4",
                            "--n-max", "5", "--budget", "1000")
        assert code == 0
        assert out == run_cli(capsys, "table", "--families", "ag", "--ells", "3,4",
                              "--n-max", "5", "--budget", "1000")[1]

    @pytest.mark.parametrize("ells", ["3,x", "3,4.0", "6"])
    def test_bad_ells_entry_usage_error(self, capsys, ells):
        code = main(["table", "--n-max", "4", "--ells", ells])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "kappalab: ells must be drawn from {3, 4, 5}\n"

    @pytest.mark.parametrize("argv", [
        ("--n-max", "3"),
        ("--families", ","),
        ("--families", "ag", "--ells", "5", "--n-max", "4"),
    ], ids=["below-every-family", "no-family", "ag-ell5-below-n5"])
    def test_empty_selection_usage_error(self, capsys, argv):
        code = main(["table", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("kappalab: no table rows for ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_graph_alive_at_a_time(self, capsys, monkeypatch, jobs):
        built, previous = [], [lambda: None]
        build_family = cli.build_family

        def recorded(family, n):
            assert previous[-1]() is None, f"{built[-1]} still alive at the build of {family} n={n}"
            built.append((family, n))
            G = build_family(family, n)
            previous.append(weakref.ref(G))
            return G

        monkeypatch.setattr(cli, "build_family", recorded)
        code, out = run_cli(capsys, "table", "--n-max", "8", "--budget", "5000", "--jobs", jobs)
        assert code == 0
        assert out == TABLE_REFERENCE.read_text()
        assert built == [("ag", n) for n in range(4, 9)] + [("s2", n) for n in range(4, 8)]

    def test_full_table_matches_reference(self, tmp_path):
        path = tmp_path / "table.csv"
        code = main(["table", "--n-max", "8", "--budget", "5000", "--output", str(path)])
        assert code == 0
        assert path.read_bytes() == TABLE_REFERENCE.read_bytes()


def checkout_env():
    """The environment for a child Python that imports this checkout's kappalab."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kappalab.cli", "gen", "--family", "ag", "--n", "3",
             "--format", "dimacs"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "p edge 3 3"

    def test_jobs1_scans_load_neither_numpy_nor_multiprocessing(self):
        # each would add import time and memory to runs that never use it;
        # forked scans need pickle but never multiprocessing
        code = (
            "import os, sys, kappalab\n"
            "G = kappalab.build_ag(4)\n"
            "kappalab.kappa_ell_exhaustive(G, 3, jobs=1)\n"
            "kappalab.hyper_connectivity_scan(G, 4, jobs=1)\n"
            "kappalab.verify_cut_structure(G, 5, 'ag-4n-11', jobs=1)\n"
            "kappalab.verify_cut_structure(G, 5, 'ag-4n-11', mode='sampled', trials=500,"
            " jobs=1)\n"
            "print(sorted({'numpy', 'multiprocessing', 'pickle'} & set(sys.modules)))\n"
            "os.cpu_count = lambda: 2\n"
            "kappalab.verify_cut_structure(G, 5, 'ag-4n-11', mode='sampled', trials=500,"
            " jobs=2)\n"
            "print(sorted({'multiprocessing'} & set(sys.modules)), 'pickle' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=checkout_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[] True"]


class TestConfigResolution:
    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("KAPPALAB_BUDGET", "123456")
        code, out = run_cli(capsys, "kappa", "--family", "ag", "--n", "4", "--ell", "3")
        assert code == 0
        assert json.loads(out)["budget"] == 123456

    def test_budget_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("KAPPALAB_BUDGET", "123456")
        code, out = run_cli(capsys, "kappa", "--family", "ag", "--n", "4",
                            "--ell", "3", "--budget", "99999")
        assert json.loads(out)["budget"] == 99999

    def test_non_integer_env_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("KAPPALAB_BUDGET", "abc")
        code = main(["kappa", "--family", "ag", "--n", "4", "--ell", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("kappalab: KAPPALAB_BUDGET")

    @pytest.mark.parametrize("argv", [
        ("kappa", "--family", "ag", "--n", "4", "--ell", "3"),
        ("verify", "--lemma", "cut-structure", "--family", "ag", "--n", "4", "--bound", "5"),
        ("table", "--n-max", "4"),
    ], ids=["kappa", "verify", "table"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_budget_is_usage_error(self, capsys, monkeypatch, argv, source):
        if source == "flag":
            argv += ("--budget", "-1")
        else:
            monkeypatch.setenv("KAPPALAB_BUDGET", "-1")
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "kappalab: budget must be >= 0, got -1\n"

    def test_jobs_zero_auto_detect_recorded(self, capsys):
        import os

        code, out = run_cli(capsys, "kappa", "--family", "ag", "--n", "4",
                            "--ell", "3", "--jobs", "0")
        assert code == 0
        assert json.loads(out)["jobs"] == (os.cpu_count() or 1)

    @pytest.mark.parametrize("argv", [
        ("kappa", "--family", "ag", "--n", "4", "--ell", "3", "--witness", "--jobs", "-4"),
        ("verify", "--lemma", "basic", "--family", "ag", "--n", "4", "--jobs", "-7"),
        ("kappa", "--family", "ag", "--n", "4", "--ell", "3", "--jobs", "-1"),
        ("table", "--n-max", "4", "--jobs", "-1"),
    ], ids=["kappa-witness", "verify", "kappa-exhaustive", "table"])
    def test_negative_jobs_is_usage_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"kappalab: jobs must be >= 0 (0 = auto), got {argv[-1]}\n"

    @pytest.mark.parametrize("argv,message", [
        (("gen", "--family", "ag", "--n", "4", "--jobs", "3"), UNRECOGNIZED),
        (("gen", "--family", "ag", "--n", "4", "--budget", "7"), UNRECOGNIZED),
        (("gen", "--family", "ag", "--n", "4", "--seed", "5"), UNRECOGNIZED),
        (("kappa", "--family", "ag", "--n", "4", "--ell", "3", "--seed", "5"), UNRECOGNIZED),
        (("table", "--n-max", "4", "--seed", "5"), UNRECOGNIZED),
        (("kappa", "--family", "ag", "--n", "4", "--ell", "3", "--B", "2"),
         "kappalab: --B applies to --witness only, not to the exhaustive tier\n"),
        (("verify", "--lemma", "neighbor-bounds", "--family", "ag", "--n", "4",
          "--set-size", "3", "--mode", "sampled"),
         "kappalab: neighbor-bounds does not read --mode\n"),
        (("verify", "--lemma", "basic", "--family", "ag", "--n", "4", "--bound", "7",
          "--rule", "ag-6n-20", "--set-size", "3"),
         "kappalab: basic does not read --set-size\n"),
        (("verify", "--lemma", "basic", "--family", "ag", "--n", "4", "--rule", "ag-6n-20"),
         "kappalab: basic does not read --rule\n"),
        (("verify", "--lemma", "claims", "--family", "ag", "--n", "4", "--trials", "5"),
         "kappalab: claims does not read --trials\n"),
        (("verify", "--lemma", "remark", "--family", "ag", "--n", "4", "--seed", "1"),
         "kappalab: remark does not read --seed\n"),
        (("verify", "--lemma", "splitstar-bounds", "--family", "s2", "--n", "4",
          "--set-size", "2", "--bound", "8"),
         "kappalab: splitstar-bounds does not read --bound\n"),
        (("verify", "--lemma", "cut-structure", "--family", "ag", "--n", "4",
          "--bound", "5", "--set-size", "3"),
         "kappalab: cut-structure does not read --set-size\n"),
        (("verify", "--lemma", "cut-structure", "--family", "ag", "--n", "4",
          "--bound", "5", "--trials", "7", "--seed", "9"),
         "kappalab: cut-structure does not read --trials on an exhaustive run\n"),
        (("verify", "--lemma", "neighbor-bounds", "--family", "ag", "--n", "4",
          "--set-size", "3", "--trials", "7", "--seed", "9"),
         "kappalab: neighbor-bounds does not read --trials on an exhaustive run\n"),
        (("verify", "--lemma", "splitstar-bounds", "--family", "s2", "--n", "4",
          "--set-size", "2", "--seed", "9"),
         "kappalab: splitstar-bounds does not read --seed on an exhaustive run\n"),
        (("verify", "--lemma", "cut-structure", "--family", "ag", "--n", "4",
          "--bound", "5", "--mode", "exhaustive", "--seed", "9"),
         "kappalab: cut-structure does not read --seed on an exhaustive run\n"),
    ], ids=["gen-jobs", "gen-budget", "gen-seed", "kappa-seed", "table-seed", "kappa-B",
            "neighbor-bounds-mode", "basic-set-size", "basic-rule", "claims-trials",
            "remark-seed", "splitstar-bounds-bound", "cut-structure-set-size",
            "exhaustive-cut-structure-trials", "exhaustive-neighbor-bounds-trials",
            "exhaustive-splitstar-bounds-seed", "explicit-exhaustive-seed"])
    def test_unread_option_is_usage_error(self, capsys, argv, message):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the option itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        if message == UNRECOGNIZED:
            assert message in captured.err
        else:
            assert captured.err == message
        assert "Traceback" not in captured.err

    def test_gen_ignores_env_budget(self, capsys, monkeypatch):
        _, want = run_cli(capsys, "gen", "--family", "ag", "--n", "4")
        monkeypatch.setenv("KAPPALAB_BUDGET", "abc")
        code, out = run_cli(capsys, "gen", "--family", "ag", "--n", "4")
        assert code == 0
        assert out == want


# sha256 of the stdout and the exit code of fixed verify commands, recorded
# before the verifiers took their graph first: every valid command keeps them
VERIFY_GOLDEN = [
    ("basic --family ag --n 4", 0,
     "789fe51ec923e127eb3400ff259cd16882b3f7727a570e2fff5de32bbedcf394"),
    ("basic --family ag --n 5", 0,
     "41627b4bb7e9520b1e9479d35146f37a67e98b3949fcd3216425fd4d2f2a7106"),
    ("claims --family ag --n 4", 0,
     "654960db69b2951754a70b3acb80ce13e85b59705f283ec7ad3a73fab9404099"),
    ("claims --family ag --n 5", 4,
     "5fd030e3bae1df540f98d4370cce380d6950085f334fa93301ebb08322e217c4"),
    ("remark --family ag --n 4", 0,
     "8a125b1105d86e088c8d413d01ce8d4421315e43ff33e52845ffd0265f7b3817"),
    ("remark --family ag --n 5", 0,
     "e39366a35f2f3d2a691366d48ed2208f78c5ace2e96eeb507000d3b35a84cd63"),
    ("neighbor-bounds --family ag --n 4 --set-size 3", 0,
     "bcd05df4d2c6e14e74e5c902887f7a057698960d70110ee618b96da7c2e9ed06"),
    ("neighbor-bounds --family ag --n 4 --set-size 4", 0,
     "1c22e87fa3274d5b40998e4331f4c4a7afee865a176f8ccc7e2fcb8c89713a2c"),
    ("neighbor-bounds --family ag --n 6 --set-size 3 --trials 2000 --seed 5", 0,
     "16041ee7eb68405cb81b8021ca9c4fb49049250dcedac4dbc6180835fad7ea41"),
    ("splitstar-bounds --family s2 --n 4 --set-size 2", 0,
     "add7ee6262f9a8e9a5da19c9490294bc76be7c228973ac6001ecb9bbc07702c7"),
    ("splitstar-bounds --family s2 --n 4 --set-size 3", 0,
     "0847640750b0a5fe63cc1cbf17a39db3ac807c7a071f251482e1685937347119"),
    ("splitstar-bounds --family s2 --n 4 --set-size 4", 0,
     "f953e84e09199b91f20642e97dd9ce8e1e526db9333b830075bd434b1671457d"),
    ("splitstar-bounds --family s2 --n 5 --set-size 2 --trials 2000 --seed 1", 0,
     "1780e5a33c3ec70a5178e10b14ace2b9969684949c0820150743100e2bb74c02"),
    ("cut-structure --family ag --n 4 --bound 5", 0,
     "a19048c8356385a4610e0abf6160f9fd67a07a4e52e20ebd9bb92583ad8a6794"),
    ("cut-structure --family s2 --n 4 --bound 7", 0,
     "4c6863440f438af7a01b0e5cbd12f9b535e5966c2669bf4338f37892f82a2a3d"),
    ("cut-structure --family ag --n 5 --bound 10 --mode sampled --trials 2000 --seed 11 --jobs 1", 0,
     "db1bd7ddbc0efb355c39223848b5ddbcda6813a1136ae66ec2766ef49acbd73a"),
    ("cut-structure --family ag --n 5 --bound 10 --mode sampled --trials 2000 --seed 11 --jobs 2", 0,
     "88fe9343a31b7c3312363b588751abc3d68bfa0c877442091558c305bbfc889e"),
    # the exhaustive neighbour bounds at n = 5, recorded before they read the
    # witness search's family generator
    ("neighbor-bounds --family ag --n 5 --set-size 3", 0,
     "e4d26ae422d3b9a83ac5a982c0d572894b55f198419a6fd0946ce3fccdbe31f1"),
    ("neighbor-bounds --family ag --n 5 --set-size 4", 0,
     "7a63b8cea38a8ea58ad73ce0adea1e65d8f90a658646c96af882ea8c36c98b96"),
    # sampled censuses and bounds, recorded while the draws were still
    # transposed from fault bitmasks; S_6^2 (V = 720) is past 256 vertices
    ("cut-structure --family ag --n 4 --bound 5 --mode sampled --trials 3000 --seed 3 --jobs 2", 0,
     "fca019d695622fc7301a96bb086d0f7e81d5f048698a41ddfe206ecdd4ed0c73"),
    ("cut-structure --family s2 --n 4 --bound 8 --mode sampled --trials 3000 --seed 3 --jobs 1", 0,
     "825439f17f61b659c2724de70e8a37e0c40c332c48a8e40fe38ca2652475be4a"),
    ("cut-structure --family s2 --n 6 --bound 23 --mode sampled --trials 3000 --seed 5 --jobs 2", 0,
     "b2b9a471f8feb7a013ac67ed45e2d57ae88ae07104701074b0a03c6f729d32d6"),
    ("splitstar-bounds --family s2 --n 5 --set-size 4 --trials 2000 --seed 3", 0,
     "7c65f0c8438c6777241e42a2f879523408be86da71fdd187ddbc99dbe4daa35a"),
]


@pytest.mark.parametrize("argv,code,digest", VERIFY_GOLDEN, ids=[
    f"{i:02d}-{row[0].split()[0]}" for i, row in enumerate(VERIFY_GOLDEN)])
def test_verify_output_is_byte_identical(capsys, argv, code, digest):
    got, out = run_cli(capsys, "verify", "--lemma", *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout and the exit code of fixed witness searches, recorded
# before the search read its families from kappa.witness_families: each pins
# the value, ``explored`` and the witness byte for byte
WITNESS_GOLDEN = [
    ("--family ag --n 4 --ell 3 --B 1", 0,
     "4aecc20a0adadaad05f6c6e931ecc7e561a270717307384be6dfc5f28d0d45eb"),
    ("--family ag --n 4 --ell 4 --B 2", 0,
     "7b86a39398d6c0c493e09e3d61433e316c915745f6944ac0961c0596ab883268"),
    ("--family ag --n 4 --ell 3 --B 3", 0,
     "720b4764d9cc72a16dcfe06550e5aef482dc9f5a261c63904cafa510bfa02872"),
    ("--family ag --n 5 --ell 3 --B 2", 0,
     "a66e02c4e15096cf84477878e4f2728dafe73cd342b1f6b6e3b45502dd0ba7b9"),
    ("--family ag --n 5 --ell 4 --B 1", 0,
     "2e9394ef53dde337ec178f4d27ae6994d2b8f19c933a8fc6618fd7248bf5a9d7"),
    ("--family ag --n 5 --ell 4 --B 2", 0,
     "f928fa3078a323bcce21a656ff5c7cd4d6c6b315e30ab29e542f032904d77e49"),
    ("--family ag --n 5 --ell 5 --B 1", 0,
     "28857d819bb6741059eff05a8f2a7a43804c983b1046530942077c506db24e83"),
    ("--family s2 --n 4 --ell 3 --B 2", 0,
     "b4b023331fea4a0dc42f5c4c7974a7bd33684a723207b78fc1b80c14fe3503ad"),
    ("--family s2 --n 4 --ell 4 --B 1", 0,
     "b241439d5cdfb6aab5fd05f8be906948e5b42f90824623745a0ba7d896901179"),
    ("--family s2 --n 4 --ell 5 --B 1", 0,
     "3150df3da214ebb4df100f88b9c4c85b7062a1a2ec6c58d6e3bcb74e581c74e6"),
    ("--family s2 --n 4 --ell 5 --B 2", 0,
     "2ab2e9006e501d1750c14f4bf1cc69c55895a44baa6a2df6b16ac0399aa5cd18"),
    ("--family s2 --n 5 --ell 4 --B 1", 0,
     "c84702c865db3c3126fd8a657daf26c7f0c03fb45118c6a1979874fc0800c2eb"),
    ("--family s2 --n 5 --ell 3 --B 3 --budget 2000", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv,code,digest", WITNESS_GOLDEN, ids=[
    row[0].replace("--family ", "").replace(" --", "-").replace(" ", "") for row in WITNESS_GOLDEN])
def test_witness_output_is_byte_identical(capsys, monkeypatch, argv, code, digest):
    monkeypatch.delenv("KAPPALAB_BUDGET", raising=False)
    got, out = run_cli(capsys, "kappa", "--witness", *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_witness_search_without_a_family_is_usage_error(capsys):
    # AG_4 has no five pairwise nonadjacent vertices
    code = main(["kappa", "--family", "ag", "--n", "4", "--ell", "6", "--witness"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "kappalab: no witness family with 5 parts of size <= 1\n"
    assert "Traceback" not in captured.err


def test_witness_cut_leaving_fewer_than_ell_vertices_is_found(capsys):
    # each family of four independent vertices of AG_4 has a cut leaving only itself
    code, out = run_cli(capsys, "kappa", "--family", "ag", "--n", "4", "--ell", "5", "--witness")
    assert code == 0
    assert json.loads(out)["value"] == 8

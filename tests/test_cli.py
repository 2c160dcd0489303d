import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capclass.cli import build_parser, main, parse_capfile, render_capfile
from capclass.errors import CapFileError
from capclass.gf2 import PointSet
from capclass.templates import instantiate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    """The environment for a capclass subprocess that imports this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestCapFileFormat:
    def test_render_matches_documented_layout(self):
        text = render_capfile(PointSet(7, (15, 124)))
        assert text == "capfile v1 n=7\n1111000\n0011111\n"

    def test_round_trip(self):
        s = instantiate("T12_7555").points
        assert parse_capfile(render_capfile(s)) == s

    def test_render_parse_render_is_a_fixed_point(self):
        text = render_capfile(instantiate("T11_555_332").points)
        assert render_capfile(parse_capfile(text)) == text

    def test_unsorted_input_is_accepted(self):
        assert parse_capfile("capfile v1 n=3\n110\n100\n").sorted_masks() == (1, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(CapFileError):
            parse_capfile("capfile v1 n=3\n110\n110\n")

    def test_bad_header(self):
        with pytest.raises(CapFileError):
            parse_capfile("points v1 n=3\n110\n")

    @pytest.mark.parametrize(
        "header, point",
        [("capfile v1 n= 3", "110"), ("capfile v1 n=+3", "110"), ("capfile v1 n=3 ", "110"),
         ("capfile v1 n=0_3", "110"), ("capfile v1 n=\u0663", "110"), ("capfile v1 n=07", "1100000")],
    )
    def test_header_dimension_not_as_rendered(self, header, point):
        # each point line fits the dimension the header names, so only the header is at fault
        with pytest.raises(CapFileError, match="header"):
            parse_capfile(f"{header}\n{point}\n")

    def test_bad_line_length(self):
        with pytest.raises(CapFileError):
            parse_capfile("capfile v1 n=3\n1100\n")

    def test_needs_at_least_one_point(self):
        with pytest.raises(CapFileError):
            parse_capfile("capfile v1 n=3\n")

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=50)
    def test_random_round_trips(self, n, data):
        masks = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True)
        )
        s = PointSet(n, masks)
        assert parse_capfile(render_capfile(s)) == s


class TestTemplateCommand:
    def test_emits_the_ten_cap(self, capsys):
        code, out, _ = run(capsys, "template", "T10_55_2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "capfile v1 n=7"
        assert len(lines) == 11
        assert "1111000" in lines and "0011111" in lines

    def test_independent_frame_has_eight_lines(self, capsys):
        code, out, _ = run(capsys, "template", "INDEPENDENT8")
        assert code == 0
        assert len(out.splitlines()) == 9

    def test_unknown_label_exits_2(self, capsys):
        code, _, err = run(capsys, "template", "BOGUS")
        assert code == 2
        assert "unknown template label" in err

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "template", "T12_7555")
        _, second, _ = run(capsys, "template", "T12_7555")
        assert first == second


class TestCheckCommand:
    def test_twelve_cap_report(self, tmp_path, capsys):
        path = tmp_path / "twelve.cap"
        path.write_text(render_capfile(instantiate("T12_7555").points))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["is_cap"] is True
        assert payload["size"] == 12
        assert payload["dim"] == 7
        assert payload["complete"] is True
        assert any(t.startswith("5-5-5-5-") for t in payload["census"])

    def test_ten_cap_is_incomplete(self, tmp_path, capsys):
        path = tmp_path / "ten.cap"
        path.write_text(render_capfile(instantiate("T10_55_2").points))
        _, out, _ = run(capsys, "check", str(path))
        assert json.loads(out)["complete"] is False

    def test_quad_is_reported(self, tmp_path, capsys):
        path = tmp_path / "quad.cap"
        path.write_text("capfile v1 n=3\n000\n100\n010\n110\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["is_cap"] is False
        assert len(payload["quad"]) == 4

    def test_parse_error_exits_3(self, tmp_path, capsys):
        path = tmp_path / "broken.cap"
        path.write_text("capfile v1 n=3\n2\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("text, message", [
        ("", "empty cap file"),
        ("capfile v1 n=x\n", "bad dimension in header"),
        ("capfile v1 n=0\n", "dimension 0 out of range"),
        ("capfile v1 n=17\n", "dimension 17 out of range"),
    ], ids=("empty", "n=x", "n=0", "n=17"))
    def test_refused_file_exits_3_with_one_error_line(self, tmp_path, capsys, text, message):
        with pytest.raises(CapFileError, match=message):
            parse_capfile(text)
        path = tmp_path / "refused.cap"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        assert code == 3
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and message in line

    def test_missing_file_exits_3(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent/never.cap")
        assert code == 3

    @pytest.mark.parametrize("command", ("check", "closure", "equiv"))
    def test_file_not_utf8_exits_3(self, tmp_path, capsys, command):
        path = tmp_path / "latin.cap"
        path.write_bytes(b"capfile v1 n=3\n\xff01\n")
        files = [str(path)] * (2 if command == "equiv" else 1)
        code, out, err = run(capsys, command, *files)
        assert code == 3
        assert out == ""
        assert "error: cannot read" in err

    @pytest.mark.parametrize("n, census", ((13, None), (12, ["independent"])), ids=("14-points", "13-points"))
    def test_census_stops_above_thirteen_points(self, tmp_path, capsys, n, census):
        # the frame of AG(n,2): n + 1 independent points
        path = tmp_path / "frame.cap"
        path.write_text(render_capfile(PointSet(n, (0,) + tuple(1 << i for i in range(n)))))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == n + 1
        assert payload["census"] == census


class TestClosureCommand:
    def test_plane_closure(self, tmp_path, capsys):
        path = tmp_path / "p.cap"
        path.write_text("capfile v1 n=3\n000\n100\n010\n")
        code, out, _ = run(capsys, "closure", str(path))
        assert code == 0
        assert parse_capfile(out).sorted_masks() == (0, 1, 2, 3)

    def test_whole_space_is_its_own_closure(self, tmp_path):
        # every point of AG(11,2): the closure fills the span at once
        path = tmp_path / "space.cap"
        text = render_capfile(PointSet(11, range(1 << 11)))
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "capclass.cli", "closure", str(path)],
            capture_output=True,
            text=True,
            env=cli_env(),
            timeout=30,
        )
        assert proc.returncode == 0
        assert proc.stdout == text


class TestEquivCommand:
    def write(self, tmp_path, name, label):
        path = tmp_path / name
        path.write_text(render_capfile(instantiate(label).points))
        return str(path)

    def test_equivalent_pair_comes_with_a_map(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.cap", "T11_755_443")
        b = self.write(tmp_path, "b.cap", "T11_555_332")
        code, out, _ = run(capsys, "equiv", a, b)
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert len(payload["map"]["matrix"]) == 7
        assert len(payload["map"]["translation"]) == 7

    def test_file_against_itself(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.cap", "T10_55_3")
        _, out, _ = run(capsys, "equiv", a, a)
        assert json.loads(out)["equivalent"] is True

    def test_distinct_classes(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.cap", "T10_55_2")
        b = self.write(tmp_path, "b.cap", "T10_55_3")
        _, out, _ = run(capsys, "equiv", a, b)
        assert json.loads(out) == {"equivalent": False}

    def test_equivalence_across_ambient_dimensions(self, tmp_path, capsys):
        # same abstract cap embedded in two ambient spaces: equivalent,
        # but no square map exists between the spaces
        small = tmp_path / "small.cap"
        small.write_text("capfile v1 n=3\n000\n100\n010\n001\n")
        wide = tmp_path / "wide.cap"
        wide.write_text("capfile v1 n=4\n0000\n1000\n0100\n0010\n")
        _, out, _ = run(capsys, "equiv", str(small), str(wide))
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert "map" not in payload

    def test_failed_internal_check_exits_1(self, tmp_path, capsys, monkeypatch):
        from capclass import equivalence

        monkeypatch.setattr(equivalence, "verify_map", lambda t, c1, c2: False)
        a = self.write(tmp_path, "a.cap", "T11_755_443")
        b = self.write(tmp_path, "b.cap", "T11_555_332")
        code, _, err = run(capsys, "equiv", a, b)
        assert code == 1
        assert "canonical bases disagree" in err

    def test_cap_too_large_to_compare_exits_2(self, tmp_path, capsys):
        # 0 and the unit vectors of AG(14,2): an independent 15-point cap,
        # which parses fine but is past the 14-point canonical-form limit
        wide = tmp_path / "wide.cap"
        wide.write_text(render_capfile(PointSet(14, [0] + [1 << i for i in range(14)])))
        code, out, err = run(capsys, "equiv", str(wide), str(wide))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "limited to 14 points" in err

    def test_size_mismatch_is_decided_past_the_form_limit(self, tmp_path, capsys):
        # a size or dimension mismatch needs no canonical form, so a 15-point cap gets a verdict
        wide, narrow = tmp_path / "wide.cap", tmp_path / "narrow.cap"
        wide.write_text(render_capfile(PointSet(14, [0] + [1 << i for i in range(14)])))
        narrow.write_text(render_capfile(PointSet(14, [0] + [1 << i for i in range(13)])))
        code, out, err = run(capsys, "equiv", str(wide), str(narrow))
        assert code == 0
        assert json.loads(out) == {"equivalent": False}
        assert err == ""

    def test_non_cap_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cap"
        bad.write_text("capfile v1 n=3\n000\n100\n010\n110\n")
        good = self.write(tmp_path, "good.cap", "R5")
        code, _, _ = run(capsys, "equiv", str(bad), good)
        assert code == 3

    def test_each_file_is_read_as_a_cap_before_the_next(self, tmp_path, capsys):
        bad = tmp_path / "bad.cap"
        bad.write_text("capfile v1 n=3\n000\n100\n010\n110\n")
        garbled = tmp_path / "garbled.cap"
        garbled.write_text("capfile v1 n=3\n0x0\n")
        code, out, err = run(capsys, "equiv", str(bad), str(garbled))
        assert code == 3
        assert out == ""
        assert err == f"error: {bad} does not describe a cap\n"
        code, _, err = run(capsys, "equiv", str(garbled), str(bad))
        assert code == 3
        assert err == "error: bad point line '0x0' for n=3\n"


class TestClassifyCommand:
    def test_toy_run_with_output_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "reps"
        code, out, _ = run(capsys, "classify", "3", "6", "--out", str(out_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "classtable v1"
        assert payload["counts"] == {"4": 1, "5": 0}
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == ["dim3_size4_class0.cap"]
        rep = parse_capfile((out_dir / written[0]).read_text())
        assert len(rep) == 4

    @pytest.mark.parametrize("under", (False, True), ids=("file", "under-file"))
    def test_unusable_output_directory_exits_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out_dir = blocker / "reps" if under else blocker
        code, out, err = run(capsys, "classify", "3", "6", "--out", str(out_dir))
        assert code == 2
        assert out == ""
        assert "error: cannot write" in err
        assert "Traceback" not in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "classify", "3", "6")
        _, second, _ = run(capsys, "classify", "3", "6")
        assert first == second

    def test_dimension_13_is_in_range(self, capsys):
        code, out, _ = run(capsys, "classify", "13", "14")
        assert code == 0
        assert json.loads(out)["counts"] == {"14": 1}

    @pytest.mark.parametrize("dim, max_size", [("0", "13"), ("14", "14"), ("14", "15"), ("7", "15")])
    def test_out_of_range_arguments_exit_2(self, capsys, dim, max_size):
        with pytest.raises(SystemExit) as exc:
            main(["classify", dim, max_size])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("dim, max_size", [("7", "3"), ("7", "7"), ("1", "1")])
    def test_size_not_above_dim_exits_2(self, capsys, dim, max_size):
        with pytest.raises(SystemExit) as exc:
            main(["classify", dim, max_size])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_size must exceed dim" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", (["x", "4"], ["3", "4.5"], ["3", "4", "5"], ["3", "4", "--out"]))
    def test_malformed_arguments_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["classify", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    def test_census_is_null_above_the_desk_limit(self, monkeypatch, capsys):
        from capclass import classifier

        monkeypatch.setattr(classifier, "_DESK_LIMIT", 5)
        code, out, _ = run(capsys, "classify", "4", "6")
        assert code == 0
        sizes = json.loads(out)["sizes"]
        assert sizes["5"] and all(isinstance(entry["census"], list) for entry in sizes["5"])
        assert sizes["6"] and all(entry["census"] is None for entry in sizes["6"])

    def test_stdout_closed_by_reader_exits_141_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "capclass.cli", "classify", "6", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        proc.stdout.close()  # the reader is gone before the first write
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert b"Traceback" not in err
        assert b"Exception ignored" not in err


class TestVerifyPaperCommand:
    def test_reduced_run_passes_and_is_schema_valid(self, capsys):
        code, out, _ = run(
            capsys, "verify-paper", "--json", "--fuzz-trials", "2", "--exchange-trials", "20"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "report v1"
        assert payload["all_passed"] is True
        ids = [c["id"] for c in payload["claims"]]
        assert len(ids) == 12 and len(set(ids)) == 12

    def test_human_readable_lines(self, capsys):
        code, out, _ = run(
            capsys, "verify-paper", "--fuzz-trials", "1", "--exchange-trials", "5"
        )
        assert code == 0
        assert out.count("pass") >= 12
        assert "all claims passed" in out

    def test_stdout_is_byte_identical_across_runs(self, capsys):
        argv = ["verify-paper", "--json", "--fuzz-trials", "2", "--exchange-trials", "10"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("flag", ["--fuzz-trials", "--exchange-trials"])
    def test_negative_trial_counts_exit_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper", "--json", flag, "-1"])
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_zero_trial_counts_are_accepted(self):
        args = build_parser().parse_args(["verify-paper", "--fuzz-trials", "0", "--exchange-trials", "0"])
        assert (args.fuzz_trials, args.exchange_trials) == (0, 0)

    def test_trial_defaults_come_from_the_library(self, monkeypatch):
        from capclass import classifier, cli

        args = build_parser().parse_args(["verify-paper"])
        assert (args.fuzz_trials, args.exchange_trials) == (
            classifier.DEFAULT_INVARIANCE_TRIALS,
            classifier.DEFAULT_EXCHANGE_TRIALS,
        )
        monkeypatch.setattr(cli, "DEFAULT_INVARIANCE_TRIALS", 7)
        monkeypatch.setattr(cli, "DEFAULT_EXCHANGE_TRIALS", 9)
        args = build_parser().parse_args(["verify-paper"])
        assert (args.fuzz_trials, args.exchange_trials) == (7, 9)

    def test_corrupted_template_data_fails_the_run(self, capsys, monkeypatch):
        from capclass import templates

        broken = dict(templates._TEMPLATES)
        broken["R5"] = (broken["R5"][0], (7,), ())
        monkeypatch.setattr(templates, "_TEMPLATES", broken)
        code, out, _ = run(
            capsys, "verify-paper", "--fuzz-trials", "1", "--exchange-trials", "5"
        )
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "argv", (("verify-paper", "--fuzz-trials", "1", "--exchange-trials", "5"), ("template", "R5"))
    )
    def test_template_generators_forming_a_quad_fail_an_internal_check(self, capsys, monkeypatch, argv):
        from capclass import templates

        # a1, a2, a3 and a2 + a3 form a quad
        monkeypatch.setattr(templates, "_TEMPLATES", dict(templates._TEMPLATES, R5=(((2, 3),), (5,), ())))
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "internal check failed" in err

"""Codec, configuration and command-line surface tests."""

import dataclasses
import filecmp
import hashlib
import json
import math
import os
import stat
import threading
import typing
from pathlib import Path

import pytest

from rgdlab import artifacts, cli, driver, fileio, pool, replay, rgd, taskgen, tinylm
from rgdlab.clmetrics import PerfMatrix
from rgdlab.errors import ConfigError, InputError, ParseError

SHARED_MATRIX = PerfMatrix(
    order=("A", "B", "C"),
    rows=((80.0,), (70.0, 90.0), (60.0, 85.0, 88.0)),
    a0=(75.0, 88.0, 85.0),
)


def parse_examples(path):
    """The examples of a corpus file, one per JSON line."""
    return [taskgen.Example(task_id=doc["task"], id=doc["id"],
                            instruction=tuple(doc["instruction"].split()),
                            rationale=tuple(doc["rationale"].split()), answer=doc["answer"])
            for doc in map(json.loads, Path(path).read_text().splitlines())]


class TestExampleCodec:
    def test_roundtrip_identity(self, tmp_path):
        suite = taskgen.make_suite(2, 6, 3, seed=9, probe_per_task=2)
        examples = [ex for s in suite.specs for ex in suite.train[s.task_id]]
        path = tmp_path / "corpus.jsonl"
        fileio.write_examples(examples, path)
        assert parse_examples(path) == examples

    def test_exact_field_names(self, tmp_path):
        suite = taskgen.make_suite(2, 2, 1, seed=9, probe_per_task=1)
        path = tmp_path / "corpus.jsonl"
        fileio.write_examples(suite.train[suite.specs[0].task_id], path)
        doc = json.loads(path.read_text().splitlines()[0])
        assert set(doc) == {"task", "id", "instruction", "rationale", "answer"}


class TestPplRecordCodec:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert fileio.import_ppl_records(path) == []

    def test_zero_tokens_rejected_at_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        good = {"task": "t", "id": "a", "nll_cond_sum": 1.0,
                "nll_uncond_sum": 2.0, "n_rationale_tokens": 4}
        bad = dict(good, n_rationale_tokens=0, id="b")
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError, match=":2:"):
            fileio.import_ppl_records(path)

    @pytest.mark.parametrize("key, value, want", [
        ("n_rationale_tokens", 1.7, "int"), ("n_rationale_tokens", True, "int"),
        ("n_rationale_tokens", "3", "int"), ("nll_cond_sum", "1.5", "float"),
        ("nll_uncond_sum", True, "float"),
    ])
    def test_wrong_number_type_rejected_at_line(self, tmp_path, key, value, want):
        path = tmp_path / "records.jsonl"
        good = {"task": "t", "id": "a", "nll_cond_sum": 1.0,
                "nll_uncond_sum": 2.0, "n_rationale_tokens": 4}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: value}) + "\n")
        with pytest.raises(ParseError) as err:
            fileio.import_ppl_records(path)
        assert str(err.value).endswith(f"records.jsonl:2: bad record: {key}: expected {want}, "
                                       f"got {value!r}")

    def test_roundtrip_identity(self, tmp_path):
        records = [rgd.PplRecord("t", f"e{i}", 1.5 * i, 2.0 * i + 0.25, i + 1)
                   for i in range(5)]
        path = tmp_path / "records.jsonl"
        artifacts.write_jsonl(path, ({
            "task": r.task_id, "id": r.example_id, "nll_cond_sum": r.nll_cond_sum,
            "nll_uncond_sum": r.nll_uncond_sum, "n_rationale_tokens": r.n_rationale_tokens,
        } for r in records))
        assert fileio.import_ppl_records(path) == records


class TestMatrixCodec:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "matrix.csv"
        fileio.write_matrix(SHARED_MATRIX, path)
        assert fileio.read_matrix(path) == SHARED_MATRIX

    def test_missing_a0_rejected(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("stage,A\n1,50.0\n")
        with pytest.raises(ParseError, match="a0"):
            fileio.read_matrix(path)


class TestPlanAndSummaryCodec:
    def test_plan_roundtrip(self, tmp_path):
        plan = replay.fit_to_pools(
            replay.allocate_rgd({"a": 2.0, "b": 1.0}, 9), {"a": 4, "b": 9})
        path = tmp_path / "plan.json"
        artifacts.write_json(path, fileio.plan_doc(plan))
        doc = json.loads(path.read_text())
        assert doc == fileio.plan_doc(plan)
        assert set(doc) == {"budget", "strategy", "counts", "shortfalls"}
        assert doc["counts"] == plan.counts and doc["shortfalls"] == plan.shortfalls

    def test_summaries_roundtrip(self, tmp_path):
        summaries = [rgd.RgdSummary("a", 1.25, 0.5, 8), rgd.RgdSummary("b", 0.75, 0.0, 1)]
        path = tmp_path / "summaries.jsonl"
        artifacts.write_jsonl(path, [fileio.summary_doc(s) for s in summaries])
        assert fileio.read_summaries(path) == summaries

    def test_bad_summary_reported_with_number(self, tmp_path):
        path = tmp_path / "summaries.jsonl"
        good = {"task": "a", "mean": 1.0, "std": 0.0, "n": 1}
        for key, value, want in (("mean", "high", "float"), ("mean", "1.5", "float"),
                                 ("n", 1.7, "int")):
            path.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: value}) + "\n")
            with pytest.raises(ParseError) as err:
                fileio.read_summaries(path)
            assert str(err.value).endswith(f"summaries.jsonl:2: bad summary: {key}: "
                                           f"expected {want}, got {value!r}")

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "summaries.jsonl"
        with pytest.raises(TypeError):
            artifacts.write_jsonl(path, [{"task": "a"}, {"task": object()}])
        assert list(tmp_path.iterdir()) == []

    def test_write_to_pipe(self, tmp_path):
        # A target that is not a regular file is written in place, not replaced.
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
        reader.start()
        artifacts.write_jsonl(pipe, [{"task": "a"}])
        reader.join(timeout=10)
        assert got == ['{"task": "a"}\n']
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)


class TestArtifacts:
    def test_failed_body_keeps_target(self, tmp_path):
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_text("old\n")
        for path in (new, old):
            with pytest.raises(RuntimeError):
                with artifacts.atomic_write(path) as fh:
                    fh.write("partial")
                    raise RuntimeError("body failed")
        assert not new.exists()
        assert old.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]

    def test_undecodable_bytes_are_parse_errors(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"task": "a"}\n{"task": "caf\xe9"}\n')
        with pytest.raises(ParseError, match=":2: bad record"):
            artifacts.read_jsonl(path, dict, "record")
        with pytest.raises(ParseError, match="latin1.json"):
            artifacts.read_json(path)

    def test_one_module_owns_the_formats(self):
        package = Path(artifacts.__file__).parent
        for needle in ("atomic_write(", "json.dump(", "json.load(", "JSONDecodeError"):
            owners = sorted(p.name for p in package.glob("*.py") if needle in p.read_text())
            assert owners == ["artifacts.py"], (needle, owners)


class TestEmitReport:
    def record(self, strategy, seed=1, order=0, fp="s", **kw):
        base = dict(fap=70.0, cap=80.0, f_ra=5.0, bwt=-4.0, fwt=1.0)
        base.update(kw)
        return fileio.TableRecord(strategy=strategy, run_seed=seed, order_index=order,
                                  suite=fp, **base)

    def test_single_run_single_row(self, tmp_path):
        text = fileio.emit_report([self.record("none")], None, None)
        lines = text.strip().splitlines()
        assert lines[0] == "strategy,FAP,F.Ra,BWT,FWT,CAP"
        assert lines[1].startswith("CL,70.0,5.0,-4.0,1.0,80.0")
        assert len(lines) == 2

    def test_two_orders_averaged_and_raw_kept(self, tmp_path):
        records = [self.record("equal", order=0, fap=70.0),
                   self.record("equal", order=1, fap=80.0)]
        csv_path, raw_path = tmp_path / "t.csv", tmp_path / "raw.json"
        text = fileio.emit_report(records, csv_path, raw_path)
        assert "EA,75.0" in text
        raw = json.loads(raw_path.read_text())
        assert [r["fap"] for r in raw] == [70.0, 80.0]

    def test_row_order_fixed(self):
        records = [self.record("rgd-mean"), self.record("none"),
                   self.record("single", f_ra=None, bwt=None, fwt=None),
                   self.record("equal")]
        lines = fileio.emit_report(records, None, None).strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["Single", "CL", "EA", "RGD"]

    def test_heterogeneous_suites_rejected(self):
        with pytest.raises(InputError):
            fileio.emit_report([self.record("none", fp="s1"),
                                self.record("equal", fp="s2")], None, None)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            fileio.emit_report([], None, None)


def good_config():
    return {
        "suite": {"num_tasks": 2, "train_per_task": 4, "eval_per_task": 2,
                  "probe_per_task": 2, "seed": 3},
        "run_seeds": [1],
        "output_dir": "out",
    }


class TestExperimentConfig:
    def test_unknown_key_named(self, tmp_path):
        doc = good_config()
        doc["sneaky"] = 1
        with pytest.raises(ConfigError, match="sneaky"):
            fileio.experiment_config_from_dict(doc)

    @pytest.mark.parametrize("section, key", [("model", "context_len"),
                                              ("suite", "probe_per_task")])
    def test_sizes_are_checked_at_load(self, section, key):
        doc = good_config()
        doc.setdefault(section, {})[key] = 0
        with pytest.raises(ConfigError, match=f"^{section}: {key} must be >= 1, got 0$"):
            fileio.experiment_config_from_dict(doc)

    def test_unknown_nested_key_named(self):
        doc = good_config()
        doc["train"] = {"learning_rate": 0.1, "warp": 9}
        with pytest.raises(ConfigError, match="warp"):
            fileio.experiment_config_from_dict(doc)

    def test_missing_suite_seed_rejected(self):
        doc = good_config()
        del doc["suite"]["seed"]
        with pytest.raises(ConfigError, match="seed"):
            fileio.experiment_config_from_dict(doc)

    def test_missing_run_seeds_rejected(self):
        doc = good_config()
        del doc["run_seeds"]
        with pytest.raises(ConfigError, match="run_seeds"):
            fileio.experiment_config_from_dict(doc)

    @pytest.mark.parametrize("group", ["train", "warmup"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, group, rate):
        # Python's json reads NaN and Infinity in a config file.
        doc = json.loads(json.dumps({**good_config(), group: {"learning_rate": rate}}))
        with pytest.raises(ConfigError, match=f"{group}: learning_rate"):
            fileio.experiment_config_from_dict(doc)

    def test_orders_validation(self):
        doc = good_config()
        doc["orders"] = [0]
        cfg = fileio.experiment_config_from_dict(doc)
        assert cfg.plan.orders == (0,)
        doc["orders"] = [2]
        with pytest.raises(ConfigError):
            fileio.experiment_config_from_dict(doc)


ROOT = Path(__file__).parent.parent


def readme_example_config() -> dict:
    section = (ROOT / "README.md").read_text().split("### Configuration file", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.json")),
                         ids=lambda path: path.name)
def test_checked_in_config_loads(path):
    # A checked-in config names no output directory: run-seq takes it from --out.
    assert fileio.load_experiment_config(path).output_dir is None


def test_readme_example_config_loads():
    doc = readme_example_config()
    cfg = fileio.experiment_config_from_dict(doc)
    assert cfg.output_dir == doc["output_dir"]
    resolved = json.loads(json.dumps(fileio.resolved_config_doc(cfg)))   # tuples as lists
    for key, value in doc.items():          # the resolved config keeps every value given
        if isinstance(value, dict):
            assert resolved[key] == {**resolved[key], **value}, key
        elif key != "output_dir":
            assert resolved[key] == value, key


@pytest.mark.parametrize("name", ["README.md", "harness5.json", "harness8.json"])
def test_resolved_config_keys_are_field_names(name):
    """A resolved config loads back to the same experiment, and each of its
    keys is the name of the field it sets, nested objects included."""
    doc = (readme_example_config() if name == "README.md"
           else artifacts.read_json(ROOT / "configs" / name))
    cfg = fileio.experiment_config_from_dict(doc)
    resolved = json.loads(json.dumps(fileio.resolved_config_doc(cfg)))   # as config.json has it
    again = fileio.experiment_config_from_dict(resolved)
    assert (again.suite, again.plan) == (cfg.suite, cfg.plan)

    def assert_keys_are_fields(doc, cls):
        hints = typing.get_type_hints(cls)
        assert set(doc) <= {f.name for f in dataclasses.fields(cls)}, cls
        for key, value in doc.items():
            if isinstance(value, dict):
                assert_keys_are_fields(value, hints[key])

    assert_keys_are_fields(resolved.pop("suite"), taskgen.SuiteSettings)
    assert_keys_are_fields(resolved, driver.ExperimentPlan)


@pytest.mark.parametrize("key, value, named", [
    ("run_seeds", ["x"], "run_seeds[0]"),
    ("run_probes", "false", "run_probes"),
    ("threads", "two", "threads"),
    ("train.learning_rate", "0.1", "train.learning_rate"),
    ("model.hidden_dim", 1.5, "model.hidden_dim"),
    ("strategies", "none", "strategies"),
    ("train.learning_rate", 0, "train: learning_rate"),
    ("rgd_eval_size", -4, "unknown key 'rgd_eval_size'"),
    ("strategies", ["none", "none"], "strategies: each strategy may appear once"),
    ("run_seeds", [5, 5], "run_seeds: each run seed may appear once"),
    ("orders", [0, 0], "orders: each order index may appear once, got [0, 0]"),
    ("k_grid", [0.0, 1.5], "k_grid values must be in [0, 1]"),
    ("k_grid", [-0.1], "k_grid values must be in [0, 1]"),
    ("demo_counts", [0, 1], "unknown key 'demo_counts'"),
    ("demo_draws", 0, "unknown key 'demo_draws'"),
    ("top_forgotten", 0, "unknown key 'top_forgotten'"),
    ("suite.seed", -3, "seed must be >= 0"),
    ("run_seeds", [-5], "run_seeds: each run seed must be >= 0, got [-5]"),
    ("warmup_examples", -1, "warmup_examples"),
    ("max_gen_len", 0, "max_gen_len"),
    ("replay.budget", 2**31 + 1, "replay: budget must be in [0, 2147483648]"),
    ("replay.budget", -1, "replay: budget must be in [0, 2147483648]"),
    ("replay.budget_fraction", 2, "replay: budget_fraction must be in [0, 1]"),
    ("demo_counts", [0], "unknown key 'demo_counts'"),
    ("orders", [], "orders must be a nonempty list"),
    ("model.context_len", 0, "model: context_len must be >= 1, got 0"),
    ("model.hidden_dim", -2, "model: hidden_dim must be >= 1, got -2"),
    ("suite.probe_per_task", 0, "suite: probe_per_task must be >= 1, got 0"),
    ("suite.num_tasks", 16, "suite: num_tasks must be in [2, 15], got 16"),
    ("train.momentum", 0.9, "unknown key 'train.momentum'"),
    ("train.shuffle", True, "unknown key 'train.shuffle'"),
    ("warmup.shuffle", True, "unknown key 'warmup.shuffle'"),
    ("max_gen_len", 18, "unknown key 'max_gen_len'"),
    ("warmup_examples", 0, "warmup_examples must be >= 1"),
    ("train.epochs", 0, "train: epochs must be >= 1"),
    ("rgd_eval_size", 0, "unknown key 'rgd_eval_size'"),
    ("orders", "both", "orders: expected a list, got 'both'"),
    ("run_seeds", [], "run_seeds: at least one run seed is required"),
    ("strategies", [], "strategies: at least one strategy is required"),
    ("strategies", ["bogus"], "strategies: unknown strategy 'bogus'"),
    ("k_grid", [], "k_grid: at least one value is required"),
    ("k_grid", [0.5, 0.5], "k_grid: each k may appear once, got [0.5, 0.5]"),
])
def test_bad_config_value_exits_one(tmp_path, capsys, key, value, named):
    doc = good_config()
    *sections, leaf = key.split(".")
    target = doc
    for section in sections:
        target = target.setdefault(section, {})
    target[leaf] = value
    assert_run_seq_rejects(doc, named, tmp_path, capsys)


def test_run_seq_without_an_output_dir_exits_one(tmp_path, capsys, monkeypatch):
    def refuse(size):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(pool, "start", refuse)
    doc = good_config()
    del doc["output_dir"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["run-seq", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: output_dir is required: give --out or set output_dir in the config"]


def test_probes_without_the_none_run_exit_one(tmp_path, capsys):
    # Probes read the no-replay run, so without it they would silently not run.
    doc = dict(good_config(), strategies=["equal"], run_probes=True)
    assert_run_seq_rejects(doc, 'run_probes needs "none" in strategies', tmp_path, capsys)


def assert_run_seq_rejects(doc, named, tmp_path, capsys):
    """``run-seq`` on config ``doc`` prints one error line naming ``named``,
    exits 1 and writes nothing."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not out.exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A tiny completed run-seq output with checkpoints, shared by CLI tests."""
    root = tmp_path_factory.mktemp("runseq")
    config = {
        "suite": {"num_tasks": 2, "train_per_task": 20, "eval_per_task": 6,
                  "probe_per_task": 4, "seed": 5},
        "train": {"learning_rate": 0.15, "epochs": 2, "batch_size": 16},
        "warmup": {"learning_rate": 0.25, "epochs": 3, "batch_size": 32},
        "warmup_examples": 120,
        "strategies": ["none"],
        "run_seeds": [3],
        "orders": [0],
        "output_dir": str(root / "out"),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["run-seq", "--config", str(cfg_path)]) == 0
    return root


class TestCli:
    def test_metrics_row_matches_formula_examples(self, tmp_path, capsys):
        path = tmp_path / "matrix.csv"
        fileio.write_matrix(SHARED_MATRIX, path)
        assert cli.main(["metrics", "--matrix", str(path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "FAP,F.Ra,BWT,FWT,CAP"
        assert out[1] == "77.667,12.5,-12.5,3.333,86.0"

    def test_allocate_rgd_example(self, capsys):
        assert cli.main(["allocate", "--strategy", "rgd", "--alpha", "100",
                         "--scores", "a=2,b=1,c=1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"a": 50, "b": 25, "c": 25}

    def test_score_rgd_from_records(self, tmp_path, capsys):
        n = 6
        rec = {"task": "q", "id": "e", "nll_cond_sum": math.log(2) * n,
               "nll_uncond_sum": math.log(4) * n, "n_rationale_tokens": n}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        assert cli.main(["score-rgd", "--from-records", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean"] == pytest.approx(0.5, rel=1e-9)
        assert doc["task"] == "q"
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, "task": "r"}) + "\n")
        assert cli.main(["score-rgd", "--from-records", str(path), "--task", "r"]) == 0
        assert [json.loads(line)["task"] for line in capsys.readouterr().out.splitlines()] == ["r"]
        out_file = tmp_path / "scores.jsonl"
        assert cli.main(["score-rgd", "--from-records", str(path), "--task", "s",
                         "--out-file", str(out_file)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: unknown task 's'"]
        assert not out_file.exists()
        for flag in ("--checkpoint", "--config"):
            assert cli.main(["score-rgd", "--from-records", str(path), flag, str(path),
                             "--out-file", str(out_file)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: --from-records cannot be combined with --checkpoint or --config"]
            assert not out_file.exists()

    @pytest.mark.parametrize("flags", [["--from-records", "{records}", "--out", "{out}"],
                                       ["--from", "{records}", "--out-file", "{out}"]],
                             ids=["out", "from"])
    def test_abbreviated_flags_are_rejected(self, tmp_path, capsys, flags):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"task": "q", "id": "e", "nll_cond_sum": 1.0,
                                       "nll_uncond_sum": 2.0, "n_rationale_tokens": 1}) + "\n")
        out = tmp_path / "scores.jsonl"
        with pytest.raises(SystemExit) as err:
            cli.main(["score-rgd", *(f.format(records=records, out=out) for f in flags)])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [records]

    @pytest.mark.parametrize("cond_sums, named", [
        ([1000.0], "example 'e0': RGD exp(1000.0) overflows a float"),
        ([700.0, 709.0], "task 'q': the mean or variance of its RGD scores overflows a float"),
    ], ids=["score", "variance"])
    def test_score_rgd_overflow_exits_one(self, tmp_path, capsys, cond_sums, named):
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps({"task": "q", "id": f"e{i}", "nll_cond_sum": s,
                                            "nll_uncond_sum": 0.0, "n_rationale_tokens": 1}) + "\n"
                                for i, s in enumerate(cond_sums)))
        out_file = tmp_path / "scores.jsonl"
        assert cli.main(["score-rgd", "--from-records", str(path),
                         "--out-file", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [f"error: {named}"]
        assert not out_file.exists()

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code != 0

    def test_gen_suite_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert cli.main(["gen-suite", "--tasks", "2", "--train", "4", "--eval", "2",
                         "--probe", "2", "--seed", "3", "--out", str(out)]) == 0
        examples = parse_examples(out / "train.jsonl")
        suite = taskgen.make_suite(2, 4, 2, seed=3, probe_per_task=2)
        expected = [ex for s in suite.specs for ex in suite.train[s.task_id]]
        assert examples == expected
        manifest = json.loads((out / "suite.json").read_text())
        assert len(manifest["orders"]) == 2

    def test_gen_suite_output_is_pinned(self, tmp_path, capsys):
        # 15 tasks make the variants cycle; the digest covers the manifest and every corpus.
        out = tmp_path / "suite"
        assert cli.main(["gen-suite", "--tasks", "15", "--train", "3", "--eval", "2",
                         "--probe", "2", "--seed", "3", "--out", str(out)]) == 0
        h = hashlib.sha256()
        for name in ("suite.json", "train.jsonl", "eval.jsonl", "probe.jsonl"):
            h.update((out / name).read_bytes())
        assert h.hexdigest() == "c8dc5d0c71c38bc1d6991b44479df8b3ef57939b85fd5f73c1002614aaebe734"

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 7.45 GiB for an array with shape (1000000000,)"

        def too_big(*args):
            raise MemoryError(message)

        monkeypatch.setattr(driver, "run_experiment", too_big)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(good_config()))
        assert cli.main(["run-seq", "--config", str(cfg_path), "--out",
                         str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: out of memory: {message}"]

    def test_gen_suite_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert cli.main(["gen-suite", "--tasks", "2", "--train", "4", "--eval", "2",
                         "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
        assert not out.exists()

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text("not json\n")
        assert cli.main(["score-rgd", "--from-records", str(path)]) == 1
        assert "error" in capsys.readouterr().err
        assert cli.main(["score-rgd"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: need --from-records, or --checkpoint with --config"]

    def test_metrics_missing_file_exits_one(self, capsys):
        assert cli.main(["metrics", "--matrix", "/nonexistent.csv"]) == 1

    @pytest.mark.parametrize("command", ["allocate", "metrics"])
    def test_output_path_is_a_directory_exits_one(self, tmp_path, capsys, command):
        target = tmp_path / "a-directory"
        target.mkdir()
        if command == "allocate":
            argv = ["allocate", "--strategy", "equal", "--alpha", "3", "--tasks", "a,b",
                    "--out-file", str(target)]
        else:
            matrix = tmp_path / "matrix.csv"
            fileio.write_matrix(SHARED_MATRIX, matrix)
            argv = ["metrics", "--matrix", str(matrix), "--out-json", str(target)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(target) in err[0], err

    def test_missing_output_directory_names_target(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        argv = ["allocate", "--strategy", "equal", "--alpha", "3", "--tasks", "a,b",
                "--out-file", str(target)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(target) in err[0], err
        assert ".tmp" not in err[0]
        assert not target.parent.exists()

    def test_run_seq_layout(self, run_dir, capsys):
        out = run_dir / "out"
        for rel in ("config.json", "report.csv", "report_raw.json", "singles.json",
                    "multis.json", "runs/none-o0-s3/matrix.csv",
                    "runs/none-o0-s3/summaries.jsonl",
                    "runs/none-o0-s3/checkpoints/stage-01.json"):
            assert (out / rel).exists(), rel
        snapshot = json.loads((out / "config.json").read_text())
        assert set(snapshot) == {"given", "resolved"}
        assert snapshot["resolved"]["train"]["epochs"] == 2

    def test_threads_do_not_change_results(self, run_dir):
        """``threads`` is the worker count: no artifact but the config
        snapshot, which records the given value, depends on it."""
        config = json.loads((run_dir / "config.json").read_text())
        config.update(strategies=["none", "equal", "rgd-mean"], run_seeds=[3, 4], orders=[0, 1],
                      run_probes=True, replay={"budget": 30}, k_grid=[0.0, 1.0])
        config["suite"] = {**config["suite"], "num_tasks": 3, "eval_per_task": 2}
        trees = []
        for threads in (1, 2, 3):
            cfg_path = run_dir / f"threads-{threads}-config.json"
            cfg_path.write_text(json.dumps({**config, "threads": threads}))
            out = run_dir / f"threads-{threads}"
            assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out)]) == 0
            trees.append(sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()))
        assert trees[0] == trees[1] == trees[2]
        assert not [p for p in trees[0] if p.suffix == ".tmp"]
        assert "runs/none-o1-s4/checkpoints/stage-03.json" in {str(p) for p in trees[0]}
        one = run_dir / "threads-1"
        plans = [(one / f"runs/{strategy}-o0-s3/plans.jsonl").read_text()
                 for strategy in ("equal", "rgd-mean")]
        assert plans[0] != plans[1]             # both allocators' paths are exercised
        for other in ("threads-2", "threads-3"):
            for rel in trees[0]:
                if str(rel) != "config.json":
                    assert filecmp.cmp(one / rel, run_dir / other / rel, shallow=False), rel

    def test_shared_checkpoints_encoded_once(self, run_dir):
        config = json.loads((run_dir / "config.json").read_text())
        config["strategies"] = ["none", "equal"]
        cfg_path = run_dir / "shared-config.json"
        cfg_path.write_text(json.dumps(config))
        out = run_dir / "shared"
        assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out)]) == 0
        files = sorted(out.glob("runs/*/checkpoints/*.json"))
        assert len(files) == 4
        # One distinct file per stage training: stage 1 never replays, so
        # both runs hold one checkpoint for it.
        assert len({f.read_bytes() for f in files}) == 3
        assert filecmp.cmp(out / "runs/none-o0-s3/checkpoints/stage-01.json",
                           out / "runs/equal-o0-s3/checkpoints/stage-01.json", shallow=False)

    def test_parent_never_encodes_checkpoints(self, run_dir, monkeypatch):
        """The pool workers write every checkpoint: they do not see this patch."""
        def refuse(*args):
            raise AssertionError("save_model called in the parent")

        monkeypatch.setattr(tinylm, "save_model", refuse)
        config = json.loads((run_dir / "config.json").read_text())
        cfg_path = run_dir / "guard-config.json"
        cfg_path.write_text(json.dumps({**config, "strategies": ["none", "equal"],
                                        "save_checkpoints": True}))
        out = run_dir / "guard"
        assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out)]) == 0
        for strategy in ("none", "equal"):
            for stage in (1, 2):
                path = out / f"runs/{strategy}-o0-s3/checkpoints/stage-{stage:02d}.json"
                assert tinylm.load_model(path).context_len == 28

    def test_unwritable_runs_directory_exits_one(self, run_dir, tmp_path, capfd):
        """A worker's OSError reaches the command line as one error line."""
        config = json.loads((run_dir / "config.json").read_text())
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**config, "strategies": ["none", "equal"],
                                        "run_seeds": [3, 4]}))
        out = tmp_path / "out"
        out.mkdir()
        (out / "runs").write_text("not a directory\n")
        assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capfd.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ") and "runs" in err[0], err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "out", "runs"]

    def test_unknown_task_exits_one(self, run_dir, tmp_path, capsys):
        ckpt = run_dir / "out/runs/none-o0-s3/checkpoints/stage-02.json"
        out_file = tmp_path / "scores.jsonl"
        probes = tmp_path / "probes"
        for argv in (["score-rgd", "--out-file", str(out_file)],
                     ["probe", "--out", str(probes)]):
            rc = cli.main(argv + ["--config", str(run_dir / "config.json"),
                                  "--checkpoint", str(ckpt), "--task", "no-such-task"])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == ["error: unknown task 'no-such-task'"]
        assert not out_file.exists() and not probes.exists()

    def test_probe_negative_seed_exits_one(self, run_dir, tmp_path, capsys):
        ckpt = run_dir / "out/runs/none-o0-s3/checkpoints/stage-02.json"
        probes = tmp_path / "probes"
        task = taskgen.make_suite(2, 20, 6, seed=5, probe_per_task=4).specs[0].task_id
        assert cli.main(["probe", "--config", str(run_dir / "config.json"), "--checkpoint",
                         str(ckpt), "--task", task, "--seed", "-2", "--out", str(probes)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --seed must be >= 0, got -2"]
        assert not probes.exists()

    def test_resolved_snapshot_loads_back(self, run_dir):
        original = fileio.load_experiment_config(run_dir / "config.json")
        resolved = json.loads((run_dir / "out" / "config.json").read_text())["resolved"]
        again = fileio.experiment_config_from_dict(resolved)
        assert (again.suite, again.plan) == (original.suite, original.plan)

    def test_probe_command_reproduces_the_grid_probe(self, run_dir, monkeypatch, capsys):
        """``rgdlab probe --seed derive_seed(run_seed, 0)`` on an order-0 ``none``
        run's final checkpoint gives that run's probe rows, from the prompts
        ``driver.probe_task`` decodes (at this size every accuracy may be 0.0).
        Three tasks, so that the two orders' demo pools differ."""
        config = json.loads((run_dir / "config.json").read_text())
        config["suite"]["num_tasks"] = 3
        cfg_path = run_dir / "probed-config.json"
        cfg_path.write_text(json.dumps({**config, "run_probes": True}))
        out = run_dir / "probed"
        sent = []
        send = pool._Worker.send

        def recording_units(worker, message):
            sent.append(message)
            send(worker, message)

        monkeypatch.setattr(pool._Worker, "send", recording_units)
        assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out)]) == 0
        partial = (out / "probe_partial.csv").read_text().splitlines()
        tap = (out / "probe_tap.csv").read_text().splitlines()
        task = partial[1].split(",")[0]
        seed = driver.derive_seed(3, 0)
        # The grid probes with these arguments: order 0, the derived seed.
        assert (0, seed, task) in [(args[2], args[3], args[5]) for fn, args in sent
                                   if fn is driver.probe_task]
        prompts = []
        original = driver._decoded_accuracy

        def recording(model, batch, examples):
            prompts.append(list(batch))
            return original(model, batch, examples)

        monkeypatch.setattr(driver, "_decoded_accuracy", recording)
        ckpt = out / "runs/none-o0-s3/checkpoints/stage-03.json"
        assert cli.main(["probe", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--task", task, "--seed", str(seed), "--out", str(out / "cli")]) == 0
        probed = [(out / "cli" / f"probe_{kind}_{task}.csv").read_text().splitlines()
                  for kind in ("partial", "tap")]
        assert probed == [[line for line in lines if line.split(",")[0] in ("task", task)]
                          for lines in (partial, tap)]
        cli_prompts, prompts[:] = list(prompts), []
        cfg = fileio.load_experiment_config(cfg_path)
        driver.probe_task(cfg.make_suite(), cfg.plan, 0, seed, tinylm.load_model(ckpt), task)
        assert cli_prompts == prompts and len(prompts) == 7 + 1 + 4 * 3

    def test_probe_command(self, run_dir, capsys):
        out = run_dir / "out"
        ckpt = out / "runs/none-o0-s3/checkpoints/stage-02.json"
        suite = taskgen.make_suite(2, 20, 6, seed=5, probe_per_task=4)
        task = suite.specs[0].task_id
        rc = cli.main(["probe", "--config", str(run_dir / "config.json"),
                       "--checkpoint", str(ckpt), "--task", task,
                       "--out", str(run_dir / "probes")])
        assert rc == 0
        partial = (run_dir / "probes" / f"probe_partial_{task}.csv").read_text().splitlines()
        assert partial[0] == "task,k,accuracy"
        assert len(partial) == 1 + 7
        tap = (run_dir / "probes" / f"probe_tap_{task}.csv").read_text().splitlines()
        assert tap[0] == "task,demo_count,draw,accuracy"
        assert len(tap) == 1 + 1 + 4 * 3

    def test_score_rgd_from_checkpoint(self, run_dir, capsys):
        out = run_dir / "out"
        ckpt = out / "runs/none-o0-s3/checkpoints/stage-02.json"
        rc = cli.main(["score-rgd", "--config", str(run_dir / "config.json"),
                       "--checkpoint", str(ckpt)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            assert doc["n"] == 4 and doc["mean"] > 0

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc.update(hidden_dim=99), "w_hidden"),
        (lambda doc: doc.pop("params"), "params"),
        # Shapes that agree with a zero-width window: every score would read 1.0.
        (lambda doc: (doc.update(context_len=0),
                      doc["params"]["w_hidden"].update(shape=[0, doc["hidden_dim"]], data="")),
         "bad.json: bad checkpoint: context_len must be a positive int, got 0"),
    ])
    def test_score_rgd_rejects_bad_checkpoint(self, run_dir, tmp_path, capsys, edit, named):
        doc = json.loads((run_dir / "out/runs/none-o0-s3/checkpoints/stage-02.json").read_text())
        edit(doc)
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(doc))
        rc = cli.main(["score-rgd", "--config", str(run_dir / "config.json"),
                       "--checkpoint", str(ckpt)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err

    @pytest.mark.parametrize("argv, named", [
        (["--strategy", "rgd", "--scores", "a=x"], "--scores: expected task=number, got 'a=x'"),
        (["--strategy", "rgd", "--scores", "a"], "--scores: expected task=number, got 'a'"),
        (["--strategy", "rgd", "--scores", "a=1", "--pools", "a=x"], "--pools"),
        (["--strategy", "rgd", "--scores", "a=1", "--pools", "a=1.5"],
         "--pools: expected task=integer, got 'a=1.5'"),
        (["--strategy", "rgd"], "rgd allocation needs --scores"),
        (["--strategy", "inscl"], "inscl allocation needs --distances"),
        (["--strategy", "equal"], "equal allocation needs --tasks"),
        (["--strategy", "rgd", "--scores", "a=nan,b=1"], "finite"),
        (["--strategy", "inscl", "--distances", "a=inf,b=1"], "finite"),
        (["--strategy", "equal", "--tasks", "a,a"], "task 'a' is given twice"),
        (["--strategy", "equal", "--tasks", "a,,b"], "task id '' is empty"),
        (["--strategy", "rgd", "--scores", "a=1,a=5,b=1"], "--scores: task 'a' is given twice"),
        (["--strategy", "rgd", "--scores", "=1,b=1"], "--scores: empty task id in '=1'"),
        (["--strategy", "rgd", "--scores", "a=1", "--pools", "a=1,a=2"],
         "--pools: task 'a' is given twice"),
        # the last --alpha given wins
        (["--strategy", "equal", "--tasks", "a,b", "--alpha", str(10**400)],
         f"budget must be at most {replay.MAX_BUDGET}"),
    ], ids=["score-not-a-number", "score-without-value", "pool-not-a-number",
            "pool-not-an-integer", "rgd-without-scores", "inscl-without-distances",
            "equal-without-tasks", "nan-score", "inf-distance", "repeated-task",
            "empty-task", "repeated-score", "empty-score-task", "repeated-pool",
            "budget-above-the-bound"])
    def test_allocate_bad_input_exits_one(self, tmp_path, capsys, argv, named):
        out_file = tmp_path / "plan.json"
        assert cli.main(["allocate", "--alpha", "5", *argv, "--out-file", str(out_file)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
        assert captured.out == "" and not out_file.exists()

    @pytest.mark.parametrize("text, named", [
        # A repeated task id merged two tasks' forgetting: F.Ra -20.0, not 15.0.
        ("stage,a,a,b\n1,50.0,,\n2,40.0,60.0,\n3,0.0,80.0,70.0\na0,50.0,50.0,50.0\n",
         "each task may appear once in the order, got ['a', 'a', 'b']"),
        ("stage,a,b\n1,50.0,99.0\n2,40.0,60.0\na0,50.0,50.0\n",
         "stage 1 scores a task it has not trained yet"),
        ("stage,a,b\n1,50.0,\n2,40.0,60.0\na0,50.0,50.0,7.0\n",
         "expected one a0 row of 2 scores"),
        ("stage,a,b\na0,50.0,50.0\n1,50.0,\n2,40.0,60.0\na0,50.0,70.0\n",
         "expected one a0 row of 2 scores"),
        ("stage,a,b\n1,50.0,\n2,40.0,60.0\na0,50.0\n",
         "rows and a0 must have one entry per task"),
        ("stage,a,b\n1,200.0,\n2,40.0,60.0\na0,50.0,50.0\n",
         "performance 200.0 outside [0, 100]"),
    ], ids=["repeated-task", "untrained-cell", "long-a0", "two-a0", "short-a0", "score-200"])
    def test_metrics_malformed_matrix_exits_one(self, tmp_path, capsys, text, named):
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        assert cli.main(["metrics", "--matrix", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and named in err[0], err
        assert captured.out == ""

    def test_metrics_non_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"stage,caf\xe9\n1,50.0\na0,50.0\n")
        with pytest.raises(ParseError, match="latin1.csv"):
            fileio.read_matrix(path)
        assert cli.main(["metrics", "--matrix", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "latin1.csv" in err[0], err

    def test_allocate_huge_score(self, capsys):
        assert cli.main(["allocate", "--strategy", "rgd", "--alpha", "3",
                         "--scores", "a=1e308"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"] == {"a": 3}

    def test_allocate_strategies_are_the_table(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["allocate", "--help"])
        assert "--strategy {%s}" % ",".join(cli._ALLOCATE) in capsys.readouterr().out

    def test_allocate_with_pools(self, capsys):
        rc = cli.main(["allocate", "--strategy", "rgd", "--alpha", "10",
                       "--scores", "a=1,b=1", "--pools", "a=2,b=100"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"a": 2, "b": 8}
        assert doc["shortfalls"] == {"a": 3}

    def test_allocate_binding_pool_stdout(self, capsys):
        # capped tasks come first: the key order is part of the output's bytes
        assert cli.main(["allocate", "--strategy", "rgd", "--alpha", "10",
                         "--scores", "a=1,b=3,c=1", "--pools", "a=100,b=2,c=100"]) == 0
        assert capsys.readouterr().out == (
            '{"budget": 10, "strategy": "rgd", "counts": {"b": 2, "a": 4, "c": 4}, '
            '"shortfalls": {"b": 4}}\n')

    def test_report_command_aggregates(self, tmp_path, capsys):
        raw = [{"strategy": "none", "run_seed": 1, "order_index": 0, "suite": "s",
                "fap": 40.0, "cap": 80.0, "f_ra": 30.0, "bwt": -20.0, "fwt": 0.5},
               {"strategy": "none", "run_seed": 1, "order_index": 1, "suite": "s",
                "fap": 60.0, "cap": 80.0, "f_ra": 10.0, "bwt": -10.0, "fwt": 1.5}]
        run_dir = tmp_path / "exp"
        run_dir.mkdir()
        (run_dir / "report_raw.json").write_text(json.dumps(raw))
        assert cli.main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "CL,50.0,20.0,-15.0,1.0,80.0" in out

    @pytest.mark.parametrize("text", [
        "not json",
        json.dumps({"strategy": "none"}),
        json.dumps([{"strategy": "none", "run_seed": 1}]),
    ])
    def test_report_rejects_malformed_raw(self, tmp_path, capsys, text):
        run_dir = tmp_path / "exp"
        run_dir.mkdir()
        (run_dir / "report_raw.json").write_text(text)
        with pytest.raises(ParseError, match="report_raw.json"):
            fileio.read_report_raw(run_dir / "report_raw.json")
        assert cli.main(["report", str(run_dir)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "report_raw.json" in err[0]

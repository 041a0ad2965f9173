"""Codec, configuration and command-line surface tests."""

import filecmp
import json
import math
import os
import stat
import threading
from pathlib import Path

import pytest

from rgdlab import artifacts, cli, fileio, replay, rgd, taskgen, tinylm
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
                                  suite_fingerprint=fp, **base)

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

    def test_orders_validation(self):
        doc = good_config()
        doc["orders"] = [0]
        cfg = fileio.experiment_config_from_dict(doc)
        assert cfg.plan.order_indices == (0,)
        doc["orders"] = [2]
        with pytest.raises(ConfigError):
            fileio.experiment_config_from_dict(doc)

    def test_output_dir_required(self):
        doc = good_config()
        del doc["output_dir"]
        old = os.environ.pop("RGDLAB_OUT", None)
        try:
            with pytest.raises(ConfigError, match="output_dir"):
                fileio.experiment_config_from_dict(doc)
        finally:
            if old is not None:
                os.environ["RGDLAB_OUT"] = old


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("configs/*.json")),
                         ids=lambda path: path.name)
def test_checked_in_config_loads(path, tmp_path):
    cfg = fileio.load_experiment_config(path, output_dir=tmp_path)
    assert cfg.output_dir == str(tmp_path)


@pytest.mark.parametrize("key, value, named", [
    ("run_seeds", ["x"], "run_seeds[0]"),
    ("run_probes", "false", "run_probes"),
    ("threads", "two", "threads"),
    ("train.learning_rate", "0.1", "train.learning_rate"),
    ("model.hidden_dim", 1.5, "model.hidden_dim"),
    ("strategies", "none", "strategies"),
    ("train.learning_rate", 0, "train: learning_rate"),
    ("rgd_eval_size", -4, "rgd_eval_size"),
    ("strategies", ["none", "none"], "each strategy may appear once"),
    ("run_seeds", [5, 5], "each run seed may appear once"),
    ("orders", [0, 0], "each order index may appear once"),
    ("probes.k_grid", [0.0, 1.5], "k_grid"),
    ("probes.k_grid", [-0.1], "k_grid"),
    ("probes.demo_counts", [0, 1], "demo_counts"),
    ("probes.demo_draws", 0, "demo_draws"),
    ("probes.top_forgotten", 0, "top_forgotten"),
    ("suite.seed", -3, "seed must be >= 0"),
    ("run_seeds", [-5], "run seeds must be >= 0"),
])
def test_bad_config_value_exits_one(tmp_path, capsys, key, value, named):
    doc = good_config()
    *sections, leaf = key.split(".")
    target = doc
    for section in sections:
        target = target.setdefault(section, {})
    target[leaf] = value
    assert_run_seq_rejects(doc, named, tmp_path, capsys)


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
                      run_probes=True, replay={"budget": 30},
                      probes={"k_grid": [0.0, 1.0], "demo_counts": [1], "demo_draws": 1,
                              "top_forgotten": 1})
        config["suite"] = {**config["suite"], "num_tasks": 3}
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

    def test_shared_checkpoints_encoded_once(self, run_dir, monkeypatch):
        config = json.loads((run_dir / "config.json").read_text())
        config["strategies"] = ["none", "equal"]
        cfg_path = run_dir / "shared-config.json"
        cfg_path.write_text(json.dumps(config))
        saved = []
        save = tinylm.save_model

        def counting(model, path, *copies):
            saved.append((path, *copies))
            save(model, path, *copies)

        monkeypatch.setattr(tinylm, "save_model", counting)
        out = run_dir / "shared"
        assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out)]) == 0
        files = sorted(out.glob("runs/*/checkpoints/*.json"))
        assert sorted(Path(p) for paths in saved for p in paths) == files
        assert len(files) == 4
        # stage 1 never replays, so both runs hold one checkpoint for it
        assert len(saved) == len({f.read_bytes() for f in files}) == 3
        assert filecmp.cmp(out / "runs/none-o0-s3/checkpoints/stage-01.json",
                           out / "runs/equal-o0-s3/checkpoints/stage-01.json", shallow=False)

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
        again = fileio.experiment_config_from_dict(
            {**resolved, "output_dir": original.output_dir})
        assert again == original

    def test_probe_command(self, run_dir, capsys):
        out = run_dir / "out"
        ckpt = out / "runs/none-o0-s3/checkpoints/stage-02.json"
        suite = taskgen.make_suite(2, 20, 6, seed=5, probe_per_task=4)
        task = suite.specs[0].task_id
        rc = cli.main(["probe", "--config", str(run_dir / "config.json"),
                       "--checkpoint", str(ckpt), "--task", task,
                       "--kind", "both", "--out", str(run_dir / "probes")])
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
    ], ids=["score-not-a-number", "score-without-value", "pool-not-a-number",
            "pool-not-an-integer", "rgd-without-scores", "inscl-without-distances",
            "equal-without-tasks", "nan-score", "inf-distance", "repeated-task",
            "empty-task", "repeated-score", "empty-score-task", "repeated-pool"])
    def test_allocate_bad_input_exits_one(self, tmp_path, capsys, argv, named):
        out_file = tmp_path / "plan.json"
        assert cli.main(["allocate", "--alpha", "5", *argv, "--out-file", str(out_file)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
        assert captured.out == "" and not out_file.exists()

    def test_metrics_non_utf8_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"stage,caf\xe9\n1,50.0\na0,50.0\n")
        with pytest.raises(ParseError, match="latin1.csv"):
            fileio.read_matrix(path)
        assert cli.main(["metrics", "--matrix", str(path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "latin1.csv" in err[0], err

    def test_allocate_with_pools(self, capsys):
        rc = cli.main(["allocate", "--strategy", "rgd", "--alpha", "10",
                       "--scores", "a=1,b=1", "--pools", "a=2,b=100"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"a": 2, "b": 8}
        assert doc["shortfalls"] == {"a": 3}

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

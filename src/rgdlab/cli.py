"""Command-line entry point.

Subcommands: gen-suite, run-seq, probe, score-rgd, allocate, metrics, report.
Every command exits 0 only if all requested artifacts were written; argument
or validation problems print a message and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import artifacts, clmetrics, driver, fileio, replay, rgd, taskgen, tinylm
from .errors import ConfigError, InputError, RgdLabError


def _write_suite(suite: taskgen.Suite, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for split, table in (("train", suite.train), ("eval", suite.eval),
                         ("probe", suite.probe)):
        examples = [ex for spec in suite.specs for ex in table[spec.task_id]]
        fileio.write_examples(examples, os.path.join(out_dir, f"{split}.jsonl"))
    manifest = {
        "seed": suite.seed,
        "num_tasks": len(suite.specs),
        "orders": [list(o) for o in suite.orders],
        "tasks": [{
            "task_id": s.task_id,
            "instruction_template": " ".join(s.instruction) + " {input}",
            "label_set": list(s.label_set),
            "input_grammar": {k: list(v) if isinstance(v, tuple) else v
                              for k, v in s.input_grammar.items()},
            "rationale_template": taskgen.RATIONALE_TEMPLATE,
        } for s in suite.specs],
    }
    artifacts.write_json(os.path.join(out_dir, "suite.json"), manifest)


def _cmd_gen_suite(args) -> int:
    suite = taskgen.make_suite(args.tasks, args.train, args.eval_, seed=args.seed,
                               probe_per_task=args.probe)
    _write_suite(suite, args.out)
    leaks = [leak for spec in suite.specs
             for leak in taskgen.scan_answer_leak(
                 suite.train[spec.task_id] + suite.eval[spec.task_id]
                 + suite.probe[spec.task_id], spec)]
    if leaks:
        print(f"answer-leak scan failed for: {leaks[:5]}", file=sys.stderr)
        return 1
    print(f"suite written to {args.out}")
    return 0


def _write_run_artifacts(result: driver.ExperimentResult, cfg: fileio.ExperimentConfig,
                         root: str) -> None:
    os.makedirs(root, exist_ok=True)
    given = {k: v for k, v in cfg.raw.items() if k != "output_dir"}
    artifacts.write_json(os.path.join(root, "config.json"),
                         {"given": given, "resolved": fileio.resolved_config_doc(cfg)},
                         sort_keys=True)
    artifacts.write_json(os.path.join(root, "singles.json"),
                         {str(k): v for k, v in result.singles.items()})
    artifacts.write_json(os.path.join(root, "multis.json"),
                         {str(k): v for k, v in result.multis.items()})

    for record in result.runs:
        run_dir = os.path.join(root, "runs", driver.run_dir_name(
            record.strategy, record.run_seed, record.order_index))
        os.makedirs(run_dir, exist_ok=True)
        fileio.write_matrix(record.result.matrix, os.path.join(run_dir, "matrix.csv"))
        artifacts.write_jsonl(os.path.join(run_dir, "plans.jsonl"),
                              (fileio.plan_doc(p) for p in record.result.plans if p is not None))
        artifacts.write_jsonl(os.path.join(run_dir, "summaries.jsonl"),
                              (fileio.summary_doc(s, stage=i + 1)
                               for i, stage in enumerate(record.result.summaries)
                               for s in stage.values()))

    if result.probes:
        fileio.write_probe_csvs(result.probes, os.path.join(root, "probe_partial.csv"),
                                os.path.join(root, "probe_tap.csv"))

    fileio.emit_report(fileio.experiment_table_records(result),
                       os.path.join(root, "report.csv"),
                       os.path.join(root, "report_raw.json"))


def _cmd_run_seq(args) -> int:
    from . import pool    # here, as in driver.run_experiment: only a grid needs it

    cfg = fileio.load_experiment_config(args.config)
    root = args.out or cfg.output_dir
    if not root:
        raise ConfigError("output_dir is required: give --out or set output_dir in the config")
    pool.start(cfg.plan.workers)            # the workers start while the suite is made
    suite = cfg.make_suite()
    # The pool workers write the stage checkpoints (see driver.run_experiment).
    runs_dir = os.path.join(root, "runs") if cfg.plan.save_checkpoints else None
    result = driver.run_experiment(suite, cfg.plan, runs_dir)
    _write_run_artifacts(result, cfg, root)
    print(f"experiment artifacts written to {root}")
    return 0


def _cmd_probe(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    cfg = fileio.load_experiment_config(args.config)
    suite = cfg.make_suite()
    suite.spec(args.task)                   # unknown task: InputError
    model = tinylm.load_model(args.checkpoint)
    # Order 0 is the spec order, so the TAP demo pool is every other task's train data.
    record = driver.probe_task(suite, cfg.plan, 0, args.seed, model, args.task)
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, f"probe_{kind}_{args.task}.csv")
             for kind in ("partial", "tap")]
    fileio.write_probe_csvs([record], *paths)
    print("wrote " + ", ".join(paths))
    return 0


def _cmd_score_rgd(args) -> int:
    if args.from_records:
        if args.checkpoint or args.config:
            raise InputError("--from-records cannot be combined with --checkpoint or --config")
        records = fileio.import_ppl_records(args.from_records)
        by_task: dict[str, list] = {}
        for r in records:
            by_task.setdefault(r.task_id, []).append(r)
        if args.task:
            if args.task not in by_task:
                raise InputError(f"unknown task {args.task!r}")
            by_task = {args.task: by_task[args.task]}
        summaries = [rgd.task_rgd(by_task[task]) for task in sorted(by_task)]
    else:
        if not (args.checkpoint and args.config):
            raise InputError("need --from-records, or --checkpoint with --config")
        cfg = fileio.load_experiment_config(args.config)
        suite = cfg.make_suite()
        if args.task:
            suite.spec(args.task)           # unknown task: InputError
        model = tinylm.load_model(args.checkpoint)
        summaries = [driver.score_task_rgd(model, suite.probe[spec.task_id])
                     for spec in suite.specs if not args.task or spec.task_id == args.task]
    docs = [{**fileio.summary_doc(s), "scalar": rgd.summary_scalar(s)}
            for s in summaries]
    if args.out_file:
        artifacts.write_jsonl(args.out_file, docs)
    for doc in docs:
        print(json.dumps(doc))
    return 0


def _parse_kv(flag: str, text: str, convert) -> dict:
    """``task=value,...`` pairs of ``flag``, each value read by ``convert`` (float or int)."""
    out = {}
    for part in text.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not key:
            raise InputError(f"{flag}: empty task id in {part!r}")
        if key in out:
            raise InputError(f"{flag}: task {key!r} is given twice")
        try:
            if not sep:
                raise ValueError
            out[key] = convert(value)
        except ValueError:
            kind = "integer" if convert is int else "number"
            raise InputError(f"{flag}: expected task={kind}, got {part!r}") from None
    if not out:
        raise InputError(f"{flag}: no task=value pairs given")
    return out


# Each allocation strategy: the flag that carries its input, its parser, the allocator.
_ALLOCATE = {
    "equal": ("--tasks", lambda flag, text: text.split(","), replay.allocate_equal),
    "rgd": ("--scores", functools.partial(_parse_kv, convert=float), replay.allocate_rgd),
    "inscl": ("--distances", functools.partial(_parse_kv, convert=float), replay.allocate_inscl),
}


def _cmd_allocate(args) -> int:
    flag, parse, allocate = _ALLOCATE[args.strategy]
    text = getattr(args, flag[2:])
    if not text:
        raise InputError(f"{args.strategy} allocation needs {flag}")
    plan = allocate(parse(flag, text), args.alpha)
    if args.pools:
        plan = replay.fit_to_pools(plan, _parse_kv("--pools", args.pools, int))
    doc = fileio.plan_doc(plan)
    if args.out_file:
        artifacts.write_json(args.out_file, doc)
    print(json.dumps(doc))
    return 0


def _cmd_metrics(args) -> int:
    matrix = fileio.read_matrix(args.matrix)
    report = clmetrics.compute_report(matrix)
    if args.out_json:
        artifacts.write_json(args.out_json, fileio.report_json_doc(report))
    text = fileio.report_csv_text(report)
    if args.out_csv:
        artifacts.write_text(args.out_csv, text)
    print(text, end="")
    return 0


def _cmd_report(args) -> int:
    records = [record for root in args.runs
               for record in fileio.read_report_raw(os.path.join(root, "report_raw.json"))]
    text = fileio.emit_report(records, args.out_file, None)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgdlab",
        description="Desk-scale continual-learning lab with difficulty-guided replay.",
        allow_abbrev=False)
    # No flag may be shortened: a removed or mistyped flag is an error, not a prefix.
    subcommand = functools.partial(parser.add_subparsers(dest="command", required=True)
                                   .add_parser, allow_abbrev=False)

    p = subcommand("gen-suite", help="generate synthetic task corpora")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--train", type=int, required=True)
    p.add_argument("--eval", dest="eval_", type=int, required=True)
    p.add_argument("--probe", type=int, default=32)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_suite)

    p = subcommand("run-seq", help="run the full sequential experiment grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="overrides config output_dir")
    p.set_defaults(func=_cmd_run_seq)

    p = subcommand("probe", help="probe a checkpoint on one task")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_probe)

    p = subcommand("score-rgd", help="difficulty summaries from records or a checkpoint")
    p.add_argument("--from-records", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--task", default=None)
    p.add_argument("--out-file", default=None)
    p.set_defaults(func=_cmd_score_rgd)

    p = subcommand("allocate", help="compute a replay allocation plan")
    p.add_argument("--strategy", choices=tuple(_ALLOCATE), required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--tasks", default=None, help="comma-separated ids (equal)")
    p.add_argument("--scores", default=None, help="task=score,... (rgd)")
    p.add_argument("--distances", default=None, help="task=distance,... (inscl)")
    p.add_argument("--pools", default=None, help="task=pool_size,... caps the counts")
    p.add_argument("--out-file", default=None)
    p.set_defaults(func=_cmd_allocate)

    p = subcommand("metrics", help="metric report from a performance matrix CSV")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=_cmd_metrics)

    p = subcommand("report", help="aggregate run directories into one table")
    p.add_argument("runs", nargs="+")
    p.add_argument("--out-file", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RgdLabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:              # e.g. model dims too large to allocate
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

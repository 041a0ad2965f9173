"""File formats, configuration loading and the external-record adapter.

Corpora and record streams are JSON-lines with fixed field names; matrices
and report tables are CSV.  Everything written here is a pure function of
its inputs, so rerunning a configuration reproduces files byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import types
import typing
from dataclasses import dataclass, field

from . import artifacts, clmetrics, driver, replay, rgd, taskgen
from .errors import ConfigError, InputError, ParseError

METRIC_COLUMNS = ("FAP", "F.Ra", "BWT", "FWT", "CAP")
# The MetricsReport and TableRecord attribute of each column.
METRIC_FIELDS = ("fap", "f_ra", "bwt", "fwt", "cap")
# In the order of the comparison table's rows.
REPORT_STRATEGY_LABELS = {
    "single": "Single",
    "multi": "Multi",
    "none": "CL",
    "equal": "EA",
    "inscl": "InsCL",
    "rgd-mean": "RGD",
}


def _fmt(value) -> str:
    """CSV cell for a metric value: three decimals, no trailing zeros."""
    if value is None:
        return ""
    return repr(round(float(value), 3))


# ---------------------------------------------------------------- examples

def write_examples(examples, path) -> None:
    artifacts.write_jsonl(path, ({
        "task": ex.task_id,
        "id": ex.id,
        "instruction": " ".join(ex.instruction),
        "rationale": " ".join(ex.rationale),
        "answer": ex.answer,
    } for ex in examples))


# ------------------------------------------------------------- PPL records

def import_ppl_records(path) -> list[rgd.PplRecord]:
    """All-or-nothing load; malformed lines are reported with their number.

    Values are checked as a config file's are: ``task`` and ``id`` must be
    JSON strings, the NLL sums JSON numbers and the token count a JSON integer.
    """
    return artifacts.read_jsonl(path, lambda doc: rgd.PplRecord(
        task_id=_convert(doc["task"], str, "task"),
        example_id=_convert(doc["id"], str, "id"),
        nll_cond_sum=_convert(doc["nll_cond_sum"], float, "nll_cond_sum"),
        nll_uncond_sum=_convert(doc["nll_uncond_sum"], float, "nll_uncond_sum"),
        n_rationale_tokens=_convert(doc["n_rationale_tokens"], int, "n_rationale_tokens"),
    ), "record")


# ------------------------------------------------------ plans and summaries

def plan_doc(plan: replay.AllocationPlan) -> dict:
    return {
        "budget": plan.budget,
        "strategy": plan.strategy,
        "counts": dict(plan.counts),
        "shortfalls": dict(plan.shortfalls),
    }


def summary_doc(summary: rgd.RgdSummary, stage: int | None = None) -> dict:
    doc = {"task": summary.task_id, "mean": summary.mean,
           "std": summary.std, "n": summary.n}
    if stage is not None:
        doc = {"stage": stage, **doc}
    return doc


def read_summaries(path) -> list[rgd.RgdSummary]:
    """Values are checked as in ``import_ppl_records``: ``task`` must be a
    JSON string, mean and std JSON numbers and n a JSON integer."""
    return artifacts.read_jsonl(path, lambda doc: rgd.RgdSummary(
        task_id=_convert(doc["task"], str, "task"), mean=_convert(doc["mean"], float, "mean"),
        std=_convert(doc["std"], float, "std"), n=_convert(doc["n"], int, "n")),
        "summary")


# --------------------------------------------------------- matrices, reports

def csv_text(rows) -> str:
    """``rows`` as CSV text, each row ended by a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def matrix_csv_text(m: clmetrics.PerfMatrix) -> str:
    return csv_text([
        ["stage", *m.order],
        *([str(i + 1)] + [repr(float(v)) for v in row] + [""] * (m.num_tasks - len(row))
          for i, row in enumerate(m.rows)),
        ["a0", *(repr(float(v)) for v in m.a0)],
    ])


def write_matrix(m: clmetrics.PerfMatrix, path) -> None:
    artifacts.write_text(path, matrix_csv_text(m))


def read_matrix(path) -> clmetrics.PerfMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            reader = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as err:
            raise ParseError(f"{path}: not a CSV matrix: {err}") from None
    if not reader or reader[0][:1] != ["stage"]:
        raise ParseError(f"{path}: missing matrix header")
    order = tuple(reader[0][1:])
    rows = []
    a0 = None
    try:
        for row in reader[1:]:
            if not row:
                continue
            if row[0] == "a0":
                if a0 is not None or len(row) > 1 + len(order):
                    raise ValueError(f"expected one a0 row of {len(order)} scores")
                a0 = tuple(float(v) for v in row[1:])
                continue
            stage = int(row[0])
            if stage >= 1 and any(v.strip() for v in row[1 + stage:]):
                raise ValueError(f"stage {stage} scores a task it has not trained yet")
            rows.append((stage, tuple(float(v) for v in row[1:1 + stage])))
    except ValueError as err:
        raise ParseError(f"{path}: bad matrix row: {err}") from None
    if a0 is None:
        raise ParseError(f"{path}: missing a0 row")
    rows.sort(key=lambda sr: sr[0])
    if [s for s, _ in rows] != list(range(1, len(order) + 1)):
        raise ParseError(f"{path}: stages must be 1..{len(order)}")
    try:
        return clmetrics.PerfMatrix(order=order, rows=tuple(r for _, r in rows), a0=a0)
    except InputError as err:
        raise ParseError(f"{path}: {err}") from None


def report_json_doc(report: clmetrics.MetricsReport) -> dict:
    return {**{f: getattr(report, f) for f in METRIC_FIELDS},
            "per_task_forgetting": dict(report.per_task_forgetting)}


def report_csv_text(report: clmetrics.MetricsReport) -> str:
    return csv_text([METRIC_COLUMNS, [_fmt(getattr(report, f)) for f in METRIC_FIELDS]])


# --------------------------------------------------------- comparison table

@dataclass(frozen=True, kw_only=True)
class TableRecord:
    """One run's metric set plus the grouping metadata used for averaging;
    its fields, in order, are the keys of a ``report_raw.json`` row."""

    strategy: str                       # key of REPORT_STRATEGY_LABELS
    run_seed: int
    order_index: int
    suite: str                          # suite_fingerprint of the run's suite
    fap: float
    f_ra: float | None = None
    bwt: float | None = None
    fwt: float | None = None
    cap: float


def suite_fingerprint(suite: taskgen.Suite) -> str:
    sizes = (len(next(iter(suite.train.values()))), len(next(iter(suite.eval.values()))),
             len(next(iter(suite.probe.values()))))
    return f"tasks={len(suite.specs)};sizes={sizes};seed={suite.seed}"


def emit_report(records, path_csv, path_raw=None) -> str:
    """Averaged comparison table; raw per-run values retained alongside.

    Rows follow the fixed strategy order; every record must come from the
    same suite.
    """
    records = list(records)
    if not records:
        raise InputError("no records to report")
    prints = {r.suite for r in records}
    if len(prints) != 1:
        raise InputError(f"records mix different suites: {sorted(prints)}")

    by_label: dict[str, list[TableRecord]] = {}
    for r in records:
        label = REPORT_STRATEGY_LABELS.get(r.strategy)
        if label is None:
            raise InputError(f"unknown strategy {r.strategy!r}")
        by_label.setdefault(label, []).append(r)

    def mean_of(group, attr):
        values = [getattr(g, attr) for g in group]
        if any(v is None for v in values):
            return None
        return sum(values) / len(values)

    text = csv_text([["strategy", *METRIC_COLUMNS]] + [
        [label] + [_fmt(mean_of(by_label[label], f)) for f in METRIC_FIELDS]
        for label in REPORT_STRATEGY_LABELS.values() if label in by_label])
    if path_csv is not None:
        artifacts.write_text(path_csv, text)
    if path_raw is not None:
        artifacts.write_json(path_raw, [dataclasses.asdict(r) for r in records])
    return text


def read_report_raw(path) -> list[TableRecord]:
    """The per-run rows that emit_report wrote to ``path_raw``."""
    docs = artifacts.read_json(path)
    try:
        return list(_convert(docs, tuple[TableRecord, ...], "rows"))
    except ConfigError as err:
        raise ParseError(f"{path}: {err}") from None


def experiment_table_records(result: driver.ExperimentResult) -> list[TableRecord]:
    """Rows for every run plus Single/Multi baseline pseudo-rows."""
    fingerprint = suite_fingerprint(result.suite)
    records = []
    for seed, scores in result.singles.items():
        mean = sum(scores.values()) / len(scores)
        records.append(TableRecord(strategy="single", run_seed=seed, order_index=0,
                                   suite=fingerprint, fap=mean, cap=mean))
    for seed, scores in result.multis.items():
        mean = sum(scores.values()) / len(scores)
        records.append(TableRecord(strategy="multi", run_seed=seed, order_index=0,
                                   suite=fingerprint, fap=mean, cap=mean))
    for run in result.runs:
        records.append(TableRecord(
            strategy=run.strategy, run_seed=run.run_seed, order_index=run.order_index,
            suite=fingerprint, fap=run.report.fap, cap=run.report.cap,
            f_ra=run.report.f_ra, bwt=run.report.bwt, fwt=run.report.fwt))
    return records


# --------------------------------------------------------------- probe CSVs

def write_probe_csvs(records, partial_path, tap_path) -> None:
    """The partial-rationale and TAP grids of ``driver.ProbeRecord``s, one row per arm."""
    artifacts.write_text(partial_path, csv_text([("task", "k", "accuracy"), *(
        (p.task_id, repr(float(k)), repr(float(acc))) for p in records for k, acc in p.partial)]))
    artifacts.write_text(tap_path, csv_text([("task", "demo_count", "draw", "accuracy"), *(
        (p.task_id, n, draw, repr(float(acc))) for p in records for n, draw, acc in p.tap)]))


# ------------------------------------------------------ experiment config

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-resolved description of a run-seq experiment."""

    suite: taskgen.SuiteSettings
    plan: driver.ExperimentPlan
    output_dir: str | None          # run-seq's output root unless --out gives one
    raw: dict = field(default_factory=dict, compare=False)

    def make_suite(self) -> taskgen.Suite:
        return taskgen.make_suite(**vars(self.suite))


def _convert(value, hint, path: str):
    """``value`` checked against the type annotation ``hint``; errors name ``path``."""
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        return _build(hint, value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):       # only X | None occurs
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _convert(value, inner, path)
    if origin is tuple:                                  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(_convert(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if hint is float else (hint,)
    if not isinstance(value, accepted) or (hint is not bool and isinstance(value, bool)):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    return hint(value)


def _build(cls, doc: dict, path: str = ""):
    """Dataclass ``cls`` from a JSON object keyed by its field names; absent
    keys take the field defaults, and an error ``cls`` raises is prefixed
    with ``path``."""
    hints = typing.get_type_hints(cls)

    def where(key):
        return f"{path}.{key}" if path else key

    for key in doc:
        if key not in hints:
            raise ConfigError(f"unknown key {where(key)!r}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in doc:
            kwargs[f.name] = _convert(doc[f.name], hints[f.name], where(f.name))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where(f.name)} is required")
    try:
        return cls(**kwargs)
    except ConfigError as err:
        if not path:
            raise
        raise ConfigError(f"{path}: {err}") from None


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate a config file; every seed must be explicit."""
    return experiment_config_from_dict(artifacts.read_json(path), where=str(path))


def experiment_config_from_dict(doc: dict, where="config") -> ExperimentConfig:
    """Besides ``suite`` and ``output_dir``, every key of ``doc`` is a field of
    ``driver.ExperimentPlan``, and a nested object's keys are the fields of
    that field's settings class."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: config must be a JSON object")
    if "suite" not in doc:
        raise ConfigError("suite is required")
    suite = _convert(doc["suite"], taskgen.SuiteSettings, "suite")
    plan = _build(driver.ExperimentPlan,
                  {k: v for k, v in doc.items() if k not in ("suite", "output_dir")})
    out = _convert(doc.get("output_dir"), str | None, "output_dir")
    return ExperimentConfig(suite=suite, plan=plan, output_dir=out, raw=doc)


def resolved_config_doc(cfg: ExperimentConfig) -> dict:
    """Every effective setting, defaults included, keyed as in a config file."""
    return {"suite": dataclasses.asdict(cfg.suite), **dataclasses.asdict(cfg.plan)}

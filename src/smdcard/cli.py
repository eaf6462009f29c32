"""Command-line interface.

Subcommands: ``evaluate`` (compute a quality report), ``card`` (render a
dataset card from a manifest plus a report), ``calibrate`` (suggest
normalization bounds from reference self-splits), ``fixtures`` (emit
deterministic test datasets with injected defects: ``harness`` checks each
recipe value, and every dataset is built before one is written).

Exit codes: 0 success, 2 validation/configuration error, 1 internal error.
Errors go to stderr as one machine-readable line each: ``E<code>: <message>``.
Output files are written atomically; a failing run never leaves partial
output behind. ``SMDCARD_SEED`` overrides the default seed when the config
omits one. Each command imports the modules it uses when it runs, so
``card`` loads no numpy and ``import smdcard.cli`` no third-party module.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from . import __version__
from .errors import ConfigError, EvaluationError, SmdError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smdcard",
        description="Evaluate synthetic datasets against reference data and "
                    "render dataset cards.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="compute a quality report")
    p_eval.add_argument("--real", help="reference embeddings (CSV/JSONL)")
    p_eval.add_argument("--synthetic", required=True,
                        help="synthetic embeddings (CSV/JSONL)")
    p_eval.add_argument("--table", help="synthetic record table (CSV)")
    p_eval.add_argument("--images", help="two-column image-pair manifest")
    p_eval.add_argument("--config", required=True, help="evaluation config (YAML)")
    p_eval.add_argument("--out", required=True, help="report output path (JSON)")
    p_eval.add_argument("--validate-config", action="store_true",
                        help="check the full plan without computing")
    p_eval.add_argument("--workers", type=int, default=1,
                        help="accepted for existing command lines; selects "
                             "nothing: every task runs in this process")
    p_eval.set_defaults(func=cmd_evaluate)

    p_card = sub.add_parser("card", help="render a dataset card")
    p_card.add_argument("--manifest", required=True,
                        help="descriptive manifest (YAML)")
    p_card.add_argument("--report", required=True, help="quality report (JSON)")
    p_card.add_argument("--format", required=True,
                        choices=["structured", "md", "html"])
    p_card.add_argument("--out", required=True, help="card output path")
    p_card.set_defaults(func=cmd_card)

    p_cal = sub.add_parser("calibrate",
                           help="suggest normalization bounds from a "
                                "reference self-run")
    p_cal.add_argument("--real", required=True,
                       help="reference embeddings (CSV/JSONL)")
    p_cal.add_argument("--config", required=True, help="evaluation config (YAML)")
    p_cal.add_argument("--out", required=True, help="bounds output path (YAML)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_fix = sub.add_parser("fixtures",
                           help="emit deterministic fixtures with injected "
                                "defects")
    p_fix.add_argument("--recipe", required=True, help="fixture recipe (YAML)")
    p_fix.add_argument("--out", required=True, help="output directory")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


def _load_inputs(args, config):
    """The ``runner.EvaluationInputs`` that ``args`` name."""
    from . import ingest, runner
    labels = (config.id_column, config.subgroup_column, config.region_column)
    real = features = None
    if args.real:
        real, features = ingest.read_reference(args.real, *labels)
    synthetic = ingest.read_embeddings(args.synthetic, *labels,
                                       features=features)
    table = None
    if args.table:
        if config.table_schema is None:
            raise ConfigError("a --table input needs tables.schema in the config")
        table = ingest.read_record_table(args.table, config.table_schema,
                                         config.missing_sentinel)
    real_table = None
    if config.real_table_path:
        if config.table_schema is None:
            raise ConfigError("tables.real needs tables.schema in the config")
        path = ingest.resolve_path(config.real_table_path, args.config)
        real_table = ingest.read_record_table(path, config.table_schema,
                                              config.missing_sentinel)
    image_pairs = None
    if args.images:
        image_pairs = []
        for real_path, synth_path in ingest.read_image_pairs(args.images):
            img_r, maxval_r = ingest.read_pgm(real_path)
            img_s, maxval_s = ingest.read_pgm(synth_path)
            peak = 255 if max(maxval_r, maxval_s) <= 255 else 65535
            image_pairs.append((img_r, img_s, peak))
    class_probs = None
    probs_path = config.param("inception_score", "probs_path")
    if probs_path and "inception_score" in config.metrics:
        eset = ingest.read_embeddings(ingest.resolve_path(probs_path, args.config),
                                      id_column=config.id_column)
        class_probs = eset.data
    return runner.EvaluationInputs(
        synthetic=synthetic, real=real, table=table, real_table=real_table,
        image_pairs=image_pairs, class_probs=class_probs)


def cmd_evaluate(args) -> int:
    from . import documents, ingest, runner
    config = ingest.read_eval_config(args.config)
    inputs = _load_inputs(args, config)
    if args.validate_config:
        runner.plan(inputs, config)
        print("plan ok: "
              f"{len(config.metrics)} metrics, seed {config.effective_seed()}")
        return 0
    report = runner.run_evaluation(inputs, config)
    documents.write_report(report, args.out)
    print(f"{'criterion':<14} {'score':>7}  verdict")
    for block in report.scope("global").criteria:
        score = "-" if block.score is None else format(block.score, ".2f")
        print(f"{block.criterion:<14} {score:>7}  {block.verdict}")
    print(f"report written to {args.out}")
    return 0


def cmd_card(args) -> int:
    from . import card as card_mod, documents
    manifest = documents.read_yaml(args.manifest)
    report, payload = documents.read_report(args.report)
    digest = card_mod.digest_of(payload)
    card = card_mod.build_card(manifest, report, report_digest=digest)
    documents.atomic_write(args.out, card_mod.render(card, args.format))
    print(f"card written to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    from . import ingest, runner
    config = ingest.read_eval_config(args.config)
    real, _ = ingest.read_reference(args.real, config.id_column,
                                    config.subgroup_column,
                                    config.region_column)
    bounds = runner.calibrate_bounds(real, config)
    if not bounds:
        raise ConfigError("no selected embedding metric without two analytic "
                          "ends gave a value on the reference self-splits; "
                          "nothing to calibrate")
    ingest.write_bounds(args.out, bounds)
    print(f"bounds for {len(bounds)} metrics written to {args.out}")
    return 0


def cmd_fixtures(args) -> int:
    from . import documents, ingest, model
    try:
        files = _build_fixtures(documents.read_yaml(args.recipe))
    except EvaluationError as exc:
        raise ConfigError(f"{args.recipe}: {exc}") from None
    writers = {model.EmbeddingSet: ingest.write_embeddings,
               model.RecordTable: ingest.write_record_table,
               list: lambda descriptors, path: documents.atomic_write(
                   path, documents.dumps_canonical(descriptors).encode())}
    os.makedirs(args.out, exist_ok=True)
    for name, content in files:
        path = os.path.join(args.out, name)
        writers[type(content)](content, path)
        print(f"wrote {path}")
    return 0


def _build_fixtures(recipe: dict) -> list[tuple[str, object]]:
    """(file name, content) of every file the recipe asks for, the defect
    descriptors of ``defects.json`` last. The harness checks each value and
    this the recipe's outline; an ``EvaluationError`` names the key."""
    from . import harness
    harness.check_keys("recipe", recipe, (*harness.FIXTURES, "defects"))
    sources, files, descriptors = {}, [], []
    for section, (make, name) in harness.FIXTURES.items():
        if section in recipe:
            spec = harness.check_keys(section, recipe[section],
                                      inspect.signature(make).parameters)
            sources[section] = _in_section(section, make, **spec)
            files.append((name, sources[section]))
    defects = harness.check("defects", recipe.get("defects") or [], list)
    for i, defect in enumerate(defects):
        section = f"defects[{i}]"
        params = dict(harness.check(section, defect, dict))
        kind = params.pop("kind", None)
        fixture = _in_section(section, harness.defect_fixture, kind)
        if fixture not in sources:
            raise EvaluationError(
                f"defect {kind!r} needs {'a' if fixture == 'table' else 'an'}"
                f" {fixture} fixture in the recipe")
        result = _in_section(section, harness.inject_defect, sources[fixture],
                             kind, **{str(k): v for k, v in params.items()})
        name = f"synthetic{'_table' * (fixture == 'table')}_{i}_{kind}.csv"
        files.append((name, result.dataset))
        descriptors.append({"file": name, "seed": params.get("seed", 0),
                            **result.descriptor})
    return files + [("defects.json", descriptors)]


def _in_section(section: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``; its ``EvaluationError`` names ``section``."""
    try:
        return call(*args, **kwargs)
    except EvaluationError as exc:
        raise EvaluationError(f"{section}.{exc}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SmdError as exc:  # a ``PlanViolations`` carries its errors
        for error in getattr(exc, "violations", (exc,)):
            print(f"{error.code}: {error}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"E211: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"E100: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

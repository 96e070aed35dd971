"""Command-line interface: ``python -m repro <command> ...``.

Five commands cover the everyday flows without writing Python:

- ``extract``   -- build a geometry, extract parasitics, print a summary;
- ``netlist``   -- build a model (PEEC or any VPEC flavor) and emit its
  SPICE netlist;
- ``crosstalk`` -- run the standard aggressor/victim testbench on a
  model and print the noise report;
- ``noise``     -- tiered static noise scan under timing windows: screen
  every victim with closed-form bounds, simulate only the screened-in
  ones, print per-victim peaks / margins / noise windows; its
  ``sweep`` subcommand runs a whole design-space scenario family as
  one batched job, and ``calibrate`` re-fits and conservatism-checks
  the screening envelope per topology family;
- ``audit``     -- passivity audit (Theorems 1-2 / Lemma 1) of a VPEC
  model's effective-resistance networks;
- ``cache``     -- inspect or clear the on-disk pipeline cache;
- ``serve``     -- run the long-running analysis service (async jobs
  over a shared-memory model cache; see ``docs/service.md``);
- ``bench``     -- run a benchmark suite (``kernels``, ``sim``,
  ``noise``, ``service`` or ``noise_sweep``) and check it against its
  committed trajectory file.

Geometry is selected with ``--bus N`` (aligned), ``--nonaligned-bus N``
or ``--spiral TURNS``; models with ``--model`` plus its parameter
(``--nw/--nl``, ``--threshold``, ``--window``).

Data commands reuse extraction and model-building results from the
content-addressed cache (``--cache-dir`` / ``$REPRO_CACHE_DIR``,
``--no-cache`` to bypass), and ``--profile [FILE]`` prints per-stage
timings to stderr (optionally writing them as JSON).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.analysis.signal_integrity import crosstalk_report
from repro.circuit.sources import step
from repro.circuit.spice_writer import write_spice
from repro.extraction.parasitics import Parasitics
from repro.geometry.bus import aligned_bus, nonaligned_bus
from repro.geometry.spiral import square_spiral
from repro.experiments.runner import ModelSpec, build_model
from repro.health.diagnostics import certify_passivity, check_spd, reports_to_json
from repro.health.errors import NumericalHealthError
from repro.pipeline.cache import (
    PipelineCache,
    cached_extract,
    resolve_cache,
)
from repro.pipeline.profiling import collect
from repro.vpec.flow import full_vpec, localized_vpec, truncated_vpec, windowed_vpec
from repro.vpec.passivity import audit_network


def _add_geometry_arguments(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--bus", type=int, metavar="BITS", help="aligned parallel bus")
    group.add_argument(
        "--nonaligned-bus", type=int, metavar="BITS", help="spacing-jittered bus"
    )
    group.add_argument("--spiral", type=int, metavar="TURNS", help="square spiral")
    parser.add_argument(
        "--segments", type=int, default=1, help="segments per bus line (default 1)"
    )
    parser.add_argument(
        "--spiral-segments",
        type=int,
        default=92,
        help="total spiral segments (default 92)",
    )


def _geometry(args: argparse.Namespace):
    if args.bus is not None:
        return aligned_bus(args.bus, segments_per_line=args.segments)
    if args.nonaligned_bus is not None:
        return nonaligned_bus(args.nonaligned_bus, segments_per_line=args.segments)
    return square_spiral(turns=args.spiral, total_segments=args.spiral_segments)


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=["peec", "full", "localized", "gt", "nt", "gw", "nw"],
        default="full",
        help="model family (default: full VPEC)",
    )
    parser.add_argument("--nw", type=int, default=0, help="gt: width window")
    parser.add_argument("--nl", type=int, default=1, help="gt: length window")
    parser.add_argument(
        "--threshold", type=float, default=0.0, help="nt/nw: coupling threshold"
    )
    parser.add_argument("--window", type=int, default=0, help="gw: window size b")
    parser.add_argument(
        "--solver",
        choices=["direct", "iterative"],
        default="direct",
        help="gw/nw window-solve backend: batched direct solves or "
        "Jacobi-preconditioned CG with a direct holdout fallback",
    )


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk extraction / model cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro-pipeline)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        metavar="FILE",
        help="print per-stage timings (and memory high-water marks) to "
        "stderr; with FILE, also write JSON",
    )
    parser.add_argument(
        "--extraction",
        choices=["dense", "hierarchical"],
        default="dense",
        help="inductance representation: 'dense' per-axis matrices or "
        "'hierarchical' block low-rank operators (scales past 100k "
        "filaments; see docs/performance.md)",
    )
    parser.add_argument(
        "--hier-leaf",
        type=int,
        default=None,
        metavar="N",
        help="hierarchical: cluster-tree leaf size (default 64)",
    )
    parser.add_argument(
        "--hier-eta",
        type=float,
        default=None,
        metavar="ETA",
        help="hierarchical: admissibility parameter (default 2.0)",
    )
    parser.add_argument(
        "--hier-cutoff",
        type=float,
        default=None,
        metavar="TOL",
        help="hierarchical: ACA relative cutoff; 0 disables compression "
        "and reproduces the dense entries bit for bit (default 1e-8)",
    )
    parser.add_argument(
        "--hier-max-rank",
        type=int,
        default=None,
        metavar="R",
        help="hierarchical: rank cap per far-field block (default 64)",
    )
    parser.add_argument(
        "--hier-jobs",
        type=int,
        default=None,
        metavar="N",
        help="hierarchical: assemble blocks with N shared-memory worker "
        "processes (bit-identical to the serial build; default serial)",
    )


def _cache(args: argparse.Namespace) -> Optional[PipelineCache]:
    return resolve_cache(
        getattr(args, "cache_dir", None),
        enabled=not getattr(args, "no_cache", False),
    )


def _extraction_options(args: argparse.Namespace) -> dict:
    """``method``/``hierarchical`` keywords for ``cached_extract``."""
    method = getattr(args, "extraction", "dense")
    if method != "hierarchical":
        return {}
    from repro.extraction.hierarchical import DEFAULT_CONFIG

    overrides = {
        name: value
        for name, value in (
            ("leaf_size", getattr(args, "hier_leaf", None)),
            ("eta", getattr(args, "hier_eta", None)),
            ("cutoff", getattr(args, "hier_cutoff", None)),
            ("max_rank", getattr(args, "hier_max_rank", None)),
        )
        if value is not None
    }
    import dataclasses

    config = (
        dataclasses.replace(DEFAULT_CONFIG, **overrides)
        if overrides
        else DEFAULT_CONFIG
    )
    options = {"method": "hierarchical", "hierarchical": config}
    jobs = getattr(args, "hier_jobs", None)
    if jobs is not None:
        options["jobs"] = jobs
    return options


def _model_spec(args: argparse.Namespace) -> ModelSpec:
    kind = args.model
    return ModelSpec(
        kind,
        nw=args.nw,
        nl=args.nl,
        threshold=args.threshold,
        window=args.window,
        solver=getattr(args, "solver", "direct"),
    )


def _cmd_extract(args: argparse.Namespace) -> int:
    parasitics = cached_extract(
        _geometry(args), cache=_cache(args), **_extraction_options(args)
    )
    system = parasitics.system
    print(f"system: {system.name} ({len(system)} filaments, {system.num_wires} wires)")
    if parasitics.is_hierarchical and not parasitics.has_dense_inductance:
        # Summarize from the operators; never materialize (n, n).
        diagonals, stored, exact, lowrank = [], 0, 0, 0
        for _, block in parasitics.inductance_blocks.values():
            diagonals.append(block.diagonal())
            stats = block.compression_stats()
            stored += stats["stored_bytes"]
            exact += stats["dense_bytes"]
            lowrank += stats["lowrank_blocks"]
        diag = np.concatenate(diagonals)
        print(f"L self: {diag.min() * 1e9:.4f} .. {diag.max() * 1e9:.4f} nH")
        print(
            f"L storage: hierarchical, {stored / 1e6:.1f} MB vs "
            f"{exact / 1e6:.1f} MB dense ({exact / max(stored, 1):.1f}x, "
            f"{lowrank} low-rank blocks)"
        )
    else:
        L = parasitics.inductance
        off = L[~np.eye(L.shape[0], dtype=bool)]
        print(
            f"L self: {np.diag(L).min() * 1e9:.4f} .. "
            f"{np.diag(L).max() * 1e9:.4f} nH"
        )
        if off.size:
            print(
                f"L mutual: |max| {np.abs(off).max() * 1e9:.4f} nH "
                f"(k_max = {np.abs(off).max() / np.diag(L).min():.3f})"
            )
    print(
        f"R: {parasitics.resistance.min():.3f} .. "
        f"{parasitics.resistance.max():.3f} ohm"
    )
    print(
        f"Cg total: {parasitics.ground_capacitance.sum() * 1e15:.2f} fF, "
        f"coupling pairs: {len(parasitics.coupling_capacitance)}"
    )
    return 0


def _cmd_netlist(args: argparse.Namespace) -> int:
    cache = _cache(args)
    parasitics = cached_extract(
        _geometry(args), cache=cache, **_extraction_options(args)
    )
    built = build_model(_model_spec(args), parasitics, cache=cache)
    text = write_spice(built.circuit)
    if args.output:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
        print(
            f"{built.label}: {len(built.circuit)} elements, "
            f"{len(text.encode('ascii'))} bytes -> {args.output}"
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_crosstalk(args: argparse.Namespace) -> int:
    cache = _cache(args)
    parasitics = cached_extract(
        _geometry(args), cache=cache, **_extraction_options(args)
    )
    built = build_model(_model_spec(args), parasitics, cache=cache)
    report = crosstalk_report(
        built.skeleton,
        step(args.vdd, rise_time=args.rise * 1e-12),
        aggressor=args.aggressor,
        vdd=args.vdd,
        t_stop=args.t_stop * 1e-12,
        dt=args.dt * 1e-12,
    )
    print(f"model: {built.label} (sparse factor {built.sparse_factor:.3f})")
    print(report.to_table())
    if args.csv:
        from repro.experiments.export import waveforms_to_csv

        waves = {f"victim{v.wire}": v.waveform for v in report.victims}
        with open(args.csv, "w", encoding="ascii") as handle:
            handle.write(waveforms_to_csv(waves))
        print(f"victim waveforms -> {args.csv}")
    failing = report.failing(args.limit)
    if failing:
        wires = ", ".join(str(v.wire) for v in failing)
        print(f"FAIL: victims above {args.limit * 100:.0f}% of VDD: {wires}")
        return 1
    print(f"PASS: all victims below {args.limit * 100:.0f}% of VDD")
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    import json

    from repro.noise.engine import NoiseConfig, run_noise_scan

    # The geometry group is optional at parse time so the ``sweep`` and
    # ``calibrate`` subcommands can omit it; a plain scan still needs it.
    if args.bus is None and args.nonaligned_bus is None and args.spiral is None:
        print(
            "error: repro noise needs a geometry "
            "(--bus, --nonaligned-bus or --spiral)",
            file=sys.stderr,
        )
        return 2
    cache = _cache(args)
    parasitics = cached_extract(
        _geometry(args), cache=cache, **_extraction_options(args)
    )
    config = NoiseConfig(
        vdd=args.vdd,
        rise_time=args.rise * 1e-12,
        threshold_fraction=args.limit,
        period=args.period * 1e-12,
        switch_width=args.switch_width * 1e-12,
        schedule_seed=args.schedule_seed,
        dt=args.dt * 1e-12,
    )
    report = run_noise_scan(
        parasitics,
        spec=_model_spec(args),
        config=config,
        cache=cache,
        verify=args.verify,
    )
    print(f"model: {report.spec_label}")
    print(report.to_table())
    if args.verify:
        deviations = [
            v.verify_deviation
            for v in report.victims
            if v.verify_deviation is not None
        ]
        if deviations:
            print(
                "verify: max relative peak deviation vs the independent "
                f"single-scenario path {max(deviations):.3e}"
            )
        else:
            print("verify: no escalated victims to cross-check")
    if args.json:
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
            handle.write("\n")
        print(f"noise report -> {args.json}")
    failing = report.failing()
    if failing:
        wires = ", ".join(str(v.wire) for v in failing)
        print(f"FAIL: victims above {args.limit * 100:.0f}% of VDD: {wires}")
        return 1
    print(f"PASS: all victims below {args.limit * 100:.0f}% of VDD")
    return 0


def _cmd_noise_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.noise.engine import NoiseConfig
    from repro.noise.sweep import SweepGrid, run_sweep

    grid = SweepGrid(
        topologies=tuple(args.topologies),
        widths=tuple(args.widths),
        wire_widths=tuple(w * 1e-6 for w in args.wire_widths),
        spacings=tuple(s * 1e-6 for s in args.spacings),
        drivers=tuple(args.drivers),
        densities=tuple(args.densities),
        segments=tuple(args.grid_segments),
        model=_model_spec(args),
        base=NoiseConfig(
            vdd=args.vdd,
            rise_time=args.rise * 1e-12,
            threshold_fraction=args.limit,
            period=args.period * 1e-12,
            switch_width=args.switch_width * 1e-12,
            schedule_seed=args.schedule_seed,
            dt=args.dt * 1e-12,
        ),
    )
    report = run_sweep(grid, parallel=args.jobs, cache=_cache(args))
    print(
        f"sweep: {report.num_scenarios} scenarios "
        f"({len(grid.topologies)} topologies x {len(grid.widths)} widths "
        f"x {len(grid.wire_widths)} wire widths x {len(grid.spacings)} "
        f"spacings x {len(grid.drivers)} drivers x {len(grid.densities)} "
        f"densities x {len(grid.segments)} segment counts)"
    )
    print(report.to_table())
    if args.json:
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
            handle.write("\n")
        print(f"sweep report -> {args.json}")
    failing = report.failing_scenarios()
    if failing:
        labels = ", ".join(r.scenario.label for r in failing)
        print(f"FAIL: scenarios with failing victims: {labels}")
        return 1
    print("PASS: no failing victims across the family")
    return 0


def _cmd_noise_calibrate(args: argparse.Namespace) -> int:
    import json

    from repro.noise.calibration import CalibrationError, calibrate_family

    results = []
    code = 0
    for family in args.families:
        try:
            result = calibrate_family(
                family, size=args.size, cache=_cache(args)
            )
        except CalibrationError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            code = 1
            continue
        results.append(result)
        print(
            f"{family}: envelope reach {result.envelope.reach}, "
            f"min margin {result.min_margin:.3f}x over "
            f"{result.num_checked_pairs} held-out pairs "
            f"(fit aggressors {list(result.fit_aggressors)}, "
            f"check {list(result.check_aggressors)})"
        )
    if args.json and results:
        document = {
            "size": args.size,
            "families": {
                r.family: {
                    "envelope": r.envelope.to_dict(),
                    "min_margin": r.min_margin,
                    "num_checked_pairs": r.num_checked_pairs,
                }
                for r in results
            },
        }
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"envelopes -> {args.json}")
    if code == 0:
        print("PASS: all calibrated envelopes are conservative")
    return code


def _cmd_audit(args: argparse.Namespace) -> int:
    parasitics = cached_extract(
        _geometry(args), cache=_cache(args), **_extraction_options(args)
    )
    if args.health:
        return _audit_health(args, parasitics)
    result = _vpec_flow(args, parasitics)
    print(f"model: {result.flavor} (sparse factor {result.sparse_factor:.3f})")
    ok = True
    for group, network in enumerate(result.model.networks):
        report = audit_network(network)
        print(
            f"  direction group {group}: passive={report.passive} "
            f"dd={report.diagonally_dominant} "
            f"margin={report.dominance_margin:+.4f} "
            f"resistances_positive={report.resistances_positive}"
        )
        ok = ok and report.passive
    print("PASS: model is passive" if ok else "FAIL: model is not passive")
    return 0 if ok else 1


def _audit_health(args: argparse.Namespace, parasitics: Parasitics) -> int:
    """Numerical-health audit: L-block SPD reports + Ghat certificates."""
    parasitics.validate()
    reports = []
    for axis, (_, block) in parasitics.inductance_blocks.items():
        # SPD certification is an eigen-decomposition; materialize the
        # operator (audits run at auditable sizes).
        reports.append(
            check_spd(
                np.asarray(block),
                name=f"L[{axis.name}] ({block.shape[0]}x{block.shape[0]})",
            )
        )
    result = _vpec_flow(args, parasitics)
    # The Lemma-1 sign check (all Ghat off-diagonals <= 0, all row sums
    # >= 0) is a *bus-structure* property: spirals carry legitimately
    # positive coupling resistances in their exact inverse while staying
    # passive by Theorem 2 (diagonal dominance).  It is therefore opt-in
    # (--strict-signs) rather than part of the default audit.
    sign_structure = bool(getattr(args, "strict_signs", False))
    for group, network in enumerate(result.model.networks):
        reports.append(
            certify_passivity(
                network.dense_ghat(),
                name=f"Ghat[group {group}] ({result.flavor})",
                sign_structure=sign_structure,
            )
        )
    print(f"model: {result.flavor} (sparse factor {result.sparse_factor:.3f})")
    for report in reports:
        condition = (
            f"{report.condition:.3e}" if np.isfinite(report.condition) else "inf"
        )
        print(
            f"  {report.name}: ok={report.ok} certificate={report.certificate} "
            f"cond={condition}"
        )
        for note in report.notes:
            print(f"    note: {note}")
    ok = all(report.ok for report in reports)
    if args.health_json:
        document = reports_to_json(
            reports,
            system=parasitics.system.name,
            model=result.flavor,
            sparse_factor=result.sparse_factor,
        )
        target = Path(args.health_json)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(document + "\n", encoding="ascii")
        print(f"health report -> {args.health_json}")
    print("PASS: model is healthy" if ok else "FAIL: model failed health checks")
    return 0 if ok else 1


def _vpec_flow(args: argparse.Namespace, parasitics: Parasitics):
    if args.model == "full":
        return full_vpec(parasitics)
    if args.model == "localized":
        return localized_vpec(parasitics)
    if args.model == "gt":
        return truncated_vpec(parasitics, nw=args.nw, nl=args.nl)
    if args.model == "nt":
        return truncated_vpec(parasitics, threshold=args.threshold)
    if args.model == "gw":
        return windowed_vpec(parasitics, window_size=args.window)
    if args.model == "nw":
        return windowed_vpec(parasitics, threshold=args.threshold)
    raise SystemExit(f"audit does not apply to model {args.model!r}")


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = resolve_cache(args.cache_dir, enabled=True)
    if args.cache_command == "clear":
        removed = cache.clear(args.kind)
        scope = f" ({args.kind})" if args.kind else ""
        print(f"removed {removed} entries{scope} from {cache.root}")
        return 0
    entries = cache.entries()
    print(f"cache root: {cache.root}")
    if not entries:
        print("empty")
        return 0
    for kind, count in entries.items():
        print(f"  {kind}: {count} entries")
    print(f"total size: {cache.size_bytes() / 1e6:.2f} MB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VPEC interconnect modeling (Yu & He, TCAD 2005 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_extract = commands.add_parser("extract", help="extract and summarize parasitics")
    _add_geometry_arguments(p_extract)
    _add_pipeline_arguments(p_extract)
    p_extract.set_defaults(func=_cmd_extract)

    p_netlist = commands.add_parser("netlist", help="emit a model's SPICE netlist")
    _add_geometry_arguments(p_netlist)
    _add_model_arguments(p_netlist)
    _add_pipeline_arguments(p_netlist)
    p_netlist.add_argument("-o", "--output", help="write to a file instead of stdout")
    p_netlist.set_defaults(func=_cmd_netlist)

    p_xtalk = commands.add_parser("crosstalk", help="run the crosstalk testbench")
    _add_geometry_arguments(p_xtalk)
    _add_model_arguments(p_xtalk)
    _add_pipeline_arguments(p_xtalk)
    p_xtalk.add_argument("--aggressor", type=int, default=0)
    p_xtalk.add_argument("--vdd", type=float, default=1.0, help="volts (default 1)")
    p_xtalk.add_argument("--rise", type=float, default=10.0, help="rise time, ps")
    p_xtalk.add_argument("--t-stop", type=float, default=300.0, help="sim time, ps")
    p_xtalk.add_argument("--dt", type=float, default=1.0, help="time step, ps")
    p_xtalk.add_argument(
        "--limit", type=float, default=0.15, help="pass/fail noise limit vs VDD"
    )
    p_xtalk.add_argument("--csv", help="write victim waveforms to a CSV file")
    p_xtalk.set_defaults(func=_cmd_crosstalk)

    p_noise = commands.add_parser(
        "noise", help="tiered static noise scan under timing windows"
    )
    # Optional so the sweep / calibrate subcommands can omit it; a plain
    # scan without one exits 2 with a pointed message.
    _add_geometry_arguments(p_noise, required=False)
    _add_model_arguments(p_noise)
    _add_pipeline_arguments(p_noise)
    p_noise.add_argument("--vdd", type=float, default=1.0, help="volts (default 1)")
    p_noise.add_argument(
        "--rise", type=float, default=10.0, help="aggressor rise time, ps"
    )
    p_noise.add_argument(
        "--limit",
        type=float,
        default=0.25,
        help="failure threshold as a fraction of VDD (default 0.25)",
    )
    p_noise.add_argument(
        "--period", type=float, default=3000.0, help="clock period, ps"
    )
    p_noise.add_argument(
        "--switch-width",
        type=float,
        default=10.0,
        help="width of each net's launch window, ps",
    )
    p_noise.add_argument(
        "--schedule-seed",
        type=int,
        default=2003,
        help="seed of the scattered switching schedule",
    )
    p_noise.add_argument("--dt", type=float, default=1.0, help="time step, ps")
    p_noise.add_argument(
        "--verify",
        action="store_true",
        help="re-simulate every escalated victim through the independent "
        "single-scenario path and report the peak deviation",
    )
    p_noise.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON"
    )
    # The windowed-VPEC flavor the acceptance experiments run on.
    p_noise.set_defaults(func=_cmd_noise, model="gw", window=8)

    from repro.noise.calibration import CALIBRATION_FAMILIES
    from repro.noise.sweep import SWEEP_TOPOLOGIES

    noise_sub = p_noise.add_subparsers(
        dest="noise_command", metavar="{sweep,calibrate}"
    )

    p_sweep = noise_sub.add_parser(
        "sweep",
        help="run a design-space scenario family as one batched job",
    )
    p_sweep.add_argument(
        "--topologies",
        nargs="+",
        choices=list(SWEEP_TOPOLOGIES),
        default=["bus"],
        help="topology families to sweep (default: bus)",
    )
    p_sweep.add_argument(
        "--widths",
        nargs="+",
        type=int,
        default=[8],
        metavar="BITS",
        help="bus widths / crossbar wires per layer (default: 8)",
    )
    p_sweep.add_argument(
        "--wire-widths",
        nargs="+",
        type=float,
        default=[1.0],
        metavar="UM",
        help="wire widths in micrometres (default: 1.0)",
    )
    p_sweep.add_argument(
        "--spacings",
        nargs="+",
        type=float,
        default=[2.0],
        metavar="UM",
        help="wire spacings in micrometres (default: 2.0)",
    )
    p_sweep.add_argument(
        "--drivers",
        nargs="+",
        type=float,
        default=[50.0],
        metavar="OHM",
        help="driver resistances (default: 50)",
    )
    p_sweep.add_argument(
        "--densities",
        nargs="+",
        type=float,
        default=[1.0],
        help="switching-schedule density multipliers (default: 1.0)",
    )
    p_sweep.add_argument(
        "--grid-segments",
        nargs="+",
        type=int,
        default=[1],
        metavar="N",
        help="filament segments per line (extraction fidelity, default 1)",
    )
    _add_model_arguments(p_sweep)
    _add_pipeline_arguments(p_sweep)
    p_sweep.add_argument("--vdd", type=float, default=1.0, help="volts (default 1)")
    p_sweep.add_argument(
        "--rise", type=float, default=10.0, help="aggressor rise time, ps"
    )
    p_sweep.add_argument(
        "--limit",
        type=float,
        default=0.25,
        help="failure threshold as a fraction of VDD (default 0.25)",
    )
    p_sweep.add_argument(
        "--period", type=float, default=3000.0, help="clock period, ps"
    )
    p_sweep.add_argument(
        "--switch-width",
        type=float,
        default=10.0,
        help="width of each net's launch window, ps",
    )
    p_sweep.add_argument(
        "--schedule-seed",
        type=int,
        default=2003,
        help="seed of the scattered switching schedule",
    )
    p_sweep.add_argument("--dt", type=float, default=1.0, help="time step, ps")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the scenario fan-out (default: serial)",
    )
    p_sweep.add_argument(
        "--json", metavar="FILE", help="also write the sweep report as JSON"
    )
    p_sweep.set_defaults(func=_cmd_noise_sweep, model="gw", window=8)

    p_calibrate = noise_sub.add_parser(
        "calibrate",
        help="re-fit and conservatism-check the screening envelope",
    )
    p_calibrate.add_argument(
        "--families",
        nargs="+",
        choices=list(CALIBRATION_FAMILIES),
        default=list(CALIBRATION_FAMILIES),
        help="topology families to calibrate (default: all)",
    )
    p_calibrate.add_argument(
        "--size",
        type=int,
        default=16,
        help="bus bits / crossbar wires per layer of the fit workload "
        "(default 16)",
    )
    _add_pipeline_arguments(p_calibrate)
    p_calibrate.add_argument(
        "--json", metavar="FILE", help="also write the fitted envelopes as JSON"
    )
    p_calibrate.set_defaults(func=_cmd_noise_calibrate)

    p_audit = commands.add_parser("audit", help="passivity audit of a VPEC model")
    _add_geometry_arguments(p_audit)
    _add_model_arguments(p_audit)
    _add_pipeline_arguments(p_audit)
    p_audit.add_argument(
        "--health",
        action="store_true",
        help="numerical-health audit: condition numbers, SPD checks, "
        "passivity certificates (structured HealthReport per matrix)",
    )
    p_audit.add_argument(
        "--health-json",
        metavar="FILE",
        help="with --health, also write the reports as a JSON document",
    )
    p_audit.add_argument(
        "--strict-signs",
        action="store_true",
        help="with --health, additionally require the Lemma-1 sign "
        "structure of Ghat (bus geometries; catches sign-flipped "
        "mutual couplings)",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_cache = commands.add_parser(
        "cache", help="inspect or clear the pipeline cache"
    )
    p_cache.add_argument(
        "cache_command", choices=["info", "clear"], help="what to do"
    )
    p_cache.add_argument(
        "--kind", help="clear only one kind (e.g. parasitics, models)"
    )
    p_cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro-pipeline)",
    )
    p_cache.set_defaults(func=_cmd_cache)

    p_report = commands.add_parser(
        "report", help="scaled-down check of every paper claim"
    )
    p_report.set_defaults(func=_cmd_report)

    p_serve = commands.add_parser(
        "serve", help="run the long-running analysis service"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPU count; 1 runs in-process)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="simulation shards per noise job (default: worker count)",
    )
    p_serve.add_argument(
        "--job-timeout",
        type=float,
        default=300.0,
        help="default per-job timeout in seconds (default 300)",
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="disk cache root for workers (default: no disk cache)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = commands.add_parser(
        "bench", help="run the micro-kernel benchmark suite"
    )
    p_bench.add_argument(
        "--suite",
        choices=[
            "kernels",
            "sim",
            "noise",
            "service",
            "noise_sweep",
            "extraction_scale",
        ],
        default="kernels",
        help="which suite: 'kernels' (extraction/windowing micro-kernels, "
        "BENCH_kernels.json), 'sim' (netlist/MNA/transient/AC backend, "
        "BENCH_sim.json), 'noise' (screening tier + tiered engine, "
        "BENCH_noise.json), 'service' (analysis-service load test, "
        "BENCH_service.json), 'noise_sweep' (batched sweep vs cold "
        "per-scenario sign-offs, BENCH_noise_sweep.json) or "
        "'extraction_scale' (dense vs hierarchical inductance at "
        "growing filament counts, time + peak memory, "
        "BENCH_extraction_scale.json)",
    )
    p_bench.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed trajectory: time regressions "
        "warn, checksum mismatches fail (exit 1)",
    )
    p_bench.add_argument(
        "--update",
        action="store_true",
        help="rewrite the trajectory file with the fresh results",
    )
    p_bench.add_argument(
        "--trajectory",
        default=None,
        metavar="FILE",
        help="trajectory file (default: BENCH_kernels.json or "
        "BENCH_sim.json, per --suite)",
    )
    p_bench.add_argument(
        "--json",
        metavar="FILE",
        help="also write the fresh results as a trajectory-format JSON",
    )
    p_bench.add_argument(
        "--kernel",
        action="append",
        metavar="NAME",
        help="run only this kernel (repeatable)",
    )
    p_bench.add_argument(
        "--size",
        type=int,
        default=None,
        help="bus size (default: 1024 for --suite kernels, 256 for "
        "--suite sim)",
    )
    p_bench.add_argument(
        "--window", type=int, default=8, help="window size b (default 8)"
    )
    p_bench.add_argument(
        "--sim-size",
        type=int,
        default=64,
        help="bus size of the sim suite's transient/AC workloads and of "
        "the noise suite's tiered-engine workload (default 64)",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (default 3)"
    )
    p_bench.add_argument(
        "--time-tolerance",
        type=float,
        default=None,
        help="slowdown factor that triggers a warning (default 1.5)",
    )
    p_bench.add_argument(
        "--with-seed",
        action="store_true",
        help="also measure the scalar reference (seed) kernel variants",
    )
    p_bench.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="service suite: total mixed requests (default 1000)",
    )
    p_bench.add_argument(
        "--concurrency",
        type=int,
        default=64,
        help="service suite: in-flight request cap (default 64)",
    )
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="service suite: worker processes (default: CPU count)",
    )
    p_bench.add_argument(
        "--sweep-segments",
        type=int,
        default=20,
        help="noise_sweep suite: filament segments per line -- scales "
        "the per-scenario model-build cost cubically (default 20)",
    )
    p_bench.add_argument(
        "--sweep-densities",
        type=int,
        default=24,
        help="noise_sweep suite: scenarios in the density sweep "
        "(default 24)",
    )
    p_bench.add_argument(
        "--scale-sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="extraction_scale suite: filament counts to run (default: "
        "the committed 4096/16384/102400/1000000 ladder; CI passes a "
        "small prefix -- sizes absent from the trajectory are not "
        "compared)",
    )
    p_bench.add_argument(
        "--scale-jobs",
        type=int,
        nargs="+",
        default=None,
        metavar="W",
        help="extraction_scale suite: worker counts for the "
        "parallel_assembly_scale kernel (default: the 1/2/4 ladder); "
        "every rung must reproduce the serial checksum bit-for-bit",
    )
    p_bench.add_argument(
        "--scale-assembly-jobs",
        type=int,
        default=None,
        metavar="N",
        help="extraction_scale suite: assemble the hierarchical "
        "extraction entries themselves through N shared-memory workers "
        "(output is bit-identical, so the committed checksums hold)",
    )
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        check_results,
        load_trajectory,
        run_suite,
        save_trajectory,
    )
    from repro.bench.regression import DEFAULT_TIME_TOLERANCE
    from repro.bench.sim import run_sim_suite

    if args.suite == "service":
        from repro.bench.service import run_service_suite

        if args.trajectory is None:
            args.trajectory = "BENCH_service.json"
        results = run_service_suite(
            requests=args.requests,
            concurrency=args.concurrency,
            jobs=args.jobs,
        )
    elif args.suite == "noise_sweep":
        from repro.bench.sweep import run_sweep_suite

        if args.trajectory is None:
            args.trajectory = "BENCH_noise_sweep.json"
        results = run_sweep_suite(
            segments=args.sweep_segments,
            num_densities=args.sweep_densities,
            repeats=args.repeats,
        )
    elif args.suite == "extraction_scale":
        from repro.bench.extraction_scale import (
            DEFAULT_SIZES,
            run_extraction_scale_suite,
        )

        if args.trajectory is None:
            args.trajectory = "BENCH_extraction_scale.json"
        results = run_extraction_scale_suite(
            kernels=args.kernel,
            sizes=(
                tuple(args.scale_sizes)
                if args.scale_sizes is not None
                else DEFAULT_SIZES
            ),
            jobs=args.scale_assembly_jobs,
            jobs_ladder=(
                tuple(args.scale_jobs)
                if args.scale_jobs is not None
                else None
            ),
        )
    elif args.suite == "noise":
        from repro.bench.noise import run_noise_suite

        if args.trajectory is None:
            args.trajectory = "BENCH_noise.json"
        results = run_noise_suite(
            kernels=args.kernel,
            size=args.size if args.size is not None else 256,
            engine_size=args.sim_size,
            repeats=args.repeats,
        )
    elif args.suite == "sim":
        if args.trajectory is None:
            args.trajectory = "BENCH_sim.json"
        results = run_sim_suite(
            kernels=args.kernel,
            size=args.size if args.size is not None else 256,
            sim_size=args.sim_size,
            repeats=args.repeats,
            include_seed=args.with_seed,
        )
    else:
        if args.trajectory is None:
            args.trajectory = "BENCH_kernels.json"
        results = run_suite(
            kernels=args.kernel,
            size=args.size if args.size is not None else 1024,
            window=args.window,
            repeats=args.repeats,
            include_seed=args.with_seed,
        )
    width = max(len(r.kernel) for r in results)
    for result in results:
        peak = (
            ""
            if result.peak_bytes is None
            else f"  peak {result.peak_bytes / (1 << 20):8.1f} MB"
        )
        print(
            f"{result.kernel:<{width}}  {result.variant:<12}  "
            f"n={result.size:<7d} {result.seconds * 1e3:10.3f} ms{peak}  "
            f"{result.checksum[:12]}"
        )
    if args.json:
        save_trajectory(args.json, results)
        print(f"wrote {args.json}")

    code = 0
    if args.check:
        committed = load_trajectory(args.trajectory)
        tolerance = (
            args.time_tolerance
            if args.time_tolerance is not None
            else DEFAULT_TIME_TOLERANCE
        )
        report = check_results(results, committed, time_tolerance=tolerance)
        for comparison in report.comparisons:
            print(
                f"[{comparison.status}] {comparison.result.kernel} "
                f"({comparison.result.variant}): {comparison.message}"
            )
        if report.warnings:
            print(
                f"{len(report.warnings)} time regression(s) -- warning only",
                file=sys.stderr,
            )
        if not report.ok:
            print(
                f"{len(report.failures)} checksum mismatch(es)", file=sys.stderr
            )
            code = 1
    if args.update:
        save_trajectory(args.trajectory, results)
        print(f"updated {args.trajectory}")
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        shards=args.shards,
        cache_dir=args.cache_dir,
        job_timeout=args.job_timeout,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.summary import quick_report

    text = quick_report()
    print(text)
    return 1 if "[FAIL]" in text else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Numerical failures surface as the typed taxonomy of
    :mod:`repro.health.errors` and exit with code 2 -- a bare traceback
    from deep inside a solve never reaches the terminal.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    destination = getattr(args, "profile", None)
    if destination is None:
        try:
            return args.func(args)
        except NumericalHealthError as error:
            print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
            return 2
    # Stage timings go to stderr so --profile composes with commands
    # that stream their payload (e.g. a netlist) to stdout.  Tracing
    # allocations is what populates the per-stage peak_alloc column;
    # its overhead is acceptable under an explicit --profile.
    import tracemalloc

    started_tracing = not tracemalloc.is_tracing()
    if started_tracing:
        tracemalloc.start()
    try:
        with collect() as profile:
            try:
                code = args.func(args)
            except NumericalHealthError as error:
                print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
                code = 2
    finally:
        if started_tracing:
            tracemalloc.stop()
    print(profile.to_table(), file=sys.stderr)
    if destination != "-":
        try:
            Path(destination).write_text(profile.to_json() + "\n", encoding="ascii")
        except OSError as error:
            print(f"error: cannot write profile: {error}", file=sys.stderr)
            return max(code, 1)
        print(f"profile -> {destination}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

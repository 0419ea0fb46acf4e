"""Time-to-eps-solution benchmark of the real-process Tucker stack.

Usage (from the root of a checkout)::

    python3 tuckerbench/run.py --workload miranda-ra --seed 0 \
        --seconds 45 --trace 0

Runs one workload (see ``workloads.py`` and README.md) through its
public process-parallel driver and its sequential ``repro.core``
counterpart, checks every output against the paper's numerical
contract, and prints every metric by name and unit.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` is the
separate traced run that yields the per-layer metrics and writes the
trace file.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Load model: a closed loop with one caller.  One process issues solves
back to back, each waiting for the previous one, at P = 2 ranks.  The
BLAS thread policy is left to the program; it is recorded, not set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Each timed run issues at least this many solves, so the tail
#: percentile below has at least ten solves beyond it.
MIN_SOLVES = 40
#: solve_tail_s: the highest percentile with >= 10 of MIN_SOLVES beyond.
TAIL_PERCENTILE = 75
#: Fresh processes per run for setup_s and the RSS metrics (median).
SETUP_RUNS = 3
#: Traced solves at least, however short --seconds is.
MIN_TRACED = 5
#: Measuring stops this long after --seconds even if the minimum
#: solve counts are not reached (slow or failing solves), so a run
#: still ends in bounded time.
OVERRUN_S = 60.0
#: The per-layer self times plus unattributed time must add up to the
#: traced wall time within this share of it.
CLOSURE_TOLERANCE = 0.01

#: End-to-end metrics that are printed and written to the result file
#: but left out of the result line's ``metrics``: the input fixes them,
#: so they spread from seed to seed (README: "Metrics"), and
#: ``fail_rate`` is the result line's ``failed / attempted``.
PRINTED_ONLY_UNITS = {"rel_error": "1", "compression_ratio": "1", "fail_rate": "1"}

def _import_program():
    """Put the checkout's ``src`` first on the path and import the
    package from there; exit non-zero when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def tail(values: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile: the value with
    ``n - ceil(p n / 100)`` values beyond it."""
    s = sorted(values)
    return s[math.ceil(TAIL_PERCENTILE * len(s) / 100) - 1]


def calibrate(dtype) -> dict:
    import numpy as np

    import probes
    from workloads import RANKS

    blas = probes.blas_info()
    nproc = os.cpu_count() or 1
    llc = probes.llc_bytes()
    t0 = time.perf_counter()
    copy_gbps, copy_bytes = probes.copy_bandwidth(llc)
    cal = {
        "nproc": nproc,
        "blas": blas,
        "ranks": RANKS,
        "oversubscribed": (
            None
            if blas.get("threads") is None
            else RANKS * blas["threads"] > nproc
        ),
        "llc_bytes": llc,
        "gemm_peak_gflops": probes.gemm_peak_gflops(dtype),
        "gemm_dtype": np.dtype(dtype).name,
        "copy_gbps": copy_gbps,
        "copy_array_bytes": copy_bytes,
        "wires": {w: probes.fit_wire(w) for w in ("shm", "tcp")},
    }
    cal["calibration_s"] = time.perf_counter() - t0
    return cal


# -- end-to-end run ------------------------------------------------------------


def _setup_runs(w, seed: int, x, work: Path) -> list[dict]:
    import numpy as np

    path = work / "input.npy"
    np.save(path, x)
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), w.name, str(seed), str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    path.unlink()
    return out


def _measuring(t_start: float, seconds: float, done: int, minimum: int) -> bool:
    """Keep going until ``seconds`` have passed and ``minimum`` solves
    are done, or until OVERRUN_S past ``seconds`` whatever the count."""
    elapsed = time.perf_counter() - t_start
    return elapsed < seconds or (done < minimum and elapsed < seconds + OVERRUN_S)


def _timed_solve(w, x, seed, oracle, **kw) -> float | None:
    t0 = time.perf_counter()
    try:
        tucker, stats = w.solve(x, seed, **kw)
    except Exception as exc:  # a failed solve is counted, not fatal
        oracle.errors.append(f"{type(exc).__name__}: {exc}"[:500])
        return None
    dt = time.perf_counter() - t0
    oracle.add(tucker, stats)
    return dt


def _timed_seq(w, x, seed, oracle) -> tuple[float, object]:
    t0 = time.perf_counter()
    tucker, stats = w.sequential(x, seed)
    dt = time.perf_counter() - t0
    oracle.add_seq(tucker, stats)
    return dt, stats


def run_end_to_end(w, x, seed: int, seconds: float, work: Path, details: dict):
    from workloads import Oracle

    setups = _setup_runs(w, seed, x, work)
    details["setup_runs"] = setups
    oracle = Oracle(w, x)
    w.solve(x, seed)  # warm-up, untimed
    w.sequential(x, seed)
    mp_times: list[float] = []
    seq_times: list[float] = []
    t_start = time.perf_counter()
    while _measuring(t_start, seconds, len(mp_times) + len(oracle.errors), MIN_SOLVES):
        dt = _timed_solve(w, x, seed, oracle)
        if dt is not None:
            mp_times.append(dt)
        seq_times.append(_timed_seq(w, x, seed, oracle)[0])
    details["measured_s"] = time.perf_counter() - t_start
    verdict = oracle.verdicts()
    details["oracle"] = verdict
    metrics = None
    if mp_times:
        rows = verdict["outputs"]
        metrics = {
            "solve_s": statistics.median(mp_times),
            "solve_tail_s": tail(mp_times),
            "seq_solve_s": statistics.median(seq_times),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "rank_peak_rss_mb": statistics.median(s["rank_peak_rss_mb"] for s in setups),
            "driver_peak_rss_mb": statistics.median(s["driver_peak_rss_mb"] for s in setups),
        }
        details["printed_only"] = {
            "rel_error": max(r["rel_error"] for r in rows),
            "compression_ratio": min(r["compression_ratio"] for r in rows),
            "fail_rate": verdict["fail_rate"],
        }
        details["solves"] = len(mp_times)
        details["solve_times_s"] = mp_times
        details["seq_times_s"] = seq_times
        details["seq_solves"] = len(seq_times)
        details["tail_percentile"] = TAIL_PERCENTILE
        details["speedup_vs_sequential"] = metrics["seq_solve_s"] / metrics["solve_s"]
    return metrics, verdict


# -- traced run ----------------------------------------------------------------


def _rank_gauge(profile, name: str) -> float:
    return float(profile.metrics.get("gauges", {}).get(name, 0.0))


def _rank_counter(profile, name: str) -> float:
    return float(profile.metrics.get("counters", {}).get(name, 0.0))


def _rank_hist_total(profile, name: str) -> float:
    h = profile.metrics.get("histograms", {}).get(name)
    return float(h["total"]) if h else 0.0


def run_traced(w, x, seed: int, seconds: float, cal: dict, tracer, details: dict, trace_out: Path):
    import probes
    import spans as sp
    from repro.observability.profile import RunProfile
    from repro.vmpi.mp_comm import CommConfig
    from workloads import Oracle

    oracle = Oracle(w, x)
    w.solve(x, seed)  # warm-up, untimed
    w.sequential(x, seed)
    recorder = probes.SolveRecorder()
    cfg = CommConfig(profile=True)

    untraced: list[float] = []
    per_solve: list[dict] = []
    chrome: dict[str, dict] = {}
    trees: dict[str, list] = {}
    seq_phase: dict[str, float] = {}
    seq_iters: list[int] = []
    replay_records: list[tuple] | None = None
    problems: list[str] = []
    sid = 0
    t_start = time.perf_counter()
    while _measuring(t_start, seconds, sid, MIN_TRACED):
        sid += 1
        dt = _timed_solve(w, x, seed, oracle)
        if dt is not None:
            untraced.append(dt)
        profiles: dict = {}
        recorder.reset()
        try:
            with recorder.installed(), tracer.span(w.driver, "distributed.driver", sid) as root:
                tucker, stats = w.solve(x, seed, comm_config=cfg, profile_out=profiles)
        except Exception as exc:  # counted by the oracle, not fatal
            oracle.errors.append(f"{type(exc).__name__}: {exc}"[:500])
            continue
        oracle.add(tucker, stats)
        per_solve.append(_attribute(w, root, profiles, stats, recorder, cal, trees, sid, problems))
        chrome[str(sid)] = RunProfile.from_ranks(profiles).chrome_trace()
        if replay_records is None:
            replay_records = recorder.collectives
        with tracer.span(w.seq_driver, "core", sid):
            _, sst = _timed_seq(w, x, seed, oracle)
        for k, v in sst.phase_seconds.items():
            seq_phase[k] = seq_phase.get(k, 0.0) + v
        seq_iters.append(_seq_iterations(sst, x.ndim))
    details["measured_s"] = time.perf_counter() - t_start
    verdict = oracle.verdicts()
    verdict["unexpected"].extend(sorted(set(problems)))
    details["oracle"] = verdict
    if not per_solve or not untraced:
        return None, verdict

    n = len(per_solve)

    def mean(key):
        return sum(s[key] for s in per_solve) / n

    wire = w.wire
    fit = cal["wires"][wire]
    with tracer.span("probes", "probes"):
        bulk = max(probes.largest_message_bytes(replay_records), 8)
        bulk_oneway = probes.comm_pingpong(wire, [bulk])[bulk]
        floor_bulk = probes.floor_oneway(wire, bulk)
        floor_small = probes.floor_oneway(wire, 8)
        world_s = probes.world_seconds(wire)
        replay_s = statistics.median(
            probes.replay_seconds(replay_records, wire) for _ in range(3)
        )

    traced_wall = mean("wall_s")
    layer_means = {layer: mean(f"layer:{layer}") for layer in sp.LAYERS}
    closure_gap = abs(sum(layer_means.values()) - traced_wall)
    details["attribution"] = {
        "traced_solves": n,
        "traced_wall_s": traced_wall,
        "layer_self_s": layer_means,
        "gap_s": closure_gap,
        "tolerance_share": CLOSURE_TOLERANCE,
        "closes": closure_gap <= CLOSURE_TOLERANCE * traced_wall,
        "clock_spill_s": mean("spill_s"),
        "lane": "critical rank (longest span extent) under the bench span",
    }
    if not details["attribution"]["closes"]:
        verdict["unexpected"].append(
            f"attribution does not close: gap {closure_gap:.6f} s of {traced_wall:.6f} s"
        )

    flops, nbytes, ttm_all = mean("flops"), mean("ttm_bytes"), mean("ttm_s_all_ranks")
    gflops = flops / ttm_all / 1e9 if ttm_all > 0 else 0.0
    intensity = flops / nbytes if nbytes > 0 else 0.0
    peak = cal["gemm_peak_gflops"]
    bw = cal["copy_gbps"]
    attainable = min(peak, intensity * bw) if bw else peak
    details["roofline"] = {
        "basis": "min(gemm peak, ops/byte x copy bandwidth)" if bw else "gemm peak only (copy probe did not run)",
        "attainable_gflops": attainable,
        "input_bytes": int(x.nbytes),
        "llc_bytes": cal["llc_bytes"],
        "input_fits_llc": cal["llc_bytes"] is not None and x.nbytes <= cal["llc_bytes"],
    }
    traced_med = statistics.median(s["wall_s"] for s in per_solve)
    untraced_med = statistics.median(untraced)
    hits, lookups = mean("cache_hits"), mean("cache_lookups")
    model_s = mean("model_s")
    metrics = {
        "kernels.ttm_s": layer_means["kernels.ttm"],
        "kernels.gram_s": layer_means["kernels.gram"],
        "kernels.flops": flops,
        "kernels.bytes_computed": nbytes,
        "kernels.ttm_gflops": gflops,
        "kernels.ops_per_byte": intensity,
        "kernels.roofline_frac": gflops / attainable if attainable else 0.0,
        "linalg.llsv_s": layer_means["linalg"],
        "core.ttm_s": seq_phase.get("ttm", 0.0) / n,
        "core.llsv_s": seq_phase.get("llsv", 0.0) / n,
        "core.core_analysis_s": seq_phase.get("core_analysis", 0.0) / n,
        "core.iterations": statistics.median(seq_iters),
        "distributed.ttm_count": mean("ttm_count"),
        "distributed.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "distributed.cache_lookups": lookups,
        "distributed.busy_s": mean("busy_s"),
        "distributed.imbalance": mean("imbalance"),
        "distributed.driver_s": layer_means["distributed.driver"],
        "distributed.self_s": layer_means["distributed.self"],
        "mp_comm.collectives": mean("collectives"),
        "mp_comm.collective_s": layer_means["mp_comm"],
        "mp_comm.wait_s": mean("wait_s"),
        "mp_comm.model_s": model_s,
        "mp_comm.model_ratio": layer_means["mp_comm"] / model_s if model_s else 0.0,
        "mp_comm.replay_s": replay_s,
        "mp_comm.world_s": world_s,
        "transport.messages": mean("messages"),
        "transport.bytes": mean("bytes"),
        "transport.shm_messages": mean("shm_messages"),
        "transport.oneway_small_us": fit["oneway_s"]["8"] * 1e6,
        "transport.floor_small_us": floor_small * 1e6,
        "transport.bulk_bytes": float(bulk),
        "transport.bulk_MBps": bulk / bulk_oneway / 1e6,
        "transport.floor_bulk_MBps": bulk / floor_bulk / 1e6,
        "observability.trace_overhead": traced_med / untraced_med - 1.0,
        "observability.untraced_solve_s": untraced_med,
        "observability.traced_solve_s": traced_med,
        "observability.unattributed_s": layer_means["unattributed"],
        "datasets.generate_s": details["generate_s"],
    }
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_out, "w") as fh:
        json.dump(
            {
                "workload": w.name,
                "seed": seed,
                "bench_spans": tracer.as_json(),
                "solves": {
                    k: {"attribution_tree": trees[k], "chrome_trace": chrome[k]}
                    for k in chrome
                },
            },
            fh,
        )
    details["trace_file"] = str(trace_out.relative_to(ROOT))
    return metrics, verdict


def _seq_iterations(stats, ndim: int) -> int:
    if hasattr(stats, "history"):
        return len(stats.history)
    if hasattr(stats, "iterations"):
        return int(stats.iterations)
    return ndim  # STHOSVD processes each mode once


def _attribute(w, root, profiles, stats, recorder, cal, trees, sid, problems) -> dict:
    """Per-solve layer numbers of one traced solve; disagreements
    between the counts of different layers go to ``problems``."""
    import spans as sp

    tree, crit, spill = sp.solve_tree(root, profiles)
    trees[str(sid)] = [asdict(s) for s in tree]
    row = {f"layer:{k}": v for k, v in sp.layer_self_times(tree).items()}
    row["wall_s"] = root.seconds
    row["spill_s"] = spill
    busy = []
    ttm_all = 0.0
    for p in profiles.values():
        start, end = sp.rank_extent(p)
        coll = sp.merged_length(
            [(s.start, s.end) for s in p.spans if s.category == "collective"]
        )
        busy.append((end - start) - coll)
        ttm_all += sp.layer_self_times(sp.rank_tree(p))["kernels.ttm"]
    row["busy_s"] = max(busy)
    row["imbalance"] = max(busy) / (sum(busy) / len(busy)) if sum(busy) > 0 else 1.0
    row["ttm_s_all_ranks"] = ttm_all
    row["flops"] = sum(_rank_counter(p, "ttm_flops") for p in profiles.values())
    row["ttm_bytes"] = recorder.ttm_bytes
    row["wait_s"] = sum(_rank_hist_total(p, "collective_wait_seconds") for p in profiles.values())
    row["messages"] = sum(_rank_gauge(p, "sent_messages") for p in profiles.values())
    row["bytes"] = sum(_rank_gauge(p, "sent_bytes") for p in profiles.values())
    row["shm_messages"] = sum(_rank_gauge(p, "shm_messages") for p in profiles.values())
    crit_p = profiles[crit]
    fit = cal["wires"][w.wire]
    row["model_s"] = fit["alpha_s"] * _rank_gauge(crit_p, "sent_messages") + fit[
        "beta_s_per_byte"
    ] * _rank_gauge(crit_p, "sent_bytes")
    rank0 = profiles[min(profiles)]
    n_coll = sum(1 for s in rank0.spans if s.category == "collective")
    if stats is not None:
        if len(stats.trace.records) != n_coll:
            problems.append(
                f"rank 0 trace has {len(stats.trace.records)} collectives, profile {n_coll}"
            )
        row["ttm_count"] = sum(stats.per_iteration_ttms)
        row["cache_hits"] = stats.cache_hits
        row["cache_lookups"] = stats.cache_hits + stats.cache_misses
    else:
        row["ttm_count"] = sum(
            1 for s in rank0.spans if s.name == "ttm:gemm" and s.phase == "ttm"
        )
        row["cache_hits"] = row["cache_lookups"] = 0
    row["collectives"] = n_coll
    if len(recorder.collectives) != n_coll:
        problems.append(
            f"recorded {len(recorder.collectives)} collectives on rank 0, profile {n_coll}"
        )
    return row


# -- main ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    import spans as sp

    if args.workload == "all":
        return _run_all(sorted(WORKLOADS), args)

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = sp.Tracer()
    details: dict = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "wire": w.wire,
        "input": w.generator,
        "load_model": "closed loop, one caller, P=2 ranks",
    }
    try:
        t0 = time.perf_counter()
        with tracer.span(w.generator, "datasets"):
            x = w.make_input(args.seed)
        details["generate_s"] = time.perf_counter() - t0
        cal = calibrate(x.dtype)
        details["calibration"] = cal
        if args.trace:
            tag = f"{w.name}-seed{args.seed}"
            metrics, verdict = run_traced(
                w, x, args.seed, args.seconds, cal, tracer, details, out_dir / f"trace-{tag}.json"
            )
        else:
            metrics, verdict = run_end_to_end(w, x, args.seed, args.seconds, work, details)
    finally:
        from probes import stop_resource_tracker

        stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    # Names and units as BENCHMARK.json declares them.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if metrics is not None and set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    correct = metrics is not None and not verdict["unexpected"]
    _report(w, details, verdict, metrics, units)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"details": details, "metrics": metrics}, fh, indent=1, default=str)
    result = {
        "correct": correct,
        "attempted": max(verdict["attempted"], 1),
        "failed": verdict["failed"] if verdict["attempted"] else 1,
        "metrics": {
            k: {"value": float(v), "unit": units[k]} for k, v in (metrics or {}).items()
        },
    }
    print(json.dumps(result))
    return 0


def _run_all(names: list[str], args) -> int:
    """Run every workload in its own process, in turn; the last line
    maps each workload to its result line."""
    results, rc = {}, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=str(ROOT),
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            rc = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return rc


def _report(w, details, verdict, metrics, units) -> None:
    cal = details["calibration"]
    print(f"workload {w.name} seed {details['seed']} trace {details['trace']} wire {w.wire}")
    print(f"  why: {w.why}")
    blas = cal["blas"]
    print(
        f"  host: nproc {cal['nproc']}, BLAS {blas.get('vendor')} threads {blas.get('threads')}, "
        f"oversubscribed {cal['oversubscribed']}, LLC {cal['llc_bytes']} B, "
        f"GEMM peak {cal['gemm_peak_gflops']:.1f} GF/s ({cal['gemm_dtype']}), "
        f"copy {cal['copy_gbps'] if cal['copy_gbps'] is None else round(cal['copy_gbps'], 2)} GB/s"
    )
    for wire, fit in cal["wires"].items():
        print(f"  wire {wire}: alpha {fit['alpha_s'] * 1e6:.1f} us, beta {fit['beta_s_per_byte'] * 1e9:.3f} ns/B")
    print(
        f"  oracle: {verdict['failed']}/{verdict['attempted']} solves failed "
        f"(fail_rate {verdict['fail_rate']:.3f}); sequential ranks {verdict['seq_ranks']}, "
        f"true error {verdict['seq_rel_error']:.5g}"
    )
    for row in verdict["outputs"]:
        status = "ok" if row["ok"] else f"VIOLATION [{row['kind']}] {row['detail']}"
        print(
            f"    output {row['digest'][:8]} x{row['solves']}: ranks {row['ranks']}, "
            f"true error {row['rel_error']:.5g}: {status}"
        )
    for msg in verdict["exceptions"]:
        print(f"    exception: {msg}")
    if "speedup_vs_sequential" in details:
        print(
            f"  {details['solves']} solves; sequential/parallel time ratio "
            f"{details['speedup_vs_sequential']:.3f} (not gated)"
        )
    if "attribution" in details:
        a = details["attribution"]
        print(
            f"  attribution over {a['traced_solves']} traced solves: layers + unattributed = "
            f"{sum(a['layer_self_s'].values()):.6f} s vs wall {a['traced_wall_s']:.6f} s "
            f"(tolerance {a['tolerance_share']:.0%}, closes {a['closes']}); trace {details['trace_file']}"
        )
    for k, v in (metrics or {}).items():
        print(f"  {k:32s} {v:.6g} {units[k]}")
    for k, v in details.get("printed_only", {}).items():
        print(f"  {k:32s} {v:.6g} {PRINTED_ONLY_UNITS[k]} (not in the result line)")


if __name__ == "__main__":
    sys.exit(main())

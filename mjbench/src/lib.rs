//! # mjbench — the microjoule benchmark
//!
//! One process, one thread, one closed-loop client. The benchmark builds its
//! inputs from a seed, calls the public functions of `sqlfe`, `engines`,
//! `nosql`, `analysis` and `workloads` directly, times every op from
//! outside, and checks every op for correctness. Three workloads, each one
//! of the repro suite's inner loops:
//!
//! * `tpch_pinned` — the 22 TPC-H plans on all four engines at scale 4, P36
//!   pinned; one op is a warm run, a measured run and a breakdown
//!   (Figs. 6–9, 11, `ext_rowcol`). Its lines take the hot fast path.
//! * `tpch_governed` — the same plans at scale 1 with the governor on and a
//!   timeline sampler attached (Fig. 5). Its lines take the scalar walk.
//! * `oltp_mixed` — YCSB batches, point SQL through `sqlfe`, and TPC-H picks
//!   on all four engines: the write paths of `storage`, `engines` and
//!   `nosql`.
//!
//! End-to-end metrics come from an untraced run; a traced run (`--trace 1`)
//! records spans around every layer call and reports per-layer metrics.
//! Host times are corrected for the host's own speed swings by a probe
//! interleaved with the ops (see [`clock`]).

pub mod clock;
pub mod host;
pub mod oltp;
pub mod stats;
pub mod tpch;
pub mod trace;

use std::time::Instant;

use clock::HostClock;
use engines::{Database, EngineKind, KnobLevel};
use mjdiff::CaseOutcome;
use simcore::{ArchConfig, ArchKind, Cpu, Event, Measurement, PState, RunStats};
use stats::{mean, median, quantile, Digest};
use trace::{Tracer, NO_OP};
use workloads::tpch::gen::{self, TpchData};

/// The seed the repro suite's TPC-H data is generated from.
pub const DEFAULT_SEED: u64 = 0x7c_b0_55;

/// A seed used by no tuning run, to check that results hold beyond it.
pub const HELD_OUT_SEED: u64 = 0x04e1_d0a7;

/// End-to-end metrics, `(name, unit)`, in print order. Host times
/// (`setup_s`, `ops_per_s`, `op_ms_*`) are scaled to a nominal host speed
/// (see [`clock`]).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_ms_per_op", "ms"),
    ("sim_uj_per_op", "uJ"),
    ("ok_pct", "%"),
];

/// Per-layer metrics, `(name, unit)`, in print order. A layer a workload
/// does not call reads 0. Host times are scaled like the end-to-end ones;
/// `bench.host_slowdown` is the factor they were divided by.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("analysis.calibrate_s", "s"),
    ("workloads.load_ms", "ms"),
    ("simcore.lines_hot", "count"),
    ("simcore.lines_cold", "count"),
    ("simcore.lines_replay", "count"),
    ("simcore.lines_scalar", "count"),
    ("simcore.fastpath_pct", "%"),
    ("simcore.host_ns_per_line", "ns"),
    ("simcore.sim_mcycles_per_s", "Mcycles/s"),
    ("simcore.cache_bytes_resident", "bytes"),
    ("simcore.l1d_loads_per_op", "count"),
    ("simcore.l2_misses_per_op", "count"),
    ("simcore.l3_misses_per_op", "count"),
    ("simcore.stall_cycles_per_op", "cycles"),
    ("simcore.p36_residency_pct", "%"),
    ("engines.pg.run_ms", "ms"),
    ("engines.lite.run_ms", "ms"),
    ("engines.my.run_ms", "ms"),
    ("engines.vec.run_ms", "ms"),
    ("engines.execute_ms_p50", "ms"),
    ("engines.execute_ms_p90", "ms"),
    ("engines.rows_out", "count"),
    ("storage.colchunk_rebuilds", "count"),
    ("storage.bytes_per_live_row", "bytes"),
    ("sqlfe.compile_us_p50", "us"),
    ("nosql.us_per_op", "us"),
    ("nosql.reads", "count"),
    ("nosql.writes", "count"),
    ("nosql.misses", "count"),
    ("analysis.breakdown_us", "us"),
    ("analysis.energy_ratio_min", "ratio"),
    ("analysis.energy_ratio_max", "ratio"),
    ("analysis.band_excursions", "count"),
    ("bench.self_ms_per_op", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.failed_pct", "%"),
    ("bench.host_slowdown", "ratio"),
];

/// Span names: the benchmark's own op and setup spans, and the layer calls.
pub mod span {
    /// One setup: calibration plus every database and store.
    pub const SETUP: &str = "setup";
    /// One timed op.
    pub const OP: &str = "op";
    /// Calibrating the P36 energy table (`analysis`).
    pub const CALIBRATE: &str = "analysis::calibrate";
    /// Generating and loading one engine's TPC-H database.
    pub const LOAD_TPCH: &str = "load.tpch";
    /// Creating and loading one engine's `accounts` table.
    pub const LOAD_ACCOUNTS: &str = "load.accounts";
    /// Opening and loading one engine's LSM store.
    pub const LOAD_LSM: &str = "load.lsm";
    /// `engines::Session::run`.
    pub const RUN: &str = "Session::run";
    /// `engines::Session::execute`.
    pub const EXECUTE: &str = "Session::execute";
    /// `sqlfe::compile`.
    pub const COMPILE: &str = "sqlfe::compile";
    /// `nosql::Workload::run`.
    pub const YCSB: &str = "Workload::run";
    /// `analysis::EnergyTable::breakdown`.
    pub const BREAKDOWN: &str = "EnergyTable::breakdown";
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 22 TPC-H plans × 4 engines, scale 4, P36 pinned.
    TpchPinned,
    /// 22 TPC-H plans × 4 engines, scale 1, governor and sampler on.
    TpchGoverned,
    /// YCSB, point SQL and TPC-H picks on 4 engines.
    OltpMixed,
}

impl WorkloadKind {
    /// Every workload, in print order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::TpchPinned,
        WorkloadKind::TpchGoverned,
        WorkloadKind::OltpMixed,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::TpchPinned => "tpch_pinned",
            WorkloadKind::TpchGoverned => "tpch_governed",
            WorkloadKind::OltpMixed => "oltp_mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A deliberate defect, for the self-tests that prove a wrong result is
/// counted as a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Run as is.
    None,
    /// Add a bogus row to one engine's result in the first group.
    WrongRow,
    /// Corrupt the benchmark's model of the `accounts` table (`oltp_mixed`).
    WrongModel,
}

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// TPC-H scale of `tpch_pinned`.
    pub pinned_scale: f64,
    /// TPC-H scale of `tpch_governed`.
    pub governed_scale: f64,
    /// TPC-H scale of `oltp_mixed`.
    pub oltp_scale: f64,
    /// Initial `accounts` rows per engine.
    pub accounts: i64,
    /// Keys loaded into each LSM store.
    pub lsm_keys: u64,
    /// Calibration ops per micro-benchmark.
    pub cal_ops: u64,
    /// Setups per run; `setup_s` is their median, the last one is used.
    pub setups: usize,
    /// Ops a run completes at least, however long they take.
    pub min_ops: u64,
    /// Groups in the digest window of the TPC-H workloads (one pass = 22).
    pub tpch_window: u64,
    /// Requests in the digest window of `oltp_mixed` (one block = 300).
    pub oltp_window: u64,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            pinned_scale: 4.0,
            governed_scale: 1.0,
            oltp_scale: 0.5,
            accounts: 4096,
            lsm_keys: 4096,
            cal_ops: 120_000,
            setups: 3,
            min_ops: 100,
            tpch_window: 22,
            oltp_window: 300,
        }
    }

    /// A seconds-long pass for the self-tests.
    pub fn smoke() -> Size {
        Size {
            pinned_scale: 0.5,
            governed_scale: 0.5,
            oltp_scale: 0.5,
            accounts: 256,
            lsm_keys: 256,
            cal_ops: 20_000,
            setups: 1,
            min_ops: 8,
            tpch_window: 2,
            oltp_window: 8,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: WorkloadKind,
    /// Input seed: TPC-H data, plan order, OLTP keys and op stream.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Deliberate defect (self-tests only).
    pub inject: Inject,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Ops attempted (timed ops plus end-of-run state checks).
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Windows outside the energy band that were not failed (`oltp_mixed`).
    pub band_excursions: u64,
    /// Timed ops (the sample count behind the percentiles).
    pub timed_ops: u64,
    /// Host time of the timed phase, probes excluded.
    pub timed_s: f64,
    /// Host slowdown the host times were divided by.
    pub slowdown: f64,
    /// Digest of the simulated outputs of the digest window.
    pub digest: u64,
    /// Ops in the digest window.
    pub window_ops: u64,
    /// [`END_TO_END`] values.
    pub end_to_end: Vec<Metric>,
    /// [`PER_LAYER`] values (all zero unless traced).
    pub per_layer: Vec<Metric>,
}

/// Run one workload. Returns its result and the spans it recorded (none
/// unless `cfg.trace`).
pub fn run(cfg: &Config) -> Result<(RunResult, Tracer), String> {
    let mut tr = Tracer::new(cfg.trace);
    let mut clock = HostClock::default();
    let raw = match cfg.workload {
        WorkloadKind::TpchPinned | WorkloadKind::TpchGoverned => {
            tpch::run(cfg, &mut tr, &mut clock)?
        }
        WorkloadKind::OltpMixed => oltp::run(cfg, &mut tr, &mut clock)?,
    };
    Ok((raw.finish(cfg, &tr, clock.slowdown()), tr))
}

/// Short engine name used in span tags and metric names.
pub fn short(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Pg => "pg",
        EngineKind::Lite => "lite",
        EngineKind::My => "my",
        EngineKind::Vec => "vec",
    }
}

/// A fresh simulated i7-4790 with the prefetcher on: pinned at P36, or with
/// the governor re-evaluating every 15 µs (Fig. 5's setting).
pub(crate) fn machine(governed: bool) -> Cpu {
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.set_prefetch(true);
    if governed {
        cpu.set_governor(true);
        cpu.set_governor_interval(15e-6);
    } else {
        cpu.set_governor(false);
        cpu.set_pstate(PState::P36);
    }
    cpu
}

/// Calibrate the P36 energy table, as a setup span.
pub(crate) fn calibrate(cfg: &Config, tr: &mut Tracer) -> Result<analysis::EnergyTable, String> {
    tr.span(span::CALIBRATE, "", NO_OP, || {
        analysis::CalibrationBuilder::new(ArchConfig::intel_i7_4790())
            .pstate(PState::P36)
            .target_ops(cfg.size.cal_ops)
            .calibrate()
    })
    .map_err(|e| format!("calibration failed: {e}"))
}

/// Run `build` `cfg.size.setups` times, each as a setup span, and keep the
/// last world. Returns it with each setup's host seconds. Only one world is
/// alive at a time, so peak memory is one setup's.
pub(crate) fn set_up<W>(
    cfg: &Config,
    tr: &mut Tracer,
    clock: &mut HostClock,
    mut build: impl FnMut(&mut Tracer) -> Result<W, String>,
) -> Result<(W, Vec<f64>), String> {
    let mut world = None;
    let mut secs = Vec::new();
    for _ in 0..cfg.size.setups.max(1) {
        drop(world.take());
        let t = Instant::now();
        let s = tr.open(span::SETUP, "", NO_OP);
        let w = build(tr);
        tr.close(s);
        secs.push(t.elapsed().as_secs_f64());
        clock.probe();
        world = Some(w?);
    }
    Ok((world.expect("at least one setup ran"), secs))
}

/// Copy a generated dataset (one generation feeds all four engines).
pub(crate) fn clone_data(d: &TpchData) -> TpchData {
    TpchData {
        region: d.region.clone(),
        nation: d.nation.clone(),
        supplier: d.supplier.clone(),
        customer: d.customer.clone(),
        part: d.part.clone(),
        partsupp: d.partsupp.clone(),
        orders: d.orders.clone(),
        lineitem: d.lineitem.clone(),
    }
}

/// Load a generated TPC-H dataset through the public `Database` loaders,
/// with the same tables, cluster keys and indexes as
/// `workloads::build_tpch_db` (which fixes its own seed).
pub(crate) fn load_tpch(
    cpu: &mut Cpu,
    kind: EngineKind,
    data: TpchData,
) -> storage::Result<Database> {
    let mut db = Database::new(kind, KnobLevel::Baseline);
    let tables = [
        ("region", gen::schema_region(), "r_regionkey", data.region),
        ("nation", gen::schema_nation(), "n_nationkey", data.nation),
        (
            "supplier",
            gen::schema_supplier(),
            "s_suppkey",
            data.supplier,
        ),
        (
            "customer",
            gen::schema_customer(),
            "c_custkey",
            data.customer,
        ),
        ("part", gen::schema_part(), "p_partkey", data.part),
        (
            "partsupp",
            gen::schema_partsupp(),
            "ps_partkey",
            data.partsupp,
        ),
        ("orders", gen::schema_orders(), "o_orderkey", data.orders),
        (
            "lineitem",
            gen::schema_lineitem(),
            "l_orderkey",
            data.lineitem,
        ),
    ];
    for (name, schema, key, rows) in tables {
        db.create_table(name, schema, Some(key))?;
        db.load_rows(cpu, name, rows)?;
    }
    for (table, col) in [
        ("orders", "o_custkey"),
        ("orders", "o_orderdate"),
        ("lineitem", "l_shipdate"),
        ("lineitem", "l_partkey"),
        ("lineitem", "l_suppkey"),
        ("customer", "c_nationkey"),
        ("supplier", "s_nationkey"),
        ("partsupp", "ps_suppkey"),
    ] {
        db.create_index(cpu, table, col)?;
    }
    Ok(db)
}

/// Canonical outcome of one call: sorted canonical rows, or the error.
pub(crate) fn outcome<E: std::fmt::Debug>(
    rows: Result<Vec<storage::Row>, E>,
    violations: Vec<String>,
) -> CaseOutcome {
    let digest = rows
        .map(|rows| {
            let mut canon: Vec<String> = rows.iter().map(mjdiff::harness::canon_row).collect();
            canon.sort();
            canon
        })
        .map_err(|e| format!("{e:?}"));
    CaseOutcome { digest, violations }
}

/// Window invariants: PMU conservation always, and the Eq. 1 energy band
/// when the window ran at the P36 table's operating point.
pub(crate) fn window_violations(
    m: &Measurement,
    table: Option<&analysis::EnergyTable>,
) -> Vec<String> {
    let mut v = mjdiff::invariants::conservation_violations(ArchKind::X86, &m.pmu);
    if let Some(t) = table {
        v.extend(mjdiff::invariants::energy_violation(t, m));
    }
    v
}

/// What every workload accumulates over its timed phase.
pub(crate) struct OpLog {
    pub durations_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub window_ops: u64,
    pub sim_s: f64,
    pub sim_j: f64,
    pub pmu: [u64; 4],
    pub digest: Digest,
    pub ratio: Option<(f64, f64)>,
    /// Windows outside the energy band that were recorded instead of
    /// failed (`oltp_mixed`; see `oltp`).
    pub band_excursions: u64,
    pub rows_out: u64,
    pub groups: u64,
    inject: Inject,
}

impl OpLog {
    pub fn new(inject: Inject) -> OpLog {
        OpLog {
            durations_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            window_ops: 0,
            sim_s: 0.0,
            sim_j: 0.0,
            pmu: [0; 4],
            digest: Digest::default(),
            ratio: None,
            band_excursions: 0,
            rows_out: 0,
            groups: 0,
            inject,
        }
    }

    /// Record one failed check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }

    /// Record one op's measured window: energy ratio always, digest and
    /// simulated totals when the op is inside the digest window.
    pub fn window(
        &mut self,
        m: &Measurement,
        table: Option<&analysis::EnergyTable>,
        in_window: bool,
    ) {
        if let Some(t) = table {
            let (est, meas) = mjdiff::invariants::energy_pair(t, m);
            if meas >= mjdiff::invariants::MIN_ACTIVE_J {
                let r = est / meas;
                let (lo, hi) = self.ratio.unwrap_or((r, r));
                self.ratio = Some((lo.min(r), hi.max(r)));
            }
        }
        if !in_window {
            return;
        }
        self.window_ops += 1;
        self.sim_s += m.time_s;
        self.sim_j += m.rapl.total_j();
        let p = &m.pmu;
        for (acc, ev) in self.pmu.iter_mut().zip([
            Event::LoadIssued,
            Event::L2Miss,
            Event::L3Miss,
            Event::StallCycles,
        ]) {
            *acc += p.get(ev);
        }
        for ev in simcore::pmu::ALL_EVENTS {
            self.digest.u64(p.get(ev));
        }
        for j in [
            m.rapl.core_j,
            m.rapl.package_j,
            m.rapl.memory_j,
            m.time_s,
            m.cycles,
        ] {
            self.digest.f64(j);
        }
    }

    /// Check one group of ops (the same request on every engine, in
    /// [`EngineKind::ALL`] order): an op fails if its call returned `Err`,
    /// an invariant fired on its window, or its rows disagree with
    /// `expected` (the benchmark's model) or, without a model, with the
    /// answer most engines gave.
    pub fn check_group(
        &mut self,
        label: &str,
        mut outs: Vec<CaseOutcome>,
        expected: Option<&CaseOutcome>,
        in_window: bool,
    ) {
        if self.inject == Inject::WrongRow && self.groups == 0 {
            if let Ok(rows) = &mut outs[1].digest {
                rows.push("injected".to_owned());
            }
        }
        self.groups += 1;
        let reference = expected.cloned().unwrap_or_else(|| {
            let agree = |i: usize| {
                outs.iter()
                    .filter(|o| mjdiff::compare(&outs[i], o).is_none())
                    .count()
            };
            let best = (0..outs.len()).max_by_key(|&i| (agree(i), usize::MAX - i));
            outs[best.expect("a group has ops")].clone()
        });
        for (kind, o) in EngineKind::ALL.iter().zip(&outs) {
            let name = short(*kind);
            if in_window {
                match &o.digest {
                    Ok(rows) => rows.iter().for_each(|r| self.digest.str(r)),
                    Err(e) => self.digest.str(e),
                }
            }
            if let Ok(rows) = &o.digest {
                self.rows_out += rows.len() as u64;
            }
            if let Err(e) = &o.digest {
                self.fail(format!("{label}/{name}: error {e}"));
            } else if let Some(v) = o.violations.first() {
                self.fail(format!("{label}/{name}: {v}"));
            } else if let Some(d) = mjdiff::compare(&reference, o) {
                self.fail(format!("{label}/{name}: {d}"));
            }
        }
    }
}

/// A workload's raw totals, turned into metrics by [`Raw::finish`].
pub(crate) struct Raw {
    pub setup_s: Vec<f64>,
    pub log: OpLog,
    pub timed_s: f64,
    pub lines: RunStats,
    pub sim_cycles: f64,
    pub cache_bytes: u64,
    pub p36_pct: f64,
    pub colchunk_rebuilds: u64,
    pub bytes_per_live_row: f64,
    pub nosql: [u64; 4],
}

impl Raw {
    fn finish(self, cfg: &Config, tr: &Tracer, slowdown: f64) -> RunResult {
        let log = &self.log;
        let ops = log.durations_ms.len() as u64;
        let per_window_op = |x: f64| x / log.window_ops.max(1) as f64;
        let e2e = [
            ("setup_s", median(&self.setup_s) / slowdown),
            ("ops_per_s", ops as f64 / self.timed_s * slowdown),
            ("op_ms_p50", median(&log.durations_ms) / slowdown),
            ("op_ms_p90", quantile(&log.durations_ms, 0.9) / slowdown),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("sim_ms_per_op", per_window_op(log.sim_s * 1e3)),
            ("sim_uj_per_op", per_window_op(log.sim_j * 1e6)),
            (
                "ok_pct",
                100.0 * (log.attempted - log.failed) as f64 / log.attempted.max(1) as f64,
            ),
        ];
        let per_layer = if cfg.trace {
            self.layers(tr, slowdown)
        } else {
            PER_LAYER.map(|(name, _)| (name, 0.0))
        };
        // Values are listed beside their names, so a table reordered on one
        // side only fails here instead of printing a value under another name.
        let metrics = |table: &[(&'static str, &'static str)], vals: &[(&str, f64)]| {
            assert_eq!(table.len(), vals.len());
            table
                .iter()
                .zip(vals)
                .map(|(&(name, unit), &(n, value))| {
                    assert_eq!(name, n, "metric table out of order");
                    Metric { name, value, unit }
                })
                .collect()
        };
        RunResult {
            attempted: log.attempted,
            failed: log.failed,
            failures: log.failures.clone(),
            band_excursions: log.band_excursions,
            timed_ops: ops,
            timed_s: self.timed_s,
            slowdown,
            digest: log.digest.value(),
            window_ops: log.window_ops,
            end_to_end: metrics(&END_TO_END, &e2e),
            per_layer: metrics(&PER_LAYER, &per_layer),
        }
    }

    fn layers(&self, tr: &Tracer, slowdown: f64) -> [(&'static str, f64); PER_LAYER.len()] {
        let log = &self.log;
        let ms = |ns: &[u64]| {
            ns.iter()
                .map(|&n| n as f64 / 1e6 / slowdown)
                .collect::<Vec<f64>>()
        };
        let run_ms = |kind: EngineKind| mean(&ms(&tr.durations(span::RUN, Some(short(kind)))));
        let exec_ms = ms(&tr.durations(span::EXECUTE, None));
        // Per setup: the summed host time of its loads.
        let spans = tr.spans();
        let load_ms: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == span::SETUP)
            .map(|(i, _)| {
                spans
                    .iter()
                    .filter(|c| c.parent == Some(i) && c.name.starts_with("load."))
                    .map(|c| c.dur_ns() as f64 / 1e6 / slowdown)
                    .sum()
            })
            .collect();
        let l = self.lines;
        let all_lines = l.batched_lines + l.cold_batched_lines + l.replayed_lines + l.fallbacks;
        let fast = all_lines - l.fallbacks;
        let ycsb_ns: u64 = tr.durations(span::YCSB, None).iter().sum();
        let nosql_ops = self.nosql[3];
        let per_op = |x: u64| x as f64 / log.window_ops.max(1) as f64;
        let (ratio_lo, ratio_hi) = log.ratio.unwrap_or((0.0, 0.0));
        let op_self_ms = mean(&ms(&tr.self_times(span::OP)));
        // The recorder's own cost as a share of the traced timed phase.
        let timed_spans = spans.iter().filter(|s| s.op != NO_OP).count() as f64;
        let overhead_pct =
            100.0 * timed_spans * Tracer::cost_per_span_ns(100_000) / (self.timed_s * 1e9);
        [
            (
                "analysis.calibrate_s",
                median(&ms(&tr.durations(span::CALIBRATE, None))) / 1e3,
            ),
            ("workloads.load_ms", median(&load_ms)),
            ("simcore.lines_hot", l.batched_lines as f64),
            ("simcore.lines_cold", l.cold_batched_lines as f64),
            ("simcore.lines_replay", l.replayed_lines as f64),
            ("simcore.lines_scalar", l.fallbacks as f64),
            (
                "simcore.fastpath_pct",
                100.0 * fast as f64 / all_lines.max(1) as f64,
            ),
            (
                "simcore.host_ns_per_line",
                self.timed_s * 1e9 / slowdown / all_lines.max(1) as f64,
            ),
            (
                "simcore.sim_mcycles_per_s",
                self.sim_cycles / 1e6 / self.timed_s * slowdown,
            ),
            ("simcore.cache_bytes_resident", self.cache_bytes as f64),
            ("simcore.l1d_loads_per_op", per_op(log.pmu[0])),
            ("simcore.l2_misses_per_op", per_op(log.pmu[1])),
            ("simcore.l3_misses_per_op", per_op(log.pmu[2])),
            ("simcore.stall_cycles_per_op", per_op(log.pmu[3])),
            ("simcore.p36_residency_pct", self.p36_pct),
            ("engines.pg.run_ms", run_ms(EngineKind::Pg)),
            ("engines.lite.run_ms", run_ms(EngineKind::Lite)),
            ("engines.my.run_ms", run_ms(EngineKind::My)),
            ("engines.vec.run_ms", run_ms(EngineKind::Vec)),
            ("engines.execute_ms_p50", median(&exec_ms)),
            ("engines.execute_ms_p90", quantile(&exec_ms, 0.9)),
            ("engines.rows_out", log.rows_out as f64),
            ("storage.colchunk_rebuilds", self.colchunk_rebuilds as f64),
            ("storage.bytes_per_live_row", self.bytes_per_live_row),
            (
                "sqlfe.compile_us_p50",
                median(&ms(&tr.durations(span::COMPILE, None))) * 1e3,
            ),
            (
                "nosql.us_per_op",
                ycsb_ns as f64 / 1e3 / slowdown / nosql_ops.max(1) as f64,
            ),
            ("nosql.reads", self.nosql[0] as f64),
            ("nosql.writes", self.nosql[1] as f64),
            ("nosql.misses", self.nosql[2] as f64),
            (
                "analysis.breakdown_us",
                mean(&ms(&tr.durations(span::BREAKDOWN, None))) * 1e3,
            ),
            ("analysis.energy_ratio_min", ratio_lo),
            ("analysis.energy_ratio_max", ratio_hi),
            ("analysis.band_excursions", log.band_excursions as f64),
            ("bench.self_ms_per_op", op_self_ms),
            ("bench.trace_overhead_pct", overhead_pct),
            (
                "bench.failed_pct",
                100.0 * log.failed as f64 / log.attempted.max(1) as f64,
            ),
            ("bench.host_slowdown", slowdown),
        ]
    }
}

/// Line counts of the workload's machines over the timed phase, read the
/// way the counters allow: drained into the process-wide totals when each
/// `Cpu` drops. `base` is what those machines had counted when setup ended.
pub(crate) fn drained_lines(base: RunStats) -> RunStats {
    let s = simcore::take_run_stats();
    RunStats {
        batched_lines: s.batched_lines - base.batched_lines,
        cold_batched_lines: s.cold_batched_lines - base.cold_batched_lines,
        replayed_lines: s.replayed_lines - base.replayed_lines,
        fallbacks: s.fallbacks - base.fallbacks,
    }
}

/// Sum of the machines' own line counters.
pub(crate) fn sum_stats<'a>(cpus: impl Iterator<Item = &'a Cpu>) -> RunStats {
    cpus.map(Cpu::run_stats)
        .fold(RunStats::default(), |a, s| RunStats {
            batched_lines: a.batched_lines + s.batched_lines,
            cold_batched_lines: a.cold_batched_lines + s.cold_batched_lines,
            replayed_lines: a.replayed_lines + s.replayed_lines,
            fallbacks: a.fallbacks + s.fallbacks,
        })
}

/// Render a result as the benchmark's last output line: one JSON object holding
/// the end-to-end metrics, or with `trace` the per-layer ones.
pub fn result_json(r: &RunResult, trace: bool) -> String {
    let ms = if trace { &r.per_layer } else { &r.end_to_end };
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit Rust prints for an `f64`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

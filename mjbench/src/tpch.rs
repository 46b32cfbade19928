//! `tpch_pinned` and `tpch_governed`: the per-query profiling loop that the
//! figure experiments share, on all four engines.
//!
//! The seed generates the data and the order of the 22 plans in each pass.
//! A group is one plan on every engine; one op is one engine's share:
//!
//! * pinned (scale 4, P36): a warm `Session::run`, a measured
//!   `Session::run` and `EnergyTable::breakdown` — `bench::Rig::profile`
//!   plus `breakdown`;
//! * governed (scale 1, governor every 15 µs): a warm `Session::run`, then
//!   a measured `Session::run` with a 10 µs timeline sampler attached.
//!
//! The first pass is the digest window: its simulated outputs are the same
//! on every run of a seed, however many ops the host completes.

use std::time::Instant;

use engines::{Database, EngineKind, Plan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simcore::{Cpu, PState};
use workloads::tpch::gen;
use workloads::{TpchQuery, TpchScale};

use crate::clock::HostClock;
use crate::trace::{Tracer, NO_OP};
use crate::{span, Config, OpLog, Raw, WorkloadKind};

/// Seed stream of the plan order (the data uses the seed itself).
const ORDER_STREAM: u64 = 0x0de5_0a11;

struct Machine {
    kind: EngineKind,
    cpu: Cpu,
    db: Database,
}

struct World {
    table: analysis::EnergyTable,
    machines: Vec<Machine>,
}

fn build(cfg: &Config, governed: bool, tr: &mut Tracer) -> Result<World, String> {
    let table = crate::calibrate(cfg, tr)?;
    let scale = if governed {
        cfg.size.governed_scale
    } else {
        cfg.size.pinned_scale
    };
    let data = gen::generate(TpchScale(scale), cfg.seed);
    let mut machines = Vec::new();
    for kind in EngineKind::ALL {
        let s = tr.open(span::LOAD_TPCH, crate::short(kind), NO_OP);
        let mut cpu = crate::machine(governed);
        let db = crate::load_tpch(&mut cpu, kind, crate::clone_data(&data))
            .map_err(|e| format!("loading TPC-H on {}: {e:?}", kind.name()))?;
        tr.close(s);
        machines.push(Machine { kind, cpu, db });
    }
    Ok(World { table, machines })
}

/// Fisher–Yates with the benchmark's own generator.
pub(crate) fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

pub(crate) fn run(cfg: &Config, tr: &mut Tracer, clock: &mut HostClock) -> Result<Raw, String> {
    let governed = cfg.workload == WorkloadKind::TpchGoverned;
    let (mut world, setup_s) = crate::set_up(cfg, tr, clock, |tr| build(cfg, governed, tr))?;
    // Calibration's machines and the earlier setups' drained into the
    // process-wide counters when they dropped: clear that out.
    let _ = simcore::take_run_stats();
    let base = crate::sum_stats(world.machines.iter().map(|m| &m.cpu));
    let cycles0: f64 = world.machines.iter().map(|m| m.cpu.cycles()).sum();

    let plans: Vec<Plan> = TpchQuery::all().map(|q| q.plan()).collect();
    let mut order: Vec<usize> = (0..plans.len()).collect();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ ORDER_STREAM);
    let mut log = OpLog::new(cfg.inject);
    let (mut p36, mut samples, mut rebuilds) = (0u64, 0u64, 0u64);
    let seconds = std::time::Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let probed = clock.spent();
    // Whole passes only, so every run times the same mix of plans.
    while (log.durations_ms.len() as u64) < cfg.size.min_ops || start.elapsed() < seconds {
        shuffle(&mut order, &mut rng);
        for &qi in &order {
            let plan = &plans[qi];
            let in_window = log.groups < cfg.size.tpch_window;
            let mut outs = Vec::with_capacity(world.machines.len());
            for m in &mut world.machines {
                let id = log.attempted;
                log.attempted += 1;
                let tag = crate::short(m.kind);
                if m.kind == EngineKind::Vec {
                    rebuilds += missing_columnar(&m.db, plan);
                }
                let t0 = Instant::now();
                let op = tr.open(span::OP, tag, id);
                let warm = tr.span(span::RUN, tag, id, || m.db.session().run(&mut m.cpu, plan));
                if governed {
                    m.cpu.attach_sampler(10e-6);
                }
                let tok = m.cpu.begin_measure();
                let rows = tr.span(span::RUN, tag, id, || m.db.session().run(&mut m.cpu, plan));
                let meas = m.cpu.end_measure(tok);
                let table = (!governed).then_some(&world.table);
                if let Some(t) = table {
                    std::hint::black_box(tr.span(span::BREAKDOWN, tag, id, || t.breakdown(&meas)));
                }
                tr.close(op);
                log.durations_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                clock.tick();

                if let Some(s) = m.cpu.take_sampler() {
                    samples += s.samples.len() as u64;
                    p36 += s.samples.iter().filter(|x| x.pstate == PState::P36).count() as u64;
                }
                log.window(&meas, table, in_window);
                let violations = crate::window_violations(&meas, table);
                let rows = warm.and(rows);
                outs.push(crate::outcome(rows, violations));
            }
            let label = TpchQuery(qi as u8 + 1).name();
            log.check_group(&label, outs, None, in_window);
        }
    }
    let timed_s = (start.elapsed() - (clock.spent() - probed)).as_secs_f64();
    let cycles1: f64 = world.machines.iter().map(|m| m.cpu.cycles()).sum();
    drop(world);
    Ok(Raw {
        setup_s,
        lines: crate::drained_lines(base),
        cache_bytes: simcore::take_cache_bytes_resident(),
        sim_cycles: cycles1 - cycles0,
        timed_s,
        p36_pct: if governed {
            100.0 * p36 as f64 / samples.max(1) as f64
        } else {
            100.0
        },
        colchunk_rebuilds: rebuilds,
        bytes_per_live_row: 0.0,
        nosql: [0; 4],
        log,
    })
}

/// Tables `plan` reads whose columnar image is missing, so the `vec` engine
/// rebuilds it inside the coming call.
pub(crate) fn missing_columnar(db: &Database, plan: &Plan) -> u64 {
    plan.tables()
        .iter()
        .filter(|t| db.catalog().table(t).is_ok_and(|t| t.columnar.is_none()))
        .count() as u64
}

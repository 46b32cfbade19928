//! `oltp_mixed`: reads and writes through `sqlfe`, `engines`, `storage` and
//! `nosql` on all four engines.
//!
//! Each engine gets its own machine holding TPC-H at scale 0.5, an
//! `accounts` table (PK-clustered) and an LSM store configured as in
//! `serve`. The seed generates the data and a stream of requests in blocks
//! of 300, shuffled per block so every block has exactly the same mix:
//!
//! * 150 YCSB batches of 8 ops, 25 of each mix A–F;
//! * 144 point SQL statements sent as text through `sqlfe::compile`, split
//!   as serve's DML family: 72 UPDATE, 29 SELECT, 22 INSERT, 21 DELETE;
//! * 6 TPC-H picks, 2 each of Q1, Q6 and Q12.
//!
//! The timed phase ends on a block boundary, so every run times whole
//! blocks: its op-time percentiles do not depend on where it stopped.
//!
//! A group is one request on every engine; one op is one engine's share.
//! The benchmark keeps its own model of `accounts`: every statement's answer
//! must match it, and so must each engine's table when the run ends. The
//! first `oltp_window` requests are the digest window.

use std::collections::BTreeMap;
use std::time::Instant;

use engines::{Database, EngineKind, Plan};
use mjdiff::CaseOutcome;
use nosql::{LsmConfig, LsmStore, Workload, YcsbMix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simcore::Cpu;
use sqlfe::Planned;
use storage::{Schema, Ty, Value};
use workloads::tpch::gen;
use workloads::{TpchQuery, TpchScale};

use crate::clock::HostClock;
use crate::trace::{Tracer, NO_OP};
use crate::{span, Config, Inject, OpLog, Raw};

const REQUEST_STREAM: u64 = 0x01f9_57ea;
const BALANCE_STREAM: u64 = 0x0ba1_a9ce;
const YCSB_STREAM: u64 = 0x0c5b_0000;
/// YCSB ops per batch request.
const YCSB_BATCH: u64 = 8;
/// Bytes per LSM value.
const VALUE_BYTES: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Slot {
    Ycsb(usize),
    Update,
    Select,
    Insert,
    Delete,
    Pick(u8),
}

/// One block of requests: `(kind, count)`, 300 in all.
const BLOCK: [(Slot, usize); 13] = [
    (Slot::Ycsb(0), 25),
    (Slot::Ycsb(1), 25),
    (Slot::Ycsb(2), 25),
    (Slot::Ycsb(3), 25),
    (Slot::Ycsb(4), 25),
    (Slot::Ycsb(5), 25),
    (Slot::Update, 72),
    (Slot::Select, 29),
    (Slot::Insert, 22),
    (Slot::Delete, 21),
    (Slot::Pick(1), 2),
    (Slot::Pick(6), 2),
    (Slot::Pick(12), 2),
];

enum Request {
    Ycsb(usize),
    Sql {
        text: String,
        expect: CaseOutcome,
        effect: Effect,
    },
    Pick(u8),
}

/// What a statement does to `accounts`, applied to the model once every
/// engine has run it.
#[derive(Debug, Clone, Copy)]
enum Effect {
    None,
    Set(i64, f64),
    Remove(i64),
}

impl Effect {
    fn apply(self, model: &mut Model) {
        match self {
            Effect::None => {}
            Effect::Set(k, v) => {
                model.rows.insert(k, v);
            }
            Effect::Remove(k) => {
                model.rows.remove(&k);
            }
        }
    }
}

/// The benchmark's model of `accounts`.
struct Model {
    rows: BTreeMap<i64, f64>,
    next_id: i64,
}

impl Model {
    fn canon(&self) -> CaseOutcome {
        let rows = self
            .rows
            .iter()
            .map(|(&k, &v)| vec![Value::Int(k), Value::Float(v)])
            .collect();
        crate::outcome::<()>(Ok(rows), Vec::new())
    }
}

/// An answer that is not a row set (or a failure to give one).
fn answer(digest: Result<Vec<String>, String>) -> CaseOutcome {
    CaseOutcome {
        digest,
        violations: Vec::new(),
    }
}

fn affected(n: u64) -> CaseOutcome {
    answer(Ok(vec![format!("affected={n}")]))
}

/// A balance with an exact two-decimal text form.
fn balance(rng: &mut SmallRng) -> f64 {
    rng.gen_range(0..40_000) as f64 / 4.0
}

struct Node {
    kind: EngineKind,
    cpu: Cpu,
    db: Database,
    lsm: LsmStore,
    ycsb: Vec<Workload>,
}

struct World {
    table: analysis::EnergyTable,
    nodes: Vec<Node>,
    model: Model,
}

fn build(cfg: &Config, tr: &mut Tracer) -> Result<World, String> {
    let table = crate::calibrate(cfg, tr)?;
    let data = gen::generate(TpchScale(cfg.size.oltp_scale), cfg.seed);
    let mut brng = SmallRng::seed_from_u64(cfg.seed ^ BALANCE_STREAM);
    let model = Model {
        rows: (0..cfg.size.accounts)
            .map(|i| (i, balance(&mut brng)))
            .collect(),
        next_id: cfg.size.accounts,
    };
    let mut nodes = Vec::new();
    for kind in EngineKind::ALL {
        let tag = crate::short(kind);
        let err = |what: &str, e: &dyn std::fmt::Debug| format!("{what} on {}: {e:?}", kind.name());
        let mut cpu = crate::machine(false);

        let s = tr.open(span::LOAD_TPCH, tag, NO_OP);
        let mut db = crate::load_tpch(&mut cpu, kind, crate::clone_data(&data))
            .map_err(|e| err("loading TPC-H", &e))?;
        tr.close(s);

        let s = tr.open(span::LOAD_ACCOUNTS, tag, NO_OP);
        let rows = model
            .rows
            .iter()
            .map(|(&k, &v)| vec![Value::Int(k), Value::Float(v)])
            .collect();
        db.create_table(
            "accounts",
            Schema::new([("id", Ty::Int), ("bal", Ty::Float)]),
            Some("id"),
        )
        .and_then(|()| db.load_rows(&mut cpu, "accounts", rows))
        .map_err(|e| err("loading accounts", &e))?;
        tr.close(s);

        let s = tr.open(span::LOAD_LSM, tag, NO_OP);
        let lsm_cfg = LsmConfig {
            memtable_bytes: 32 * 1024,
            fanout: 4,
            wal_group: 16,
        };
        let mut lsm = LsmStore::open(&mut cpu, lsm_cfg).map_err(|e| err("opening LSM", &e))?;
        Workload::load(
            &mut cpu,
            &mut lsm,
            YcsbMix::C,
            cfg.size.lsm_keys,
            VALUE_BYTES,
        )
        .map_err(|e| err("loading LSM", &e))?;
        tr.close(s);

        let ycsb = YcsbMix::ALL
            .iter()
            .enumerate()
            .map(|(i, &mix)| {
                let seed = cfg.seed ^ (YCSB_STREAM + i as u64);
                Workload::attach(mix, cfg.size.lsm_keys, VALUE_BYTES, seed)
            })
            .collect();
        nodes.push(Node {
            kind,
            cpu,
            db,
            lsm,
            ycsb,
        });
    }
    Ok(World {
        table,
        nodes,
        model,
    })
}

/// Draw the next request and, for SQL, the answer the model expects; the
/// model's rows change only through [`Effect::apply`], after every engine
/// ran the statement.
fn next_request(slot: Slot, rng: &mut SmallRng, model: &mut Model) -> Request {
    let key = |rng: &mut SmallRng, m: &Model| rng.gen_range(0..m.next_id);
    match slot {
        Slot::Ycsb(mix) => Request::Ycsb(mix),
        Slot::Pick(q) => Request::Pick(q),
        Slot::Update => {
            let k = key(rng, model);
            let v = balance(rng);
            let hit = model.rows.contains_key(&k);
            Request::Sql {
                text: format!("UPDATE accounts SET bal = {v:.2} WHERE id = {k}"),
                expect: affected(hit as u64),
                effect: if hit { Effect::Set(k, v) } else { Effect::None },
            }
        }
        Slot::Select => {
            let k = key(rng, model);
            let rows = model
                .rows
                .get(&k)
                .map(|&v| vec![vec![Value::Int(k), Value::Float(v)]])
                .unwrap_or_default();
            Request::Sql {
                text: format!("SELECT id, bal FROM accounts WHERE id = {k}"),
                expect: crate::outcome::<()>(Ok(rows), Vec::new()),
                effect: Effect::None,
            }
        }
        Slot::Insert => {
            let k = model.next_id;
            model.next_id += 1;
            let v = balance(rng);
            Request::Sql {
                text: format!("INSERT INTO accounts VALUES ({k}, {v:.2})"),
                expect: affected(1),
                effect: Effect::Set(k, v),
            }
        }
        Slot::Delete => {
            let k = key(rng, model);
            Request::Sql {
                text: format!("DELETE FROM accounts WHERE id = {k}"),
                expect: affected(model.rows.contains_key(&k) as u64),
                effect: Effect::Remove(k),
            }
        }
    }
}

pub(crate) fn run(cfg: &Config, tr: &mut Tracer, clock: &mut HostClock) -> Result<Raw, String> {
    let (mut world, setup_s) = crate::set_up(cfg, tr, clock, |tr| build(cfg, tr))?;
    if cfg.inject == Inject::WrongModel {
        // A row no statement can touch: every final-state check must fail.
        world.model.rows.insert(-1, 0.25);
    }
    let _ = simcore::take_run_stats();
    let base = crate::sum_stats(world.nodes.iter().map(|n| &n.cpu));
    let cycles0: f64 = world.nodes.iter().map(|n| n.cpu.cycles()).sum();

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ REQUEST_STREAM);
    let mut block: Vec<Slot> = Vec::new();
    let mut log = OpLog::new(cfg.inject);
    let mut nosql = [0u64; 4];
    let mut rebuilds = 0u64;
    let min_ops = cfg
        .size
        .min_ops
        .max(cfg.size.oltp_window * EngineKind::COUNT as u64);
    let seconds = std::time::Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let probed = clock.spent();
    // Whole blocks only, so every run times the same mix of requests.
    loop {
        let ops = log.durations_ms.len() as u64;
        if block.is_empty() && ops >= min_ops && start.elapsed() >= seconds {
            break;
        }
        if block.is_empty() {
            block = BLOCK
                .iter()
                .flat_map(|&(s, n)| std::iter::repeat_n(s, n))
                .collect();
            crate::tpch::shuffle(&mut block, &mut rng);
        }
        let slot = block.pop().expect("block refilled above");
        let req = next_request(slot, &mut rng, &mut world.model);
        let in_window = log.groups < cfg.size.oltp_window;
        let table = Some(&world.table);
        let mut outs = Vec::with_capacity(world.nodes.len());
        for n in &mut world.nodes {
            let id = log.attempted;
            log.attempted += 1;
            let tag = crate::short(n.kind);
            let t0 = Instant::now();
            let op = tr.open(span::OP, tag, id);
            let tok = n.cpu.begin_measure();
            let out = match &req {
                Request::Ycsb(mix) => {
                    let (cpu, lsm, w) = (&mut n.cpu, &mut n.lsm, &mut n.ycsb[*mix]);
                    let r = tr.span(span::YCSB, tag, id, || w.run(cpu, lsm, YCSB_BATCH));
                    if let Ok((reads, writes, misses)) = r {
                        for (acc, x) in nosql.iter_mut().zip([reads, writes, misses, YCSB_BATCH]) {
                            *acc += x;
                        }
                    }
                    answer(
                        r.map(|(r, w, m)| vec![format!("reads={r} writes={w} misses={m}")])
                            .map_err(|e| e.to_string()),
                    )
                }
                Request::Pick(q) => {
                    let plan = TpchQuery(*q).plan();
                    if n.kind == EngineKind::Vec {
                        rebuilds += crate::tpch::missing_columnar(&n.db, &plan);
                    }
                    let rows =
                        tr.span(span::RUN, tag, id, || n.db.session().run(&mut n.cpu, &plan));
                    crate::outcome(rows, Vec::new())
                }
                Request::Sql { text, .. } => {
                    let catalog = n.db.catalog();
                    match tr.span(span::COMPILE, tag, id, || sqlfe::compile(text, catalog)) {
                        Ok(Planned::Query(plan)) => {
                            if n.kind == EngineKind::Vec {
                                rebuilds += crate::tpch::missing_columnar(&n.db, &plan);
                            }
                            let (db, cpu) = (&mut n.db, &mut n.cpu);
                            let rows = tr.span(span::RUN, tag, id, || db.session().run(cpu, &plan));
                            crate::outcome(rows, Vec::new())
                        }
                        Ok(Planned::Write(dml)) => {
                            let (db, cpu) = (&mut n.db, &mut n.cpu);
                            let r =
                                tr.span(span::EXECUTE, tag, id, || db.session().execute(cpu, &dml));
                            r.map_or_else(|e| answer(Err(format!("{e:?}"))), affected)
                        }
                        Ok(Planned::Explain { .. }) => {
                            answer(Err("compiled to EXPLAIN".to_owned()))
                        }
                        Err(e) => answer(Err(format!("sqlfe: {e}"))),
                    }
                }
            };
            let meas = n.cpu.end_measure(tok);
            tr.close(op);
            log.durations_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            clock.tick();
            log.window(&meas, table, in_window);
            // The energy band was grounded on read-only query windows over
            // cache-resident data. Here simulated memory only grows (the
            // arena is a bump allocator: every columnar rebuild, memtable
            // and SSTable takes fresh simulated DRAM), so windows come to
            // stream from DRAM, where the table prices every DRAM-to-L3
            // prefetch as a demand DRAM access (the movement assumption,
            // §2.5.4) and Ê/E reaches about 1.4. Excursions are counted,
            // not failed; every other check still applies.
            log.band_excursions += table
                .and_then(|t| mjdiff::invariants::energy_violation(t, &meas))
                .is_some() as u64;
            outs.push(CaseOutcome {
                violations: crate::window_violations(&meas, None),
                ..out
            });
        }
        let (label, expect) = match &req {
            Request::Ycsb(mix) => (YcsbMix::ALL[*mix].name().to_owned(), None),
            Request::Pick(q) => (TpchQuery(*q).name(), None),
            Request::Sql { text, expect, .. } => (text.clone(), Some(expect)),
        };
        log.check_group(&label, outs, expect, in_window);
        if let Request::Sql { effect, .. } = req {
            effect.apply(&mut world.model);
        }
    }
    let timed_s = (start.elapsed() - (clock.spent() - probed)).as_secs_f64();
    let cycles1: f64 = world.nodes.iter().map(|n| n.cpu.cycles()).sum();

    // End-of-run state: every engine's `accounts` must equal the model.
    let want = world.model.canon();
    let mut bytes_per_row = Vec::new();
    for n in &mut world.nodes {
        log.attempted += 1;
        let got = crate::outcome(
            n.db.session().run(&mut n.cpu, &Plan::scan("accounts")),
            Vec::new(),
        );
        if let Some(d) = mjdiff::compare(&want, &got) {
            log.fail(format!("final accounts/{}: {d}", crate::short(n.kind)));
        }
        if let Ok(t) = n.db.catalog().table("accounts") {
            let bytes = t.heap.n_pages() as f64 * f64::from(n.db.store().page_size());
            bytes_per_row.push(bytes / world.model.rows.len().max(1) as f64);
        }
    }
    drop(world);
    Ok(Raw {
        setup_s,
        lines: crate::drained_lines(base),
        cache_bytes: simcore::take_cache_bytes_resident(),
        sim_cycles: cycles1 - cycles0,
        timed_s,
        p36_pct: 100.0,
        colchunk_rebuilds: rebuilds,
        bytes_per_live_row: crate::stats::mean(&bytes_per_row),
        nosql,
        log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_update_the_model() {
        let mut m = Model {
            rows: [(0, 1.0), (1, 2.0)].into_iter().collect(),
            next_id: 2,
        };
        Effect::Set(1, 12.25).apply(&mut m);
        Effect::Set(2, 3.5).apply(&mut m);
        Effect::Remove(0).apply(&mut m);
        Effect::None.apply(&mut m);
        let rows: Vec<(i64, f64)> = m.rows.into_iter().collect();
        assert_eq!(rows, vec![(1, 12.25), (2, 3.5)]);
    }

    #[test]
    fn a_block_has_the_serve_mix() {
        let count = |f: fn(Slot) -> bool| -> usize {
            BLOCK.iter().filter(|&&(s, _)| f(s)).map(|&(_, n)| n).sum()
        };
        assert_eq!(count(|_| true), 300);
        assert_eq!(count(|s| matches!(s, Slot::Ycsb(_))), 150);
        assert_eq!(count(|s| matches!(s, Slot::Pick(_))), 6);
        assert_eq!(count(|s| matches!(s, Slot::Update)), 72);
    }
}

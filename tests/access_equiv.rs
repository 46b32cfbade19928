//! Differential test for the batched memory-access fast path.
//!
//! `Cpu::access_run` / `Cpu::copy_run` / `Cpu::load_repeat` /
//! `Cpu::store_repeat` promise that for *any* access sequence the PMU
//! counters, RAPL joules and timeline cycles are bit-identical to issuing
//! the same accesses one at a time through the reference verbs
//! (`simcore::cpu::oracle`: the per-access charging over the scalar
//! hierarchy walk). This test replays traces twice — once expanded to
//! oracle loads and stores, once through the production entry points — and
//! compares the two `Measurement`s exactly (`f64::to_bits`, not an
//! epsilon), plus every timeline sample when a sampler is attached.
//!
//! Traces cover the randomized case plus the adversarial shapes that have
//! historically broken "fast path equals slow path" claims: set-conflict
//! strides that evict mid-run, cold runs crossing DRAM row boundaries with
//! the prefetcher on, runs straddling the TCM window on the ARM part,
//! chase shadows draining into a run, and P-state changes between runs.
//! The fast regimes also run with the EIST governor on and a timeline
//! sampler attached, serviced at simulated-time deadlines inside runs, so
//! the governed traces put governor ticks and samples mid-hot-run,
//! mid-chase, between a miss's issue slot and its stall and inside
//! write-allocates, with idle gaps that ramp the P-state down and back up —
//! and assert that those traces really batch.

use simcore::cpu::oracle;
use simcore::{
    ArchConfig, Cpu, Dep, ExecOp, FallbackReasons, Measurement, PState, RunStats, TimelineSampler,
    LINE,
};

/// xorshift64* — deterministic, no external dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// One step of a replayable access trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A sequential run of `lines` line accesses from `addr`.
    Run {
        addr: u64,
        lines: u64,
        write: bool,
        dep: Dep,
    },
    /// `n` repeated accesses of one line.
    Repeat {
        addr: u64,
        n: u64,
        write: bool,
    },
    Load {
        addr: u64,
        dep: Dep,
    },
    Store {
        addr: u64,
    },
    /// `lines` lines of load-then-store copy from `addr`.
    Copy {
        addr: u64,
        lines: u64,
    },
    Exec(ExecOp),
    SetPstate(u8),
    /// C0 idle (the governor sees zero utilization and ramps down).
    Idle(f64),
    Flush,
}

/// The ops both replays issue identically.
fn replay_common(cpu: &mut Cpu, op: Op) {
    match op {
        Op::Exec(op) => cpu.exec(op),
        Op::SetPstate(n) => cpu.set_pstate(PState(n)),
        Op::Idle(s) => cpu.idle_c0(s),
        Op::Flush => cpu.flush_caches(),
        _ => unreachable!("access op {op:?}"),
    }
}

/// Replay through the oracle verbs only (the reference semantics).
fn replay_scalar(cpu: &mut Cpu, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Run {
                addr,
                lines,
                write,
                dep,
            } => {
                let base = addr & !(LINE - 1);
                for i in 0..lines {
                    if write {
                        oracle::store(cpu, base + i * LINE);
                    } else {
                        oracle::load(cpu, base + i * LINE, dep);
                    }
                }
            }
            Op::Repeat { addr, n, write } => {
                for _ in 0..n {
                    if write {
                        oracle::store(cpu, addr);
                    } else {
                        oracle::load(cpu, addr, Dep::Stream);
                    }
                }
            }
            Op::Copy { addr, lines } => {
                let base = addr & !(LINE - 1);
                for i in 0..lines {
                    oracle::load(cpu, base + i * LINE, Dep::Stream);
                    oracle::store(cpu, base + i * LINE);
                }
            }
            Op::Load { addr, dep } => oracle::load(cpu, addr, dep),
            Op::Store { addr } => oracle::store(cpu, addr),
            op => replay_common(cpu, op),
        }
    }
}

/// Replay through the batched entry points.
fn replay_batched(cpu: &mut Cpu, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Run {
                addr,
                lines,
                write,
                dep,
            } => cpu.access_run(addr, lines, write, dep),
            Op::Repeat { addr, n, write } => {
                if write {
                    cpu.store_repeat(addr, n);
                } else {
                    cpu.load_repeat(addr, n);
                }
            }
            Op::Copy { addr, lines } => cpu.copy_run(addr, lines),
            Op::Load { addr, dep } => cpu.load(addr, dep),
            Op::Store { addr } => cpu.store(addr),
            op => replay_common(cpu, op),
        }
    }
}

/// Bitwise equality: counters are integers, meters must match to the bit.
fn assert_identical(scalar: &Measurement, batched: &Measurement, what: &str) {
    assert_eq!(scalar.pmu, batched.pmu, "{what}: PMU counters diverged");
    for (name, a, b) in [
        ("core_j", scalar.rapl.core_j, batched.rapl.core_j),
        ("package_j", scalar.rapl.package_j, batched.rapl.package_j),
        ("memory_j", scalar.rapl.memory_j, batched.rapl.memory_j),
        ("time_s", scalar.time_s, batched.time_s),
        ("cycles", scalar.cycles, batched.cycles),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: {name} diverged ({a} vs {b})"
        );
    }
}

/// Bitwise equality of two samplers' timelines (both present or both not).
fn assert_samples_identical(
    scalar: Option<TimelineSampler>,
    batched: Option<TimelineSampler>,
    what: &str,
) {
    let (Some(a), Some(b)) = (&scalar, &batched) else {
        assert_eq!(scalar.is_some(), batched.is_some(), "{what}: sampler");
        return;
    };
    assert_eq!(a.samples.len(), b.samples.len(), "{what}: sample count");
    for (i, (x, y)) in a.samples.iter().zip(&b.samples).enumerate() {
        assert_eq!(x.pstate, y.pstate, "{what}: sample {i} P-state");
        for (name, u, v) in [
            ("t_s", x.t_s, y.t_s),
            ("utilization", x.utilization, y.utilization),
            ("core_j", x.rapl.core_j, y.rapl.core_j),
            ("package_j", x.rapl.package_j, y.rapl.package_j),
            ("memory_j", x.rapl.memory_j, y.rapl.memory_j),
        ] {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{what}: sample {i} {name} ({u} vs {v})"
            );
        }
    }
}

/// Run `ops` on two identically-configured CPUs and demand bit equality of
/// the measurements and of any timeline samples. `setup` runs on both
/// before the measured window (knobs, warming). Returns the batched
/// machine's line counters.
fn check(
    arch: fn() -> ArchConfig,
    setup: impl Fn(&mut Cpu),
    ops: &[Op],
    what: &str,
) -> (RunStats, FallbackReasons) {
    let mut scalar_cpu = Cpu::new(arch());
    let mut batched_cpu = Cpu::new(arch());
    scalar_cpu.alloc(1 << 21).unwrap();
    batched_cpu.alloc(1 << 21).unwrap();
    setup(&mut scalar_cpu);
    setup(&mut batched_cpu);
    let scalar = scalar_cpu.measure(|c| replay_scalar(c, ops));
    let batched = batched_cpu.measure(|c| replay_batched(c, ops));
    assert_identical(&scalar, &batched, what);
    assert_eq!(scalar.pstate, batched.pstate, "{what}: final P-state");
    assert_samples_identical(scalar_cpu.take_sampler(), batched_cpu.take_sampler(), what);
    (batched_cpu.run_stats(), batched_cpu.fallback_reasons())
}

/// A governed x86 replay must really batch: the fast regimes carry over
/// 90% of the lines, and the only fallbacks are chase-shadow drains — no
/// TCM lines exist there, and nothing falls back wholesale.
fn assert_batches((st, why): (RunStats, FallbackReasons), what: &str) {
    assert_eq!(why.total(), st.fallbacks, "{what}: {why:?} vs {st:?}");
    assert_eq!(why.chase_shadow, st.fallbacks, "{what}: {why:?}");
    let fast = st.batched_lines + st.cold_batched_lines + st.replayed_lines;
    assert!(
        fast > 0 && st.fallbacks * 10 < fast,
        "{what}: the fast regimes must carry the trace ({st:?})"
    );
}

/// A randomized mix of runs, repeats, scalar accesses, exec ops and
/// frequency changes over a 1 MB region.
fn random_trace(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let base = 1 << 21; // first DRAM-side alloc lands here on x86 (tcm=0)
    let span = 1 << 20;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let addr = base + rng.below(span);
        ops.push(match rng.below(10) {
            0..=3 => Op::Run {
                addr,
                lines: rng.below(96), // includes zero-length runs
                write: rng.flip(),
                dep: if rng.below(4) == 0 {
                    Dep::Chase
                } else {
                    Dep::Stream
                },
            },
            4 => Op::Repeat {
                addr,
                n: rng.below(64),
                write: rng.flip(),
            },
            5..=6 => Op::Load {
                addr,
                dep: if rng.flip() { Dep::Chase } else { Dep::Stream },
            },
            7 => Op::Store { addr },
            8 => Op::Exec(match rng.below(5) {
                0 => ExecOp::Add,
                1 => ExecOp::Nop,
                2 => ExecOp::Mul,
                3 => ExecOp::Branch,
                _ => ExecOp::Generic,
            }),
            _ => Op::SetPstate(8 + (rng.below(29) as u8)),
        });
    }
    ops
}

#[test]
fn randomized_traces_are_bit_identical() {
    for seed in 1..=8u64 {
        check(
            ArchConfig::intel_i7_4790,
            |_| {},
            &random_trace(seed, 400),
            &format!("random seed {seed}"),
        );
    }
}

#[test]
fn randomized_traces_with_prefetcher_are_bit_identical() {
    for seed in 100..=104u64 {
        check(
            ArchConfig::intel_i7_4790,
            |c| c.set_prefetch(true),
            &random_trace(seed, 400),
            &format!("random+prefetch seed {seed}"),
        );
    }
}

#[test]
fn set_conflict_strides_evict_mid_run_identically() {
    // 32 KB / 64 B / 8 ways = 64 sets → stride 4096 maps every access to one
    // L1D set. Interleaving conflict stores with re-scans forces evictions
    // in the middle of otherwise-resident runs.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for pass in 0..3u64 {
        for i in 0..32u64 {
            ops.push(Op::Store {
                addr: base + i * 4096 + pass * LINE,
            });
        }
        ops.push(Op::Run {
            addr: base,
            lines: 256,
            write: false,
            dep: Dep::Stream,
        });
        ops.push(Op::Run {
            addr: base,
            lines: 256,
            write: pass & 1 == 1,
            dep: Dep::Stream,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "set-conflict stride",
    );
}

#[test]
fn cold_runs_crossing_dram_rows_are_identical() {
    // 8 KB DRAM rows = 128 lines. A 700-line cold run crosses five row
    // boundaries; with the prefetcher on, every miss also perturbs the
    // streamer state. The fast path must fall back per missing line.
    let base: u64 = 1 << 21;
    let ops = [
        Op::Run {
            addr: base,
            lines: 700,
            write: false,
            dep: Dep::Stream,
        },
        Op::Run {
            addr: base,
            lines: 700,
            write: true,
            dep: Dep::Stream,
        },
        // Second pass is L2/L3-resident but not L1-resident: still scalar.
        Op::Run {
            addr: base,
            lines: 700,
            write: false,
            dep: Dep::Stream,
        },
    ];
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "row-crossing cold run",
    );
}

#[test]
fn chase_shadow_drains_into_run_identically() {
    // A chase load leaves a fillable out-of-order shadow; the first lines
    // of the next run must drain it through the scalar path before the
    // batch can resume.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for i in 0..16u64 {
        ops.push(Op::Run {
            addr: base,
            lines: 64,
            write: false,
            dep: Dep::Stream,
        }); // warm
        ops.push(Op::Load {
            addr: base + (1 << 19) + i * 8192,
            dep: Dep::Chase,
        });
        ops.push(Op::Run {
            addr: base,
            lines: 64,
            write: i & 1 == 0,
            dep: Dep::Stream,
        });
        ops.push(Op::Repeat {
            addr: base + 64,
            n: 50,
            write: false,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |_| {},
        &ops,
        "chase shadow drain",
    );
}

/// ARM1176: addresses 0..32768 are the data TCM. Runs that start inside
/// the window and extend past it must split TCM-batch / cache-walk at
/// exactly the boundary.
fn tcm_straddle_trace() -> Vec<Op> {
    let tcm_end: u64 = 32 * 1024;
    let mut ops = vec![
        Op::Run {
            addr: 0,
            lines: 512,
            write: false,
            dep: Dep::Stream,
        }, // whole TCM window
        Op::Run {
            addr: tcm_end - 4 * LINE,
            lines: 16,
            write: false,
            dep: Dep::Stream,
        },
        Op::Run {
            addr: tcm_end - 7 * LINE + 5, // unaligned straddle
            lines: 32,
            write: true,
            dep: Dep::Stream,
        },
        Op::Repeat {
            addr: 128,
            n: 100,
            write: false,
        },
        Op::Repeat {
            addr: tcm_end + 128,
            n: 100,
            write: true,
        },
    ];
    // And a randomized tail around the boundary.
    let mut rng = Rng::new(0xa11);
    for _ in 0..120 {
        ops.push(Op::Run {
            addr: tcm_end.saturating_sub(rng.below(16 * LINE)) + rng.below(32 * LINE),
            lines: rng.below(24),
            write: rng.flip(),
            dep: if rng.below(5) == 0 {
                Dep::Chase
            } else {
                Dep::Stream
            },
        });
    }
    ops
}

#[test]
fn tcm_straddling_runs_on_arm_are_identical() {
    check(
        ArchConfig::arm1176jzf_s,
        |_| {},
        &tcm_straddle_trace(),
        "TCM straddle",
    );
}

/// `random_trace` with the shapes the governor and sampler care about
/// mixed in: C0 idle gaps of one to four `idle_s` (the governor ramps the
/// P-state down, then back up inside the following runs), copies, and
/// cache flushes that keep misses — so issue-to-stall gaps and
/// write-allocates — coming.
fn governed_trace(seed: u64, len: usize, idle_s: f64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x90e5);
    let mut ops = Vec::with_capacity(len + len / 4);
    for op in random_trace(seed, len) {
        ops.push(op);
        match rng.below(16) {
            0 | 1 => ops.push(Op::Idle(idle_s * (1 + rng.below(4)) as f64)),
            2 => ops.push(Op::Copy {
                addr: (1 << 21) + rng.below(1 << 20),
                lines: rng.below(48),
            }),
            3 => ops.push(Op::Flush),
            _ => {}
        }
    }
    ops
}

/// Long warm rescans of a 64 KB window — hot batches and replays many
/// windows long — between idle gaps of `idle_s`, so even a 15 µs governor
/// ticks inside hot runs while ramping.
fn hot_rescan_trace(idle_s: f64, blocks: u64, runs: u64) -> Vec<Op> {
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for b in 0..blocks {
        ops.push(Op::Idle(idle_s));
        for r in 0..runs {
            ops.push(Op::Run {
                addr: base + (r % 4) * 256 * LINE,
                lines: 1024 - 256 * (r % 4),
                write: (b + r) % 3 == 0,
                dep: Dep::Stream,
            });
        }
    }
    ops
}

#[test]
fn governor_and_sampler_modes_stay_identical() {
    // With the EIST governor or a timeline sampler active the fast regimes
    // stay on: deadlines inside runs service both exactly where the
    // per-access verbs would, and the trace must still batch.
    let ops = governed_trace(0x60_5e_44, 300, 1e-6);
    for (what, setup) in [
        (
            "governor on",
            &(|c: &mut Cpu| c.set_governor(true)) as &dyn Fn(&mut Cpu),
        ),
        ("sampler attached", &|c: &mut Cpu| c.attach_sampler(1e-5)),
        ("governor + sampler + prefetch", &|c: &mut Cpu| {
            c.set_governor(true);
            c.set_governor_interval(1e-6);
            c.attach_sampler(1e-5);
            c.set_prefetch(true);
        }),
    ] {
        assert_batches(check(ArchConfig::intel_i7_4790, setup, &ops, what), what);
    }
}

#[test]
fn governor_ticks_mid_run_are_identical() {
    // Governor windows of 0.1, 1 and 15 µs, each with idle gaps three
    // windows long: runs start at a lowered P-state and the ticks that
    // ramp it back up land inside hot runs, replays, cold segments, chase
    // runs, repeats and copies.
    for (interval, seed) in [(1e-7, 11u64), (1e-6, 12), (15e-6, 13)] {
        let mut ops = hot_rescan_trace(3.0 * interval, 4, 120);
        ops.extend(governed_trace(seed, 400, 3.0 * interval));
        for prefetch in [false, true] {
            let what = format!("governor {interval:e} s, prefetch {prefetch}");
            let st = check(
                ArchConfig::intel_i7_4790,
                |c| {
                    c.set_prefetch(prefetch);
                    c.set_governor(true);
                    c.set_governor_interval(interval);
                },
                &ops,
                &what,
            );
            assert_batches(st, &what);
        }
    }
}

#[test]
fn sampler_alone_and_with_governor_is_identical() {
    // Samples record the P-state, the meter and the window's busy share at
    // each boundary; a sampler sharing the governor's 0.1 µs boundaries
    // samples in the same time step as the tick (the sample must see the
    // pre-tick P-state), and every busy step must reach its window
    // accumulator as its own addition.
    for sample_s in [1e-7, 1e-5] {
        for governor_s in [None, Some(1e-7), Some(15e-6)] {
            let idle = governor_s.unwrap_or(sample_s) * 2.0;
            let mut ops = hot_rescan_trace(idle, 3, 60);
            ops.extend(governed_trace(0x5a ^ sample_s.to_bits(), 300, idle));
            let what = format!("sampler {sample_s:e} s, governor {governor_s:?}");
            let st = check(
                ArchConfig::intel_i7_4790,
                |c| {
                    c.set_prefetch(true);
                    if let Some(g) = governor_s {
                        c.set_governor(true);
                        c.set_governor_interval(g);
                    }
                    c.attach_sampler(sample_s);
                },
                &ops,
                &what,
            );
            assert_batches(st, &what);
        }
    }
}

#[test]
fn ticks_between_issue_and_stall_are_identical() {
    // Cold misses have a short issue step and a long stall; stores that
    // miss write-allocate after their issue step; chase loads settle the
    // previous shadow before they issue. With 0.1 µs windows and idle gaps
    // between flushed cold runs the P-state ramps all the time, so ticks
    // that move it land between a miss's issue slot and its stall, inside
    // write-allocates, and on either side of a chase's settle.
    let base: u64 = 1 << 21;
    let mut rng = Rng::new(0x155e);
    let mut ops = Vec::new();
    for i in 0..24u64 {
        ops.push(Op::Flush);
        ops.push(Op::Idle(3e-7));
        ops.push(Op::Run {
            addr: base + rng.below(8192) * LINE,
            lines: 200 + rng.below(400),
            write: i % 2 == 1,
            dep: Dep::Stream,
        });
        ops.push(Op::Idle(3e-7));
        ops.push(Op::Run {
            addr: base + rng.below(8192) * LINE,
            lines: 64,
            write: false,
            dep: Dep::Chase,
        });
        for _ in 0..32 {
            ops.push(Op::Run {
                addr: base + rng.below(16384) * LINE,
                lines: 1,
                write: false,
                dep: Dep::Chase,
            });
        }
        ops.push(Op::Idle(2e-7));
        ops.push(Op::Copy {
            addr: base + rng.below(8192) * LINE,
            lines: 128,
        });
    }
    for prefetch in [false, true] {
        let what = format!("issue/stall ticks, prefetch {prefetch}");
        let st = check(
            ArchConfig::intel_i7_4790,
            |c| {
                c.set_prefetch(prefetch);
                c.set_governor(true);
                c.set_governor_interval(1e-7);
                c.attach_sampler(1e-7);
            },
            &ops,
            &what,
        );
        assert_batches(st, &what);
        assert!(st.0.cold_batched_lines > 10_000, "{what}: {:?}", st.0);
    }
}

#[test]
fn repeat_and_copy_verbs_under_governor_are_identical() {
    // load_repeat/store_repeat charge thousands of known hits per call and
    // copy_run alternates fused loads and stores; a chase load before a
    // repeat leaves a shadow its first accesses drain.
    let base: u64 = 1 << 21;
    let mut rng = Rng::new(0x4e9);
    let mut ops = Vec::new();
    for i in 0..40u64 {
        let addr = base + rng.below(1 << 20);
        if i % 3 == 0 {
            ops.push(Op::Load {
                addr: base + rng.below(1 << 20),
                dep: Dep::Chase,
            });
        }
        ops.push(Op::Repeat {
            addr,
            n: 500 + rng.below(3000),
            write: i % 2 == 0,
        });
        ops.push(Op::Copy {
            addr: base + rng.below(1 << 20),
            lines: 64 + rng.below(256),
        });
        if i % 4 == 3 {
            ops.push(Op::Idle(1e-6 + 1e-7 * rng.below(10) as f64));
        }
    }
    for interval in [1e-7, 1e-6, 15e-6] {
        let what = format!("repeat + copy, governor {interval:e} s");
        let st = check(
            ArchConfig::intel_i7_4790,
            |c| {
                c.set_prefetch(true);
                c.set_governor(true);
                c.set_governor_interval(interval);
            },
            &ops,
            &what,
        );
        assert_batches(st, &what);
    }
}

#[test]
fn tcm_straddle_with_sampler_is_identical() {
    // The TCM split under a sampler (and a governor): TCM stretches batch,
    // chase lines inside the window fall back per line — the only
    // fallbacks allowed besides shadow drains.
    let ops = tcm_straddle_trace();
    for governor in [false, true] {
        let what = format!("TCM straddle + sampler, governor {governor}");
        let (st, why) = check(
            ArchConfig::arm1176jzf_s,
            |c| {
                c.attach_sampler(1e-7);
                if governor {
                    c.set_governor(true);
                    c.set_governor_interval(2e-7);
                }
            },
            &ops,
            &what,
        );
        assert_eq!(why.total(), st.fallbacks, "{what}");
        assert_eq!(why.fastpath_off, 0, "{what}: {why:?}");
        assert!(
            why.tcm_boundary > 0,
            "{what}: chase lines in the TCM window"
        );
        assert!(
            st.batched_lines + st.cold_batched_lines > 5 * st.fallbacks,
            "{what}: {st:?}"
        );
    }
}

#[test]
fn batched_replay_actually_batches() {
    // Guard against the fast path silently degrading to all-scalar (which
    // would pass every equivalence test while delivering zero speedup).
    let base: u64 = 1 << 21;
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.alloc(1 << 21).unwrap();
    let warm = Op::Run {
        addr: base,
        lines: 256,
        write: false,
        dep: Dep::Stream,
    };
    replay_batched(&mut cpu, &[warm; 4]);
    let st = cpu.run_stats();
    assert!(
        st.batched_lines + st.replayed_lines >= 3 * 256,
        "warm rescans must take the batched/replay path ({st:?})"
    );
    assert!(
        st.cold_batched_lines >= 256,
        "the cold first pass must go through the fused cold path ({st:?})"
    );
    assert!(
        st.replayed_lines >= 256,
        "identical warm rescans must hit the replay cache ({st:?})"
    );
    assert_eq!(
        st.fallbacks, 0,
        "nothing here needs the scalar path ({st:?})"
    );
}

#[test]
fn cold_run_crossing_row_boundary_mid_run_is_identical() {
    // 8 KB DRAM rows = 128 lines. Starting mid-row puts the row crossing in
    // the middle of the fused cold segment, with the prefetcher running
    // ahead across the boundary — the row-hit/row-miss split must land on
    // exactly the same accesses as the scalar walk.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for (i, k) in [100u64, 120, 127].into_iter().enumerate() {
        ops.push(Op::Run {
            addr: base + k * LINE,
            lines: 96,
            write: false,
            dep: Dep::Stream,
        });
        ops.push(Op::Run {
            addr: base + (k + 1024 + 256 * i as u64) * LINE,
            lines: 96,
            write: true,
            dep: Dep::Stream,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "row boundary mid-run",
    );
}

#[test]
fn cold_run_reconflicting_with_just_evicted_set_is_identical() {
    // Stride-4096 stores keep one L1D set boiling; each cold rescan then
    // re-conflicts with lines evicted moments earlier, so the fused walk's
    // victim choices and writeback charges must track the scalar LRU state
    // exactly — including dirty victims rippling into L2/L3.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for pass in 0..4u64 {
        for i in 0..16u64 {
            ops.push(Op::Store {
                addr: base + i * 4096,
            });
        }
        ops.push(Op::Run {
            addr: base + pass * LINE,
            lines: 300,
            write: pass & 1 == 0,
            dep: Dep::Stream,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "re-conflict with just-evicted set",
    );
}

#[test]
fn prefetcher_trained_run_interrupted_by_chase_is_identical() {
    // Ascending runs train the streamer; interleaved chase bursts to far
    // addresses retrain other streams, evict prefetched lines and leave a
    // chase shadow, then the ascending pattern resumes. Cursor
    // continuation and fast-forward must reproduce the scalar streamer
    // state across every interruption.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    let mut at = 0u64;
    for i in 0..12u64 {
        ops.push(Op::Run {
            addr: base + at * LINE,
            lines: 40,
            write: false,
            dep: Dep::Stream,
        });
        at += 40;
        ops.push(Op::Run {
            addr: base + (1 << 19) + i * 8192,
            lines: 3,
            write: false,
            dep: Dep::Chase,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "chase-interrupted trained run",
    );
}

#[test]
fn replay_invalidated_by_intervening_write_is_detected() {
    // A memoized run must stop replaying the moment any L1D mutation
    // intervenes: conflicting stores evict lines of the recorded run, so a
    // stale replay would charge hits for what are now misses. The
    // fingerprint (stamp, epoch) must catch it — checked differentially
    // and via the replay counter.
    let base: u64 = 1 << 21;
    let run = Op::Run {
        addr: base,
        lines: 64,
        write: false,
        dep: Dep::Stream,
    };
    let mut ops = vec![run, run, run, run]; // cold, record, replay ×2
    for k in 1..=9u64 {
        // Nine ways' worth of stride-4096 conflicts into set 5 evict the
        // run's line at base + 5*LINE.
        ops.push(Op::Store {
            addr: base + 5 * LINE + k * 4096,
        });
    }
    ops.push(run); // stale fingerprint: must re-walk, not replay
    ops.push(run); // all-hit again: re-records
    ops.push(run); // fresh recording: replays once more
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "replay invalidated by intervening write",
    );

    // Counter check: exactly the two pre-invalidation rescans and the one
    // post-re-record rescan may replay.
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.set_prefetch(true);
    cpu.alloc(1 << 21).unwrap();
    replay_batched(&mut cpu, &ops);
    let st = cpu.run_stats();
    assert_eq!(
        st.replayed_lines,
        3 * 64,
        "replay must fire on identical rescans and stop on invalidation ({st:?})"
    );
}

#[test]
fn soa_cache_and_stamp_oracle_agree_on_victim_sequences() {
    // The SoA representation (compacted tag array + per-set rank word)
    // replaced the per-way LRU stamps; the retained stamp model is the
    // oracle. Drive both through the adversarial single-cache shapes — cold
    // sequential fills, stride conflicts that hammer one set, repeats,
    // invalidation holes and random mixes — and demand the *entire* victim
    // sequence (every Fill's writeback/evicted address) plus every
    // hit/miss outcome be identical. LRU order is all victim selection
    // observes, so any divergence here is a representation bug.
    use simcore::cache::{oracle::StampCache, Cache};
    use simcore::CacheConfig;

    for &(size, ways) in &[
        (64 * 8 * 64, 8),    // i7-4790 L1D geometry
        (256 * 16 * 64, 16), // L3-like 16-way
        (4 * 2 * 64, 2),     // tiny, maximal conflict pressure
    ] {
        let cfg = CacheConfig {
            size,
            ways,
            latency_cycles: 1,
        };
        let mut c = Cache::new(&cfg);
        let mut o = StampCache::new(&cfg);
        let mut rng = Rng::new(0xa076_1d64_78bd_642f ^ size);
        let span_lines = 4 * (size / 64); // 4× capacity: constant eviction
        let mut fills = 0u64;
        for step in 0..6000u64 {
            let a = rng.below(span_lines) * LINE;
            match rng.below(10) {
                // Miss-then-fill, the demand pattern of the hierarchy.
                0..=3 => {
                    let w = rng.flip();
                    let hit = c.access(a, w);
                    assert_eq!(hit, o.access(a, w), "access {a} at step {step}");
                    if hit == simcore::cache::Lookup::Miss {
                        let d = rng.flip();
                        assert_eq!(
                            c.fill(a, d, false),
                            o.fill(a, d, false),
                            "demand fill {a} at step {step}"
                        );
                        fills += 1;
                    }
                }
                // Prefetch-style fill with no preceding access.
                4..=5 => {
                    let (d, p) = (rng.flip(), rng.flip());
                    assert_eq!(c.fill(a, d, p), o.fill(a, d, p), "fill {a} at step {step}");
                    fills += 1;
                }
                // Stride-conflict burst into one set (max-way walk shape).
                6 => {
                    let sets = size / 64 / u64::from(ways);
                    for k in 0..(ways as u64 + 2) {
                        let conflict = (a + k * sets * LINE) % (span_lines * LINE);
                        assert_eq!(
                            c.fill(conflict, k & 1 == 0, false),
                            o.fill(conflict, k & 1 == 0, false),
                            "conflict fill {conflict} at step {step}"
                        );
                        fills += 1;
                    }
                }
                7 => {
                    let n = rng.below(32);
                    let w = rng.flip();
                    assert_eq!(
                        c.access_run(a, n, w),
                        o.access_run(a, n, w),
                        "run {a} at step {step}"
                    );
                }
                8 => {
                    assert_eq!(c.invalidate(a), o.invalidate(a), "invalidate {a}");
                }
                _ => {
                    let n = rng.below(16);
                    let w = rng.flip();
                    assert_eq!(
                        c.access_repeat(a, n, w),
                        o.access_repeat(a, n, w),
                        "repeat {a} at step {step}"
                    );
                }
            }
            assert_eq!(c.stamp(), o.stamp(), "fingerprint stamp at step {step}");
            assert_eq!(c.epoch(), o.epoch(), "fingerprint epoch at step {step}");
        }
        assert_eq!(c.resident(), o.resident(), "final residency");
        assert!(fills > 4000, "trace must keep the sets boiling ({fills})");
    }
}

//! Self-tests of the benchmark: a smoke-size pass of every workload must
//! print exactly the metrics `BENCHMARK.json` declares, fail no op, and
//! print the same digest traced and untraced; a deliberately wrong row or
//! state model must be counted as a failure.
//!
//! Run with `cargo test --release --manifest-path mjbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mjbench::{result_json, Config, Inject, RunResult, Size, WorkloadKind, END_TO_END, PER_LAYER};

/// Runs share process-wide simulator counters, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: WorkloadKind, trace: bool, inject: Inject) -> RunResult {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = Config {
        workload,
        seed: mjbench::DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::smoke(),
        inject,
    };
    mjbench::run(&cfg).expect("smoke run").0
}

/// A JSON value: just enough of the grammar to read `BENCHMARK.json` and
/// the benchmark's result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected {:?}", c as char);
        self.i += 1;
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(word.as_bytes()));
        self.i += word.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(own(&END_TO_END), declared("end_to_end"));
    assert_eq!(own(&PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_owned())
        .collect();
    let ours: Vec<String> = WorkloadKind::ALL
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(workloads, ours);
}

/// The printed result line carries exactly the declared metric names, and
/// tracing changes no simulated output.
fn check_printed(workload: WorkloadKind) {
    let plain = smoke(workload, false, Inject::None);
    let traced = smoke(workload, true, Inject::None);
    for (r, trace, section) in [(&plain, false, "end_to_end"), (&traced, true, "per_layer")] {
        let line = Json::parse(&result_json(r, trace));
        let mut names: Vec<String> = declared(section).into_iter().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(line.get("metrics").keys(), names, "{section}");
        assert!(line.get("attempted").num() >= 1.0);
        assert_eq!(line.get("failed").num(), r.failed as f64);
        assert_eq!(line.get("correct"), &Json::Bool(r.failed == 0));
    }
    assert_eq!(
        plain.digest, traced.digest,
        "tracing changed simulated outputs"
    );
    let sim = |r: &RunResult| {
        r.end_to_end
            .iter()
            .filter(|m| m.name.starts_with("sim_"))
            .map(|m| m.value.to_bits())
            .collect::<Vec<u64>>()
    };
    assert_eq!(sim(&plain), sim(&traced));
}

/// A smoke pass fails no op, and reports so.
fn check_clean(workload: WorkloadKind) {
    let r = smoke(workload, true, Inject::None);
    assert_eq!(r.failed, 0, "{}: {:?}", workload.name(), r.failures);
    let failed_pct = r.per_layer.iter().find(|m| m.name == "bench.failed_pct");
    assert_eq!(failed_pct.map(|m| m.value), Some(0.0));
}

#[test]
fn tpch_pinned_smoke_prints_the_declared_metrics() {
    check_printed(WorkloadKind::TpchPinned);
}

#[test]
fn tpch_governed_smoke_prints_the_declared_metrics() {
    check_printed(WorkloadKind::TpchGoverned);
}

#[test]
fn oltp_mixed_smoke_prints_the_declared_metrics() {
    check_printed(WorkloadKind::OltpMixed);
}

#[test]
fn tpch_pinned_smoke_fails_no_op() {
    check_clean(WorkloadKind::TpchPinned);
}

#[test]
fn tpch_governed_smoke_fails_no_op() {
    check_clean(WorkloadKind::TpchGoverned);
}

#[test]
fn oltp_mixed_smoke_fails_no_op() {
    check_clean(WorkloadKind::OltpMixed);
}

#[test]
fn a_wrong_row_is_a_failure() {
    for w in [WorkloadKind::TpchPinned, WorkloadKind::OltpMixed] {
        let r = smoke(w, false, Inject::WrongRow);
        assert!(
            r.failures.iter().any(|f| f.contains("/lite:")),
            "{}: injected row not caught: {:?}",
            w.name(),
            r.failures
        );
    }
}

#[test]
fn a_wrong_state_model_is_a_failure() {
    let r = smoke(WorkloadKind::OltpMixed, false, Inject::WrongModel);
    let finals = r
        .failures
        .iter()
        .filter(|f| f.starts_with("final accounts/"))
        .count();
    assert_eq!(finals, 4, "every engine's final state must disagree: {r:?}");
}

//! Every metric the command can print is declared in `BENCHMARK.json`
//! with the same unit and direction, and the result line can print no
//! other metric.

use std::collections::BTreeMap;
use stramash_perfbench::metrics::{end_to_end, per_layer, result_line, MetricDef, Tally, Value};
use stramash_perfbench::ops::Workload;

/// The subset of JSON `BENCHMARK.json` uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(
                self.s[self.i], b'\\',
                "escapes are not used in BENCHMARK.json"
            );
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
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key {k}"
                    );
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().expect("number"))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    match obj {
        Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object"),
    }
}

/// `(name, unit, better)` of every metric in one `BENCHMARK.json` list.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let Json::Arr(items) = field(&parse(&text), section).clone() else {
        panic!("{section}")
    };
    let text_of = |item: &Json, key: &str| match field(item, key) {
        Json::Str(s) => s.clone(),
        other => panic!("{key} is {other:?}"),
    };
    items
        .iter()
        .map(|item| {
            (
                text_of(item, "name"),
                text_of(item, "unit"),
                text_of(item, "better"),
            )
        })
        .collect()
}

fn ours(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter()
        .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), ours(end_to_end()));
    assert_eq!(declared("per_layer"), ours(per_layer()));
}

#[test]
fn workloads_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let Json::Arr(items) = field(&doc, "workloads") else {
        panic!("workloads")
    };
    let names: Vec<String> = items
        .iter()
        .map(|w| match field(w, "name") {
            Json::Str(s) => s.clone(),
            other => panic!("{other:?}"),
        })
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, expected);
}

#[test]
fn result_line_prints_exactly_the_declared_metrics() {
    let defs = end_to_end();
    let tally = Tally {
        attempted: 3,
        failed: 0,
    };
    let mut values: BTreeMap<String, Value> = defs
        .iter()
        .map(|d| (d.name.clone(), Value::Real(1.5)))
        .collect();

    let line = result_line(&defs, &values, &tally).expect("complete values");
    let doc = parse(&line);
    assert_eq!(field(&doc, "correct"), &Json::Bool(true));
    assert_eq!(field(&doc, "attempted"), &Json::Num(3.0));
    let Json::Obj(metrics) = field(&doc, "metrics") else {
        panic!("metrics")
    };
    assert_eq!(metrics.len(), defs.len());
    for d in &defs {
        assert_eq!(
            field(&metrics[&d.name], "unit"),
            &Json::Str(d.unit.to_string())
        );
    }

    values.insert("not_declared".into(), Value::Count(1));
    assert!(result_line(&defs, &values, &tally).is_err());
    values.remove("not_declared");
    values.remove("run_s");
    assert!(result_line(&defs, &values, &tally).is_err());
}

#[test]
fn a_failed_operation_makes_the_result_incorrect() {
    let defs = end_to_end();
    let values = defs
        .iter()
        .map(|d| (d.name.clone(), Value::Real(1.0)))
        .collect();
    let line = result_line(
        &defs,
        &values,
        &Tally {
            attempted: 2,
            failed: 1,
        },
    )
    .expect("line");
    assert_eq!(field(&parse(&line), "correct"), &Json::Bool(false));
}

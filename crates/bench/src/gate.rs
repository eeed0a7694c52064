//! The perf regression gate: every `BENCH_*.json` at the repository root
//! pins measurements of one perf bench, and [`run`] checks them against
//! the `case,metric,value` CSV that bench wrote through
//! [`emit`](crate::emit).
//!
//! A pin file is `{bench, regenerator, note, pins: [...]}`. Each pin names
//! a `case` and a `metric` plus exactly one bound:
//!
//! * `baseline` — a time; fails when measured / baseline exceeds
//!   [`TIME_TOLERANCE`];
//! * `max` — an exact ceiling;
//! * `min` — an exact floor;
//! * `min_speedup_vs` with `min` — the named case's value of the same
//!   metric over this case's must be at least `min`, within one run.
//!
//! The workspace has no JSON parser, so pin files are read by a small
//! strict reader of strings, numbers, arrays and objects; any malformed or
//! off-schema file is a typed error naming the file, never a panic.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::BENCH_HEADER;

/// Shared CI runners are noisy and quick mode takes fewer samples, so the
/// time gate is deliberately loose: it catches order-of-magnitude
/// regressions (an accidental O(n^2), a debug build), not drift.
pub const TIME_TOLERANCE: f64 = 2.5;

/// Gate every `BENCH_*.json` in `root` against `<results>/<bench>.csv`:
/// one `(line, held)` per pin, in file and pin order, and one failing line
/// per unreadable or malformed file.
pub fn run(root: &Path, results: &Path) -> Vec<(String, bool)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return vec![(format!("no BENCH_*.json in {}", root.display()), false)];
    }
    files
        .iter()
        .flat_map(|path| {
            read(path, parse_pin_file)
                .and_then(|file| {
                    let csv = results.join(format!("{}.csv", file.bench));
                    Ok(check(&file, &read(&csv, parse_csv)?))
                })
                .unwrap_or_else(|e| vec![(e.to_string(), false)])
        })
        .collect()
}

/// A malformed pin file or result CSV.
#[derive(Clone, Debug, PartialEq)]
struct GateError {
    file: PathBuf,
    kind: ErrorKind,
}

#[derive(Clone, Debug, PartialEq)]
enum ErrorKind {
    Io(String),
    /// Not JSON of the accepted subset, at a byte offset.
    Syntax(usize, &'static str),
    /// A field that is unknown, missing, repeated or of the wrong type.
    Field(String, &'static str),
    /// A pin with no bound or more than one: its index and bound fields.
    PinKinds(usize, Vec<&'static str>),
    /// A result CSV line (1-based) that is not a `case,metric,value` row.
    Csv(usize, String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.file.display())?;
        match &self.kind {
            ErrorKind::Io(e) => write!(f, "cannot read: {e}"),
            ErrorKind::Syntax(at, expected) => write!(f, "expected {expected} at byte {at}"),
            ErrorKind::Field(field, problem) => write!(f, "field `{field}` {problem}"),
            ErrorKind::PinKinds(pin, found) => write!(
                f,
                "pins[{pin}] needs exactly one of `baseline`, `max`, `min` or \
                 `min_speedup_vs` with `min`, found {found:?}"
            ),
            ErrorKind::Csv(line, what) => write!(f, "line {line}: {what}"),
        }
    }
}

/// Read `path` and parse it with `parse`, naming the file in any error.
fn read<T>(path: &Path, parse: fn(&str) -> Result<T, ErrorKind>) -> Result<T, GateError> {
    std::fs::read_to_string(path)
        .map_err(|e| ErrorKind::Io(e.to_string()))
        .and_then(|text| parse(&text))
        .map_err(|kind| GateError {
            file: path.to_path_buf(),
            kind,
        })
}

/// A validated pin file; `regenerator` and `note` are checked but only
/// documentation.
#[derive(Clone, Debug, PartialEq)]
struct PinFile {
    bench: String,
    pins: Vec<Pin>,
}

#[derive(Clone, Debug, PartialEq)]
struct Pin {
    case: String,
    metric: String,
    bound: Bound,
}

#[derive(Clone, Debug, PartialEq)]
enum Bound {
    Baseline(f64),
    Max(f64),
    Min(f64),
    /// The reference case and the speedup floor.
    SpeedupVs(String, f64),
}

/// `(case, metric) -> value` of one result CSV.
type Measured = BTreeMap<(String, String), f64>;

/// Parse a `case,metric,value` CSV: the exact header, three cells per
/// row, finite values, no repeated `(case, metric)`.
fn parse_csv(text: &str) -> Result<Measured, ErrorKind> {
    let mut lines = text.lines();
    let header = BENCH_HEADER.join(",");
    if lines.next() != Some(header.as_str()) {
        return Err(ErrorKind::Csv(1, format!("header must be `{header}`")));
    }
    let mut measured = Measured::new();
    for (i, line) in lines.enumerate() {
        let err = |what: String| ErrorKind::Csv(i + 2, what);
        let cells: Vec<&str> = line.split(',').collect();
        let [case, metric, value] = cells[..] else {
            return Err(err(format!("expected 3 cells, got {}", cells.len())));
        };
        let value = value
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| err(format!("`{value}` is not a finite number")))?;
        if measured
            .insert((case.into(), metric.into()), value)
            .is_some()
        {
            return Err(err(format!("{case} {metric} measured twice")));
        }
    }
    Ok(measured)
}

/// Check every pin of `file`: one `(line, held)` per pin. A pin whose
/// case, metric or speedup reference was not measured fails.
fn check(file: &PinFile, measured: &Measured) -> Vec<(String, bool)> {
    let value = |case: &str, metric: &str| measured.get(&(case.into(), metric.into())).copied();
    file.pins
        .iter()
        .map(|pin| {
            let (ok, detail) = match (value(&pin.case, &pin.metric), &pin.bound) {
                (None, _) => (false, "not measured".to_string()),
                (Some(got), Bound::Baseline(want)) => {
                    let ratio = got / want;
                    let detail = format!(
                        "measured {got:.1}, baseline {want:.1} ({ratio:.2}x, limit {TIME_TOLERANCE}x)"
                    );
                    (ratio <= TIME_TOLERANCE, detail)
                }
                (Some(got), Bound::Max(max)) => (got <= *max, format!("measured {got}, max {max}")),
                (Some(got), Bound::Min(min)) => (got >= *min, format!("measured {got}, min {min}")),
                (Some(got), Bound::SpeedupVs(vs, min)) => match value(vs, &pin.metric) {
                    None => (false, format!("reference {vs} not measured")),
                    Some(reference) => {
                        let speedup = reference / got;
                        let detail = format!("{speedup:.2}x faster than {vs} (floor {min}x)");
                        (speedup >= *min, detail)
                    }
                },
            };
            let status = if ok { "ok" } else { "FAIL" };
            let line = format!("{} {} {}: {detail} {status}", file.bench, pin.case, pin.metric);
            (line, ok)
        })
        .collect()
}

/// Parse and validate pin-file text.
fn parse_pin_file(text: &str) -> Result<PinFile, ErrorKind> {
    let mut reader = Reader {
        bytes: text.as_bytes(),
        at: 0,
    };
    let top = reader.value()?;
    reader.skip_ws();
    if reader.at != text.len() {
        return reader.fail("end of input");
    }
    let top = fields(&top, "", &["bench", "regenerator", "note", "pins"])?;
    for name in ["regenerator", "note"] {
        string(&top, "", name)?;
    }
    let Some(Json::Arr(items)) = top.get("pins") else {
        return Err(ErrorKind::Field("pins".into(), "must be an array of pins"));
    };
    let pins = items
        .iter()
        .enumerate()
        .map(pin)
        .collect::<Result<_, _>>()?;
    let bench = string(&top, "", "bench")?;
    Ok(PinFile { bench, pins })
}

const BOUNDS: [&str; 4] = ["baseline", "max", "min", "min_speedup_vs"];

fn pin((i, item): (usize, &Json)) -> Result<Pin, ErrorKind> {
    let at = format!("pins[{i}].");
    let map = fields(item, &at, &[&["case", "metric"][..], &BOUNDS].concat())?;
    let number = |name: &str| match map.get(name) {
        None => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(ErrorKind::Field(format!("{at}{name}"), "must be a number")),
    };
    let (baseline, max, min) = (number("baseline")?, number("max")?, number("min")?);
    if baseline.is_some_and(|b| b <= 0.0) {
        return Err(ErrorKind::Field(
            format!("{at}baseline"),
            "must be positive",
        ));
    }
    let vs = map
        .contains_key("min_speedup_vs")
        .then(|| string(&map, &at, "min_speedup_vs"))
        .transpose()?;
    let bound = match (baseline, max, min, vs) {
        (Some(b), None, None, None) => Bound::Baseline(b),
        (None, Some(max), None, None) => Bound::Max(max),
        (None, None, Some(min), None) => Bound::Min(min),
        (None, None, Some(min), Some(vs)) => Bound::SpeedupVs(vs, min),
        _ => {
            let found = BOUNDS.into_iter().filter(|k| map.contains_key(k)).collect();
            return Err(ErrorKind::PinKinds(i, found));
        }
    };
    Ok(Pin {
        case: string(&map, &at, "case")?,
        metric: string(&map, &at, "metric")?,
        bound,
    })
}

/// The fields of object `value`, rejecting unknown and repeated ones.
fn fields<'a>(
    value: &'a Json,
    at: &str,
    allowed: &[&str],
) -> Result<BTreeMap<&'a str, &'a Json>, ErrorKind> {
    let Json::Obj(members) = value else {
        let field = if at.is_empty() { "(top level)" } else { at };
        return Err(ErrorKind::Field(field.into(), "must be an object"));
    };
    let mut map = BTreeMap::new();
    for (key, value) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(ErrorKind::Field(format!("{at}{key}"), "is unknown"));
        }
        if map.insert(key.as_str(), value).is_some() {
            return Err(ErrorKind::Field(format!("{at}{key}"), "is repeated"));
        }
    }
    Ok(map)
}

fn string(map: &BTreeMap<&str, &Json>, at: &str, name: &str) -> Result<String, ErrorKind> {
    match map.get(name) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(ErrorKind::Field(format!("{at}{name}"), "must be a string")),
        None => Err(ErrorKind::Field(format!("{at}{name}"), "is missing")),
    }
}

/// The JSON subset pin files use: no `true`, `false` or `null`.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn fail<T>(&self, expected: &'static str) -> Result<T, ErrorKind> {
        Err(ErrorKind::Syntax(self.at, expected))
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// Skip whitespace, then consume `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.at) == Some(&byte);
        self.at += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Json, ErrorKind> {
        if self.eat(b'{') {
            let member = |r: &mut Self| {
                if !r.eat(b'"') {
                    return r.fail("a field name");
                }
                let key = r.string()?;
                if !r.eat(b':') {
                    return r.fail("`:`");
                }
                Ok((key, r.value()?))
            };
            return self.items(b'}', member).map(Json::Obj);
        }
        if self.eat(b'[') {
            return self.items(b']', Self::value).map(Json::Arr);
        }
        if self.eat(b'"') {
            return self.string().map(Json::Str);
        }
        self.number()
    }

    /// The comma-separated items of an object or array whose opening
    /// bracket was consumed, through the `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        item: impl Fn(&mut Self) -> Result<T, ErrorKind>,
    ) -> Result<Vec<T>, ErrorKind> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.fail("`,` or a closing bracket");
            }
        }
    }

    /// The rest of a string whose opening quote was consumed; the only
    /// escapes are `\"` and `\\`.
    fn string(&mut self) -> Result<String, ErrorKind> {
        let mut out = Vec::new();
        loop {
            let byte = match self.bytes.get(self.at) {
                None => return self.fail("a closing `\"`"),
                Some(0x00..=0x1f) => return self.fail("no control characters in a string"),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b @ (b'"' | b'\\')) => *b,
                        _ => return self.fail("`\\\"` or `\\\\`"),
                    }
                }
                Some(&b) => b,
            };
            out.push(byte);
            self.at += 1;
        }
        self.at += 1;
        // Unescaping `\"` or `\\` keeps a `&str`'s bytes valid UTF-8.
        Ok(String::from_utf8(out).unwrap_or_default())
    }

    fn number(&mut self) -> Result<Json, ErrorKind> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.at = start;
                self.fail("a string, finite number, array or object")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed pin with its effective bound: the bounds the five
    /// per-bench CI checks enforced before the shared schema, then the
    /// batch-estimation pins that came after it. Time baselines are
    /// scaled by 2.5 (`cold_open_mul8`'s baseline is the old 25 us noise
    /// floor); ceilings, floors and speedup floors are exact.
    const EFFECTIVE: &str = "\
estimate_scaling rf predict_us_per_1k <= 3453.25
estimate_scaling gb predict_us_per_1k <= 3319.25
estimate_scaling knn predict_us_per_1k <= 15065.50
estimate_scaling gp predict_us_per_1k <= 19945.00
estimate_scaling rf predict_us_per_1k >= 1.50x rf_rows
map_scaling add8_rca map_us <= 11.00
map_scaling add16_cla map_us <= 179.75
map_scaling mul8_wallace map_us <= 519.75
map_scaling mul12_wallace map_us <= 1479.00
map_scaling mul16_wallace map_us <= 2395.75
flow_residency flow_mul8_120 flow_us <= 334967.50
flow_residency flow_mul8_120 peak_resident <= 64.00
flow_residency flow_mul8_320 flow_us <= 800750.00
flow_residency flow_mul8_320 peak_resident <= 64.00
serve_load serve_cold_1000 wall_us <= 330165.00
serve_load serve_cold_1000 errors <= 0.00
serve_load serve_warm_1000 wall_us <= 174840.00
serve_load serve_warm_1000 errors <= 0.00
serve_load serve_warm_keepalive_1000 wall_us <= 80207.50
serve_load serve_warm_keepalive_1000 errors <= 0.00
serve_load serve_warm_keepalive_1000 wall_us >= 1.50x serve_warm_1000
serve_load serve_estimate_1000 wall_us <= 46357.50
serve_load serve_estimate_1000 errors <= 0.00
serve_load serve_estimate_1000 wall_us >= 1.50x serve_warm_1000
sim_scaling add8_rca analyze_us <= 266.25
sim_scaling add8_loa4 analyze_us <= 713.00
sim_scaling mul8_wallace analyze_us <= 526.50
sim_scaling mul8_bam analyze_us <= 1007.00
sim_scaling add16_loa8 analyze_us <= 2006.25
sim_scaling mul16_bam analyze_us <= 2778.50
sim_scaling activity_mul8_wallace activity_us <= 44.50
sim_scaling batch_mul8 per_circuit_us >= 1.50x loop_mul8
store_scaling warm_start_mul8 store_us <= 523.00
store_scaling stream_mul8 store_us <= 4490.25
store_scaling stream_mul8 size_ratio >= 5.00
store_scaling cold_open_mul8 store_us <= 62.50
";

    #[test]
    fn committed_pins_keep_their_effective_bounds() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_str()
                    .unwrap()
                    .starts_with("BENCH_")
            })
            .collect();
        files.sort();
        assert_eq!(files.len(), 6, "{files:?}");
        let mut got = String::new();
        for path in &files {
            let file = read(path, parse_pin_file).unwrap_or_else(|e| panic!("{e}"));
            for pin in file.pins {
                let bound = match pin.bound {
                    Bound::Baseline(b) => format!("<= {:.2}", b * TIME_TOLERANCE),
                    Bound::Max(m) => format!("<= {m:.2}"),
                    Bound::Min(m) => format!(">= {m:.2}"),
                    Bound::SpeedupVs(vs, min) => format!(">= {min:.2}x {vs}"),
                };
                let (bench, case, metric) = (&file.bench, pin.case, pin.metric);
                got.push_str(&format!("{bench} {case} {metric} {bound}\n"));
            }
        }
        assert_eq!(got, EFFECTIVE);
    }

    fn demo(pins: Vec<(&str, &str, Bound)>) -> PinFile {
        let pins = pins
            .into_iter()
            .map(|(case, metric, bound)| Pin {
                case: case.into(),
                metric: metric.into(),
                bound,
            })
            .collect();
        PinFile {
            bench: "demo".into(),
            pins,
        }
    }

    fn oks(file: &PinFile, rows: &str) -> Vec<bool> {
        let measured = parse_csv(&format!("case,metric,value\n{rows}")).unwrap();
        check(file, &measured)
            .into_iter()
            .map(|(_, ok)| ok)
            .collect()
    }

    #[test]
    fn a_ratio_of_exactly_the_tolerance_passes_and_above_fails() {
        let file = demo(vec![("a", "t_us", Bound::Baseline(4.0))]);
        assert_eq!(oks(&file, "a,t_us,10"), [true]);
        assert_eq!(oks(&file, "a,t_us,10.01"), [false]);
        assert_eq!(oks(&file, "a,t_us,0.5"), [true]);
    }

    #[test]
    fn a_missing_case_or_metric_fails() {
        let file = demo(vec![("a", "t_us", Bound::Baseline(4.0))]);
        assert_eq!(oks(&file, "b,t_us,1"), [false]);
        assert_eq!(oks(&file, "a,other_us,1"), [false]);
        let measured = parse_csv("case,metric,value\nb,t_us,1").unwrap();
        let (line, _) = &check(&file, &measured)[0];
        assert_eq!(line, "demo a t_us: not measured FAIL");
    }

    #[test]
    fn exact_ceilings_and_floors_are_inclusive() {
        let file = demo(vec![
            ("a", "peak_resident", Bound::Max(64.0)),
            ("a", "size_ratio", Bound::Min(5.0)),
        ]);
        let at_bounds = "a,peak_resident,64\na,size_ratio,5";
        assert_eq!(oks(&file, at_bounds), [true, true]);
        let beyond = "a,peak_resident,65\na,size_ratio,4.99";
        assert_eq!(oks(&file, beyond), [false, false]);
    }

    #[test]
    fn a_speedup_floor_compares_two_cases_of_one_run() {
        let floor = Bound::SpeedupVs("slow".into(), 1.5);
        let file = demo(vec![("fast", "wall_us", floor)]);
        assert_eq!(oks(&file, "fast,wall_us,10\nslow,wall_us,15"), [true]);
        assert_eq!(oks(&file, "fast,wall_us,11\nslow,wall_us,15"), [false]);
        // A missing reference fails rather than passing vacuously.
        assert_eq!(oks(&file, "fast,wall_us,10"), [false]);
    }

    const GOOD: &str = r#"{"bench": "demo", "regenerator": "r", "note": "a \"quoted\" µs",
        "pins": [{"case": "a", "metric": "t_us", "baseline": 4.4},
                 {"case": "a", "metric": "n", "max": 0},
                 {"case": "b", "metric": "t_us", "min_speedup_vs": "a", "min": 1.5e0}]}"#;

    #[test]
    fn the_reader_accepts_the_schema() {
        let want = demo(vec![
            ("a", "t_us", Bound::Baseline(4.4)),
            ("a", "n", Bound::Max(0.0)),
            ("b", "t_us", Bound::SpeedupVs("a".into(), 1.5)),
        ]);
        assert_eq!(parse_pin_file(GOOD), Ok(want));
    }

    #[test]
    fn truncated_json_is_a_syntax_error() {
        for cut in [0, 1, 10, GOOD.len() / 2, GOOD.len() - 1] {
            let result = parse_pin_file(&GOOD[..cut]);
            assert!(
                matches!(result, Err(ErrorKind::Syntax(..))),
                "{cut}: {result:?}"
            );
        }
        let trailing = parse_pin_file(&format!("{GOOD} {{}}"));
        assert!(matches!(
            trailing,
            Err(ErrorKind::Syntax(_, "end of input"))
        ));
        let literal = parse_pin_file(r#"{"bench": true}"#);
        assert!(
            matches!(literal, Err(ErrorKind::Syntax(10, _))),
            "{literal:?}"
        );
    }

    #[test]
    fn off_schema_input_is_a_typed_error() {
        let parse = |from: &str, to: &str| parse_pin_file(&GOOD.replace(from, to));
        let field = |field: &str, problem| Err(ErrorKind::Field(field.into(), problem));
        assert_eq!(
            parse("\"baseline\": 4.4", "\"baseline\": \"4.4\""),
            field("pins[0].baseline", "must be a number")
        );
        assert_eq!(
            parse("4.4", "0"),
            field("pins[0].baseline", "must be positive")
        );
        assert_eq!(
            parse("\"max\": 0", "\"max\": 0, \"tolerance\": 2"),
            field("pins[1].tolerance", "is unknown")
        );
        assert_eq!(
            parse(", \"max\": 0", ""),
            Err(ErrorKind::PinKinds(1, vec![]))
        );
        assert_eq!(
            parse("\"max\": 0", "\"max\": 0, \"min\": 1"),
            Err(ErrorKind::PinKinds(1, vec!["max", "min"]))
        );
        assert_eq!(
            parse(", \"min\": 1.5e0", ""),
            Err(ErrorKind::PinKinds(2, vec!["min_speedup_vs"]))
        );
        assert_eq!(
            parse("\"regenerator\": \"r\", ", ""),
            field("regenerator", "is missing")
        );
        assert_eq!(
            parse("\"note\"", "\"bench\": \"x\", \"note\""),
            field("bench", "is repeated")
        );
        assert_eq!(
            parse_pin_file("[]"),
            field("(top level)", "must be an object")
        );
    }

    #[test]
    fn bad_csv_rows_are_typed_errors() {
        let line = |text: &str| match parse_csv(text) {
            Err(ErrorKind::Csv(line, _)) => line,
            other => panic!("{other:?}"),
        };
        assert_eq!(line("case,us\n"), 1);
        assert_eq!(line("case,metric,value\na,b\n"), 2);
        assert_eq!(line("case,metric,value\na,b,NaN\n"), 2);
        assert_eq!(line("case,metric,value\na,b,1\na,b,2\n"), 3);
        assert!(parse_csv("case,metric,value\na,b,1\n").is_ok());
    }

    #[test]
    fn run_lists_every_violation_and_names_the_file() {
        let dir = std::env::temp_dir().join(format!("afp-bench-gate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_demo.json"), GOOD).unwrap();
        std::fs::write(dir.join("BENCH_broken.json"), "{\"bench\":").unwrap();
        std::fs::write(
            dir.join("demo.csv"),
            "case,metric,value\na,t_us,20\na,n,0\n",
        )
        .unwrap();

        let failed = |verdicts: Vec<(String, bool)>| -> Vec<String> {
            verdicts
                .into_iter()
                .filter(|(_, ok)| !ok)
                .map(|(line, _)| line)
                .collect()
        };
        let verdicts = run(&dir, &dir);
        assert_eq!(verdicts.len(), 4, "{verdicts:?}");
        let failed_lines = failed(verdicts);
        assert_eq!(failed_lines.len(), 3, "{failed_lines:?}");
        assert!(failed_lines[0].contains("BENCH_broken.json: expected"));
        assert!(failed_lines[1].starts_with("demo a t_us: measured 20.0, baseline 4.4"));
        assert_eq!(failed_lines[2], "demo b t_us: not measured FAIL");

        std::fs::remove_file(dir.join("demo.csv")).unwrap();
        let failed_lines = failed(run(&dir, &dir));
        assert!(
            failed_lines[1].contains("demo.csv: cannot read"),
            "{failed_lines:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

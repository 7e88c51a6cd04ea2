//! The result line the benchmark prints last, and a small JSON reader
//! used to check that the line round-trips.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The benchmark's final output line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// JSON number text for a measured value: full precision, and never a
/// bare `NaN`/`inf`, which JSON cannot carry.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (k, m) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                number(m.value),
                escape(&m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let Json::Object(top) = parse(text)? else { return Err("not an object".into()) };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let whole = |k: &str| match top.get(k) {
            Some(Json::Number(v)) if *v >= 0.0 && v.fract() == 0.0 => Ok(*v as u64),
            other => Err(format!("{k}: not a whole number: {other:?}")),
        };
        let correct = match top.get("correct") {
            Some(Json::Bool(b)) => *b,
            other => return Err(format!("correct: {other:?}")),
        };
        let Some(Json::Object(ms)) = top.get("metrics") else { return Err("metrics".into()) };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            let Json::Object(m) = m else { return Err(format!("{name}: not an object")) };
            let (Some(Json::Number(value)), Some(Json::String(unit))) =
                (m.get("value"), m.get("unit"))
            else {
                return Err(format!("{name}: needs a numeric value and a unit"));
            };
            if m.len() != 2 {
                return Err(format!("{name}: extra keys"));
            }
            metrics.push(Metric { name: name.clone(), value: *value, unit: unit.clone() });
        }
        Ok(Report { correct, attempted: whole("attempted")?, failed: whole("failed")?, metrics })
    }
}

/// A parsed JSON value (objects keep keys sorted).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
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

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Object(map));
                }
                loop {
                    self.ws();
                    let Json::String(k) = self.value()? else { return Err("key".into()) };
                    self.eat(b':')?;
                    let v = self.value()?;
                    if map.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key {k}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Object(map));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Json::String(out));
                        }
                        Some(b'\\') => {
                            let c = *self.s.get(self.i + 1).ok_or("bad escape")?;
                            out.push(match c {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            self.i += 2;
                        }
                        Some(_) => {
                            let rest = std::str::from_utf8(&self.s[self.i..])
                                .map_err(|e| e.to_string())?;
                            let c = rest.chars().next().expect("non-empty");
                            out.push(c);
                            self.i += c.len_utf8();
                        }
                    }
                }
            }
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_with_full_precision() {
        let report = Report {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "groups_per_s".into(),
                    value: 201.123_456_789_012_3,
                    unit: "1/s".into(),
                },
                Metric { name: "setup_s".into(), value: 0.812_734_5, unit: "s".into() },
                Metric { name: "w2v_p99_ms".into(), value: 1e-7, unit: "ms".into() },
            ],
        };
        let line = report.to_json();
        let back = Report::from_json(&line).expect("parses");
        assert_eq!(back.correct, report.correct);
        assert_eq!(back.attempted, report.attempted);
        assert_eq!(back.failed, report.failed);
        let mut want = report.metrics.clone();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back.metrics, want);
    }

    #[test]
    fn schema_violations_are_refused() {
        assert!(Report::from_json("{\"correct\": true}").is_err());
        let extra =
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}, \"x\": 1}";
        assert!(Report::from_json(extra).is_err());
        let frac = "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}";
        assert!(Report::from_json(frac).is_err());
        let no_unit =
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1}}}";
        assert!(Report::from_json(no_unit).is_err());
        assert!(parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn non_finite_values_become_null() {
        let r = Report {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![Metric { name: "x".into(), value: f64::NAN, unit: "ms".into() }],
        };
        assert!(r.to_json().contains("\"value\": null"));
    }
}

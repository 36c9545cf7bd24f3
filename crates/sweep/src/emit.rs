//! Deterministic exporters for sweep results: JSON (with an exact
//! parser, so exports round-trip and resumed runs can reload them) and
//! CSV. The markdown rendering is [`SweepRun::to_markdown`].
//!
//! The workspace builds hermetically, without a serialization library,
//! so the formats here are hand-rolled: fixed key order, `u64` printed
//! exactly, `f64` printed via Rust's shortest-round-trip formatting —
//! re-running a sweep with the same seed therefore produces
//! byte-identical files.

use crate::record::{RunRecord, SweepRun};

/// Column order shared by the CSV emitter and header checks.
pub const CSV_COLUMNS: [&str; 15] = [
    "scenario",
    "point",
    "family",
    "n",
    "id_scheme",
    "workload",
    "param_a",
    "param_b",
    "trials",
    "seed",
    "successes",
    "p_hat",
    "lower",
    "upper",
    "mean_value",
];

/// Formats a float so that parsing the text back yields the identical bit
/// pattern (Rust's `{}` for `f64` is shortest-round-trip).
fn fmt_f64(x: f64) -> String {
    assert!(x.is_finite(), "sweep records must hold finite values, got {x}");
    format!("{x}")
}

/// Serializes one record as a single-line JSON object — the exact byte
/// form embedded in [`to_json`] exports and streamed over the
/// `sweep-serve` wire protocol (`rlnc-serve`), so a client reassembling
/// streamed records re-exports byte-identical documents.
pub fn record_json(r: &RunRecord) -> String {
    format!(
        concat!(
            "{{\"scenario\":\"{}\",\"point\":{},\"family\":\"{}\",\"n\":{},",
            "\"id_scheme\":\"{}\",\"workload\":\"{}\",\"param_a\":{},\"param_b\":{},",
            "\"trials\":{},\"seed\":{},\"successes\":{},\"p_hat\":{},\"lower\":{},",
            "\"upper\":{},\"mean_value\":{}}}"
        ),
        json::escape(&r.scenario),
        r.point,
        json::escape(&r.family),
        r.n,
        json::escape(&r.id_scheme),
        json::escape(&r.workload),
        r.param_a,
        r.param_b,
        r.trials,
        r.seed,
        r.successes,
        fmt_f64(r.p_hat),
        fmt_f64(r.lower),
        fmt_f64(r.upper),
        fmt_f64(r.mean_value)
    )
}

/// Serializes a run as deterministic JSON (one record per line).
pub fn to_json(run: &SweepRun) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", json::escape(&run.scenario)));
    out.push_str(&format!("  \"description\": \"{}\",\n", json::escape(&run.description)));
    out.push_str(&format!("  \"workload\": \"{}\",\n", json::escape(&run.workload)));
    out.push_str(&format!("  \"scale\": \"{}\",\n", json::escape(&run.scale)));
    out.push_str(&format!("  \"master_seed\": {},\n", run.master_seed));
    out.push_str("  \"records\": [\n");
    for (i, r) in run.records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&record_json(r));
        out.push_str(if i + 1 < run.records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serializes a run's records as CSV with the [`CSV_COLUMNS`] header.
pub fn to_csv(run: &SweepRun) -> String {
    let mut out = CSV_COLUMNS.join(",");
    out.push('\n');
    for r in &run.records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.scenario,
            r.point,
            r.family,
            r.n,
            r.id_scheme,
            r.workload,
            r.param_a,
            r.param_b,
            r.trials,
            r.seed,
            r.successes,
            fmt_f64(r.p_hat),
            fmt_f64(r.lower),
            fmt_f64(r.upper),
            fmt_f64(r.mean_value)
        ));
    }
    out
}

/// Parses JSON previously produced by [`to_json`] back into a [`SweepRun`].
///
/// The parser accepts general JSON (whitespace, escapes, any key order)
/// but requires every [`RunRecord`] field to be present with the right
/// type; [`to_json`] → [`from_json`] is the identity.
pub fn from_json(text: &str) -> Result<SweepRun, String> {
    let value = json::parse(text)?;
    let obj = value.as_object("top level")?;
    let records_value = json::get(obj, "records")?;
    let mut records = Vec::new();
    for (i, rv) in records_value.as_array("records")?.iter().enumerate() {
        records.push(record_from_json(rv, &format!("records[{i}]"))?);
    }
    Ok(SweepRun {
        scenario: json::get(obj, "scenario")?.as_string("scenario")?,
        description: json::get(obj, "description")?.as_string("description")?,
        workload: json::get(obj, "workload")?.as_string("workload")?,
        scale: json::get(obj, "scale")?.as_string("scale")?,
        master_seed: json::get(obj, "master_seed")?.as_u64("master_seed")?,
        records,
    })
}

/// Parses one record object (the [`record_json`] shape) from a parsed JSON
/// value; `what` names the value in error messages. The inverse of
/// [`record_json`], shared by [`from_json`] and the `sweep-serve` protocol
/// parser.
///
/// Rejects counts no executor run can produce: `trials` must be at least 1
/// and `successes` at most `trials` (every estimate is built by
/// [`Estimate::from_counts`](rlnc_par::stats::Estimate::from_counts),
/// which asserts both).
pub fn record_from_json(value: &json::Value, what: &str) -> Result<RunRecord, String> {
    let r = value.as_object(what)?;
    let record = RunRecord {
        scenario: json::get(r, "scenario")?.as_string("scenario")?,
        point: json::get(r, "point")?.as_u64("point")?,
        family: json::get(r, "family")?.as_string("family")?,
        n: json::get(r, "n")?.as_u64("n")?,
        id_scheme: json::get(r, "id_scheme")?.as_string("id_scheme")?,
        workload: json::get(r, "workload")?.as_string("workload")?,
        param_a: json::get(r, "param_a")?.as_u64("param_a")?,
        param_b: json::get(r, "param_b")?.as_u64("param_b")?,
        trials: json::get(r, "trials")?.as_u64("trials")?,
        seed: json::get(r, "seed")?.as_u64("seed")?,
        successes: json::get(r, "successes")?.as_u64("successes")?,
        p_hat: json::get(r, "p_hat")?.as_f64("p_hat")?,
        lower: json::get(r, "lower")?.as_f64("lower")?,
        upper: json::get(r, "upper")?.as_f64("upper")?,
        mean_value: json::get(r, "mean_value")?.as_f64("mean_value")?,
    };
    if record.trials == 0 {
        return Err(format!("{what}: trials must be at least 1, got 0"));
    }
    if record.successes > record.trials {
        return Err(format!(
            "{what}: successes ({}) exceed trials ({})",
            record.successes, record.trials
        ));
    }
    Ok(record)
}

/// Merges shard runs (e.g. the exports of `sweep --shard i/N` for each
/// `i`) into one run.
///
/// All inputs must agree on the run metadata (scenario, description,
/// workload, scale, master seed). Records are keyed by grid-point index:
/// byte-identical duplicates are deduplicated (re-running a shard is
/// harmless), while *conflicting* records for the same
/// `(scenario, point, trials)` key — same point, different content — are
/// rejected with an error naming the point, since silently keeping either
/// would hide a seed or scenario mismatch. Output records are sorted by
/// point index, i.e. grid order, so merging the complete shard set of a
/// scenario reproduces the single-process export byte-for-byte.
pub fn merge_runs(runs: &[SweepRun]) -> Result<SweepRun, String> {
    let Some(first) = runs.first() else {
        return Err("nothing to merge: no runs given".into());
    };
    let mut by_point: std::collections::BTreeMap<u64, &RunRecord> = std::collections::BTreeMap::new();
    for run in runs {
        if run.scenario != first.scenario
            || run.description != first.description
            || run.workload != first.workload
            || run.scale != first.scale
            || run.master_seed != first.master_seed
        {
            return Err(format!(
                "cannot merge: run metadata mismatch (scenario '{}' scale '{}' seed {} \
                 vs scenario '{}' scale '{}' seed {})",
                first.scenario, first.scale, first.master_seed,
                run.scenario, run.scale, run.master_seed,
            ));
        }
        for r in &run.records {
            match by_point.get(&r.point) {
                None => {
                    by_point.insert(r.point, r);
                }
                Some(prev) if *prev == r => {} // identical duplicate: dedup
                Some(prev) => {
                    return Err(format!(
                        "conflicting records for (scenario '{}', point {}, trials {}): \
                         successes {} vs {}, seed {} vs {}",
                        r.scenario, r.point, r.trials, prev.successes, r.successes, prev.seed,
                        r.seed,
                    ));
                }
            }
        }
    }
    Ok(SweepRun {
        scenario: first.scenario.clone(),
        description: first.description.clone(),
        workload: first.workload.clone(),
        scale: first.scale.clone(),
        master_seed: first.master_seed,
        records: by_point.into_values().cloned().collect(),
    })
}

/// A minimal JSON value model and recursive-descent parser.
///
/// Numbers keep their raw token so 64-bit integers (seeds!) never pass
/// through `f64` and lose precision. Public so sibling crates can parse
/// the workspace's other hand-rolled JSON documents — trace exports
/// (`rlnc-obs`) and the serve protocol (`rlnc-serve`) — without growing
/// their own parsers: one parser, one set of escape rules,
/// property-tested round-trips.
///
/// Arrays and objects nest at most 64 levels deep (`MAX_DEPTH`); a
/// deeper document is an `Err`, never a stack overflow, whether it comes
/// from a file or a socket.
pub mod json {
    /// The deepest nesting of arrays and objects [`parse`] accepts. The
    /// documents this workspace writes nest at most 4 levels (bench
    /// exports and traces), and each level costs the recursive-descent
    /// parser a few stack frames, so 64 keeps a hostile `[[[[…` far from
    /// any thread's stack limit.
    pub(crate) const MAX_DEPTH: usize = 64;

    /// A parsed JSON value.
    #[derive(Debug)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number, kept as its raw token.
        Number(String),
        /// A string (unescaped).
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, in source order.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The object fields, or an error naming `what`.
        pub fn as_object(&self, what: &str) -> Result<&Vec<(String, Value)>, String> {
            match self {
                Value::Object(fields) => Ok(fields),
                _ => Err(format!("{what}: expected a JSON object")),
            }
        }

        /// The array items, or an error naming `what`.
        pub fn as_array(&self, what: &str) -> Result<&Vec<Value>, String> {
            match self {
                Value::Array(items) => Ok(items),
                _ => Err(format!("{what}: expected a JSON array")),
            }
        }

        /// The string contents, or an error naming `what`.
        pub fn as_string(&self, what: &str) -> Result<String, String> {
            match self {
                Value::String(s) => Ok(s.clone()),
                _ => Err(format!("{what}: expected a JSON string")),
            }
        }

        /// The number as a `u64` (exact, never via `f64`), or an error.
        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::Number(raw) => raw
                    .parse::<u64>()
                    .map_err(|e| format!("{what}: expected an unsigned integer, got '{raw}' ({e})")),
                _ => Err(format!("{what}: expected a JSON number")),
            }
        }

        /// The number as a finite `f64`, or an error naming `what`.
        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Number(raw) => {
                    let x = raw
                        .parse::<f64>()
                        .map_err(|e| format!("{what}: expected a number, got '{raw}' ({e})"))?;
                    // Emission refuses non-finite values, so accepting an
                    // overflowing token like 1e999 here would break the
                    // to_json/from_json identity (and panic on re-emit).
                    if !x.is_finite() {
                        return Err(format!("{what}: '{raw}' is not a finite number"));
                    }
                    Ok(x)
                }
                _ => Err(format!("{what}: expected a JSON number")),
            }
        }
    }

    /// Escapes a string for embedding in a JSON document, byte-compatible
    /// with this workspace's exact emitters (quotes, backslashes, named
    /// control escapes, `\u00xx` for the rest of the control range;
    /// everything else raw UTF-8).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Looks a key up in an object.
    pub fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-') | Some(b'0'..=b'9') => self.number(),
                other => Err(format!("unexpected {:?} at byte {}", other.map(|c| c as char), self.pos)),
            }
        }

        /// Parses one array or object one level deeper, refusing to go
        /// past [`MAX_DEPTH`].
        fn nested(
            &mut self,
            parse: fn(&mut Self) -> Result<Value, String>,
        ) -> Result<Value, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let value = parse(self);
            self.depth -= 1;
            value
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{0008}'),
                            Some(b'f') => out.push('\u{000C}'),
                            Some(b'u') => {
                                let code = self.hex_escape_digits()?;
                                if (0xD800..=0xDBFF).contains(&code) {
                                    // High surrogate: a low surrogate escape
                                    // must follow (standard JSON encoding of
                                    // astral characters).
                                    self.pos += 1;
                                    if self.peek() != Some(b'\\') {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err("unpaired high surrogate".into());
                                    }
                                    let low = self.hex_escape_digits()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err("invalid low surrogate".into());
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(combined).ok_or("non-scalar \\u escape")?,
                                    );
                                } else {
                                    out.push(
                                        char::from_u32(code).ok_or("non-scalar \\u escape")?,
                                    );
                                }
                            }
                            other => {
                                return Err(format!("invalid escape {:?}", other.map(|c| c as char)))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is a &str, so
                        // boundaries are valid).
                        let start = self.pos;
                        let mut end = start + 1;
                        while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.bytes[start..end]).unwrap());
                        self.pos = end;
                    }
                }
            }
        }

        /// Reads the four hex digits of a `\uXXXX` escape; on entry `pos`
        /// is at the `u`, on exit at its last hex digit.
        fn hex_escape_digits(&mut self) -> Result<u32, String> {
            let hex = self
                .bytes
                .get(self.pos + 1..self.pos + 5)
                .ok_or("truncated \\u escape")?;
            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
            let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
            self.pos += 4;
            Ok(code)
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-'))
            {
                self.pos += 1;
            }
            let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            if raw.is_empty() || raw == "-" {
                return Err(format!("invalid number at byte {start}"));
            }
            // Validate the token parses as a float (covers integers too).
            raw.parse::<f64>().map_err(|e| format!("invalid number '{raw}': {e}"))?;
            Ok(Value::Number(raw.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_run() -> SweepRun {
        SweepRun {
            scenario: "demo".into(),
            description: "a \"quoted\" description\nwith two lines".into(),
            workload: "slack-coloring".into(),
            scale: "smoke".into(),
            master_seed: u64::MAX,
            records: vec![
                RunRecord {
                    scenario: "demo".into(),
                    point: 0,
                    family: "cycle".into(),
                    n: 36,
                    id_scheme: "consecutive".into(),
                    workload: "slack-coloring".into(),
                    param_a: 1,
                    param_b: 2,
                    trials: 100,
                    seed: 0xFFFF_FFFF_FFFF_FFFE,
                    successes: 61,
                    p_hat: 0.61,
                    lower: 0.512_345_678_901_234_5,
                    upper: 0.7,
                    mean_value: 1.0 / 3.0,
                },
                RunRecord {
                    scenario: "demo".into(),
                    point: 1,
                    family: "torus".into(),
                    n: 36,
                    id_scheme: "spread-16".into(),
                    workload: "slack-coloring".into(),
                    param_a: 0,
                    param_b: 0,
                    trials: 100,
                    seed: 7,
                    successes: 100,
                    p_hat: 1.0,
                    lower: 0.963,
                    upper: 1.0,
                    mean_value: 0.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let run = demo_run();
        let json = to_json(&run);
        let back = from_json(&json).expect("parse back");
        assert_eq!(back, run);
        // Byte determinism: emitting the parsed run again is identical.
        assert_eq!(to_json(&back), json);
    }

    #[test]
    fn json_round_trip_preserves_u64_and_f64_precision() {
        let run = demo_run();
        let back = from_json(&to_json(&run)).unwrap();
        assert_eq!(back.master_seed, u64::MAX);
        assert_eq!(back.records[0].seed, 0xFFFF_FFFF_FFFF_FFFE);
        assert_eq!(back.records[0].mean_value.to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(
            back.records[0].lower.to_bits(),
            0.512_345_678_901_234_5f64.to_bits()
        );
    }

    #[test]
    fn parser_handles_general_json_shapes() {
        let v = json::parse(r#" { "a" : [1, -2.5e3, true, false, null, "xA\n"] } "#).unwrap();
        let obj = v.as_object("top").unwrap();
        let arr = json::get(obj, "a").unwrap().as_array("a").unwrap();
        assert_eq!(arr.len(), 6);
        assert_eq!(arr[0].as_u64("n").unwrap(), 1);
        assert_eq!(arr[1].as_f64("f").unwrap(), -2500.0);
        assert!(matches!(arr[2], json::Value::Bool(true)));
        assert!(matches!(arr[3], json::Value::Bool(false)));
        assert_eq!(arr[5].as_string("s").unwrap(), "xA\n");
    }

    #[test]
    fn overflowing_float_tokens_are_rejected_not_saturated() {
        let mut json = to_json(&demo_run());
        json = json.replace("\"p_hat\":0.61", "\"p_hat\":1e999");
        let err = from_json(&json).unwrap_err();
        assert!(err.contains("finite"), "unexpected error: {err}");
    }

    #[test]
    fn parser_decodes_surrogate_pairs() {
        // Standard JSON encodes astral characters as surrogate pairs; a
        // foreign emitter's export must still pass `sweep --check`.
        let v = json::parse(r#""\ud83d\ude00 and \u00e9""#).unwrap();
        assert_eq!(v.as_string("s").unwrap(), "😀 and é");
        // Raw UTF-8 (unescaped) passes through untouched too.
        let raw = json::parse("\"😀 raw\"").unwrap();
        assert_eq!(raw.as_string("s").unwrap(), "😀 raw");
        assert!(json::parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(json::parse(r#""\ud83dA""#).is_err(), "bad low surrogate");
        assert!(json::parse(r#""\udc00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(from_json("").is_err());
        assert!(from_json("{").is_err());
        assert!(from_json("{}").unwrap_err().contains("missing field"));
        assert!(from_json("[1, 2]").unwrap_err().contains("object"));
        assert!(json::parse("{\"a\": 1} trailing").is_err());
        assert!(json::parse("{\"a\": }").is_err());
        // Nesting is capped: a 200 KB run of '[' is an error, not a stack
        // overflow, and the cap sits exactly at MAX_DEPTH.
        let err = json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "unexpected error: {err}");
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(json::parse(&nest(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&nest(json::MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(json::MAX_DEPTH + 1);
        assert!(json::parse(&objects).unwrap_err().contains("nesting deeper than"));
        // Well-formed JSON whose counts no run can produce: the error names
        // the record and the field.
        let exported = to_json(&demo_run());
        let zero_trials = exported.replacen("\"trials\":100", "\"trials\":0", 1);
        let err = from_json(&zero_trials).unwrap_err();
        assert!(
            err.contains("records[0]") && err.contains("trials"),
            "unexpected error: {err}"
        );
        let too_many = exported
            .replacen("\"successes\":61", "\"successes\":99", 1)
            .replacen("\"trials\":100", "\"trials\":20", 1);
        let err = from_json(&too_many).unwrap_err();
        assert!(
            err.contains("records[0]") && err.contains("successes"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn merge_runs_reassembles_shards_dedups_and_sorts() {
        let run = demo_run();
        // Shard split: point 1 in one run, point 0 in the other (out of
        // order), with point 0 duplicated byte-identically across both.
        let shard_a = SweepRun {
            records: vec![run.records[1].clone(), run.records[0].clone()],
            ..run.clone()
        };
        let shard_b = SweepRun {
            records: vec![run.records[0].clone()],
            ..run.clone()
        };
        let merged = merge_runs(&[shard_a, shard_b]).expect("merge");
        assert_eq!(merged, run);
        assert_eq!(to_json(&merged), to_json(&run));
    }

    #[test]
    fn merge_runs_rejects_conflicts_and_metadata_mismatches() {
        let run = demo_run();
        assert!(merge_runs(&[]).unwrap_err().contains("no runs"));

        // Same point, different content: a conflict, not a dedup.
        let mut conflicting = run.clone();
        conflicting.records[0].successes += 1;
        let err = merge_runs(&[run.clone(), conflicting]).unwrap_err();
        assert!(err.contains("conflicting records"), "unexpected error: {err}");
        assert!(err.contains("point 0"), "error names the point: {err}");

        // Mismatched run metadata (e.g. different master seed).
        let mut reseeded = run.clone();
        reseeded.master_seed ^= 1;
        let err = merge_runs(&[run, reseeded]).unwrap_err();
        assert!(err.contains("metadata mismatch"), "unexpected error: {err}");
    }

    #[test]
    fn record_json_round_trips_through_record_from_json() {
        let record = demo_run().records[0].clone();
        let line = record_json(&record);
        let back = record_from_json(&json::parse(&line).unwrap(), "record").unwrap();
        assert_eq!(back, record);
        assert_eq!(record_json(&back), line);
    }

    #[test]
    fn csv_has_header_plus_one_line_per_record() {
        let run = demo_run();
        let csv = to_csv(&run);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + run.records.len());
        assert_eq!(lines[0], CSV_COLUMNS.join(","));
        assert!(lines[1].starts_with("demo,0,cycle,36,consecutive,"));
        assert_eq!(lines[1].split(',').count(), CSV_COLUMNS.len());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_are_rejected_at_emit_time() {
        let mut run = demo_run();
        run.records[0].p_hat = f64::NAN;
        let _ = to_json(&run);
    }
}

//! Just enough JSON writing for the harness's one-line result.

use std::fmt::Write as _;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON array of numbers.
pub fn numbers(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
    format!("[{}]", items.join(","))
}

/// An object under construction; values are inserted as raw JSON.
#[derive(Default)]
pub struct Object {
    fields: Vec<String>,
}

impl Object {
    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.fields.push(format!("{}:{json}", string(key)));
        self
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, number(v))
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, string(v))
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

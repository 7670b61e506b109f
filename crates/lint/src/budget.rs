//! The committed ratchet baseline: `lint_budget.json` parse and emit.
//!
//! The checker is dependency-free by design (see `Cargo.toml`), so the
//! budget file is a *restricted* JSON subset handled by hand: one
//! top-level object mapping crate names to `{"hash_containers": N,
//! "indexing": N, "panics": N, "unwraps": N}` objects, with
//! non-negative integer values. The emitter is byte-stable — sorted
//! keys (via `BTreeMap`), two-space indent, trailing newline — so
//! `--bless` produces minimal diffs and the file can be asserted
//! byte-for-byte in tests. The same restricted `Parser` also reads
//! `lint_contracts.json` (see [`crate::contracts`]).

use crate::rules::ratchet::Counts;
use std::collections::BTreeMap;
use std::io;

/// Serializes a budget map in the canonical byte-stable layout.
pub fn to_json(budget: &BTreeMap<String, Counts>) -> String {
    let mut out = String::from("{\n");
    for (i, (krate, c)) in budget.iter().enumerate() {
        out.push_str(&format!(
            "  \"{}\": {{ \"hash_containers\": {}, \"indexing\": {}, \"panics\": {}, \"unwraps\": {} }}{}\n",
            krate,
            c.hash_containers,
            c.indexing,
            c.panics,
            c.unwraps,
            if i + 1 < budget.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}

/// Parses the restricted budget JSON. Rejects anything outside the
/// schema (unknown metric keys, non-integer values, duplicate crates)
/// so a hand-edited file fails loudly rather than silently ratcheting
/// against garbage.
pub fn from_json(text: &str) -> io::Result<BTreeMap<String, Counts>> {
    const LABEL: &str = "lint_budget.json";
    let mut p = Parser::new(text, LABEL);
    let mut budget = BTreeMap::new();
    p.object(
        &mut budget,
        |p, budget: &mut BTreeMap<String, Counts>, krate| {
            let mut c = Counts::default();
            let mut seen = [false; 4];
            p.object(&mut c, |p, c: &mut Counts, key| {
                let v = p.integer()?;
                match key.as_str() {
                    "hash_containers" if !seen[0] => {
                        seen[0] = true;
                        c.hash_containers = v;
                    }
                    "indexing" if !seen[1] => {
                        seen[1] = true;
                        c.indexing = v;
                    }
                    "panics" if !seen[2] => {
                        seen[2] = true;
                        c.panics = v;
                    }
                    "unwraps" if !seen[3] => {
                        seen[3] = true;
                        c.unwraps = v;
                    }
                    other => {
                        return Err(bad(
                            LABEL,
                            &format!("unknown or duplicate metric `{other}`"),
                        ))
                    }
                }
                Ok(())
            })?;
            if !seen.iter().all(|&s| s) {
                return Err(bad(LABEL, &format!("crate `{krate}` is missing a metric")));
            }
            if budget.insert(krate.clone(), c).is_some() {
                return Err(bad(LABEL, &format!("duplicate crate `{krate}`")));
            }
            Ok(())
        },
    )?;
    p.finish()?;
    Ok(budget)
}

/// An error in a committed lint data file (`{label}: {msg}`).
pub(crate) fn bad(label: &str, msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{label}: {msg}"))
}

/// Hand-rolled parser for the restricted JSON subset the lint's
/// committed data files use (objects, arrays, strings without escapes,
/// non-negative integers).
pub(crate) struct Parser {
    chars: Vec<char>,
    pos: usize,
    label: &'static str,
}

impl Parser {
    pub(crate) fn new(text: &str, label: &'static str) -> Parser {
        Parser {
            chars: text.chars().collect(),
            pos: 0,
            label,
        }
    }

    fn bad(&self, msg: &str) -> io::Error {
        bad(self.label, msg)
    }

    pub(crate) fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    /// Errors unless the input is fully consumed (modulo whitespace).
    pub(crate) fn finish(&mut self) -> io::Result<()> {
        self.skip_ws();
        if self.pos < self.chars.len() {
            return Err(self.bad("trailing data after the top-level object"));
        }
        Ok(())
    }

    fn expect(&mut self, c: char) -> io::Result<()> {
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.bad(&format!(
                "expected `{c}` at offset {}, found {:?}",
                self.pos,
                self.chars.get(self.pos)
            )))
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    pub(crate) fn string(&mut self) -> io::Result<String> {
        self.expect('"')?;
        let mut s = String::new();
        while let Some(&c) = self.chars.get(self.pos) {
            self.pos += 1;
            match c {
                '"' => return Ok(s),
                '\\' => return Err(self.bad("escapes are not part of the schema")),
                _ => s.push(c),
            }
        }
        Err(self.bad("unterminated string"))
    }

    pub(crate) fn integer(&mut self) -> io::Result<usize> {
        self.skip_ws();
        let start = self.pos;
        while self.chars.get(self.pos).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.bad(&format!("expected an integer at offset {start}")));
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse()
            .map_err(|_| self.bad(&format!("integer out of range: {text}")))
    }

    /// Parses `{ "key": <entry>, ... }`, handing each key to `entry`.
    pub(crate) fn object<T>(
        &mut self,
        acc: &mut T,
        mut entry: impl FnMut(&mut Parser, &mut T, &String) -> io::Result<()>,
    ) -> io::Result<()> {
        self.expect('{')?;
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(':')?;
            entry(self, acc, &key)?;
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some('}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(self.bad(&format!("expected `,` or `}}`, found {other:?}"))),
            }
        }
    }

    /// Parses `[ <elem>, ... ]`, handing the parser to `elem` per
    /// element.
    pub(crate) fn array(
        &mut self,
        mut elem: impl FnMut(&mut Parser) -> io::Result<()>,
    ) -> io::Result<()> {
        self.expect('[')?;
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            elem(self)?;
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some(']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(self.bad(&format!("expected `,` or `]`, found {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BTreeMap<String, Counts> {
        let mut b = BTreeMap::new();
        b.insert(
            "ssor-graph".to_string(),
            Counts {
                hash_containers: 12,
                indexing: 7,
                panics: 2,
                unwraps: 30,
            },
        );
        b.insert(
            "ssor".to_string(),
            Counts {
                hash_containers: 0,
                indexing: 0,
                panics: 0,
                unwraps: 1,
            },
        );
        b
    }

    #[test]
    fn round_trips_byte_stably() {
        let b = sample();
        let json = to_json(&b);
        assert_eq!(from_json(&json).unwrap(), b);
        assert_eq!(to_json(&from_json(&json).unwrap()), json);
        assert!(json.starts_with(
            "{\n  \"ssor\": { \"hash_containers\": 0, \"indexing\": 0, \"panics\": 0, \"unwraps\": 1 },\n"
        ));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(from_json("{").is_err());
        assert!(from_json("{ \"a\": { \"hash_containers\": 1 } }").is_err());
        assert!(from_json(
            "{ \"a\": { \"hash_containers\": 1, \"indexing\": 0, \"panics\": 0, \"unwraps\": -1 } }"
        )
        .is_err());
        assert!(from_json(
            "{ \"a\": { \"hash_containers\": 1, \"indexing\": 0, \"panics\": 0, \"unwraps\": 2, \
             \"extra\": 3 } }"
        )
        .is_err());
        assert!(from_json("{ \"a\": { \"unwraps\": 1, \"unwraps\": 2 } }").is_err());
        assert!(from_json("{}").is_ok());
    }
}

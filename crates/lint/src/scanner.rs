//! Token-level Rust source scanner.
//!
//! The rules in [`crate::rules`] match on *code* tokens only, so the
//! scanner's job is to produce, per source line, a copy of the line with
//! everything that is not code blanked out: comment bodies and string /
//! char literal contents are replaced by spaces (quotes kept as
//! placeholders), while `// lint: allow(rule)` annotations are lifted
//! out of the comments they live in and attached to the line they
//! govern. This keeps every rule a simple substring scan that cannot be
//! fooled by a banned token inside a doc-example, a test string, or a
//! commented-out line — and, symmetrically, cannot be silenced by
//! hiding real code in clever formatting, because the scanner follows
//! the same lexical grammar rustc does (line + nested block comments,
//! escaped strings, raw strings with `#` fences, byte strings, char
//! literals vs. lifetimes).

/// One scanned source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line's code with comment bodies and literal contents blanked.
    pub code: String,
    /// Rules allowed on this line via `// lint: allow(rule)` — either a
    /// trailing comment on the line itself, or a standalone comment line
    /// directly above it (blank and comment-only lines in between are
    /// transparent).
    pub allows: Vec<String>,
}

impl Line {
    /// Whether this line carries an allow annotation for `rule`.
    pub fn allows(&self, rule: &str) -> bool {
        self.allows.iter().any(|a| a == rule)
    }
}

/// A scanned source file: the unit every rule operates on.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (diagnostic label).
    pub path: String,
    /// Scanned lines, in order (index 0 is line 1).
    pub lines: Vec<Line>,
}

/// Extracts `lint: allow(a, b)` rule names from one comment's text.
fn parse_allows(comment: &str, out: &mut Vec<String>) {
    let mut rest = comment;
    while let Some(p) = rest.find("lint: allow(") {
        rest = &rest[p + "lint: allow(".len()..];
        let Some(end) = rest.find(')') else { break };
        for name in rest[..end].split(',') {
            let name = name.trim();
            if !name.is_empty() {
                out.push(name.to_string());
            }
        }
        rest = &rest[end..];
    }
}

/// Finishes the current line: standalone-comment/blank lines keep
/// pending allows queued; code lines consume them.
fn flush_line(lines: &mut Vec<Line>, cur: &mut Line, pending: &mut Vec<String>) {
    let has_code = cur.code.chars().any(|c| !c.is_whitespace());
    if has_code {
        let mut owned = std::mem::take(pending);
        owned.append(&mut cur.allows);
        cur.allows = owned;
    }
    lines.push(std::mem::take(cur));
}

/// Lexes `text` into blanked per-line code plus allow annotations.
/// `path` is recorded verbatim as the diagnostic label.
pub fn scan_source(path: &str, text: &str) -> SourceFile {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    // Allows from standalone comment lines, waiting for the next line
    // that contains actual code.
    let mut pending_allows: Vec<String> = Vec::new();

    let mut i = 0usize;
    let n = chars.len();

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                flush_line(&mut lines, &mut cur, &mut pending_allows);
                i += 1;
            }
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                // Line comment: capture text to EOL, lift annotations.
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                let comment: String = chars[start..i].iter().collect();
                let had_code = cur.code.chars().any(|ch| !ch.is_whitespace());
                let mut found = Vec::new();
                parse_allows(&comment, &mut found);
                if had_code {
                    cur.allows.append(&mut found);
                } else {
                    pending_allows.append(&mut found);
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Block comment, possibly nested and multi-line. Bodies
                // are blanked; annotations only live in line comments.
                i += 2;
                let mut depth = 1usize;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            flush_line(&mut lines, &mut cur, &mut pending_allows);
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                i = consume_string(&chars, i, 0, &mut cur, &mut lines, &mut pending_allows);
            }
            'r' | 'b' if starts_string_prefix(&chars, i) => {
                // r"..." / r#"..."# / b"..." / br#"..."# — find the
                // quote and fence length, then consume as a string.
                let mut j = i;
                while j < n && (chars[j] == 'r' || chars[j] == 'b') {
                    cur.code.push(chars[j]);
                    j += 1;
                }
                let mut hashes = 0usize;
                while j < n && chars[j] == '#' {
                    cur.code.push('#');
                    hashes += 1;
                    j += 1;
                }
                // starts_string_prefix guarantees a quote here.
                let raw = chars[i..j].contains(&'r');
                i = consume_string(
                    &chars,
                    j,
                    if raw { hashes } else { 0 },
                    &mut cur,
                    &mut lines,
                    &mut pending_allows,
                );
            }
            '\'' => {
                // Char literal vs. lifetime: a literal closes with a
                // quote after one (possibly escaped) character.
                if let Some(end) = char_literal_end(&chars, i) {
                    cur.code.push('\'');
                    for _ in i + 1..end {
                        cur.code.push(' ');
                    }
                    cur.code.push('\'');
                    i = end + 1;
                } else {
                    cur.code.push('\'');
                    i += 1;
                }
            }
            _ => {
                cur.code.push(c);
                i += 1;
            }
        }
    }
    if !cur.code.is_empty() || !cur.allows.is_empty() {
        flush_line(&mut lines, &mut cur, &mut pending_allows);
    }

    SourceFile {
        path: path.to_string(),
        lines,
    }
}

/// Whether `chars[i..]` starts a string-literal prefix (`r`/`b`/`br`
/// runs, optional `#` fences, then `"`), as opposed to an identifier
/// that merely begins with those letters.
fn starts_string_prefix(chars: &[char], i: usize) -> bool {
    // An identifier character *before* the prefix means this `r`/`b` is
    // the tail of a name (e.g. `var`), not a literal prefix.
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    let mut saw_r = false;
    while j < chars.len() && (chars[j] == 'r' || chars[j] == 'b') {
        saw_r |= chars[j] == 'r';
        j += 1;
        if j - i > 2 {
            return false;
        }
    }
    let hash_start = j;
    while j < chars.len() && chars[j] == '#' {
        j += 1;
    }
    // `#` fences are only legal on raw strings.
    if j > hash_start && !saw_r {
        return false;
    }
    j < chars.len() && chars[j] == '"' && j > i
}

/// Consumes a string literal starting at the opening quote
/// `chars[open]`, with `hashes` raw-string fence characters (0 for a
/// normal escaped string). Returns the index just past the literal.
fn consume_string(
    chars: &[char],
    open: usize,
    hashes: usize,
    cur: &mut Line,
    lines: &mut Vec<Line>,
    pending_allows: &mut Vec<String>,
) -> usize {
    let n = chars.len();
    let raw = hashes > 0 || (open > 0 && matches!(chars[open - 1], 'r' | '#'));
    cur.code.push('"');
    let mut i = open + 1;
    while i < n {
        let c = chars[i];
        if c == '\\' && !raw && i + 1 < n && chars[i + 1] != '\n' {
            cur.code.push(' ');
            cur.code.push(' ');
            i += 2;
            continue;
        }
        if c == '"' {
            // Check the raw-string fence.
            let mut k = 0usize;
            while k < hashes && i + 1 + k < n && chars[i + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                cur.code.push('"');
                for _ in 0..hashes {
                    cur.code.push('#');
                }
                i += 1 + hashes;
                break;
            }
        }
        if c == '\n' {
            // Multi-line literal (or a `\`-continued one): close out
            // this line's code.
            flush_line(lines, cur, pending_allows);
        } else {
            cur.code.push(' ');
        }
        i += 1;
    }
    i
}

/// If `chars[i]` opens a char literal, returns the index of its closing
/// quote; `None` means it is a lifetime / label tick.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    let n = chars.len();
    if i + 1 >= n {
        return None;
    }
    if chars[i + 1] == '\\' {
        // Escaped char: scan (bounded) for the closing quote.
        let mut j = i + 2;
        let limit = (i + 12).min(n);
        while j < limit {
            if chars[j] == '\'' {
                return Some(j);
            }
            j += 1;
        }
        return None;
    }
    if i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\'' {
        return Some(i + 2);
    }
    None
}

/// Counts the non-overlapping occurrences of `needle` in `code` that
/// sit on word boundaries (neither neighbor is `[A-Za-z0-9_]`).
pub fn count_word(code: &str, needle: &str) -> usize {
    let bytes = code.as_bytes();
    let nb = needle.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut count = 0;
    let mut from = 0;
    while let Some(p) = code[from..].find(needle) {
        let start = from + p;
        let end = start + nb.len();
        // A boundary is only required where the needle's own edge is a
        // word character (`.unwrap()` begins and ends with punctuation).
        let left_ok = !is_word(nb[0]) || start == 0 || !is_word(bytes[start - 1]);
        let right_ok = !is_word(nb[nb.len() - 1]) || end >= bytes.len() || !is_word(bytes[end]);
        if left_ok && right_ok {
            count += 1;
        }
        from = start + nb.len().max(1);
    }
    count
}

/// Counts the `[` characters that open an *index expression*: the
/// previous non-space character is an identifier character, `)`, or
/// `]` — i.e. a subscript on a place expression, which panics when out
/// of bounds. Attributes (`#[`), macros (`vec![`), array literals,
/// slice types (`&[u8]`), and patterns never match: their `[` follows
/// punctuation. Shared by the `ratchet` `indexing` counter and the
/// `hot_panic` contract rule.
pub fn index_brackets(code: &str) -> usize {
    let bytes = code.as_bytes();
    let mut count = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        let mut j = i;
        while j > 0 && bytes[j - 1] == b' ' {
            j -= 1;
        }
        let Some(&p) = bytes[..j].last() else {
            continue;
        };
        if !(p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']') {
            continue;
        }
        // An identifier before `[` is indexing *unless* it is a keyword
        // (`let [a, b] =`, `for [x, y] in`, `return [..]` are patterns
        // or array expressions, not element access).
        let start = bytes[..j]
            .iter()
            .rposition(|&c| !(c.is_ascii_alphanumeric() || c == b'_'))
            .map(|k| k + 1)
            .unwrap_or(0);
        let word = &code[start..j];
        if matches!(
            word,
            "let" | "in" | "mut" | "ref" | "if" | "else" | "match" | "return" | "break" | "for"
        ) {
            continue;
        }
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(text: &str) -> Vec<String> {
        scan_source("t.rs", text)
            .lines
            .into_iter()
            .map(|l| l.code)
            .collect()
    }

    #[test]
    fn strips_line_and_block_comments() {
        let c = codes("let x = 1; // thread_rng\n/* SystemTime */ let y = 2;\n");
        assert_eq!(c[0], "let x = 1; ");
        assert_eq!(c[1], " let y = 2;");
    }

    #[test]
    fn nested_block_comments() {
        let c = codes("/* outer /* inner */ still comment */ code()\n");
        assert_eq!(c[0], " code()");
    }

    #[test]
    fn blanks_string_contents_but_keeps_quotes() {
        let c = codes("let s = \"thread_rng\"; foo();\n");
        assert!(!c[0].contains("thread_rng"));
        assert!(c[0].contains('"'));
        assert!(c[0].contains("foo()"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let c = codes("let s = r#\"Instant::now \"quoted\" \"#; bar();\n");
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("bar()"));
        let c = codes("let s = \"esc \\\" Instant::now\"; baz();\n");
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("baz()"));
    }

    #[test]
    fn multiline_string_spans_lines() {
        let c = codes("let s = \"line one\nInstant::now\nend\"; tail();\n");
        assert!(!c.join("\n").contains("Instant"));
        assert!(c[2].contains("tail()"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let c = codes("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; }\n");
        assert!(c[0].contains("<'a>"));
        assert!(!c[0].contains("'x'"));
        // the blanked char literal keeps its quotes
        assert_eq!(c[0].matches('\'').count(), 6);
    }

    #[test]
    fn allow_on_same_line_and_preceding_line() {
        let f = scan_source(
            "t.rs",
            "let v = x.unwrap(); // lint: allow(ratchet)\n\
             // lint: allow(par_collect)\nlet p = r.par_iter();\nlet s = 3;\n",
        );
        assert!(f.lines[0].allows("ratchet"));
        assert!(!f.lines[0].allows("par_collect"));
        assert!(f.lines[2].allows("par_collect"));
        assert!(f.lines[3].allows.is_empty());
    }

    #[test]
    fn allow_list_and_blank_line_transparency() {
        let f = scan_source(
            "t.rs",
            "// lint: allow(hot_panic, hot_alloc)\n\n// another comment\nstuff();\n",
        );
        assert!(f.lines[3].allows("hot_panic"));
        assert!(f.lines[3].allows("hot_alloc"));
    }

    #[test]
    fn index_bracket_detection() {
        assert_eq!(index_brackets("let x = v[i] + w[j + 1];"), 2);
        assert_eq!(index_brackets("f(a)[0] and m[k][l]"), 3);
        assert_eq!(index_brackets("#[derive(Debug)]"), 0);
        assert_eq!(index_brackets("let v = vec![1, 2];"), 0);
        assert_eq!(index_brackets("fn f(x: &[u8], y: [u32; 4]) {}"), 0);
        assert_eq!(index_brackets("let [a, b] = pair;"), 0);
        assert_eq!(index_brackets("Vec<[f64; 4]>"), 0);
    }

    #[test]
    fn word_boundary_counting() {
        assert_eq!(
            count_word("HashMap<K, V>, MyHashMap, HashMaps", "HashMap"),
            1
        );
        assert_eq!(count_word("x.unwrap().unwrap()", ".unwrap()"), 2);
        assert_eq!(count_word("use std::collections::HashSet;", "HashSet"), 1);
    }
}

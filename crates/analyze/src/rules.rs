//! The lint rules and the per-file analysis driver.
//!
//! Every rule is *lexical*: it works on the token stream of one file (no
//! type information, no cross-file analysis), which keeps the checker
//! dependency-free and fast, at the price of precision — so every rule
//! has an escape hatch. A violation line is suppressed by
//!
//! ```text
//! let x = risky[i]; // pcr-lint: allow(no-panic-in-hot-path) — i < len checked above
//! ```
//!
//! or by the same comment alone on the line directly above. Suppressions
//! are counted in the report, so "how much is annotated away" stays
//! visible. Unit-test code (`#[cfg(test)]` items, `#[test]` functions) is
//! exempt from every rule: tests are supposed to panic on failure.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{HashMap, HashSet};

/// Machine-readable description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule identifier (the name `pcr-lint: allow(...)` takes).
    pub name: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "clock-discipline",
        summary: "wall-clock reads (Instant::now / SystemTime) are confined to an allowlist \
                  of wall-clock modules; virtual-time code must never observe real time",
    },
    RuleInfo {
        name: "no-panic-in-hot-path",
        summary: "no unwrap/expect/panic!-family macros or unchecked [] indexing in the \
                  decode and wire-parse hot paths; return Result or use checked access",
    },
    RuleInfo {
        name: "safety-comment-on-unsafe",
        summary: "every `unsafe` must carry a `// SAFETY:` comment on or directly above it",
    },
    RuleInfo {
        name: "bounded-alloc",
        summary: "in wire-parse modules, allocations sized by a runtime value must be \
                  clamped/validated first (annotate the guard with an allow)",
    },
    RuleInfo {
        name: "no-truncating-cast",
        summary: "in wire-parse modules, narrowing `as` casts (to u8/u16/u32/i8/i16/i32) \
                  must be try_from or carry a justification",
    },
    RuleInfo {
        name: "no-debug-output",
        summary: "library crates must not print to stdout/stderr (println!/eprintln!/dbg!); \
                  binaries, benches, and tests are allowlisted",
    },
];

/// Files subject to `no-panic-in-hot-path`: the innermost decode
/// layers (including the entropy scan loops and the IDCT) and the
/// wire-parse modules — the code that runs per coefficient or consumes
/// untrusted bytes.
const HOT_PANIC_FILES: &[&str] = &[
    "crates/jpeg/src/bitio.rs",
    "crates/jpeg/src/huffman.rs",
    "crates/jpeg/src/dct.rs",
    "crates/jpeg/src/decoder.rs",
    "crates/jpeg/src/dentropy.rs",
    "crates/jpeg/src/sample.rs",
    "crates/core/src/wire.rs",
    "crates/core/src/record.rs",
    "crates/core/src/container.rs",
    "crates/core/src/colfooter.rs",
    "crates/core/src/declog.rs",
    "crates/storage/src/fault.rs",
    "crates/loader/src/retry.rs",
];

/// Files subject to `bounded-alloc` and `no-truncating-cast`: everything
/// that moves integers between the wire and memory.
const PARSE_FILES: &[&str] = &[
    "crates/core/src/wire.rs",
    "crates/core/src/record.rs",
    "crates/core/src/container.rs",
    "crates/core/src/colfooter.rs",
    "crates/core/src/declog.rs",
    "crates/storage/src/fault.rs",
];

/// Path prefixes allowed to read the wall clock. `parallel.rs` *is* the
/// wall-clock loader; `timing.rs` is the delivery step's one sanctioned
/// measurement helper; CLI/bench/datasets-encode and the
/// stand-alone end-to-end benchmark (`benchmark/`) are offline tooling;
/// vendored shims mirror upstream crates' behaviour.
const CLOCK_ALLOW: &[&str] = &[
    "crates/loader/src/parallel.rs",
    "crates/loader/src/timing.rs",
    "crates/cli/",
    "crates/bench/",
    "crates/analyze/",
    "benchmark/",
    "vendor/",
];

/// Path prefixes allowed to print: binaries, benches, the end-to-end
/// benchmark binary, the analyzer itself, vendored test/bench harnesses.
const DEBUG_OUTPUT_ALLOW: &[&str] =
    &["crates/cli/", "crates/bench/", "crates/analyze/", "benchmark/", "vendor/"];

/// Directories that are test/example code wholesale (integration tests,
/// examples, benches): exempt from every rule, same as `#[cfg(test)]`.
const TEST_DIRS: &[&str] = &["tests/", "examples/", "benches/"];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survived suppression filtering.
    pub findings: Vec<Finding>,
    /// Violations silenced by a `pcr-lint: allow(...)` annotation.
    pub suppressed: usize,
}

/// Returns true when `path` (normalized, relative) lives under any of the
/// given prefixes — either at the workspace root (`tests/...`) or nested
/// (`crates/jpeg/benches/...`).
fn under_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| {
        if p.ends_with('/') {
            path.starts_with(p) || path.contains(&format!("/{p}"))
        } else {
            path == *p || path.ends_with(&format!("/{p}"))
        }
    })
}

fn is_hot_panic_file(path: &str) -> bool {
    under_any(path, HOT_PANIC_FILES)
}

fn is_parse_file(path: &str) -> bool {
    under_any(path, PARSE_FILES)
}

/// Keywords that can legally precede `[` without forming an index
/// expression (`let [a, b] = ...`, `return [0; 4]`, `match [x, y] {`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "box", "break",
    "continue", "while", "for", "loop", "where", "as", "dyn", "impl", "fn", "pub", "use",
    "mod", "const", "static", "type", "struct", "enum", "trait", "unsafe", "async", "await",
];

/// Analyzes one file's source. `path` must be workspace-relative with
/// `/` separators (it selects which rules apply).
pub fn analyze_source(path: &str, src: &str) -> FileReport {
    let tokens = lex(src);
    let code: Vec<Token> = tokens.iter().copied().filter(|t| t.kind != TokenKind::Comment).collect();
    let allow = allow_map(&tokens, src);
    let test_lines = test_spans(&code, src);
    let whole_file_test = under_any(path, TEST_DIRS);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: &'static str, t: &Token, message: String| {
        raw.push(Finding { rule, file: path.to_string(), line: t.line, col: t.col, message });
    };

    let txt = |t: &Token| t.text(src);

    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            // Indexing is keyed off the `[` itself.
            if t.kind == TokenKind::Punct
                && txt(t) == "["
                && is_hot_panic_file(path)
                && i > 0
            {
                let prev = &code[i - 1];
                let indexes = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&txt(prev)),
                    TokenKind::Punct => matches!(txt(prev), ")" | "]"),
                    // Tuple-field indexing: `self.0[i]`.
                    TokenKind::Number => true,
                    _ => false,
                };
                if indexes {
                    push(
                        "no-panic-in-hot-path",
                        t,
                        "unchecked `[]` indexing in a hot-path module; use `get`/`get_mut` \
                         or annotate why the index is provably in bounds"
                            .into(),
                    );
                }
            }
            continue;
        }
        let name = txt(t);
        let next_is = |j: usize, s: &str| {
            code.get(i + j).is_some_and(|n| txt(n) == s)
        };

        // clock-discipline ------------------------------------------------
        if !under_any(path, CLOCK_ALLOW) {
            if name == "Instant" && next_is(1, ":") && next_is(2, ":") && next_is(3, "now") {
                push(
                    "clock-discipline",
                    t,
                    "Instant::now() outside a wall-clock module; virtual-time code must \
                     take measurements through an allowlisted helper"
                        .into(),
                );
            }
            if name == "SystemTime" {
                push(
                    "clock-discipline",
                    t,
                    "SystemTime outside a wall-clock module".into(),
                );
            }
        }

        // no-panic-in-hot-path --------------------------------------------
        if is_hot_panic_file(path) {
            if (name == "unwrap" || name == "expect")
                && i > 0
                && txt(&code[i - 1]) == "."
                && next_is(1, "(")
            {
                push(
                    "no-panic-in-hot-path",
                    t,
                    format!("`.{name}()` in a hot-path module; return Result or annotate why \
                             this is provably infallible"),
                );
            }
            if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && next_is(1, "!")
            {
                push(
                    "no-panic-in-hot-path",
                    t,
                    format!("`{name}!` in a hot-path module"),
                );
            }
        }

        // safety-comment-on-unsafe ----------------------------------------
        if name == "unsafe" && !has_safety_comment(&tokens, src, t.line) {
            push(
                "safety-comment-on-unsafe",
                t,
                "`unsafe` without a `// SAFETY:` comment on or directly above it".into(),
            );
        }

        // bounded-alloc ---------------------------------------------------
        if is_parse_file(path) {
            if matches!(name, "with_capacity" | "reserve" | "reserve_exact") && next_is(1, "(")
            {
                if let Some(arg) = group_tokens(&code, i + 1, src) {
                    if arg.iter().any(|a| is_runtime_ident(txt(a), a.kind)) {
                        push(
                            "bounded-alloc",
                            t,
                            format!(
                                "`{name}` sized by a runtime value in a wire-parse module; \
                                 clamp/validate the size first and annotate the guard"
                            ),
                        );
                    }
                }
            }
            if name == "vec" && next_is(1, "!") && next_is(2, "[") {
                if let Some(arg) = group_tokens(&code, i + 2, src) {
                    // Only the `vec![elem; n]` form allocates by count.
                    if let Some(semi) = arg.iter().position(|a| txt(a) == ";") {
                        if arg[semi..].iter().any(|a| is_runtime_ident(txt(a), a.kind)) {
                            push(
                                "bounded-alloc",
                                t,
                                "`vec![_; n]` sized by a runtime value in a wire-parse \
                                 module; clamp/validate `n` first and annotate the guard"
                                    .into(),
                            );
                        }
                    }
                }
            }
        }

        // no-truncating-cast ----------------------------------------------
        if is_parse_file(path)
            && name == "as"
            && code.get(i + 1).is_some_and(|n| {
                matches!(txt(n), "u8" | "u16" | "u32" | "i8" | "i16" | "i32")
            })
            && i > 0
            && (matches!(code[i - 1].kind, TokenKind::Ident | TokenKind::Number)
                || matches!(txt(&code[i - 1]), ")" | "]"))
        {
            push(
                "no-truncating-cast",
                t,
                format!(
                    "narrowing `as {}` cast in a wire-parse module; use `try_from` or \
                     annotate why the value fits",
                    txt(&code[i + 1])
                ),
            );
        }

        // no-debug-output -------------------------------------------------
        if !under_any(path, DEBUG_OUTPUT_ALLOW)
            && matches!(name, "println" | "print" | "eprintln" | "eprint" | "dbg")
            && next_is(1, "!")
        {
            push(
                "no-debug-output",
                t,
                format!("`{name}!` in a library crate; route output through a returned \
                         value or a metrics sink"),
            );
        }
    }

    // Filter: test code and allow annotations.
    let mut report = FileReport::default();
    for f in raw {
        if whole_file_test || test_lines.contains(&f.line) {
            continue;
        }
        if allow.get(&f.line).is_some_and(|rules| rules.contains(f.rule)) {
            report.suppressed += 1;
            continue;
        }
        report.findings.push(f);
    }
    report
}

/// True for identifiers that look like runtime values (lowercase start):
/// `SCREAMING_CASE` constants and numeric literals do not count.
fn is_runtime_ident(text: &str, kind: TokenKind) -> bool {
    kind == TokenKind::Ident
        && text.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        // Method-call plumbing that appears inside size expressions
        // without itself being a size: `x.min(CAP)` keeps `min`.
        && !matches!(text, "min" | "max" | "clamp" | "usize" | "u64" | "u32" | "u16" | "as")
}

/// Tokens strictly inside the bracket group whose opener is
/// `code[opener]` (`(`, `[`, or `{`); `None` when unbalanced. Only the
/// opener's own bracket pair is depth-tracked, which is all the size
/// expressions the alloc rule inspects need.
fn group_tokens<'t>(code: &'t [Token], opener: usize, src: &str) -> Option<&'t [Token]> {
    let txt = |t: &Token| t.text(src);
    let open = txt(code.get(opener)?);
    let close = match open {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(opener) {
        let s = txt(t);
        if s == open {
            depth += 1;
        } else if s == close {
            depth -= 1;
            if depth == 0 {
                return Some(&code[opener + 1..j]);
            }
        }
    }
    None
}

/// Lines covered by `#[cfg(test)]` / `#[test]` items (the whole item,
/// attribute through closing brace).
fn test_spans(code: &[Token], src: &str) -> HashSet<u32> {
    let txt = |t: &Token| t.text(src);
    let mut lines = HashSet::new();
    let mut i = 0usize;
    while i < code.len() {
        if txt(&code[i]) == "#" && code.get(i + 1).is_some_and(|t| txt(t) == "[") {
            // Scan the attribute group for a `test` ident.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut has_test = false;
            let mut has_not = false;
            while j < code.len() && depth > 0 {
                match txt(&code[j]) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "test" => has_test = true,
                    "not" => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            // `#[cfg(not(test))]` guards *production* code.
            let is_test_attr = has_test && !has_not;
            if is_test_attr {
                // Skip any further attributes, then cover the item until
                // its closing brace (or terminating semicolon).
                let start_line = code[i].line;
                let mut k = j;
                while k < code.len() && txt(&code[k]) == "#" {
                    let mut d = 0usize;
                    k += 1; // past '#'
                    if k < code.len() && txt(&code[k]) == "[" {
                        d = 1;
                        k += 1;
                        while k < code.len() && d > 0 {
                            match txt(&code[k]) {
                                "[" => d += 1,
                                "]" => d -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    let _ = d;
                }
                let mut brace_depth = 0usize;
                let mut end_line = start_line;
                while k < code.len() {
                    let s = txt(&code[k]);
                    end_line = code[k].line;
                    if s == "{" {
                        brace_depth += 1;
                    } else if s == "}" {
                        brace_depth -= 1;
                        if brace_depth == 0 {
                            break;
                        }
                    } else if s == ";" && brace_depth == 0 {
                        break;
                    }
                    k += 1;
                }
                for l in start_line..=end_line {
                    lines.insert(l);
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    lines
}

/// Maps line number -> rules allowed on that line, from
/// `pcr-lint: allow(rule-a, rule-b)` comments. A trailing comment
/// applies to its own line; a comment alone on a line applies to the
/// next line; a standalone comment ending in `for-next-item` covers the
/// entire following item (attribute through closing brace or `;`) —
/// meant for functions whose bodies are wall-to-wall fixed-bound array
/// loops, where per-line annotations would drown the code.
fn allow_map(tokens: &[Token], src: &str) -> HashMap<u32, HashSet<&'static str>> {
    let mut map: HashMap<u32, HashSet<&'static str>> = HashMap::new();
    for (idx, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Comment {
            continue;
        }
        let text = t.text(src);
        let Some(pos) = text.find("pcr-lint:") else { continue };
        let rest = &text[pos + "pcr-lint:".len()..];
        let Some(open) = rest.find("allow(") else { continue };
        let Some(close) = rest[open..].find(')') else { continue };
        let list = &rest[open + "allow(".len()..open + close];
        let mut rules: HashSet<&'static str> = HashSet::new();
        for part in list.split(',') {
            let part = part.trim();
            if let Some(info) = RULES.iter().find(|r| r.name == part) {
                rules.insert(info.name);
            }
        }
        if rules.is_empty() {
            continue;
        }
        // Does code precede this comment on the same line?
        let has_code_before = tokens[..idx]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| p.kind != TokenKind::Comment);
        // Block comments may span lines; anchor on the line the comment
        // *ends* for the standalone case.
        let end_line = t.line + text.bytes().filter(|&b| b == b'\n').count() as u32;
        let item_scope = !has_code_before && rest[open + close..].contains("for-next-item");
        if item_scope {
            let (lo, hi) = next_item_lines(&tokens[idx + 1..], src, end_line);
            for l in lo..=hi {
                map.entry(l).or_default().extend(rules.iter().copied());
            }
        } else if has_code_before {
            map.entry(t.line).or_default().extend(rules.iter().copied());
        } else {
            // Standalone comment: attach to the next *code* line, skipping
            // any further comment lines (multi-line justifications).
            let target = tokens[idx + 1..]
                .iter()
                .find(|n| n.kind != TokenKind::Comment)
                .map(|n| n.line)
                .unwrap_or(end_line + 1);
            map.entry(target).or_default().extend(rules.iter().copied());
        }
    }
    map
}

/// Line range of the first item whose tokens start after `after_line`:
/// from its first code token through the `}` that closes its outermost
/// brace, or a `;` at depth zero (for brace-less items). Returns an
/// empty-ish range anchored just past the comment when no code follows.
fn next_item_lines(rest: &[Token], src: &str, after_line: u32) -> (u32, u32) {
    let txt = |t: &Token| t.text(src);
    let code: Vec<&Token> = rest
        .iter()
        .filter(|t| t.kind != TokenKind::Comment && t.line > after_line)
        .collect();
    let Some(first) = code.first() else { return (after_line + 1, after_line + 1) };
    let start_line = first.line;
    let mut depth = 0usize;
    let mut inner = 0usize; // ()/[] nesting, so `;` inside `[f64; 8]` is not a terminator
    let mut end_line = start_line;
    for t in &code {
        end_line = t.line;
        match txt(t) {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            "(" | "[" => inner += 1,
            ")" | "]" => inner = inner.saturating_sub(1),
            ";" if depth == 0 && inner == 0 => break,
            _ => {}
        }
    }
    (start_line, end_line)
}

/// True when a `// SAFETY:` comment sits on `line` or within the three
/// lines above it.
fn has_safety_comment(tokens: &[Token], src: &str, line: u32) -> bool {
    tokens.iter().any(|t| {
        t.kind == TokenKind::Comment
            && t.line <= line
            && t.line + 3 >= line
            && t.text(src).contains("SAFETY:")
    })
}

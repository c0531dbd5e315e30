//! Repo self-lint: the codebase's own invariants, checked from source.
//!
//! Scans `crates/*/src/**/*.rs` (library code only — `src/bin/` and
//! test files are exempt, as is anything inside a `#[cfg(test)]` item)
//! with a small lexer that strips comments and masks string-literal
//! contents, so pattern words appearing in doc comments or message
//! strings never fire. A finding on any line is suppressed by a
//! `// check:allow(reason)` marker on the same line or on an immediately
//! preceding comment-only line.
//!
//! Codes: `CS-L001` `.unwrap()` in library code, `CS-L002` `.expect("…")`
//! in library code, `CS-L003` `panic!`, `assert!`, `assert_eq!` or
//! `assert_ne!` in library code (`debug_assert*` is allowed), `CS-L004`
//! wall-clock time in a deterministic crate, `CS-L005` OS randomness in a
//! deterministic crate, `CS-L006` `println!`/`eprintln!` in library code
//! (warning), `CS-L007` narrowing `as` cast in a hot-path crate (a
//! silently truncating cast on an address, count or cycle value is
//! exactly the class of engine bug the static bounds oracle exists to
//! catch — widen the type or annotate why the value provably fits).

use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;

/// Crates whose results must be bit-reproducible from the seed alone:
/// wall-clock reads and OS entropy are banned outright there.
const DETERMINISTIC_CRATES: &[&str] = &[
    "sim",
    "hwpm",
    "objmap",
    "core",
    "workloads",
    "fuzzgen",
    "analyze",
];

/// Crates on the per-access hot path, where a narrowing `as` cast can
/// silently truncate an address, a counter or a cycle count. `CS-L007`
/// bans them there outside `#[cfg(test)]` unless a `check:allow`
/// explains why the value provably fits.
const HOT_PATH_CRATES: &[&str] = &["sim", "objmap", "hwpm"];

/// Per line of a source file: the code text (string contents masked out,
/// delimiters kept) and the comment text.
fn classify_lines(src: &str) -> Vec<(String, String)> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<(String, String)> = vec![(String::new(), String::new())];
    let newline = |lines: &mut Vec<(String, String)>| {
        lines.push((String::new(), String::new()));
    };
    let code = |lines: &mut Vec<(String, String)>, c: char| {
        if let Some(last) = lines.last_mut() {
            last.0.push(c);
        }
    };
    let comment = |lines: &mut Vec<(String, String)>, c: char| {
        if let Some(last) = lines.last_mut() {
            last.1.push(c);
        }
    };
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                newline(&mut lines);
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                i += 2;
                while i < chars.len() && chars[i] != '\n' {
                    comment(&mut lines, chars[i]);
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            newline(&mut lines);
                        } else {
                            comment(&mut lines, chars[i]);
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                // Plain string: keep the delimiters, drop the contents.
                code(&mut lines, '"');
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            code(&mut lines, '"');
                            i += 1;
                            break;
                        }
                        '\n' => {
                            newline(&mut lines);
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            'r' | 'b' if is_raw_string_start(&chars, i) => {
                // r"…", r#"…"#, br#"…"# — skip to the matching close.
                let mut j = i + 1;
                if chars.get(j) == Some(&'r') {
                    j += 1;
                }
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                code(&mut lines, '"');
                i = j + 1; // past the opening quote
                while i < chars.len() {
                    if chars[i] == '"' && closes_raw(&chars, i, hashes) {
                        code(&mut lines, '"');
                        i += 1 + hashes;
                        break;
                    }
                    if chars[i] == '\n' {
                        newline(&mut lines);
                    }
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs. lifetime: a literal closes within a
                // couple of chars ('x', '\n'); a lifetime never closes.
                if chars.get(i + 1) == Some(&'\\') {
                    i += 2; // skip the escape lead-in
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if chars.get(i + 2) == Some(&'\'') {
                    i += 3;
                } else {
                    code(&mut lines, '\'');
                    i += 1;
                }
            }
            _ => {
                code(&mut lines, c);
                i += 1;
            }
        }
    }
    lines
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        // Plain b"…" byte strings keep escape processing: the 'b' falls
        // through as code and the '"' arm handles the literal.
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn closes_raw(chars: &[char], quote: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(quote + k) == Some(&'#'))
}

struct Rule {
    needle: &'static str,
    code: &'static str,
    warning: bool,
    deterministic_only: bool,
    hot_path_only: bool,
    what: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        needle: ".unwrap()",
        code: "CS-L001",
        warning: false,
        deterministic_only: false,
        hot_path_only: false,
        what: "call to .unwrap() in library code",
    },
    Rule {
        needle: ".expect(\"",
        code: "CS-L002",
        warning: false,
        deterministic_only: false,
        hot_path_only: false,
        what: "call to .expect(\"…\") in library code",
    },
    Rule {
        needle: "panic!",
        code: "CS-L003",
        warning: false,
        deterministic_only: false,
        hot_path_only: false,
        what: "panic! in library code",
    },
    Rule {
        needle: "assert!",
        code: "CS-L003",
        warning: false,
        deterministic_only: false,
        hot_path_only: false,
        what: "assert! in library code",
    },
    Rule {
        needle: "assert_eq!",
        code: "CS-L003",
        warning: false,
        deterministic_only: false,
        hot_path_only: false,
        what: "assert_eq! in library code",
    },
    Rule {
        needle: "assert_ne!",
        code: "CS-L003",
        warning: false,
        deterministic_only: false,
        hot_path_only: false,
        what: "assert_ne! in library code",
    },
    Rule {
        needle: "SystemTime",
        code: "CS-L004",
        warning: false,
        deterministic_only: true,
        hot_path_only: false,
        what: "wall-clock time in a deterministic crate",
    },
    Rule {
        needle: "Instant::now",
        code: "CS-L004",
        warning: false,
        deterministic_only: true,
        hot_path_only: false,
        what: "wall-clock time in a deterministic crate",
    },
    Rule {
        needle: "thread_rng",
        code: "CS-L005",
        warning: false,
        deterministic_only: true,
        hot_path_only: false,
        what: "OS randomness in a deterministic crate",
    },
    Rule {
        needle: "from_entropy",
        code: "CS-L005",
        warning: false,
        deterministic_only: true,
        hot_path_only: false,
        what: "OS randomness in a deterministic crate",
    },
    Rule {
        needle: "println!",
        code: "CS-L006",
        warning: true,
        deterministic_only: false,
        hot_path_only: false,
        what: "println!/eprintln! in library code",
    },
    Rule {
        needle: " as u8",
        code: "CS-L007",
        warning: false,
        deterministic_only: false,
        hot_path_only: true,
        what: "narrowing `as u8` cast in a hot-path crate",
    },
    Rule {
        needle: " as u16",
        code: "CS-L007",
        warning: false,
        deterministic_only: false,
        hot_path_only: true,
        what: "narrowing `as u16` cast in a hot-path crate",
    },
    Rule {
        needle: " as u32",
        code: "CS-L007",
        warning: false,
        deterministic_only: false,
        hot_path_only: true,
        what: "narrowing `as u32` cast in a hot-path crate",
    },
    Rule {
        needle: " as i8",
        code: "CS-L007",
        warning: false,
        deterministic_only: false,
        hot_path_only: true,
        what: "narrowing `as i8` cast in a hot-path crate",
    },
    Rule {
        needle: " as i16",
        code: "CS-L007",
        warning: false,
        deterministic_only: false,
        hot_path_only: true,
        what: "narrowing `as i16` cast in a hot-path crate",
    },
    Rule {
        needle: " as i32",
        code: "CS-L007",
        warning: false,
        deterministic_only: false,
        hot_path_only: true,
        what: "narrowing `as i32` cast in a hot-path crate",
    },
    Rule {
        needle: " as f32",
        code: "CS-L007",
        warning: false,
        deterministic_only: false,
        hot_path_only: true,
        what: "narrowing `as f32` cast in a hot-path crate",
    },
];

fn rule_hint(code: &str) -> &'static str {
    match code {
        "CS-L001" => "handle the error, or annotate // check:allow(reason) if provably infallible",
        "CS-L002" => "return the error instead, or annotate // check:allow(reason)",
        "CS-L003" => {
            "return a Result, or annotate // check:allow(reason) for a proven invariant or a \
             test fixture"
        }
        "CS-L004" => "thread a virtual clock through instead; results must replay from the seed",
        "CS-L005" => "use the seeded SplitMix/Xoshiro helpers; OS entropy breaks reproducibility",
        "CS-L007" => {
            "a truncating cast silently corrupts addresses/counts; widen the type, use \
             TryFrom/u8::from, or annotate // check:allow(why the value provably fits)"
        }
        _ => "route output through the obs event stream or a returned value",
    }
}

/// Does `needle` occur in `code` other than as the tail of a `debug_`
/// macro? `debug_assert!` and its kin compile out of release builds, so
/// they cannot abort a release run.
fn fires(code: &str, needle: &str) -> bool {
    code.match_indices(needle)
        .any(|(at, _)| !code[..at].ends_with("debug_"))
}

/// Lint one source file. `crate_name` selects the determinism rules.
pub fn lint_source(src: &str, crate_name: &str, source: &str) -> Vec<Diagnostic> {
    let deterministic = DETERMINISTIC_CRATES.contains(&crate_name);
    let hot_path = HOT_PATH_CRATES.contains(&crate_name);
    let lines = classify_lines(src);
    let mut diags = Vec::new();
    let mut depth = 0usize;
    let mut pending_test = false;
    let mut skip_depth: Option<usize> = None;
    for (idx, (code_text, comment_text)) in lines.iter().enumerate() {
        let in_test_at_start = skip_depth.is_some();
        if code_text.contains("#[cfg(test)]") {
            pending_test = true;
        }
        for ch in code_text.chars() {
            match ch {
                '{' => {
                    if pending_test && skip_depth.is_none() {
                        skip_depth = Some(depth);
                        pending_test = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if skip_depth == Some(depth) {
                        skip_depth = None;
                    }
                }
                _ => {}
            }
        }
        if in_test_at_start || skip_depth.is_some() {
            continue;
        }
        let allowed = comment_text.contains("check:allow(")
            || idx
                .checked_sub(1)
                .and_then(|p| lines.get(p))
                .is_some_and(|(c, m)| c.trim().is_empty() && m.contains("check:allow("));
        if allowed {
            continue;
        }
        for rule in RULES {
            if rule.deterministic_only && !deterministic {
                continue;
            }
            if rule.hot_path_only && !hot_path {
                continue;
            }
            if fires(code_text, rule.needle) {
                let d = if rule.warning {
                    Diagnostic::warning(rule.code, source, rule.what.to_string())
                } else {
                    Diagnostic::error(rule.code, source, rule.what.to_string())
                };
                diags.push(d.at_line(idx as u64 + 1).with_hint(rule_hint(rule.code)));
            }
        }
    }
    diags
}

/// Walk `root/crates/*/src` and lint every library source file.
pub fn lint_repo(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match std::fs::read_dir(&crates_dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(e) => {
            return vec![Diagnostic::error(
                "CS-L001",
                crates_dir.display().to_string(),
                format!("cannot read crates directory: {e}"),
            )]
        }
    };
    crate_dirs.sort();
    for dir in crate_dirs {
        let crate_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files);
        files.sort();
        for file in files {
            let text = match std::fs::read_to_string(&file) {
                Ok(t) => t,
                Err(e) => {
                    diags.push(Diagnostic::error(
                        "CS-L001",
                        file.display().to_string(),
                        format!("cannot read source file: {e}"),
                    ));
                    continue;
                }
            };
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            diags.extend(lint_source(&text, &crate_name, &rel));
        }
    }
    diags
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            // Binaries and integration-test trees are exempt: they talk
            // to humans and may fail loudly.
            if name != "bin" && name != "tests" {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") && name != "tests.rs" {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<(&'static str, u64)> {
        diags.iter().map(|d| (d.code, d.line)).collect()
    }

    #[test]
    fn bare_unwrap_expect_panic_are_flagged_with_lines() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\nfn g() {\n    panic!(\"no\");\n}\nfn h(x: Option<u8>) -> u8 {\n    x.expect(\"present\")\n}\n";
        let diags = lint_source(src, "sim", "t.rs");
        assert_eq!(
            codes(&diags),
            [("CS-L001", 2), ("CS-L003", 5), ("CS-L002", 8)]
        );
    }

    #[test]
    fn assert_is_flagged_but_debug_assert_is_not() {
        let src = "fn f(x: u8) {\n    assert!(x > 0);\n    debug_assert!(x > 1);\n    assert_eq!(x, 2);\n    debug_assert_eq!(x, 2);\n    assert_ne!(x, 3);\n    debug_assert_ne!(x, 3);\n    assert!(x < 9); // check:allow(callers pass digits)\n}\n";
        let diags = lint_source(src, "sim", "t.rs");
        assert_eq!(
            codes(&diags),
            [("CS-L003", 2), ("CS-L003", 4), ("CS-L003", 6)]
        );
    }

    #[test]
    fn patterns_inside_strings_and_comments_do_not_fire() {
        let src = "// calling .unwrap() here would panic!\nfn f() -> &'static str {\n    \"never .unwrap() or panic! in messages\"\n}\n/* block comment: .expect(\"x\") */\n";
        assert!(lint_source(src, "sim", "t.rs").is_empty());
    }

    #[test]
    fn raw_strings_and_char_literals_are_masked() {
        let src = "fn f() -> char {\n    let _s = r#\"say .unwrap() \"freely\" here\"#;\n    let _t = b\"panic! bytes\";\n    '\\''\n}\n";
        assert!(lint_source(src, "sim", "t.rs").is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n        panic!(\"fine in tests\");\n    }\n}\nfn lib2(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let diags = lint_source(src, "sim", "t.rs");
        assert_eq!(codes(&diags), [("CS-L001", 11)]);
    }

    #[test]
    fn check_allow_suppresses_same_line_and_preceding_comment() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // check:allow(bounded by caller)\n}\nfn g(x: Option<u8>) -> u8 {\n    // check:allow(construction guarantees presence)\n    x.unwrap()\n}\n";
        assert!(lint_source(src, "sim", "t.rs").is_empty());
    }

    #[test]
    fn determinism_rules_only_apply_to_deterministic_crates() {
        let src = "fn f() {\n    let _t = std::time::Instant::now();\n}\n";
        assert_eq!(codes(&lint_source(src, "sim", "t.rs")), [("CS-L004", 2)]);
        assert!(lint_source(src, "campaign", "t.rs").is_empty());
    }

    #[test]
    fn println_is_a_warning() {
        let src = "fn f() {\n    println!(\"out\");\n}\n";
        let diags = lint_source(src, "obs", "t.rs");
        assert_eq!(codes(&diags), [("CS-L006", 2)]);
        assert_eq!(diags[0].severity, crate::diag::Severity::Warning);
    }

    #[test]
    fn eprintln_matches_the_println_rule() {
        let src = "fn f() {\n    eprintln!(\"out\");\n}\n";
        assert_eq!(codes(&lint_source(src, "obs", "t.rs")), [("CS-L006", 2)]);
    }

    #[test]
    fn narrowing_casts_fire_only_in_hot_path_crates() {
        let src = "fn f(x: u64) -> u32 {\n    x as u32\n}\n";
        assert_eq!(codes(&lint_source(src, "sim", "t.rs")), [("CS-L007", 2)]);
        assert_eq!(codes(&lint_source(src, "objmap", "t.rs")), [("CS-L007", 2)]);
        assert_eq!(codes(&lint_source(src, "hwpm", "t.rs")), [("CS-L007", 2)]);
        // analyze/check/campaign etc. are off the per-access hot path.
        assert!(lint_source(src, "analyze", "t.rs").is_empty());
        assert!(lint_source(src, "check", "t.rs").is_empty());
    }

    #[test]
    fn widening_casts_are_not_narrowing() {
        let src = "fn f(x: u32) -> u64 {\n    let _m = x as usize;\n    x as u64\n}\n";
        assert!(lint_source(src, "sim", "t.rs").is_empty());
    }

    #[test]
    fn narrowing_cast_allows_and_test_exemption_compose() {
        let src = "fn f(x: u64) -> u32 {\n    // check:allow(len bounded by u32 object cap)\n    x as u32\n}\n#[cfg(test)]\nmod tests {\n    fn t(x: u64) -> u8 {\n        x as u8\n    }\n}\n";
        assert!(lint_source(src, "sim", "t.rs").is_empty());
    }

    #[test]
    fn linting_this_repo_smoke_test() {
        // The real gate runs in CI; here just prove the walker finds and
        // parses the workspace without panicking.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let _ = lint_repo(&root);
    }
}
